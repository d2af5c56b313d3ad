"""Self-test of the benchmark harness at tiny sizes (about twenty seconds).

    python3 perfbench/selftest.py

Checks, for every workload, that:

* the last output line has exactly the keys correct/attempted/failed/metrics,
  no op failed, and the metrics are exactly BENCHMARK.json's end-to-end
  (``--trace 0``) or per-layer (``--trace 1``) metrics with their units;
* in every traced op, the layer times do not exceed the op's traced wall time;
* two invocations with the same seed give the same output digest;

and that ``compare.py`` runs on the two record sets, and that ``run.py``
fails without printing a result where the package source is absent.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(out_dir: Path, workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
           "--tiny", "--out-dir", str(out_dir)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def record(out_dir: Path, workload: str, trace: int) -> dict:
    (path,) = out_dir.glob(f"{workload}-*-trace{trace}-*.json")
    return json.loads(path.read_text())


def main() -> int:
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    names = [w["name"] for w in SPEC["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for w in names:
            for out_dir, trace in ((tmp / "a", 0), (tmp / "b", 0), (tmp / "b", 1)):
                proc = run(out_dir, w, 7, trace)
                expect(proc.returncode == 0, f"{w} trace {trace}: exit {proc.returncode}: "
                       f"{proc.stderr[-500:]}")
                if proc.returncode:
                    continue
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                       f"{w}: result keys {sorted(last)}")
                expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                       f"{w} trace {trace}: {last['failed']} of {last['attempted']} failed")
                got = {n: m["unit"] for n, m in last["metrics"].items()}
                expect(got == wanted[trace], f"{w} trace {trace}: metrics {got}")
            digests = {record(tmp / d, w, t)["digest"] for d, t in (("a", 0), ("b", 0), ("b", 1))}
            expect(len(digests) == 1, f"{w}: same seed, different digests {digests}")
            checks = record(tmp / "b", w, 1)["trace_checks"]
            expect(checks, f"{w}: no traced op")
            for c in checks:
                expect(c["lib_layers_s"] <= c["lib_wall_s"] + 1e-9, f"{w}: library layers {c}")
                expect(c["pipe_layers_s"] <= c["pipe_wall_s"] + 1e-9, f"{w}: pipeline layers {c}")
        proc = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(tmp / "a"),
                               str(tmp / "b")], capture_output=True, text=True, timeout=60)
        expect(proc.returncode in (0, 1) and all(w in proc.stdout for w in names),
               f"compare.py: exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}")
        expect("draws changed" not in proc.stdout, "compare.py flags equal digests")

        bare = tmp / "bare"
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(tmp / "bare-out", names[0], 7, 0, cwd=bare)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "run.py succeeds without the package source")

    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
