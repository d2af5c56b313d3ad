"""``tools/bench_record.py`` writes what ``perfbench/compare.py`` prints:
the same medians, wins and verdicts, from two small synthetic record
directories."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
compare = bench_record.compare

SEEDS = range(501, 511)


def _write_runs(directory: Path, workload: str, values: dict, digest=lambda seed: f"d{seed}",
                failed=0.0, trace=0):
    """One run record per seed: ``values`` maps metric -> seed -> value."""
    directory.mkdir(exist_ok=True)
    for seed in SEEDS:
        record = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "ops": 100 + seed % 7,
            "metrics": {n: {"value": v[seed], "unit": "s"} for n, v in values.items()},
            "diagnostics": {"failed_frac": failed},
            "digest": digest(seed),
        }
        (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def _record(tmp_path, argv):
    out = tmp_path / "BENCH.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench_record.main([str(tmp_path / "p"), str(tmp_path / "c"), *argv,
                                  "-o", str(out)]) == 0
    return json.loads(out.read_text())


def _compare_verdicts(tmp_path):
    """{(workload, metric): (wins, verdict)} of the end-to-end rows that
    compare.py prints (a per-layer row's verdict is "-")."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        compare.main([str(tmp_path / "p"), str(tmp_path / "c")])
    rows = [line.split() for line in buf.getvalue().splitlines()[1:]]
    return {(r[0], r[1]): (r[-2], r[-1]) for r in rows if r[0] != "draws" and r[-1] != "-"}


def _sides(tmp_path):
    # pipeline_best_s: the change wins every pair by 10%; sample_best_s:
    # the same values; setup_s: worse by 40%, past the 25% bound; and the
    # setup_s of a second workload whose parent spread exceeds the bound,
    # where the change wins 5 of 10 pairs
    base = {s: 1.0 + 0.01 * (s % 5) for s in SEEDS}
    parent = {"pipeline_best_s": base, "sample_best_s": base, "setup_s": base}
    change = {
        "pipeline_best_s": {s: v * 0.9 for s, v in base.items()},
        "sample_best_s": dict(base),
        "setup_s": {s: v * 1.4 for s, v in base.items()},
    }
    _write_runs(tmp_path / "p", "gates", parent)
    _write_runs(tmp_path / "c", "gates", change)
    noisy = {s: 1.0 + 0.3 * (s % 3) for s in SEEDS}
    _write_runs(tmp_path / "p", "aztec", {"setup_s": noisy})
    _write_runs(tmp_path / "c", "aztec", {"setup_s": {s: noisy[s] - 0.05 * (s % 2)
                                                      for s in SEEDS}},
                digest=lambda seed: "x" if seed == 505 else f"d{seed}", failed=0.01)
    # a traced run's metrics are per layer, not end to end
    _write_runs(tmp_path / "p", "gates", {"jsonio.s": base}, trace=1)
    _write_runs(tmp_path / "c", "gates", {"jsonio.s": base}, trace=1)


def test_the_record_has_compare_py_s_verdicts_and_numbers(tmp_path):
    _sides(tmp_path)
    rec = _record(tmp_path, ["--claim", "gates/pipeline_best_s"])
    e2e = rec["end_to_end"]
    assert set(e2e) == {"gates", "aztec"}
    assert set(e2e["gates"]) == {"pipeline_best_s", "sample_best_s", "setup_s"}
    verdicts = {(w, m): (e["wins"], e["verdict"]) for w, ms in e2e.items() for m, e in ms.items()}
    assert verdicts == _compare_verdicts(tmp_path)
    assert verdicts[("gates", "pipeline_best_s")] == ("10/10", "gain")
    assert verdicts[("gates", "sample_best_s")] == ("0/10", "same")
    assert verdicts[("gates", "setup_s")] == ("0/10", "REGRESSION")
    assert verdicts[("aztec", "setup_s")] == ("5/10", "unresolved")

    pipe = e2e["gates"]["pipeline_best_s"]
    assert pipe["unit"] == "s" and pipe["better"] == "lower" and pipe["bound"] == 0.25
    assert pipe["parent"]["by_seed"]["503"] == 1.03
    assert pipe["change"]["median"] == 0.9 * pipe["parent"]["median"]
    assert (pipe["parent"]["q1"], pipe["parent"]["q3"]) == compare.quartiles(
        list(pipe["parent"]["by_seed"].values())
    )

    assert rec["claim"]["workload"] == "gates" and rec["claim"]["verdict"] == "gain"
    assert rec["claim"]["result"].startswith("met: 10/10 pairs won, median 1.02 -> 0.918 (-10.0%)")

    assert all(d["same"] for d in rec["digests"]["gates"].values())
    assert rec["digests"]["aztec"]["505"] == {"parent": ["d505"], "change": ["x"], "same": False}
    assert rec["ops"]["aztec"]["change"]["failed_frac_max"] == 0.01
    assert rec["ops"]["gates"]["parent"]["runs"] == 20  # both traces


def test_the_record_keeps_the_sections_written_by_hand(tmp_path):
    _sides(tmp_path)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"change": "what changed", "claim": {"old": True}}))
    rec = _record(tmp_path, [])
    assert rec["change"] == "what changed"
    assert rec["claim"] == {"old": True}  # no --claim: left as it is
    rec = _record(tmp_path, ["--claim", "gates/sample_best_s"])
    assert rec["claim"]["verdict"] == "same" and rec["claim"]["result"].startswith("not met")
