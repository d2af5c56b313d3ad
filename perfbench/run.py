"""Benchmark of schursample: one workload per process, closed loop, one op
at a time.

    python3 perfbench/run.py --workload aztec --seed 1 --seconds 36 --trace 0

An op is one library sampling call (timed alone) followed by the CLI
pipeline for the same seed, run in-process through ``cli.main`` with each
stage's stdout fed to the next.  Every output is checked outside the timed
region.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced ops alternate and the per-layer metrics
are reported.  The full result record goes to ``perfbench/out/``; the last
line of stdout is the JSON summary {correct, attempted, failed, metrics}.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Gated timings are each run's best op, on the host-speed scale below: on a
# shared host other load only ever adds time, in spells from under a second
# to minutes that cover a varying share of a run, so the fastest op moves
# far less from run to run than the median does.  Medians, throughput, the
# tail and the unscaled times are kept as diagnostics.
END_TO_END = {
    "sample_best_s": "s",
    "pipeline_best_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "words.plan_s": "s",
    "rng.stream_s": "s",
    "rng.s": "s",
    "rng.draws.geometric": "count",
    "rng.draws.bernoulli": "count",
    "rules.HH.s": "s",
    "rules.HV.s": "s",
    "rules.VV.s": "s",
    "rules.diag.s": "s",
    "rules.boxes.HH": "count",
    "rules.boxes.HV": "count",
    "rules.boxes.VH": "count",
    "rules.boxes.VV": "count",
    "rules.boxes.diag": "count",
    "sampler.work": "count",
    "sampler.L_max": "count",
    "sampler.sweep_s": "s",
    "symmetric.sweep_s": "s",
    "unbounded.cdf_s": "s",
    "unbounded.cdf_boxes": "count",
    "unbounded.K": "count",
    "unbounded.grow_s": "s",
    "unbounded.rsk_s": "s",
    "unbounded.plancherel_n": "count",
    "tilings.convert_s": "s",
    "jsonio.s": "s",
    "jsonio.bytes": "bytes",
    "render.s": "s",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

MIN_OPS = 4  # every run completes at least this many ops, even if slow
DIGEST_OPS = 3  # the digest covers the outputs of the first ops only
SETUP_PROBES = 9  # spread evenly over the run, so one slow spell moves few
SPANS_KEPT = 1  # traced ops whose raw spans go into the result record
REF_EVERY_S = 0.1  # one reference sample per this much run time, between ops
REF_BURST = 8  # most reference samples taken at one gap between ops
REF_NOMINAL_S = 0.015  # reference loop time that defines the reported scale


def reference_time() -> float:
    """Time a fixed pure-Python loop of the tuple and int work the package
    does.  It runs no package code, so it measures only how fast the host
    lets this process run at that moment."""
    rows = tuple(range(60, 0, -1))
    t0 = perf_counter()
    for _ in range(1500):
        tuple([max(a, b) + (a if a < b else b) for a, b in zip(rows, rows[1:])])
    return perf_counter() - t0
def op_seed(seed: int, k: int) -> int:
    return seed * 1_000_000 + k


def setup_probe(args) -> None:
    """Time, in this fresh process, importing the CLI and building inputs,
    scaled like the op times by a reference sample taken just before."""
    ref = reference_time()
    t0 = perf_counter()
    import schursample.cli  # noqa: F401
    import workloads

    workloads.WORKLOADS[args.workload](args.tiny).inputs()
    print((perf_counter() - t0) * REF_NOMINAL_S / ref)


def setup_probe_cmd(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + ["--tiny"] if args.tiny else cmd


def run_setup_probe(cmd) -> float:
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def environment() -> dict:
    def git(*cmd):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    is_repo = (ROOT / ".git").exists()
    status = git("status", "--porcelain") if is_repo else None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": None if status is None else bool(status),
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def tail_percentile(times):
    """Highest of p50/p90/p99/p99.9 with at least ten ops beyond it."""
    best = None
    for pct in (50, 90, 99, 99.9):
        if len(times) * (1 - pct / 100) >= 10:
            best = {"pct": pct, "s": statistics.quantiles(times, n=1000)[int(pct * 10) - 1]}
    return best


class Runner:
    """Runs the ops of one workload and checks what they produce."""

    def __init__(self, wl, inp, seed: int, tracer=None):
        import workloads

        self.w = workloads
        self.wl, self.inp, self.seed, self.tracer = wl, inp, seed, tracer
        self.lib_times, self.pipe_times, self.pair_times = [], [], {True: [], False: []}
        self.samples = 0
        self.attempted = self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()
        self.first_keys = None
        self.first_pipe = None

    def fail(self, what: str, exc) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def _timed(self, traced, op_id, name, fn):
        gc.collect()
        t0 = perf_counter()
        out = self.tracer.run(op_id, name, fn) if traced else fn()
        return out, perf_counter() - t0

    def _pipeline(self, chains):
        stages = []
        for chain in chains:
            text = ""
            outs = []
            for argv in chain:
                rc, text = self.w.run_cli(argv, text)
                if rc != 0:
                    raise RuntimeError(f"exit code {rc} from {argv[0]}")
                outs.append(text)
            stages.append(outs)
        return stages

    def op(self, k: int, traced: bool = False) -> None:
        s = op_seed(self.seed, k)
        outs = lib_keys = pipe = None
        self.attempted += 2
        try:
            streams = self.w.Streams()
            outs, dt = self._timed(traced, ("lib", k), "op.lib",
                                   lambda: self.wl.lib_op(self.inp, s, streams))
            self.lib_times.append(dt)
            self.samples += len(outs)
            for kind, obj in outs:
                self.w.check_output(kind, obj)
            lib_keys = [self.w.output_key(kind, obj) for kind, obj in outs]
        except Exception as exc:  # every failure is counted, the run goes on
            self.fail(f"op {k} library", exc)
        try:
            pipe, dt = self._timed(traced, ("pipe", k), "op.pipe",
                                   lambda: self._pipeline(self.wl.chains(self.inp, s)))
            self.pipe_times.append(dt)
            if lib_keys is not None:
                self.pair_times[traced].append(self.lib_times[-1] + dt)
            self._check_pipeline(k, outs if lib_keys is not None else None, lib_keys, pipe)
        except Exception as exc:
            self.fail(f"op {k} pipeline", exc)
        if k < DIGEST_OPS:
            self.digest.update(json.dumps([lib_keys, pipe]).encode())
        if k == 0:
            self.first_keys, self.first_pipe = lib_keys, pipe

    def _check_pipeline(self, k, outs, lib_keys, pipe) -> None:
        cli_keys = [self.w.cli_line_key(line) for stages in pipe
                    for line in stages[0].splitlines() if line.strip()]
        if lib_keys is not None and cli_keys != lib_keys:
            raise ValueError("CLI samples differ from the library samples of the same seed")
        for stages in pipe:
            if len(stages) == 3:
                svg = stages[2].strip()
                if not (svg.startswith("<svg") and svg.endswith("</svg>")):
                    raise ValueError("render output is not an SVG document")
                if k < DIGEST_OPS and outs is not None:
                    sample = outs[0][1]
                    if self.wl.decode_view(sample, stages[1]) != sample.lambdas:
                        raise ValueError("decoded view differs from the sample")

    def verify_draw_log(self) -> None:
        """Rerun op 0 logging its draws and check that the inputs recovered
        by inverting the local rules equal the logged draws."""
        self.attempted += 1
        try:
            streams = self.w.Streams(log_draws=True)
            outs = self.wl.lib_op(self.inp, op_seed(self.seed, 0), streams)
            keys = [self.w.output_key(kind, obj) for kind, obj in outs]
            if keys != self.first_keys:
                raise ValueError("rerun of op 0 with a draw log gave other samples")
            from schursample import sampler, words

            for kind, obj in outs:
                if kind != "process":
                    continue
                inputs = sampler.reconstruct_inputs(obj)
                boxes = words.precompute_par(obj.word, obj.z).boxes()
                if [inputs[b] for b in boxes] != [v for _, _, v in obj.draw_log]:
                    raise ValueError("reconstructed inputs differ from the draw log")
        except Exception as exc:
            self.fail("draw-log reconstruction", exc)

    def end_to_end(self, best_ref: float, setup_s: float) -> dict:
        """Best op times scaled by REF_NOMINAL_S over the run's best
        reference sample, so a run spent wholly on a slowed host reads the
        same as one that had fast spells: seconds on a host that runs the
        reference loop in REF_NOMINAL_S."""
        scale = REF_NOMINAL_S / best_ref
        return {
            "sample_best_s": min(self.lib_times) * scale,
            "pipeline_best_s": min(self.pipe_times) * scale,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def diagnostics(self) -> dict:
        return {
            "failed_frac": self.failed / self.attempted,
            "samples_per_s": self.samples / sum(self.lib_times) if self.lib_times else None,
            "sample_p50_s": statistics.median(self.lib_times) if self.lib_times else None,
            "pipeline_p50_s": statistics.median(self.pipe_times) if self.pipe_times else None,
            "sample_tail": tail_percentile(self.lib_times),
            "pipeline_tail": tail_percentile(self.pipe_times),
            "lib_ops": len(self.lib_times),
            "pipeline_ops": len(self.pipe_times),
        }


def per_layer(runner: Runner, traced_ops) -> tuple:
    """Per-layer metrics from the traced ops and one recorded op; also the
    per-op layer-time checks kept in the result record."""
    import tracing

    tracer = runner.tracer
    lib = [tracer.layer_self_times(("lib", k)) for k in traced_ops]
    pipe = [tracer.layer_self_times(("pipe", k)) for k in traced_ops]

    def med(layers, name):
        return statistics.median(l[name] for l in layers) if layers else 0.0

    rec = tracing.Recorder()
    streams = runner.w.Streams()
    outs = rec.run(lambda: runner.wl.lib_op(runner.inp, op_seed(runner.seed, 0), streams))
    rule_t, rule_bad = rec.replay_rules()
    draw_t, draw_bad = rec.replay_draws()
    runner.attempted += 1
    if rule_bad or draw_bad:
        runner.fail("replay", ValueError(f"{rule_bad} kernel and {draw_bad} draw results differ"))

    def rules_s(kinds=None, ctx=None):
        return sum(t for (c, kind), t in rule_t.items()
                   if (kinds is None or kind in kinds) and (ctx is None or c == ctx))

    boxes = rec.rule_counts()
    pyramids = [obj.truncation_index for kind, obj in outs if kind == "pyramid"]
    pyramid_k = -1 if pyramids and pyramids[0] is None else sum(pyramids)  # -1: empty
    pipe0 = [text for stages in runner.first_pipe for text in stages]
    svg = [t for t in pipe0 if t.lstrip().startswith("<svg")]
    untraced, traced = runner.pair_times[False], runner.pair_times[True]
    m = {
        "words.plan_s": med(lib, "words"),
        "rng.stream_s": med(lib, "rng.stream"),
        "rng.s": sum(draw_t.values()),
        "rng.draws.geometric": sum(s.ledger.geometric_draws for s in streams.made),
        "rng.draws.bernoulli": sum(s.ledger.bernoulli_draws for s in streams.made),
        "rules.HH.s": rules_s(("HH",)),
        "rules.HV.s": rules_s(("HV", "VH")),
        "rules.VV.s": rules_s(("VV",)),
        "rules.diag.s": rules_s(("diag",)),
        "rules.boxes.HH": boxes["HH"],
        "rules.boxes.HV": boxes["HV"],
        "rules.boxes.VH": boxes["VH"],
        "rules.boxes.VV": boxes["VV"],
        "rules.boxes.diag": boxes["diag"],
        "sampler.work": rec.work(),
        "sampler.L_max": max(runner.w.max_length(kind, obj) for kind, obj in outs),
        "sampler.sweep_s": med(lib, "sampler") - rules_s(ctx="sampler") - draw_t.get("sampler", 0.0),
        "symmetric.sweep_s": med(lib, "symmetric") - rules_s(ctx="symmetric")
        - draw_t.get("symmetric", 0.0),
        "unbounded.cdf_s": med(lib, "unbounded.cdf"),
        "unbounded.cdf_boxes": rec.cdf_params,
        "unbounded.K": pyramid_k,
        "unbounded.grow_s": med(lib, "unbounded.grow"),
        "unbounded.rsk_s": med(lib, "unbounded.rsk"),
        "unbounded.plancherel_n": sum(sum(obj) for kind, obj in outs if kind == "partition"),
        "tilings.convert_s": med(pipe, "tilings"),
        "jsonio.s": med(pipe, "jsonio"),
        "jsonio.bytes": sum(len(t.encode()) for t in pipe0 if t not in svg),
        "render.s": med(pipe, "render"),
        "render.svg_bytes": sum(len(t.encode()) for t in svg),
        "cli.self_s": med(pipe, "cli"),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    }
    checks = [{
        "op": k,
        "lib_wall_s": tracer.wall(("lib", k)),
        "lib_layers_s": sum(v for n, v in lay_lib.items() if n != "op.lib"),
        "pipe_wall_s": tracer.wall(("pipe", k)),
        "pipe_layers_s": sum(lay_pipe[n] for n in ("cli", "tilings", "jsonio", "render")),
    } for k, lay_lib, lay_pipe in zip(traced_ops, lib, pipe)]
    return m, checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--out-dir", default=str(BENCH / "out"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "schursample" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/schursample", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    if args.setup_probe:
        setup_probe(args)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    started = time.time()
    wl = workloads.WORKLOADS[args.workload](args.tiny)
    inp = wl.inputs()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    runner = Runner(wl, inp, args.seed, tracer)

    probe = setup_probe_cmd(args)
    probes = 0 if args.trace else SETUP_PROBES
    setup_times = []
    refs = []
    start = last_ref = perf_counter() - REF_EVERY_S
    deadline = start + args.seconds
    k = 0
    traced_ops = []
    while k < MIN_OPS or perf_counter() < deadline:
        due = int((perf_counter() - last_ref) / REF_EVERY_S)
        if due:
            refs.extend(reference_time() for _ in range(min(due, REF_BURST)))
            last_ref = perf_counter()
        while len(setup_times) < probes and (
            perf_counter() >= start + len(setup_times) * args.seconds / probes
        ):
            setup_times.append(run_setup_probe(probe))
        traced = bool(args.trace) and k % 2 == 1
        runner.op(k, traced)
        if traced:
            traced_ops.append(k)
        k += 1
    setup_s = statistics.median(setup_times) if probes else None
    runner.verify_draw_log()
    if not (runner.lib_times and runner.pipe_times):
        print("perfbench: no op completed:", *runner.errors, sep="\n", file=sys.stderr)
        return 1

    if args.trace:
        metrics, checks = per_layer(runner, traced_ops)
        units = PER_LAYER
    else:
        metrics, checks = runner.end_to_end(min(refs), setup_s), []
        units = END_TO_END
    env["loadavg_after"] = os.getloadavg()
    diagnostics = runner.diagnostics()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "started": started,
        "env": env,
        "ops": k,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "diagnostics": {
            **diagnostics,
            "setup_probes_s": setup_times,
            "reference_s": [round(t, 6) for t in refs],
            "sample_best_unscaled_s": min(runner.lib_times),
            "pipeline_best_unscaled_s": min(runner.pipe_times),
            "lib_times_s": [round(t, 6) for t in runner.lib_times],
            "pipeline_times_s": [round(t, 6) for t in runner.pipe_times],
        },
        "digest": runner.digest.hexdigest(),
        "digest_ops": DIGEST_OPS,
        "errors": runner.errors,
        "trace_checks": checks,
        "spans": {f"{kind}-{op}": spans for (kind, op), spans in
                  (tracer.by_op.items() if tracer else ()) if op in traced_ops[:SPANS_KEPT]},
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    for n, v in record["metrics"].items():
        print(f"{args.workload:10s} {n:24s} {v['value']:>14.6g} {v['unit']}")
    for n, unit in (("samples_per_s", "1/s"), ("sample_p50_s", "s"),
                    ("pipeline_p50_s", "s"), ("failed_frac", "frac")):
        print(f"{args.workload:10s} {n:24s} {diagnostics[n]:>14.6g} {unit} (not gated)")
    print(f"{args.workload:10s} {runner.failed} of {runner.attempted} ops failed; "
          f"{len(runner.lib_times)} library ops, {len(runner.pipe_times)} pipeline ops")
    for e in runner.errors:
        print(f"error: {e}")
    print(f"digest {record['digest']}  record {out_dir / name}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
