"""Compare two sets of benchmark result records: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that ``run.py`` writes (``perfbench/out/``
by default); runs are paired by workload and seed.  For every workload and
metric it prints both sides' median and quartiles, and the fraction of
pairs the change wins (ties count for neither).  End-to-end metrics get a
verdict against their bound in BENCHMARK.json:

* ``unresolved``: the parent's own quartile spread exceeds the bound and not
  every change run beats every parent run;
* ``REGRESSION``: the change's median is worse by more than the bound;
* ``gain``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's quartile spread;
* ``same`` otherwise.

Runs of the same workload and seed must give the same output digest on
both sides; a difference is flagged as ``draws changed``.  The exit code is
1 when any regression or digest change is found.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str):
    """{(workload, trace): {metric: {seed: value}}} and {(workload, seed): digest}."""
    values = defaultdict(lambda: defaultdict(dict))
    digests = defaultdict(set)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" not in rec:
            continue
        for name, m in rec["metrics"].items():
            values[(rec["workload"], rec["trace"])][name][rec["seed"]] = m["value"]
        digests[(rec["workload"], rec["seed"])].add(rec["digest"])
    return values, digests


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """The comparison of one end-to-end metric, as described above."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse = sign * (c_med - p_med) / p_med
    spread = (q3 - q1) / p_med
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    (pv, pd), (cv, cd) = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':10s} {'metric':24s} {'parent p50 [q1, q3]':>36s} "
          f"{'change p50 [q1, q3]':>36s} {'wins':>9s}  verdict")
    for key in sorted(set(pv) & set(cv)):
        workload, _ = key
        for name in sorted(set(pv[key]) & set(cv[key])):
            p, c = pv[key][name], cv[key][name]
            better = (e2e.get(name) or layer.get(name) or {}).get("better", "lower")
            sign = 1 if better == "lower" else -1
            seeds = sorted(set(p) & set(c))
            wins = sum(sign * (c[s] - p[s]) < 0 for s in seeds)
            pl, cl = list(p.values()), list(c.values())
            p_med, c_med = statistics.median(pl), statistics.median(cl)
            p_q, c_q = quartiles(pl), quartiles(cl)
            if name in e2e:
                v = verdict(pl, cl, better, e2e[name]["bound"])
                if v is None:
                    gain = (seeds and wins >= 0.9 * len(seeds)
                            and abs(c_med - p_med) > p_q[1] - p_q[0])
                    v = "gain" if gain else "same"
                bad |= v == "REGRESSION"
            else:
                v = "-"
            print(f"{workload:10s} {name:24s} "
                  f"{p_med:>12.6g} [{p_q[0]:.4g}, {p_q[1]:.4g}]".ljust(73)
                  + f"{c_med:>12.6g} [{c_q[0]:.4g}, {c_q[1]:.4g}]".ljust(37)
                  + f"{wins:>4d}/{len(seeds):<4d} {v}")
    for key in sorted(set(pd) & set(cd)):
        if pd[key] != cd[key] or len(pd[key]) > 1:
            bad = True
            print(f"draws changed: workload {key[0]} seed {key[1]}: "
                  f"{sorted(pd[key])} vs {sorted(cd[key])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
