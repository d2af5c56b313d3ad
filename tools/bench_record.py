"""Write the record of a benchmark comparison: the end-to-end numbers,
digests and claim of a committed ``BENCH_<n>.json``.

    python tools/bench_record.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD/METRIC] -o BENCH_<n>.json

PARENT_DIR and CHANGE_DIR hold the records that ``perfbench/run.py``
writes, one per run; runs are paired by workload and seed.  The numbers
come from ``perfbench/compare.py``'s own ``load``, ``quartiles`` and
``verdict``, so the file says what ``compare.py`` prints:

* ``end_to_end``: per workload and end-to-end metric of ``BENCHMARK.json``,
  its unit, direction and bound; each side's median, quartiles and value by
  seed (``--trace 0`` runs only); the pairs the change wins; and the
  verdict (``unresolved``, ``REGRESSION``, ``gain`` or ``same``);
* ``digests``: per workload and seed, each side's output digests and
  whether they are the same;
* ``ops``: per workload and side, the runs, the ops they ran and the largest
  share of failed ops in one run;
* ``claim`` (with ``--claim``): the verdict of the claimed metric in words.

If the output file exists, its other sections (a description of the
change, the method, traced layers) are kept and these are replaced.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import compare  # noqa: E402  (perfbench/compare.py)


def _side(values: dict) -> dict:
    xs = list(values.values())
    q1, q3 = compare.quartiles(xs)
    by_seed = {str(seed): values[seed] for seed in sorted(values)}
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "by_seed": by_seed}


def end_to_end(parent: dict, change: dict, spec: dict) -> dict:
    """{workload: {metric: entry}} for the end-to-end metrics that both
    sides' untraced runs have, judged as compare.py judges them."""
    out = {}
    for workload, trace in sorted(set(parent) & set(change)):
        if trace:
            continue
        p_runs, c_runs = parent[(workload, 0)], change[(workload, 0)]
        for name in [m for m in spec if m in p_runs and m in c_runs]:
            m, p, c = spec[name], p_runs[name], c_runs[name]
            sign = 1 if m["better"] == "lower" else -1
            seeds = sorted(set(p) & set(c))
            wins = sum(sign * (c[s] - p[s]) < 0 for s in seeds)
            pl, cl = list(p.values()), list(c.values())
            v = compare.verdict(pl, cl, m["better"], m["bound"])
            if v is None:  # compare.py's rule for a gain
                q1, q3 = compare.quartiles(pl)
                gap = abs(statistics.median(cl) - statistics.median(pl))
                v = "gain" if seeds and wins >= 0.9 * len(seeds) and gap > q3 - q1 else "same"
            out.setdefault(workload, {})[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": _side(p),
                "change": _side(c),
                "wins": f"{wins}/{len(seeds)}",
                "verdict": v,
            }
    return out


def digests(parent: dict, change: dict) -> dict:
    out = {}
    for workload, seed in sorted(set(parent) & set(change)):
        p, c = sorted(parent[(workload, seed)]), sorted(change[(workload, seed)])
        out.setdefault(workload, {})[str(seed)] = {
            "parent": p, "change": c, "same": p == c and len(p) == 1,
        }
    return out


def ops(directory: str) -> dict:
    """{workload: {runs, ops, failed_frac_max}} over every run record."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" in rec:
            runs[rec["workload"]].append(rec)
    return {
        w: {
            "runs": len(recs),
            "ops": sum(r["ops"] for r in recs),
            "failed_frac_max": max(r["diagnostics"]["failed_frac"] for r in recs),
        }
        for w, recs in sorted(runs.items())
    }


def claim(table: dict, workload: str, metric: str) -> dict:
    entry = table[workload][metric]
    p, c = entry["parent"], entry["change"]
    change = (c["median"] - p["median"]) / p["median"]
    met = "met" if entry["verdict"] == "gain" else "not met"
    return {
        "workload": workload,
        "metric": metric,
        "verdict": entry["verdict"],
        "result": (
            f"{met}: {entry['wins']} pairs won, median {p['median']:.4g} -> "
            f"{c['median']:.4g} ({change:+.1%}), a gap of "
            f"{abs(c['median'] - p['median']):.3g} against a parent quartile spread of "
            f"{p['q3'] - p['q1']:.3g}"
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC")
    ap.add_argument("-o", "--out", required=True)
    args = ap.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(compare.SPEC.read_text())["end_to_end"]}
    (pv, pd), (cv, cd) = compare.load(args.parent_dir), compare.load(args.change_dir)
    table = end_to_end(pv, cv, spec)
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    p_ops, c_ops = ops(args.parent_dir), ops(args.change_dir)
    record.update(
        end_to_end=table,
        digests=digests(pd, cd),
        ops={w: {"parent": p_ops[w], "change": c_ops[w]} for w in sorted(p_ops.keys() & c_ops)},
    )
    if args.claim:
        workload, _, metric = args.claim.partition("/")
        if metric not in table.get(workload, {}):
            ap.error(f"--claim {args.claim}: no such workload and end-to-end metric on both sides")
        record["claim"] = claim(table, workload, metric)
    out.write_text(json.dumps(record, indent=1) + "\n")
    bad = [f"{w}/{m}" for w, ms in table.items() for m, e in ms.items() if e["verdict"] != "same"]
    print(f"wrote {out}; verdicts other than same: {', '.join(bad) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
