"""The three benchmark workloads.

Each workload knows how to build its inputs, run one library op, list the
CLI chains of one pipeline op, and check what both produce.  Ops call the
package through module attributes (``sampler.in_place_boundary_sample``,
not a name imported here) so that the tracer can wrap those attributes.

Why these three: ``aztec`` keeps every box HV/VH (``grow_hv`` plus
Bernoulli draws, steep-tiling codec and domino SVG), ``unbounded`` is the
only one with the pyramidal truncation CDF and RSK growth, with HH, VV and
mixed kernels, geometric, Poisson and permutation draws, and ``gates`` is
dominated by fixed per-call costs over many tiny draws, the only place
``symmetric`` and the diagonal rules run.  A fourth workload, the 200x200
boxed plane partition (all HH), was dropped so that the other three could
run longer and steadier; its kernels and draws also run in ``unbounded``
and ``gates``.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

from schursample import cli, jsonio, rng, sampler, symmetric, tilings, unbounded, words


class Streams:
    """Creates the ``RandomSource`` streams of one op and remembers them."""

    def __init__(self, log_draws: bool = False):
        self.log_draws = log_draws
        self.made = []

    def new(self, seed: int):
        s = rng.RandomSource(seed, log_draws=self.log_draws)
        self.made.append(s)
        return s

    def child(self, base, k: int):
        s = base.child(k)
        self.made.append(s)
        return s


def sub_seed(op_seed: int, j: int) -> int:
    return op_seed * 8 + j


# --- output kinds: check and canonical key -------------------------------

def check_output(kind: str, obj) -> None:
    """Raise ValueError unless ``obj`` is a valid output of its kind."""
    if kind == "partition":
        if not all(isinstance(v, int) and v > 0 for v in obj) or any(
            a < b for a, b in zip(obj, obj[1:])
        ):
            raise ValueError(f"not a partition: {obj!r}")
    else:
        obj.validate()


def output_key(kind: str, obj):
    """JSON-comparable content of a library output."""
    if kind == "partition":
        return list(obj)
    if kind == "pyramid":
        lams = {str(i): list(v) for i, v in sorted(obj.lambdas.items())}
        return {"K": obj.truncation_index, "lambdas": lams}
    return [list(l) for l in obj.lambdas]


def cli_line_key(line: str):
    """JSON-comparable content of one sample line printed by the CLI."""
    d = json.loads(line)
    if d["kind"] == "partition":
        return d["lambda"]
    if d["kind"] == "pyramidal-sample":
        return {"K": d["truncation_index"], "lambdas": d["lambdas"]}
    return d["lambdas"]


def max_length(kind: str, obj) -> int:
    """Largest number of parts among the partitions of an output."""
    if kind == "partition":
        return len(obj)
    lams = obj.lambdas.values() if kind == "pyramid" else obj.lambdas
    return max((len(l) for l in lams), default=0)


# --- workloads -------------------------------------------------------------

class Aztec:
    """Uniform Aztec diamond, in place; pipeline to a domino SVG."""

    name = "aztec"

    def __init__(self, tiny: bool = False):
        self.text = "(<'>)^%d" % (4 if tiny else 200)

    def inputs(self):
        word = words.parse_word(self.text)
        return {"z_arg": ",".join(["1"] * len(word))}

    def lib_op(self, inp, op_seed: int, streams: Streams):
        word = words.parse_word(self.text)
        z = (1,) * len(word)
        s = sampler.in_place_boundary_sample(word, z, streams.new(op_seed))
        return [("process", s)]

    def chains(self, inp, op_seed: int):
        return [[
            ["sample", "--word", self.text, "--z", inp["z_arg"], "--in-place",
             "--seed", str(op_seed)],
            ["convert", "--to", "steep-tiling", "--input", "-"],
            ["render", "--style", "domino", "--input", "-"],
        ]]

    def decode_view(self, sample, view_line: str):
        return tilings.from_steep_tiling(jsonio.loads(view_line))


class Unbounded:
    """One pyramid-partition sample on a fresh sampler plus one Poissonized
    Plancherel sample."""

    name = "unbounded"

    def __init__(self, tiny: bool = False):
        self.q = "0.5" if tiny else "0.9"
        self.theta = "5" if tiny else "200"

    def inputs(self):
        unbounded.PyramidalParameters.q_volume(float(self.q))
        unbounded.WordConvention.pyramid()
        return {}

    def lib_op(self, inp, op_seed: int, streams: Streams):
        params = unbounded.PyramidalParameters.q_volume(float(self.q))
        conv = unbounded.WordConvention.pyramid()
        p = unbounded.unbounded_schur_sample(
            params, conv, streams.new(sub_seed(op_seed, 0))
        )
        lam = unbounded.plancherel_sample(
            float(self.theta), streams.new(sub_seed(op_seed, 1))
        )
        return [("pyramid", p), ("partition", lam)]

    def chains(self, inp, op_seed: int):
        return [
            [["sample-unbounded", "--q", self.q, "--alternating",
              "--seed", str(sub_seed(op_seed, 0))]],
            [["sample-plancherel", "--theta", self.theta,
              "--seed", str(sub_seed(op_seed, 1))]],
        ]


SYMMETRIC_MODES = ("free", "even_rows", "even_columns")


class Gates:
    """Many tiny draws from derived streams, as the statistical gates and
    ``schursample verify`` make them: per op, ``batch`` draws of each of
    Aztec-2, a 2x2 plane partition, the symmetric word in each mode, and
    Plancherel(4)."""

    name = "gates"

    def __init__(self, tiny: bool = False):
        self.batch = 2 if tiny else 16  # >= 2, so the CLI derives child streams
        self.aztec = ("(<'>)^2", "1,1,1,1")
        self.plane = ("(<)^2(>)^2", "2.0,4.0,0.125,0.0625")
        self.sym = ("(<<')^4", ",".join(["0.45"] * 8), "0.8")
        self.theta = "4"

    def inputs(self):
        for text, z in (self.aztec, self.plane, self.sym[:2]):
            words.parse_params(z, len(words.parse_word(text)))
        return {}

    def lib_op(self, inp, op_seed: int, streams: Streams):
        out = []
        for j, (text, z_arg) in enumerate((self.aztec, self.plane)):
            word = words.parse_word(text)
            z = words.parse_params(z_arg, len(word))
            base = streams.new(sub_seed(op_seed, j))
            for k in range(self.batch):
                src = streams.child(base, k)
                out.append(("process", sampler.schur_sample(word, z, src)))
        text, z_arg, t_arg = self.sym
        word = words.parse_word(text)
        z = words.parse_params(z_arg, len(word))
        t = words.parse_params(t_arg, 1)[0]
        for j, mode in enumerate(SYMMETRIC_MODES, start=2):
            base = streams.new(sub_seed(op_seed, j))
            for k in range(self.batch):
                src = streams.child(base, k)
                out.append(
                    ("symmetric", symmetric.symmetric_schur_sample(word, z, t, mode, src))
                )
        base = streams.new(sub_seed(op_seed, 5))
        for k in range(self.batch):
            src = streams.child(base, k)
            out.append(("partition", unbounded.plancherel_sample(float(self.theta), src)))
        return out

    def chains(self, inp, op_seed: int):
        count = ["--count", str(self.batch)]

        def seed(j):
            return ["--seed", str(sub_seed(op_seed, j))]

        text, z_arg, t_arg = self.sym
        out = [
            [["sample", "--word", self.aztec[0], "--z", self.aztec[1]] + seed(0) + count],
            [["sample", "--word", self.plane[0], "--z", self.plane[1]] + seed(1) + count],
        ]
        for j, mode in enumerate(SYMMETRIC_MODES, start=2):
            out.append([["sample-symmetric", "--word", text, "--z", z_arg, "--t", t_arg,
                         "--mode", mode.replace("_", "-")] + seed(j) + count])
        out.append([["sample-plancherel", "--theta", self.theta] + seed(5) + count])
        return out


WORKLOADS = {w.name: w for w in (Aztec, Unbounded, Gates)}


def run_cli(argv, stdin_text: str):
    """Run ``cli.main`` in-process with the given stdin; return (rc, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()
