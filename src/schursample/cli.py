"""Command-line interface: sampling, partition functions, verification,
model conversion, and SVG rendering.

All randomness flows through --seed; batch runs derive one independent
stream per run index, so output order and content are reproducible.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import jsonio
from .render import RenderStyle, render_svg
from .rng import RandomSource
from .rules import MODES
from .sampler import ProcessSample, schur_sample
from .symmetric import SymmetricSample, symmetric_schur_sample
from .tilings import (
    to_plane_overpartition,
    to_plane_partition,
    to_steep_tiling,
)
from .unbounded import (
    PyramidalParameters,
    PyramidalSampler,
    WordConvention,
    plancherel_sample,
)
from .words import parse_number, parse_params, parse_word, q_volume_parameters


class CliError(Exception):
    pass


def _word_and_params(args):
    word = parse_word(args.word)
    if args.z is not None and args.q is not None:
        raise CliError(f"give --z or --q, not both (got --z {args.z!r} and --q {args.q!r})")
    if args.z is not None:
        z = parse_params(args.z, len(word))
    elif args.q is not None:
        z = q_volume_parameters(word, parse_number(args.q))
    else:
        raise CliError("need --z or --q")
    return word, z


def _batch(count: int, seed: int, sample, batched: bool = False):
    """The samples of --count and --seed: count 1 draws ``sample(src)`` from
    the seed's own stream, a larger count draws from its children 0 ..
    count - 1, as one call ``sample(src, count=count)`` for a ``batched``
    sampler, which plans and checks once per batch, and else one call per
    child."""
    if count < 1:
        raise CliError(f"--count must be at least 1, got {count}")
    src = RandomSource(seed)
    if count == 1:
        return [sample(src)]
    if batched:
        return sample(src, count=count)
    return [sample(src.child(k)) for k in range(count)]


def cmd_sample(args) -> int:
    word, z = _word_and_params(args)
    sample = functools.partial(schur_sample, word, z)
    sys.stdout.write(jsonio.dumps(_batch(args.count, args.seed, sample, batched=True)))
    return 0


def cmd_sample_symmetric(args) -> int:
    word = parse_word(args.word)
    z = parse_params(args.z, len(word))
    t = parse_params(args.t, 1)[0]
    mode = args.mode.replace("-", "_")
    sample = functools.partial(symmetric_schur_sample, word, z, t, mode)
    sys.stdout.write(jsonio.dumps(_batch(args.count, args.seed, sample, batched=True)))
    return 0


def cmd_sample_unbounded(args) -> int:
    params = PyramidalParameters.q_volume(float(parse_number(args.q)))
    conv = WordConvention.pyramid() if args.alternating else WordConvention.plane_partitions()
    sampler = PyramidalSampler(params, conv)
    sys.stdout.write(jsonio.dumps(_batch(args.count, args.seed, sampler.sample), q=args.q))
    return 0


def cmd_sample_plancherel(args) -> int:
    one = lambda src: plancherel_sample(args.theta, src)
    sys.stdout.write(jsonio.dumps(_batch(args.count, args.seed, one)))
    return 0


def cmd_zfun(args) -> int:
    from .zfun import z_finite, z_symmetric

    if args.t is None and args.mode is not None:
        raise CliError(f"--mode {args.mode} needs --t, as it is a symmetric boundary mode")
    word = parse_word(args.word)
    z = parse_params(args.z, len(word))
    if args.t is not None:
        t = parse_params(args.t, 1)[0]
        out = z_symmetric(word, z, t, (args.mode or "free").replace("-", "_"))
    else:
        out = z_finite(word, z)
    print(str(out))
    return 0


def _exact(v) -> Fraction:
    """The rational the oracle uses for a parsed number: floats are rounded
    to denominators up to 10^9, and non-finite values are refused."""
    if not isinstance(v, float):
        return Fraction(v)
    if not math.isfinite(v):
        raise ValueError(f"the exact oracle needs finite parameters, got {v!r}")
    return Fraction(v).limit_denominator(10**9)


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    # imported here, as zfun is by cmd_zfun, so that no other command pays
    # for compiling the oracle
    from .oracle import chi_square_pvalue, chi_square_statistic, enumerate_support, tv_distance

    word, z = _word_and_params(args)
    if args.q is None:
        zx = tuple(_exact(v) for v in z)
    else:  # exact q^Volume weights, which the oracle recognises
        zx = q_volume_parameters(word, _exact(parse_number(args.q)))
    sup = enumerate_support(word, zx, cap=args.cap, refine_tail_to=2 * args.cap + 8)
    counts = {}
    for s in schur_sample(word, z, RandomSource(args.seed), count=args.samples):
        counts[s.lambdas] = counts.get(s.lambdas, 0) + 1
    tv = tv_distance(counts, sup)
    total = sup.total
    probs = {key: float(w / total) for key, w in sup.entries.items()}
    stat, dof = chi_square_statistic(counts, probs, args.samples)
    passed = tv <= args.tv_threshold
    print(f"support entries: {len(sup.entries)} (cap {args.cap})")
    print(f"tail bound: {float(sup.tail_bound):.3g}")
    print(f"TV distance: {tv:.5f}")
    print(f"chi-square: {stat:.2f} on {dof} dof")
    print(f"chi-square p-value: {chi_square_pvalue(stat, dof):.4g}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


_SPACES, _INK = re.compile(r"\s*"), re.compile(r"\S")  # as str.isspace tells
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"  # str.splitlines' ASCII line boundaries but "\n"


def _first_line(text: str):
    """``text.strip().splitlines()[0]``, or None for a blank text, copying
    only the first line: a view can be megabytes long.  That line ends at the
    first newline (``str.find``) unless another line boundary comes first;
    an ASCII line is searched for those with ``in``, several times faster
    than ``str.splitlines`` or a regular expression.  Its trailing
    whitespace stays unless nothing but whitespace follows it."""
    start = _SPACES.match(text).end()
    if start == len(text):
        return None
    end = text.find("\n", start)
    line = text[start : len(text) if end < 0 else end]
    if not line.isascii() or any(c in line for c in _ASCII_BREAKS):
        line = line.splitlines()[0]
    return line if _INK.search(text, start + len(line)) else line.rstrip()


def _first_record(args):
    """The first JSON line of --input (stdin for "-"), decoded."""
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    line = _first_line(text)
    if line is None:
        raise CliError(f"no JSON record in input {args.input!r}")
    return jsonio.loads(line)


def cmd_convert(args) -> int:
    obj = _first_record(args)
    if not isinstance(obj, (ProcessSample, SymmetricSample)):
        raise CliError(f"convert needs a sample record, got a {type(obj).__name__} view")
    if args.to == "plane-partition":
        view = to_plane_partition(obj.word, obj.lambdas)
    elif args.to == "steep-tiling":
        view = to_steep_tiling(obj.word, obj.lambdas)
    else:  # overpartition, the last of the parser's choices
        view = to_plane_overpartition(obj.word, obj.lambdas)
    print(jsonio.dumps(view))
    return 0


def cmd_render(args) -> int:
    view = _first_record(args)
    svg = render_svg(view, RenderStyle(model=args.style, scale=args.scale))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        print(svg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later
    one, so that a process that calls ``main`` many times builds it once.
    Parsing never changes the parser, and help and usage text read the
    streams and the terminal width when they are printed.  Each
    subcommand's handler (``func``) is bound here, on the first call; the
    handlers look up the functions they call at call time."""
    p = argparse.ArgumentParser(
        prog="schursample",
        description="Exact sampling of Schur processes and their tiling models.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    modes = [mode.replace("_", "-") for mode in MODES]  # as --mode spells them

    def add_common(sp, word=True, count=True):
        if word:
            sp.add_argument("--word", required=True, help="e.g. \"(<'>)^4\" or \"<<>>\"")
        sp.add_argument("--seed", type=int, default=0)
        if count:
            sp.add_argument("--count", type=int, default=1)

    sp = sub.add_parser("sample", help="sample a finite Schur process")
    add_common(sp)
    sp.add_argument("--z", help="comma-separated parameters, rationals allowed")
    sp.add_argument("--q", help="q-Volume specialization parameter in (0,1)")
    sp.add_argument(
        "--in-place",
        action="store_true",
        help="accepted and ignored: every sample already uses O(m+n) storage",
    )
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("sample-symmetric", help="sample a right-free Schur process")
    add_common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--t", default="1")
    sp.add_argument("--mode", choices=modes, default="free")
    sp.set_defaults(func=cmd_sample_symmetric)

    sp = sub.add_parser("sample-unbounded", help="sample a pyramidal Schur process")
    sp.add_argument("--q", required=True)
    sp.add_argument("--alternating", action="store_true", help="pyramid-partition word")
    add_common(sp, word=False)
    sp.set_defaults(func=cmd_sample_unbounded)

    sp = sub.add_parser("sample-plancherel", help="poissonized Plancherel partition")
    sp.add_argument("--theta", type=float, required=True)
    add_common(sp, word=False)
    sp.set_defaults(func=cmd_sample_plancherel)

    sp = sub.add_parser("zfun", help="closed-form partition function")
    sp.add_argument("--word", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--t", default=None)
    sp.add_argument("--mode", choices=modes, help="boundary mode with --t (default free)")
    sp.set_defaults(func=cmd_zfun)

    sp = sub.add_parser("verify", help="compare samples against the exact law")
    add_common(sp, count=False)  # its sample count is --samples
    sp.add_argument("--z")
    sp.add_argument("--q")
    sp.add_argument("--cap", type=int, default=12)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--tv-threshold", type=float, default=0.02)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("convert", help="convert a sample JSON to a tiling view")
    sp.add_argument("--to", required=True,
                    choices=["plane-partition", "steep-tiling", "overpartition"])
    sp.add_argument("--input", default="-")
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("render", help="render a view JSON to SVG")
    sp.add_argument("--style", choices=["lozenge", "domino", "maya-particles"],
                    default="domino")
    sp.add_argument("--scale", type=float, default=12.0)
    sp.add_argument("--input", default="-")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ArithmeticError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
