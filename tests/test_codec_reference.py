"""The window-bounded steep codec, the templated steep-tiling JSON codec,
the sample writer that formats a batch's shared head once, the grid-key
SVG writer and the one-pass tableau codecs against the row-walk codec, the
dict-building JSON codecs, the float polygon renderers and the per-cell
tableau scans they replaced, which are kept here as the reference.
Dominoes are plain tuples (k, pos2, vertical, sign); the reference reads
them through the named tuple ``Domino``, to which they compare equal.

The reference codec walks a fixed number of rows per step, reading every
mark through ``part()``, and sorts the dominoes at the end.  Its row count
is the old one widened by the window's distance from the origin: the old
count, max(len) + (hi - lo)/2 + len(word) + 2, missed vacuum rows of a
window far below (particles) or above (holes) the sequence, and checked no
row at all when lo > hi.  The reference JSON writer builds one dict per
domino for ``json.dumps``; the reference reader rebuilds each domino as a
``Domino``, coercing ``vertical`` with ``bool()`` and ``sign`` with
``int()``, and sorts them.  The reference renderers send float points through
a writer that tracks the view box point by point and formats every point.
The reference overpartition encoder finds each cell's first slice by a scan
over all slices, its decoder compares every cell with every slice's float
threshold, its check builds each column as a list of float values, and the
reference plane-partition decoder sorts each diagonal.

Checks: on random steep words, equal dominoes, windows and ``CodecError``
messages (default windows, windows widened and narrowed by up to 6 cells on
each side, and sequences broken so they no longer interlace); equal JSON
bytes and equal loaded views on random steep words and samples, also from
records written out of order and with other spacing, and the pinned bytes
of the Aztec 200 record at seed 501; equal sample records, one per line,
for lists of process, symmetric, pyramidal and Plancherel samples, also
where the word, z, t, mode or kind changes inside the list; equal SVG
bytes for all three renderers at several scales (random plane partitions
for lozenges, random steep tilings for dominoes and particles) and on
empty views; the vacuum rows that the old row count missed; equal
tableaux and slices on symmetric samples of (<<')^n and on random reverse
plane partitions; and equal verdicts on corrupted overpartitions.
"""
import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from schursample import jsonio
from schursample.partitions import EMPTY, conjugate, part
from schursample.render import DOMINO_PALETTE, LOZENGE_PALETTE, RenderStyle, render_svg
from schursample.rng import RandomSource
from schursample.sampler import ProcessSample, schur_sample
from schursample.symmetric import SymmetricSample, symmetric_schur_sample
from schursample.tilings import (
    CodecError,
    DominoTiling,
    HeightMatrix,
    OverpartitionTableau,
    from_plane_overpartition,
    from_plane_partition,
    is_steep_word,
    overpartition_word,
    to_plane_overpartition,
    to_plane_partition,
    to_steep_tiling,
    word_shifts,
)
from schursample.unbounded import (
    PyramidalParameters,
    PyramidalSampler,
    WordConvention,
    plancherel_sample,
)
from schursample.words import Rel, format_word, parse_word, q_volume_parameters

SCALES = (12.0, 9.0, 8.0, 1.0, 0.37, 3e-3)


class Domino(NamedTuple):
    """One domino in diagonal coordinates: it covers the cell at doubled
    Maya position ``pos2`` on diagonal ``k`` and the cell at ``pos2 + 2``
    (vertical) or ``pos2`` (horizontal) on diagonal k + 1.  Dominoes order
    as the tuples (k, pos2, vertical, sign)."""

    k: int
    pos2: int
    vertical: bool
    sign: int  # +1: both cells are holes; -1: both are particles

    def cells(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        return (self.k, self.pos2), (self.k + 1, self.pos2 + (2 if self.vertical else 0))


# --- the reference codec: one part() call per row --------------------------

def _ref_particles(lam, shift, rows):
    return [2 * (part(lam, i) - i + shift) + 1 for i in range(1, rows + 1)]


def _ref_holes(lam, shift, rows):
    conj = conjugate(lam)
    return [2 * (i - part(conj, i) + shift) - 1 for i in range(1, rows + 1)]


def ref_to_steep_tiling(word, lambdas, window=None):
    word = tuple(word)
    if not is_steep_word(word):
        raise CodecError("not a steep word: needs alternating primed/plain symbols")
    if len(lambdas) != len(word) + 1:
        raise CodecError(
            f"a word of {len(word)} symbols needs {len(word) + 1} slices, got {len(lambdas)}"
        )
    if lambdas[0] or lambdas[-1]:
        raise CodecError(f"the end slices must be empty, got {lambdas[0]} and {lambdas[-1]}")
    shifts = word_shifts(word)
    if window is None:
        lo = min(2 * (shifts[k] - len(lambdas[k])) - 1 for k in range(len(lambdas))) - 2
        hi = max(2 * (shifts[k] + part(lambdas[k], 1)) + 1 for k in range(len(lambdas))) + 2
        window = (lo, hi)
    lo, hi = window
    if lo % 2 == 0 or hi % 2 == 0:
        raise CodecError("window bounds must be doubled half-integers (odd)")
    dominoes = []
    for k, rel in enumerate(word):
        lam, nxt = lambdas[k], lambdas[k + 1]
        rows = max(len(lam), len(nxt)) + (abs(lo) + abs(hi)) // 2 + len(word) + 2
        if rel.primed:
            src = _ref_particles(lam, shifts[k], rows)
            dst = _ref_particles(nxt, shifts[k + 1], rows)
            sign = -1
        else:
            src = _ref_holes(lam, shifts[k], rows)
            dst = _ref_holes(nxt, shifts[k + 1], rows)
            sign = 1
        for p, q in zip(src, dst):
            if q - p not in (0, 2):
                raise CodecError(
                    f"sequence does not interlace at step {k + 1}: "
                    f"mark moves from {p} to {q}"
                )
            if lo <= p <= hi or lo <= q <= hi:
                dominoes.append(Domino(k, p, q - p == 2, sign))
    return DominoTiling(word, window, tuple(sorted(dominoes)))


# --- the reference renderers: float points through a per-point writer -----

def _fmt(x):
    return f"{x:.2f}"


class RefSvg:
    def __init__(self):
        self.elems = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def polygon(self, pts, fill, stroke="#222222", width=0.6):
        for x, y in pts:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)
        data = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.elems.append(
            f'<polygon points="{data}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def circle(self, x, y, r, fill):
        self.min_x, self.max_x = min(self.min_x, x - r), max(self.max_x, x + r)
        self.min_y, self.max_y = min(self.min_y, y - r), max(self.max_y, y + r)
        self.elems.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def document(self):
        if not self.elems:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        pad = 4.0
        w = self.max_x - self.min_x + 2 * pad
        h = self.max_y - self.min_y + 2 * pad
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(self.min_x - pad)} {_fmt(self.min_y - pad)} '
            f'{_fmt(w)} {_fmt(h)}">'
        )
        return head + "".join(self.elems) + "</svg>"


def ref_domino_rect(d, s):
    (k0, p0), (k1, p1) = d.cells()
    boxes = []
    for k, p in ((k0, p0), (k1, p1)):
        y = p / 2.0
        x = y - k  # diagonal k lies on x - y = -k
        boxes.append((x, y))
    xs = [b[0] for b in boxes]
    ys = [b[1] for b in boxes]
    x0, x1 = min(xs) - 0.5, max(xs) + 0.5
    y0, y1 = min(ys) - 0.5, max(ys) + 0.5
    return [
        (x0 * s, -y0 * s), (x1 * s, -y0 * s), (x1 * s, -y1 * s), (x0 * s, -y1 * s)
    ]


def ref_render_domino(tiling, style):
    svg = RefSvg()
    for d in map(Domino._make, tiling.dominoes):
        key = ("v" if d.vertical else "h", d.sign)
        svg.polygon(ref_domino_rect(d, style.scale), DOMINO_PALETTE[key])
    return svg.document()


def _iso(c, r, h, s):
    """Axonometric projection of the cube-grid point (c, r, h)."""
    x = (c - r) * s * math.cos(math.pi / 6)
    y = -(h + (c + r) * 0.5) * s
    return x, y


def ref_render_lozenge(hm, style):
    svg = RefSvg()
    s = style.scale
    cells = [
        (c, r, hm.rows[r - 1][c - 1])
        for r in range(1, len(hm.shape) + 1)
        for c in range(1, hm.shape[r - 1] + 1)
    ]
    for c, r, h in sorted(cells, key=lambda t: (t[0] + t[1], t[2])):
        top = [
            _iso(c, r, h, s), _iso(c + 1, r, h, s),
            _iso(c + 1, r + 1, h, s), _iso(c, r + 1, h, s),
        ]
        svg.polygon(top, LOZENGE_PALETTE["top"])
        if h > 0:
            left = [
                _iso(c, r + 1, h, s), _iso(c + 1, r + 1, h, s),
                _iso(c + 1, r + 1, 0, s), _iso(c, r + 1, 0, s),
            ]
            right = [
                _iso(c + 1, r, h, s), _iso(c + 1, r + 1, h, s),
                _iso(c + 1, r + 1, 0, s), _iso(c + 1, r, 0, s),
            ]
            svg.polygon(left, LOZENGE_PALETTE["left"])
            svg.polygon(right, LOZENGE_PALETTE["right"])
    return svg.document()


def ref_render_maya_particles(tiling, style):
    svg = RefSvg()
    s = style.scale
    seen = set()
    for d in map(Domino._make, tiling.dominoes):
        if d.sign >= 0:
            continue
        for k, p in d.cells():
            if (k, p) in seen:
                continue
            seen.add((k, p))
            y = p / 2.0
            x = y - k
            svg.circle(x * s, -y * s, 0.32 * s, "#111111")
    return svg.document()


REFERENCE = {
    "lozenge": ref_render_lozenge,
    "domino": ref_render_domino,
    "maya-particles": ref_render_maya_particles,
}


def assert_same_svg(view, model, scales=SCALES):
    for scale in scales:
        style = RenderStyle(model=model, scale=scale)
        assert render_svg(view, style) == REFERENCE[model](view, style), (model, scale)


# --- the reference steep-tiling JSON codec: one dict per domino -----------

def ref_steep_dumps(view):
    return json.dumps({
        "format": jsonio.FORMAT,
        "kind": "steep-tiling",
        "word": format_word(view.word),
        "window": list(view.window),
        "dominoes": [
            {"k": d.k, "pos2": d.pos2, "vertical": d.vertical, "sign": d.sign}
            for d in map(Domino._make, view.dominoes)
        ],
    })


def ref_steep_loads(text):
    d = json.loads(text)
    ds = (Domino(e["k"], e["pos2"], bool(e["vertical"]), int(e["sign"])) for e in d["dominoes"])
    view = DominoTiling(parse_word(d["word"]), tuple(d["window"]), tuple(sorted(ds)))
    view.validate()
    return view


# --- the reference sample writer: one dict per record --------------------

def _num_to_str(v):
    return str(v) if isinstance(v, (int, Fraction)) else repr(float(v))


def ref_sample_dumps(s):
    """The record of a process or symmetric sample: a symmetric record adds
    t and mode after z, a process record with a draw log adds it last."""
    symmetric = isinstance(s, SymmetricSample)
    out = {
        "format": jsonio.FORMAT,
        "kind": "symmetric-sample" if symmetric else "process-sample",
        "word": format_word(s.word),
        "z": [_num_to_str(v) for v in s.z],
    }
    if symmetric:
        out.update(t=_num_to_str(s.t), mode=s.mode)
    out.update(seed=s.seed, rng=s.rng_algorithm, lambdas=s.lambdas)
    if not symmetric and s.draw_log is not None:
        out["draw_log"] = s.draw_log
    return json.dumps(out)


def ref_pyramidal_dumps(s, q):
    return json.dumps({
        "format": jsonio.FORMAT,
        "kind": "pyramidal-sample",
        "q": q,
        "convention": s.convention.name,
        "seed": s.seed,
        "truncation_index": s.truncation_index,
        "lambdas": {str(i): list(v) for i, v in sorted(s.lambdas.items())},
    })


def ref_partition_dumps(lam):
    return json.dumps({"format": jsonio.FORMAT, "kind": "partition", "lambda": list(lam)})


# --- random steep cases ----------------------------------------------------

def _random_case(rnd, trial):
    """A random steep word, a sample of it, and (sometimes) that sample
    with one interior slice changed so that it may no longer interlace."""
    n = rnd.randrange(1, 7)
    word = tuple(
        s for _ in range(n)
        for s in (rnd.choice((Rel.LV, Rel.RV)), rnd.choice((Rel.LH, Rel.RH)))
    )
    z = tuple(rnd.uniform(0.3, 0.95) for _ in word)
    lambdas = list(schur_sample(word, z, trial).lambdas)
    broken = rnd.random() < 0.3
    if broken:
        k = rnd.randrange(1, len(lambdas) - 1)
        lam = list(lambdas[k])
        if lam and rnd.random() < 0.5:
            lam[0] += rnd.randrange(1, 3)
        else:
            lam = sorted(lam + [rnd.randrange(1, 3)], reverse=True)
        lambdas[k] = tuple(lam)
    return word, tuple(lambdas), broken


def _outcome(codec, word, lambdas, window):
    try:
        return codec(word, lambdas, window)
    except CodecError as exc:
        return str(exc)


def test_steep_codec_matches_reference_on_random_words():
    rnd = random.Random(2024)
    cases = broken = errors = 0
    for trial in range(600):
        word, lambdas, was_broken = _random_case(rnd, trial)
        broken += was_broken
        default = _outcome(ref_to_steep_tiling, word, lambdas, None)
        lo, hi = (-3, 3) if isinstance(default, str) else default.window
        windows = [None] + [
            (lo + 2 * rnd.randint(-6, 6), hi + 2 * rnd.randint(-6, 6)) for _ in range(3)
        ]
        for window in windows:
            want = _outcome(ref_to_steep_tiling, word, lambdas, window)
            assert _outcome(to_steep_tiling, word, lambdas, window) == want, (
                word, lambdas, window,
            )
            cases += 1
            errors += isinstance(want, str)
    assert cases == 2400 and broken >= 150 and errors >= 100


def _random_tilings(seed, trials):
    rnd = random.Random(seed)
    for trial in range(trials):
        word, lambdas, _ = _random_case(rnd, trial)
        tiling = _outcome(to_steep_tiling, word, lambdas, None)
        if not isinstance(tiling, str):
            yield tiling, rnd.choice(SCALES)


def test_domino_renderer_matches_reference_on_random_words():
    for tiling, scale in _random_tilings(7, 500):
        assert_same_svg(tiling, "domino", (scale,))


def test_maya_renderer_matches_reference_on_random_words():
    for tiling, scale in _random_tilings(8, 500):
        assert_same_svg(tiling, "maya-particles", (scale,))


def test_domino_renderer_matches_reference_on_a_large_aztec_diamond():
    word = parse_word("(<'>)^60")
    tiling = to_steep_tiling(word, schur_sample(word, (1,) * 120, 60).lambdas)
    assert_same_svg(tiling, "domino", (12.0,))
    assert_same_svg(tiling, "maya-particles", (12.0,))


def test_lozenge_renderer_matches_reference_on_random_plane_partitions():
    rnd = random.Random(11)
    for trial in range(60):
        a, b = rnd.randrange(1, 7), rnd.randrange(1, 7)
        word = parse_word(f"(<)^{a}(>)^{b}")
        z = q_volume_parameters(word, rnd.uniform(0.3, 0.9))
        hm = to_plane_partition(word, schur_sample(word, z, trial).lambdas)
        assert_same_svg(hm, "lozenge")


def test_renderers_match_reference_on_empty_views():
    word = parse_word("(<'>)^3")
    lambdas = schur_sample(word, (1,) * 6, 1).lambdas
    blank = to_steep_tiling(word, lambdas, (1, -1))  # the window holds no domino
    holes = to_steep_tiling(word, lambdas)
    holes.dominoes = tuple(d for d in holes.dominoes if Domino(*d).sign > 0)  # no particle
    for view, model in [
        (HeightMatrix((), ()), "lozenge"),
        (blank, "domino"),
        (blank, "maya-particles"),
        (holes, "maya-particles"),
    ]:
        assert_same_svg(view, model)
        assert 'viewBox="-4.00 -4.00 9.00 9.00"></svg>' in render_svg(view, RenderStyle(model))
    assert blank.dominoes == () and holes.dominoes


@pytest.mark.parametrize("text, window, count", [(">'>", (-15, -7), 6), ("<'>", (9, 17), 5)])
def test_window_far_from_the_sequence_is_fully_covered(text, window, count):
    # the particles of diagonal 1 below the sequence, and its holes above
    # it, reach any window; the old row count stopped one row short of
    # both windows (5 and 4 dominoes)
    word = parse_word(text)
    tiling = to_steep_tiling(word, (EMPTY,) * 3, window)
    assert len(tiling.dominoes) == count
    lo, hi = window
    covered = {p for d in tiling.dominoes for k, p in Domino(*d).cells() if k == 1}
    assert covered >= set(range(lo, hi + 1, 2))


@st.composite
def steep_views(draw):
    """A steep tiling of a random steep word's sample, in its default window
    or in one widened or narrowed by up to 6 cells on each side."""
    n = draw(st.integers(1, 6))
    word = tuple(
        s for _ in range(n)
        for s in (draw(st.sampled_from((Rel.LV, Rel.RV))), draw(st.sampled_from((Rel.LH, Rel.RH))))
    )
    z = tuple(draw(st.sampled_from((0.3, 0.6, 0.9, 0.95))) for _ in word)
    lambdas = schur_sample(word, z, draw(st.integers(0, 2**32))).lambdas
    view = to_steep_tiling(word, lambdas)
    if draw(st.booleans()):
        lo, hi = view.window
        window = (lo + 2 * draw(st.integers(-6, 6)), hi + 2 * draw(st.integers(-6, 6)))
        view = to_steep_tiling(word, lambdas, window)
    return view


@settings(max_examples=300, deadline=None)
@given(steep_views(), st.randoms(use_true_random=False))
def test_steep_json_codec_matches_reference(view, rnd):
    text = jsonio.dumps(view)
    assert text == ref_steep_dumps(view)
    assert jsonio.loads(text) == ref_steep_loads(text) == view
    # a hand-written record: dominoes out of order, keys reordered, other spacing
    record = json.loads(text)
    rnd.shuffle(record["dominoes"])
    record["dominoes"] = [dict(reversed(e.items())) for e in record["dominoes"]]
    hand = json.dumps(record, indent=1)
    assert jsonio.loads(hand) == ref_steep_loads(hand) == view


def test_steep_json_codec_matches_reference_on_the_aztec_200_record():
    word = parse_word("(<'>)^200")
    view = to_steep_tiling(word, schur_sample(word, (1,) * 400, 501).lambdas)
    text = jsonio.dumps(view)
    assert text == ref_steep_dumps(view)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4e537f697e3009aa5271acad8998a73a18ff2d498808e22ee9681d91b6266243"
    )
    assert jsonio.loads(text) == ref_steep_loads(text) == view


def _lines(records):
    return "".join(r + "\n" for r in records)


# one word object per text, so that in a list where only z, t or mode
# changes, that field alone tells the runs of samples apart
_word = functools.lru_cache(maxsize=None)(parse_word)


def _process_batch(text, z, seed, log_draws=False, count=5):
    return schur_sample(_word(text), z, RandomSource(seed, log_draws=log_draws), count=count)


def _symmetric_batch(text, z, t, mode, seed, count=3):
    return symmetric_schur_sample(_word(text), z, t, mode, RandomSource(seed), count=count)


_THIRDS = tuple(Fraction(1, k) for k in range(2, 10))
_Z45, _T45 = (0.45,) * 6, Fraction(4, 5)
SAMPLE_LISTS = {
    "bitset-vh": lambda: _process_batch("(<'>)^3", (1,) * 6, 1),
    "bitset-hv-fraction": lambda: _process_batch("(<>')^4", _THIRDS, 2),
    "tuple-float": lambda: _process_batch("<<'>><'>", (0.5, 0.25, 0.75, 0.5, 0.125, 1e-300), 3),
    "tuple-fraction": lambda: _process_batch("(<)^2(>)^2", _THIRDS[:4], 4),
    "int-and-float-z": lambda: _process_batch("<>", (1, 0.5), 5),
    "draw-log": lambda: _process_batch("<<'>><'>", (0.5,) * 6, 6, log_draws=True),
    "seed-none": lambda: [ProcessSample(parse_word("<'>"), (1, 1), None, ((), (1,), ()))],
    "symmetric": lambda: [
        s for mode in ("free", "even_rows", "even_columns")
        for s in _symmetric_batch("(<<')^3", _Z45, _T45, mode, 7)
    ],
    "t-changes": lambda: _symmetric_batch("(<<')^3", _Z45, 1, "free", 7, count=2)
    + _symmetric_batch("(<<')^3", _Z45, 1.0, "free", 7, count=2),
    "word-changes": lambda: _process_batch("<>", (0.5, 0.5), 8, count=2)
    + _process_batch("<'>", (0.5, 0.5), 8, count=2),
    # equal values that are written differently: 1 and 1.0, 0.0 and -0.0
    "z-changes": lambda: _process_batch("<>", (1, 0.5), 9, count=2)
    + _process_batch("<>", (1.0, 0.5), 9, count=2)
    + _process_batch("<>", (0.0, 0.5), 9, count=1)
    + _process_batch("<>", (-0.0, 0.5), 9, count=1),
    "kinds-change": lambda: _process_batch("(<')^2(>)^2", (0.5,) * 4, 10, count=2)
    + _symmetric_batch("(<')^2", (0.5,) * 2, 1, "free", 10, count=2)
    + _process_batch("(<')^2(>)^2", (0.5,) * 4, 10, count=1),
    "empty": lambda: [],
}


@pytest.mark.parametrize("case", SAMPLE_LISTS)
def test_sample_writer_matches_reference(case):
    samples = SAMPLE_LISTS[case]()
    assert jsonio.dumps(samples) == _lines(map(ref_sample_dumps, samples))
    for s in samples:  # one sample, with no newline
        assert jsonio.dumps(s) == ref_sample_dumps(s)


def test_pyramidal_and_partition_writers_match_reference():
    runs = []
    for conv in (WordConvention.pyramid(), WordConvention.plane_partitions()):
        sampler = PyramidalSampler(PyramidalParameters.q_volume(0.5), conv)
        runs.append([sampler.sample(RandomSource(11).child(k)) for k in range(6)])
        assert any(s.truncation_index is None for s in runs[-1])  # an empty sample too
    mixed = runs[0][:3] + runs[1] + runs[0][3:]  # the convention changes twice
    for samples in runs + [mixed]:
        assert jsonio.dumps(samples, q="0.50") == _lines(
            ref_pyramidal_dumps(s, "0.50") for s in samples
        )
    lams = [plancherel_sample(1.0, RandomSource(12).child(k)) for k in range(8)]
    assert () in lams
    assert jsonio.dumps(lams) == _lines(map(ref_partition_dumps, lams))


# --- the reference tableau codecs: per-cell scans --------------------------

def _numeric(tab, c, r):
    v, over = tab.rows[r - 1][c - 1]
    return v - 0.5 if over else float(v)


def ref_validate_overpartition(tab):
    if tuple(len(r) for r in tab.rows) != tab.shape:
        raise CodecError("row lengths do not match the shape")
    for r, row in enumerate(tab.rows, start=1):
        for c in range(2, len(row) + 1):
            if _numeric(tab, c - 1, r) < _numeric(tab, c, r):
                raise CodecError(f"row {r} increases at column {c}")
        # only the last occurrence of an integer may be overlined
        for c in range(1, len(row)):
            v, over = row[c - 1]
            if over and c < len(row) and row[c][0] == v:
                raise CodecError(f"non-final overline of {v} in row {r}")
    ncols = tab.shape[0] if tab.shape else 0
    for c in range(1, ncols + 1):
        col = [
            tab.rows[r - 1][c - 1]
            for r in range(1, len(tab.shape) + 1)
            if tab.shape[r - 1] >= c
        ]
        for idx in range(1, len(col)):
            if col[idx - 1][0] == col[idx][0] and not col[idx][1]:
                raise CodecError(f"repeated {col[idx][0]} in column {c} not overlined")
        for idx in range(1, len(col)):
            if _numeric(tab, c, idx) < _numeric(tab, c, idx + 1):
                raise CodecError(f"column {c} increases at row {idx + 1}")


def ref_to_plane_overpartition(word, lambdas):
    word = tuple(word)
    n2 = len(word)
    if n2 % 2 or word != overpartition_word(n2 // 2):
        raise CodecError("plane overpartitions need the word (<<')^n")
    n = n2 // 2
    if len(lambdas) < n2 + 1:
        raise CodecError("need the right-free sequence up to the free partition")
    shape = lambdas[n2]
    rows = []
    for r in range(1, len(shape) + 1):
        row = []
        for c in range(1, shape[r - 1] + 1):
            first = next(
                i for i in range(n2 + 1) if len(lambdas[i]) >= r and lambdas[i][r - 1] >= c
            )
            if first % 2:
                row.append((n - (first - 1) // 2, False))
            else:
                row.append((n - first // 2 + 1, True))
        rows.append(tuple(row))
    tab = OverpartitionTableau(tuple(shape), tuple(rows))
    ref_validate_overpartition(tab)
    return tab


def ref_from_plane_overpartition(tab, n):
    ref_validate_overpartition(tab)
    out = []
    for i in range(2 * n + 1):
        threshold = n - i / 2
        rows = []
        for r in range(1, len(tab.shape) + 1):
            cnt = sum(
                1
                for c in range(1, tab.shape[r - 1] + 1)
                if _numeric(tab, c, r) > threshold
            )
            rows.append(cnt)
        out.append(tuple(v for v in rows if v))
    return tuple(out)


def ref_from_plane_partition(word, hm):
    word = tuple(word)
    hm.validate()
    n = sum(1 for s in word if not s.left)
    out = []
    for k in range(len(word) + 1):
        d = k - n
        vals = []
        for r in range(1, len(hm.shape) + 1):
            c = r + d
            if 1 <= c <= hm.shape[r - 1]:
                vals.append(hm.rows[r - 1][c - 1])
        vals.sort(reverse=True)
        out.append(tuple(v for v in vals if v))
    return tuple(out)


def _verdict(check, tab):
    try:
        check(tab)
    except CodecError:
        return False
    return True


def assert_same_overpartition_codec(n, lambdas, extra=(1, 3)):
    """Equal tableaux, and equal slices when decoded with n and with n + e
    for each e in ``extra``."""
    word = overpartition_word(n)
    tab = to_plane_overpartition(word, lambdas)
    assert tab == ref_to_plane_overpartition(word, lambdas)
    for m in (n, *(n + e for e in extra)):
        assert from_plane_overpartition(tab, m) == ref_from_plane_overpartition(tab, m)
    assert from_plane_overpartition(tab, n) == tuple(lambdas[: 2 * n + 1])
    return tab


def test_overpartition_codec_matches_reference_on_symmetric_samples():
    rnd = random.Random(13)
    cells = 0
    for n in range(1, 17):
        word = overpartition_word(n)
        for seed in range(4):
            z = tuple(rnd.uniform(0.3, 0.9) for _ in word)
            t = rnd.choice((1, 0.5, 0.8))
            s = symmetric_schur_sample(word, z, t, "free", 100 * n + seed)
            cells += sum(assert_same_overpartition_codec(n, s.lambdas).shape)
    assert cells > 1000


def test_overpartition_codec_matches_reference_at_n_60():
    word = overpartition_word(60)
    s = symmetric_schur_sample(word, (0.9,) * 120, 1, "free", 7)
    tab = assert_same_overpartition_codec(60, s.lambdas, extra=())
    assert sum(tab.shape) > 5000


def _corrupt(rnd, tab):
    """The tableau with one to three cells changed in value or overline."""
    rows = [list(r) for r in tab.rows]
    for _ in range(rnd.randrange(1, 4)):
        r = rnd.randrange(len(rows))
        c = rnd.randrange(len(rows[r]))
        v, over = rows[r][c]
        rows[r][c] = rnd.choice(
            [(v, not over), (v + 1, over), (v - 1, over), (v + 1, not over), (v - 1, not over)]
        )
    return OverpartitionTableau(tab.shape, tuple(map(tuple, rows)))


def test_overpartition_check_matches_reference_on_corrupted_tableaux():
    rnd = random.Random(17)
    verdicts = {True: 0, False: 0}
    for trial in range(1500):
        n = rnd.randrange(1, 6)
        word = overpartition_word(n)
        z = tuple(rnd.uniform(0.4, 0.9) for _ in word)
        s = symmetric_schur_sample(word, z, 1, "free", trial)
        tab = to_plane_overpartition(word, s.lambdas)
        if not tab.shape:
            continue
        bad = _corrupt(rnd, tab)
        # the reference checks the order only; a tableau also holds values >= 1
        entries = [v for row in bad.rows for v, _ in row]
        want = _verdict(ref_validate_overpartition, bad) and min(entries) >= 1
        assert _verdict(OverpartitionTableau.validate, bad) == want, bad
        verdicts[want] += 1
        if want:  # a corrupted tableau that is still valid decodes the same way
            for m in (n, n + 1, n + 3):  # up to n, when its values lie in 1..m
                if m >= max(entries):
                    assert from_plane_overpartition(bad, m) == ref_from_plane_overpartition(bad, m)
                else:
                    with pytest.raises(CodecError, match="above n"):
                        from_plane_overpartition(bad, m)
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_plane_partition_decoder_matches_reference():
    rnd = random.Random(19)
    for trial in range(400):
        word = tuple(rnd.choice((Rel.LH, Rel.RH)) for _ in range(rnd.randrange(1, 12)))
        z = q_volume_parameters(word, rnd.uniform(0.3, 0.9))
        s = schur_sample(word, z, trial)
        hm = to_plane_partition(word, s.lambdas)
        assert from_plane_partition(word, hm) == ref_from_plane_partition(word, hm) == s.lambdas
