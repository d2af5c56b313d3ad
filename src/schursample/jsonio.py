"""Versioned JSON encoding of samples and views.

Parameters are serialized as strings so exact rationals survive the
round trip; partitions are plain integer arrays, the empty partition [].
Every sample record, of one sample or of a CLI batch, is written by one
writer: ``dumps`` of a list gives the records as lines, and the records of
a batch share one head (format, kind, word, z, and t and mode, or q and
convention), formatted once, so that the CLI writes a batch in one write.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import groupby
from operator import is_, itemgetter
from typing import Any, Dict

from .partitions import make
from .sampler import ProcessSample
from .symmetric import SymmetricSample
from .tilings import CodecError, DominoTiling, HeightMatrix, OverpartitionTableau
from .unbounded import PyramidalSample
from .words import format_word, parse_number, parse_word

FORMAT = "schursample/1"
_KINDS = {
    ProcessSample: "process-sample",
    SymmetricSample: "symmetric-sample",
    PyramidalSample: "pyramidal-sample",
    tuple: "partition",
}


def _num_to_str(v) -> str:
    return str(v) if isinstance(v, (int, Fraction)) else repr(float(v))


def _sample_lines(samples: list, q) -> str:
    """The records of ``samples`` as lines, each as ``json.dumps`` writes
    the record's dict.  A record is a head, the fields before seed: format
    and kind; word and z of a process or symmetric sample, and t and mode
    after z of a symmetric one; q and convention of a pyramidal one.  Each
    run of samples whose head fields are the same objects, as a batch's
    are, shares one head, formatted once; each sample adds its own seed,
    rng and lambdas (seed, truncation_index and lambdas if pyramidal, the
    lambda of a partition), and a process sample its draw log if it has
    one."""
    lines, key, head = [], (None,), ""
    for s in samples:
        kind = type(s)
        if kind is ProcessSample or kind is SymmetricSample:
            fields = (kind, s.word, s.z) + ((s.t, s.mode) if kind is SymmetricSample else ())
            tail = {"seed": s.seed, "rng": s.rng_algorithm, "lambdas": s.lambdas}
            if kind is ProcessSample and s.draw_log is not None:
                tail["draw_log"] = s.draw_log
        elif kind is PyramidalSample:
            fields = (kind, s.convention.name)
            lambdas = {str(i): v for i, v in sorted(s.lambdas.items())}
            tail = {"seed": s.seed, "truncation_index": s.truncation_index, "lambdas": lambdas}
        else:  # a partition, as plancherel_sample draws it
            fields, tail = (kind,), {"lambda": s}
        if not all(map(is_, fields, key)):
            if kind not in _KINDS:
                raise TypeError(f"cannot serialize a sample of type {kind.__name__}")
            key, record = fields, {"format": FORMAT, "kind": _KINDS[kind]}
            if kind is PyramidalSample:
                record.update(q=q, convention=s.convention.name)
            elif kind is not tuple:
                record.update(word=format_word(s.word), z=[_num_to_str(v) for v in s.z])
                if kind is SymmetricSample:
                    record.update(t=_num_to_str(s.t), mode=s.mode)
            head = json.dumps(record)[:-1] + ", "
        lines.append(head + json.dumps(tail)[1:])
    return "\n".join(lines + [""])


def _sample_from_dict(d: Dict[str, Any], symmetric: bool):
    """The sample of a record that _sample_lines writes; a process
    record's draw log is read when present."""
    fields = {"word": parse_word(d["word"]), "z": tuple(parse_number(v) for v in d["z"])}
    if symmetric:
        fields.update(t=parse_number(d["t"]), mode=d["mode"])
    fields.update(
        seed=d.get("seed"),
        lambdas=tuple(map(_partition, d["lambdas"])),
        rng_algorithm=d.get("rng", "unknown"),
    )
    if not symmetric and "draw_log" in d:
        fields["draw_log"] = [tuple(e) for e in d["draw_log"]]
    return (SymmetricSample if symmetric else ProcessSample)(**fields)


_INT = {int}


def _partition(parts):
    """``make(parts)``: a list of ints that is already a partition is taken
    in C-level passes (a weakly decreasing list is one run for ``sorted``),
    and ``make`` runs on any other, so it trims trailing zeros and names a
    bad part as it does."""
    if (
        type(parts) is list
        and set(map(type, parts)) <= _INT
        and parts == sorted(parts, reverse=True)
        and (not parts or parts[-1] > 0)
    ):
        return tuple(parts)
    return make(parts)


# a steep tiling's record, written as json.dumps writes the equivalent dict
_STEEP_HEAD = (
    '{"format": %s, "kind": "steep-tiling", "word": %s, "window": [%d, %d], "dominoes": ['
)
_STEP_FIELDS = itemgetter(0, 3)  # (k, sign) of a domino tuple
_DOMINO_FIELDS = itemgetter("k", "pos2", "vertical", "sign")


def _bad_domino(dominoes: list) -> str:
    """The error of the first domino that is not an object with the four
    fields."""
    i, bad = next(
        (i, x) for i, x in enumerate(dominoes)
        if type(x) is not dict or not {"k", "pos2", "vertical", "sign"} <= x.keys()
    )
    return f"domino {i} must be an object with k, pos2, vertical and sign, got {json.dumps(bad)}"


def _steep_tiling_json(view: DominoTiling) -> str:
    """The record of a steep tiling: its dominoes' objects are formatted a
    step (k, sign) at a time, the step's text before pos2 and its two texts
    after it once, so that a domino adds its pos2 and one of them."""
    lo, hi = view.window
    head = _STEEP_HEAD % (json.dumps(FORMAT), json.dumps(format_word(view.word)), lo, hi)
    steps = []
    for (k, s), dominoes in groupby(view.dominoes, _STEP_FIELDS):
        start = '{"k": %d, "pos2": ' % k
        tails = (', "vertical": false, "sign": %d}' % s, ', "vertical": true, "sign": %d}' % s)
        steps.append(start + (", " + start).join([f"{p}{tails[v]}" for _, p, v, _ in dominoes]))
    return head + ", ".join(steps) + "]}"


def dumps(obj, q=None) -> str:
    """The record of a sample or a view.  Given a list of samples (process,
    symmetric or pyramidal samples, or partitions as ``plancherel_sample``
    draws them) it returns their records as lines, each ending in a
    newline, the records of a batch sharing one formatted head
    (:func:`_sample_lines`); ``q`` is the text that a pyramidal record
    writes as its q, as given."""
    if type(obj) is list:
        return _sample_lines(obj, q)
    if isinstance(obj, DominoTiling):
        return _steep_tiling_json(obj)
    if isinstance(obj, (ProcessSample, SymmetricSample)):
        return _sample_lines([obj], q)[:-1]
    if isinstance(obj, HeightMatrix):
        record = {"format": FORMAT, "kind": "plane-partition", "shape": obj.shape, "rows": obj.rows}
    elif isinstance(obj, OverpartitionTableau):
        record = {
            "format": FORMAT,
            "kind": "plane-overpartition",
            "shape": obj.shape,
            "rows": [[[v, bool(o)] for v, o in row] for row in obj.rows],
        }
    else:
        raise TypeError(f"cannot serialize view of type {type(obj).__name__}")
    return json.dumps(record)


def _tableau_fields(d: Dict[str, Any], kind: str):
    """(shape, rows) of a tableau record, refused by record and field
    unless shape is a list of integers and rows a list of lists, whose
    entries are [value, overlined] pairs in a plane-overpartition; the
    values themselves are checked by ``validate``."""
    shape, rows, pairs = d["shape"], d["rows"], kind == "plane-overpartition"
    if type(shape) is not list or not all(type(p) is int for p in shape):
        raise CodecError(f"a {kind} record's shape must be a list of integers, got "
                         f"{json.dumps(shape)}")
    if type(rows) is not list:
        raise CodecError(f"a {kind} record's rows must be a list of lists, got {json.dumps(rows)}")
    for r, row in enumerate(rows, start=1):
        if type(row) is not list or pairs and not all(type(e) is list and len(e) == 2 for e in row):
            what = "a list of [value, overlined] pairs" if pairs else "a list"
            raise CodecError(f"row {r} of a {kind} record must be {what}, got {json.dumps(row)}")
    return shape, rows


def loads(text: str):
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"a record must be a JSON object, got {text.strip()[:40]!r}")
    kind = d.get("kind", "process-sample")
    try:
        if kind in ("process-sample", "symmetric-sample"):
            return _sample_from_dict(d, kind == "symmetric-sample")
        if kind in ("plane-partition", "plane-overpartition"):
            shape, rows = _tableau_fields(d, kind)
        if kind == "plane-partition":
            view = HeightMatrix(tuple(shape), tuple(tuple(r) for r in rows))
        elif kind == "steep-tiling":  # validate() checks each field's type
            window, dominoes = d["window"], d["dominoes"]
            if type(window) is not list:
                raise CodecError(f"window must be a list of two bounds, got {json.dumps(window)}")
            if type(dominoes) is not list:
                raise CodecError(f"dominoes must be a list, got {json.dumps(dominoes)}")
            try:
                fields = list(map(_DOMINO_FIELDS, dominoes))
            except (TypeError, KeyError):
                raise CodecError(_bad_domino(dominoes)) from None
            view = DominoTiling(parse_word(d["word"]), tuple(window), fields)
            view.validate()  # before the sort, since fields of mixed types do not compare
            fields.sort()
            view.dominoes = tuple(fields)
            return view
        elif kind == "plane-overpartition":
            view = OverpartitionTableau(
                tuple(shape), tuple(tuple((v, bool(o)) for v, o in row) for row in rows)
            )
        else:
            raise ValueError(
                f"cannot read a record of kind {kind!r}: only samples (process-sample, "
                "symmetric-sample) and views (plane-partition, steep-tiling, "
                "plane-overpartition) are read"
            )
    except KeyError as missing:
        raise CodecError(f"a {kind} record has no field {missing.args[0]!r}") from None
    view.validate()
    return view
