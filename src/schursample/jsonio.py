"""Versioned JSON encoding of samples and views.

Parameters are serialized as strings so exact rationals survive the
round trip; partitions are plain integer arrays, the empty partition [].
"""
from __future__ import annotations

import json
from fractions import Fraction
from operator import itemgetter
from typing import Any, Dict

from .partitions import make
from .sampler import ProcessSample
from .symmetric import SymmetricSample
from .tilings import CodecError, DominoTiling, HeightMatrix, OverpartitionTableau
from .words import format_word, parse_number, parse_word

FORMAT = "schursample/1"


def _num_to_str(v) -> str:
    return str(v) if isinstance(v, (int, Fraction)) else repr(float(v))


def _sample_to_dict(s) -> Dict[str, Any]:
    """The record of a process or symmetric sample: a symmetric record adds
    t and mode after z, a process record with a draw log adds it last."""
    symmetric = isinstance(s, SymmetricSample)
    out = {
        "format": FORMAT,
        "kind": "symmetric-sample" if symmetric else "process-sample",
        "word": format_word(s.word),
        "z": [_num_to_str(v) for v in s.z],
    }
    if symmetric:
        out.update(t=_num_to_str(s.t), mode=s.mode)
    out.update(seed=s.seed, rng=s.rng_algorithm, lambdas=s.lambdas)  # tuples are arrays
    if not symmetric and s.draw_log is not None:
        out["draw_log"] = s.draw_log
    return out


def _sample_from_dict(d: Dict[str, Any], symmetric: bool):
    """The sample of a record that _sample_to_dict writes; a process
    record's draw log is read when present."""
    fields = {"word": parse_word(d["word"]), "z": tuple(parse_number(v) for v in d["z"])}
    if symmetric:
        fields.update(t=parse_number(d["t"]), mode=d["mode"])
    fields.update(
        seed=d.get("seed"),
        lambdas=tuple(make(l) for l in d["lambdas"]),
        rng_algorithm=d.get("rng", "unknown"),
    )
    if not symmetric and "draw_log" in d:
        fields["draw_log"] = [tuple(e) for e in d["draw_log"]]
    return (SymmetricSample if symmetric else ProcessSample)(**fields)


# a steep tiling's record, written as json.dumps writes the equivalent dict
_STEEP_HEAD = (
    '{"format": %s, "kind": "steep-tiling", "word": %s, "window": [%d, %d], "dominoes": ['
)
_DOMINO = '{"k": %d, "pos2": %d, "vertical": %s, "sign": %d}'
_JSON_BOOL = ("false", "true")
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
    lo, hi = view.window
    head = _STEEP_HEAD % (json.dumps(FORMAT), json.dumps(format_word(view.word)), lo, hi)
    body = ", ".join([_DOMINO % (k, p, _JSON_BOOL[v], s) for k, p, v, s in view.dominoes])
    return head + body + "]}"


def dumps(obj) -> str:
    if isinstance(obj, DominoTiling):
        return _steep_tiling_json(obj)
    if isinstance(obj, (ProcessSample, SymmetricSample)):
        record = _sample_to_dict(obj)
    elif isinstance(obj, HeightMatrix):
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


def loads(text: str):
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"a record must be a JSON object, got {text.strip()[:40]!r}")
    kind = d.get("kind", "process-sample")
    try:
        if kind in ("process-sample", "symmetric-sample"):
            return _sample_from_dict(d, kind == "symmetric-sample")
        if kind == "plane-partition":
            view = HeightMatrix(tuple(d["shape"]), tuple(tuple(r) for r in d["rows"]))
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
                tuple(d["shape"]),
                tuple(tuple((v, bool(o)) for v, o in row) for row in d["rows"]),
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
