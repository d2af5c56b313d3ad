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


def sample_to_dict(s: ProcessSample) -> Dict[str, Any]:
    out = {
        "format": FORMAT,
        "kind": "process-sample",
        "word": format_word(s.word),
        "z": [_num_to_str(v) for v in s.z],
        "seed": s.seed,
        "rng": s.rng_algorithm,
        "lambdas": [list(l) for l in s.lambdas],
    }
    if s.draw_log is not None:
        out["draw_log"] = [[kind, param, value] for kind, param, value in s.draw_log]
    return out


def sample_from_dict(d: Dict[str, Any]) -> ProcessSample:
    if d.get("kind") not in (None, "process-sample"):
        raise ValueError(f"not a process sample: kind={d.get('kind')!r}")
    return ProcessSample(
        word=parse_word(d["word"]),
        z=tuple(parse_number(v) for v in d["z"]),
        seed=d.get("seed"),
        lambdas=tuple(make(l) for l in d["lambdas"]),
        rng_algorithm=d.get("rng", "unknown"),
        draw_log=[tuple(e) for e in d["draw_log"]] if "draw_log" in d else None,
    )


def symmetric_to_dict(s: SymmetricSample) -> Dict[str, Any]:
    return {
        "format": FORMAT,
        "kind": "symmetric-sample",
        "word": format_word(s.word),
        "z": [_num_to_str(v) for v in s.z],
        "t": _num_to_str(s.t),
        "mode": s.mode,
        "seed": s.seed,
        "rng": s.rng_algorithm,
        "lambdas": [list(l) for l in s.lambdas],
    }


def symmetric_from_dict(d: Dict[str, Any]) -> SymmetricSample:
    if d.get("kind") != "symmetric-sample":
        raise ValueError(f"not a symmetric sample: kind={d.get('kind')!r}")
    return SymmetricSample(
        word=parse_word(d["word"]),
        z=tuple(parse_number(v) for v in d["z"]),
        t=parse_number(d["t"]),
        mode=d["mode"],
        seed=d.get("seed"),
        lambdas=tuple(make(l) for l in d["lambdas"]),
        rng_algorithm=d.get("rng", "unknown"),
    )


def view_to_dict(view) -> Dict[str, Any]:
    if isinstance(view, HeightMatrix):
        return {
            "format": FORMAT,
            "kind": "plane-partition",
            "shape": list(view.shape),
            "rows": [list(r) for r in view.rows],
        }
    if isinstance(view, OverpartitionTableau):
        return {
            "format": FORMAT,
            "kind": "plane-overpartition",
            "shape": list(view.shape),
            "rows": [[[v, bool(o)] for v, o in row] for row in view.rows],
        }
    raise TypeError(f"cannot serialize view of type {type(view).__name__}")


def view_from_dict(d: Dict[str, Any]):
    kind = d.get("kind")
    if kind == "plane-partition":
        view = HeightMatrix(tuple(d["shape"]), tuple(tuple(r) for r in d["rows"]))
    elif kind == "steep-tiling":  # validate() below checks each field's type
        window, dominoes = d["window"], d["dominoes"]
        if type(window) is not list:
            raise CodecError(f"window must be a list of two bounds, got {json.dumps(window)}")
        if type(dominoes) is not list:
            raise CodecError(f"dominoes must be a list, got {json.dumps(dominoes)}")
        try:
            fields = list(map(_DOMINO_FIELDS, dominoes))
        except (TypeError, KeyError):
            raise CodecError(_bad_domino(dominoes)) from None
        fields.sort()
        view = DominoTiling(parse_word(d["word"]), tuple(window), tuple(fields))
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
    view.validate()
    return view


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
    if isinstance(obj, ProcessSample):
        return json.dumps(sample_to_dict(obj))
    if isinstance(obj, SymmetricSample):
        return json.dumps(symmetric_to_dict(obj))
    if isinstance(obj, DominoTiling):
        return _steep_tiling_json(obj)
    return json.dumps(view_to_dict(obj))


def loads(text: str):
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"a record must be a JSON object, got {text.strip()[:40]!r}")
    kind = d.get("kind", "process-sample")
    if kind == "process-sample":
        return sample_from_dict(d)
    if kind == "symmetric-sample":
        return symmetric_from_dict(d)
    return view_from_dict(d)
