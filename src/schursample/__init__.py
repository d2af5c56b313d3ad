"""Exact sampling of Schur processes and the tiling models they encode.

The package grows interlaced partition sequences box by box with bijective
local rules, so samples follow the target Boltzmann measure exactly and the
consumed randomness can be reconstructed from the output.
"""

from .partitions import EMPTY, Partition, conjugate, from_maya, interlaces
from .rng import RandomSource
from .sampler import (
    DivergenceError,
    ProcessSample,
    reconstruct_inputs,
    schur_sample,
)
from .symmetric import SymmetricSample, symmetric_schur_sample
from .unbounded import (
    ParamSeq,
    PyramidalParameters,
    PyramidalSampler,
    WordConvention,
    mixed_plancherel_sample,
    plancherel_sample,
    unbounded_schur_sample,
)
from .words import (
    Rel,
    Word,
    encoded_shape,
    format_word,
    parse_word,
    precompute_par,
    q_volume_parameters,
    symmetrize,
)

__version__ = "0.1.0"

# compiled on first use, so that a process that only samples does not pay
_ZFUN = frozenset(("ZValue", "z_finite", "z_pyramidal", "z_symmetric"))


def __getattr__(name: str):
    if name in _ZFUN:
        from . import zfun

        return getattr(zfun, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EMPTY",
    "DivergenceError",
    "ParamSeq",
    "Partition",
    "ProcessSample",
    "PyramidalParameters",
    "PyramidalSampler",
    "RandomSource",
    "Rel",
    "SymmetricSample",
    "Word",
    "WordConvention",
    "ZValue",
    "conjugate",
    "encoded_shape",
    "format_word",
    "from_maya",
    "interlaces",
    "mixed_plancherel_sample",
    "parse_word",
    "plancherel_sample",
    "precompute_par",
    "q_volume_parameters",
    "reconstruct_inputs",
    "schur_sample",
    "symmetric_schur_sample",
    "symmetrize",
    "unbounded_schur_sample",
    "z_finite",
    "z_pyramidal",
    "z_symmetric",
]
