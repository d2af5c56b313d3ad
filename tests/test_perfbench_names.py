"""The names that the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` skips an attribute it cannot find, so a renamed or
moved function would turn its per-layer metric into 0 without an error.
This test fails instead.
"""
import importlib
from pathlib import Path

import pytest

from schursample import rng, rules, sampler, symmetric, unbounded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_span_target_finds_a_name(tracing):
    for layer, owner, names in tracing.SPAN_TARGETS:
        assert any(vars(owner).get(n) is not None for n in names), (layer, owner, names)


def test_the_counted_kernels_exist(tracing):
    assert "c" in vars(unbounded.PyramidalParameters)
    assert "grow_pyramidal" in vars(unbounded)
    assert set(tracing.RULE_KINDS) == {"HH", "HV", "VH", "VV"} <= set(rules.GROW)
    assert sorted(tracing.DIAG_RULES) == [
        "grow_diag_h", "grow_diag_h_ec", "grow_diag_h_er",
        "grow_diag_v", "grow_diag_v_ec", "grow_diag_v_er",
    ]
    assert all(callable(vars(symmetric)[n]) for n in tracing.DIAG_RULES)


def test_the_benchmark_alias_is_the_sampler():
    # the aztec workload times schur_sample through this module attribute
    assert sampler.in_place_boundary_sample is sampler.schur_sample


def test_the_recorded_draw_methods_exist(tracing):
    # the tracer records the draws through these RandomSource methods
    assert all(callable(vars(rng.RandomSource).get(n)) for n in tracing.RNG_METHODS)


def test_a_pyramid_sample_grows_through_the_module_attribute(monkeypatch):
    # the tracer's unbounded.grow span wraps this attribute; a sampler that
    # called the function by another name would read unbounded.grow_s as 0
    calls = []
    grow = unbounded.grow_pyramidal

    def counting(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(unbounded, "grow_pyramidal", counting)
    s = unbounded.unbounded_schur_sample(
        unbounded.PyramidalParameters.q_volume(0.9),
        unbounded.WordConvention.pyramid(),
        rng.RandomSource(1),
    )
    assert s.lambdas
    assert len(calls) == 1
