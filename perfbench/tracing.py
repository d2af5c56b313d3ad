"""Per-layer measurement: spans at module boundaries, and replays of the
per-box kernel calls and random draws of one recorded op.

Spans come from wrappers that this file installs on the package's module
attributes for the duration of a traced op; the package itself is not
changed.  A span records (name, start, end, parent, op).  Spans stay in
memory and are reduced to per-layer self times when the run ends.

No timer sits in a per-box loop: the rule kernels and the ``RandomSource``
draws are only recorded (arguments and results) during one untimed op,
then replayed alone with one timer around each batch of calls.
"""
from __future__ import annotations

import functools
import json
import statistics
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

from schursample import cli, jsonio, rng, rules, sampler, symmetric, unbounded, words

import workloads

# Layer name -> (owner, attribute names).  Owners that lack an attribute are
# skipped, so the trace keeps working when a later version moves code.
SPAN_TARGETS = [
    ("words", words, ("parse_word", "parse_params", "q_volume_parameters")),
    ("words", cli, ("parse_word", "parse_params", "q_volume_parameters")),
    ("words", sampler, ("precompute_par", "check_parameters")),
    ("words", symmetric, ("precompute_par", "symmetrize", "fold_boundary_weight")),
    ("rng.stream", workloads.Streams, ("new", "child")),
    ("rng.stream", rng.RandomSource, ("child",)),
    ("rng.stream", cli, ("RandomSource",)),
    ("sampler", sampler, ("in_place_boundary_sample", "schur_sample")),
    ("sampler", cli, ("in_place_boundary_sample", "schur_sample")),
    ("symmetric", symmetric, ("symmetric_schur_sample",)),
    ("symmetric", cli, ("symmetric_schur_sample",)),
    ("unbounded.sample", unbounded.PyramidalSampler, ("sample",)),
    ("unbounded.cdf", unbounded.PyramidalSampler, ("log_p_empty", "sample_truncation_index")),
    ("unbounded.grow", unbounded, ("grow_pyramidal",)),
    ("unbounded.plancherel", unbounded, ("plancherel_sample",)),
    ("unbounded.plancherel", cli, ("plancherel_sample",)),
    ("unbounded.rsk", unbounded, ("rsk_shape",)),
    ("tilings", cli, ("to_plane_partition", "to_steep_tiling", "to_plane_overpartition")),
    ("jsonio", jsonio, ("dumps", "loads")),
    ("render", cli, ("render_svg",)),
    ("cli", cli, ("main",)),
]

# Entry points that set the layer context of recorded kernel calls and draws.
CONTEXT_TARGETS = [
    (name, owner, attrs)
    for name, owner, attrs in SPAN_TARGETS
    if name in ("sampler", "symmetric") or name.startswith("unbounded.")
    if owner is not cli
]

RULE_KINDS = ("HH", "HV", "VH", "VV")
DIAG_RULES = tuple(n for n in vars(symmetric) if n.startswith("grow_diag_"))
RNG_METHODS = ("uniform", "geometric", "bernoulli", "poisson", "permutation")


class Patches:
    """Replaces attributes (or dict entries) and restores them."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, key, make):
        is_dict = isinstance(owner, dict)
        orig = owner.get(key) if is_dict else vars(owner).get(key)
        if orig is None:
            return
        self._saved.append((owner, key, orig, is_dict))
        new = make(orig)
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def restore(self):
        for owner, key, orig, is_dict in reversed(self._saved):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._saved.clear()


class Tracer:
    """Collects spans of traced ops.  Spans opened on a worker thread with
    no open span of its own take the main thread's open span as parent."""

    def __init__(self):
        self.by_op = {}  # op id -> spans [name, start, end, parent index]
        self._spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            top = stack or tracer._main_stack
            rec = [name, 0.0, 0.0, top[-1] if top else -1]
            with tracer._lock:
                idx = len(tracer._spans)
                tracer._spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def run(self, op_id, name, fn):
        """Run ``fn()`` as traced op ``op_id`` under a top span ``name``."""
        patches = Patches()
        for layer, owner, attrs in SPAN_TARGETS:
            for attr in attrs:
                patches.wrap(owner, attr, functools.partial(self._wrap, layer))
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(json))
        json_proxy.dumps = self._wrap("jsonio", json.dumps)
        patches.wrap(cli, "json", lambda orig: json_proxy)
        self._spans = []
        self._main_stack = self._stack()
        try:
            return self._wrap(name, fn)()
        finally:
            patches.restore()
            self.by_op[op_id] = self._spans

    def wall(self, op_id) -> float:
        """Duration of the op's top span."""
        _, start, end, _ = self.by_op[op_id][0]
        return end - start

    def layer_self_times(self, op_id):
        """Self time per layer for one op: each span's duration minus the
        part of it covered by its child spans (on any thread)."""
        spans = self.by_op[op_id]
        children = defaultdict(list)
        for i, s in enumerate(spans):
            children[s[3]].append(i)
        out = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            kids = sorted((spans[c][1], spans[c][2]) for c in children[i])
            covered, reach = 0.0, start
            for a, b in kids:
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[name] += (end - start) - covered
        return out


class Recorder:
    """Records, for one op, every rule-kernel call and every outermost
    ``RandomSource`` draw, tagged with the layer context they ran in."""

    def __init__(self):
        self.rules = []  # (ctx, kind, fn, args, result)
        self.draws = []  # (ctx, stream, method, args, result)
        self.cdf_params = 0  # PyramidalParameters.c evaluations in the CDF
        self._ctx = ["op"]
        self._depth = 0

    def _context(self, name, fn):
        rec = self

        def inner(*args, **kwargs):
            rec._ctx.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._ctx.pop()

        return inner

    def _rule(self, kind, fn):
        rec = self

        def inner(*args):
            out = fn(*args)
            rec.rules.append((rec._ctx[-1], kind, fn, args, out))
            return out

        return inner

    def _draw(self, method, fn):
        rec = self

        def inner(src, *args):
            rec._depth += 1
            try:
                out = fn(src, *args)
            finally:
                rec._depth -= 1
            if rec._depth == 0:
                rec.draws.append((rec._ctx[-1], src, method, args, out))
            return out

        return inner

    def _count_c(self, fn):
        rec = self

        def inner(*args):
            if rec._ctx[-1] == "unbounded.cdf":
                rec.cdf_params += 1
            return fn(*args)

        return inner

    def run(self, fn):
        patches = Patches()
        for name, owner, attrs in CONTEXT_TARGETS:
            for attr in attrs:
                patches.wrap(owner, attr, functools.partial(self._context, name))
        for kind in RULE_KINDS:
            patches.wrap(rules.GROW, kind, functools.partial(self._rule, kind))
        patches.wrap(unbounded, "grow_hh", functools.partial(self._rule, "HH"))
        for name in DIAG_RULES:
            patches.wrap(symmetric, name, functools.partial(self._rule, "diag"))
        for method in RNG_METHODS:
            patches.wrap(rng.RandomSource, method, functools.partial(self._draw, method))
        patches.wrap(unbounded.PyramidalParameters, "c", self._count_c)
        try:
            return fn()
        finally:
            patches.restore()

    def rule_counts(self):
        return Counter(kind for _, kind, _, _, _ in self.rules)

    def work(self):
        """Candidate-row updates, as ``SampleStats.work`` counts them."""
        total = 0
        for _, kind, _, args, _ in self.rules:
            lens = [len(a) for a in args if isinstance(a, tuple)]
            total += (max(lens[:2]) if kind != "diag" else lens[0]) + 1
        return total

    def replay_rules(self, repeats=3):
        """Median seconds per (ctx, kind) to rerun the recorded kernel calls;
        also the number of calls whose result differs from the recording."""
        groups = defaultdict(list)
        for ctx, kind, fn, args, out in self.rules:
            groups[(ctx, kind)].append((fn, args, out))
        times, mismatches = {}, 0
        for key, calls in groups.items():
            runs = []
            for _ in range(repeats):
                got = []
                t0 = perf_counter()
                for fn, args, _ in calls:
                    got.append(fn(*args))
                runs.append(perf_counter() - t0)
            mismatches += sum(g != c[2] for g, c in zip(got, calls))
            times[key] = statistics.median(runs)
        return times, mismatches

    def replay_draws(self, repeats=3):
        """Median seconds per ctx to redraw the recorded variates from fresh
        streams of the same seeds; also the number of differing values."""
        segments = []  # consecutive calls sharing one ctx
        for ctx, src, method, args, out in self.draws:
            if not segments or segments[-1][0] != ctx:
                segments.append((ctx, []))
            segments[-1][1].append((id(src), src.seed, method, args, out))
        runs = defaultdict(list)
        mismatches = 0
        for _ in range(repeats):
            fresh = {}
            bound = []
            for ctx, calls in segments:
                for sid, seed, method, args, out in calls:
                    if sid not in fresh:
                        fresh[sid] = rng.RandomSource(seed)
                bound.append((ctx, [(getattr(fresh[c[0]], c[2]), c[3]) for c in calls]))
            got = []
            per_ctx = Counter()
            for ctx, calls in bound:
                t0 = perf_counter()
                for f, args in calls:
                    got.append(f(*args))
                per_ctx[ctx] += perf_counter() - t0
            for ctx in {s[0] for s in segments}:
                runs[ctx].append(per_ctx[ctx])
            expected = [c[4] for _, calls in segments for c in calls]
            mismatches = sum(g != e for g, e in zip(got, expected))
        return {ctx: statistics.median(v) for ctx, v in runs.items()}, mismatches
