"""Spans and counters around condlab's layer entry points.

Nothing under ``src/`` changes: :func:`layer_wrappers` replaces each entry
point as the calling module binds it (``randomlab._jacobi``,
``norms.spectral_norm_attainer``, ``empirical._lu_raw``, ...) with a wrapper
that records a span (operation, parent span, layer, start, end) in memory
and bumps the layer's counters.  A layer's self time is the sum of its
spans' durations minus the time covered by their child spans.  The wrappers
are installed only for the traced rounds of a ``--trace 1`` run.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter

import numpy as np

#: (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them.
METRICS = (
    ("rng.self_s", "s", "lower"),
    ("rng.normals", "count", "lower"),
    ("linalg.jacobi.self_s", "s", "lower"),
    ("linalg.jacobi.matrices", "count", "lower"),
    ("linalg.jacobi.calls", "count", "lower"),
    ("linalg.attainer.self_s", "s", "lower"),
    ("linalg.ql.self_s", "s", "lower"),
    ("linalg.ql.matrices", "count", "lower"),
    ("linalg.lu.self_s", "s", "lower"),
    ("linalg.lu.matrices", "count", "lower"),
    ("linalg.invert.calls", "count", "lower"),
    ("norms.enum.self_s", "s", "lower"),
    ("norms.enum.calls", "count", "lower"),
    ("norms.enum.sign_vectors", "count", "lower"),
    ("norms.closed.self_s", "s", "lower"),
    ("conditioning.self_s", "s", "lower"),
    ("conditioning.calls", "count", "lower"),
    ("empirical.self_s", "s", "lower"),
    ("empirical.perturbations", "count", "lower"),
    ("empirical.resampled", "count", "lower"),
    ("triangular.self_s", "s", "lower"),
    ("triangular.rounded_ops", "count", "lower"),
    ("randomlab.self_s", "s", "lower"),
    ("randomlab.trials", "count", "lower"),
    ("matio.self_s", "s", "lower"),
    ("matio.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory span recorder for one traced round at a time."""

    def __init__(self):
        self.patches = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    def wrap(self, owner, attr, layer, count=None):
        """Trace calls through ``owner.attr``.  ``layer`` is a name or a
        function of the call's arguments; ``count(counts, result, *args,
        **kwargs)`` updates the counters after the call returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            result = self.call(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        self.patches.append((owner, attr, original, traced))

    def install(self):
        for owner, attr, _, traced in self.patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def begin_round(self):
        self.spans.clear()
        self.counts.clear()

    def call(self, layer, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (self.op, parent, layer, start, end)

    def self_times(self):
        """Seconds per layer, child spans excluded."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (_, _, layer, start, end), inner in zip(self.spans, covered):
            totals[layer] += end - start - inner
        return totals

    def round_metrics(self):
        values = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        values.update(self.counts)
        return values


def _matrices(a):
    return math.prod(np.shape(a)[:-2])


def _bump(*names):
    def count(counts, result, *args, **kwargs):
        for name in names:
            counts[name] += 1

    return count


def layer_wrappers(tracer):
    """Register a wrapper for every layer entry point on ``tracer``."""
    from condlab import (
        cli,
        conditioning,
        empirical,
        linalg,
        matio,
        norms,
        randomlab,
        rng,
        triangular,
    )

    def normals(counts, result, key, count, *_):
        counts["rng.normals"] += np.size(key) * count

    for name in ("substream", "uniforms", "standard_normals", "normal_matrix"):
        tracer.wrap(rng, name, "rng", normals if name == "standard_normals" else None)

    def jacobi_layer(a, want_vectors, *args, **kwargs):
        return "linalg.attainer" if want_vectors else "linalg.jacobi"

    def jacobi_count(counts, result, a, want_vectors, *args, **kwargs):
        if not want_vectors:
            counts["linalg.jacobi.calls"] += 1
            counts["linalg.jacobi.matrices"] += _matrices(a)

    for owner in (linalg, randomlab):
        tracer.wrap(owner, "_jacobi", jacobi_layer, jacobi_count)
    for owner in (linalg, cli):
        tracer.wrap(owner, "singular_values", "linalg.jacobi")
    tracer.wrap(norms, "spectral_norm_attainer", "linalg.attainer")

    def ql_count(counts, result, a, *_):
        counts["linalg.ql.matrices"] += _matrices(a)

    tracer.wrap(randomlab, "ql_lower", "linalg.ql", ql_count)

    def lu_count(counts, result, a, *_):
        counts["linalg.lu.matrices"] += _matrices(a)

    for owner in (linalg, empirical):
        tracer.wrap(owner, "_lu_raw", "linalg.lu", lu_count)
        tracer.wrap(owner, "_lu_solve_packed", "linalg.lu")
    for owner in (conditioning, empirical):
        tracer.wrap(owner, "invert", "linalg.lu", _bump("linalg.invert.calls"))
    tracer.wrap(empirical, "solve", "linalg.lu")

    def enum_dim(a, r, s):
        r, s = norms.norm_index(r), norms.norm_index(s)
        if (r, s) not in norms.ENUMERATION_PAIRS:
            return None
        return np.shape(a)[-1] if r == math.inf else np.shape(a)[-2]

    def norm_layer(a, r, s, *args, **kwargs):
        return "norms.closed" if enum_dim(a, r, s) is None else "norms.enum"

    def norm_count(counts, result, a, r, s, *args, **kwargs):
        dim = enum_dim(a, r, s)
        if dim is not None:
            counts["norms.enum.calls"] += 1
            counts["norms.enum.sign_vectors"] += _matrices(a) << max(dim - 1, 0)

    for owner in (conditioning, empirical, cli):
        tracer.wrap(owner, "operator_norm", norm_layer, norm_count)
    tracer.wrap(empirical, "operator_norm_values", norm_layer, norm_count)
    for owner in (conditioning, empirical):
        tracer.wrap(owner, "vector_norm", "norms.closed")
        tracer.wrap(owner, "rank_one_interpolator", "norms.closed")

    calls = _bump("conditioning.calls")
    for name in ("kappa", "condition_closed_form", "mixed_condition", "distance_to_singularity",
                 "nearest_singular_perturbation", "_extremal_pair", "_solution_term"):
        tracer.wrap(conditioning, name, "conditioning", calls)
    for name in ("condition_closed_form", "_extremal_pair"):
        tracer.wrap(empirical, name, "conditioning", calls)

    def resampled(counts, report, *args, **kwargs):
        counts["empirical.resampled"] += sum(d.resampled for d in report.per_delta)

    def perturbations(counts, result, base, delta, keys, *_):
        counts["empirical.perturbations"] += np.size(keys)

    tracer.wrap(empirical, "estimate_condition", "empirical", resampled)
    tracer.wrap(empirical, "_sphere_vectors", "empirical", perturbations)
    tracer.wrap(empirical, "_sphere_matrices", "empirical", perturbations)

    def rounded_ops(counts, result, lower, b, precision=triangular.WORKING):
        if precision.mode == "reduced":
            n = np.shape(lower)[-1]
            counts["triangular.rounded_ops"] += n * n + n - 1

    tracer.wrap(triangular, "forward_substitution", "triangular", rounded_ops)
    for name in ("componentwise_backward_error", "verify_backward_stability"):
        tracer.wrap(triangular, name, "triangular")

    def trials(counts, result, config, *_):
        counts["randomlab.trials"] += config.trials * len(config.sizes)

    tracer.wrap(randomlab, "run_experiment", "randomlab", trials)

    def file_bytes(counts, result, path):
        counts["matio.bytes"] += os.path.getsize(path)

    tracer.wrap(matio, "read_matrix", "matio", file_bytes)
    tracer.wrap(matio, "read_vector", "matio")
    tracer.wrap(cli, "main", "cli")
