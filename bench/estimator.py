"""The ``estimator`` workload: ``empirical.estimate_condition`` for all five
problem kinds and all nine (r, s) pairs, on seeded Gaussian matrices of
sizes 4, 7 and 10, with a fixed schedule of two deltas of 1000 samples.

Inputs: for each size, a Gaussian matrix (redrawn until np.linalg.cond is
at most ``KAPPA_CAP``, so that delta * kappa stays far below the 5%
tolerance) and a Gaussian vector, from ``numpy.random.default_rng(seed)``.
Checks (outside the timed region):

* the closed form of every estimate against the formulas evaluated with
  ``np.linalg`` for (1,1), (2,2) and (inf,inf), against column and row
  formulas for (1,2), (1,inf) and (2,inf), and against a brute-force sign
  search for the enumeration pairs (inf,1), (inf,2) and (2,1);
* ``first_order_bound_check`` is true and the estimate is within 5% of the
  closed form.
"""

from __future__ import annotations

import numpy as np

import oracles

INF = oracles.INF
SIZES = (4, 7, 10)
KINDS = ("inversion", "matvec", "solve_fixed_a", "solve_fixed_b", "solve_both")
PAIRS = tuple((r, s) for r in (1.0, 2.0, INF) for s in (1.0, 2.0, INF))
DELTAS = (1e-6, 1e-7)
SAMPLES = 1000
KAPPA_CAP = 1e3

#: Closed forms agree with the reference formulas to this relative gap.
CLOSED_FORM_RTOL = 1e-9
ESTIMATE_RTOL = 0.05


def make_inputs(seed, workdir):
    del workdir
    gen = np.random.default_rng(seed)
    instances = []
    for n in SIZES:
        a = gen.standard_normal((n, n))
        while np.linalg.cond(a) > KAPPA_CAP:
            a = gen.standard_normal((n, n))
        instances.append((a, gen.standard_normal(n)))
    return {"instances": instances, "estimator_seed": int(gen.integers(0, 2**62))}


def _cases(inputs):
    for a, vec in inputs["instances"]:
        for kind in KINDS:
            for r, s in PAIRS:
                yield kind, a, vec, r, s


def _label(kind, a, r, s):
    return f"{kind}/n={a.shape[0]}/({r:g},{s:g})"


def operations(inputs):
    from condlab import empirical

    config = empirical.EstimatorConfig(
        deltas=DELTAS, samples_per_delta=SAMPLES, seed=inputs["estimator_seed"]
    )
    ops = []
    for kind, a, vec, r, s in _cases(inputs):
        arg = None if kind == "inversion" else vec

        def op(kind=kind, a=a, arg=arg, r=r, s=s):
            return empirical.estimate_condition(kind, a, arg, r, s, config=config)

        ops.append((_label(kind, a, r, s), op))
    return ops


def check(inputs, outputs):
    errors = []
    for (kind, a, vec, r, s), report in zip(_cases(inputs), outputs):
        name = _label(kind, a, r, s)
        reference = oracles.condition(kind, a, vec, r, s)
        if not oracles.relative_gap(report.closed_form, reference) <= CLOSED_FORM_RTOL:
            errors.append(f"{name}: closed form {report.closed_form!r} != reference {reference!r}")
        if report.first_order_bound_check is not True:
            errors.append(f"{name}: first_order_bound_check is {report.first_order_bound_check}")
        if not oracles.relative_gap(report.estimate, report.closed_form) <= ESTIMATE_RTOL:
            errors.append(f"{name}: estimate {report.estimate!r} not within 5% of closed form")
    return errors
