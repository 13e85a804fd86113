"""Thermal runaway (Section V.C.1): divergence at lambda_m.

Prints the peak-temperature blow-up series of the Alpha deployment and
asserts Theorem 2's divergence plus the Theorem 1 dichotomy.  The
timed benchmarks compare the two lambda_m algorithms (the paper's
Cholesky binary search vs the exact reduced eigenproblem).

Run:  pytest benchmarks/bench_runaway.py --benchmark-only -s
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.runaway import runaway_curve
from repro.linalg.runaway import runaway_current_eigen
from repro.linalg.spd import cholesky_is_spd


def test_runaway_shape(alpha_greedy):
    curve = runaway_curve(alpha_greedy.model, max_fraction=0.9999)
    print()
    print("lambda_m = {:.2f} A".format(curve.lambda_m))
    print("{:>10} {:>16}".format("i (A)", "peak (C)"))
    for current, peak in zip(curve.currents, curve.peak_c):
        print("{:>10.2f} {:>16.1f}".format(current, peak))
    assert curve.diverged
    assert curve.peak_c[-1] > 100.0 * curve.peak_c[0]

    g, d_diag, _, _ = alpha_greedy.model.matrices()
    lam = curve.lambda_m
    assert cholesky_is_spd((g - 0.99 * lam * sp.diags(d_diag)).tocsc())
    assert not cholesky_is_spd((g - 1.01 * lam * sp.diags(d_diag)).tocsc())


@pytest.mark.benchmark(group="runaway")
def test_lambda_m_eigen(benchmark, alpha_greedy):
    # The eigensolve itself: ``model.runaway_current()`` keeps its
    # first answer, so timing it would time a lookup.
    model = alpha_greedy.model
    g, d_diag, _, _ = model.matrices()
    result = benchmark(lambda: runaway_current_eigen(
        g, d_diag, condensed=model.runaway_condensed(),
        lattice=model.system.lattice,
    ))
    assert np.isfinite(result.value)


@pytest.mark.benchmark(group="runaway")
def test_lambda_m_binary_search(benchmark, alpha_greedy):
    model = alpha_greedy.model
    result = benchmark.pedantic(
        lambda: model.runaway_current(method="binary-search"),
        rounds=3,
        iterations=1,
    )
    eigen = model.runaway_current(method="eigen").value
    assert result.value == pytest.approx(eigen, rel=1e-6)
