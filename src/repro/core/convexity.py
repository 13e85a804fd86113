"""Convexity certification of the current-setting problem (Section V.C.2).

Equation (10) of the paper splits each silicon tile temperature into

    theta_k(i) = (r i^2 / 2) * eta_k(i) + zeta_k(i)

with ``eta_k(i) = sum_{l in HOT u CLD} h_kl(i)`` (influence of the TEC
Joule sources) and ``zeta_k(i) = sum_{l in SIL} h_kl(i) p_l`` (influence
of the tile powers).  Under Conjecture 1 both are convex and
non-negative, but the product term ``r i^2 eta(i) / 2`` need not be
convex, so the paper derives a checkable sufficient condition:

    theta_k''(i) = r eta_k(i) + 2 r i eta_k'(i)
                   + (r i^2 / 2) eta_k''(i) + zeta_k''(i)
                >= r eta_k(i) + 2 r i eta_k'(i)
                >= r eta_k(i) + 2 r i eta_k'(i_t)      for i >= i_t,

using that ``eta_k'`` is non-decreasing (``eta_k`` convex).  If

    eta_k(i) + 2 i eta_k'(i_t) >= 0   on [i_t, i_{t+1}]            (12)

for every interval of a subdivision ``0 = i_0 < ... < i_m``, then every
``theta_k`` is convex on the swept range (Theorem 4).  (The paper's
printed inequality (12) omits the factor 2 on the ``i eta'`` term that
the product rule produces; we keep the factor — it only makes the
sufficient condition *stricter*, so every certificate issued here is
also a certificate for the paper's condition.)

The left side of (12) is convex in ``i`` (a convex function plus a
linear one), so its sign on an interval is decided by sampling plus the
interval endpoints — each sample is one sparse solve that yields the
value for *all* tiles at once:

    eta(i)  = H(i) m            (m = indicator of HOT u CLD)
    zeta(i) = H(i) p_restricted
    eta'(i) = H(i) D H(i) m     (Equation 13, via H' = H D H)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validate import check_in_range, check_positive

#: Product-rule coefficient on the ``i * eta'`` term of the
#: certificate; the paper prints 1, the derivation gives 2 (stricter).
DERIVATIVE_FACTOR = 2.0


def _tec_indicator(model):
    indicator = np.zeros(model.num_nodes)
    indicator[model.hot_nodes] = 1.0
    indicator[model.cold_nodes] = 1.0
    return indicator


def eta_zeta(model, current):
    """``eta_k(i)`` and ``zeta_k(i)`` for every silicon tile.

    Returns a pair of flat arrays over tiles (row-major).  Both columns
    are solved in a single batched call against the already-factorized
    ``G - i D``.
    """
    if not model.stamps:
        raise ValueError("model has no TECs; eta/zeta are undefined")
    silicon = model.silicon_nodes
    p_sil = np.zeros(model.num_nodes)
    p_sil[silicon] = model.power_map
    rhs = np.column_stack([_tec_indicator(model), p_sil])
    solution = model.solver.solve_rhs(current, rhs)
    return solution[silicon, 0], solution[silicon, 1]


def eta_derivative(model, current):
    """``eta_k'(i)`` for every silicon tile via ``H' = H D H``.

    Two sparse solves: ``u = H m``, then ``w = H (D u)``; the silicon
    components of ``w`` are the derivatives (Equation 13).
    """
    if not model.stamps:
        raise ValueError("model has no TECs; eta' is undefined")
    u = model.solver.solve_rhs(current, _tec_indicator(model))
    w = model.solver.solve_rhs(current, model.system.d_diagonal * u)
    return w[model.silicon_nodes]


@dataclass
class IntervalCheck:
    """Result of the Lemma 4 check on one subdivision interval.

    ``margin`` is the smallest value of the certificate function
    ``eta_k(i) + 2 i eta_k'(i_t)`` over all sampled ``i`` and all
    tiles ``k``; the interval is certified when it is positive.
    """

    lower: float
    upper: float
    margin: float
    worst_tile: int
    worst_current: float

    @property
    def certified(self):
        return self.margin > 0.0


@dataclass
class ConvexityCertificate:
    """Theorem 4 certificate over ``[0, i_max]``.

    Attributes
    ----------
    certified:
        True when every subdivision interval passed the Lemma 4 check;
        together with Conjecture 1 this certifies that every
        ``theta_k(i)`` is convex on the swept range, hence that the 1-D
        current optimization found the global optimum.
    i_max:
        Upper end of the certified range (A).
    intervals:
        Per-interval :class:`IntervalCheck` records.
    margin:
        Overall worst margin.
    solves:
        Number of sparse solves spent.
    """

    certified: bool
    i_max: float
    intervals: list = field(default_factory=list)
    margin: float = np.inf
    solves: int = 0


def certify_convexity(
    model,
    i_max,
    *,
    subdivisions=8,
    samples_per_interval=9,
):
    """Run the Theorem 4 certificate on ``[0, i_max]``.

    Parameters
    ----------
    model:
        A deployed :class:`~repro.thermal.model.PackageThermalModel`.
    i_max:
        Upper end of the range to certify; must be below the runaway
        current.
    subdivisions:
        Number of equal subdivision intervals (the paper's arbitrary
        increasing sequence).  More intervals tighten the
        ``eta'(i) >= eta'(i_t)`` bound at the cost of runtime — the
        trade-off quantified by ``benchmarks/bench_ablation_certificate``.
    samples_per_interval:
        Sample count for deciding the sign of the (convex) certificate
        function on each interval, endpoints included.

    Returns
    -------
    ConvexityCertificate
    """
    i_max = check_positive(i_max, "i_max")
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be >= 2")
    lambda_m = model.runaway_current().value
    check_in_range(i_max, "i_max", 0.0, lambda_m, inclusive=(False, False))

    edges = np.linspace(0.0, i_max, subdivisions + 1)
    indicator = _tec_indicator(model)
    intervals = []
    solves = 0
    overall_margin = np.inf
    for t in range(subdivisions):
        lo, hi = float(edges[t]), float(edges[t + 1])
        eta_slope = eta_derivative(model, lo)
        solves += 2
        margin = np.inf
        worst_tile = -1
        worst_current = lo
        for current in np.linspace(lo, hi, samples_per_interval):
            current = float(current)
            eta_values = model.solver.solve_rhs(current, indicator)[
                model.silicon_nodes
            ]
            solves += 1
            certificate = eta_values + DERIVATIVE_FACTOR * current * eta_slope
            k = int(np.argmin(certificate))
            if certificate[k] < margin:
                margin = float(certificate[k])
                worst_tile = k
                worst_current = current
        check = IntervalCheck(
            lower=lo, upper=hi, margin=margin,
            worst_tile=worst_tile, worst_current=worst_current,
        )
        intervals.append(check)
        overall_margin = min(overall_margin, margin)
    return ConvexityCertificate(
        certified=all(chk.certified for chk in intervals),
        i_max=i_max,
        intervals=intervals,
        margin=overall_margin,
        solves=solves,
    )


def numerical_convexity_check(model, i_max, *, samples=33, tolerance=1.0e-6):
    """Direct second-difference convexity check of every ``theta_k(i)``.

    A diagnostic cross-check of the analytic certificate: samples each
    tile temperature on a uniform current grid and verifies that all
    interior second differences are ``>= -tolerance * scale``.  Returns
    the worst normalized second difference (positive = convex).
    """
    if samples < 3:
        raise ValueError("samples must be >= 3")
    currents = np.linspace(0.0, i_max, samples)
    temperatures = np.stack([
        model.solve(current).silicon_c for current in currents
    ])
    second = temperatures[:-2] - 2.0 * temperatures[1:-1] + temperatures[2:]
    scale = max(1.0, float(np.max(np.abs(temperatures))))
    worst = float(np.min(second)) / scale
    return worst >= -tolerance, worst
