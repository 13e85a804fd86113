"""System-level thermal runaway analysis (Section V.C.1, Figure 6).

Theorem 2: as the shared supply current approaches the runaway limit
``lambda_m``, every entry of ``H = (G - i D)^{-1}`` — and with it every
node temperature — diverges to ``+inf``.  Physically, ``lambda_m`` is
the current at which Peltier pumping is exactly cancelled by Joule
heating and back-conduction (the zero-COP condition), so pushing more
current only heats the package.

This module produces the curves behind Figure 6 and the runaway
experiment: peak temperature and selected ``h_kl(i)`` entries swept up
to a fraction of ``lambda_m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validate import check_in_range


@dataclass
class RunawayCurve:
    """A sweep of the peak temperature toward the runaway current.

    Attributes
    ----------
    lambda_m:
        The runaway current of the deployment (A).
    currents:
        Sampled currents (A), strictly below ``lambda_m``.
    peak_c:
        Peak silicon temperature at each sample (Celsius).
    h_peak:
        The influence coefficient ``h_kk(i)`` of the hottest tile at
        each sample (K/W) — one of the Figure 6 curves; diverges with
        the temperature.
    """

    lambda_m: float
    currents: np.ndarray
    peak_c: np.ndarray
    h_peak: np.ndarray
    diverged: bool = field(default=False)

    def blow_up_ratio(self):
        """Peak temperature rise at the last sample over the first.

        A crude divergence indicator: ratios far above 1 demonstrate
        the runaway (the exact values depend on how close the last
        sample sits to ``lambda_m``).  Rises are measured from the
        curve's minimum (the optimal-cooling dip).  On a monotone
        curve the first sample *is* the minimum and that rise is zero,
        so the ratio falls back to the influence coefficient
        ``h_kk`` — positive (Lemma 3) and diverging identically
        (Theorem 2) — instead of dividing by a clamp and reporting a
        meaningless ~1e12.
        """
        first = self.peak_c[0]
        last = self.peak_c[-1]
        if first == last:
            return 1.0
        reference = float(first - self.peak_c.min())
        if reference > 0.0:
            return float(last - self.peak_c.min()) / reference
        return float(self.h_peak[-1] / self.h_peak[0])


def runaway_curve(model, *, fractions=None, max_fraction=0.999):
    """Sweep the peak temperature toward ``lambda_m`` (Figure 6's shape).

    Parameters
    ----------
    model:
        A deployed :class:`~repro.thermal.model.PackageThermalModel`.
    fractions:
        Sample currents as fractions of ``lambda_m``; defaults to a
        grid that clusters near 1 to expose the divergence.
    max_fraction:
        Safety cap below 1 to keep the solves finite.

    Returns
    -------
    RunawayCurve
    """
    if not model.stamps:
        raise ValueError("model has no TECs; there is no runaway current")
    check_in_range(max_fraction, "max_fraction", 0.0, 1.0, inclusive=(False, False))
    lambda_m = model.runaway_current().value
    if fractions is None:
        fractions = np.concatenate(
            [np.linspace(0.0, 0.9, 10), 1.0 - np.geomspace(0.1, 1.0 - max_fraction, 8)]
        )
    fractions = np.asarray(sorted(set(float(f) for f in fractions)))
    if np.any(fractions < 0.0) or np.any(fractions > max_fraction):
        raise ValueError(
            "fractions must lie in [0, max_fraction={}]".format(max_fraction)
        )

    peak_tile = model.solve(0.0).peak_tile
    peak_node = model.silicon_nodes[peak_tile]
    unit = np.zeros(model.num_nodes)
    unit[peak_node] = 1.0

    currents = [float(fraction * lambda_m) for fraction in fractions]
    peaks = [model.solve(current).peak_silicon_c for current in currents]
    h_values = [
        float(model.solver.solve_rhs(current, unit)[peak_node])
        for current in currents
    ]
    return RunawayCurve(
        lambda_m=lambda_m,
        currents=np.asarray(currents),
        peak_c=np.asarray(peaks),
        h_peak=np.asarray(h_values),
        diverged=peaks[-1] > peaks[0],
    )


def influence_sweep(model, node_pairs, currents):
    """``h_kl(i)`` for explicit node pairs over explicit currents.

    The raw data behind Figure 6: each returned row is one ``(k, l)``
    pair's influence coefficient as a function of current.  Entries are
    non-negative (Lemma 3) and, under Conjecture 1, convex (Theorem 3).

    All pairs at one current are answered by one multi-RHS solve (one
    unit column per distinct ``l``), so a sweep over ``p`` pairs costs
    one factorization and one BLAS-3 backsubstitution per current
    instead of ``p`` single-vector solves.
    """
    node_pairs = [(int(k), int(l)) for k, l in node_pairs]
    currents = np.asarray(currents, dtype=float)
    result = np.zeros((len(node_pairs), currents.shape[0]))
    if not node_pairs or currents.size == 0:
        return result
    column_nodes = sorted({l for _, l in node_pairs})
    column_of = {l: j for j, l in enumerate(column_nodes)}
    num_cols = len(column_nodes)
    rhs = np.zeros((model.num_nodes, num_cols))
    rhs[column_nodes, np.arange(num_cols)] = 1.0
    for j, current in enumerate(currents):
        block = model.solver.solve_rhs(current, rhs)
        for row_index, (k, l) in enumerate(node_pairs):
            result[row_index, j] = block[k, column_of[l]]
    return result
