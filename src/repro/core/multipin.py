"""Multi-pin supply-current optimization (extension of Section III.B).

The paper restricts the cooling system to **one** extra package pin —
one shared current through every deployed TEC — noting that
"one or multiple pins" are possible but pin budgets are tight.  This
module implements the general case: the deployed devices are
partitioned into ``k`` pin groups, each with its own supply current,
and the group currents are optimized by cyclic coordinate descent
(each 1-D sub-problem is solved by golden section; under the same
convexity structure as Problem 2 each sweep cannot increase the peak).

With ``k = 1`` this reduces exactly to Problem 2; with
``k = num_devices`` it is the idealized fully-independent supply.  The
gap between ``k = 1`` and larger ``k`` quantifies what the paper's
single-pin design decision costs (measured on the benchmarks: well
under a degree — see ``benchmarks/bench_ablation_pins.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.utils import kelvin_to_celsius

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Solved temperature fields kept per MultiPinModel (keyed on the
#: exact bytes of the current vector) — the coordinate-descent loop
#: evaluates each candidate's peak and often re-asks for its power.
_SOLUTION_CACHE_SIZE = 8


class MultiPinModel:
    """Per-device current solves over a deployed package model.

    Generalizes ``(G - i D) theta = p(i)`` to a per-device current
    vector ``i``: the Peltier diagonal becomes ``alpha_j i_j`` on each
    device's node pair and the Joule sources ``r i_j^2 / 2``.

    Solves go through the model's
    :class:`~repro.thermal.session.SolveSession` (the arbitrary-
    diagonal path, ``SessionView.solve_diagonal``) instead of a private
    ``splu`` per probe: factorizations are LRU-cached on the diagonal,
    the reuse backend answers supported diagonals with an ``m x m``
    Cholesky of its Schur complement ``C_S - diag(d_S)`` on the shared
    base factorization, and the work lands in the model's
    ``SolverStats``.
    """

    def __init__(self, model):
        if not model.stamps:
            raise ValueError("multi-pin optimization needs a deployed model")
        self.model = model
        self._system = model.system
        self._view = model.session.base_view()
        self._solutions = OrderedDict()
        self._silicon = np.asarray(model.silicon_nodes)
        self._alpha = model.device.seebeck
        self._half_r = 0.5 * model.device.electrical_resistance

    @property
    def num_devices(self):
        """Deployed device count."""
        return len(self.model.stamps)

    def solve(self, currents):
        """Steady state (Kelvin vector) for a per-device current vector."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.num_devices,):
            raise ValueError(
                "currents must have length {}, got shape {}".format(
                    self.num_devices, currents.shape
                )
            )
        if np.any(currents < 0.0):
            raise ValueError("currents must be non-negative")
        key = currents.tobytes()
        cached = self._solutions.get(key)
        if cached is not None:
            self._solutions.move_to_end(key)
            return cached.copy()
        d_diag = np.zeros(self._system.num_nodes)
        p = self._system.p_base.copy()
        for stamp, current in zip(self.model.stamps, currents):
            d_diag[stamp.hot_node] = self._alpha * current
            d_diag[stamp.cold_node] = -self._alpha * current
            joule = self._half_r * current * current
            p[stamp.hot_node] += joule
            p[stamp.cold_node] += joule
        theta = self._view.solve_diagonal(d_diag, p)
        if len(self._solutions) >= _SOLUTION_CACHE_SIZE:
            self._solutions.popitem(last=False)
        self._solutions[key] = theta.copy()
        return theta

    def peak_silicon_c(self, currents):
        """Hottest silicon tile (Celsius) at a per-device current vector."""
        theta = self.solve(currents)
        return float(kelvin_to_celsius(np.max(theta[self._silicon])))

    def tec_input_power_w(self, currents):
        """Total electrical power (Equation 3 per device, summed)."""
        currents = np.asarray(currents, dtype=float)
        theta = self.solve(currents)
        total = 0.0
        for stamp, current in zip(self.model.stamps, currents):
            delta = theta[stamp.hot_node] - theta[stamp.cold_node]
            total += (
                2.0 * self._half_r * current * current
                + self._alpha * current * delta
            )
        return float(total)


def cluster_devices(model, num_groups, *, iterations=32):
    """Partition deployed devices into spatial pin groups.

    Deterministic k-means on the device tile centres (farthest-point
    initialization from the lowest tile index), so the same deployment
    always produces the same grouping.  Returns a list of device-index
    lists, every device in exactly one group.
    """
    if not model.stamps:
        raise ValueError("model has no deployed devices")
    num_groups = int(num_groups)
    n = len(model.stamps)
    if not 1 <= num_groups <= n:
        raise ValueError(
            "num_groups must be in [1, {}], got {}".format(n, num_groups)
        )
    grid = model.grid
    points = np.array(
        [grid.tile_center(*grid.row_col(stamp.tile)) for stamp in model.stamps]
    )
    # Farthest-point initialization.
    centers = [points[0]]
    while len(centers) < num_groups:
        distances = np.min(
            [np.linalg.norm(points - c, axis=1) for c in centers], axis=0
        )
        centers.append(points[int(np.argmax(distances))])
    centers = np.array(centers)
    assignment = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.stack(
            [np.linalg.norm(points - c, axis=1) for c in centers]
        )
        new_assignment = np.argmin(distances, axis=0)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for g in range(num_groups):
            members = points[assignment == g]
            if members.shape[0]:
                centers[g] = members.mean(axis=0)
    groups = [
        [j for j in range(n) if assignment[j] == g] for g in range(num_groups)
    ]
    return [group for group in groups if group]


def chiplet_groups(model):
    """One pin group per chiplet — the natural 2.5D supply domains.

    A chiplet package routes each chiplet's power through its own
    regulator, so a per-chiplet TEC supply costs no extra pins beyond
    one per chiplet.  Groups the deployed devices of a
    :class:`~repro.thermal.model.CompositeThermalModel` by the chiplet
    their tile belongs to
    (:meth:`~repro.thermal.chiplet.ChipletLayout.tiles_by_chiplet`) and
    returns device-index lists ordered like the layout's chiplets
    (chiplets without devices are skipped), ready for
    :func:`optimize_pin_groups`.
    """
    layout = getattr(model, "layout", None)
    if layout is None:
        raise ValueError(
            "chiplet_groups needs a composite chiplet model; use "
            "cluster_devices or explicit groups for single-die models"
        )
    if not model.stamps:
        raise ValueError("model has no deployed devices")
    device_of = {int(stamp.tile): j for j, stamp in enumerate(model.stamps)}
    grouped = layout.tiles_by_chiplet(device_of)
    return [
        [device_of[tile] for tile in tiles]
        for tiles in grouped.values() if tiles
    ]


@dataclass
class MultiPinResult:
    """Outcome of a multi-pin optimization.

    Attributes
    ----------
    groups:
        Device-index groups (one pin each).
    group_currents:
        Optimized current per group (A).
    device_currents:
        Per-device expansion of ``group_currents``.
    peak_c:
        Peak silicon temperature at the optimum.
    shared_peak_c:
        Peak at the best *shared* current (the paper's k=1 case) —
        the comparison baseline.
    improvement_c:
        ``shared_peak_c - peak_c`` (>= 0 up to solver tolerance).
    sweeps:
        Coordinate-descent sweeps performed.
    evaluations:
        Steady-state solves spent.
    """

    groups: list
    group_currents: np.ndarray
    device_currents: np.ndarray
    peak_c: float
    shared_peak_c: float
    improvement_c: float
    sweeps: int
    evaluations: int = 0


def optimize_pin_groups(
    model,
    groups=None,
    *,
    num_groups=None,
    shared_start=None,
    max_sweeps=8,
    tolerance_c=1.0e-3,
    current_tolerance=0.02,
    upper_factor=4.0,
):
    """Optimize per-group supply currents by cyclic coordinate descent.

    Parameters
    ----------
    model:
        A deployed :class:`~repro.thermal.model.PackageThermalModel`.
    groups:
        Explicit device-index groups; mutually exclusive with
        ``num_groups``.
    num_groups:
        Build groups with :func:`cluster_devices`; defaults to one
        group per device when neither argument is given.
    shared_start:
        Starting shared current; defaults to the Problem 2 optimum.
    max_sweeps / tolerance_c / current_tolerance:
        Convergence controls: stop when a full sweep improves the peak
        by less than ``tolerance_c``.
    upper_factor:
        Per-group search ceiling as a multiple of the starting shared
        current (clamped inside the shared runaway limit).

    Returns
    -------
    MultiPinResult
    """
    from repro.core.current import minimize_peak_temperature

    pin_model = MultiPinModel(model)
    n = pin_model.num_devices
    if groups is not None and num_groups is not None:
        raise ValueError("pass either groups or num_groups, not both")
    if groups is None:
        groups = cluster_devices(model, num_groups if num_groups else n)
    else:
        groups = [list(group) for group in groups]
        seen = set()
        for group in groups:
            for device in group:
                if not 0 <= device < n or device in seen:
                    raise ValueError("groups must partition the device set")
                seen.add(device)
        if len(seen) != n:
            raise ValueError("groups must cover every deployed device")

    if shared_start is None:
        shared = minimize_peak_temperature(model)
        shared_start = shared.current
        shared_peak = shared.peak_c
    else:
        shared_start = float(shared_start)
        shared_peak = pin_model.peak_silicon_c(np.full(n, shared_start))

    lambda_m = model.runaway_current().value
    upper = min(upper_factor * max(shared_start, 1.0), 0.9 * lambda_m)

    evaluations = 0

    def peak_with(group_currents):
        nonlocal evaluations
        device_currents = np.empty(n)
        for group, current in zip(groups, group_currents):
            device_currents[group] = current
        evaluations += 1
        return pin_model.peak_silicon_c(device_currents)

    group_currents = np.full(len(groups), shared_start)
    best_peak = peak_with(group_currents)

    sweeps = 0
    for sweep in range(max_sweeps):
        sweep_start_peak = best_peak
        for g in range(len(groups)):
            lo, hi = 0.0, upper

            def objective(value):
                trial = group_currents.copy()
                trial[g] = value
                return peak_with(trial)

            x1 = hi - _INV_PHI * (hi - lo)
            x2 = lo + _INV_PHI * (hi - lo)
            f1, f2 = objective(x1), objective(x2)
            while hi - lo > current_tolerance:
                if f1 <= f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _INV_PHI * (hi - lo)
                    f1 = objective(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _INV_PHI * (hi - lo)
                    f2 = objective(x2)
            candidate = x1 if f1 <= f2 else x2
            candidate_peak = min(f1, f2)
            if candidate_peak < best_peak:
                group_currents[g] = candidate
                best_peak = candidate_peak
        sweeps = sweep + 1
        if sweep_start_peak - best_peak < tolerance_c:
            break

    device_currents = np.empty(n)
    for group, current in zip(groups, group_currents):
        device_currents[group] = current
    return MultiPinResult(
        groups=groups,
        group_currents=group_currents,
        device_currents=device_currents,
        peak_c=best_peak,
        shared_peak_c=shared_peak,
        improvement_c=shared_peak - best_peak,
        sweeps=sweeps,
        evaluations=evaluations,
    )
