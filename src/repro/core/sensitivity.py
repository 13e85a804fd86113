"""Robustness of the cooling-system design (beyond the paper).

The paper's configuration is computed for nominal device parameters,
but manufactured thin-film TECs vary.  Two studies quantify how much
that matters:

``parameter_sensitivities``
    Local sensitivities of the achieved peak temperature to each
    device/package parameter — reported per +10% parameter change,
    with the supply current re-optimized after each perturbation (the
    current is a design knob, so the honest sensitivity lets it
    adapt).
``monte_carlo_feasibility``
    Manufacturing-variation yield: sample device parameter sets around
    the nominal (independent truncated-Gaussian multipliers), keep the
    *nominal deployment* (tiles are lithographically fixed), re-run
    only the current optimization per sample, and report how often the
    design still meets its temperature limit.

Both studies warm-start each perturbed model's current search from the
nominal optimum (``warm_start=True``): perturbations are small, so the
optimum moves little, and the iterated parabolic refinement of
:func:`~repro.core.current.polish_current` lands on it in a handful of
solves instead of a cold Problem 2 search per sample.
A local-optimality probe guards the shortcut — whenever the polished
point is not a local minimum (the perturbed optimum escaped the polish
window) or the window hits the runaway limit, the sample silently
falls back to the cold search, so warm-starting never changes which
samples are feasible beyond solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.current import minimize_peak_temperature, polish_current
from repro.thermal.session import SingularSystemError
from repro.utils import check_positive, ensure_rng
from repro.utils.validate import check_in_range

#: Warm-start polish window half-width (A) and refinement budget; each
#: refinement may recenter by up to twice the spacing, so the default
#: reach is ~0.5 A around the nominal optimum — far beyond any
#: perturbation a truncated +-3 sigma multiplier produces.
_WARM_SPACING_A = 0.02
_WARM_MAX_REFINEMENTS = 12

#: Device parameters subject to perturbation/variation.
DEVICE_PARAMETERS = (
    "seebeck",
    "electrical_resistance",
    "thermal_conductance",
    "cold_contact_conductance",
    "hot_contact_conductance",
)


@dataclass(frozen=True)
class ParameterSensitivity:
    """Effect of one parameter's +step perturbation on the design."""

    parameter: str
    relative_step: float
    peak_shift_c: float
    i_opt_shift_a: float


def _warm_optimum(model, seed_current):
    """``(i_opt, peak_c)`` via polish from ``seed_current``, or None.

    Polishes the seed with the iterated parabolic fit, then probes one
    spacing to either side of the result: if either edge is lower the
    polish stalled short of the perturbed optimum (or the objective is
    not locally convex there) and the caller must run the cold search.
    A window or probe at/beyond the runaway limit also disqualifies
    the warm path.
    """
    try:
        polished, _ = polish_current(
            model,
            seed_current,
            spacing=_WARM_SPACING_A,
            max_refinements=_WARM_MAX_REFINEMENTS,
        )
        peak = float(model.solve(polished).peak_silicon_c)
        for probe in (max(polished - _WARM_SPACING_A, 0.0), polished + _WARM_SPACING_A):
            if float(model.solve(probe).peak_silicon_c) < peak - 1.0e-9:
                return None
    except SingularSystemError:
        return None
    return polished, peak


def _reoptimized(model, seed_current, warm_start):
    """``(i_opt, peak_c)`` of a perturbed model.

    Warm-starts from the nominal optimum when allowed, falling back to
    the cold :func:`minimize_peak_temperature` search whenever the warm
    result fails its local-optimality guard.
    """
    if warm_start:
        outcome = _warm_optimum(model, seed_current)
        if outcome is not None:
            return outcome
    optimum = minimize_peak_temperature(model)
    return float(optimum.current), float(optimum.peak_c)


def parameter_sensitivities(
    problem,
    tec_tiles,
    *,
    relative_step=0.10,
    include_convection=True,
    warm_start=True,
):
    """Peak/I_opt sensitivity to each parameter at a fixed deployment.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.CoolingSystemProblem`.
    tec_tiles:
        The deployment to hold fixed (e.g. the greedy solution's).
    relative_step:
        Relative perturbation applied to each parameter in turn.
    include_convection:
        Also perturb the package convection resistance.
    warm_start:
        Seed each perturbed model's current search from the nominal
        optimum (see the module docstring); ``False`` forces the cold
        search per perturbation.

    Returns
    -------
    list of ParameterSensitivity, ordered by |peak_shift| descending.
    """
    check_positive(relative_step, "relative_step")
    base_model = problem.model(tec_tiles)
    base = minimize_peak_temperature(base_model)

    results = []
    for name in DEVICE_PARAMETERS:
        device = problem.device.scaled(
            **{name: getattr(problem.device, name) * (1.0 + relative_step)}
        )
        model = type(base_model)(
            problem.grid,
            problem.power_map,
            stack=problem.stack,
            tec_tiles=tec_tiles,
            device=device,
        )
        current, peak_c = _reoptimized(model, base.current, warm_start)
        results.append(
            ParameterSensitivity(
                parameter=name,
                relative_step=relative_step,
                peak_shift_c=peak_c - base.peak_c,
                i_opt_shift_a=current - base.current,
            )
        )
    if include_convection:
        stack = problem.stack.with_convection_resistance(
            problem.stack.convection_resistance * (1.0 + relative_step)
        )
        model = type(base_model)(
            problem.grid,
            problem.power_map,
            stack=stack,
            tec_tiles=tec_tiles,
            device=problem.device,
        )
        current, peak_c = _reoptimized(model, base.current, warm_start)
        results.append(
            ParameterSensitivity(
                parameter="convection_resistance",
                relative_step=relative_step,
                peak_shift_c=peak_c - base.peak_c,
                i_opt_shift_a=current - base.current,
            )
        )
    results.sort(key=lambda s: abs(s.peak_shift_c), reverse=True)
    return results


@dataclass
class MonteCarloResult:
    """Manufacturing-variation yield study outcome.

    Attributes
    ----------
    samples:
        Number of device-parameter samples drawn.
    yield_fraction:
        Fraction of samples whose re-optimized design met the limit.
    peak_c:
        Re-optimized peak temperature per sample.
    i_opt_a:
        Re-optimized current per sample.
    worst_peak_c / best_peak_c:
        Extremes over the samples.
    nominal_peak_c:
        The unperturbed design's peak.
    """

    samples: int
    yield_fraction: float
    peak_c: np.ndarray
    i_opt_a: np.ndarray
    worst_peak_c: float
    best_peak_c: float
    nominal_peak_c: float
    multipliers: dict = field(default_factory=dict)


def monte_carlo_feasibility(
    problem,
    tec_tiles,
    *,
    samples=50,
    coefficient_of_variation=0.10,
    truncation_sigmas=3.0,
    seed=None,
    warm_start=True,
):
    """Yield of the nominal deployment under device-parameter variation.

    Each sample draws an independent multiplier per device parameter
    from a Gaussian ``N(1, cv)`` truncated to
    ``[1 - t*cv, 1 + t*cv]`` (and floored at 5%), applies it to the
    whole array (wafer-level correlated variation, the dominant mode
    for thin-film processes), re-optimizes the shared current
    (warm-started from the nominal optimum unless ``warm_start`` is
    False — see the module docstring), and tests the limit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cv = check_in_range(
        coefficient_of_variation, "coefficient_of_variation", 0.0, 1.0,
        inclusive=(False, False),
    )
    rng = ensure_rng(seed)

    nominal_model = problem.model(tec_tiles)
    nominal = minimize_peak_temperature(nominal_model)

    lo = max(1.0 - truncation_sigmas * cv, 0.05)
    hi = 1.0 + truncation_sigmas * cv
    peaks = np.empty(samples)
    currents = np.empty(samples)
    multipliers = {name: np.empty(samples) for name in DEVICE_PARAMETERS}
    feasible = 0
    for index in range(samples):
        overrides = {}
        for name in DEVICE_PARAMETERS:
            multiplier = float(np.clip(rng.normal(1.0, cv), lo, hi))
            multipliers[name][index] = multiplier
            overrides[name] = getattr(problem.device, name) * multiplier
        device = problem.device.scaled(**overrides)
        model = type(nominal_model)(
            problem.grid,
            problem.power_map,
            stack=problem.stack,
            tec_tiles=tec_tiles,
            device=device,
        )
        current, peak_c = _reoptimized(model, nominal.current, warm_start)
        peaks[index] = peak_c
        currents[index] = current
        if peak_c <= problem.max_temperature_c:
            feasible += 1
    return MonteCarloResult(
        samples=samples,
        yield_fraction=feasible / samples,
        peak_c=peaks,
        i_opt_a=currents,
        worst_peak_c=float(np.max(peaks)),
        best_peak_c=float(np.min(peaks)),
        nominal_peak_c=nominal.peak_c,
        multipliers=multipliers,
    )
