"""The paper's contribution: active cooling system configuration.

Problem 1 (Section V.A): given the tile grid and the worst-case power
of each tile, choose (1) the minimal set of tiles to cover with TEC
devices and (2) the shared supply current, such that the peak
steady-state silicon temperature stays below the limit.

The solution pipeline mirrors the paper:

``deploy``
    The GreedyDeploy algorithm (Figure 5): cover every tile above the
    limit, re-optimize the current, repeat until either no tile
    exceeds the limit (success) or every offending tile is already
    covered (failure).
``current``
    Problem 2 (Section V.C): the convex current-setting subroutine —
    runaway limit ``lambda_m`` (Theorem 1), then 1-D minimization of
    the peak tile temperature over ``[0, lambda_m)`` by one search
    that cuts a certified bracket with every tile's exact tangent
    line and probes at the minimizer of the tiles' quadratic models.
``convexity``
    The optimality certificate: the eta/zeta decomposition of
    Equation (10), ``eta'`` via ``H' = H D H`` (Equation 13), the
    Lemma 4 interval check and the Theorem 4 subdivision certificate.
``baselines``
    The paper's comparison points: no-TEC and Full-Cover (every tile
    covered, current still optimized) — the source of the SwingLoss
    column of Table I.
``runaway``
    System-level thermal-runaway analysis: blow-up curves of the peak
    temperature as ``i -> lambda_m``.
``report``
    Table-I-style result records and formatting.
"""

from repro.core.baselines import full_cover, no_tec_peak_c, swing_loss_c
from repro.core.convexity import (
    ConvexityCertificate,
    certify_convexity,
    eta_derivative,
    eta_zeta,
    numerical_convexity_check,
)
from repro.core.current import CurrentOptimizationResult, minimize_peak_temperature
from repro.core.deploy import DeploymentResult, GreedyIteration, greedy_deploy
from repro.core.multipin import (
    MultiPinModel,
    MultiPinResult,
    cluster_devices,
    optimize_pin_groups,
)
from repro.core.pareto import ParetoFront, ParetoPoint, pareto_front
from repro.core.problem import CoolingSystemProblem
from repro.core.report import BenchmarkRow, format_table1
from repro.core.runaway import RunawayCurve, runaway_curve
from repro.core.sensitivity import (
    MonteCarloResult,
    ParameterSensitivity,
    monte_carlo_feasibility,
    parameter_sensitivities,
)
from repro.core.strategies import (
    StrategyOutcome,
    compare_strategies,
    density_threshold_deploy,
    incremental_deploy,
)

__all__ = [
    "BenchmarkRow",
    "ConvexityCertificate",
    "CoolingSystemProblem",
    "CurrentOptimizationResult",
    "DeploymentResult",
    "GreedyIteration",
    "MonteCarloResult",
    "MultiPinModel",
    "MultiPinResult",
    "ParameterSensitivity",
    "ParetoFront",
    "ParetoPoint",
    "RunawayCurve",
    "StrategyOutcome",
    "certify_convexity",
    "cluster_devices",
    "compare_strategies",
    "density_threshold_deploy",
    "eta_derivative",
    "eta_zeta",
    "format_table1",
    "full_cover",
    "greedy_deploy",
    "incremental_deploy",
    "minimize_peak_temperature",
    "monte_carlo_feasibility",
    "no_tec_peak_c",
    "numerical_convexity_check",
    "optimize_pin_groups",
    "parameter_sensitivities",
    "pareto_front",
    "runaway_curve",
    "swing_loss_c",
]
