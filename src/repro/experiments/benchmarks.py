"""The Section VI benchmark registry.

Eleven benchmarks reproduce Table I:

* ``alpha`` — the Alpha-21364-like chip (Section VI.A), worst-case
  power map defined in :mod:`repro.power.alpha`;
* ``hc01`` .. ``hc10`` — the hypothetical chips (Section VI.B),
  generated by :mod:`repro.power.hypothetical` from **pinned** seeds
  and total powers.

The seeds/powers were fitted once (scripts recorded in DESIGN.md) so
that each chip's no-TEC peak temperature matches the paper's
``theta_peak`` column to within 0.05 C and the feasibility pattern
matches: HC06 and HC09 are infeasible at 85 C but feasible at the
paper's relaxed limits (89 C and 88 C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import CoolingSystemProblem
from repro.power.alpha import alpha_floorplan
from repro.power.hypothetical import HypotheticalChipConfig, hypothetical_chip


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table I benchmark definition.

    Attributes
    ----------
    name:
        Registry key (``alpha``, ``hc01``..``hc10``).
    kind:
        ``"alpha"`` or ``"hypothetical"``.
    seed:
        Generator seed for hypothetical chips (ignored for alpha).
    total_power_w:
        Chip worst-case power (ignored for alpha, which is fixed at
        20.6 W).
    limit_c:
        The ``theta_limit`` column: 85 C except HC06 (89) and HC09 (88).
    paper_theta_peak_c:
        The paper's published no-TEC peak, for EXPERIMENTS.md deltas.
    paper_num_tecs / paper_i_opt_a / paper_p_tec_w /
    paper_min_peak_c / paper_swing_loss_c:
        The remaining published Table I columns.
    """

    name: str
    kind: str
    seed: int
    total_power_w: float
    limit_c: float
    paper_theta_peak_c: float
    paper_num_tecs: int
    paper_i_opt_a: float
    paper_p_tec_w: float
    paper_min_peak_c: float
    paper_swing_loss_c: float

    def floorplan(self):
        """Materialize the benchmark's floorplan."""
        if self.kind == "alpha":
            return alpha_floorplan()
        config = HypotheticalChipConfig(total_power_w=self.total_power_w)
        return hypothetical_chip(config, seed=self.seed)

    def problem(self, *, stack=None, device=None):
        """Materialize the :class:`CoolingSystemProblem` for this row."""
        return CoolingSystemProblem.from_floorplan(
            self.floorplan(),
            max_temperature_c=self.limit_c,
            stack=stack,
            device=device,
            name=self.name,
        )


BENCHMARKS = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("alpha", "alpha", 0, 20.6, 85.0, 91.8, 16, 6.10, 1.31, 90.2, 5.2),
        BenchmarkSpec("hc01", "hypothetical", 0, 22.361, 85.0, 90.1, 12, 6.82, 1.26, 88.5, 3.5),
        BenchmarkSpec("hc02", "hypothetical", 1, 21.736, 85.0, 92.5, 15, 6.90, 1.63, 90.9, 5.9),
        BenchmarkSpec("hc03", "hypothetical", 2, 21.424, 85.0, 89.8, 16, 7.24, 1.93, 88.3, 3.3),
        BenchmarkSpec("hc04", "hypothetical", 3, 20.474, 85.0, 90.5, 16, 6.57, 1.57, 88.9, 3.9),
        BenchmarkSpec("hc05", "hypothetical", 4, 21.244, 85.0, 89.9, 18, 7.10, 2.09, 88.4, 3.4),
        BenchmarkSpec("hc06", "hypothetical", 7, 24.610, 89.0, 94.2, 17, 5.27, 1.03, 92.6, 3.6),
        BenchmarkSpec("hc07", "hypothetical", 5, 20.268, 85.0, 91.2, 14, 8.26, 2.24, 89.6, 4.6),
        BenchmarkSpec("hc08", "hypothetical", 6, 20.312, 85.0, 89.4, 11, 5.05, 0.60, 87.9, 2.9),
        BenchmarkSpec("hc09", "hypothetical", 9, 23.729, 88.0, 95.3, 12, 10.42, 3.02, 93.8, 5.8),
        BenchmarkSpec("hc10", "hypothetical", 8, 20.078, 85.0, 90.6, 14, 7.82, 1.97, 89.1, 4.1),
    )
}

#: Published Table I averages (P_TEC and SwingLoss columns).
PAPER_AVG_P_TEC_W = 1.70
PAPER_AVG_SWING_LOSS_C = 4.2


def benchmark_names():
    """Registry keys in Table I order."""
    return list(BENCHMARKS)


def check_benchmark_name(name):
    """``name`` if it is a registered benchmark, else ValueError.

    The one rule for benchmark names: the CLI's ``--benchmark`` flags,
    :class:`~repro.sweep.spec.Scenario` and therefore every HTTP body
    refuse an unknown name with this message.
    """
    if name not in BENCHMARKS:
        raise ValueError(
            "unknown benchmark {!r} (choose from {})".format(
                name, ", ".join(sorted(BENCHMARKS))
            )
        )
    return name


def load_benchmark(name, *, stack=None, device=None):
    """Materialize a registered benchmark's problem by name."""
    try:
        spec = BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            "unknown benchmark {!r}; known: {}".format(name, benchmark_names())
        ) from None
    return spec.problem(stack=stack, device=device)
