#!/usr/bin/env python
"""Configure cooling for a custom chip: a GPU-like accelerator die.

Shows the full public API surface for a user-defined design:

* a custom floorplan (shader clusters, memory controllers, a hot
  tensor unit) on a 16x16 grid;
* a custom package stack (aluminum spreader, stronger fan);
* a custom TEC device variant;
* GreedyDeploy + the Theorem 4 convexity certificate for the result.

Run:  python examples/custom_chip.py
"""

from repro import (
    CoolingSystemProblem,
    Layer,
    PackageStack,
    TecDeviceParameters,
    TileGrid,
    certify_convexity,
    greedy_deploy,
)
from repro.power.floorplan import Floorplan, FunctionalUnit
from repro.power.maps import render_ascii_heatmap
from repro.thermal.materials import ALUMINUM


def build_floorplan():
    """A 16x16-tile (8 mm x 8 mm) accelerator die."""
    grid = TileGrid(16, 16)
    units = [
        # four shader clusters across the top half
        FunctionalUnit.from_rect("SM0", grid, 0, 0, 4, 8, 4.2),
        FunctionalUnit.from_rect("SM1", grid, 0, 8, 4, 8, 4.2),
        FunctionalUnit.from_rect("SM2", grid, 4, 0, 4, 8, 4.4),
        FunctionalUnit.from_rect("SM3", grid, 4, 8, 4, 8, 4.4),
        # the hot tensor unit: 8 tiles, very high density
        FunctionalUnit.from_rect("Tensor", grid, 8, 4, 2, 4, 5.6),
        # L2 slices and memory controllers around it
        FunctionalUnit.from_rect("L2W", grid, 8, 0, 2, 4, 0.7),
        FunctionalUnit.from_rect("L2E", grid, 8, 8, 2, 8, 1.3),
        FunctionalUnit.from_rect("MC0", grid, 10, 0, 3, 16, 2.4),
        FunctionalUnit.from_rect("NoC", grid, 13, 0, 3, 16, 2.2),
    ]
    return Floorplan(grid, units)


def main():
    floorplan = build_floorplan()
    stack = PackageStack(
        spreader=Layer("spreader", ALUMINUM, thickness=1.2e-3, side=24e-3),
        convection_resistance=0.9,
    )
    device = TecDeviceParameters(electrical_resistance=2.0e-3)
    problem = CoolingSystemProblem.from_floorplan(
        floorplan,
        max_temperature_c=96.0,
        stack=stack,
        device=device,
        name="gpu-like",
    )

    bare = problem.model(()).solve(0.0)
    print("chip: {:.1f} W over {} tiles; bare peak {:.1f} C (limit {:.0f} C)".format(
        problem.power_map.sum(), problem.grid.num_tiles,
        bare.peak_silicon_c, problem.max_temperature_c,
    ))
    print(render_ascii_heatmap(bare.silicon_grid_c))

    result = greedy_deploy(problem)
    if not result.feasible:
        print("\ninfeasible at {:.0f} C — retrying at a relaxed limit".format(
            problem.max_temperature_c))
        result = greedy_deploy(problem.with_limit(bare.peak_silicon_c - 2.0))

    print("\ndeployment: {} TECs at {:.2f} A, P_TEC {:.2f} W".format(
        result.num_tecs, result.current, result.tec_power_w))
    print("peak {:.1f} -> {:.1f} C".format(result.no_tec_peak_c, result.peak_c))

    # Certify that the current optimization was convex, hence optimal
    # (Theorem 4; assumes Conjecture 1 as the paper does).
    lambda_m = result.model.runaway_current().value
    certificate = certify_convexity(
        result.model, min(2.0 * result.current, 0.5 * lambda_m), subdivisions=6
    )
    print("\nconvexity certificate over [0, {:.1f} A]: {} (margin {:.2e})".format(
        certificate.i_max,
        "CERTIFIED — the searched optimum is global" if certificate.certified
        else "not certified",
        certificate.margin,
    ))
    print("runaway current lambda_m = {:.1f} A (operating at {:.2f} A)".format(
        lambda_m, result.current))


if __name__ == "__main__":
    main()
