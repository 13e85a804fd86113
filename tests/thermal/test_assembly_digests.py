"""Bit-identity oracle for network assembly.

Every case below builds a package model and hashes the arrays the
solve engine consumes: ``G``'s CSC ``indptr``/``indices``/``data``,
``d_diagonal``, ``p_base``, ``joule``, the multigrid lattice's
``layer``/``tile`` placement and each TEC stamp's
``(tile, hot_node, cold_node)``.  The SHA-256 digests were recorded
from the per-edge builder the array-stamped one replaced, so any
change to a matrix entry, the node order or the edge order fails here
even when replayed and fresh builds still agree with each other.

Each case is checked twice: a direct build, and a replay of the bare
model's blueprint (or, for the scaled cases, a
``with_die_conductivity_scale`` replay).  Both must hit the same
digest.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.experiments.benchmarks import BENCHMARKS
from repro.power.hypothetical import HypotheticalChipConfig, hypothetical_chip
from repro.thermal.chiplet import (
    InterposerSpec,
    demo_two_chiplet_layout,
    grown_default_stack,
)
from repro.thermal.geometry import TileGrid
from repro.thermal.model import CompositeThermalModel, PackageThermalModel
from repro.thermal.stack import PackageStack

#: The greedy deployment of the 64x64 die below (82 tiles).
DIE64_TILES = (
    2007, 2069, 2070, 2071, 2072, 2132, 2133, 2134, 2135, 2136, 2137,
    2196, 2197, 2198, 2199, 2200, 2201, 2202, 2260, 2261, 2262, 2263,
    2264, 2265, 2325, 2326, 2327, 2328, 3179, 3180, 3181, 3182, 3183,
    3242, 3243, 3244, 3245, 3246, 3247, 3248, 3304, 3305, 3306, 3307,
    3308, 3309, 3310, 3311, 3312, 3367, 3368, 3369, 3370, 3371, 3372,
    3373, 3374, 3375, 3376, 3431, 3432, 3433, 3434, 3435, 3436, 3437,
    3438, 3439, 3440, 3496, 3497, 3498, 3499, 3500, 3501, 3502, 3503,
    3562, 3563, 3564, 3565, 3566,
)


def digest(model):
    """SHA-256 over every assembled array of ``model`` (dtype and
    shape included, so a widened index type also fails)."""
    system = model.system
    g = system.g_matrix
    stamps = np.array(
        [(s.tile, s.hot_node, s.cold_node) for s in model.stamps],
        dtype=np.int64,
    ).reshape(-1, 3)
    h = hashlib.sha256()
    for array in (
        g.indptr, g.indices, g.data,
        system.d_diagonal, system.p_base, system.joule,
        system.lattice.layer, system.lattice.tile, stamps,
    ):
        array = np.ascontiguousarray(array)
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _table1_inputs(name):
    problem = BENCHMARKS[name].problem()
    return problem.grid, problem.power_map, problem.stack


@functools.lru_cache(maxsize=None)
def _die64_inputs():
    """The 64x64 die of the repository benchmark's die-deploy workload."""
    side = 64
    scale = side * side / 144.0
    config = HypotheticalChipConfig(
        rows=side, cols=side,
        min_unit_tiles=round(5 * scale), max_unit_tiles=round(15 * scale),
    )
    power = hypothetical_chip(config, seed=1).power_map()
    grid = TileGrid(side, side)
    return grid, power, grown_default_stack(grid.width, grid.height)


def _small_inputs(rows, cols, stack=None):
    grid = TileGrid(rows, cols)
    power = np.linspace(0.05, 1.2, grid.num_tiles)
    return grid, power, stack if stack is not None else PackageStack()


def _degenerate_stack(side, sink_too):
    """Spreader as large as the die (and the sink too, if asked):
    no spreader periphery ring (and no sink ring either)."""
    stack = PackageStack()
    spreader = dataclasses.replace(stack.spreader, side=side)
    sink = dataclasses.replace(stack.sink, side=side) if sink_too else stack.sink
    return dataclasses.replace(stack, spreader=spreader, sink=sink)


def _deployment(kind, num_tiles):
    if kind == "bare":
        return ()
    if kind == "full":
        return tuple(range(num_tiles))
    return tuple(range(0, num_tiles, 3))


def _scale(num_tiles, seed):
    return np.random.default_rng(seed).uniform(0.5, 1.5, num_tiles)


def _package_case(inputs, kind):
    def build():
        grid, power, stack = inputs()
        tiles = (
            DIE64_TILES if kind == "die64" else _deployment(kind, grid.num_tiles)
        )
        direct = PackageThermalModel(grid, power, stack=stack, tec_tiles=tiles)
        bare = PackageThermalModel(grid, power, stack=stack)
        replayed = PackageThermalModel(
            grid, power, stack=stack, tec_tiles=tiles,
            blueprint=bare.network_blueprint(),
        )
        return direct, replayed
    return build


def _scaled_case(inputs, kind, seed):
    def build():
        grid, power, stack = inputs()
        tiles = (
            DIE64_TILES if kind == "die64" else _deployment(kind, grid.num_tiles)
        )
        scale = _scale(grid.num_tiles, seed)
        direct = PackageThermalModel(
            grid, power, stack=stack, tec_tiles=tiles,
            die_conductivity_scale=scale,
        )
        unscaled = PackageThermalModel(grid, power, stack=stack, tec_tiles=tiles)
        return direct, unscaled.with_die_conductivity_scale(scale)
    return build


def _composite_case(make_layout, kind):
    def build():
        layout = make_layout()
        tiles = _deployment(kind, layout.composite_grid().num_tiles)
        direct = CompositeThermalModel(layout, tec_tiles=tiles)
        replayed = CompositeThermalModel(
            layout, tec_tiles=tiles,
            blueprint=CompositeThermalModel(layout).network_blueprint(),
        )
        return direct, replayed
    return build


def _two_chiplet(interposer):
    layout = demo_two_chiplet_layout(rows=4, cols=5, gap=2, power_w=6.0)
    return dataclasses.replace(layout, interposer=interposer)


KINDS = ("bare", "full", "third")

CASES = {}
for _name in BENCHMARKS:
    for _kind in KINDS:
        CASES["{}-{}".format(_name, _kind)] = _package_case(
            functools.partial(_table1_inputs, _name), _kind
        )
CASES["die64-bare"] = _package_case(_die64_inputs, "bare")
CASES["die64-deployed"] = _package_case(_die64_inputs, "die64")
CASES["die64-deployed-scaled"] = _scaled_case(_die64_inputs, "die64", 7)
CASES["alpha-third-scaled"] = _scaled_case(
    functools.partial(_table1_inputs, "alpha"), "third", 11
)
for _label, _shape in (("1x1", (1, 1)), ("1x7", (1, 7)), ("7x1", (7, 1))):
    for _kind in KINDS:
        CASES["{}-{}".format(_label, _kind)] = _package_case(
            functools.partial(_small_inputs, *_shape), _kind
        )
CASES["5x4-third-scaled"] = _scaled_case(
    functools.partial(_small_inputs, 5, 4), "third", 3
)
for _label, _sink_too in (("spreader-is-die", False), ("sink-is-die", True)):
    for _kind in KINDS:
        CASES["{}-{}".format(_label, _kind)] = _package_case(
            functools.partial(
                _small_inputs, 4, 4, _degenerate_stack(2.0e-3, _sink_too)
            ),
            _kind,
        )
for _label, _interposer in (
    ("chiplets-interposer", InterposerSpec()),
    ("chiplets-bare", None),
    ("chiplets-board", InterposerSpec(board_resistance=2.0)),
):
    for _kind in KINDS:
        CASES["{}-{}".format(_label, _kind)] = _composite_case(
            functools.partial(_two_chiplet, _interposer), _kind
        )


DIGESTS = {
    "1x1-bare":
        "6c5c2dd3d535e82a88450dda0eb76e0e9ec5dce597f2ef3f0b6d569cf55c092b",
    "1x1-full":
        "1cdaabfa76ea2a056e454524ef5d8316aa076101746a3554a1c7f67377edb2a9",
    "1x1-third":
        "1cdaabfa76ea2a056e454524ef5d8316aa076101746a3554a1c7f67377edb2a9",
    "1x7-bare":
        "fb90e6f51705f3e4188a9c1ccc8a146296622cd0c0f24339d52a71873fa95cbd",
    "1x7-full":
        "8d9ba293573871a66d04aeed2f62b6022dab5d64da20a4d03f055d9f4a156747",
    "1x7-third":
        "31930d7ed1c47982fecbd888653e97ebe6d99a3875203bac4ac5e3448f26232f",
    "5x4-third-scaled":
        "1ef37ab2fdc61704556bdbfe8641c2ffdbbbbfb27f6eee149548e417b192197e",
    "7x1-bare":
        "3e9aa5b773e2c2a2c9da3fd1e9cb6e1a204d6925c3c659696b2122ffca2945c5",
    "7x1-full":
        "3ab627dc5af97b79d63406c83f189381b16adc22660f2b5e8e4a259429bae36a",
    "7x1-third":
        "243b721c82a64fd7923bf2f4b281c6154ebb1e3d95f005d05bb15ea74f99546f",
    "alpha-bare":
        "a9d094ce6ec117d9989be7b82d8ef98ac0203248b3ad4a0fb217a63ca84b31a9",
    "alpha-full":
        "3f191773876c653a207fb2d48aecb36f146bcc7e57788732ffbbc8aada3ebb9c",
    "alpha-third":
        "c50558b5f6a02f94338cc16f925d3cfc2a9aab0f47f0e72bc24b558153ff97fd",
    "alpha-third-scaled":
        "679d5ca4cfec194c8d35f7a6db4afbd7aea6ec731b8ba111de8549cf8d67f538",
    "chiplets-bare-bare":
        "a7cde2b3139db1a84203b87d384d5a72d15f6af7aa0cd95d32c6914bc3961827",
    "chiplets-bare-full":
        "ed9ca5d694a04e0efd88e538529a364b14410d3a4095e7ad621fff87c231a5f6",
    "chiplets-bare-third":
        "4206fac761eb3933e0180f3253de77aaf3e853a1ecf884bf49802914fbd5d10d",
    "chiplets-board-bare":
        "5c1e211fa242ad2e4624574da5277207c74a948a3118a38a546a365cec78805c",
    "chiplets-board-full":
        "8086293b040fe8aa1c6e5108240c36212c3d5f1f6616cd8fd5beab92733d7938",
    "chiplets-board-third":
        "9439364618d6f7e2ce0b7850fa938e848f89bc8f7e7c7a170f4e32b88a269ce6",
    "chiplets-interposer-bare":
        "3e343ea901793fba8b9c47dd6fc1c32a91665fd296e54258cd567bc81bf783ad",
    "chiplets-interposer-full":
        "14e32db5e900374f7ec25d2f60700687f4d1e07c16b97114dbab0c108d9ddec5",
    "chiplets-interposer-third":
        "53a751e2413af31400ca2dfa0ebcd36bdf1be6c691db0ce89a3e1ddfda45150f",
    "die64-bare":
        "13098b4cb4c39d2b2ffc78eb0f05a1e02f1c99c2b479c718e2b44b79e6a51c0d",
    "die64-deployed":
        "eb90224d558d93c38accfb43e8996105f4bbb8bb4780bedec70d836a015aba15",
    "die64-deployed-scaled":
        "9ad2adbcb2d039f86e74b83ea08b52829da00f8421b16ac3869f943f7037029b",
    "hc01-bare":
        "577c5d7c67f789182e66551f3f826caa844f3dc2c3ce82d3c4921c684c85050f",
    "hc01-full":
        "b9ea86ba62c11e276c5b3514e82644a740092433ac95ffd78ff642c2ca6e49c7",
    "hc01-third":
        "166b34017dd37083944bf3a1fce2a9aa4df8d1c3614caf296014fee328fb52a3",
    "hc02-bare":
        "8a2d8b3c6f053bc0b516a6f0b2b6f416eeb00616a5d8aa217c61e2fa8b9e6634",
    "hc02-full":
        "0a6835b65d7b12aed8de105c27f504910e0ba21c60b9efaa2ec3638be24abedd",
    "hc02-third":
        "bb31125ef175a95af45f0be7c3518d7974f8ec34bcd8e1f140eb8e93babc5c91",
    "hc03-bare":
        "1e606bcd63b20bb9a3d2148f16a0c2f81bbffcf9cdf2c4bc5efad0ee6b1870c9",
    "hc03-full":
        "846beb398fa1b57a63eb5632faede16461addc2f97467de2327d5fb4f28595c9",
    "hc03-third":
        "fbb28a53d1800f18572e00f236916c6f36500816505e37d86e4d1d91d216b7c9",
    "hc04-bare":
        "ac1a4124f70dcc4981d4f3d4516aba84152771999dded87c5ca07de221c2aa85",
    "hc04-full":
        "ceb561182dd3312ba5a490d8da8741a5d5e611d660ab859e895a089dd53491ae",
    "hc04-third":
        "fc450f4a5b49ef0eb8f1d6588cdd7a59df6dfc9142d799b8b9a138b76b6aa8e1",
    "hc05-bare":
        "d0b4d758261dc620d2055fc5f62bf5e0d2fda3d1a0e549d92830332bf007ac26",
    "hc05-full":
        "8a824ae6c25dd3718cb83244da842cdebd2c23a7f8661e401cc46723fbf2dd51",
    "hc05-third":
        "890bb228f38aac9f82eaa9ac4557b218d6903fdcbe4826480e79c1602c284ae0",
    "hc06-bare":
        "5665d43a4c4f7604722ff451e9ba85128d339e3afa3efe77febdf7dbd3187075",
    "hc06-full":
        "0dc49c96dacfa3ad027a892dfa2ac6a8e10f6d018a7b1b328faa19a6223cbf4f",
    "hc06-third":
        "3669b97440a039e98319cd4b73414c48703d6ce4790dda21ca5cff40a7d92a5b",
    "hc07-bare":
        "470c10ce073b27f1d03d250f1ed7c42a93b9b850976b91d975118ac570e5ea4c",
    "hc07-full":
        "27441cfbacaeec2399d3cd1c3d715a9da88a68f888d54688fcc50796e656cbd4",
    "hc07-third":
        "b35ff1e4c45506942053e7ffd87655d96c91f219d7600342740f3948175fab0f",
    "hc08-bare":
        "c04692970bc978db10803770f54db2312599663cf33829998e716b97ec717969",
    "hc08-full":
        "b4c1539cb9cadfaab291123b2caf3a5f29b6057eb584738d72af7eec83b93939",
    "hc08-third":
        "1d2f9b56a0bf33a0d1d1f0e3119750386a1c4562ee88029f5e5d87f73d00b040",
    "hc09-bare":
        "c2457c442937a3c6328d31ce208314585ceba628ad48a407ad98282aa40e1412",
    "hc09-full":
        "1c84d5b023af85730117f230597b47c7e7e7909f923952600854896a8f58c4f4",
    "hc09-third":
        "d6d8e2f3e1e6638fb560f5c59cc13b72834e7d393039d6478c0d2c5df89d949d",
    "hc10-bare":
        "f8717ae59ce1a4b9b105d38e185f0fc3e4ecb22be5211e48f474ec2be57243b1",
    "hc10-full":
        "b1a39dfbf2fa1619df84a00be850641ca5d4fdcfb33613357352b7152eb7b7b5",
    "hc10-third":
        "dc717db5271ee659382bbc97f0e0d1e7729d362deed97fa29cbca0a73e2c876e",
    "sink-is-die-bare":
        "7c6481fab8ea3a9efec1e5160bba0960c464f6a1e858f7da4c7d19c868a635d3",
    "sink-is-die-full":
        "c4c23a3cf4e5ddb5ec7ed57998ab6976dcfd71496e6b41c5cfc6e7b12815be0c",
    "sink-is-die-third":
        "798f28bbdf9e84414164d529f47d889ad700ef3cf4c8c5382701fbcca8398b53",
    "spreader-is-die-bare":
        "af1ee92f9e5c9a51f6eb044529b6da35949c924fbb4c84b214389541f824dc57",
    "spreader-is-die-full":
        "e8f2d61cd9986996c2603d5564b9f38e21e4c4d2f57b8773dead27c9add0ffe2",
    "spreader-is-die-third":
        "e210475eba6ffe4c6aec996e644b4c86ea36f607ac164463e3451a1359f34fa0",
}


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_assembled_arrays_match_recorded_digest(case):
    direct, replayed = CASES[case]()
    assert digest(direct) == DIGESTS[case]
    assert digest(replayed) == DIGESTS[case]
