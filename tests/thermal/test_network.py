"""Thermal network builder semantics."""

import math

import numpy as np
import pytest

from repro.thermal.network import NodeLabels, NodeRole, ThermalNetwork


@pytest.fixture()
def net():
    network = ThermalNetwork()
    network.add_node("a", NodeRole.SILICON, tile=0)
    network.add_node("b", NodeRole.TIM)
    network.add_node("c", NodeRole.TEC_HOT)
    return network


class TestNodes:
    def test_indices_sequential(self, net):
        assert net.num_nodes == 3
        assert net.add_node("d") == 3

    def test_role_required_type(self):
        network = ThermalNetwork()
        with pytest.raises(TypeError):
            network.add_node("x", role="silicon")

    def test_meta_stored(self, net):
        assert net.nodes[0].meta["tile"] == 0

    def test_indices_with_role(self, net):
        assert net.indices_with_role(NodeRole.SILICON) == [0]
        assert net.indices_with_role(NodeRole.TEC_COLD) == []

    def test_node_name(self, net):
        assert net.node_name(1) == "b"


class TestConductances:
    def test_parallel_accumulation(self, net):
        net.add_conductance(0, 1, 1.0)
        net.add_conductance(1, 0, 2.0)  # same pair, opposite order
        assert dict(net.conductance_items()) == {(0, 1): 3.0}

    def test_self_loop_rejected(self, net):
        with pytest.raises(ValueError, match="differ"):
            net.add_conductance(1, 1, 1.0)

    def test_nonpositive_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_conductance(0, 1, 0.0)

    def test_unknown_node_rejected(self, net):
        with pytest.raises(IndexError):
            net.add_conductance(0, 99, 1.0)


class TestGroundSourcesJoule:
    def test_ground_accumulates(self, net):
        net.add_ground_conductance(2, 0.5)
        net.add_ground_conductance(2, 0.25)
        assert net.total_ground_conductance() == pytest.approx(0.75)

    def test_sources_accumulate_and_skip_zero(self, net):
        net.add_source(0, 1.0)
        net.add_source(0, 0.5)
        net.add_source(1, 0.0)
        assert dict(net.source_items()) == {0: 1.5}
        assert net.total_source_power() == pytest.approx(1.5)

    def test_negative_source_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_source(0, -1.0)

    def test_joule_accumulates(self, net):
        net.add_joule(2, 0.001)
        net.add_joule(2, 0.001)
        assert dict(net.joule_items()) == {2: 0.002}


class TestPeltier:
    def test_set_once(self, net):
        net.set_peltier(2, +2e-4)
        assert dict(net.peltier_items()) == {2: 2e-4}

    def test_double_assignment_rejected(self, net):
        net.set_peltier(2, +2e-4)
        with pytest.raises(ValueError, match="already"):
            net.set_peltier(2, -2e-4)

    def test_zero_rejected(self, net):
        with pytest.raises(ValueError, match="non-zero"):
            net.set_peltier(2, 0.0)

    def test_negative_allowed_for_cold(self, net):
        net.set_peltier(1, -2e-4)
        assert dict(net.peltier_items()) == {1: -2e-4}

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, net, alpha):
        # A NaN entry once slipped through (NaN == 0.0 is False) and
        # turned every solved temperature into NaN.
        with pytest.raises(ValueError, match="finite"):
            net.set_peltier(2, alpha)
        assert dict(net.peltier_items()) == {}


class TestBlocks:
    def test_add_nodes_returns_indices_and_views(self, net):
        tiles = np.array([4, 5])
        nodes = net.add_nodes(
            NodeRole.SPREADER, NodeLabels("spr[{}]", tiles), tile=tiles
        )
        assert nodes.tolist() == [3, 4]
        assert net.node_name(4) == "spr[5]"
        assert net.nodes[3].meta == {"tile": 4}
        assert net.node_tiles().tolist() == [0, -1, -1, 4, 5]

    def test_role_cycle(self, net):
        net.add_nodes((NodeRole.TEC_COLD, NodeRole.TEC_HOT), ["c0", "h0", "c1", "h1"])
        assert net.indices_with_role(NodeRole.TEC_COLD) == [3, 5]
        assert net.indices_with_role(NodeRole.TEC_HOT) == [2, 4, 6]

    def test_block_elements_keep_insertion_order(self, net):
        net.add_conductances([0, 1], [1, 2], [1.0, 2.0])
        net.add_conductance(2, 0, 3.0)
        a, b, g = net.arrays("conductance")
        assert (a.tolist(), b.tolist(), g.tolist()) == (
            [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0]
        )

    def test_scalar_value_broadcasts(self, net):
        net.add_ground_conductances([0, 2], 0.5)
        assert dict(net.ground_items()) == {0: 0.5, 2: 0.5}

    def test_zero_sources_and_joules_skipped(self, net):
        net.add_sources([0, 1], [0.0, 2.0])
        net.add_joules([1, 2], [1e-3, 0.0])
        assert dict(net.source_items()) == {1: 2.0}
        assert dict(net.joule_items()) == {1: 1e-3}

    def test_rejected_block_adds_nothing(self, net):
        with pytest.raises(ValueError):
            net.add_conductances([0, 1], [1, 2], [1.0, -1.0])
        assert net.arrays("conductance")[0].size == 0


def _scalar_calls(net):
    """Every element kind through the one-element scalar calls."""
    return {
        "conductance": lambda a, b, g: [
            net.add_conductance(*entry) for entry in zip(a, b, g)
        ],
        "ground": lambda n, g: [
            net.add_ground_conductance(*entry) for entry in zip(n, g)
        ],
        "source": lambda n, p: [net.add_source(*entry) for entry in zip(n, p)],
        "joule": lambda n, c: [net.add_joule(*entry) for entry in zip(n, c)],
        "peltier": lambda n, a: [net.set_peltier(*entry) for entry in zip(n, a)],
    }


def _block_calls(net):
    """Every element kind as one block call."""
    return {
        "conductance": net.add_conductances,
        "ground": net.add_ground_conductances,
        "source": net.add_sources,
        "joule": net.add_joules,
        "peltier": net.set_peltiers,
    }


@pytest.fixture(params=["scalar", "block"])
def calls(request, net):
    return (_scalar_calls if request.param == "scalar" else _block_calls)(net)


class TestValidationParity:
    """The scalar and block forms reject the same input the same way."""

    @pytest.mark.parametrize("kind", ["ground", "source", "joule", "peltier"])
    @pytest.mark.parametrize("node", [3, 99, -1])
    def test_node_out_of_range(self, calls, kind, node):
        with pytest.raises(IndexError):
            calls[kind]([0, node], [1.0, 1.0])

    @pytest.mark.parametrize("kind", ["ground", "source", "joule", "peltier"])
    def test_non_integer_node(self, calls, kind):
        with pytest.raises(ValueError, match="integer"):
            calls[kind]([0, 1.5], [1.0, 1.0])

    @pytest.mark.parametrize("a, b", [(0, 99), (99, 0), (-1, 1), (1, 3)])
    def test_conductance_endpoint_out_of_range(self, calls, a, b):
        with pytest.raises(IndexError):
            calls["conductance"]([0, a], [1, b], [1.0, 1.0])

    def test_self_loop(self, calls):
        with pytest.raises(ValueError, match="differ"):
            calls["conductance"]([0, 2], [1, 2], [1.0, 1.0])

    @pytest.mark.parametrize("kind", ["conductance", "ground"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_conductance_positive_finite(self, calls, kind, value):
        args = ([0, 0], [1, 2]) if kind == "conductance" else ([0, 1],)
        with pytest.raises(ValueError, match="positive finite"):
            calls[kind](*args, [1.0, value])

    @pytest.mark.parametrize("kind", ["source", "joule"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_source_and_joule_nonnegative_finite(self, calls, kind, value):
        with pytest.raises(ValueError, match="non-negative finite"):
            calls[kind]([0, 1], [1.0, value])

    @pytest.mark.parametrize("value", [0.0, math.nan, -math.inf])
    def test_peltier_finite_nonzero(self, calls, value):
        with pytest.raises(ValueError):
            calls["peltier"]([0, 1], [2e-4, value])

    def test_peltier_duplicate_across_calls(self, calls):
        calls["peltier"]([2], [2e-4])
        with pytest.raises(ValueError, match="already"):
            calls["peltier"]([1, 2], [-2e-4, -2e-4])

    def test_peltier_duplicate_within_one_call(self, calls):
        with pytest.raises(ValueError, match="already"):
            calls["peltier"]([1, 2, 1], [2e-4, -2e-4, 2e-4])
