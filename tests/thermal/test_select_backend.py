"""Properties of the ``auto`` backend heuristic.

:func:`~repro.thermal.session.select_backend` decides between the
condensed ``reuse`` backend, the per-current SPD factorization of
``direct`` and the geometric-multigrid ``mg`` backend from
``(num_nodes, support_size)`` alone.  Contracts:

* it always returns one of ``reuse``, ``direct`` or ``mg`` — a
  member of ``SOLVER_MODES`` other than ``auto`` itself;
* at a fixed support, growing the grid can only move the decision
  *up* the ``direct < reuse < mg`` ladder: the support threshold
  ``max(64, 4 sqrt(n))`` is nondecreasing in ``n`` (direct -> reuse
  flips at most once), and every grid at or past
  ``MG_NODE_CROSSOVER`` nodes goes multigrid regardless of support;
* the 128x128-package crossover is pinned: 65 804 nodes put the
  threshold at ``4 * sqrt(65804) ~ 1026``, so a 513-TEC deployment
  (support 1026) still reuses while 514 TECs (support 1028) go
  direct — and 65 804 sits safely below the 150 000-node mg
  crossover, so the 128x128 bench column keeps its historical
  backends while the 256x256 column (262 408 nodes) goes mg.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.thermal.session import (
    AUTO_SUPPORT_COEFF,
    AUTO_SUPPORT_FLOOR,
    MG_NODE_CROSSOVER,
    SOLVER_MODES,
    select_backend,
)

_NODES = st.integers(min_value=1, max_value=10**7)
_SMALL_NODES = st.integers(min_value=1, max_value=MG_NODE_CROSSOVER - 1)
_SUPPORT = st.integers(min_value=0, max_value=10**5)

#: Position on the "grid size pushes the choice this way" ladder.
_RANK = {"direct": 0, "reuse": 1, "mg": 2}


class TestSelectBackendProperties:
    @given(num_nodes=_NODES, support=_SUPPORT)
    def test_result_is_a_solver_mode(self, num_nodes, support):
        backend = select_backend(num_nodes, support)
        assert backend in SOLVER_MODES
        assert backend in ("reuse", "direct", "mg")

    @given(num_nodes=_SMALL_NODES, support=st.integers(min_value=0, max_value=64))
    def test_small_supports_always_reuse_below_mg_crossover(
        self, num_nodes, support
    ):
        """Below the floor the dense update wins on any sub-chiplet grid."""
        assert AUTO_SUPPORT_FLOOR == 64
        assert select_backend(num_nodes, support) == "reuse"

    @given(num_nodes=_NODES, support=_SUPPORT)
    def test_chiplet_scale_grids_always_go_mg(self, num_nodes, support):
        """At or past the node crossover the support is irrelevant:
        the hierarchy's O(n) memory is what matters, not the support
        size."""
        if num_nodes >= MG_NODE_CROSSOVER:
            assert select_backend(num_nodes, support) == "mg"
        else:
            assert select_backend(num_nodes, support) != "mg"

    @given(
        small=_NODES, large=_NODES, support=_SUPPORT
    )
    def test_monotone_in_num_nodes_at_fixed_support(
        self, small, large, support
    ):
        """Growing the grid only climbs the direct -> reuse -> mg
        ladder, never descends: once a support is cheap on a small
        grid it stays cheap on every larger one, until the grid itself
        is the bottleneck and multigrid takes over."""
        if small > large:
            small, large = large, small
        rank_small = _RANK[select_backend(small, support)]
        rank_large = _RANK[select_backend(large, support)]
        assert rank_small <= rank_large

    @given(
        num_nodes=_SMALL_NODES, small=_SUPPORT, large=_SUPPORT
    )
    def test_monotone_in_support_at_fixed_grid(self, num_nodes, small, large):
        """Shrinking the deployment never switches reuse -> direct."""
        if small > large:
            small, large = large, small
        if select_backend(num_nodes, large) == "reuse":
            assert select_backend(num_nodes, small) == "reuse"


class TestCrossoverRegression:
    """The 128x128 bench column sits just under the auto threshold."""

    _NODES_128 = 65804  # nodes of the bench's 128x128 package network
    _NODES_256 = 262408  # nodes of the bench's 256x256 package network

    def test_threshold_follows_sqrt_n(self):
        limit = max(
            AUTO_SUPPORT_FLOOR,
            AUTO_SUPPORT_COEFF * self._NODES_128 ** 0.5,
        )
        assert 1026 < limit < 1027

    def test_128_grid_crossover(self):
        assert select_backend(self._NODES_128, 1026) == "reuse"
        assert select_backend(self._NODES_128, 1028) == "direct"

    def test_128_grid_stays_below_mg_crossover(self):
        """Adding the mg tier must not disturb the historical 128x128
        reuse/direct behaviour."""
        assert self._NODES_128 < MG_NODE_CROSSOVER

    def test_256_grid_goes_mg(self):
        assert self._NODES_256 >= MG_NODE_CROSSOVER
        assert select_backend(self._NODES_256, 0) == "mg"
        assert select_backend(self._NODES_256, 4096) == "mg"

    def test_mg_crossover_boundary(self):
        assert select_backend(MG_NODE_CROSSOVER, 0) == "mg"
        assert select_backend(MG_NODE_CROSSOVER - 1, 0) == "reuse"
