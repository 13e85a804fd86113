"""Assembly of the nodal equations ``(G - i D) theta = p(i)``.

Given a :class:`~repro.thermal.network.ThermalNetwork`, this module
builds the matrices of Equation (4)/(5) of the paper:

* ``G``: symmetric conductance matrix.  Off-diagonals are ``-g_kl``;
  diagonals are the sum of incident conductances *including* the
  conductance to the ambient voltage source (eliminating the ambient
  node keeps ``G`` positive definite — Lemma 1).
* ``D``: diagonal Peltier coupling matrix (``+alpha`` at hot nodes,
  ``-alpha`` at cold nodes).
* ``p(i) = p_base + i^2 * joule``: the power vector; ``p_base``
  carries the tile powers plus the ambient contribution
  ``g_ground * theta_ambient``, and ``joule`` carries the TEC
  ``r/2`` coefficients.

Assembly works on the network's element arrays: the diagonal is one
``np.bincount`` over the interleaved conductance endpoints (the same
sequence of additions per node as summing edge by edge, so the result
is bit-for-bit that sum) plus the ground terms, and ``G`` is one
COO -> CSC conversion.

The module also provides :class:`NetworkBlueprint`, the assembly
cache of the solve engine: a package network is recorded once as
arrays with every TIM tile present and no TEC stamped, together with
one TEC stamp row per tile, and any concrete deployment is then
*instantiated* by array operations — TIM nodes of covered tiles and
their edges masked out, the surviving nodes renumbered, the covered
tiles' stamp rows spliced in — without re-deriving any layer physics.
Every model build goes through a blueprint, so there is one build
path and the element order is the same for every deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg.multigrid import LatticeGeometry
from repro.tec.stamp import stamp_tecs
from repro.thermal.network import ROLES, NodeRole, ThermalNetwork, role_code
from repro.utils import celsius_to_kelvin

#: Node roles that live on the tile lattice, with the layer id each
#: maps to in the :class:`~repro.linalg.multigrid.LatticeGeometry`
#: handed to the multigrid backend.  TIM and the TEC membrane occupy
#: distinct ids even though they share the physical gap — the stencil
#: probes vertical couplings between every layer pair, so holes in
#: either (covered vs. uncovered tiles) cost nothing.
_LATTICE_LAYERS = {
    NodeRole.SILICON: 0,
    NodeRole.TEC_COLD: 1,
    NodeRole.TEC_HOT: 2,
    NodeRole.TIM: 3,
    NodeRole.SPREADER: 4,
    NodeRole.SINK: 5,
    NodeRole.INTERPOSER: 6,
}


_LAYER_OF_CODE = np.full(len(ROLES), -1, dtype=np.int64)
for _role, _layer in _LATTICE_LAYERS.items():
    _LAYER_OF_CODE[role_code(_role)] = _layer


def extract_lattice(network, grid_shape):
    """Map a package network onto a :class:`LatticeGeometry`.

    Every node of a gridded role carrying a ``tile`` meta entry is
    placed at (layer-of-role, tile); everything else — periphery
    rings, lumped extras — stays off-lattice (``-1``) and rides
    through the multigrid coarsening as singleton aggregates.  A
    duplicate (layer, tile) claim keeps the first node and demotes the
    rest off-lattice, so irregular future stacks degrade gracefully
    instead of corrupting the stencil.
    """
    rows, cols = int(grid_shape[0]), int(grid_shape[1])
    n = network.num_nodes
    layers = _LAYER_OF_CODE[network.node_roles()]
    tiles = network.node_tiles()
    candidates = np.flatnonzero(
        (layers >= 0) & (tiles >= 0) & (tiles < rows * cols)
    )
    keys = layers[candidates] * (rows * cols) + tiles[candidates]
    placed = candidates[np.unique(keys, return_index=True)[1]]
    layer = np.full(n, -1, dtype=np.int64)
    tile = np.full(n, -1, dtype=np.int64)
    layer[placed] = layers[placed]
    tile[placed] = tiles[placed]
    return LatticeGeometry(rows=rows, cols=cols, layer=layer, tile=tile)


@dataclass(frozen=True)
class AssembledSystem:
    """The assembled steady-state system.

    Attributes
    ----------
    g_matrix:
        Sparse CSC conductance matrix ``G`` (n x n).
    d_diagonal:
        The diagonal of ``D`` as a dense length-n vector (mostly zero).
    p_base:
        Constant part of the power vector (tile power + ambient term).
    joule:
        Per-node coefficients of the ``i^2`` power term (W / A^2).
    ambient_k:
        Ambient temperature (Kelvin) folded into ``p_base``.
    lattice:
        Optional :class:`~repro.linalg.multigrid.LatticeGeometry`
        describing the layered tile-lattice placement of the nodes;
        present when :func:`assemble` was given the grid shape.  The
        ``mg`` backend coarsens geometrically and applies the operator
        matrix-free through it; without it multigrid falls back to
        algebraic pairwise aggregation.
    """

    g_matrix: sp.csc_matrix
    d_diagonal: np.ndarray
    p_base: np.ndarray
    joule: np.ndarray
    ambient_k: float
    lattice: LatticeGeometry | None = None

    @property
    def num_nodes(self):
        return self.g_matrix.shape[0]

    def d_matrix(self):
        """``D`` as a sparse diagonal matrix."""
        return sp.diags(self.d_diagonal)

    def _support_positions(self):
        """CSC data positions of ``G``'s diagonal on ``D``'s support.

        Computed lazily once; lets :meth:`system_matrix` form
        ``G - i D`` by patching a copy of ``G.data`` instead of going
        through sparse subtraction (``D`` never adds structure because
        every node's diagonal is populated).
        """
        cached = getattr(self, "_support_pos_cache", None)
        if cached is None:
            support = np.flatnonzero(self.d_diagonal)
            indptr = self.g_matrix.indptr
            indices = self.g_matrix.indices
            positions = np.empty(support.size, dtype=np.int64)
            for j, k in enumerate(support):
                start, stop = indptr[k], indptr[k + 1]
                offset = np.searchsorted(indices[start:stop], k)
                positions[j] = start + offset
            cached = (support, positions)
            object.__setattr__(self, "_support_pos_cache", cached)
        return cached

    def system_matrix(self, current):
        """``G - i D`` for supply current ``current`` (CSC).

        The result shares ``G``'s sparsity structure (index arrays are
        reused; only the data vector is copied and patched on the
        Peltier support), so repeated calls across currents are cheap.
        """
        current = float(current)
        if current == 0.0 or not np.any(self.d_diagonal):
            return self.g_matrix
        support, positions = self._support_positions()
        data = self.g_matrix.data.copy()
        data[positions] -= current * self.d_diagonal[support]
        return sp.csc_matrix(
            (data, self.g_matrix.indices, self.g_matrix.indptr),
            shape=self.g_matrix.shape,
        )

    def power_vector(self, current):
        """``p(i) = p_base + i^2 * joule``."""
        current = float(current)
        if current == 0.0 or not np.any(self.joule):
            return self.p_base
        return self.p_base + current * current * self.joule


#: Element kinds of a recording, with the network method adding each.
_WRITERS = (
    ("conductance", "add_conductances"),
    ("ground", "add_ground_conductances"),
    ("source", "add_sources"),
    ("joule", "add_joules"),
    ("peltier", "set_peltiers"),
)


class NetworkBlueprint:
    """Deployment-independent array recording of a package network.

    The model builder writes into :attr:`network` (a plain
    :class:`~repro.thermal.network.ThermalNetwork`) with *every* TIM
    tile present and no TEC stamped, and hands one
    :class:`~repro.tec.stamp.TecStampBlock` row per tile to
    :meth:`mark_stamp_section` at the point of the build where stamps
    belong.  :meth:`instantiate` then produces the network of a
    concrete deployment in four array steps:

    1. mask out the TIM nodes of covered tiles and every element
       incident to them;
    2. renumber the surviving nodes with a cumsum (the stamp nodes
       take the slots at the marker);
    3. splice in the covered tiles' stamp rows at the marker, in tile
       order;
    4. recompute the die-conductivity-scale tagged conductances
       (:meth:`tag_die_scale`) when a scale field is given.

    The element order is the build order, the same for every
    deployment and every scale, so the assembled matrices of sibling
    models are exactly what a build of that deployment produces.  A
    blueprint is immutable once marked and recorded: it is shared by
    sibling models and by :meth:`CoolingSystemProblem.with_limit` /
    ``with_solver_mode`` siblings.
    """

    def __init__(self):
        self.network = ThermalNetwork()
        self._marker = None
        self._stamps = None
        self._tags = []

    def tag_die_scale(self, kind, edges, tiles, payload):
        """Tag conductances as die-conductivity-scale bound.

        ``edges`` are positions in the recorded conductance order,
        ``kind`` names the builder formula and ``tiles``/``payload``
        carry its *unscaled* ingredients, per edge or shared:

        * ``"die_lateral"``: ``tiles = (tile_a, tile_b)``, ``payload``
          the unscaled lateral conductance — recomputed as
          ``payload * (2 sa sb / (sa + sb))``;
        * ``"die_tim"``: ``tiles`` the die tile, ``payload =
          (r_die_exit, tim_half)`` — recomputed as
          ``1 / (r_die_exit / s + tim_half)``.

        Each formula repeats the builder's float expression exactly,
        so a scaled instantiation is bit-for-bit the build under that
        scale (and ``x * 1.0 == x``, ``r / 1.0 == r`` keep an all-ones
        scale exact too).  The TEC cold contacts rescale through their
        stamp block (:meth:`~repro.tec.stamp.TecStampBlock.scaled`).
        """
        if kind not in ("die_lateral", "die_tim"):
            raise ValueError("unknown die-scale tag kind {!r}".format(kind))
        self._tags.append((kind, np.asarray(edges, dtype=np.int64), tiles, payload))

    def mark_stamp_section(self, stamps):
        """Mark the current point of the build as where TEC stamps go.

        ``stamps`` is a :class:`~repro.tec.stamp.TecStampBlock` with
        one row per deployable tile in flat tile order, its contact
        nodes in the recorded numbering.
        """
        if self._marker is not None:
            raise RuntimeError("stamp section already marked")
        self._marker = {kind: self.network.size(kind) for kind, _ in _WRITERS}
        self._marker["node"] = self.network.num_nodes
        self._stamps = stamps

    def _scaled_conductances(self, scale):
        g = self.network.arrays("conductance")[2]
        if scale is None or not self._tags:
            return g
        g = g.copy()
        for kind, edges, tiles, payload in self._tags:
            if kind == "die_lateral":
                sa, sb = scale[tiles[0]], scale[tiles[1]]
                g[edges] = payload * (2.0 * sa * sb / (sa + sb))
            else:
                r_die_exit, tim_half = payload
                g[edges] = 1.0 / (r_die_exit / scale[tiles] + tim_half)
        return g

    def _cover(self):
        """Per recorded node, the tile whose TEC displaces it, else -1.

        A TIM node is displaced by its ``cover_tile`` (a composite
        layout's global flat index) or, on the single-die package where
        the two coincide, its ``tile``.
        """
        tim = role_code(NodeRole.TIM)
        parts = []
        for block in self.network.node_blocks:
            cover = block.meta.get("cover_tile", block.tiles)
            parts.append(np.where(block.roles == tim, cover, -1))
        return np.concatenate(parts).astype(np.int64)

    def _write(self, net, head, keep, renumber, g):
        """Write the recorded elements before (``head``) or after the
        stamp marker, minus the masked ones, renumbered."""
        for kind, writer in _WRITERS:
            arrays = self.network.arrays(kind)
            if kind == "conductance":
                arrays = arrays[:2] + (g,)
            cut = self._marker[kind]
            span = slice(0, cut) if head else slice(cut, None)
            *nodes, values = [array[span] for array in arrays]
            mask = keep[nodes[0]]
            for other in nodes[1:]:
                mask &= keep[other]
            if values.size:
                getattr(net, writer)(
                    *[renumber[array[mask]] for array in nodes], values[mask]
                )

    def instantiate(self, tec_tiles, die_conductivity_scale=None):
        """The network of a concrete deployment.

        Returns ``(network, stamps)`` — a populated
        :class:`~repro.thermal.network.ThermalNetwork` and the list of
        :class:`~repro.tec.stamp.TecStamp` records with real node
        indices, ordered by tile.

        When ``die_conductivity_scale`` is given (per-tile positive
        factors, flat row-major), every tagged conductance and every
        stamped cold contact is recomputed from its unscaled
        ingredients under that field instead of taking the recorded
        value.
        """
        if self._marker is None:
            raise RuntimeError("blueprint has no stamp section marker")
        stamps = self._stamps
        covered = np.array(sorted({int(t) for t in tec_tiles}), dtype=np.int64)
        missing = (covered < 0) | (covered >= len(stamps))
        if np.any(missing):
            raise ValueError(
                "no stamp row for tiles {}".format(covered[missing].tolist())
            )
        scale = None
        if die_conductivity_scale is not None:
            scale = np.asarray(die_conductivity_scale, dtype=float)

        head = self._marker["node"]
        keep = ~np.isin(self._cover(), covered)
        renumber = np.cumsum(keep) - 1
        renumber[head:] += 2 * covered.size
        g = self._scaled_conductances(scale)

        net = ThermalNetwork()
        tail_blocks = []
        offset = 0
        for block in self.network.node_blocks:
            part = keep[offset:offset + len(block)]
            if not part.all():
                block = block.take(np.flatnonzero(part))
            if offset < head:
                net.add_node_block(block)
            else:
                tail_blocks.append(block)
            offset += len(part)
        self._write(net, True, keep, renumber, g)
        block = stamps.take(covered).renumbered(renumber)
        if scale is not None:
            block = block.scaled(scale)
        stamp_list = stamp_tecs(net, block)
        for block in tail_blocks:
            net.add_node_block(block)
        self._write(net, False, keep, renumber, g)
        return net, stamp_list


def _accumulate(nodes, values, n):
    """Per-node sums of ``values`` from 0.0, in element order."""
    return np.bincount(nodes, weights=values, minlength=n).astype(float, copy=False)


def assemble(network, ambient_c, grid_shape=None):
    """Assemble an :class:`AssembledSystem` from a network.

    Parameters
    ----------
    network:
        A populated :class:`~repro.thermal.network.ThermalNetwork`.
    ambient_c:
        Ambient temperature in Celsius (folded into ``p_base`` as
        ``g_ground * theta_ambient`` with the ambient in Kelvin).
    grid_shape:
        Optional ``(rows, cols)`` tile-grid shape.  When given, the
        node placement is captured as a
        :class:`~repro.linalg.multigrid.LatticeGeometry` on
        :attr:`AssembledSystem.lattice` so the ``mg`` backend can
        coarsen geometrically and run its matrix-free stencil.

    Raises
    ------
    ValueError
        If the network is empty or no node is grounded (the steady
        state would be unbounded — heat would have nowhere to go).
    """
    n = network.num_nodes
    if n == 0:
        raise ValueError("cannot assemble an empty network")
    ground_nodes, ground_g = network.arrays("ground")
    if ground_nodes.size == 0:
        raise ValueError(
            "network has no conductance to ambient; the steady state is undefined"
        )
    ambient_k = celsius_to_kelvin(ambient_c)

    # Per node, the incident conductances in element order and then the
    # (per-node summed) ground terms: the edge-by-edge sum, bit for bit.
    a, b, g = network.arrays("conductance")
    ends = np.empty(2 * a.size, dtype=np.int64)
    ends[0::2] = a
    ends[1::2] = b
    diagonal = _accumulate(ends, np.repeat(g, 2), n)
    ground = _accumulate(ground_nodes, ground_g, n)
    diagonal += ground

    # Builders never add a parallel pair, so every off-diagonal entry is
    # unique and the COO -> CSC conversion only sorts; a hand-built
    # network's parallel pairs are summed by the conversion.
    nodes = np.arange(n)
    off = -g
    g_matrix = sp.csc_matrix(sp.coo_matrix(
        (
            np.concatenate([off, off, diagonal]),
            (np.concatenate([a, b, nodes]), np.concatenate([b, a, nodes])),
        ),
        shape=(n, n),
    ))

    source_nodes, powers = network.arrays("source")
    p_base = _accumulate(source_nodes, powers, n)
    p_base += ground * ambient_k

    joule_nodes, coefficients = network.arrays("joule")
    joule = _accumulate(joule_nodes, coefficients, n)

    d_diagonal = np.zeros(n)
    peltier_nodes, alphas = network.arrays("peltier")
    d_diagonal[peltier_nodes] = alphas

    lattice = None
    if grid_shape is not None:
        lattice = extract_lattice(network, grid_shape)

    return AssembledSystem(
        g_matrix=g_matrix,
        d_diagonal=d_diagonal,
        p_base=p_base,
        joule=joule,
        ambient_k=ambient_k,
        lattice=lattice,
    )
