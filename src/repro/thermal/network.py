"""The thermal conductance network.

Heat transfer is treated through its electrical dual (Section IV.A):
heat flow is "current" through thermal conductances, temperatures are
node "voltages" against a ground at absolute zero, power dissipation is
a current source, and the ambient is a constant voltage source that is
eliminated into the right-hand side during assembly.

:class:`ThermalNetwork` is the builder the package model and the TEC
stamps write into; :func:`repro.thermal.assembly.assemble` turns it
into the ``(G, D, p_base, joule)`` matrices of Equation (4).  The
network is columnar: nodes arrive in blocks carrying per-node role and
tile arrays, and every element kind (conductances, ground, sources,
Joule and Peltier terms) is a list of index/value array blocks in
insertion order.  The scalar ``add_*`` calls are one-element blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class NodeRole(enum.Enum):
    """Classification of network nodes.

    ``SILICON`` nodes are the paper's set SIL (the tiles whose peak
    temperature the optimization constrains); ``TEC_HOT`` / ``TEC_COLD``
    are HOT / CLD.  The remaining roles exist for reporting and for the
    layered builder; the matrices do not distinguish them.
    """

    SILICON = "silicon"
    TIM = "tim"
    INTERPOSER = "interposer"
    SPREADER = "spreader"
    SPREADER_PERIPHERY = "spreader-periphery"
    SINK = "sink"
    SINK_PERIPHERY = "sink-periphery"
    TEC_HOT = "tec-hot"
    TEC_COLD = "tec-cold"
    OTHER = "other"


#: Role of each code in :meth:`ThermalNetwork.node_roles`.
ROLES = tuple(NodeRole)
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


def role_code(role):
    """The int8 code of ``role`` in :meth:`ThermalNetwork.node_roles`."""
    return _ROLE_CODE[role]


@dataclass
class Node:
    """One network node.

    ``meta`` carries builder-specific context (e.g. the tile flat index
    a silicon node corresponds to).
    """

    name: str
    role: NodeRole
    meta: dict = field(default_factory=dict)


class NodeLabels:
    """Node names, formatted only when someone asks for them.

    Name ``k`` is ``fmt.format(*(column[k] for column in columns))``;
    building a layer of thousands of nodes then costs no string work.
    """

    def __init__(self, fmt, *columns):
        self.fmt = fmt
        self.columns = tuple(np.asarray(column) for column in columns)

    def __len__(self):
        return len(self.columns[0])

    def take(self, index):
        """The labels of rows ``index`` (an index array)."""
        return NodeLabels(self.fmt, *(column[index] for column in self.columns))

    def tolist(self):
        return [self.fmt.format(*row) for row in zip(*self.columns)]


@dataclass(frozen=True, eq=False)
class NodeBlock:
    """A run of consecutive nodes.

    ``roles`` holds int8 role codes (see :data:`ROLES`), ``tiles`` the
    per-node ``tile`` meta (``-1`` where a node has none), ``labels``
    the names and ``meta`` any further per-node columns by key.
    """

    roles: np.ndarray
    tiles: np.ndarray
    labels: NodeLabels
    meta: dict

    def __len__(self):
        return len(self.roles)

    def take(self, index):
        """The block restricted to rows ``index`` (an index array)."""
        return NodeBlock(
            self.roles[index],
            self.tiles[index],
            self.labels.take(index),
            {key: column[index] for key, column in self.meta.items()},
        )

    def nodes(self):
        """The block as :class:`Node` objects."""
        names = self.labels.tolist()
        roles = [ROLES[code] for code in self.roles.tolist()]
        keys = list(self.meta)
        if keys:
            rows = zip(*(self.meta[key].tolist() for key in keys))
            metas = [dict(zip(keys, row)) for row in rows]
        else:
            metas = [{} for _ in names]
        return [Node(*entry) for entry in zip(names, roles, metas)]


def _require(values, ok, message, error=ValueError):
    """Raise ``error(message)``, formatted with the first entry of
    ``values`` where ``ok`` is False, unless ``ok`` holds everywhere."""
    if not np.all(ok):
        value = values[np.flatnonzero(~ok)[0]]
        raise error(message.format(
            value.item() if isinstance(value, np.generic) else value
        ))


_POSITIVE = "conductance must be a positive finite number, got {!r}"


class ThermalNetwork:
    """Columnar thermal-network builder.

    The builder accumulates, block by block and in insertion order:

    * **conductances** between node pairs (parallel additions merge
      when assembled);
    * **ground conductances** from a node to the ambient voltage source;
    * **sources**: constant heat inputs in watts;
    * **joule coefficients**: heat inputs of ``coeff * i^2`` watts
      (the TEC's ``r/2`` terms, Section IV.C);
    * **peltier coefficients**: the diagonal of ``D`` (``+alpha`` on
      hot nodes, ``-alpha`` on cold nodes).

    Every block is validated as a whole: integer node indices in range
    (``IndexError`` otherwise), distinct conductance endpoints,
    positive finite conductances, finite non-negative sources and
    Joule coefficients, and at most one finite non-zero Peltier entry
    per node (``ValueError``).
    """

    _KINDS = ("conductance", "ground", "source", "joule", "peltier")

    def __init__(self):
        self._node_blocks = []
        self._num_nodes = 0
        self._blocks = {kind: [] for kind in self._KINDS}

    def __len__(self):
        return self._num_nodes

    @property
    def num_nodes(self):
        """Number of nodes added so far."""
        return self._num_nodes

    @property
    def node_blocks(self):
        """The node blocks, in node order."""
        return tuple(self._node_blocks)

    def size(self, kind):
        """Number of entries of one element kind (see :meth:`arrays`)."""
        return sum(len(block[0]) for block in self._blocks[kind])

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def add_node(self, name, role=NodeRole.OTHER, **meta):
        """Add a node; returns its index."""
        if not isinstance(role, NodeRole):
            raise TypeError("role must be a NodeRole, got {!r}".format(role))
        tile = meta.get("tile")
        columns = {}
        for key, value in meta.items():
            column = np.empty(1, dtype=object)
            column[0] = value
            columns[key] = column
        self.add_node_block(NodeBlock(
            np.array([role_code(role)], dtype=np.int8),
            np.array([-1 if tile is None else int(tile)], dtype=np.int64),
            NodeLabels("{}", [str(name)]),
            columns,
        ))
        return self._num_nodes - 1

    def add_nodes(self, role, labels, **meta):
        """Add ``len(labels)`` nodes in one block; returns their indices.

        ``role`` is a :class:`NodeRole`, or a tuple of roles the nodes
        cycle through (``(TEC_COLD, TEC_HOT)`` for interleaved device
        pairs).  ``labels`` is a :class:`NodeLabels` or a list of
        names; each ``meta`` entry is a per-node column, and a ``tile``
        column also places the nodes on the tile lattice.
        """
        if not isinstance(labels, NodeLabels):
            labels = NodeLabels("{}", [str(name) for name in labels])
        roles = role if isinstance(role, tuple) else (role,)
        for entry in roles:
            if not isinstance(entry, NodeRole):
                raise TypeError("role must be a NodeRole, got {!r}".format(entry))
        count = len(labels)
        codes = np.resize(np.array([role_code(r) for r in roles], np.int8), count)
        columns = {}
        for key, value in meta.items():
            column = np.asarray(value)
            if column.shape != (count,):
                raise ValueError(
                    "meta column {!r} must have length {}, got shape {}".format(
                        key, count, column.shape
                    )
                )
            columns[key] = column
        tiles = columns.get("tile")
        tiles = (
            np.full(count, -1, dtype=np.int64) if tiles is None
            else tiles.astype(np.int64)
        )
        start = self._num_nodes
        self.add_node_block(NodeBlock(codes, tiles, labels, columns))
        return np.arange(start, self._num_nodes)

    def add_node_block(self, block):
        """Append a ready-made :class:`NodeBlock`."""
        self._node_blocks.append(block)
        self._num_nodes += len(block)

    @property
    def nodes(self):
        """Every node as a :class:`Node`, built on demand."""
        return [node for block in self._node_blocks for node in block.nodes()]

    def node_roles(self):
        """Per-node int8 role codes (index :data:`ROLES` to decode)."""
        return np.concatenate(
            [block.roles for block in self._node_blocks] + [np.empty(0, np.int8)]
        )

    def node_tiles(self):
        """Per-node ``tile`` meta, ``-1`` where a node has none."""
        return np.concatenate(
            [block.tiles for block in self._node_blocks] + [np.empty(0, np.int64)]
        )

    def indices_with_role(self, role):
        """All node indices whose role is ``role``, in insertion order."""
        return np.flatnonzero(self.node_roles() == role_code(role)).tolist()

    def node_name(self, index):
        """Name of node ``index``."""
        index = int(self._check_nodes([index], "index")[0])
        for block in self._node_blocks:
            if index < len(block):
                return block.labels.take([index]).tolist()[0]
            index -= len(block)
        raise AssertionError("unreachable: index within bounds")

    # ------------------------------------------------------------------
    # Element blocks
    # ------------------------------------------------------------------

    def _check_nodes(self, values, name):
        nodes = np.asarray(values)
        if nodes.ndim != 1:
            nodes = nodes.reshape(-1)
        if not np.issubdtype(nodes.dtype, np.integer):
            with np.errstate(invalid="ignore"):
                as_int = nodes.astype(np.int64)
            _require(nodes, as_int == nodes, name + " must be an integer, got {!r}")
            nodes = as_int
        nodes = nodes.astype(np.int64, copy=False)
        _require(
            nodes, (nodes >= 0) & (nodes < self._num_nodes),
            name + " out of range: {} not in [0, %d)" % self._num_nodes,
            IndexError,
        )
        return nodes

    @staticmethod
    def _values(values, size):
        values = np.asarray(values, dtype=float)
        return np.broadcast_to(values, (size,)) if values.ndim == 0 else values

    def _append(self, kind, nodes, *values):
        for array in values:
            if array.shape != nodes.shape:
                raise ValueError(
                    "{} block: {} values for {} entries".format(
                        kind, array.size, nodes.size
                    )
                )
        self._blocks[kind].append((nodes,) + values)

    def add_conductances(self, a, b, conductances):
        """Add conductances (W/K) between nodes ``a[k]`` and ``b[k]``.

        ``conductances`` is an array or one value for every pair.
        Parallel conductances between the same pair accumulate.
        """
        a = self._check_nodes(a, "a")
        b = self._check_nodes(b, "b")
        if b.shape != a.shape:
            raise ValueError("conductance block: {} a vs {} b".format(a.size, b.size))
        _require(a, a != b, "conductance endpoints must differ, got node {}")
        g = self._values(conductances, a.size)
        _require(g, np.isfinite(g) & (g > 0.0), _POSITIVE)
        self._append("conductance", a, b, g)

    def add_ground_conductances(self, nodes, conductances):
        """Add conductances (W/K) from ``nodes`` to the ambient source."""
        nodes = self._check_nodes(nodes, "node")
        g = self._values(conductances, nodes.size)
        _require(g, np.isfinite(g) & (g > 0.0), _POSITIVE)
        self._append("ground", nodes, g)

    def _add_nonnegative(self, kind, nodes, values, name):
        nodes = self._check_nodes(nodes, "node")
        values = self._values(values, nodes.size)
        _require(
            values, np.isfinite(values) & (values >= 0.0),
            name + " must be a non-negative finite number, got {!r}",
        )
        nonzero = values != 0.0
        if not np.all(nonzero):
            nodes, values = nodes[nonzero], values[nonzero]
        self._append(kind, nodes, values)

    def add_sources(self, nodes, powers):
        """Add constant heat sources (W, >= 0); zero entries are skipped."""
        self._add_nonnegative("source", nodes, powers, "power")

    def add_joules(self, nodes, coefficients):
        """Add current-dependent sources ``coefficient * i^2``."""
        self._add_nonnegative("joule", nodes, coefficients, "coefficient")

    def set_peltiers(self, nodes, alphas_signed):
        """Set ``D`` diagonal entries (see :meth:`set_peltier`)."""
        nodes = self._check_nodes(nodes, "node")
        alphas = self._values(alphas_signed, nodes.size)
        _require(alphas, np.isfinite(alphas), "Peltier coefficient must be finite, got {!r}")
        _require(alphas, alphas != 0.0, "Peltier coefficient must be non-zero, got {!r}")
        seen = np.concatenate([self.arrays("peltier")[0], nodes])
        unique, counts = np.unique(seen, return_counts=True)
        _require(unique, counts == 1, "node {} already has a Peltier coefficient")
        self._append("peltier", nodes, alphas)

    # Scalar forms: one-element blocks.

    def add_conductance(self, a, b, conductance):
        """Add a thermal conductance (W/K) between nodes ``a`` and ``b``.

        Parallel conductances between the same pair accumulate.
        """
        self.add_conductances([a], [b], [conductance])

    def add_ground_conductance(self, node, conductance):
        """Add a conductance (W/K) from ``node`` to the ambient source."""
        self.add_ground_conductances([node], [conductance])

    def add_source(self, node, power):
        """Add a constant heat source (W, >= 0) at ``node``."""
        self.add_sources([node], [power])

    def add_joule(self, node, coefficient):
        """Add a current-dependent source ``coefficient * i^2`` at ``node``."""
        self.add_joules([node], [coefficient])

    def set_peltier(self, node, alpha_signed):
        """Set the ``D`` diagonal entry for ``node``.

        ``+alpha`` for a TEC hot node, ``-alpha`` for a cold node
        (Equation 5).  A node may carry at most one Peltier entry; a
        second assignment raises, because stacking two TEC sides on one
        node has no physical meaning in this model.
        """
        self.set_peltiers([node], [alpha_signed])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def arrays(self, kind):
        """The concatenated blocks of one element kind, in insertion order.

        ``"conductance"`` gives ``(a, b, g)``; ``"ground"``,
        ``"source"``, ``"joule"`` and ``"peltier"`` give
        ``(nodes, values)``.
        """
        blocks = self._blocks[kind]
        if not blocks:
            width = 3 if kind == "conductance" else 2
            return (np.empty(0, np.int64),) * (width - 1) + (np.empty(0),)
        return tuple(np.concatenate(column) for column in zip(*blocks))

    def _merged(self, kind):
        merged = {}
        nodes, values = self.arrays(kind)
        for node, value in zip(nodes.tolist(), values.tolist()):
            merged[node] = merged.get(node, 0.0) + value
        return merged

    def conductance_items(self):
        """``((a, b), g)`` pairs, ``a < b``, with parallel pairs merged."""
        merged = {}
        a, b, g = self.arrays("conductance")
        for lo, hi, value in zip(
            np.minimum(a, b).tolist(), np.maximum(a, b).tolist(), g.tolist()
        ):
            merged[lo, hi] = merged.get((lo, hi), 0.0) + value
        return merged.items()

    def ground_items(self):
        """``(node, g)`` pairs of ground conductances, merged per node."""
        return self._merged("ground").items()

    def source_items(self):
        """``(node, watts)`` pairs of constant sources, merged per node."""
        return self._merged("source").items()

    def joule_items(self):
        """``(node, coeff)`` pairs of Joule coefficients, merged per node."""
        return self._merged("joule").items()

    def peltier_items(self):
        """``(node, signed_alpha)`` pairs of ``D`` diagonal entries."""
        return self._merged("peltier").items()

    def total_ground_conductance(self):
        """Sum of all conductances to ambient (W/K)."""
        return sum(self._merged("ground").values())

    def total_source_power(self):
        """Sum of all constant heat sources (W)."""
        return sum(self._merged("source").values())
