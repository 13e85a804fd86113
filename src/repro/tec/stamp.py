"""Compact-model stamp of a TEC device (Section IV.B, Figure 4).

Deploying a TEC under a tile substitutes the tile's TIM node with the
device's two-node thermal model:

* a **cold** node facing the silicon tile through ``g_c``;
* a **hot** node facing the spreader tile through ``g_h``;
* the film conduction ``kappa`` between them;
* Joule sources ``r i^2 / 2`` on both nodes (current-dependent — they
  live in the ``joule`` coefficient vector);
* the Peltier transport as the ``D``-diagonal entries ``-alpha`` (cold)
  and ``+alpha`` (hot), so that ``G - i D`` carries the ``+alpha i``
  conductance-to-ground at the cold node and the ``-alpha i`` negative
  conductance at the hot node, exactly as in Figure 4.

The stamp does **not** decide where TECs go — that is the deployment
problem (``repro.core.deploy``); it only writes devices into a
:class:`~repro.thermal.network.ThermalNetwork`.  :class:`TecStampBlock`
describes any number of devices as arrays and :func:`stamp_tecs`
writes them as one block per element kind; :func:`stamp_tec` is the
one-device form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.thermal.network import NodeLabels, NodeRole


@dataclass(frozen=True)
class TecStamp:
    """Bookkeeping for one stamped TEC device.

    Attributes
    ----------
    tile:
        Flat tile index the device covers.
    hot_node, cold_node:
        Network node indices of the device's two sides.
    device:
        The :class:`~repro.tec.materials.TecDeviceParameters` stamped.
    """

    tile: int
    hot_node: int
    cold_node: int
    device: object


@dataclass(frozen=True, eq=False)
class TecStampBlock:
    """``k`` devices of one kind, as per-device arrays in stamp order.

    Attributes
    ----------
    device:
        The :class:`~repro.tec.materials.TecDeviceParameters` of every
        device.
    tiles:
        Flat tile index per device (the stamp's identity).
    node_tiles:
        Tile index recorded as the device nodes' ``tile`` meta (their
        multigrid lattice placement).
    silicon_nodes, spreader_nodes:
        Nodes the cold and hot faces contact.
    cold_series:
        Extra series resistance (K/W) per device between the cold
        contact and its silicon node — the die-exit resistance.
    hot_series:
        Extra series resistance (K/W), shared by every device, between
        the hot contact and its spreader node.
    cold_series_base:
        The *unscaled* die-exit resistance ``cold_series`` was derived
        from, or None; :meth:`scaled` recomputes ``cold_series`` from
        it under a per-tile die conductivity scale.
    """

    device: object
    tiles: np.ndarray
    node_tiles: np.ndarray
    silicon_nodes: np.ndarray
    spreader_nodes: np.ndarray
    cold_series: np.ndarray
    hot_series: float = 0.0
    cold_series_base: Optional[float] = None

    def __len__(self):
        return len(self.tiles)

    def take(self, rows):
        """The devices at ``rows`` (an index array), in that order."""
        return dataclasses.replace(
            self,
            tiles=self.tiles[rows],
            node_tiles=self.node_tiles[rows],
            silicon_nodes=self.silicon_nodes[rows],
            spreader_nodes=self.spreader_nodes[rows],
            cold_series=self.cold_series[rows],
        )

    def renumbered(self, mapping):
        """The block with its contact nodes mapped through ``mapping``."""
        return dataclasses.replace(
            self,
            silicon_nodes=mapping[self.silicon_nodes],
            spreader_nodes=mapping[self.spreader_nodes],
        )

    def scaled(self, scale):
        """The block under the per-tile die conductivity ``scale``:
        ``cold_series = cold_series_base / scale[tile]``."""
        if self.cold_series_base is None:
            return self
        return dataclasses.replace(
            self, cold_series=self.cold_series_base / scale[self.tiles]
        )


def stamp_tecs(network, block, labels=None):
    """Write every device of ``block`` into ``network``.

    Per device, in order: the cold and hot nodes, the cold contact,
    hot contact and film conductances, the two Joule halves, and the
    ``+alpha`` (hot) / ``-alpha`` (cold) Peltier entries — each kind
    as one interleaved block.  ``labels`` optionally names the nodes
    (default ``tec[<tile>].cold`` / ``.hot``).  Returns the
    :class:`TecStamp` list in device order.
    """
    device = block.device
    k = len(block)
    cold_series = np.asarray(block.cold_series, dtype=float)
    if np.any(cold_series < 0.0) or block.hot_series < 0.0:
        raise ValueError("series resistances must be >= 0")
    if k == 0:
        return []
    if labels is None:
        labels = NodeLabels(
            "tec[{}].{}", np.repeat(block.tiles, 2), np.resize(["cold", "hot"], 2 * k)
        )
    first = network.add_nodes(
        (NodeRole.TEC_COLD, NodeRole.TEC_HOT),
        labels,
        tile=np.repeat(np.asarray(block.node_tiles, dtype=np.int64), 2),
    )[0]
    cold = first + 2 * np.arange(k)
    hot = cold + 1
    g_cold = 1.0 / (1.0 / device.cold_contact_conductance + cold_series)
    g_hot = 1.0 / (1.0 / device.hot_contact_conductance + block.hot_series)
    network.add_conductances(
        np.column_stack([block.silicon_nodes, hot, cold]).ravel(),
        np.column_stack([cold, block.spreader_nodes, hot]).ravel(),
        np.column_stack([
            g_cold, np.full(k, g_hot), np.full(k, device.thermal_conductance),
        ]).ravel(),
    )
    network.add_joules(
        np.column_stack([cold, hot]).ravel(), 0.5 * device.electrical_resistance
    )
    network.set_peltiers(
        np.column_stack([hot, cold]).ravel(),
        np.resize([+device.seebeck, -device.seebeck], 2 * k),
    )
    return [
        TecStamp(tile=tile, hot_node=h, cold_node=c, device=device)
        for tile, h, c in zip(
            np.asarray(block.tiles).tolist(), hot.tolist(), cold.tolist()
        )
    ]


def stamp_tec(
    network,
    device,
    *,
    silicon_node,
    spreader_node,
    tile,
    label=None,
    cold_series_resistance=0.0,
    hot_series_resistance=0.0,
    cold_series_base=None,
    lattice_tile=None,
):
    """Write one TEC device into ``network``.

    Parameters
    ----------
    network:
        The :class:`~repro.thermal.network.ThermalNetwork` under
        construction.
    device:
        :class:`~repro.tec.materials.TecDeviceParameters`.
    silicon_node:
        Index of the silicon tile node the cold face contacts.
    spreader_node:
        Index of the spreader node the hot face contacts.
    tile:
        Flat tile index (recorded in node metadata and the stamp).
    label:
        Optional name prefix; defaults to ``tec[<tile>]``.
    cold_series_resistance, hot_series_resistance:
        Extra series resistances (K/W) between the device contacts and
        the adjacent layer nodes — the die-exit and spreader-entry
        resistances the TIM path the device replaces would also have
        carried.  The package model supplies these so that covered and
        uncovered tiles see consistent layer lumping.
    cold_series_base:
        The *unscaled* cold series resistance (K/W), kept on the
        device's :class:`TecStampBlock` so
        :meth:`TecStampBlock.scaled` can recompute ``g_c`` under a
        per-tile die conductivity scale.
    lattice_tile:
        Tile index recorded in the node metadata for the multigrid
        lattice placement, when it differs from ``tile``.

    Returns
    -------
    TecStamp
    """
    tile = int(tile)
    block = TecStampBlock(
        device,
        tiles=np.array([tile]),
        node_tiles=np.array([tile if lattice_tile is None else int(lattice_tile)]),
        silicon_nodes=np.array([silicon_node]),
        spreader_nodes=np.array([spreader_node]),
        cold_series=np.array([float(cold_series_resistance)]),
        hot_series=float(hot_series_resistance),
        cold_series_base=cold_series_base,
    )
    labels = None
    if label is not None:
        labels = NodeLabels("{}.{}", [label, label], ["cold", "hot"])
    return stamp_tecs(network, block, labels)[0]
