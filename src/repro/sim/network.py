"""Interconnect models: 2-D mesh (Alewife's topology) and general graphs.

The paper's analysis prices every main-memory access equally ("the cost of
the main memory access is the same no matter where in main memory the data
is located"); the *placement* phase of Section 4 then notes that on a real
mesh the distance matters ("a smaller effect that may become important in
very large machines").  The network layer therefore reports both message
counts (the paper's metric) and hop-weighted traffic (the placement
metric).
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["Network", "MeshNetwork", "GraphNetwork", "best_mesh_shape"]


def best_mesh_shape(nodes: int) -> tuple[int, int]:
    """Most-square ``rows × cols`` factorisation of ``nodes``."""
    best = (1, nodes)
    for r in range(1, int(math.isqrt(nodes)) + 1):
        if nodes % r == 0:
            best = (r, nodes // r)
    return best


class Network:
    """Message and hop accounting over a precomputed hop table.

    Topologies differ only in ``table``, the ``P × P`` matrix of hop
    counts between nodes; sending is the same everywhere.
    """

    def __init__(self, table: np.ndarray, *, registry: MetricsRegistry | None = None):
        self.nodes = table.shape[0]
        self._table = table
        registry = registry if registry is not None else MetricsRegistry()
        self.messages = registry.counter("sim.network.messages")
        self.hops = registry.counter("sim.network.hops")

    def distance(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def send(self, src: int, dst: int) -> int:
        """Account one message; returns its hop count."""
        return self.send_bulk(src, dst, 1)

    def send_bulk(self, src: int, dst: int, count: int) -> int:
        """Account ``count`` messages between one src/dst pair at once;
        returns the hop count of one of them."""
        d = self.distance(src, dst)
        if count > 0:
            self.messages += count
            self.hops += d * count
        return d

    def reset(self) -> None:
        self.messages.reset()
        self.hops.reset()


class MeshNetwork(Network):
    """2-D mesh with dimension-ordered (Manhattan) routing."""

    def __init__(
        self,
        nodes: int,
        shape: tuple[int, int] | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ):
        if nodes < 1:
            raise ValueError("need at least one node")
        self.shape = shape or best_mesh_shape(nodes)
        if self.shape[0] * self.shape[1] < nodes:
            raise ValueError(f"mesh {self.shape} too small for {nodes} nodes")
        rows, cols = np.divmod(np.arange(nodes, dtype=np.int32), self.shape[1])
        table = np.abs(rows[:, None] - rows) + np.abs(cols[:, None] - cols)
        super().__init__(table, registry=registry)

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.shape[1])


class GraphNetwork(Network):
    """Arbitrary topology via networkx; shortest-path hop distances."""

    def __init__(self, graph: nx.Graph, *, registry: MetricsRegistry | None = None):
        if graph.number_of_nodes() == 0:
            raise ValueError("empty topology")
        if not nx.is_connected(graph):
            raise ValueError("topology must be connected")
        self.graph = graph
        index = {n: i for i, n in enumerate(sorted(graph.nodes()))}
        # All-pairs hop distances (small machines only).
        table = np.zeros((len(index), len(index)), dtype=np.int32)
        for src, lengths in nx.all_pairs_shortest_path_length(graph):
            for dst, d in lengths.items():
                table[index[src], index[dst]] = d
        super().__init__(table, registry=registry)
