"""The simulated cache-coherent multiprocessor (Figure 2).

Composes caches, directory, address map and network into the system of
Section 2.2.  :meth:`Machine.access` is the single entry point: processor
``p`` touches ``(array, coords)`` with a read / write / sync access and
every protocol consequence (fills, invalidations, network messages) is
accounted.

Synchronizing accesses (Appendix A's ``l$`` accumulates) are "treated as
writes by the coherence system" — :meth:`access` maps ``sync`` to the
write path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from .cache import Cache
from .directory import Directory
from .memory import AddressMap, flat_address_map
from .network import GraphNetwork, MeshNetwork

__all__ = ["Machine", "MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Static machine parameters.

    ``cache_capacity=None`` models the paper's infinite-cache assumption.
    ``remote_cost`` / ``local_cost`` price a miss serviced by a remote vs
    local home (cache hits are free, matching the analysis's
    "cost of a main memory access is much higher than a cache access").

    ``line_size`` groups consecutive elements of each array's *last*
    dimension into one coherence unit ("The effect of larger cache lines
    can be included as suggested in [6]", Section 2.2); the default 1
    reproduces the paper's unit-line analysis.

    ``cache_enabled=False`` models the local-memory multicomputer of
    footnote 2 (data partitioning): no dynamic copying — every access
    goes to the element's home module and pays local or remote cost.
    """

    processors: int
    cache_capacity: int | None = None
    local_cost: int = 1
    remote_cost: int = 5
    mesh_shape: tuple[int, int] | None = None
    line_size: int = 1
    cache_enabled: bool = True

    def __post_init__(self):
        if self.line_size < 1:
            raise ValueError(f"line_size must be >= 1, got {self.line_size}")


class Machine:
    """A ``P``-processor cache-coherent shared-memory machine."""

    def __init__(
        self,
        config: MachineConfig | int,
        *,
        address_map: AddressMap | None = None,
        network=None,
        registry: MetricsRegistry | None = None,
    ):
        if isinstance(config, int):
            config = MachineConfig(processors=config)
        if config.processors < 1:
            raise SimulationError("need at least one processor")
        self.config = config
        self.p = config.processors
        # Every component publishes into this machine's registry; machines
        # own their registries so concurrent simulations never mix counts.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.caches = [
            Cache(config.cache_capacity, registry=self.metrics, proc=i)
            for i in range(self.p)
        ]
        self.directory = Directory(self.caches, registry=self.metrics)
        self.address_map = address_map or flat_address_map(self.p)
        self.network = network or MeshNetwork(
            self.p, config.mesh_shape, registry=self.metrics
        )
        self.local_miss_count = [
            self.metrics.counter("sim.machine.local_misses", proc=i)
            for i in range(self.p)
        ]
        self.remote_miss_count = [
            self.metrics.counter("sim.machine.remote_misses", proc=i)
            for i in range(self.p)
        ]
        self.memory_cost = [
            self.metrics.counter("sim.machine.memory_cost", proc=i)
            for i in range(self.p)
        ]
        # Optional per-access observer ``(proc, array, coords, kind, hit)``
        # — e.g. :class:`repro.obs.export.EventTraceWriter`.
        self.observer = None
        # Accounting not yet in the counters above (see :meth:`replay`):
        # messages per (src, dst) pair, misses per processor.
        self._traffic: dict[tuple[int, int], int] = {}
        self._local_tally = [0] * self.p
        self._remote_tally = [0] * self.p

    # ------------------------------------------------------------------
    def _tally(self, msgs, proc: int, home: int) -> None:
        """Note one serviced miss and its protocol messages for the next
        :meth:`_publish` (plain ints: no counter lock per message)."""
        traffic = self._traffic
        for src, dst in msgs:
            s = home if src == -1 else src
            d = home if dst == -1 else dst
            if s != d:
                traffic[s, d] = traffic.get((s, d), 0) + 1
        if home == proc:
            self._local_tally[proc] += 1
        else:
            self._remote_tally[proc] += 1

    def _publish(self) -> None:
        """Move the tallies into the registry counters: one ``send_bulk``
        per (src, dst) pair touched, one add per processor with misses."""
        traffic = self._traffic
        if traffic:
            send_bulk = self.network.send_bulk
            for (s, d), n in traffic.items():
                send_bulk(s, d, n)
            traffic.clear()
        cfg = self.config
        for tally, counts, cost in (
            (self._local_tally, self.local_miss_count, cfg.local_cost),
            (self._remote_tally, self.remote_miss_count, cfg.remote_cost),
        ):
            if any(tally):
                for proc, n in enumerate(tally):
                    if n:
                        counts[proc] += n
                        self.memory_cost[proc] += n * cost
                        tally[proc] = 0

    def account_traffic(self, traffic, local, remote) -> None:
        """Publish whole-machine accounting (the fast engine):
        ``traffic[s, d]`` messages from node ``s`` to ``d``, and
        ``local[p]`` / ``remote[p]`` misses processor ``p`` had serviced
        by its own / another node's memory."""
        pairs = np.argwhere(traffic)
        for (s, d), n in zip(pairs.tolist(), traffic[tuple(pairs.T)].tolist()):
            self._traffic[s, d] = self._traffic.get((s, d), 0) + n
        for proc in range(self.p):
            self._local_tally[proc] += int(local[proc])
            self._remote_tally[proc] += int(remote[proc])
        self._publish()

    def line_of(self, array: str, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Coherence-unit coordinates: last dimension divided by line size."""
        if self.config.line_size == 1:
            return coords
        ls = self.config.line_size
        return coords[:-1] + (coords[-1] // ls,)

    def access(self, proc: int, array: str, coords: tuple[int, ...], kind: str) -> bool:
        """One memory access; returns True on a cache hit.

        ``kind`` ∈ {'read', 'write', 'sync'}; sync behaves as write
        (Appendix A).  When an :attr:`observer` is attached it sees every
        access (element coordinates, pre line-grouping) after servicing.
        Deferred fast-engine lines are expanded first.  Every counter is
        up to date when this returns.
        """
        if self.directory._pending:
            self.directory.expand()
        try:
            hit = self._access(proc, array, coords, kind)
        finally:
            self._publish()
        if self.observer is not None:
            self.observer(proc, array, coords, kind, hit)
        return hit

    def replay(self, events) -> None:
        """Run ``(proc, array, coords, kind)`` events, each exactly as one
        :meth:`access` — the exact engine's batch entry point.

        The network and miss accounting is tallied in plain ints and
        published into the counters once, when the replay ends — also
        when an event raises, so no tally is lost.  An attached
        :attr:`observer` sees every event with its hit flag.
        """
        if self.directory._pending:
            self.directory.expand()
        access = self._access
        observer = self.observer
        try:
            if observer is None:
                for proc, array, coords, kind in events:
                    access(proc, array, coords, kind)
            else:
                for proc, array, coords, kind in events:
                    observer(proc, array, coords, kind, access(proc, array, coords, kind))
        finally:
            self._publish()

    def _access(self, proc: int, array: str, coords: tuple[int, ...], kind: str) -> bool:
        if not 0 <= proc < self.p:
            raise SimulationError(f"no such processor {proc}")
        coords = self.line_of(array, coords)
        msgs = self.service(proc, (array, coords), kind)
        if msgs is None:
            return True
        self._tally(msgs, proc, self.address_map.home(array, coords))
        return False

    def service(self, proc: int, addr: tuple, kind: str):
        """Run one access to the line ``addr = (array, line coords)``
        through the protocol without pricing it.

        Returns ``None`` on a cache hit, else the protocol messages as
        ``(src, dst)`` pairs with the home node as ``-1`` — what
        :meth:`_tally` prices once the home is known.  Deferred blocks
        are not expanded here; :meth:`access` and :meth:`replay` do that.
        """
        if kind not in ("read", "write", "sync"):
            raise SimulationError(f"unknown access kind {kind!r}")
        if not self.config.cache_enabled:
            # Local-memory multicomputer (footnote 2): every access goes
            # to the home module; no replication, no coherence.
            st = self.caches[proc].stats
            if kind == "read":
                st.read_misses += 1
            else:
                st.write_misses += 1
            return ((proc, -1), (-1, proc))
        cache = self.caches[proc]
        if kind == "read":
            if cache.lookup_read(addr):
                return None
            return self.directory.read(addr, proc)
        outcome = cache.lookup_write(addr)
        if outcome == "hit":
            return None
        return self.directory.write(addr, proc, upgrade=(outcome == "upgrade"))

    # ------------------------------------------------------------------
    @property
    def total_misses(self) -> int:
        return sum(c.stats.misses for c in self.caches)

    @property
    def total_accesses(self) -> int:
        return sum(c.stats.accesses for c in self.caches)

    def flush_caches(self) -> None:
        """Reset cache and directory content, keep counters.

        Deferred fast-engine blocks are dropped unexpanded.
        """
        for c in self.caches:
            c.flush()
        self.directory._pending.clear()
        self.directory._entries.clear()
        self.directory._invalidated_at.clear()
        self.directory._evicted_at.clear()
        self.directory._ever_filled.clear()

    def end_state(self) -> tuple[dict, list[dict]]:
        """Every line's protocol state, deferred blocks expanded.

        Returns ``(directory, caches)``: ``directory`` maps each address
        to its ``(sorted sharers, owner)``, ``caches[p]`` is processor
        ``p``'s address → :class:`~repro.sim.cache.LineState` map.  Two
        engines leave the same machine iff these (and the counters) agree.
        """
        directory = {
            addr: (tuple(sorted(e.sharers)), e.owner)
            for addr, e in self.directory.entries.items()
        }
        return directory, [dict(c._lines) for c in self.caches]

    def check(self) -> None:
        """Run protocol invariant checks (tests call this liberally)."""
        self.directory.check_invariants()
