"""Full-map directory MSI protocol.

Each memory address has a directory entry at its home node recording the
sharer set and (exclusive) owner.  The directory serialises protocol
actions; the machine calls :meth:`Directory.read` / :meth:`Directory.write`
which mutate the caches and return the messages exchanged so the network
layer can price them.

Message accounting (unit-size messages, one per protocol hop):

=====================  =======================================================
event                  messages
=====================  =======================================================
read, clean            requester→home, home→requester (data)
read, dirty remote     requester→home, home→owner, owner→requester (data),
                       owner→home (writeback/sharer update)
write, no sharers      requester→home, home→requester (data/ack)
write, with sharers    + home→sharer and sharer→home ack per sharer
upgrade                requester→home, home→requester + invalidation pairs
=====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from .cache import Cache, LineState

__all__ = ["Directory", "CoherenceStats", "DirectoryEntry"]


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one address."""

    sharers: set[int] = field(default_factory=set)
    owner: int | None = None


class CoherenceStats:
    """Machine-wide protocol event counters.

    A view over int-like registry counters (see
    :mod:`repro.obs.metrics`); field semantics are unchanged from the
    former plain-int dataclass.
    """

    FIELDS = (
        "cold_fills",        # first-ever fetch of an address
        "coherence_misses",  # miss on a previously-invalidated line
        "capacity_misses",   # miss on a line lost to LRU eviction
        "invalidations",     # individual invalidation messages
        "downgrades",        # M -> S interventions
        "writebacks",        # dirty data returned to home
    )

    __slots__ = FIELDS

    def __init__(self, *, registry: MetricsRegistry | None = None, **labels):
        registry = registry if registry is not None else MetricsRegistry()
        for name in self.FIELDS:
            setattr(self, name, registry.counter(f"sim.directory.{name}", **labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoherenceStats):
            return NotImplemented
        return all(
            int(getattr(self, f)) == int(getattr(other, f)) for f in self.FIELDS
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={int(getattr(self, f))}" for f in self.FIELDS)
        return f"CoherenceStats({inner})"


class Directory:
    """The directory controller shared by all home nodes.

    The home *node* of an address matters only for network pricing; the
    protocol state is global here (one entry per address), which is
    equivalent to per-node directories since addresses have unique homes.
    """

    def __init__(self, caches: list[Cache], *, registry: MetricsRegistry | None = None):
        self.caches = caches
        self._entries: dict = {}
        # Fast-engine end state not yet turned into per-line objects, as
        # ``(array, rows, touch, modified)`` blocks (see
        # :meth:`record_bulk`); :meth:`expand` materialises them.
        self._pending: list[tuple] = []
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.stats = CoherenceStats(registry=self.metrics)
        # Sharer count seen by each serviced write (how many other copies
        # the protocol had to take down) — the coherence-cost distribution.
        self._sharers_at_write = self.metrics.histogram(
            "sim.directory.sharers_at_write"
        )
        # Per-processor cause tracking: addr -> set of procs whose copy was
        # invalidated (to classify the next miss as a coherence miss).
        self._invalidated_at: dict = {}
        self._evicted_at: dict = {}
        self._ever_filled: set = set()
        # ``sim.directory.miss_class`` counter handles by (kind, proc),
        # created on first use like the registry would.
        self._miss_class: dict = {}

    def _count_miss_class(self, kind: str, proc: int, n: int = 1) -> None:
        c = self._miss_class.get((kind, proc))
        if c is None:
            c = self._miss_class[kind, proc] = self.metrics.counter(
                "sim.directory.miss_class", kind=kind, proc=proc
            )
        c.inc(n)

    @property
    def entries(self) -> dict:
        """Address → :class:`DirectoryEntry` (deferred blocks expanded)."""
        self.expand()
        return self._entries

    def _entry(self, addr) -> DirectoryEntry:
        e = self._entries.get(addr)
        if e is None:
            e = DirectoryEntry()
            self._entries[addr] = e
        return e

    def _classify_miss(self, addr, proc: int) -> None:
        inv = self._invalidated_at.get(addr)
        if inv and proc in inv:
            self.stats.coherence_misses += 1
            self._count_miss_class("coherence", proc)
            inv.discard(proc)
            return
        ev = self._evicted_at.get(addr)
        if ev and proc in ev:
            self.stats.capacity_misses += 1
            self._count_miss_class("replacement", proc)
            ev.discard(proc)
            return
        # Not invalidation- or eviction-caused, so this is the requester's
        # first fetch of the address: a per-processor cold miss.  The
        # machine-wide ``cold_fills`` keeps its original meaning (first
        # fetch by *anyone*), so the per-processor cold counts may sum to
        # more than it when several processors each first-touch an address.
        self._count_miss_class("cold", proc)
        if addr not in self._ever_filled:
            self.stats.cold_fills += 1

    def note_eviction(self, addr, proc: int) -> None:
        """Cache informs directory of an LRU eviction (silent drop of S,
        writeback of M)."""
        e = self._entry(addr)
        if e.owner == proc:
            e.owner = None
            self.stats.writebacks += 1
        e.sharers.discard(proc)
        self._evicted_at.setdefault(addr, set()).add(proc)

    # ------------------------------------------------------------------
    def read(self, addr, proc: int) -> list[tuple[int, int]]:
        """Service a read miss by processor ``proc``.

        Returns the protocol messages as (src_node, dst_node) pairs, with
        the home node encoded as ``-1`` (the machine substitutes the real
        home for pricing).
        """
        e = self._entry(addr)
        self._classify_miss(addr, proc)
        msgs = [(proc, -1)]
        if e.owner is not None and e.owner != proc:
            owner = e.owner
            # Home forwards to owner; owner sends data to requester and
            # updates home.
            msgs += [(-1, owner), (owner, proc), (owner, -1)]
            if not self.caches[owner].downgrade(addr):
                raise SimulationError(
                    f"directory says {owner} owns {addr!r} but cache disagrees"
                )
            self.stats.downgrades += 1
            self.stats.writebacks += 1
            e.sharers.add(owner)
            e.owner = None
        else:
            msgs.append((-1, proc))
        e.sharers.add(proc)
        self._fill(addr, proc, LineState.SHARED)
        return msgs

    def write(self, addr, proc: int, *, upgrade: bool) -> list[tuple[int, int]]:
        """Service a write miss or S→M upgrade by ``proc``."""
        e = self._entry(addr)
        if not upgrade:
            self._classify_miss(addr, proc)
        # How many other copies this write must take down (sharers plus a
        # remote owner) — observed before the protocol acts.
        holders = len(e.sharers - {proc})
        if e.owner is not None and e.owner != proc and e.owner not in e.sharers:
            holders += 1
        self._sharers_at_write.observe(holders)
        msgs = [(proc, -1)]
        if e.owner is not None and e.owner != proc:
            owner = e.owner
            msgs += [(-1, owner), (owner, proc)]
            if not self.caches[owner].invalidate(addr):
                raise SimulationError(
                    f"directory says {owner} owns {addr!r} but cache disagrees"
                )
            self._invalidated_at.setdefault(addr, set()).add(owner)
            self.stats.invalidations += 1
            self.stats.writebacks += 1
            e.owner = None
            e.sharers.discard(owner)
        # Invalidate all other sharers.
        for sharer in sorted(e.sharers - {proc}):
            msgs += [(-1, sharer), (sharer, -1)]
            self.caches[sharer].invalidate(addr)
            self._invalidated_at.setdefault(addr, set()).add(sharer)
            self.stats.invalidations += 1
        msgs.append((-1, proc))
        e.sharers = {proc}
        e.owner = proc
        self._fill(addr, proc, LineState.MODIFIED)
        return msgs

    def _fill(self, addr, proc: int, state: LineState) -> None:
        for victim in self.caches[proc].fill(addr, state):
            self.note_eviction(victim, proc)
        self._ever_filled.add(addr)

    def record_bulk(
        self, array: str, rows, touch, *, modified: bool, invalidated=None
    ) -> None:
        """Record fast-engine lines' end state.

        ``rows`` is an ``(N, d)`` integer array of line coordinates and
        ``touch`` a ``(P, N)`` boolean matrix: ``touch[p, i]`` marks
        processor ``p`` as a holder of line ``i``.  ``modified=True``
        means each line has one holder, which ends with it in M as its
        owner.  Otherwise every holder ends with an S copy and the entry
        lists them all as sharers, no owner.  Those are the only end
        states the protocol leaves with unbounded caches.  The optional
        ``(P, N)`` ``invalidated`` matrix marks processors whose copy was
        invalidated and not fetched again, so their next miss on the
        line classifies as a coherence miss; it is entered in the
        miss-cause map at once.  The lines must not be in the directory
        yet.

        The block stays compact until something reads per-line state
        (:meth:`expand`); event counters are the caller's job.
        """
        if not rows.shape[0]:
            return
        if any(c.capacity is not None for c in self.caches):
            raise SimulationError("bulk lines require unbounded caches")
        self._pending.append((array, rows, touch, modified))
        for c in self.caches:
            c.before_read = self.expand
        if invalidated is not None and invalidated.any():
            lines = rows.tolist()
            causes = self._invalidated_at
            for p, i in np.argwhere(invalidated).tolist():
                causes.setdefault((array, tuple(lines[i])), set()).add(p)

    def expand(self) -> None:
        """Turn every recorded block into cache lines, directory entries
        and ever-filled marks — the objects the scalar protocol builds."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for c in self.caches:
            c.before_read = None
        for array, rows, touch, modified in pending:
            addrs = [(array, tuple(row)) for row in rows.tolist()]
            state = LineState.MODIFIED if modified else LineState.SHARED
            for p, cache in enumerate(self.caches):
                sel = np.flatnonzero(touch[p]).tolist()
                if sel:
                    cache._lines.update(dict.fromkeys([addrs[i] for i in sel], state))
            # Distinct sharer sets are few (tile-boundary patterns): decode
            # each distinct touch column once.
            packed = np.packbits(touch, axis=0).T
            _, first, group = np.unique(
                packed, axis=0, return_index=True, return_inverse=True
            )
            sharers = [np.flatnonzero(touch[:, i]).tolist() for i in first.tolist()]
            entries = self._entries
            for addr, g in zip(addrs, group.reshape(-1).tolist()):
                procs = sharers[g]
                entries[addr] = DirectoryEntry(
                    sharers=set(procs), owner=procs[0] if modified else None
                )
            self._ever_filled.update(addrs)

    # ------------------------------------------------------------------
    def sharer_histogram(self) -> dict[int, int]:
        """Map ``k`` → number of addresses currently cached by ``k`` procs.

        Recorded blocks are counted from their touch matrices without
        being expanded.
        """
        hist: dict[int, int] = {}
        for e in self._entries.values():
            k = len(e.sharers) + (1 if e.owner is not None and e.owner not in e.sharers else 0)
            hist[k] = hist.get(k, 0) + 1
        for _, _, touch, _ in self._pending:
            ks, counts = np.unique(touch.sum(axis=0), return_counts=True)
            for k, n in zip(ks.tolist(), counts.tolist()):
                hist[k] = hist.get(k, 0) + n
        return hist

    def check_invariants(self) -> None:
        """Protocol sanity: an owned line has exactly one cached M copy and
        no other copies; sharer sets match the caches."""
        for addr, e in self.entries.items():
            holders = [
                p for p, c in enumerate(self.caches) if c.state(addr) is not None
            ]
            m_holders = [
                p for p in holders if self.caches[p].state(addr) is LineState.MODIFIED
            ]
            if e.owner is not None:
                if m_holders != [e.owner] or set(holders) != {e.owner}:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: owner={e.owner}, "
                        f"holders={holders}, M={m_holders}"
                    )
            else:
                if m_holders:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: no owner but M copies {m_holders}"
                    )
                if set(holders) != e.sharers:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: sharers {e.sharers} "
                        f"vs holders {holders}"
                    )
