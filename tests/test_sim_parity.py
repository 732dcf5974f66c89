"""Differential parity: the fast engine must match the exact engine.

The fast engine (:mod:`repro.sim.fast`) resolves provably-private and
globally read-only cache lines analytically and replays each distinct
write-shared line history once through the scalar MSI protocol.  Its
contract is *bit-identical results*: every counter a
:class:`SimulationResult` carries, every per-cache stat, the coherence
stats, the whole metrics registry, and the directory's end state (every
directory entry and cached line, the sharer histogram, and the protocol
invariants) must equal the exact engine's.

The unmarked tests are a quick smoke over representative programs; the
exhaustive sweep over every paper program × interleave × line size ×
sweep count is marked ``slow`` (run with ``-m slow`` or no marker
filter).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from benchmarks.paper_programs import (
    example2,
    example3,
    example6,
    example8,
    example9,
    example10,
    figure9,
    matmul_sync,
)
import repro.sim.executor as executor
from repro.core.tiles import RectangularTile, Tiling
from repro.exceptions import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim import Machine, MachineConfig, simulate_nest, supports_fast_path
from repro.sim.fast import collect_footprints, execute_fast
from repro.sim.memory import AddressMap, block_address_map
from repro.sim.network import GraphNetwork
from repro.sim.trace import assign_tiles_to_processors, reference_streams

# Small instances of every paper program (keyed by name for test IDs).
PROGRAMS = {
    "example2": lambda: example2(),
    "example3": lambda: example3(8),
    "example6": lambda: example6(),
    "example8": lambda: example8(8),
    "example9": lambda: example9(10),
    "example10": lambda: example10(10),
    "figure9": lambda: figure9(6, 2),
    "matmul_sync": lambda: matmul_sync(6),
}

SMOKE = ("example8", "figure9", "matmul_sync")


def _half_tile(nest) -> RectangularTile:
    """A tile splitting each dimension in two — cuts every axis, so both
    private and shared lines exist."""
    return RectangularTile([-(-int(n) // 2) for n in nest.space.extents])


def _machine(processors: int, **cfg) -> Machine:
    """A fresh machine; ``network`` is a ``registry -> Network`` factory
    so the network publishes into the machine's own registry."""
    address_map = cfg.pop("address_map", None)
    network = cfg.pop("network", None)
    registry = MetricsRegistry()
    return Machine(
        MachineConfig(processors=processors, **cfg),
        address_map=address_map,
        network=network(registry) if network else None,
        registry=registry,
    )


def assert_parity(
    nest, tile, processors, *, line_size=1, address_map=None, network=None, **kwargs
):
    """Run both engines on fresh machines and compare everything."""
    exact, fast = (
        simulate_nest(
            nest,
            tile,
            processors,
            engine=engine,
            machine=_machine(
                processors,
                line_size=line_size,
                address_map=address_map,
                network=network,
            ),
            check_invariants=True,
            **kwargs,
        )
        for engine in ("exact", "fast")
    )
    assert fast == exact  # all counters incl. per-processor stats
    for p in range(processors):
        assert fast.machine.caches[p].stats == exact.machine.caches[p].stats
    assert fast.machine.directory.stats == exact.machine.directory.stats
    assert (
        fast.machine.directory.sharer_histogram()
        == exact.machine.directory.sharer_histogram()
    )
    assert (
        fast.machine.directory._sharers_at_write.bins
        == exact.machine.directory._sharers_at_write.bins
    )
    # The full per-line end state: every directory entry's sharers and
    # owner, every cache's line → state map (expands the fast engine's
    # deferred blocks).
    assert fast.machine.end_state() == exact.machine.end_state()
    # Every instrument either engine published: per-processor miss
    # classes, local/remote misses, memory cost, network traffic.
    assert fast.machine.metrics.snapshot() == exact.machine.metrics.snapshot()
    fast.machine.check()
    return fast, exact


@pytest.mark.parametrize("name", SMOKE)
def test_smoke_parity(name):
    nest = PROGRAMS[name]()
    assert_parity(nest, _half_tile(nest), 4)


def test_smoke_parity_line_size_and_sweeps():
    nest = PROGRAMS["example8"]()
    assert_parity(nest, _half_tile(nest), 4, line_size=2, sweeps=2)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
@pytest.mark.parametrize("line_size", [1, 2])
@pytest.mark.parametrize("sweeps", [1, 2])
def test_full_parity_sweep(name, interleave, line_size, sweeps):
    nest = PROGRAMS[name]()
    assert_parity(
        nest,
        _half_tile(nest),
        4,
        line_size=line_size,
        sweeps=sweeps,
        interleave=interleave,
    )


def test_parity_beyond_bitmask_width():
    """P=64: sharer sets involve processors past bit 62 of an int64."""
    nest = example8(8)
    fast, _ = assert_parity(nest, RectangularTile([2, 2, 2]), 64)
    directory, _ = fast.machine.end_state()
    assert any(max(sharers) >= 62 and len(sharers) > 1 for sharers, _ in directory.values())


class TestFootprintRouting:
    """At unit line size the fast engine reads footprints and sharing off
    its own line index; ``collect_footprints`` measures them otherwise."""

    @staticmethod
    def _streams(nest, processors=4):
        tiling = Tiling(nest.space, _half_tile(nest))
        blocks = assign_tiles_to_processors(tiling, processors)
        return {p: reference_streams(nest, its) for p, its in blocks.items()}

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_engine_footprints_equal_collected(self, name):
        nest = PROGRAMS[name]()
        streams = self._streams(nest)
        measured = execute_fast(
            nest, streams, _machine(4), sweeps=1, interleave="roundrobin"
        )
        assert measured == collect_footprints(streams, 4)

    def test_wide_lines_return_nothing(self):
        nest = PROGRAMS["example8"]()
        measured = execute_fast(
            nest, self._streams(nest), _machine(4, line_size=2),
            sweeps=1, interleave="roundrobin",
        )
        assert measured is None

    @pytest.mark.parametrize(
        "engine, line_size, calls",
        [("fast", 1, 0), ("fast", 2, 1), ("exact", 1, 1), ("exact", 2, 1)],
    )
    def test_collect_footprints_called_only_when_needed(
        self, monkeypatch, engine, line_size, calls
    ):
        seen = []

        def spy(streams, processors):
            seen.append(processors)
            return collect_footprints(streams, processors)

        monkeypatch.setattr(executor, "collect_footprints", spy)
        nest = PROGRAMS["figure9"]()
        result = simulate_nest(
            nest, _half_tile(nest), 4, engine=engine,
            machine=_machine(4, line_size=line_size),
        )
        assert len(seen) == calls
        assert result.shared_elements["B"] > 0


class TestDeferredEndState:
    """The fast engine keeps its analytic lines' end state as compact
    blocks until something reads per-line state."""

    @staticmethod
    def _setup():
        nest = PROGRAMS["example8"]()
        return nest, _half_tile(nest)

    def _machines(self):
        nest, tile = self._setup()
        fast = simulate_nest(nest, tile, 4, engine="fast").machine
        exact = simulate_nest(nest, tile, 4, engine="exact").machine
        return fast, exact

    def test_scalar_access_on_bulk_lines_matches_exact(self):
        fast, exact = self._machines()
        blocks = fast.directory._pending
        assert blocks
        # A read-only line several processors share, and a written line.
        array, rows, touch, _ = next(
            b for b in blocks if not b[3] and (b[2].sum(axis=0) > 1).any()
        )
        shared = tuple(rows[np.flatnonzero(touch.sum(axis=0) > 1)[0]].tolist())
        array_m, rows_m, touch_m, _ = next(b for b in blocks if b[3])
        owned = tuple(rows_m[0].tolist())
        owner = int(np.flatnonzero(touch_m[:, 0])[0])
        accesses = [
            (0, array, shared, "write"),
            ((owner + 1) % 4, array_m, owned, "read"),
            (owner, array_m, owned, "write"),
            (owner, array_m, owned, "read"),
        ]
        for acc in accesses:
            assert fast.access(*acc) == exact.access(*acc)
        assert not fast.directory._pending
        assert exact.directory.stats.invalidations > 0
        for p in range(4):
            assert fast.caches[p].stats == exact.caches[p].stats
        assert fast.directory.stats == exact.directory.stats
        assert fast.network.messages == exact.network.messages
        assert fast.network.hops == exact.network.hops
        assert fast.end_state() == exact.end_state()

    def test_pending_blocks_are_not_fresh(self):
        nest, tile = self._setup()
        machine = _machine(4)
        simulate_nest(nest, tile, 4, engine="fast", machine=machine)
        assert not supports_fast_path(machine)
        assert machine.directory._pending  # the probe did not expand
        with pytest.raises(SimulationError, match="not fresh"):
            simulate_nest(nest, tile, 4, engine="fast", machine=machine)
        auto = simulate_nest(nest, tile, 4, engine="auto", machine=machine)
        assert auto.engine == "exact"
        assert "not fresh" in auto.engine_fallback
        # A second run on a warm machine, exact both times, as reference.
        ref = _machine(4)
        simulate_nest(nest, tile, 4, engine="exact", machine=ref)
        assert auto == simulate_nest(nest, tile, 4, engine="exact", machine=ref)
        assert machine.end_state() == ref.end_state()

    def test_flush_drops_pending_blocks(self):
        nest, tile = self._setup()
        machine = _machine(4)
        simulate_nest(nest, tile, 4, engine="fast", machine=machine)
        machine.flush_caches()
        assert not machine.directory._pending
        assert machine.end_state() == ({}, [{}] * 4)
        assert supports_fast_path(machine)

    def test_cache_read_expands(self):
        fast, exact = self._machines()
        assert [len(c) for c in fast.caches] == [len(c) for c in exact.caches]
        assert not fast.directory._pending

    def test_histogram_same_before_and_after_expansion(self):
        fast, exact = self._machines()
        before = fast.directory.sharer_histogram()
        assert fast.directory._pending  # counted without expanding
        fast.directory.expand()
        assert not fast.directory._pending
        assert fast.directory.sharer_histogram() == before
        assert before == exact.directory.sharer_histogram()
        assert max(before) > 1


@pytest.mark.slow
def test_parity_node0_address_map():
    """Alternate home mapping changes traffic pricing, not parity."""
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    results = {}
    for policy in ("interleave", "node0"):
        results[policy] = assert_parity(
            nest, tile, 4, address_map=AddressMap(4, default_policy=policy)
        )[0]
    # Sanity: the node0 map actually re-prices traffic relative to default.
    assert (
        results["node0"].network_hops != results["interleave"].network_hops
        or results["node0"].network_messages
        == results["interleave"].network_messages
    )


def test_auto_falls_back_on_finite_capacity():
    """engine='auto' must not use the fast path when evictions can occur —
    and the fallback still produces the exact engine's numbers."""
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    auto = simulate_nest(
        nest, tile, 4, engine="auto", machine=_machine(4, cache_capacity=64)
    )
    exact = simulate_nest(
        nest, tile, 4, engine="exact", machine=_machine(4, cache_capacity=64)
    )
    assert auto == exact
    assert auto.capacity_misses > 0  # the finite cache really evicted


def test_auto_falls_back_without_caches():
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    auto = simulate_nest(
        nest, tile, 4, engine="auto", machine=_machine(4, cache_enabled=False)
    )
    exact = simulate_nest(
        nest, tile, 4, engine="exact", machine=_machine(4, cache_enabled=False)
    )
    assert auto == exact


class TestFastEngineErrors:
    def test_rejects_finite_capacity(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_capacity=64),
            )

    def test_rejects_disabled_caches(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_enabled=False),
            )

    def test_rejects_observer(self):
        nest = PROGRAMS["example8"]()
        events = []
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                observer=lambda *a: events.append(a),
            )

    def test_rejects_used_machine(self):
        nest = PROGRAMS["example8"]()
        tile = _half_tile(nest)
        machine = _machine(4)
        simulate_nest(nest, tile, 4, machine=machine)
        assert not supports_fast_path(machine)
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(nest, tile, 4, engine="fast", machine=machine)

    def test_rejects_unknown_engine(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_nest(nest, _half_tile(nest), 4, engine="warp")


def test_fast_supports_empty_processors():
    """More processors than tiles: some streams are empty."""
    nest = PROGRAMS["example3"]()
    tile = RectangularTile([int(n) for n in nest.space.extents])  # one tile
    fast, exact = (
        simulate_nest(nest, tile, 4, engine=e) for e in ("fast", "exact")
    )
    assert fast == exact
    assert sum(1 for p in fast.processors if p.iterations == 0) == 3


def test_results_identical_matrix_is_deep():
    """Spot-check a handful of derived quantities, not just __eq__."""
    nest = PROGRAMS["matmul_sync"]()
    fast, exact = assert_parity(nest, _half_tile(nest), 4)
    assert fast.total_accesses == exact.total_accesses
    assert fast.miss_rate == exact.miss_rate
    assert fast.shared_elements == exact.shared_elements
    assert [p.footprint for p in fast.processors] == [
        p.footprint for p in exact.processors
    ]
    assert np.isclose(
        fast.mean_misses_per_processor(), exact.mean_misses_per_processor()
    )


class TestEngineObservability:
    """The auto-fallback decision is recorded, not silent (SimulationResult
    engine fields, the machine metrics registry, and a log warning)."""

    def test_fast_path_records_engine(self):
        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        assert r.engine == "fast"
        assert r.engine_fallback is None

    def test_auto_fallback_reason_recorded(self, caplog):
        import logging

        from repro.sim.fast import fast_path_blockers

        nest = PROGRAMS["example8"]()
        machine = _machine(4, cache_capacity=64)
        assert fast_path_blockers(machine) == ["finite cache capacity (64 lines)"]
        with caplog.at_level(logging.WARNING):
            r = simulate_nest(
                nest, _half_tile(nest), 4, engine="auto", machine=machine
            )
        assert r.engine == "exact"
        assert "finite cache capacity" in r.engine_fallback
        assert "fell back to the exact engine" in caplog.text
        counts = machine.metrics.by_label("sim.engine.fallback", "reason")
        assert counts == {"finite cache capacity (64 lines)": 1}

    def test_explicit_fast_error_names_blockers(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="caching disabled"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_enabled=False),
            )

    def test_engine_fields_do_not_break_parity(self):
        """engine/engine_fallback are excluded from equality: fast and
        exact results still compare equal."""
        nest = PROGRAMS["example8"]()
        tile = _half_tile(nest)
        fast = simulate_nest(nest, tile, 4, engine="fast")
        exact = simulate_nest(nest, tile, 4, engine="exact")
        assert fast.engine != exact.engine
        assert fast == exact


class TestHistoryReplayedLines:
    """Write-shared lines are accounted once per distinct line history;
    their recorded end state must carry on exactly as the exact engine's
    machine does."""

    @staticmethod
    def _machines():
        nest = PROGRAMS["figure9"]()
        tile = _half_tile(nest)
        fast = simulate_nest(nest, tile, 4, engine="fast").machine
        exact = simulate_nest(nest, tile, 4, engine="exact").machine
        return fast, exact

    def test_scalar_access_after_invalidation_matches_exact(self):
        fast, exact = self._machines()
        invalidated = {
            addr: procs for addr, procs in fast.directory._invalidated_at.items() if procs
        }
        assert invalidated
        addr, procs = min(invalidated.items())
        array, line = addr
        reader = min(procs)
        writer = (reader + 1) % 4
        coherence = int(fast.directory.stats.coherence_misses)
        # A coherence miss (the reader's copy was invalidated), then a
        # write that takes the copies down again.
        for acc in [(reader, array, line, "read"), (writer, array, line, "write")]:
            assert fast.access(*acc) == exact.access(*acc)
        assert fast.directory.stats.coherence_misses == coherence + 1
        for p in range(4):
            assert fast.caches[p].stats == exact.caches[p].stats
        assert fast.directory.stats == exact.directory.stats
        assert fast.metrics.by_label(
            "sim.directory.miss_class", "kind"
        ) == exact.metrics.by_label("sim.directory.miss_class", "kind")
        assert fast.metrics.snapshot() == exact.metrics.snapshot()
        assert fast.end_state() == exact.end_state()

    def test_block_homes_on_a_ring(self):
        """Per-home pricing of the replayed histories: blocked homes make
        both local and remote misses, a ring network re-prices hops."""
        nest = PROGRAMS["figure9"]()
        homes = block_address_map(
            4, {"B": ((0, -1, -2), (4, 5, 10), np.arange(4).reshape(2, 2, 1))}
        )
        fast, _ = assert_parity(
            nest,
            _half_tile(nest),
            4,
            address_map=homes,
            network=lambda registry: GraphNetwork(
                nx.cycle_graph(4), registry=registry
            ),
        )
        assert fast.coherence_misses > 0
        assert sum(p.local_misses for p in fast.processors) > 0
        assert sum(p.remote_misses for p in fast.processors) > 0

    def test_sequential_interleave(self):
        nest = PROGRAMS["figure9"]()
        fast, _ = assert_parity(nest, _half_tile(nest), 4, interleave="sequential")
        assert fast.coherence_misses > 0
