"""Tests for the composed machine model and address maps."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.sim.machine import Machine, MachineConfig
from repro.sim.memory import AddressMap, block_address_map, flat_address_map
from repro.sim.network import GraphNetwork


class TestAddressMap:
    def test_interleave_stable(self):
        am = flat_address_map(4)
        h1 = am.home("A", (1, 2))
        h2 = am.home("A", (1, 2))
        assert h1 == h2
        assert 0 <= h1 < 4

    def test_node0_policy(self):
        am = AddressMap(4, default_policy="node0")
        assert am.home("A", (9, 9)) == 0

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            AddressMap(4, default_policy="bogus")

    def test_block_map(self):
        g2n = np.array([[0, 1], [2, 3]])
        am = AddressMap(4)
        am.set_block_map("A", (0, 0), (5, 5), g2n)
        assert am.home("A", (0, 0)) == 0
        assert am.home("A", (4, 9)) == 1
        assert am.home("A", (5, 0)) == 2
        assert am.home("A", (9, 9)) == 3

    def test_block_map_clamps_overflow(self):
        g2n = np.array([[0, 1]])
        am = AddressMap(2)
        am.set_block_map("A", (0, 0), (2, 2), g2n)
        assert am.home("A", (100, 100)) == 1  # clamped to last block

    def test_homes_vector_matches_scalar(self):
        g2n = np.arange(6).reshape(2, 3)
        am = AddressMap(6)
        am.set_block_map("A", (1, 1), (3, 4), g2n)
        coords = np.array([[1, 1], [3, 1], [1, 5], [4, 12]])
        vec = am.homes_vector("A", coords)
        for c, h in zip(coords, vec):
            assert am.home("A", tuple(int(x) for x in c)) == int(h)

    def test_block_address_map_helper(self):
        am = block_address_map(
            2, {"A": ((0,), (5,), np.array([0, 1]))}
        )
        assert am.home("A", (0,)) == 0
        assert am.home("A", (7,)) == 1

    def test_validation(self):
        am = AddressMap(2)
        with pytest.raises(ValueError):
            am.set_block_map("A", (0,), (0,), np.array([0]))
        with pytest.raises(ValueError):
            am.set_block_map("A", (0, 0), (1, 1), np.array([0]))
        with pytest.raises(ValueError):
            AddressMap(0)


class TestMachine:
    def test_int_shorthand(self):
        m = Machine(4)
        assert m.p == 4

    def test_read_write_paths(self):
        m = Machine(2)
        assert not m.access(0, "A", (0,), "read")   # miss
        assert m.access(0, "A", (0,), "read")        # hit
        assert not m.access(1, "A", (0,), "write")   # miss + invalidate 0
        assert not m.access(0, "A", (0,), "read")    # coherence miss
        assert m.directory.stats.invalidations == 1
        assert m.directory.stats.coherence_misses == 1
        m.check()

    def test_sync_is_write(self):
        m = Machine(2)
        m.access(0, "C", (0, 0), "sync")
        from repro.sim.cache import LineState

        assert m.caches[0].state(("C", (0, 0))) is LineState.MODIFIED

    def test_bad_kind(self):
        m = Machine(1)
        with pytest.raises(SimulationError):
            m.access(0, "A", (0,), "fetch")

    def test_bad_processor(self):
        m = Machine(1)
        with pytest.raises(SimulationError):
            m.access(1, "A", (0,), "read")

    def test_local_vs_remote_accounting(self):
        am = AddressMap(2, default_policy="node0")
        m = Machine(MachineConfig(processors=2, local_cost=1, remote_cost=5), address_map=am)
        m.access(0, "A", (0,), "read")   # home 0, local
        m.access(1, "A", (1,), "read")   # home 0, remote for proc 1
        assert m.local_miss_count[0] == 1
        assert m.remote_miss_count[1] == 1
        assert m.memory_cost[0] == 1 and m.memory_cost[1] == 5

    def test_network_traffic_counted(self):
        am = AddressMap(4, default_policy="node0")
        m = Machine(MachineConfig(processors=4), address_map=am)
        m.access(3, "A", (0,), "read")
        assert m.network.messages == 2
        assert m.network.hops == 2 * m.network.distance(3, 0)

    def test_upgrade_messages(self):
        m = Machine(2)
        m.access(0, "A", (0,), "read")
        m.access(1, "A", (0,), "read")
        m.access(0, "A", (0,), "write")  # upgrade, invalidate 1
        assert m.caches[0].stats.write_upgrades == 1
        assert m.directory.stats.invalidations == 1
        m.check()

    def test_flush_caches(self):
        m = Machine(1)
        m.access(0, "A", (0,), "read")
        m.flush_caches()
        assert not m.access(0, "A", (0,), "read")  # miss again
        assert m.caches[0].stats.read_misses == 2

    def test_finite_cache_capacity_evictions(self):
        m = Machine(MachineConfig(processors=1, cache_capacity=2))
        for i in range(4):
            m.access(0, "A", (i,), "read")
        assert m.caches[0].stats.evictions == 2
        # re-access evicted line: capacity miss
        m.access(0, "A", (0,), "read")
        assert m.directory.stats.capacity_misses == 1
        m.check()

    def test_total_counters(self):
        m = Machine(1)
        m.access(0, "A", (0,), "read")
        m.access(0, "A", (0,), "read")
        assert m.total_accesses == 2
        assert m.total_misses == 1


def _write_shared_events(processors: int, n: int = 1500, seed: int = 0):
    """A seeded stream of reads, writes and syncs by every processor over
    a small 2-D array, so lines are write-shared and coherence traffic
    (invalidations, downgrades, remote owners) is heavy."""
    rng = np.random.default_rng(seed)
    kinds = ("read", "read", "write", "sync")
    return [
        (int(p), "B", (int(i), int(j)), kinds[int(k)])
        for p, i, j, k in zip(
            rng.integers(0, processors, n),
            rng.integers(0, 6, n),
            rng.integers(0, 6, n),
            rng.integers(0, len(kinds), n),
        )
    ]


def _snapshot(machine: Machine) -> dict:
    """Every counter and histogram in the machine's registry."""
    out = {}
    for m in machine.metrics:
        if isinstance(m, Counter):
            out[m.name, m.labels] = m.value
        elif isinstance(m, Histogram):
            out[m.name, m.labels] = (dict(m.bins), m.count, m.total)
    return out


def _graph_machine(processors: int) -> Machine:
    registry = MetricsRegistry()
    return Machine(
        MachineConfig(processors=processors),
        registry=registry,
        network=GraphNetwork(nx.cycle_graph(processors), registry=registry),
    )


_MACHINES = {
    "mesh-p64": lambda: Machine(MachineConfig(processors=64)),
    "graph-ring": lambda: _graph_machine(6),
    "uncached": lambda: Machine(MachineConfig(processors=8, cache_enabled=False)),
}


class TestReplay:
    """``Machine.replay`` is a loop of ``access`` with batched accounting."""

    @pytest.mark.parametrize("make", list(_MACHINES.values()), ids=list(_MACHINES))
    def test_matches_access_loop(self, make):
        looped, replayed = make(), make()
        events = _write_shared_events(looped.p)
        for event in events:
            looped.access(*event)
        replayed.replay(events)
        assert int(looped.network.messages) > 0
        assert _snapshot(replayed) == _snapshot(looped)
        assert replayed.end_state() == looped.end_state()
        replayed.check()

    def test_tallies_survive_a_failing_event(self):
        looped, replayed = Machine(16), Machine(16)
        events = _write_shared_events(16, n=400)
        events.insert(300, (3, "B", (0, 0), "fetch"))
        with pytest.raises(SimulationError, match="unknown access kind"):
            replayed.replay(events)
        for event in events[:300]:
            looped.access(*event)
        with pytest.raises(SimulationError, match="unknown access kind"):
            looped.access(*events[300])
        assert int(replayed.network.messages) > 0
        assert _snapshot(replayed) == _snapshot(looped)
        assert replayed.end_state() == looped.end_state()

    def test_observer_sees_every_event(self):
        looped, replayed = Machine(8), Machine(8)
        seen_loop, seen_replay = [], []
        looped.observer = lambda *a: seen_loop.append(a)
        replayed.observer = lambda *a: seen_replay.append(a)
        events = _write_shared_events(8, n=300)
        hits = [looped.access(*event) for event in events]
        replayed.replay(events)
        assert seen_replay == seen_loop
        assert [a[:4] for a in seen_replay] == events
        assert [a[4] for a in seen_replay] == hits
        assert any(hits) and not all(hits)


class TestDeterministicHoming:
    def test_mix_is_process_independent(self):
        """The interleave hash must not depend on PYTHONHASHSEED."""
        import os
        import subprocess
        import sys

        import repro

        # The child needs to import repro too; point it at whatever src/
        # directory this interpreter loaded the package from.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "from repro.sim.memory import flat_address_map;"
            "am = flat_address_map(7);"
            "print([am.home('A', (i, 2*i)) for i in range(10)])"
        )
        outs = set()
        for seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": src_dir,
                },
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1, outs

    def test_mix_spreads(self):
        am = flat_address_map(8)
        homes = {am.home("A", (i, j)) for i in range(8) for j in range(8)}
        assert len(homes) == 8  # all nodes used
