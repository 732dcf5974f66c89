"""The Theorem-2 objective kernel against the plain reference in the checker.

The kernel (:func:`repro.core.cumulative.cumulative_footprint_size`)
caches each class's column reduction and evaluates its ``d+1``
determinants in one batched call.  Neither may change a bit of the
output: SLSQP's finite differences, and so every chosen tile, depend on
exact objective values.
"""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.check.invariants import theorem2_class_reference, theorem2_reference
from repro.core import optimize as _opt
from repro.core.affine import AffineRef, ArrayAccess
from repro.core.classify import UISet, partition_references
from repro.core.cumulative import cumulative_footprint_size
from repro.core.optimize import _FloatTile, _theorem2_objective, optimize_parallelepiped
from repro.exceptions import SingularMatrixError
from repro.lang import compile_nest


def uiset(array, g, offsets):
    return UISet(tuple(ArrayAccess(AffineRef(array, g, o)) for o in offsets))


def _random_ls(depth: int, seed: int, n: int = 200):
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 4 == 0:
            # Integer matrices, the shape rounding candidates take.
            yield rng.integers(-6, 7, size=(depth, depth)).astype(float)
        else:
            yield rng.normal(scale=5.0, size=(depth, depth))


def _assert_bit_identical(sets, depth, seed):
    for lm in _random_ls(depth, seed):
        for s in sets:
            assert cumulative_footprint_size(s, _FloatTile(lm)) == (
                theorem2_class_reference(s, lm)
            )
        assert _theorem2_objective(sets, lm.ravel(), depth) == theorem2_reference(
            sets, lm
        )


class TestBitIdentity:
    def test_example3(self, example3_nest):
        _assert_bit_identical(partition_references(example3_nest.accesses), 2, 3)

    def test_example8(self, example8_nest):
        _assert_bit_identical(partition_references(example8_nest.accesses), 3, 8)

    def test_example9(self, example9_nest):
        _assert_bit_identical(partition_references(example9_nest.accesses), 2, 9)

    def test_zero_spread_components(self):
        sets = [
            uiset("A", np.eye(2, dtype=int), [[0, 0]]),  # single member: â = 0
            uiset("B", np.eye(2, dtype=int), [[0, 0], [0, 3]]),  # â = (0, 3)
            uiset("C", np.eye(3, dtype=int)[:2], [[0, 1, 0], [2, 1, 0]]),
        ]
        _assert_bit_identical(sets, 2, 11)

    def test_zero_and_dependent_columns(self):
        # A(i, 5, i+2j, i+j): one zero column, one dependent column.
        g = [[1, 0, 1, 1], [0, 0, 2, 1]]
        sets = [uiset("A", g, [[0, 5, 0, 0], [1, 5, 3, 2]])]
        _assert_bit_identical(sets, 2, 12)

    def test_singular_l(self, example9_nest):
        sets = partition_references(example9_nest.accesses)
        for lm in (
            np.zeros((2, 2)),
            np.array([[1.0, 2.0], [2.0, 4.0]]),
            np.array([[3.0, -1.5], [0.0, 0.0]]),
        ):
            value = _theorem2_objective(sets, lm.ravel(), 2)
            assert value == theorem2_reference(sets, lm)
            assert np.isfinite(value)

    def test_non_square_lg_raises(self):
        # A(i+j) under a 2-deep nest: G′ is 2×1, so L·G′ is not square.
        s = uiset("A", [[1], [1]], [[0], [1]])
        lm = np.eye(2)
        with pytest.raises(SingularMatrixError):
            cumulative_footprint_size(s, _FloatTile(lm))
        with pytest.raises(SingularMatrixError):
            theorem2_class_reference(s, lm)


class TestOptimizerUnchanged:
    def test_reference_objective_gives_same_result(self, monkeypatch):
        nest = compile_nest(
            """
            Doall (i, 1, N)
              Doall (j, 1, N)
                A[i,j] = B[i,j] + B[i+1,j+3]
              EndDoall
            EndDoall
            """,
            {"N": 12},
        )
        sets = partition_references(nest.accesses)
        fast = optimize_parallelepiped(sets, volume=36.0, extra_starts=1)
        calls = []

        def reference(s, tile):
            calls.append(s)
            return theorem2_class_reference(s, tile.l_matrix)

        monkeypatch.setattr(_opt, "cumulative_footprint_size", reference)
        ref = optimize_parallelepiped(sets, volume=36.0, extra_starts=1)
        assert calls
        assert np.array_equal(fast.l_matrix, ref.l_matrix)
        assert fast.winner == ref.winner
        assert fast.member_objectives == ref.member_objectives
        assert fast.objective == ref.objective


class TestCachedReduction:
    def test_arrays_read_only_and_shared(self, example9_nest):
        for s in partition_references(example9_nest.accesses):
            g, offsets = s.reduced
            assert s.reduced is s.reduced
            for arr in (g, offsets, s.reduced_spread):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_cache_not_part_of_equality(self, example3_nest):
        a = partition_references(example3_nest.accesses)
        b = partition_references(example3_nest.accesses)
        a[0].reduced  # warm one side only
        assert a == b and hash(a[0]) == hash(b[0])

    def test_pickle_drops_cache(self, example3_nest):
        s = partition_references(example3_nest.accesses)[0]
        g, _offsets = s.reduced
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert "reduced" not in clone.__dict__
        assert np.array_equal(clone.reduced[0], g)
        assert not clone.reduced[0].flags.writeable

    def test_pickled_sets_same_portfolio_under_workers(self):
        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 1]),
        ]
        sets = partition_references(refs)
        _theorem2_objective(sets, np.eye(2).ravel(), 2)  # warm the caches
        serial = optimize_parallelepiped(sets, volume=16.0, workers=1)
        fanned = optimize_parallelepiped(sets, volume=16.0, workers=2)
        assert np.array_equal(serial.l_matrix, fanned.l_matrix)
        assert serial.objective == fanned.objective
        assert serial.winner == fanned.winner
        assert serial.member_objectives == fanned.member_objectives

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_during_reduction_does_not_block_child(self, monkeypatch):
        # A serve worker pool can fork while a request thread is inside
        # the reduction; the child must still compute its own reductions.
        original = AffineRef.reduced_columns

        def slow(ref):
            time.sleep(0.5)
            return original(ref)

        monkeypatch.setattr(AffineRef, "reduced_columns", slow)
        busy = uiset("B", np.eye(2, dtype=int), [[0, 0], [1, 3]])
        thread = threading.Thread(target=lambda: busy.reduced)
        thread.start()
        time.sleep(0.1)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            uiset("C", np.eye(2, dtype=int), [[0, 0], [2, 1]]).reduced
            os._exit(0)
        deadline = time.monotonic() + 10.0
        finished = 0
        while not finished and time.monotonic() < deadline:
            finished, _status = os.waitpid(pid, os.WNOHANG)
            time.sleep(0.05)
        if not finished:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert finished, "forked child blocked computing a class reduction"
