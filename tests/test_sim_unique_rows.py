"""The fast engine's row-uniquing primitive against ``np.unique``.

:func:`repro.sim.fast._unique_rows` indexes a dense bounding box when it
is small next to the row count and sorts integer keys otherwise; both
must give ``np.unique(rows, axis=0, return_inverse=True)`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.fast import _unique_rows


def assert_matches_numpy(rows, monkeypatch, sorts):
    """Compare with ``np.unique``, and count the calls ``_unique_rows``
    itself makes to it: ``sorts == 0`` means the dense index ran."""
    want_uniq, want_inv = np.unique(rows, axis=0, return_inverse=True)
    calls = []
    real = np.unique

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "unique", spy)
        uniq, inv = _unique_rows(rows)
    assert len(calls) == sorts
    assert uniq.dtype == rows.dtype
    assert uniq.shape == want_uniq.shape
    np.testing.assert_array_equal(uniq, want_uniq)
    np.testing.assert_array_equal(inv, want_inv.reshape(-1))
    np.testing.assert_array_equal(uniq[inv], rows)


def _rows(rng, n, d, low, high, scale=1):
    return rng.integers(low, high, size=(n, d), dtype=np.int64) * scale


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dense_box(d, monkeypatch):
    """Many repeats inside a small box: the dense index runs, no sort."""
    rows = _rows(np.random.default_rng(d), 5000, d, -4, 6)
    assert len(np.unique(rows, axis=0)) < len(rows)
    assert_matches_numpy(rows, monkeypatch, sorts=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sparse_box(d, monkeypatch):
    """Coordinates at stride 1,000: the box dwarfs the rows, so the keys
    are sorted instead."""
    rows = _rows(np.random.default_rng(10 + d), 400, d, -20, 20, scale=1000)
    assert_matches_numpy(rows, monkeypatch, sorts=1)


def test_box_past_62_bits(monkeypatch):
    rng = np.random.default_rng(3)
    rows = _rows(rng, 300, 3, -3, 3)
    rows[:, 0] *= 2**40
    rows[:, 1] *= 2**30
    assert_matches_numpy(rows, monkeypatch, sorts=1)


def test_negative_coordinates_and_single_column(monkeypatch):
    rows = np.array([[-3], [5], [-3], [-7], [5], [0]], dtype=np.int64)
    assert_matches_numpy(rows, monkeypatch, sorts=0)
    uniq, inv = _unique_rows(rows)
    assert uniq.ravel().tolist() == [-7, -3, 0, 5]
    assert inv.tolist() == [1, 3, 1, 0, 3, 2]


def test_zero_rows():
    rows = np.empty((0, 3), dtype=np.int64)
    uniq, inv = _unique_rows(rows)
    assert uniq.shape == (0, 3)
    assert inv.shape == (0,) and inv.dtype == np.int64


def test_single_row_and_constant_column(monkeypatch):
    for rows in ([[2, -9, 4]], [[1, 7], [0, 7], [1, 7]]):
        assert_matches_numpy(np.array(rows, dtype=np.int64), monkeypatch, sorts=0)
