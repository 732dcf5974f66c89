"""Reference classification (Definitions 4-6, Example 5, Appendix B).

* Two references *intersect* when some pair of iterations touches the same
  array element (Definition 4) — an integer feasibility question solved
  exactly with the Smith normal form.
* Two references are *uniformly generated* when they share the ``G``
  matrix (Definition 5).
* *Uniformly intersecting* = both (Definition 6).  The loop body is
  partitioned into maximal classes of uniformly intersecting references
  (:func:`partition_references`); footprints of distinct classes overlap
  little or not at all, so their traffic adds (Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lattice.snf import solve_integer
from .affine import AccessKind, AffineRef, ArrayAccess
from .spread import spread_vector

__all__ = [
    "references_intersect",
    "uniformly_generated",
    "uniformly_intersecting",
    "UISet",
    "partition_references",
]


def references_intersect(r: AffineRef, s: AffineRef) -> bool:
    """Definition 4: do integer iterations ``i1, i2`` exist with
    ``g_r(i1) = g_s(i2)``?

    Solves ``i1·G_r − i2·G_s = a_s − a_r`` for integer ``(i1, i2)`` by
    stacking the two reference matrices.  References to different arrays
    never intersect (aliasing resolved, Section 3.3).

    Examples
    --------
    >>> import numpy as np
    >>> a = AffineRef("A", [[2]], [0])   # A[2i]
    >>> b = AffineRef("A", [[2]], [1])   # A[2i+1]
    >>> references_intersect(a, b)
    False
    """
    if r.array != s.array:
        return False
    if r.array_dim != s.array_dim:
        return False
    stacked = np.vstack([r.g, -s.g])
    rhs = s.offset - r.offset
    return solve_integer(stacked, rhs) is not None


def uniformly_generated(r: AffineRef, s: AffineRef) -> bool:
    """Definition 5: same array, same ``G`` matrix."""
    return (
        r.array == s.array
        and r.g.shape == s.g.shape
        and bool(np.all(r.g == s.g))
    )


def uniformly_intersecting(r: AffineRef, s: AffineRef) -> bool:
    """Definition 6: uniformly generated *and* intersecting.

    For uniformly generated references the intersection test reduces to
    ``a_s − a_r`` lying in the row lattice of ``G`` (the iteration-space
    difference ``x`` with ``x·G = a_s − a_r`` — cf. Theorem 3 with
    unbounded coefficients, since Definition 4 places no bounds).
    """
    if not uniformly_generated(r, s):
        return False
    return solve_integer(r.g, s.offset - r.offset) is not None


class _cached:
    """``functools.cached_property`` without its lock.

    Before Python 3.12 that lock is shared by every instance; a process
    pool forked while a server thread holds it leaves the child blocked
    for good.  Two threads racing here compute equal values, so the last
    write winning is harmless.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class UISet:
    """A maximal class of uniformly intersecting references.

    Attributes
    ----------
    accesses:
        The member accesses (reference + read/write kind).
    """

    accesses: tuple[ArrayAccess, ...]

    def __post_init__(self):
        if not self.accesses:
            raise ValueError("a UISet needs at least one access")

    @property
    def array(self) -> str:
        return self.accesses[0].ref.array

    @property
    def g(self) -> np.ndarray:
        """The shared reference matrix ``G``."""
        return self.accesses[0].ref.g

    @property
    def refs(self) -> tuple[AffineRef, ...]:
        return tuple(a.ref for a in self.accesses)

    @property
    def offsets(self) -> np.ndarray:
        """``(R, d)`` matrix of the members' offset vectors."""
        return np.vstack([r.offset for r in self.refs])

    @property
    def size(self) -> int:
        return len(self.accesses)

    def spread(self) -> np.ndarray:
        """The class's spread vector ``â`` (Definition 8)."""
        return spread_vector(self.offsets)

    def has_write(self) -> bool:
        """Does any member write (or sync-accumulate, Appendix A)?"""
        return any(a.kind.is_write_like for a in self.accesses)

    def base_ref(self) -> AffineRef:
        """A canonical member (minimal offset lexicographically)."""
        order = np.lexsort(self.offsets.T[::-1])
        return self.refs[int(order[0])]

    @_cached
    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Column-reduced class: shared ``G′`` plus per-member offsets.

        Zero columns are dropped first (Example 1), then a maximal
        independent column set is kept (Section 3.4.1).  Within a
        uniformly intersecting class this preserves footprint sizes and
        overlaps exactly (see :meth:`AffineRef.reduce_columns`).

        The exact-integer column selection is the costly part of every
        footprint evaluation, so it runs once per class; both arrays are
        read-only because every caller shares them.
        """
        base = self.base_ref().drop_zero_columns()
        cols_nonzero = [c for c in range(self.g.shape[1]) if self.g[:, c].any()]
        keep = [cols_nonzero[c] for c in base.reduced_columns()]
        g = self.g[:, keep]
        offsets = self.offsets[:, keep]
        g.setflags(write=False)
        offsets.setflags(write=False)
        return g, offsets

    @_cached
    def reduced_spread(self) -> np.ndarray:
        """The spread ``â`` of the reduced offsets, cached and read-only."""
        a_hat = spread_vector(self.reduced[1])
        a_hat.setflags(write=False)
        return a_hat

    def __getstate__(self):
        # Pickles carry the accesses only; the receiver re-derives the
        # cached reduction (unpickled arrays would come back writeable).
        state = dict(self.__dict__)
        state.pop("reduced", None)
        state.pop("reduced_spread", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UISet{" + ", ".join(repr(a.ref) for a in self.accesses) + "}"


def partition_references(
    accesses, *, merge_policy: str = "transitive"
) -> list[UISet]:
    """Partition body accesses into maximal uniformly intersecting classes.

    ``merge_policy='transitive'`` (default) takes the transitive closure of
    the pairwise uniformly-intersecting relation, matching the paper's
    "divide the references into multiple disjoint sets".  Since the
    uniformly generated + same-coset relation *is* an equivalence (offsets
    differing by row-lattice vectors), transitivity costs nothing here.

    Duplicate references (same ``(G, a)`` and kind) are kept: they occupy
    one footprint but both appear, which matters only for access counting,
    not footprint size.

    Returns classes in first-appearance order.

    Examples
    --------
    Example 10's five references split into four classes: {B, B}, {C(i,2i,
    i+2j-1), C(i,2i,i+2j+1)}, {C(i+1,2i+2,i+2j+1)}, {A}.
    """
    accs = [a if isinstance(a, ArrayAccess) else ArrayAccess(a) for a in accesses]
    classes: list[list[ArrayAccess]] = []
    for acc in accs:
        placed = False
        for cls in classes:
            if merge_policy == "transitive":
                hit = any(uniformly_intersecting(acc.ref, m.ref) for m in cls)
            else:
                hit = all(uniformly_intersecting(acc.ref, m.ref) for m in cls)
            if hit:
                cls.append(acc)
                placed = True
                break
        if not placed:
            classes.append([acc])
    return [UISet(tuple(cls)) for cls in classes]
