"""Structure-keyed partition plans — solve Sec 3.6 once per loop *shape*.

A request family is one loop structure (``G`` matrices, offset spreads,
read/write mix) instantiated with many different bounds ``N`` and
processor counts ``P``.  The numeric optimiser re-derives the same
rational solves, kernel bases, and cost model for every member; this
module quotients the family down to its :func:`~repro.core.structure.
structure_key` and caches a *solved plan*:

* per class, the Theorem-4 spread coefficients ``u`` (the
  partition-sensitive polynomial ``Π s_j + Σ_i u_i Π_{j≠i} s_j``), or —
  when Theorem 4 is inapplicable but the reduced ``G``'s nonzero rows
  are independent — the exact *box-union* form (inclusion–exclusion
  over the members' integer shifts, a piecewise polynomial in the tile
  sides), plus the integer-kernel mask that drives the write-coherence
  penalty;
* the summed per-dimension traffic coefficients ``A_i`` that seed the
  continuous Lagrange optimum;
* the parametric Theorem-2 cost polynomial (for the instantiation-time
  sanity check and for display).

:func:`instantiate_plan` then evaluates the stored closed forms for a
concrete ``(extents, P)``: the same feasible processor-grid enumeration
as :func:`~repro.core.optimize.optimize_rectangular`, scored in one
vectorised sweep, with the same ``(cost, distance, grid)`` tie-break —
so a plan hit reproduces the numeric optimiser's answer bit-for-bit on
the classes it can express, at polynomial-evaluation cost.

Whenever the closed forms are inapplicable (a class that is neither
Theorem-4 nor a product), the instantiation is numerically risky (huge
volumes), or the plan's integer cost fails the Theorem-2 cross-check,
:func:`plan_optimize` returns ``None`` and records the fallback — the
caller simply continues into the numeric grid search, exactly like
``engine="auto"`` records its engine choice.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .._util import int_rank
from ..exceptions import SingularMatrixError
from ..lattice.points import _CacheMetrics
from ..lattice.snf import integer_kernel_basis, solve_integer
from ..obs.tracing import span as _span
from .cumulative import spread_coefficients
from .loopnest import IterationSpace
from .optimize import RectOptResult, _candidate_tile, _continuous_lagrange, factorizations
from .structure import canonical_class_order, structure_key
from .symbolic import RectFootprintPolynomial, class_polynomial_from_u
from .tiles import RectangularTile

__all__ = [
    "SOLVER_VERSION",
    "VALIDATE_FACTOR",
    "solve_plan",
    "instantiate_plan",
    "PlanCache",
    "DEFAULT_PLAN_CACHE",
    "plan_optimize",
]

#: Payload schema version, stored in every solved plan.  Payloads from a
#: different solver version are re-solved instead of instantiated.
SOLVER_VERSION = 1

#: Instantiation sanity check: the best integer grid's cost must stay
#: within this factor of the continuous Theorem-2 lower bound evaluated
#: at the Lagrange optimum.  Integerisation (ceil sides) and the write
#: penalty can legitimately exceed the continuous bound by a wide margin
#: on small extents, so this is a safety net against a corrupted or
#: stale payload, not a tight check.
VALIDATE_FACTOR = 32.0

#: Above this iteration-space volume the vectorised float scoring can no
#: longer guarantee exactly-represented side products (box-union terms
#: carry inclusion–exclusion coefficients up to ``2^_MAX_UNION_MEMBERS``
#: on top of the tile volume) — fall back to the numeric path rather
#: than risk a rounding-divergent tie-break.
_EXACT_VOLUME_LIMIT = 2.0**40

#: Classes with more members than this get no box-union form (the
#: inclusion–exclusion has ``2^m − 1`` subsets) — they fall back.
_MAX_UNION_MEMBERS = 8

#: Largest value range the 1-D "line" evaluation will materialise as a
#: bitset (Section 3.8's table-lookup path).  Beyond this the class
#: falls back to the numeric optimiser.
_LINE_RANGE_LIMIT = 1 << 22


def _box_union_terms(shifts) -> list[tuple[tuple[int, ...], int]]:
    """Inclusion–exclusion form of a union of same-size shifted boxes.

    ``|∪_j (B + t_j)| = Σ_{(w, c)} c · Π_i max(0, s_i − w_i)`` where each
    ``w`` is the per-dimension shift width (max − min) of one subset of
    members and ``c`` the net inclusion–exclusion sign count.  Exact for
    every side vector ``s`` — the kinks at ``s_i = w_i`` are what makes
    the form piecewise rather than plainly polynomial.
    """
    from itertools import combinations

    uniq = sorted(set(shifts))
    acc: dict[tuple[int, ...], int] = {}
    for r in range(1, len(uniq) + 1):
        sign = 1 if r % 2 == 1 else -1
        for sub in combinations(uniq, r):
            w = tuple(max(v) - min(v) for v in zip(*sub))
            acc[w] = acc.get(w, 0) + sign
    return sorted((w, c) for w, c in acc.items() if c != 0)


def _line_count(coeffs, shifts, sides) -> float:
    """Exact distinct-value count of ``{Σ_i c_i·x_i} + shifts`` (1-D).

    ``coeffs`` are ``(dim, c)`` pairs with ``c > 0``; ``x_dim`` ranges
    over ``[0, sides[dim])``; ``shifts`` are the members' scalar offsets
    (min 0).  Builds the reachable-value bitset by dilating with each
    arithmetic progression in doubling steps — ``O(range · log side)``
    boolean work, exact for any sides.  This is the paper's Section 3.8
    "table lookup" answer for the ``d = 1`` footprints that have no
    closed polynomial form.
    """
    r = sum(c * (int(sides[d]) - 1) for d, c in coeffs) + max(shifts)
    reach = np.zeros(r + 1, dtype=bool)
    reach[list(shifts)] = True
    for d, c in coeffs:
        n = int(sides[d]) - 1
        step = 1
        while n > 0:
            take = min(step, n)
            shift = c * take
            reach[shift:] |= reach[: reach.size - shift]
            n -= take
            step *= 2
    return float(np.count_nonzero(reach))


def solve_plan(uisets, depth: int) -> dict:
    """Derive the parametric closed forms of one structure (pure JSON).

    Walks the classes in :func:`canonical_class_order` so the payload —
    including every float summation order — is a pure function of the
    structure key.  The payload is JSON-serialisable (lists, numbers,
    strings, booleans, None) so it survives the
    :mod:`repro.lattice.persist` round trip and process-pool pickling.
    """
    ordered = canonical_class_order(uisets)
    l = int(depth)
    a = np.zeros(l, dtype=float)
    classes: list[dict] = []
    names = tuple(f"s{i}" for i in range(l))
    poly = RectFootprintPolynomial.from_dict({}, names)
    applicable = True
    reason = None
    for s in ordered:
        ker = integer_kernel_basis(s.g)
        mask = (
            [bool(np.any(ker[:, k] != 0)) for k in range(l)]
            if ker.size
            else [False] * l
        )
        entry: dict = {
            "u": None,
            "union": None,
            "line": None,
            "kernel_mask": mask,
            "penalized": bool(s.has_write() and ker.size),
        }
        try:
            u = spread_coefficients(s)
        except SingularMatrixError:
            u = None
        if u is not None:
            # Theorem-4 class: footprint Π s_j + Σ_i u_i Π_{j≠i} s_j,
            # the exact expression _class_footprint evaluates.
            entry["u"] = [float(x) for x in u]
            poly = poly + class_polynomial_from_u(u, names)
            if s.size > 1 and np.any(s.spread()):
                # Same accumulation rule as rect_cost_coefficients (and
                # its singular-class fallback): only classes with a
                # nonzero spread steer the continuous seed.
                a += u
        else:
            # No Theorem-4 coefficients.  When the nonzero rows of the
            # reduced G are independent, x ↦ x·G′ is injective on those
            # coordinates, so the class's exact union is a union of
            # same-size boxes shifted by the members' integer solutions
            # of ``x_j·G′ = o_j − o_0`` — closed under inclusion–
            # exclusion, bit-identical to what the numeric path counts
            # by enumeration.  Dependent nonzero rows (e.g. a 1-D array
            # folding two loop dimensions) have no closed form here —
            # the paper itself resorts to table lookup for those.
            g_red, off_red = s.reduced
            nz = [i for i in range(g_red.shape[0]) if np.any(g_red[i, :] != 0)]
            independent = not nz or int_rank(g_red[nz, :]) == len(nz)
            if not independent and g_red.shape[1] == 1:
                # 1-D array folding several loop dimensions: exact count
                # via the Section 3.8 table-lookup form.  Sign flips of a
                # coefficient translate the value set without resizing
                # it, so absolute values canonicalise.
                base = int(off_red[:, 0].min())
                entry["line"] = {
                    "coeffs": [[int(i), abs(int(g_red[i, 0]))] for i in nz],
                    "shifts": sorted({int(o) - base for o in off_red[:, 0]}),
                }
                poly = poly + RectFootprintPolynomial.from_dict(
                    {(int(i),): float(abs(int(g_red[i, 0]))) for i in nz}, names
                )
                classes.append(entry)
                continue
            shifts: list[tuple[int, ...]] | None = []
            if not independent:
                shifts, why = None, "singular-class"
            elif s.size > _MAX_UNION_MEMBERS:
                shifts, why = None, "class-too-large"
            elif not nz:
                shifts = [()]
            else:
                for j in range(off_red.shape[0]):
                    x = solve_integer(g_red, off_red[j] - off_red[0])
                    if x is None:  # pragma: no cover - uniform intersection
                        shifts, why = None, "no-integer-shift"
                        break
                    shifts.append(tuple(int(x[i]) for i in nz))
            if shifts is not None:
                terms = _box_union_terms(shifts)
                entry["union"] = {
                    "dims": [int(i) for i in nz],
                    "terms": [[list(w), int(c)] for w, c in terms],
                }
                poly = poly + RectFootprintPolynomial.monomial(nz, names)
            else:
                applicable = False
                reason = why
        classes.append(entry)
    return {
        "version": SOLVER_VERSION,
        "depth": l,
        "applicable": applicable,
        "reason": reason,
        "a": [float(x) for x in a],
        "classes": classes,
        "cost_poly": poly.to_payload(),
    }


def instantiate_plan(
    payload: dict, extents, processors: int
) -> tuple[RectOptResult | None, str | None]:
    """Evaluate a solved plan for concrete bounds and processor count.

    Returns ``(result, None)`` on success or ``(None, reason)`` when the
    numeric optimiser must run instead.  The scoring replays
    ``optimize_rectangular``'s grid search — same feasible set, same
    per-class arithmetic (term order included), same
    ``(cost, distance, grid)`` tie-break — as one vectorised sweep.
    """
    if not isinstance(payload, dict) or payload.get("version") != SOLVER_VERSION:
        return None, "stale-payload"
    l = int(payload["depth"])
    ext = np.asarray(extents, dtype=np.int64)
    if ext.shape != (l,):
        return None, "depth-mismatch"
    if not payload.get("applicable"):
        return None, str(payload.get("reason") or "inapplicable")
    volume_total = 1
    for n in ext.tolist():
        volume_total *= int(n)
    if processors < 1 or processors > volume_total:
        # Let the numeric path raise its proper OptimizationError.
        return None, "p-out-of-range"
    if float(volume_total) >= _EXACT_VOLUME_LIMIT:
        return None, "overflow"
    volume = float(volume_total) / float(processors)
    a = np.asarray(payload["a"], dtype=float)
    if not np.any(a):
        a = np.ones(l)
    cont = _continuous_lagrange(np.where(a > 0, a, 0.0), ext, volume)

    feasible = [
        grid
        for grid in factorizations(int(processors), l)
        if not any(p > n for p, n in zip(grid, ext.tolist()))
    ]
    if not feasible:
        return None, "no-feasible-grid"
    grids = np.asarray(feasible, dtype=np.int64)
    sides = -(-ext[None, :] // grids)  # ⌈N_i / p_i⌉ per candidate
    sf = sides.astype(float)
    prod = np.prod(sf, axis=1)
    total = np.zeros(len(feasible), dtype=float)
    for cls in payload["classes"]:
        u = cls.get("u")
        if u is not None:
            fp = prod.copy()
            for i, ui in enumerate(u):
                if ui:
                    # prod / sf[:, i] is the exact Π_{j≠i} sides_j (the
                    # quotient of exactly-represented integers).
                    fp = fp + float(ui) * (prod / sf[:, i])
        elif cls.get("line") is not None:
            line = cls["line"]
            coeffs = [(int(d), int(c)) for d, c in line["coeffs"]]
            shifts = [int(x) for x in line["shifts"]]
            worst = sum(c * (int(ext[d]) - 1) for d, c in coeffs) + max(shifts)
            if worst > _LINE_RANGE_LIMIT:
                return None, "line-range"
            fp = np.array(
                [
                    _line_count(coeffs, shifts, sides[idx])
                    for idx in range(len(feasible))
                ],
                dtype=float,
            )
        else:
            union = cls["union"]
            dims = [int(i) for i in union["dims"]]
            fp = np.zeros(len(feasible), dtype=float)
            for w, coeff in union["terms"]:
                term = np.full(len(feasible), float(coeff))
                for i, wi in zip(dims, w):
                    term = term * np.maximum(sf[:, i] - float(wi), 0.0)
                fp = fp + term
        total = total + fp
        if cls.get("penalized"):
            mask = np.asarray(cls["kernel_mask"], dtype=bool)
            m = np.prod(
                np.where((grids > 1) & mask[None, :], grids, 1), axis=1
            ).astype(float)
            total = total + (m - 1.0) * fp

    best_key: tuple[float, float, tuple[int, ...]] | None = None
    best_idx = -1
    for idx, grid in enumerate(feasible):
        dist = sum(
            abs(math.log(sd / cs))
            for sd, cs in zip(sides[idx].tolist(), cont)
            if cs > 0
        )
        key = (float(total[idx]), dist, grid)
        if best_key is None or key < best_key:
            best_key, best_idx = key, idx

    # Theorem-2 cross-check: the integer best cannot be wildly above the
    # continuous bound unless the payload is corrupt or stale.
    poly = RectFootprintPolynomial.from_payload(payload["cost_poly"])
    bound = max(poly.evaluate(cont), 1.0)
    if best_key[0] > VALIDATE_FACTOR * bound:
        return None, "cost-check"
    tile: RectangularTile = _candidate_tile(ext, feasible[best_idx])
    return (
        RectOptResult(
            tile=tile,
            grid=tuple(int(p) for p in feasible[best_idx]),
            predicted_cost=float(best_key[0]),
            continuous_sides=cont,
            coefficients=a,
        ),
        None,
    )


class PlanCache:
    """Structure-key → solved-plan store with hit/miss/fallback counters.

    Same discipline as :class:`~repro.lattice.points.LatticeCountCache`:
    plain-int counters per instance, optional registry mirrors for the
    shared default, lock-protected mutation (the serve parent absorbs
    worker deltas from request threads), solve-on-miss outside the lock.
    Values are the pure-JSON payloads of :func:`solve_plan`, so entries
    persist through :mod:`repro.lattice.persist` and travel across the
    serve process pool unchanged.
    """

    def __init__(self, *, metrics_name: str | None = None):
        self._table: dict = {}
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.fallbacks = 0
        self._fallback_reasons: dict[str, int] = {}
        self._metrics = _CacheMetrics(metrics_name) if metrics_name else None
        self._fallback_counter = None
        if metrics_name:
            from ..obs.metrics import get_registry

            self._fallback_counter = get_registry().counter(
                "plan.fallbacks", cache=metrics_name
            )
        self._lock = threading.Lock()

    def get_or_solve(self, key, solver):
        """Cached payload for ``key``, solving (outside the lock) on miss."""
        with self._lock:
            cached = self._table.get(key)
            if cached is not None:
                self.hits += 1
                if self._metrics:
                    self._metrics.hits.inc()
                return cached
            self.misses += 1
            if self._metrics:
                self._metrics.misses.inc()
        value = solver()
        with self._lock:
            self._table[key] = value
        return value

    def record_fallback(self, reason: str = "unknown") -> None:
        with self._lock:
            self.fallbacks += 1
            self._fallback_reasons[reason] = self._fallback_reasons.get(reason, 0) + 1
        if self._fallback_counter:
            self._fallback_counter.inc()

    def fallback_reasons(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fallback_reasons)

    # -- persistence hooks (see repro.lattice.persist) -------------------
    def export_entries(self) -> list:
        """``(key, payload)`` pairs in a stable order."""
        with self._lock:
            items = list(self._table.items())
        return sorted(items, key=repr)

    def absorb_entries(self, entries) -> int:
        """Merge persisted/shipped plans; returns how many keys were new.

        Non-dict payloads (a corrupt cache file) are skipped — the next
        request for that structure simply re-solves.
        """
        added = 0
        with self._lock:
            for key, value in entries:
                if not isinstance(value, dict):
                    continue
                if key not in self._table:
                    self._table[key] = value
                    added += 1
            if added:
                self.loads += added
        if added and self._metrics:
            self._metrics.loads.inc(added)
        return added

    # -- cross-process stats shipping (serve worker → parent) ------------
    def export_stats(self) -> dict:
        """Counter snapshot, for delta-shipping across the process pool."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "fallbacks": self.fallbacks,
                "fallback_reasons": dict(self._fallback_reasons),
            }

    def absorb_stats(self, delta: dict) -> None:
        """Add a worker's counter delta (and mirror it into metrics)."""
        hits = int(delta.get("hits", 0))
        misses = int(delta.get("misses", 0))
        fallbacks = int(delta.get("fallbacks", 0))
        reasons = delta.get("fallback_reasons") or {}
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.fallbacks += fallbacks
            for reason, n in reasons.items():
                self._fallback_reasons[reason] = (
                    self._fallback_reasons.get(reason, 0) + int(n)
                )
        if self._metrics:
            if hits:
                self._metrics.hits.inc(hits)
            if misses:
                self._metrics.misses.inc(misses)
        if fallbacks and self._fallback_counter:
            self._fallback_counter.inc(fallbacks)

    def stats(self) -> dict:
        """JSON-ready counter summary (run reports, ``/metrics``)."""
        with self._lock:
            return {
                "entries": len(self._table),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "fallbacks": self.fallbacks,
            }

    def clear(self) -> None:
        """Drop all solved plans (counters keep running)."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


#: Shared default plan cache (mirrored into the metrics registry, wired
#: to ``--plan-cache`` / ``repro serve --plan-cache`` / persistence).
DEFAULT_PLAN_CACHE = PlanCache(metrics_name="plan")


def plan_optimize(
    uisets,
    space: IterationSpace,
    processors: int,
    *,
    cache: PlanCache,
) -> RectOptResult | None:
    """Plan-tier entry point: lookup/solve, instantiate, validate.

    Returns the instantiated :class:`RectOptResult` on a usable plan, or
    ``None`` (recording the fallback reason) when the numeric optimiser
    should run.  Both spans fire on hits and misses alike, so the trace
    structure is independent of cache warmth — the serve/CLI differential
    check compares span trees byte-for-byte.
    """
    with _span("optimize.plan.lookup", aggregate=True):
        key = structure_key(uisets, space.depth)
        payload = cache.get_or_solve(key, lambda: solve_plan(uisets, space.depth))
    with _span("optimize.plan.instantiate", aggregate=True):
        result, reason = instantiate_plan(payload, space.extents, processors)
    if result is None:
        cache.record_fallback(reason or "unknown")
        return None
    return result
