"""Batched fast-path execution engine for :func:`repro.sim.simulate_nest`.

The exact engine drives every array-element access through the scalar
MSI protocol (:meth:`repro.sim.machine.Machine.access`) — faithful, but
one Python call per access.  This engine exploits the structure the
paper's analysis rests on: under the infinite-cache assumption a
coherence line touched by a *single* processor has exactly one possible
protocol history, independent of interleaving —

* first access read  → one read miss, line fills S; a later write adds
  one S→M upgrade; everything else hits;
* first access write → one write miss, line fills M; everything else
  hits;
* sweeps beyond the first are pure hits (nothing ever invalidates the
  line).

A *globally read-only* line is just as deterministic, however many
processors share it: each toucher pays one cold read miss and then hits;
nothing ever invalidates anything.  So the engine precomputes each
processor's access stream as numpy address arrays
(:func:`repro.sim.trace.reference_streams`), classifies lines into
*analytically resolvable* (private to one processor, or never written)
vs *write-shared* — with an analytic shortcut from the lattice layer (a
single-reference class whose ``G`` has trivial integer kernel maps
iterations to elements injectively, Lemma 1 / the Theorem 3 intersection
machinery with no nonzero solution, so every line is private by
construction) and an exact vectorised ownership count otherwise.  That
count comes from one index per array (:func:`_line_index`): its lines
uniqued once, through a dense bounding-box table when the box is small,
and a processor × line touch matrix.  At ``line_size == 1`` a line is an
element, so the same matrix gives every processor's footprint and the
shared elements; the engine returns them and :func:`collect_footprints`
runs only for the exact engine and wider lines.  Then the engine

* resolves all analytic lines in bulk with vectorised first-touch
  accounting,
* replays each distinct write-shared line *history* once: with unbounded
  caches a line's protocol history depends only on its own ordered
  ``(processor, kind)`` events, so the residue is grouped by line into
  those sequences (in the global interleaved order the exact engine
  would use), each distinct sequence runs ``sweeps`` times on one line
  of a scratch machine through the unchanged scalar protocol
  (:meth:`repro.sim.machine.Machine.service`), its counter deltas are
  scaled by the lines sharing it and its messages priced through each
  line's home node,
* records every line's end state as compact blocks
  (:meth:`repro.sim.directory.Directory.record_bulk`), expanded into
  per-line cache and directory objects only when something reads them.

Analytic accesses never touch a residue line's cache or directory state,
and unbounded caches have no capacity coupling between lines, so every
counter and every line's end state is bit-identical to the exact
engine's.  The differential-parity suite (``tests/test_sim_parity.py``)
asserts exactly that, metrics registry included, over all of the
paper's programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.classify import partition_references
from ..core.loopnest import LoopNest
from ..lattice.snf import integer_kernel_basis
from ..obs.log import get_logger
from ..obs.metrics import Counter
from .cache import LineState
from .machine import Machine
from .trace import RefStream

__all__ = [
    "fast_path_blockers",
    "supports_fast_path",
    "execute_fast",
    "collect_footprints",
]

logger = get_logger("sim.fast")


def fast_path_blockers(machine: Machine, observer=None) -> list[str]:
    """Why the batched engine cannot run on ``machine`` (empty = it can).

    Each entry is a human-readable reason; :func:`simulate_nest` surfaces
    them in the engine-fallback warning, the metrics registry, and the
    run report when ``engine='auto'`` has to use the exact engine.
    """
    cfg = machine.config
    blockers: list[str] = []
    if observer is not None or machine.observer is not None:
        blockers.append("per-access observer attached")
    if not cfg.cache_enabled:
        blockers.append("caching disabled")
    if cfg.cache_capacity is not None:
        blockers.append(f"finite cache capacity ({cfg.cache_capacity} lines)")
    directory = machine.directory
    if (
        directory._pending
        or directory._entries
        or directory._ever_filled
        or any(len(c) for c in machine.caches)
    ):
        blockers.append("machine not fresh (pre-existing cache/directory state)")
    return blockers


def supports_fast_path(machine: Machine, observer=None) -> bool:
    """Can the batched engine reproduce the exact engine on ``machine``?

    Requires the paper's infinite-cache coherent configuration (the
    private-line argument above needs "no evictions" and "no uncached
    mode") and a *fresh* machine — pre-cached lines would make first
    accesses hit.  Per-access observers see events the bulk path never
    materialises, so they force the exact engine too.
    """
    return not fast_path_blockers(machine, observer)


# ----------------------------------------------------------------------
# Vectorised primitives


def _line_coords(coords: np.ndarray, line_size: int) -> np.ndarray:
    """Element → coherence-unit coordinates (last dim // line_size)."""
    if line_size == 1:
        return coords
    lc = coords.copy()
    lc[:, -1] = np.floor_divide(lc[:, -1], line_size)
    return lc


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``, but fast.

    Encodes each row as one integer key, its row-major position inside
    the data's bounding box, so ascending keys are the lexicographic row
    order.  When the box is small next to the row count the keys index a
    dense ``bool`` array (no sort at all: the distinct keys are its set
    positions and each key's rank is a running count); otherwise the
    1-D keys are sorted, still several times faster than the void-dtype
    lexicographic sort ``axis=0`` performs.  Falls back to ``axis=0``
    when the box is too large to index in 62 bits (never the case for
    the paper's programs).
    """
    n, d = rows.shape
    if n == 0:
        return rows, np.empty(0, dtype=np.int64)
    # 1-D column views: reducing a C-ordered (n, d) array along axis 0 is
    # several times slower than reducing each strided column.
    cols = [rows[:, k] for k in range(d)]
    lo = [int(c.min()) for c in cols]
    spans = [int(c.max()) - low + 1 for c, low in zip(cols, lo)]
    box = 1
    for s in spans:
        box *= s
    if box >= 2**62:
        uniq, inv = np.unique(rows, axis=0, return_inverse=True)
        return uniq, inv.reshape(-1)
    keys = np.subtract(cols[0], lo[0], dtype=np.int64)
    for col, low, span in zip(cols[1:], lo[1:], spans[1:]):
        keys *= span
        keys += col
        keys -= low
    if box <= 4 * n + 1024:
        seen = np.zeros(box, dtype=bool)
        seen[keys] = True
        ukeys = np.flatnonzero(seen)
        rank = np.cumsum(seen, dtype=np.int64)
        rank -= 1
        inv = rank[keys]
    else:
        ukeys, inv = np.unique(keys, return_inverse=True)
    # Decode the distinct keys back into rows.
    uniq = np.empty((ukeys.size, d), dtype=rows.dtype)
    for k in range(d - 1, 0, -1):
        ukeys, uniq[:, k] = np.divmod(ukeys, spans[k])
        uniq[:, k] += lo[k]
    uniq[:, 0] = ukeys + lo[0]
    return uniq, inv.reshape(-1)


def _line_index(parts, processors: int):
    """Index the lines of one array once.

    ``parts`` holds ``(proc, line-coordinate rows)`` pairs.  Returns
    ``(lines, ids, touch)``: the distinct rows in ascending row-major
    order, each part's row → line ids, and the ``(processors, lines)``
    matrix of which processor touches which line.
    """
    lines, inv = _unique_rows(np.vstack([rows for _, rows in parts]))
    ids = np.split(inv, np.cumsum([rows.shape[0] for _, rows in parts])[:-1])
    touch = np.zeros((processors, lines.shape[0]), dtype=bool)
    for (p, _), seg in zip(parts, ids):
        touch[p, seg] = True
    return lines, ids, touch


def _touch_footprints(touch: np.ndarray, touchers: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-processor line counts and the lines more than one processor
    touches, from one array's touch matrix and its column sums."""
    return touch.sum(axis=1), int((touchers > 1).sum())


def _analytically_private_arrays(nest: LoopNest, line_size: int) -> set[str]:
    """Arrays whose every line is private under *any* disjoint partition.

    A single-member reference class whose ``G`` has a trivial integer
    kernel is one-to-one (Lemma 1): each element is touched by exactly
    one iteration, and iterations are partitioned disjointly over
    processors — equivalently, the Theorem 3 intersection test admits no
    nonzero iteration-difference, so no element is ever shared.  With
    unit lines the element/line distinction vanishes, so every line is
    private *and touched exactly once*: the whole per-line bookkeeping
    (uniquing, ownership counting, first-touch grouping) collapses.
    """
    if line_size != 1:
        return set()
    by_array: dict[str, list] = {}
    for s in partition_references(nest.accesses):
        by_array.setdefault(s.array, []).append(s)
    out = set()
    for array, classes in by_array.items():
        if (
            len(classes) == 1
            and classes[0].size == 1
            and integer_kernel_basis(classes[0].g).shape[0] == 0
        ):
            out.add(array)
    return out


def _private_line_summary(ids, wr, order):
    """Per-line first-touch digest of one processor's bulk accesses.

    Returns ``(line_ids, first_is_write, has_write)`` — the unique line
    ids (ascending), whether each line's earliest access (by ``order``)
    is write-like, and whether the line is ever written by this
    processor.
    """
    perm = np.lexsort((order, ids))
    sid = ids[perm]
    swr = wr[perm]
    new_group = np.r_[True, sid[1:] != sid[:-1]]
    starts = np.flatnonzero(new_group)
    line_ids = sid[starts]
    first_wr = swr[starts]
    group_idx = np.cumsum(new_group) - 1
    writes_per_line = np.bincount(group_idx, weights=swr)
    return line_ids, first_wr, writes_per_line > 0


# ----------------------------------------------------------------------
# The engine


_KINDS = ("read", "write", "sync")


def _history_groups(line_ids, order, codes):
    """Group write-shared lines by their access history.

    ``line_ids``, ``order`` and ``codes`` describe one array's residue
    events: the line each touches, its position in the global interleave
    and its ``proc * 3 + kind`` code.  Returns ``(history, lines)``
    pairs: each distinct per-line code sequence (in interleave order)
    and the ids of the lines that follow it.  Sequences of one length
    are uniqued as the rows of one matrix, so the work is vectorised
    over lines.
    """
    perm = np.lexsort((order, line_ids))
    lines = line_ids[perm]
    codes = codes[perm]
    starts = np.flatnonzero(np.r_[True, lines[1:] != lines[:-1]])
    lengths = np.diff(np.r_[starts, lines.size])
    groups = []
    for length in np.unique(lengths).tolist():
        sel = starts[lengths == length]
        histories, inv = _unique_rows(codes[sel[:, None] + np.arange(length)])
        members = np.argsort(inv, kind="stable")
        bounds = np.cumsum(np.bincount(inv, minlength=len(histories)))[:-1]
        for history, ids in zip(histories.tolist(), np.split(lines[sel[members]], bounds)):
            groups.append((tuple(history), ids))
    return groups


@dataclass
class _Outcome:
    """One line's protocol history replayed ``sweeps`` times.

    ``counters`` maps each cache/directory counter key the replay moved
    to its delta and ``bins`` holds the ``sharers_at_write``
    observations.  ``misses[p]`` counts the misses processor ``p`` had
    serviced and ``traffic`` the messages by ``(src, dst)``, where index
    ``P`` stands for the line's home node.  ``holders``, ``modified`` and
    ``invalidated`` are the line's end state.
    """

    counters: dict
    bins: dict
    misses: np.ndarray
    traffic: np.ndarray
    holders: np.ndarray
    modified: bool
    invalidated: np.ndarray


def _replay_history(
    scratch: Machine, addr, history, sweeps: int, check_invariants: bool
) -> _Outcome:
    """Run one history on line ``addr`` of the ``scratch`` machine
    through the scalar protocol, unpriced, and leave the scratch machine
    empty again with its counters at zero."""
    procs = scratch.p
    misses = np.zeros(procs, dtype=np.int64)
    # Index -1, the protocol's stand-in for the home node, lands in the
    # extra last row and column.
    traffic = np.zeros((procs + 1, procs + 1), dtype=np.int64)
    events = [(code // 3, _KINDS[code % 3]) for code in history]
    service = scratch.service
    for _sweep in range(sweeps):
        for proc, kind in events:
            msgs = service(proc, addr, kind)
            if msgs is not None:
                misses[proc] += 1
                for src, dst in msgs:
                    traffic[src, dst] += 1
    if check_invariants:
        scratch.check()
    states = [c.state(addr) for c in scratch.caches]
    invalidated = np.zeros(procs, dtype=bool)
    invalidated[list(scratch.directory._invalidated_at.get(addr, ()))] = True
    counters = {}
    for m in scratch.metrics:
        if isinstance(m, Counter) and m.value:
            counters[m.name, m.labels] = m.value
            m.reset()
    sharers_at_write = scratch.directory._sharers_at_write
    bins = dict(sharers_at_write.bins)
    sharers_at_write.reset()
    scratch.flush_caches()
    return _Outcome(
        counters=counters,
        bins=bins,
        misses=misses,
        traffic=traffic,
        holders=np.array([st is not None for st in states]),
        modified=LineState.MODIFIED in states,
        invalidated=invalidated,
    )


def _scale(outcome: _Outcome, homes: np.ndarray, processors: int):
    """Price one history for the lines that follow it.

    ``homes`` holds those lines' home nodes.  Returns ``(weight,
    traffic, local, remote)``: the number of lines, the ``(P, P)``
    message matrix (diagonal not yet cleared) and the per-processor
    local and remote misses.
    """
    weight = int(homes.size)
    per_home = np.bincount(homes, minlength=processors)
    t = outcome.traffic
    traffic = (
        weight * t[:processors, :processors]
        + np.outer(per_home, t[processors, :processors])
        + np.outer(t[:processors, processors], per_home)
    )
    local = outcome.misses * per_home
    remote = outcome.misses * (weight - per_home)
    return weight, traffic, local, remote


def _replay_residue(machine: Machine, residue, sweeps: int, check_invariants: bool,
                    traffic, local, remote):
    """Account and record the write-shared lines, one replay per history.

    With unbounded caches a line's protocol history depends only on its
    own ordered ``(proc, kind)`` events, so lines with equal histories
    move every counter alike and end in the same state.  Each distinct
    history runs ``sweeps`` times on a scratch machine; its counter
    deltas are scaled by the lines that share it and its messages priced
    through each line's home into the ``traffic``/``local``/``remote``
    totals.  ``residue`` holds per-array ``(array, line coordinates,
    line ids, order, codes)`` event arrays.
    """
    procs = machine.p
    scratch = Machine(machine.config)
    outcomes: dict[tuple, _Outcome] = {}
    counters: dict[tuple, int] = {}
    bins: dict[int, int] = {}
    n_lines = 0
    for array, uniq_lines, line_ids, order, codes in residue:
        groups = _history_groups(line_ids, order, codes)
        lines = uniq_lines[np.concatenate([ids for _, ids in groups])]
        n_lines += lines.shape[0]
        homes = machine.address_map.homes_vector(array, lines)
        per_group = []
        start = 0
        for history, ids in groups:
            outcome = outcomes.get(history)
            if outcome is None:
                addr = (array, tuple(uniq_lines[ids[0]].tolist()))
                outcome = outcomes[history] = _replay_history(
                    scratch, addr, history, sweeps, check_invariants
                )
            per_group.append(outcome)
            n = ids.size
            weight, t, loc, rem = _scale(outcome, homes[start:start + n], procs)
            start += n
            for key, value in outcome.counters.items():
                counters[key] = counters.get(key, 0) + value * weight
            for value, count in outcome.bins.items():
                bins[value] = bins.get(value, 0) + count * weight
            traffic += t
            local += loc
            remote += rem
        # Every line ends in its history's state.
        group_of = np.repeat(np.arange(len(groups)), [ids.size for _, ids in groups])
        holders = np.array([o.holders for o in per_group]).T[:, group_of]
        invalidated = np.array([o.invalidated for o in per_group]).T[:, group_of]
        modified = np.array([o.modified for o in per_group])[group_of]
        for flag in (True, False):
            sel = modified == flag
            machine.directory.record_bulk(
                array, lines[sel], holders[:, sel],
                modified=flag, invalidated=invalidated[:, sel],
            )
    for (name, labels), value in counters.items():
        machine.metrics.counter(name, **dict(labels)).inc(value)
    for value, count in bins.items():
        machine.directory._sharers_at_write.observe_bulk(value, count)
    logger.debug(
        "fast engine: %d write-shared lines replayed as %d histories",
        n_lines,
        len(outcomes),
    )


def _bulk_account(machine, proc, array, n_lines, first_read, upgrade_mask,
                  reads_total, writes_total, written, coords_lines, sweeps,
                  traffic, local, remote):
    """Apply one processor's analytic first-touch deltas for one array.

    ``upgrade_mask`` marks lines whose first access is a read and that
    are later written (one S→M upgrade — a second protocol event —
    each), ``written`` the per-line has-any-write mask (one sharers-at-
    write observation each), ``coords_lines`` the ``(n_lines, d)`` line
    coordinates in the same order.  Each event is one clean round trip
    to the line's home — the only protocol shape a private line can
    produce — added to the ``traffic``/``local``/``remote`` totals.
    """
    first_write = n_lines - first_read
    upgrades = int(upgrade_mask.sum())
    st = machine.caches[proc].stats
    st.read_misses += first_read
    st.write_misses += first_write
    st.write_upgrades += upgrades
    st.read_hits += reads_total * sweeps - first_read
    st.write_hits += writes_total * sweeps - first_write - upgrades
    if n_lines:
        machine.directory._count_miss_class("cold", proc, n_lines)
    machine.directory._sharers_at_write.observe_bulk(0, int(written.sum()))
    homes = machine.address_map.homes_vector(array, coords_lines)
    events = 1 + upgrade_mask.astype(np.int64)
    per_home = np.bincount(homes, weights=events, minlength=machine.p).astype(np.int64)
    local[proc] += per_home[proc]
    remote[proc] += per_home.sum() - per_home[proc]
    traffic[proc] += per_home
    traffic[:, proc] += per_home


def execute_fast(
    nest: LoopNest,
    streams: dict[int, list[RefStream]],
    machine: Machine,
    *,
    sweeps: int,
    interleave: str,
    check_invariants: bool = False,
) -> tuple[list[dict[str, int]], dict[str, int]] | None:
    """Run the batched engine; mutates ``machine`` exactly as the scalar
    loop would (see module docstring for the argument why).

    At ``line_size == 1`` a line is an element, so the touch matrices the
    engine builds are the element footprints: it returns ``(footprints,
    shared)`` as :func:`collect_footprints` would.  Otherwise ``None``.
    """
    processors = machine.p
    line_size = machine.config.line_size
    ref_structure = streams[0]
    n_refs = len(ref_structure)
    arrays = sorted({s.array for s in ref_structure})
    analytic = _analytically_private_arrays(nest, line_size)
    directory = machine.directory
    # Messages by (src, dst) and local/remote misses per processor, for
    # bulk and replayed lines alike; published once at the end.
    traffic = np.zeros((processors, processors), dtype=np.int64)
    local = np.zeros(processors, dtype=np.int64)
    remote = np.zeros(processors, dtype=np.int64)
    # Global interleave position of (proc p, iteration n, reference r):
    # round-robin runs one iteration per processor per step, sequential
    # runs each processor's whole stream in turn.
    n_iters = max((s.coords.shape[0] for st in streams.values() for s in st), default=0)
    if interleave == "sequential":
        proc_stride, iter_stride = n_iters * n_refs, n_refs
    else:
        proc_stride, iter_stride = n_refs, processors * n_refs

    # The write-shared residue per array, as (array, line coordinates,
    # line ids, interleave positions, proc/kind codes).
    residue: list[tuple] = []
    footprints: list[dict[str, int]] = [dict() for _ in range(processors)]
    shared: dict[str, int] = {}

    for array in arrays:
        ref_idx = [r for r, s in enumerate(ref_structure) if s.array == array]

        if array in analytic:
            # Touched-once-by-construction: no uniquing or grouping needed.
            r = ref_idx[0]
            wr = ref_structure[r].is_write_like
            per_proc = [streams[p][r].coords for p in range(processors)]
            counts = [int(c.shape[0]) for c in per_proc]
            n_all = sum(counts)
            touch = np.zeros((processors, n_all), dtype=bool)
            touch[np.repeat(np.arange(processors), counts), np.arange(n_all)] = True
            directory.record_bulk(array, np.concatenate(per_proc), touch, modified=wr)
            if n_all:
                shared[array] = 0
            for p, (coords, n) in enumerate(zip(per_proc, counts)):
                if n == 0:
                    continue
                footprints[p][array] = n
                directory.stats.cold_fills += n
                _bulk_account(
                    machine, p, array,
                    n_lines=n,
                    first_read=0 if wr else n,
                    upgrade_mask=np.zeros(n, dtype=bool),
                    reads_total=0 if wr else n,
                    writes_total=n if wr else 0,
                    written=np.full(n, wr, dtype=bool),
                    coords_lines=coords,
                    sweeps=sweeps,
                    traffic=traffic, local=local, remote=remote,
                )
            continue

        # Global line ids for this array across all processors.
        keys = [(p, r) for p in range(processors) for r in ref_idx]
        parts = [(p, _line_coords(streams[p][r].coords, line_size)) for p, r in keys]
        if not any(rows.shape[0] for _, rows in parts):
            continue
        uniq_lines, ids, touch = _line_index(parts, processors)
        seg_ids = dict(zip(keys, ids))
        touchers = touch.sum(axis=0)
        if line_size == 1:
            per_proc, shared[array] = _touch_footprints(touch, touchers)
            for p in np.flatnonzero(per_proc).tolist():
                footprints[p][array] = int(per_proc[p])

        # A line is analytically resolvable when touched by a single
        # processor (any mix of reads/writes) or by nobody's writes.
        ever_written = np.zeros(uniq_lines.shape[0], dtype=bool)
        for (p, r), ids_seg in seg_ids.items():
            if ref_structure[r].is_write_like:
                ever_written[ids_seg] = True
        bulk = (touchers == 1) | ~ever_written

        res_ids, res_order, res_codes = [], [], []
        for p in range(processors):
            ids_parts, wr_parts, order_parts = [], [], []
            for r in ref_idx:
                ids_seg = seg_ids[(p, r)]
                if ids_seg.size == 0:
                    continue
                mask = bulk[ids_seg]
                wr_flag = ref_structure[r].is_write_like
                if mask.any():
                    ids_parts.append(ids_seg[mask])
                    wr_parts.append(np.full(int(mask.sum()), wr_flag, dtype=bool))
                    # Program order of (iteration n, reference r) within
                    # the processor: n * n_refs + r.
                    order_parts.append(
                        np.flatnonzero(mask).astype(np.int64) * n_refs + r
                    )
                if not mask.all():
                    rows = np.flatnonzero(~mask)
                    res_ids.append(ids_seg[rows])
                    res_order.append(rows * iter_stride + (p * proc_stride + r))
                    code = 3 * p + _KINDS.index(ref_structure[r].kind)
                    res_codes.append(np.full(rows.size, code, dtype=np.int64))
            if ids_parts:
                ids_pa = np.concatenate(ids_parts)
                wr_pa = np.concatenate(wr_parts)
                line_ids, first_wr, has_write = _private_line_summary(
                    ids_pa, wr_pa, np.concatenate(order_parts)
                )
                n_lines = int(line_ids.shape[0])
                _bulk_account(
                    machine, p, array,
                    n_lines=n_lines,
                    first_read=n_lines - int(first_wr.sum()),
                    upgrade_mask=~first_wr & has_write,
                    reads_total=int((~wr_pa).sum()),
                    writes_total=int(wr_pa.sum()),
                    written=has_write,
                    coords_lines=uniq_lines[line_ids],
                    sweeps=sweeps,
                    traffic=traffic, local=local, remote=remote,
                )
        if res_ids:
            residue.append(
                (array, uniq_lines, np.concatenate(res_ids),
                 np.concatenate(res_order), np.concatenate(res_codes))
            )

        # Machine-wide cold fills: one per bulk line, however many
        # processors each is shared by (first fetch by *anyone*).
        directory.stats.cold_fills += int(bulk.sum())

        # The analytic lines' end state: a written bulk line is private,
        # so its sole toucher ends with it in M; a read-only bulk line
        # ends in S at every toucher.
        for modified in (True, False):
            sel = bulk & (ever_written == modified)
            directory.record_bulk(array, uniq_lines[sel], touch[:, sel], modified=modified)

    # ---- write-shared residue: one scalar replay per line history -----
    if residue:
        _replay_residue(
            machine, residue, sweeps, check_invariants, traffic, local, remote
        )
    np.fill_diagonal(traffic, 0)  # a node does not message itself
    machine.account_traffic(traffic, local, remote)
    if check_invariants:
        machine.check()
    return (footprints, shared) if line_size == 1 else None


# ----------------------------------------------------------------------
# Footprint / sharing measurement (exact engine, and lines wider than an
# element)


def collect_footprints(
    streams: dict[int, list[RefStream]], processors: int
) -> tuple[list[dict[str, int]], dict[str, int]]:
    """Per-processor element footprints and cross-processor sharing.

    Replaces the exact engine's per-event ``set`` accumulation with one
    vectorised line index per array at element granularity (like the
    spread-dilation terms it validates).  :func:`execute_fast` derives
    the same numbers from its own index when a line is an element, so
    this runs for the exact engine and for ``line_size > 1``.  Returns
    ``(footprints, shared)`` with ``footprints[p][array]`` the number of
    distinct elements ``p`` touches and ``shared[array]`` the number of
    elements touched by more than one processor.
    """
    footprints: list[dict[str, int]] = [dict() for _ in range(processors)]
    shared: dict[str, int] = {}
    arrays = sorted({s.array for st in streams.values() for s in st})
    for array in arrays:
        parts = [
            (p, s.coords)
            for p in range(processors)
            for s in streams[p]
            if s.array == array and s.coords.size
        ]
        if not parts:
            continue
        _, _, touch = _line_index(parts, processors)
        per_proc = touch.sum(axis=1)
        for p in np.flatnonzero(per_proc).tolist():
            footprints[p][array] = int(per_proc[p])
        shared[array] = int((touch.sum(axis=0) > 1).sum())
    return footprints, shared
