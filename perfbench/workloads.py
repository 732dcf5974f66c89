"""The benchmark's workloads: fixed paper programs and a seeded serve stream.

Every workload runs through the public pipeline only — ``repro.lang``
(parse, lower) → ``repro.core`` (``LoopPartitioner``) → ``repro.sim``
(``simulate_nest``), or ``repro.serve`` over real sockets — and returns
what it measured plus the deterministic outputs the checks compare.
Module attributes are looked up at call time (``lang.parse_program``,
``sim.simulate_nest``) so a traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import lang, sim
from repro.core import partitioner
from repro.lattice import analytic_cache_stats

EXAMPLE3 = """\
Doall (i, 1, N)
  Doall (j, 1, N)
    A[i,j] = B[i,j] + B[i+1,j+3]
  EndDoall
EndDoall
"""

EXAMPLE8 = """\
Doall (i, 1, N)
  Doall (j, 1, N)
    Doall (k, 1, N)
      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)
    EndDoall
  EndDoall
EndDoall
"""

EXAMPLE9 = """\
Doall (i, 1, N)
  Doall (j, 1, N)
    A(i,j) = B(i-2,j) + B(i,j-1) + C(i+j,j) + C(i+j+1,j+3)
  EndDoall
EndDoall
"""

# Figure 9: the Example 8 body under a sequential sweep, B updated in place.
FIGURE9 = """\
Doseq (t, 1, T)
  Doall (i, 1, N)
    Doall (j, 1, N)
      Doall (k, 1, N)
        B(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)
      EndDoall
    EndDoall
  EndDoall
EndDoseq
"""


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    bindings: dict
    processors: int
    method: str


#: Partition workloads: the programs each pass compiles and simulates.
PARTITION_WORKLOADS = {
    # The CLI's ``--method auto --simulate`` path: time goes to the
    # parallelepiped portfolio (SLSQP + anneal over the Theorem-2 objective).
    "auto-paper": (
        Program("example3", EXAMPLE3, {"N": 64}, 16, "auto"),
        Program("example9", EXAMPLE9, {"N": 64}, 16, "auto"),
        Program("example8", EXAMPLE8, {"N": 24}, 8, "auto"),
    ),
    # One read-only sweep: the fast engine's bulk path, no coherence misses.
    "stencil-sim": (Program("example8", EXAMPLE8, {"N": 48}, 16, "rectangular"),),
    # In-place Doseq sweeps: writes beside reads, the MSI residue replay.
    "doseq-sim": (Program("figure9", FIGURE9, {"N": 24, "T": 3}, 8, "rectangular"),),
}

#: Reduced-size programs for the untimed fast-vs-exact engine parity run.
PARITY_PROGRAMS = (
    Program("example8", EXAMPLE8, {"N": 10}, 4, "rectangular"),
    Program("figure9", FIGURE9, {"N": 8, "T": 2}, 4, "rectangular"),
)

#: serve-mixed: keys every stream repeats (response-cache hits after the
#: first), as ``(endpoint, program)``; simulate keys carry the tile quality.
HOT_KEYS = (
    ("simulate", Program("example8", EXAMPLE8, {"N": 16}, 8, "rectangular")),
    ("simulate", Program("figure9", FIGURE9, {"N": 12, "T": 3}, 4, "rectangular")),
    ("simulate", Program("example3", EXAMPLE3, {"N": 32}, 16, "rectangular")),
    ("simulate", Program("example9", EXAMPLE9, {"N": 32}, 16, "rectangular")),
    ("partition", Program("example8", EXAMPLE8, {"N": 24}, 12, "rectangular")),
    ("partition", Program("example3", EXAMPLE3, {"N": 48}, 8, "rectangular")),
    ("partition", Program("example9", EXAMPLE9, {"N": 48}, 8, "rectangular")),
    ("partition", Program("figure9", FIGURE9, {"N": 16, "T": 2}, 8, "rectangular")),
)
FAMILIES, N_VARIANTS, P_VARIANTS = 8, 6, 6  # 288 plan-hit, response-miss variants
#: ``family_corpus`` has 25 distinct families, so a server runs at most
#: three streams of fresh ones.
STREAMS_PER_SERVER = 3
SERVE_CLIENTS = 2


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds taken by a fixed slice of interpreter and NumPy work.

    Shared hosts change speed under a run: other tenants' load moves this
    kernel's time by a quarter from second to second and by up to 2x over
    minutes.  Every pass times it between its steps, so ``run.py`` can
    state each time in seconds of a reference host.  It uses neither the
    program nor anything a commit can change.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(60000):
        table[(i * 7919) % 100003] = (i, i + 1)
    acc = 0
    for k, (a, b) in sorted(table.items(), key=lambda kv: kv[1]):
        acc += (k ^ a) & b
    arr = np.arange(60000, dtype=np.int64)
    for _ in range(10):
        arr = np.sort((arr * 31) % 60013)
        np.unique(arr // 3, return_counts=True)
    return time.perf_counter() - t0


def calibration_point(every_cpu: bool = False) -> list[float]:
    """Two kernel timings, on each CPU this process may use when
    ``every_cpu`` (the serve pass: its server's worker runs on whichever
    CPU is free).  Passes take a point before and after each segment of
    work, and each operation records the segment it ran in."""
    if not every_cpu:
        return [calibrate(), calibrate()]
    mask = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            samples += [calibrate(), calibrate()]
    finally:
        os.sched_setaffinity(0, mask)
    return samples


# ----------------------------------------------------------------------
# Partition workloads
# ----------------------------------------------------------------------
def compile_program(prog: Program, *, engine: str = "auto"):
    """Parse, lower, partition and simulate one program, as the CLI does."""
    program = lang.parse_program(prog.source)
    nest = lang.lower_nest(program.nests[0], prog.bindings)
    part = partitioner.LoopPartitioner(nest, prog.processors)
    result = part.partition(method=prog.method)
    machine = sim.Machine(sim.MachineConfig(processors=prog.processors))
    simulated = sim.simulate_nest(
        nest, result.tile, prog.processors, machine=machine, engine=engine
    )
    return nest, result, simulated


def sim_counters(s) -> dict:
    """Every counter of a simulation result (engine bookkeeping excluded)."""
    return {
        "sweeps": s.sweeps,
        "cold": s.cold_misses,
        "coherence": s.coherence_misses,
        "capacity": s.capacity_misses,
        "invalidations": s.invalidations,
        "messages": s.network_messages,
        "hops": s.network_hops,
        "shared": dict(sorted(s.shared_elements.items())),
        "per_processor": [
            [p.iterations, p.accesses, p.hits, p.misses, p.read_misses,
             p.write_misses, p.write_upgrades, p.local_misses, p.remote_misses,
             p.memory_cost, dict(sorted(p.footprint.items()))]
            for p in s.processors
        ],
    }


def tile_quality(*, l_matrix, iterations: int, processors: int,
                 per_proc_iterations, max_misses: int, messages: int,
                 predicted_max_misses: float) -> dict:
    """Tile-quality figures of one partitioned and simulated program."""
    volume = iterations / processors
    det = abs(round(float(np.linalg.det(np.asarray(l_matrix, dtype=float)))))
    return {
        "det_over_v": det / volume,
        "load_imbalance": max(per_proc_iterations) / volume,
        "max_misses": int(max_misses),
        "predicted_max_misses": float(predicted_max_misses),
        "messages": int(messages),
    }


def predicted_misses(estimate, sweeps: int) -> float:
    """The model's misses per processor: one tile's cold misses, plus its
    boundary (coherence) traffic on every further sweep (Figure 9)."""
    return float(estimate.cold_misses) + (sweeps - 1) * float(estimate.coherence_traffic)


def run_partition_pass(name: str) -> dict:
    """One timed pass over a partition workload's programs."""
    ops, checks, outputs, qualities = [], [], [], []
    members = {"slsqp": 0.0, "anneal": 0.0}
    accesses = 0
    cal = [calibration_point()]
    for prog in PARTITION_WORKLOADS[name]:
        t0 = time.perf_counter()
        nest, result, simulated = compile_program(prog)
        latency = time.perf_counter() - t0
        ops.append({"name": prog.name, "latency_s": latency, "segment": len(ops)})
        volume = int(nest.space.volume)
        per_proc = [p.iterations for p in simulated.processors]
        predicted = predicted_misses(result.estimate, simulated.sweeps)
        q = tile_quality(
            l_matrix=result.tile.l_matrix, iterations=volume,
            processors=prog.processors, per_proc_iterations=per_proc,
            max_misses=simulated.max_misses_per_processor,
            messages=simulated.network_messages, predicted_max_misses=predicted,
        )
        qualities.append(dict(q, program=prog.name, method=result.method))
        checks.append({
            "name": f"{prog.name}: per-processor iterations sum to the volume",
            "ok": sum(per_proc) == volume,
            "detail": f"{sum(per_proc)} vs {volume}",
        })
        if result.grid is not None and simulated.sweeps == 1:
            checks.append({
                "name": f"{prog.name}: rectangular single-sweep misses equal the prediction",
                "ok": simulated.max_misses_per_processor == predicted,
                "detail": f"{simulated.max_misses_per_processor} vs {predicted:g}",
            })
        if result.pepiped_result is not None:
            for member, seconds in result.pepiped_result.member_seconds.items():
                members[member] = members.get(member, 0.0) + seconds
        accesses += simulated.total_accesses
        outputs.append({
            "program": prog.name,
            "method": result.method,
            "l_matrix": np.asarray(result.tile.l_matrix).tolist(),
            "grid": list(result.grid) if result.grid is not None else None,
            "sim": sim_counters(simulated),
        })
        del nest, result, simulated
        cal.append(calibration_point())
    return {
        # The programs' own time: bookkeeping and calibration not counted.
        "wall_s": sum(op["latency_s"] for op in ops),
        "ops": ops,
        "failed_ops": 0,  # a program that raises ends the child, and the run
        "cal_s": cal,
        "checks": checks,
        "quality": qualities,
        "digest": digest(outputs),
        "counts": {
            "accesses": accesses,
            "coherence_misses": sum(o["sim"]["coherence"] for o in outputs),
            "invalidations": sum(o["sim"]["invalidations"] for o in outputs),
        },
        "member_seconds": members,
        "caches": analytic_cache_stats(),
    }


def run_parity() -> list[dict]:
    """Untimed fast-vs-exact engine parity at reduced size."""
    checks = []
    for prog in PARITY_PROGRAMS:
        _, _, fast = compile_program(prog, engine="fast")
        _, _, exact = compile_program(prog, engine="exact")
        checks.append({
            "name": f"{prog.name}: fast and exact engines agree",
            "ok": sim_counters(fast) == sim_counters(exact),
            "detail": f"{fast.total_misses} vs {exact.total_misses} misses",
        })
    return checks


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def hot_items() -> list[tuple]:
    """One request item per :data:`HOT_KEYS` entry."""
    items = []
    for endpoint, prog in HOT_KEYS:
        key = f"hot-{endpoint}-{prog.name}-P{prog.processors}-" + "-".join(
            f"{k}{v}" for k, v in sorted(prog.bindings.items())
        )
        items.append((key, endpoint, prog.source, prog.bindings, prog.processors, prog.method))
    return items


def serve_stream(seed: int, rep: int, stream: int) -> list[tuple]:
    """The seeded request stream number ``stream`` of one server.

    Half the requests repeat the :data:`HOT_KEYS` (response-cache hits:
    the pass sends each once before its stream); half are the 288
    ``family_corpus`` variants of :data:`FAMILIES` families, each sent
    once in seeded order (plan-cache hits, response misses).  Each of a
    server's streams takes its own families, so no stream finds the
    previous one's answers cached.  Items are ``(key, endpoint, source,
    bindings, processors, method)``.
    """
    from repro.serve.loadgen import family_corpus

    rng = random.Random(f"serve-mixed:{seed}:{rep}:{stream}")
    family = [
        (label, "partition", source, bindings, processors, "rectangular")
        for f in range(stream * FAMILIES, (stream + 1) * FAMILIES)
        for label, source, bindings, processors in family_corpus(f, N_VARIANTS, P_VARIANTS)
    ]
    hot = hot_items()
    stream = family + [hot[rng.randrange(len(hot))] for _ in family]
    rng.shuffle(stream)
    return stream


def strip_timings(report: dict) -> dict:
    """A run report without its per-request timings and cache counters."""
    return {k: v for k, v in report.items() if k not in ("spans", "metrics", "caches")}


def start_server():
    """Start the embedded server and wait until ``/healthz`` says ready."""
    from repro.serve import EmbeddedServer, ServeClient, ServeConfig

    server = EmbeddedServer(ServeConfig(port=0, workers=1, plan_cache=True)).start()
    try:
        with ServeClient("127.0.0.1", server.port) as client:
            deadline = time.monotonic() + 60
            while not client.healthz().get("ready"):
                if time.monotonic() > deadline:
                    raise RuntimeError("server not ready within 60 s")
                time.sleep(0.005)
    except BaseException:
        server.stop()
        raise
    return server


def _send(client, item) -> dict:
    """One request; the record keeps its latency, cache status and report."""
    from repro.serve import ServeError

    key, endpoint, source, bindings, processors, method = item
    call = client.simulate if endpoint == "simulate" else client.partition
    t0 = time.perf_counter()
    try:
        report = call(source, processors, bindings=bindings, method=method, label=key)
        error = None
    except (ServeError, OSError, http.client.HTTPException) as e:
        report, error = None, f"{type(e).__name__}: {e}"
    return {
        "key": key,
        "endpoint": endpoint,
        "latency_s": time.perf_counter() - t0,
        "cache": client.last_cache_status,
        "error": error,
        "report": report,
    }


def run_serve_pass(server, seed: int, rep: int, index: int) -> dict:
    """Warm the hot keys, then drive the server's ``index``-th seeded
    stream closed-loop from :data:`SERVE_CLIENTS` threads; only the
    stream is timed."""
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", server.port) as client:
        warm = [_send(client, item) for item in hot_items()]
        before = _server_summary(client.metrics()["metrics"])

    stream = serve_stream(seed, rep, index)
    records: list[dict] = []
    lock = threading.Lock()
    cursor = iter(stream)
    retries = []

    def client_loop() -> None:
        with ServeClient("127.0.0.1", server.port) as client:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    break
                records.append(_send(client, item))
            retries.append(client.retries_429)

    threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
    cal = [calibration_point(every_cpu=True)]
    t_pass = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_pass
    cal.append(calibration_point(every_cpu=True))

    with ServeClient("127.0.0.1", server.port) as client:
        after = _server_summary(client.metrics()["metrics"])
    server_metrics = {k: after[k] - before[k] for k in before}
    server_metrics["server_p50_ms"] = after["server_p50_ms"]

    answered = warm + records
    checks = [{
        "name": "serve: every request answered 2xx",
        "ok": all(r["error"] is None for r in answered) and len(records) == len(stream),
        "detail": f"{sum(r['error'] is not None for r in answered)} errors, "
                  f"{len(records)} of {len(stream)} answered",
    }]
    key_digests: dict[str, str] = {}
    mismatched = set()
    for r in answered:
        if r["report"] is not None:
            d = digest(strip_timings(r["report"]))
            if key_digests.setdefault(r["key"], d) != d:
                mismatched.add(r["key"])
    checks.append({
        "name": "serve: each key's report is identical across the run",
        "ok": not mismatched,
        "detail": f"{len(mismatched)} of {len(key_digests)} keys differ",
    })
    # The worker's own spans and counters, from the stream's computed
    # responses (the simulate keys run in the first warm-up only).
    stages: dict[str, float] = {}
    counts = {"accesses": 0, "coherence_misses": 0, "invalidations": 0}
    for r in records:
        if r["cache"] == "miss" and r["report"] is not None:
            for span in r["report"].get("spans", ()):
                _add_span_times(span, stages)
            measured = r["report"].get("measured")
            if measured is not None:
                counts["accesses"] += measured["total_accesses"]
                counts["coherence_misses"] += measured["miss_breakdown"]["coherence"]
                counts["invalidations"] += measured["invalidations"]
    quality = [dict(report_quality(r["report"]), program=r["key"])
               for r in warm if r["endpoint"] == "simulate" and r["report"] is not None]
    hot_keys = sorted(item[0] for item in hot_items())
    return {
        "wall_s": wall,
        "ops": [{"name": r["endpoint"], "latency_s": r["latency_s"], "cache": r["cache"],
                 "segment": 0}
                for r in records],
        "failed_ops": sum(r["error"] is not None for r in records),
        "cold_latency_s": {r["key"]: r["latency_s"] for r in warm},
        "cal_s": cal,
        "checks": checks,
        "quality": quality,
        "digest": digest({k: key_digests.get(k) for k in hot_keys}),
        "key_digests": key_digests,
        "server_metrics": server_metrics,
        "stages": stages,
        "counts": counts,
        "retries_429": sum(retries),
        "caches": analytic_cache_stats(),
    }


def report_quality(report: dict) -> dict:
    """:func:`tile_quality` of a ``/v1/simulate`` run report."""
    program, measured = report["program"], report["measured"]
    predicted = report["predicted"]
    sweeps = int(measured["sweeps"])
    return tile_quality(
        l_matrix=report["partition"]["l_matrix"],
        iterations=int(program["iterations"]),
        processors=int(program["processors"]),
        per_proc_iterations=[p["iterations"] for p in measured["per_processor"]],
        max_misses=measured["max_misses_per_processor"],
        messages=measured["network"]["messages"],
        predicted_max_misses=float(predicted["cold_misses_per_tile"])
        + (sweeps - 1) * float(predicted["coherence_traffic_per_tile"]),
    )


def _add_span_times(span: dict, out: dict) -> None:
    out[span["name"]] = out.get(span["name"], 0.0) + float(span.get("duration_s", 0.0))
    for child in span.get("children", ()):
        _add_span_times(child, out)


def _server_summary(entries: list[dict]) -> dict:
    """The server-side figures the benchmark reads from ``/metrics``."""
    out = {"response_hits": 0, "response_misses": 0, "rejected": 0,
           "batch_count": 0, "batch_sum": 0.0, "server_p50_ms": 0.0}
    for e in entries:
        name, labels = e.get("name"), e.get("labels", {})
        if name == "serve.response_cache.hits":
            out["response_hits"] = e["value"]
        elif name == "serve.response_cache.misses":
            out["response_misses"] = e["value"]
        elif name == "serve.rejected":
            out["rejected"] = e["value"]
        elif name == "serve.batch_size":
            out["batch_count"], out["batch_sum"] = int(e["count"]), float(e["sum"])
        elif name == "serve.latency_ms" and labels.get("endpoint") == "/v1/partition":
            out["server_p50_ms"] = float(e.get("p50") or 0.0)
    return out

