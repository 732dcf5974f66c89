"""The repository's benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload auto-paper --seed 1 --seconds 24 --trace 0

A run starts child processes (``rep.py``) one after another while one
more fits in ``--seconds`` (at least :data:`MIN_CHILDREN`).  Each child
imports and sets up afresh, then runs passes of the workload with the
collector quiesced between them.  Every time is the median over passes
(set-up: over children), scaled to the reference host by the
calibration kernel timed around each operation (:func:`to_reference_host`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced children and prints the per-layer metrics, including
the tracing overhead.  One untimed child per run checks fast-vs-exact
simulator parity.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (environment, seed, every check and pass) is written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("auto-paper", "stencil-sim", "doseq-sim", "serve-mixed")
MIN_CHILDREN = 2
CHILDREN_PER_RUN = 3
RUN_LIMIT_S = 170.0  # every child must finish inside the 180 s run budget
#: Calibration-kernel seconds on the reference host (about this kernel's
#: time on the 2-CPU host the baseline was measured on).
REFERENCE_CAL_S = 0.05

#: Span names of the program's own tracer (serve responses) per layer metric.
SERVE_STAGES = {
    "lang.parse_s": ("lang.parse", "lang.lower"),
    "core.classify_s": ("partition.classify",),
    "core.optimize.rectangular_s": ("optimize.rectangular",),
    "core.optimize.parallelepiped_s": ("optimize.parallelepiped",),
    "core.cost.estimate_s": ("partition.estimate",),
    "sim.trace_s": ("sim.trace",),
    "sim.execute_s": ("sim.execute",),
}
#: Span names of the benchmark's wrappers (tracer.WRAP_POINTS) per layer metric.
WRAPPED_STAGES = {
    "lang.parse_s": ("lang.parse", "lang.lower"),
    "core.classify_s": ("core.classify",),
    "core.optimize.rectangular_s": ("core.optimize.rectangular",),
    "core.optimize.parallelepiped_s": ("core.optimize.parallelepiped",),
    "core.cumulative_s": ("core.cumulative",),
    "core.cost.estimate_s": ("core.cost.estimate",),
    "sim.trace_s": ("sim.trace.assign", "sim.trace.streams", "sim.trace.footprints"),
    "sim.execute_s": ("sim.execute",),
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result (no JSON is printed)."""


def metric_units() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``rep.py`` in its own process group and return its JSON line.

    The group (the server's worker process too) is killed once the child
    has exited or timed out."""
    cmd = [sys.executable, str(HERE / "rep.py"), *args]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchmarkError(f"{' '.join(args)}: no result within {timeout:.0f} s") from e
    except BaseException:  # interrupted or terminated: take the child down too
        _kill_group(proc.pid)
        proc.wait()
        raise
    _kill_group(proc.pid)  # nothing the child started may outlive it
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(args)} exited with {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def run_children(workload: str, seed: int, seconds: float, trace: bool, started: float):
    """Children while one more fits in ``seconds``: child ``k`` runs
    passes until ``(k + 1) / CHILDREN_PER_RUN`` of ``seconds`` (at least
    one).  With ``trace`` they alternate traced / untraced, starting
    traced."""
    children = []
    setup_guess = 1.0
    while True:
        index = len(children)
        elapsed = time.perf_counter() - started
        deadline = seconds * min(index + 1, CHILDREN_PER_RUN) / CHILDREN_PER_RUN
        budget = deadline - elapsed - setup_guess
        mode = "traced" if trace and index % 2 == 0 else "timed"
        args = ["--workload", workload, "--seed", str(seed), "--rep", str(index),
                "--mode", mode, "--budget", str(max(budget, 0.0))]
        if mode == "traced":
            args += ["--spans-out", str(RESULTS / f"spans-{workload}-seed{seed}-child{index}")]
        child = run_child(args, RUN_LIMIT_S - elapsed)
        child["mode"] = mode
        children.append(child)
        setup_guess = child["setup_s"]
        # The shortest child that could still start: set-up plus one pass.
        shortest = setup_guess + max(p["elapsed_s"] for p in child["passes"])
        if len(children) >= MIN_CHILDREN and time.perf_counter() - started + shortest > seconds:
            return children


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))])


def to_reference_host(child: dict) -> None:
    """Scale a child's times, in place, to the reference host.

    An operation in segment ``k`` of a pass is scaled by
    ``REFERENCE_CAL_S`` over the median kernel time of the calibration
    points ``k`` and ``k + 1`` around it; the pass's other times by the
    pass's resulting overall factor, the set-up by the child's median
    pass factor.  Raw times stay in the record.
    """
    for p in child["passes"]:
        points = p["cal_s"]
        raw = sum(op["latency_s"] for op in p["ops"])
        for op in p["ops"]:
            k = op["segment"]
            op["latency_s"] *= REFERENCE_CAL_S / median(points[k] + points[k + 1])
        f = p["host_factor"] = sum(op["latency_s"] for op in p["ops"]) / raw
        p["raw_wall_s"] = p["wall_s"]
        p["wall_s"] *= f
        for member in p.get("member_seconds", {}):
            p["member_seconds"][member] *= f
        for agg in p.get("spans", {}).values():
            agg["duration"] *= f
            agg["self"] *= f
        for stage in p.get("stages", {}):
            p["stages"][stage] *= f
        if "server_metrics" in p:
            p["server_metrics"]["server_p50_ms"] *= f
    child["raw_setup_s"] = child["setup_s"]
    child["setup_s"] *= median(p["host_factor"] for p in child["passes"])


def latency_metrics(workload: str, passes: list[dict]) -> tuple[float, float]:
    """``(p50, p95)`` in ms.

    serve-mixed pools every request of every pass (about 3,000 a run;
    its 99th percentile spread by a quarter or more from run to run on a
    shared host, the 95th by about a seventh).  A partition workload has
    one operation per program and pass, too few for a tail percentile:
    there p50 is the median over programs of each program's median
    latency and p95 the slowest program's median.
    """
    if workload == "serve-mixed":
        samples = [op["latency_s"] for p in passes for op in p["ops"]]
        return median(samples) * 1e3, percentile(samples, 0.95) * 1e3
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            per_op.setdefault(op["name"], []).append(op["latency_s"])
    medians = [median(v) for v in per_op.values()]
    return median(medians) * 1e3, max(medians) * 1e3


def quality_metrics(quality: list[dict]) -> dict:
    """Tile-quality figures; deterministic, and checked to repeat exactly."""

    def worst_factor(x: float) -> float:  # 1.0 = exact, symmetric in x and 1/x
        return max(x, 1.0 / x)

    return {
        "max_misses_per_proc": sum(q["max_misses"] for q in quality),
        "load_imbalance": max(q["load_imbalance"] for q in quality),
        "network_messages": sum(q["messages"] for q in quality),
        "prediction_ratio": max(
            worst_factor(q["max_misses"] / q["predicted_max_misses"]) for q in quality
        ),
        "tile_volume_ratio": max(worst_factor(q["det_over_v"]) for q in quality),
    }


def end_to_end(workload: str, children: list[dict]) -> dict:
    passes = [p for c in children for p in c["passes"]]
    p50, p95 = latency_metrics(workload, passes)
    return {
        "setup_s": median(c["setup_s"] for c in children),
        "wall_s": median(p["wall_s"] for p in passes),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "throughput_rps": median(len(p["ops"]) / p["wall_s"] for p in passes),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in children),
        **quality_metrics(passes[0]["quality"]),
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_values(workload: str, names, p: dict) -> dict:
    """Per-layer figures of one traced pass (0 for layers it never enters)."""
    out = dict.fromkeys(names, 0.0)
    caches = p["caches"]
    lattice = [caches["footprint_table"], caches["lattice_cache"]]
    out["lattice.cache_hit_ratio"] = _ratio(
        sum(c["hits"] for c in lattice), sum(c["misses"] for c in lattice)
    )
    out["core.plan.hit_ratio"] = _ratio(caches["plan"]["hits"], caches["plan"]["misses"])
    if workload == "serve-mixed":
        for metric, stages in SERVE_STAGES.items():
            out[metric] = sum(p["stages"].get(s, 0.0) for s in stages)
        for cache in ("hit", "miss"):
            lat = [op["latency_s"] * 1e3 for op in p["ops"] if op["cache"] == cache]
            out[f"serve.{cache}_p50_ms"] = median(lat)
            out[f"serve.{cache}_p99_ms"] = percentile(lat, 0.99)
        sm = p["server_metrics"]
        out["serve.batch_size_mean"] = sm["batch_sum"] / sm["batch_count"] if sm["batch_count"] else 0.0
        out["serve.response_cache.hit_ratio"] = _ratio(sm["response_hits"], sm["response_misses"])
        out["serve.server_p50_ms"] = sm["server_p50_ms"]
        out["serve.rejected"] = sm["rejected"]
        out["serve.retries_429"] = p["retries_429"]
    else:
        spans = p["spans"]
        for metric, stages in WRAPPED_STAGES.items():
            out[metric] = sum(spans.get(s, {}).get("duration", 0.0) for s in stages)
        out["core.cumulative.calls"] = spans.get("core.cumulative", {}).get("calls", 0)
        out["core.optimize.slsqp_s"] = p["member_seconds"].get("slsqp", 0.0)
        out["core.optimize.anneal_s"] = p["member_seconds"].get("anneal", 0.0)
    out["sim.accesses"] = p["counts"]["accesses"]
    out["sim.coherence_misses"] = p["counts"]["coherence_misses"]
    out["sim.invalidations"] = p["counts"]["invalidations"]
    if out["sim.execute_s"] > 0:
        out["sim.accesses_per_s"] = out["sim.accesses"] / out["sim.execute_s"]
    return out


def per_layer(workload: str, names, children: list[dict]) -> dict:
    traced = [p for c in children if c["mode"] == "traced" for p in c["passes"]]
    untraced = [p for c in children if c["mode"] == "timed" for p in c["passes"]]
    per_pass = [layer_values(workload, names, p) for p in traced]
    out = {m: median(v[m] for v in per_pass) for m in names}
    out["trace.wall_s"] = median(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - median(p["wall_s"] for p in untraced)
    return out


# ----------------------------------------------------------------------
# Checks and environment
# ----------------------------------------------------------------------
def repetition_checks(passes: list[dict]) -> list[dict]:
    """Outputs that must repeat exactly across passes."""
    digests = {p["digest"] for p in passes}
    checks = [{
        "name": "chosen tiles and simulator counters identical across passes",
        "ok": len(digests) == 1,
        "detail": f"{len(digests)} distinct output digests over {len(passes)} passes",
    }]
    if "key_digests" in passes[0]:
        seen: dict[str, str] = {}
        differing = set()
        for p in passes:
            for key, d in p["key_digests"].items():
                if seen.setdefault(key, d) != d:
                    differing.add(key)
        checks.append({
            "name": "serve: each key's report identical across passes",
            "ok": not differing,
            "detail": f"{len(differing)} of {len(seen)} keys differ",
        })
    return checks


def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout may not be a
    git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(child_env: dict, seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **child_env,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    RESULTS.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        children = run_children(args.workload, args.seed, args.seconds, bool(args.trace), started)
        parity = run_child(
            ["--workload", args.workload, "--seed", str(args.seed), "--mode", "parity"],
            RUN_LIMIT_S - (time.perf_counter() - started),
        )
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for c in children:
        to_reference_host(c)
    passes = [p for c in children for p in c["passes"]]
    untraced = [c for c in children if c["mode"] == "timed"]
    checks = [check for p in passes for check in p["checks"]]
    checks += parity["checks"] + repetition_checks(passes)
    failed = sum(p["failed_ops"] for p in passes) + sum(not c["ok"] for c in checks)
    attempted = sum(len(p["ops"]) for p in passes) + len(checks)
    if args.trace:
        metrics, units = per_layer(args.workload, layer_units, children), layer_units
    else:
        metrics, units = end_to_end(args.workload, untraced), e2e_units
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    env = environment(parity["env"], args.seed)
    raw_wall = median(p["raw_wall_s"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(children)}  passes {len(passes)}  "
          f"run {time.perf_counter() - started:.1f} s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"raw wall_s {raw_wall:.6g} s; times below are reference-host seconds "
          f"(host speed factor {median(p['host_factor'] for p in passes):.4g})")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} (failed {failed} of {attempted})")
    for c in checks:
        if not c["ok"]:
            print(f"  CHECK FAILED: {c['name']} ({c['detail']})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "raw_wall_s": raw_wall,
        "error_rate": failed / attempted,
        "checks": checks,
        "children": [
            {**{k: v for k, v in c.items() if k != "passes"},
             "passes": [{k: v for k, v in p.items() if k != "key_digests"}
                        for p in c["passes"]]}
            for c in children
        ],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
