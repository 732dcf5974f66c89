"""One child process of a benchmark run.

``run.py`` starts several of these one after another, so that no child
inherits another's imports, heap, caches or collector state, and each
set-up is timed afresh.  Modes:

* ``timed``  — set up, then run passes while another fits in
  ``--budget`` seconds (at least one; at most three serve-mixed streams
  per server, see ``workloads.STREAMS_PER_SERVER``), reporting each
  pass's timings and outputs;
* ``traced`` — the same passes, each with the timing wrappers of
  :mod:`tracer` installed around it and removed after it;
* ``parity`` — the untimed fast-vs-exact simulator engine check.

Prints one JSON object on the last line of standard output.
"""

import time

_T_START = time.perf_counter()  # set-up is timed from here: imports + server

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--mode", choices=("timed", "traced", "parity"), default="timed")
    p.add_argument("--budget", type=float, default=0.0,
                   help="run further passes while one more fits in this many seconds")
    p.add_argument("--spans-out", help="traced passes write their spans to PREFIX-<pass>.jsonl")
    args = p.parse_args(argv)
    serve = args.workload == "serve-mixed"

    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (the SLSQP member imports it lazily)

    import workloads
    from tracer import SpanRecorder

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.mode == "parity":
        print(json.dumps({"checks": workloads.run_parity(), "env": env}))
        return 0

    server = workloads.start_server() if serve else None
    setup_s = time.perf_counter() - _T_START

    workloads.calibrate()  # the first call in a process pays page faults
    passes = []
    t_loop = time.perf_counter()
    try:
        while True:
            # Quiesce the collector: drop the previous pass's garbage and
            # move surviving objects out of the generations a pass rescans.
            gc.collect()
            gc.freeze()
            t_pass = time.perf_counter()
            recorder = SpanRecorder()
            if args.mode == "traced":
                recorder.install()
            try:
                if serve:
                    out = workloads.run_serve_pass(server, args.seed, args.rep, len(passes))
                else:
                    out = workloads.run_partition_pass(args.workload)
            finally:
                recorder.uninstall()
            if args.mode == "traced":
                out["spans"] = recorder.totals()
                if args.spans_out:
                    recorder.dump(f"{args.spans_out}-{len(passes)}.jsonl")
            out["elapsed_s"] = time.perf_counter() - t_pass
            passes.append(out)
            elapsed = time.perf_counter() - t_loop
            if elapsed * (len(passes) + 1) / len(passes) > args.budget:
                break
            if serve and len(passes) == workloads.STREAMS_PER_SERVER:
                break
    finally:
        if server is not None:
            server.stop()

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "env": env,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
