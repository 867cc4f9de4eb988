"""The repetitions of one workload, in one fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --seconds S --trace 0|1
                             [--spans PATH]
    python3 perfbench/rep.py --pin

``run.py`` starts this once per workload and trace mode, so ``ru_maxrss``
(peak resident memory over the process lifetime) belongs to one workload.
The first repetition warms the interpreter up (imports, first calls) and
is checked but not timed.  Timed repetitions follow until ``--seconds``,
counted from the start of this process, are used up, at least
``MIN_REPS`` of them.  Every repetition builds a fresh world from the same
inputs.  The last stdout line is a JSON object with, per timed
repetition, the wall and CPU time, set-up time, request-latency
percentiles and, when traced, the per-layer totals; and for the whole
process the peak memory and the check result.  ``--pin`` rewrites
``expected.json`` from the current program instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

START = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import tracing  # noqa: E402  (needs src/ on the path)

#: fewest timed repetitions, whatever ``--seconds`` says
MIN_REPS = 3
#: share of a repetition's wall time spent measuring the reference load
#: after it, and the fewest loads measured there
LOAD_SHARE = 0.15
MIN_LOADS = 3


def host_speed(budget_s: float) -> float:
    """Median wall seconds of the reference load (``calib.py``), measured
    for about ``budget_s`` seconds."""
    times = [calib.measure() for _ in range(MIN_LOADS)]
    while sum(times) < budget_s:
        times.append(calib.measure())
    return statistics.median(times)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def one_repetition(workloads, run, workload, seed, expected, tracer, timer,
                   traced):
    """Run the workload once and check its output."""
    tracer.reset()
    timer.samples_ms.clear()
    # every repetition starts with the collector's counts at zero, so its
    # collections fall at the same points of the same work each time
    gc.collect()
    t0 = perf_counter()
    try:
        output, shares = run(workload, seed)
    except Exception:  # the program under test failed: report, not crash
        output, shares = None, {}
        crash = traceback.format_exc(limit=-3)
    wall_s = perf_counter() - t0
    if output is None:
        attempted = workloads.operations(workload, expected)
        failed, errors = attempted, [f"the workload raised:\n{crash}"]
    else:
        attempted, failed, errors = workloads.check(workload, output,
                                                    expected)
    samples = timer.samples_ms
    rep = {
        "wall_s": wall_s,
        "setup_s": sum(t[1] for name, t in tracer.totals.items()
                       if name.startswith("cluster.")),
        "requests": len(samples),
        "request_p50_ms": percentile(samples, 0.50),
        "request_p95_ms": percentile(samples, 0.95),
        "request_p99_ms": percentile(samples, 0.99),
    }
    if traced:
        rep["layers"] = tracing.layer_metrics(tracer)
    return rep, (attempted, failed, errors, workloads.digest(output), shares)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="time budget of this process, warm-up included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the last repetition's kept "
                                    "spans here (traced)")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer()
    timer = tracing.RequestTimer()
    boundaries = tracing.SETUP + (tracing.LAYERS if args.trace else ())
    tracing.install(tracer, boundaries, timer)
    import workloads  # after install: it binds wrapped names

    if args.pin:
        with open(workloads.EXPECTED_PATH, "w") as f:
            json.dump(workloads.pin(), f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    expected = workloads.load_expected()
    run = workloads.run
    if args.trace:
        run = tracing.span(tracer, "bench.experiment", run)
    attempted = failed = 0
    errors: list[str] = []
    digests: set[str] = set()
    shares: dict = {}
    warmup = None
    reps: list[dict] = []
    before = host_speed(0.0)
    while True:
        rep, (a, f, e, d, s) = one_repetition(
            workloads, run, args.workload, args.seed, expected, tracer,
            timer, args.trace)
        after = host_speed(LOAD_SHARE * rep["wall_s"])
        # the load's time on both sides of the repetition gives the host
        # speed it ran at; its times are scaled to the reference speed
        rep["scale"] = calib.REFERENCE_S / ((before + after) / 2)
        before = after
        attempted, failed = attempted + a, failed + f
        errors += e[:10 - len(errors)]
        digests.add(d)
        if warmup is None:
            warmup, shares = rep, s
        else:
            reps.append(rep)
        elapsed = perf_counter() - START
        if len(reps) >= MIN_REPS:
            typical = statistics.median(r["wall_s"] for r in reps)
            if elapsed + typical > args.seconds:
                break
    if args.trace and args.spans:
        tracer.dump(args.spans)
    print(json.dumps({
        "reps": reps,
        "warmup": warmup,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": sorted(digests),
        "shares": shares,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
