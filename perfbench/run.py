"""The repo benchmark: paper-workload wall time, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

* ``matmul-2v2``   — thesis Table 5.3, both arms (bulk TCP + CPU sharing);
* ``wizard-storm`` — three clients sending closed-loop wizard requests
  from a seeded requirement mix (wizard, evaluator, compile cache);
* ``monitor-plane`` — thesis Table 5.2 over 900 simulated seconds (the
  always-on monitoring plane: many small UDP datagrams).  Runs on request;
  ``BENCHMARK.json`` leaves it out to fit its time budget.

Each run starts one fresh interpreter (``rep.py``), so peak memory belongs
to one workload.  It runs one warm-up repetition, then timed repetitions
until ``--seconds`` is used up, and measures the fixed reference load of
``calib.py`` around every repetition.  Times are reported scaled to the
reference host speed (``time * calib.REFERENCE_S / load time``, per
repetition), and as the median over the repetitions; the times as
measured are printed too.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` an untraced and a traced interpreter get half
the time each and the per-layer metrics of the traced repetitions are
printed, with ``trace.overhead`` = median scaled traced wall time / median
scaled untraced wall time.  Every repetition's simulated output is checked
against ``expected.json``.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics`` (``--workload all``
prints one per workload, then one for the whole command).  Exit code 1,
without that line, when a workload cannot be measured at all; exit code 2
when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("matmul-2v2", "wizard-storm", "monitor-plane")
#: seconds a measuring process may overrun its budget before it counts as
#: hung (a repetition that has started always finishes)
GRACE_S = 45


def _child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run ``rep.py``: one fresh interpreter, repetitions for ``seconds``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}.jsonl")]
    # one string-hash seed for every run, so dict and set layouts, and
    # the time spent probing them, do not change from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=seconds + GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measuring process failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def _ratio(pair) -> str:
    hits, base = pair
    return f"{hits}/{base} = {hits / base:.4f}" if base else f"{hits}/0"


def _median(reps: list, key: str) -> float:
    """Median over repetitions of ``key`` as measured."""
    return statistics.median(r[key] for r in reps)


def _scaled(reps: list, key: str) -> float:
    """Median over repetitions of ``key`` scaled to the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in reps)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload, print its report, return the result object."""
    if trace:
        # untraced and traced repetitions need separate interpreters: the
        # wrappers cannot be taken out again once installed
        children = [_child(workload, seed, seconds / 2, False),
                    _child(workload, seed, seconds / 2, True)]
    else:
        children = [_child(workload, seed, seconds, False)]
    untraced = children[0]["reps"]
    traced = children[1]["reps"] if trace else []
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests = sorted({d for c in children for d in c["digests"]})
    errors = [e for c in children for e in c["errors"]]
    correct = failed == 0 and not errors and len(digests) == 1

    print(f"{workload} seed={seed}: 1 warm-up + {len(untraced)} untraced, "
          f"{len(traced)} traced repetitions")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in untraced)
    scales = ", ".join(f"{r['scale']:.3f}" for r in untraced)
    print(f"  untraced wall_s per repetition, as measured: {walls}")
    print("  host speed per repetition (reference load "
          f"{calib.REFERENCE_S:.3f} s / its measured time): {scales}")
    print(f"  output digest: {', '.join(digests)}; "
          f"failed_share: {failed}/{attempted} = {failed / attempted:.4f}")
    for e in errors[:10]:
        print(f"  CHECK FAILED: {e}")
    for name, pair in children[0]["shares"].items():
        print(f"  input {name}: {_ratio(pair)} (warm-up repetition)")

    if not trace:
        print(f"  as measured: wall_s {_median(untraced, 'wall_s'):.6f} s, "
              f"setup_s {_median(untraced, 'setup_s'):.6f} s")
        # request latency is reported, not gated (README.md says why)
        print(f"  request_wall_ms: {untraced[0]['requests']} requests per "
              "repetition; each percentile is the median of the "
              "repetitions' own, scaled; "
              f"p50 {_scaled(untraced, 'request_p50_ms'):.6f} ms, "
              f"p95 {_scaled(untraced, 'request_p95_ms'):.6f} ms, "
              f"p99 {_scaled(untraced, 'request_p99_ms'):.6f} ms")
        metrics = {
            "wall_s": (_scaled(untraced, "wall_s"), "s"),
            "setup_s": (_scaled(untraced, "setup_s"), "s"),
            "peak_rss_mb": (children[0]["rss_mb"], "MB"),
        }
    else:
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            scale = unit in ("s", "us")
            values = [r["layers"][name][0] * (r["scale"] if scale else 1)
                      for r in traced]
            metrics[name] = (statistics.median(values), unit)
        metrics["trace.overhead"] = (
            _scaled(traced, "wall_s") / _scaled(untraced, "wall_s"), "ratio")
        print(f"  spans of the last traced repetition: "
              f"{OUT_DIR / f'spans-{workload}.jsonl'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print(json.dumps(results[name]))
    if len(names) > 1:
        # one object for the whole command; metric names gain the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
