"""The workloads and the checks on their simulated output.

Each runner returns ``(output, shares)``: ``output`` is plain data that
must equal the reference pinned in ``expected.json``, and ``shares`` are
measured input properties worth printing (empty for the paper workloads).
:func:`check` compares an output with the reference, applies the paper's
shape checks and counts operations: one per arm for the paper workloads,
one per request for the storm.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["WORKLOADS", "run", "check", "operations", "digest",
           "load_expected", "EXPECTED_PATH"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Thesis Table 5.3 requirement (bench/test_tab5_3_matmul_2v2.py)
MATMUL_REQUIREMENT = ("(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && "
                      "(host_memory_free > 5)")
#: Table 5.2 stretched from 60 s to 900 s of simulated monitoring
MONITOR_SECONDS = 900.0

WORKLOADS = ("matmul-2v2", "monitor-plane", "wizard-storm")


def _matmul(seed: int):
    from repro.bench import matmul_experiment

    arms = matmul_experiment(n_servers=2, blk=600,
                             requirement=MATMUL_REQUIREMENT,
                             random_servers=("lhost", "phoebe"))
    return [{"label": a.label, "servers": list(a.servers),
             "elapsed": a.elapsed,
             "blocks_per_server": dict(sorted(a.blocks_per_server.items()))}
            for a in arms], {}


def _monitor(seed: int):
    from repro.bench import resource_usage

    rows = resource_usage(duration=MONITOR_SECONDS)
    return [[r.component, r.cpu_pct, r.mem_kb, r.net_kbps, r.transport]
            for r in rows], {}


def _storm(seed: int, sequences=None):
    import storm

    if sequences is None:
        sequences = storm.seeded_sequences(seed)
    result = storm.run_storm(sequences)
    outcomes = result["outcomes"]
    n = len(outcomes)
    rejected = sum(1 for o in outcomes if o[2] == "reject")
    naks = sum(1 for o in outcomes if o[2] == "nak")
    network = sum(1 for o in outcomes
                  if "monitor_network_" in storm.POOL[o[1]]["text"])
    hits, misses = result["cache"]
    wiz_hits, wiz_misses = result["wizard_cache"]
    shares = {
        "compile_cache_hit_ratio": [hits, hits + misses],
        "wizard_cache_hit_ratio": [wiz_hits, wiz_hits + wiz_misses],
        "precheck_reject_share": [rejected, n],
        "wizard_nak_share": [naks, n],
        "network_variable_share": [network, n],
    }
    return outcomes, shares


_RUNNERS = {"matmul-2v2": _matmul, "monitor-plane": _monitor,
            "wizard-storm": _storm}


def run(workload: str, seed: int):
    return _RUNNERS[workload](seed)


def digest(output) -> str:
    """Short SHA-256 of an output, printed so runs can be compared by eye."""
    blob = json.dumps(output, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def pool_digest() -> str:
    import storm

    return digest(storm.POOL)


def operations(workload: str, expected: dict) -> int:
    """Operations one run of ``workload`` attempts."""
    import storm

    if workload == "wizard-storm":
        return len(storm.CLIENT_HOSTS) * storm.REQUESTS_PER_CLIENT
    return len(expected[workload]) if workload == "matmul-2v2" else 1


def check(workload: str, output, expected: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, errors)`` for one run's output."""
    ref = expected[workload]
    errors: list[str] = []
    if workload == "matmul-2v2":
        failed = sum(1 for got, want in zip(output, ref) if got != want)
        failed += abs(len(ref) - len(output))
        if failed:
            errors.append(f"matmul arms differ from the pinned reference: "
                          f"{output}")
        by = {a["label"]: a for a in output}
        if set(by) != {"random", "smart"}:
            errors.append(f"expected a random and a smart arm, got {list(by)}")
            return operations(workload, expected), failed, errors
        if sorted(by["smart"]["servers"]) != ["dalmatian", "dione"]:
            errors.append(f"smart arm picked {by['smart']['servers']}, "
                          "the paper picks dalmatian, dione")
        improvement = 1 - by["smart"]["elapsed"] / by["random"]["elapsed"]
        if not 0.25 < improvement < 0.50:
            errors.append(f"smart improvement {improvement:.3f} outside the "
                          "paper's 25-50 % band")
        return operations(workload, expected), failed, errors
    if workload == "monitor-plane":
        failed = int(output != ref)
        if failed:
            errors.append(f"Table 5.2 rows differ from the pinned reference: "
                          f"{output}")
        for component, cpu_pct, *_ in output:
            if cpu_pct > 1.0:
                errors.append(f"{component} uses {cpu_pct:.2f} % CPU, the "
                              "paper's bound is 1 %")
        return operations(workload, expected), failed, errors
    # wizard-storm: every request against the pinned reply for its entry
    attempted = operations(workload, expected)
    if ref["pool_digest"] != pool_digest():
        errors.append("the storm pool changed since expected.json was pinned")
        return attempted, attempted, errors
    replies = ref["replies"]
    failed = attempted - len(output)
    for client, entry, kind, servers, attempts in output:
        if [kind, servers, attempts] != replies[client][entry]:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{client} entry {entry}: got "
                              f"{[kind, servers, attempts]}, pinned "
                              f"{replies[client][entry]}")
    return attempted, failed, errors


def pin() -> dict:
    """Reference outputs of the current program, for ``expected.json``."""
    import storm

    outcomes, _ = _storm(0, storm.exhaustive_sequences())
    replies: dict[str, list] = {c: [None] * len(storm.POOL)
                                for c in storm.CLIENT_HOSTS}
    for client, entry, kind, servers, attempts in outcomes:
        replies[client][entry] = [kind, servers, attempts]
    return {
        "matmul-2v2": _matmul(0)[0],
        "monitor-plane": _monitor(0)[0],
        "wizard-storm": {"pool_digest": pool_digest(), "replies": replies},
    }
