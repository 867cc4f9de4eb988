"""The ``wizard-storm`` workload: closed-loop wizard requests from a seeded
requirement mix, built only from the public API.

Three clients on different segments of the thesis testbed (sagit on the
campus net, mimas and calypso in the lab) each send ``REQUESTS_PER_CLIENT``
back-to-back ``request_servers`` calls: a closed loop, the next request
leaves when the previous one returned.

The requirement pool is fixed; ``--seed`` only draws each client's
sequence from it, through named streams.  Each draw first picks a category
with fixed odds, so the category shares move by sampling noise only, then
an entry of that category with Zipf-like popularity over a seed-dependent
ranking.  The pool has more distinct texts than the 256-entry compile
caches, so hits and compiles interleave.  Categories:

* ``plain`` — CPU, memory and bogomips thresholds;
* ``network`` — ``monitor_network_*`` variables (group metrics);
* ``temp`` — temp variables assigned and then tested;
* ``slots`` — ``user_denied_host*`` / ``user_preferred_host*`` slots;
* ``reject`` — statically unsatisfiable or misspelled requirements, which
  the client's precheck rejects without sending;
* ``nak`` — unsatisfiable requirements sent with the precheck off, which
  the wizard NAKs before scanning its databases.

Thresholds sit away from every value the idle testbed reports (bogomips,
memory and group metrics are constants, ``host_cpu_free`` stays within
0.995–1, ``host_status_age`` below 4 s), so the reply to an entry does not
depend on when it is asked.  That is what lets one pinned table of replies
per (entry, client) check every request of every seed.
"""

from __future__ import annotations

import itertools

from repro.bench import TESTBED_SERVER_NAMES

__all__ = ["CLIENT_HOSTS", "REQUESTS_PER_CLIENT", "POOL", "CATEGORY_ODDS",
           "exhaustive_sequences", "seeded_sequences",
           "run_storm"]

CLIENT_HOSTS = ("sagit", "mimas", "calypso")
REQUESTS_PER_CLIENT = 2000
#: sim seconds the clients wait after the deployment's own warm-up, so
#: every status and group-metric record exists before the first request
SETTLE = 10.0

_BOGOMIPS = (1000, 2000, 3000, 3300, 3500, 4000, 4500)
_MEM_FREE_MB = (1, 5, 10, 50, 100, 200, 300)
_CPU_FREE = (0.1, 0.5, 0.9)
_DELAY_MS = (0.1, 0.3, 1, 20)
_BW_MBPS = (6, 50, 90, 150)
_MEM_TOTAL_MB = (128, 192, 256, 512)
_COUNTS = (1, 2, 4, 11)
_OPTIONS = ("", "", "", "rank:host_memory_free", "rank:host_cpu_bogomips:asc")

CATEGORY_ODDS = (("plain", 0.30), ("network", 0.20), ("temp", 0.12),
                 ("slots", 0.20), ("reject", 0.12), ("nak", 0.06))


def _texts():
    """(category, requirement text, precheck) for every pool entry."""
    for b, c, m in itertools.product(_BOGOMIPS, _CPU_FREE, _MEM_FREE_MB):
        yield ("plain", f"(host_cpu_bogomips > {b}) && (host_cpu_free > {c})"
               f" && (host_memory_free > {m})", True)
    for bw, d, b in itertools.product(_BW_MBPS, _DELAY_MS, _BOGOMIPS):
        yield ("network", f"(monitor_network_bw > {bw}) && "
               f"(monitor_network_delay < {d})\nhost_cpu_bogomips > {b}", True)
    for b, t in itertools.product(_BOGOMIPS, _MEM_TOTAL_MB):
        yield ("temp", "speed = host_cpu_bogomips * host_cpu_free\n"
               "mem = host_memory_total / 1048576\n"
               f"(speed > {b}) && (mem >= {t})", True)
    for m in _MEM_FREE_MB:
        yield ("temp", f"head = host_memory_free - {m}\nhead > 0\n"
               "host_status_age < 30", True)
    for b, h in itertools.product(_BOGOMIPS, TESTBED_SERVER_NAMES):
        yield ("slots", f"host_cpu_bogomips > {b}\nuser_denied_host1 = {h}",
               True)
    for h, m in itertools.product(TESTBED_SERVER_NAMES, _MEM_FREE_MB):
        yield ("slots", f"user_preferred_host1 = {h}\nhost_memory_free > {m}",
               True)
    for x in (1.5, 2, 3, 10):
        yield ("reject", f"host_cpu_free > {x}", True)
    for x, m in itertools.product((2, 5), _MEM_FREE_MB):
        yield ("reject", f"(host_cpu_idle > {x}) && (host_memory_free > {m})",
               True)
    for m in _MEM_FREE_MB:
        yield ("reject", f"host_memory_free < -{m}", True)
    for c in _CPU_FREE:
        yield ("reject", f"host_cpu_fre > {c}", True)
    for m in _MEM_FREE_MB:
        yield ("nak", f"(host_cpu_free > 2) && (host_memory_free > {m})",
               False)


#: the pool: one dict per entry, position = entry index
POOL = tuple(
    {"category": cat, "text": text, "precheck": precheck,
     "n": _COUNTS[i % len(_COUNTS)], "option": _OPTIONS[i % len(_OPTIONS)]}
    for i, (cat, text, precheck) in enumerate(_texts())
)


def _sequence(streams, client: str, count: int) -> list[int]:
    """Entry indices one client sends, drawn from its named streams."""
    by_category: dict[str, list[int]] = {}
    for i, entry in enumerate(POOL):
        by_category.setdefault(entry["category"], []).append(i)
    names = [name for name, _ in CATEGORY_ODDS]
    odds = [p for _, p in CATEGORY_ODDS]
    popularity = {}
    for name in names:
        ranked = list(by_category[name])
        streams.stream(f"storm-rank-{name}").shuffle(ranked)
        popularity[name] = (ranked,
                            [1.0 / (r + 1) ** 0.8 for r in range(len(ranked))])
    kind_rng = streams.stream(f"storm-category-{client}")
    pick_rng = streams.stream(f"storm-entry-{client}")
    out = []
    for _ in range(count):
        name = kind_rng.choices(names, odds)[0]
        ranked, weights = popularity[name]
        out.append(pick_rng.choices(ranked, weights)[0])
    return out


def exhaustive_sequences() -> dict[str, list[int]]:
    """Every pool entry once per client, in pool order (for pinning)."""
    return {c: list(range(len(POOL))) for c in CLIENT_HOSTS}


def seeded_sequences(seed: int) -> dict[str, list[int]]:
    from repro.sim import RandomStreams

    streams = RandomStreams(seed)
    return {c: _sequence(streams, c, REQUESTS_PER_CLIENT) for c in CLIENT_HOSTS}


def run_storm(sequences: dict[str, list[int]]) -> dict:
    """Build the storm world, play ``sequences`` and return the outcomes.

    Each outcome is ``[client, entry, kind, servers, attempts]`` with kind
    one of ``ok``, ``nak``, ``reject``, ``stale``, ``none`` (no reply
    after every retry) or ``error:<exception>``.
    """
    # imported at call time, after the benchmark installed its wrappers
    from repro.cluster import Deployment, build_testbed
    from repro.core import RequirementRejected

    cluster = build_testbed(seed=0)
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"))
    lab = [cluster.host(n) for n in TESTBED_SERVER_NAMES if n != "sagit"]
    dep.add_group("lab", monitor_host=cluster.host("dalmatian"), servers=lab)
    dep.add_group("campus", monitor_host=cluster.host("sagit"),
                  servers=[cluster.host("sagit")])
    dep.start()
    sim = cluster.sim
    net = cluster.network
    outcomes: list[list] = []
    clients = {}

    def client_loop(host_name: str, entries: list[int]):
        client = dep.client_for(cluster.host(host_name))
        clients[host_name] = client
        yield sim.timeout(dep.warm_up_seconds() + SETTLE)
        for index in entries:
            entry = POOL[index]
            try:
                reply = yield from client.request_servers(
                    entry["text"], entry["n"], option=entry["option"],
                    precheck=entry["precheck"])
            except RequirementRejected:
                outcomes.append([host_name, index, "reject", [], 0])
                continue
            except Exception as exc:  # counted as a failed request
                outcomes.append([host_name, index,
                                 f"error:{type(exc).__name__}", [], 0])
                continue
            kind = ("nak" if reply.nak else "stale" if reply.stale
                    else "none" if reply.seq < 0 else "ok")
            outcomes.append([host_name, index, kind,
                             [net.hostname_of(a) for a in reply.servers],
                             reply.attempts])

    procs = [sim.process(client_loop(h, sequences[h]), name=f"storm-{h}")
             for h in CLIENT_HOSTS]
    while not all(p.processed for p in procs):
        sim.step()
    caches = [dep.wizard.compile_cache] + [c.compile_cache
                                           for c in clients.values()]
    return {
        "outcomes": outcomes,
        "wizard_cache": [dep.wizard.compile_cache.hits,
                         dep.wizard.compile_cache.misses],
        "cache": [sum(c.hits for c in caches), sum(c.misses for c in caches)],
    }
