"""A fixed reference load that measures how fast the host runs Python now.

The benchmark's host is a few cores of a shared machine whose speed
drifts by tens of percent within minutes as other tenants come and go.
That drift moves every wall time of a run alike, so each run measures
this fixed load around each repetition and reports the repetition's times
scaled to a reference speed: ``time * REFERENCE_S / load time``.  A
change to the program moves the repetitions but not the load, so it shows
in full; a change of host speed moves both and mostly cancels.

The load is a small discrete-event simulation written here, independent
of ``repro`` and never changed by a program change: a heap of timed
events, generator processes resumed by the loop, short-lived message
objects, dicts keyed by strings and tuples — the kinds of work the
simulator does, so host contention slows it by a similar factor.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

__all__ = ["REFERENCE_S", "load", "measure"]

#: seconds one ``load()`` takes at the reference speed, about its median
#: on a 2-vCPU KVM guest of an Intel Xeon host; scaled times read as
#: seconds on that machine
REFERENCE_S = 0.100


class _Message:
    def __init__(self, src, dst, size, payload):
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload


def _node(name, inbox, stats, rng, peers, out):
    """One process: wait, read its inbox, send to a peer, keep counts."""
    seen: dict = {}
    while True:
        now = yield
        while inbox:
            msg = inbox.pop()
            key = (msg.src, msg.size & 7)
            seen[key] = seen.get(key, 0) + 1
            stats[msg.src] = stats.get(msg.src, 0) + msg.size
        dst = peers[rng.randrange(len(peers))]
        out.append(_Message(name, dst, 64 + (int(now * 1e6) & 1023),
                            {"hop": len(seen), "at": now}))


def load(events: int = 20000) -> int:
    """Run the reference simulation for ``events`` events; returns a
    checksum so the work cannot be skipped."""
    rng = random.Random(1)
    names = [f"n{i}" for i in range(24)]
    inboxes: dict = {n: [] for n in names}
    stats: dict = {}
    out: list = []
    procs = {}
    for n in names:
        gen = _node(n, inboxes[n], stats, rng, names, out)
        next(gen)
        procs[n] = gen
    heap = [(rng.random(), i, n) for i, n in enumerate(names)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(events):
        now, _, n = heapq.heappop(heap)
        procs[n].send(now)
        for msg in out:
            inboxes[msg.dst].append(msg)
        out.clear()
        seq += 1
        heapq.heappush(heap, (now + rng.expovariate(10.0), seq, n))
    return sum(stats.values()) + seq


def measure() -> float:
    """Wall seconds of one ``load()``."""
    t0 = perf_counter()
    load()
    return perf_counter() - t0
