"""Wall-clock spans around the program's layer boundaries.

The benchmark treats ``repro`` as a black box: every span comes from a
wrapper this module installs around a public function or method of one
package.  A wrapper is installed where the name is *looked up* — the class
attribute for a method, and every ``repro.*`` module global bound to the
function for a plain function, because ``from x import f`` binds early and
patching only the defining module would miss those calls.

Self time of a span is its duration minus the duration of the spans opened
inside it, so a layer's self time is the wall time spent in that layer's
own code.  Time in generator bodies nobody wraps (daemon and app loops
resumed by the kernel) therefore lands in the self time of
``sim.Simulator.step``.

Two boundary sets exist:

* ``SETUP`` — world building, installed on every run so ``setup_s`` is
  measured identically with and without tracing;
* ``LAYERS`` — everything else, installed only for traced runs.

Spans of one wizard request share its sequence number as request id, from
the client's ``sendto`` through ``Wizard.match`` to each ``evaluate``.
Per-event spans are folded into per-name totals as they close; only spans
that carry a request id, and the set-up and driver spans, are kept in
memory as records and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

__all__ = ["Tracer", "RequestTimer", "SETUP", "LAYERS", "install", "span",
           "layer_metrics"]


class Tracer:
    """Span stack, per-name totals and the kept span records."""

    def __init__(self):
        #: open spans: [child_seconds, request_id, record_index]
        self.stack: list[list] = []
        #: span name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        #: kept spans: (name, start, end, parent_record_index, request_id)
        self.records: list = []
        self.counters: Counter = Counter()

    def reset(self) -> None:
        """Start a new repetition: zero every total in place (the wrappers
        hold references to them) and drop the kept records and counters."""
        for total in self.totals.values():
            total[:] = [0, 0.0, 0.0]
        self.stack.clear()
        self.records.clear()
        self.counters.clear()

    def total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def dump(self, path) -> None:
        """Write the kept span records as JSON lines, after a header line
        naming the fields; ``parent`` is the record index of the enclosing
        kept span (-1 when it was not kept)."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["index", "name", "start", "end",
                                             "parent", "request"]}) + "\n")
            for index, record in enumerate(self.records):
                out.write(json.dumps([index, *record]) + "\n")


def span(tracer: Tracer, name: str, fn, request_id=None, after=None):
    """Wrap plain function ``fn`` in a span called ``name``.

    ``request_id(args, kwargs)`` names the request a call belongs to; a
    span without one inherits its parent's.  ``after(result, args,
    kwargs)`` updates counters from the call's outcome.  Set-up and driver
    spans (``cluster.*``, ``bench.*``) and spans with a request id are
    kept as records.
    """
    keep = name.startswith(("cluster.", "bench."))
    total = tracer.total(name)
    stack = tracer.stack
    records = tracer.records

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        rid = request_id(args, kwargs) if request_id is not None else None
        if rid is None and parent is not None:
            rid = parent[1]
        frame = [0.0, rid, -1]
        if keep or rid is not None:
            frame[2] = len(records)
            records.append(None)
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            total[0] += 1
            total[1] += dt
            total[2] += dt - frame[0]
            if parent is not None:
                parent[0] += dt
            if frame[2] >= 0:
                records[frame[2]] = (name, t0, t1,
                                     parent[2] if parent is not None else -1,
                                     rid)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _resumes(tracer: Tracer, name: str, genfn, before=None, after=None):
    """Wrap generator function ``genfn``: each resume of the generator is
    one span called ``name``.  ``before(args)`` runs when the generator is
    first resumed and its value is handed to ``after(state, args)`` when the
    generator finishes, however it finishes."""
    total = tracer.total(name)
    stack = tracer.stack

    def resume(gen, send, value):
        parent = stack[-1] if stack else None
        frame = [0.0, parent[1] if parent is not None else None, -1]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return gen.send(value) if send else gen.throw(value)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            total[0] += 1
            total[1] += dt
            total[2] += dt - frame[0]
            if parent is not None:
                parent[0] += dt

    def driven(gen, args):
        state = before(args) if before is not None else None
        try:
            send, value = True, None
            while True:
                try:
                    item = resume(gen, send, value)
                except StopIteration as stop:
                    return stop.value
                try:
                    send, value = True, (yield item)
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the kernel
                    send, value = False, exc
        finally:
            if after is not None:
                after(state, args)

    @functools.wraps(genfn)
    def wrapper(*args, **kwargs):
        proxy = driven(genfn(*args, **kwargs), args)
        proxy.__name__ = genfn.__name__
        return proxy

    return wrapper


class RequestTimer:
    """Wall time of every ``SmartClient.request_servers`` call, from its
    first resume to its return or exception, in milliseconds.  A call still
    pending when its world is discarded is not sampled."""

    def __init__(self):
        self.samples_ms: list[float] = []

    def wrap(self, genfn):
        samples = self.samples_ms

        def driven(gen):
            t0 = perf_counter()
            try:
                result = yield from gen
            except GeneratorExit:  # abandoned when its world ended
                raise
            except BaseException:
                samples.append((perf_counter() - t0) * 1e3)
                raise
            samples.append((perf_counter() - t0) * 1e3)
            return result

        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            proxy = driven(genfn(*args, **kwargs))
            proxy.__name__ = genfn.__name__
            return proxy

        return wrapper


# -- boundary tables ---------------------------------------------------------
# (span name, owner, attribute).  The owner is a dotted path to a class
# (method boundary) or a module (function boundary).

#: world building: timed on every run, the source of ``setup_s``
SETUP = (
    ("cluster.build", "repro.cluster.testbed", "build_testbed"),
    ("cluster.deploy", "repro.cluster.deploy.Deployment", "add_group"),
    ("cluster.deploy", "repro.cluster.deploy.Deployment", "start"),
    ("cluster.deploy", "repro.apps.matmul.MatMulWorker", "start"),
)

#: per-layer boundaries, traced runs only
LAYERS = (
    ("bench.drive", "repro.bench.experiments", "_drive"),
    ("sim.step", "repro.sim.kernel.Simulator", "step"),
    ("net.transmit", "repro.net.link.Channel", "transmit"),
    ("net.send_datagram", "repro.net.nic.NIC", "send_datagram"),
    ("net.wire_at", "repro.net.packet.Frame", "wire_at"),
    ("net.receive", "repro.net.node.Node", "receive"),
    ("net.stack_deliver", "repro.net.sockets.NetworkStack", "deliver"),
    ("net.tcp_deliver", "repro.net.tcp.TcpLayer", "deliver"),
    ("net.sendto", "repro.net.sockets.UdpSocket", "sendto"),
    ("net.segment", "repro.net.tcp.TcpConnection", "_transmit_segment"),
    ("host.cpu_run", "repro.host.cpu.CPU", "run"),
    ("host.compute", "repro.host.machine.Machine", "compute"),
    ("host.procfs", "repro.host.procfs.ProcFS", "read"),
    ("core.match", "repro.core.wizard.Wizard", "match"),
    ("core.scan", "repro.core.probe.ServerProbe", "scan"),
    ("core.request", "repro.core.client.SmartClient", "request_servers"),
    ("lang.lookup", "repro.lang.analysis.CompileCache", "get_or_compile"),
    ("lang.compile", "repro.lang.analysis", "compile_requirement"),
    ("lang.evaluate", "repro.lang.evaluator", "evaluate"),
)


def _resolve(path: str):
    """Import ``path`` as a module, or as ``module.Class``."""
    import importlib

    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _rebind(original, wrapped, owner, attr: str) -> None:
    """Install ``wrapped`` everywhere ``original`` is looked up."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    modules = [m for name, m in sys.modules.items()
               if name == "repro" or name.startswith("repro.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def _hooks(tracer: Tracer, name: str):
    """Request ids and counters measured at particular boundaries."""
    from repro.core import WizardReply, WizardRequest

    counters = tracer.counters
    wizard_messages = (WizardRequest, WizardReply)

    def seq_of(payload):
        return payload.seq if isinstance(payload, wizard_messages) else None

    if name == "net.transmit":
        def dropped(ok, args, kwargs):
            if not ok:
                counters["net.frame_drops"] += 1
        return {"after": dropped}
    if name == "net.segment":
        def retransmit(_, args, kwargs):
            if kwargs.get("retransmission"):
                counters["net.tcp_retransmits"] += 1
        return {"after": retransmit}
    if name == "net.sendto":
        return {"request_id": lambda args, kwargs: seq_of(
            kwargs["payload"] if "payload" in kwargs
            else (args[4] if len(args) > 4 else None))}
    if name == "net.receive":
        return {"request_id": lambda args, kwargs: seq_of(
            args[1].dgram.payload)}
    if name == "core.match":
        return {"request_id": lambda args, kwargs: args[1].seq}
    if name == "core.request":
        def timeouts_before(args):
            counters["core.client.requests"] += 1
            return args[0].timeouts

        def timeouts_after(before, args):
            counters["core.client.timeouts"] += args[0].timeouts - before
        return {"before": timeouts_before, "after": timeouts_after}
    return {}


def install(tracer: Tracer, boundaries,
            timer: RequestTimer | None = None) -> None:
    """Wrap every boundary in ``boundaries``; with ``timer`` also time each
    ``request_servers`` call (outermost, so tracing never hides in it).
    Call it before any benchmark module binds a wrapped function by name."""
    import inspect

    for name, owner_path, attr in boundaries:
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
        hooks = _hooks(tracer, name)
        if inspect.isgeneratorfunction(original):
            wrapped = _resumes(tracer, name, original, **hooks)
        else:
            wrapped = span(tracer, name, original, **hooks)
        _rebind(original, wrapped, owner, attr)
    if timer is not None:
        from repro.core.client import SmartClient

        SmartClient.request_servers = timer.wrap(SmartClient.request_servers)


def _sum(totals, prefix: str, column: int) -> float:
    return sum(t[column] for name, t in totals.items()
               if name.startswith(prefix))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (counts, and seconds as self or
    total time); ``trace.overhead`` is added by the caller, which has the
    untraced runs."""
    totals, counters = tracer.totals, tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per(numerator_s, count):
        return numerator_s / count * 1e6 if count else 0.0

    events = calls("sim.step")
    sim_self = _sum(totals, "sim.", 2)
    frames = calls("net.transmit")
    net_self = _sum(totals, "net.", 2)
    evals = calls("lang.evaluate")
    eval_s = _sum(totals, "lang.evaluate", 1)
    lookups = calls("lang.lookup")
    compiles = calls("lang.compile")
    return {
        "sim.events": (events, "count"),
        "sim.self_s": (sim_self, "s"),
        "sim.us_per_event": (per(sim_self, events), "us"),
        "bench.drive_s": (_sum(totals, "bench.", 2), "s"),
        "net.frames": (frames, "count"),
        "net.frame_drops": (counters["net.frame_drops"], "count"),
        "net.datagrams": (calls("net.send_datagram"), "count"),
        "net.wire_at_calls": (calls("net.wire_at"), "count"),
        "net.tcp_retransmits": (counters["net.tcp_retransmits"], "count"),
        "net.self_s": (net_self, "s"),
        "net.us_per_frame": (per(net_self, frames), "us"),
        "host.cpu_tasks": (calls("host.cpu_run"), "count"),
        "host.self_s": (_sum(totals, "host.", 2), "s"),
        "core.wizard.matches": (calls("core.match"), "count"),
        "core.wizard.self_s": (_sum(totals, "core.match", 2), "s"),
        "core.client.requests": (counters["core.client.requests"], "count"),
        "core.client.timeouts": (counters["core.client.timeouts"], "count"),
        "core.probe.scans": (calls("core.scan"), "count"),
        "core.self_s": (_sum(totals, "core.", 2), "s"),
        "lang.evals": (evals, "count"),
        "lang.eval_s": (eval_s, "s"),
        "lang.us_per_eval": (per(eval_s, evals), "us"),
        "lang.compiles": (compiles, "count"),
        "lang.compile_s": (_sum(totals, "lang.compile", 1), "s"),
        "lang.cache_hit_ratio": ((lookups - compiles) / lookups
                                 if lookups else 0.0, "ratio"),
        "cluster.build_s": (_sum(totals, "cluster.build", 1), "s"),
        "cluster.deploy_s": (_sum(totals, "cluster.deploy", 1), "s"),
    }
