"""Outside-in span recording for the benchmark's traced run.

Nothing in ``src/`` is edited: :func:`install_tracing` replaces public
methods of each layer's classes with wrappers at run time, before the
deployment is built (KV stores bind ``meter.charge`` at construction, and
server nodes build their dispatch tables at construction).  Each wrapper
records one span (name, start, end, parent, simulated client id) in
columnar in-memory arrays.  The spans are written out once, when the run
ends (:meth:`SpanLog.dump`).

Layers are named after the repository's modules:

========== ============================================================
span       boundary wrapped
========== ============================================================
harness    the root span opened by the benchmark around one workload
engine     ``Simulator.run``, ``DirectEngine.run``
client     each resumption of a generator handed to ``EventEngine.spawn``
           or ``DirectEngine.run``; the client's public synchronous calls
           the benchmark itself makes
placement  ``ConsistentHashRing.lookup*``
lease      ``LeaseCache.get`` / ``LeaseCache.put``
server.*   a server node's dispatch table and ``ServerNode.dispatch``,
           keyed by node-name prefix (``fms``, ``dms``, ``cache``, ``obj``)
kv.*       public methods of ``HashStore`` (``kv.hash``) and
           ``BTreeStore`` (``kv.btree``), iteration included
meter      ``Meter.charge*``
obs        ``TelemetrySink`` ingest hooks
openloop   ``arrival_times``, ``OpenLoopSource.start`` and its arrival /
           dispatch callbacks, scenario-pack ``prepare`` / ``job``
========== ============================================================

A call into a layer from inside a span of the same layer records no new
span (``Meter.charge_many`` falling back to ``charge``, a store method
calling another), so counts are per outermost call.  A layer's self time
is its spans' durations minus the parts covered by their child spans;
because spans nest strictly (one thread, ``try``/``finally`` closes), the
self times of all spans sum to the root span's duration, which
:meth:`SpanLog.analyze` checks.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

SPAN_NAMES = (
    "harness", "engine", "client", "placement", "lease",
    "server.fms", "server.dms", "server.cache", "server.obj",
    "kv.hash", "kv.btree", "meter", "obs", "openloop",
)

#: counters the wrappers keep next to the spans
COUNTS = (
    "placement.ring_lookups", "lease.gets", "lease.hits",
    "server.batches", "server.batch_records",
    "kv.keys", "meter.charges", "obs.records",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _TracedGen:
    """Generator proxy: every ``send``/``throw`` is one client span."""

    __slots__ = ("_gen", "_log", "_cid")

    def __init__(self, gen, log: "SpanLog", cid: int):
        self._gen = gen
        self._log = log
        self._cid = cid

    def send(self, value):
        log = self._log
        if not log.stack:
            return self._gen.send(value)
        i = log.open(log.client_id, self._cid)
        try:
            return self._gen.send(value)
        finally:
            log.close(i)

    def throw(self, *exc):
        log = self._log
        if not log.stack:
            return self._gen.throw(*exc)
        i = log.open(log.client_id, self._cid)
        try:
            return self._gen.throw(*exc)
        finally:
            log.close(i)

    def close(self):
        return self._gen.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class _TracedIter:
    """Iterator proxy for KV scans: each step is a span of the store's layer."""

    __slots__ = ("_it", "_log", "_nid")

    def __init__(self, it, log: "SpanLog", nid: int):
        self._it = it
        self._log = log
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        log = self._log
        if not log.stack or log.layers[-1] == log.layer_of[self._nid]:
            return next(self._it)
        i = log.open(self._nid)
        try:
            return next(self._it)
        finally:
            log.close(i)


class SpanLog:
    """Columnar span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        layer_ids: dict[str, int] = {}
        self.layer_of = [layer_ids.setdefault(_layer(n), len(layer_ids))
                         for n in self.names]
        self.client_id = self.name_id["client"]
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.client = array("i")
        #: open span indices and their layer ids (parallel stacks); the
        #: wrappers record only while a root span is open
        self.stack: list[int] = []
        self.layers: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.server_calls: dict[str, int] = {}
        self.kv_calls: dict[str, int] = {}
        self._clients: dict = {}

    # -- recording ----------------------------------------------------------
    def open(self, nid: int, cid: int = -1) -> int:
        i = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.client.append(cid)
        self.end.append(0.0)
        self.stack.append(i)
        self.layers.append(self.layer_of[nid])
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.layers.pop()

    def sim_client(self, key) -> int:
        """Small integer id for a simulated client (engine client state)."""
        cid = self._clients.get(key)
        if cid is None:
            cid = self._clients[key] = len(self._clients)
        return cid

    def span_fn(self, fn, name: str, on_call=None):
        """``fn`` wrapped in a span named ``name`` (skipped when the
        innermost open span is already in the same layer)."""
        nid = self.name_id[name]
        layer = self.layer_of[nid]
        stack = self.stack
        layers = self.layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or layers[-1] == layer:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    # -- analysis -------------------------------------------------------------
    def analyze(self) -> dict:
        """Per-span-name self time, span counts and the nesting checks."""
        n = len(self.kind)
        kind, start, end, parent = self.kind, self.start, self.end, self.parent
        covered = [0.0] * n
        escapes = 0
        roots = 0
        for i in range(n):
            p = parent[i]
            if p < 0:
                roots += 1
                continue
            covered[p] += end[i] - start[i]
            if start[i] < start[p] or end[i] > end[p]:
                escapes += 1
        self_s = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i in range(n):
            k = kind[i]
            self_s[k] += (end[i] - start[i]) - covered[i]
            spans[k] += 1
        root_s = (end[0] - start[0]) if n else 0.0
        total = sum(self_s)
        return {
            "self_s": dict(zip(self.names, self_s)),
            "spans": dict(zip(self.names, spans)),
            "root_s": root_s,
            "self_sum_s": total,
            "n_spans": n,
            "roots": roots,
            "escapes": escapes,
            # one root, strict nesting, and self times summing to the root
            "sum_ok": (roots == 1 and escapes == 0 and not self.stack
                       and abs(total - root_s) <= 1e-6 + 1e-9 * root_s),
        }

    def dump(self, path, meta: dict) -> None:
        """Write every span: one JSON header line (``meta`` included), then
        the raw columns (``kind`` u16, ``start`` f64, ``end`` f64,
        ``parent`` i32, ``client`` i32; native byte order) in header order."""
        cols = [("kind", self.kind), ("start", self.start), ("end", self.end),
                ("parent", self.parent), ("client", self.client)]
        header = {
            **meta,
            "names": self.names,
            "n": len(self.kind),
            "columns": [[c, a.typecode, a.itemsize] for c, a in cols],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, a in cols:
                a.tofile(f)


# --- installation ------------------------------------------------------------

def _public_methods(cls):
    """``(name, function)`` for every public plain method on ``cls``'s MRO
    below ``object`` (no properties, static or class methods)."""
    out = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attr = inspect.getattr_static(cls, name)
        if inspect.isfunction(attr):
            out.append((name, attr))
    return out


def _keys_in(name: str, args: tuple) -> int:
    if name in ("multi_get", "multi_put") and len(args) > 1:
        return len(args[1])
    if name == "put_pair":
        return 2
    return 1


def _server_span(node_name: str) -> str:
    """``server.<kind>`` for a node named ``<kind><n>`` (``fms3``, ``dms``,
    ``cache0``); any other kind of node is counted with the object servers."""
    span = "server." + node_name.rstrip("0123456789")
    return span if span in SPAN_NAMES else "server.obj"


def install_tracing(log: SpanLog) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    from repro.harness import openloop as hol
    from repro.kv.btree import BTreeStore
    from repro.kv.hashdb import HashStore
    from repro.kv.meter import Meter
    from repro.metadata.chash import ConsistentHashRing
    from repro.metadata.lease import LeaseCache
    from repro.obs.telemetry import TelemetrySink
    from repro.sim import openloop as sol
    from repro.sim.cluster import ServerNode
    from repro.sim.engine import DirectEngine, EventEngine
    from repro.sim.rpc import Batch
    from repro.sim.simulator import Simulator

    counts = log.counts
    stack = log.stack

    # engine: the roots below the harness span
    Simulator.run = log.span_fn(Simulator.run, "engine")
    engine_nid = log.name_id["engine"]
    direct_run = DirectEngine.run

    @functools.wraps(direct_run)
    def run(self, gen):
        if not stack:
            return direct_run(self, gen)
        i = log.open(engine_nid)
        try:
            return direct_run(self, _TracedGen(gen, log, log.sim_client(self)))
        finally:
            log.close(i)

    DirectEngine.run = run

    # client: each generator resumption on the event engine
    spawn = EventEngine.spawn

    @functools.wraps(spawn)
    def traced_spawn(self, gen, on_done=None, client=None):
        if stack:
            key = client if client is not None else object()
            gen = _TracedGen(gen, log, log.sim_client(key))
        return spawn(self, gen, on_done, client)

    EventEngine.spawn = traced_spawn

    # server: the per-node dispatch table the engines call through
    node_init = ServerNode.__init__

    @functools.wraps(node_init)
    def init(self, name, handler, cost):
        node_init(self, name, handler, cost)
        span = _server_span(name)

        def on_call(args, kwargs, _span=span):
            log.server_calls[_span] = log.server_calls.get(_span, 0) + 1

        self._ops = {op: log.span_fn(fn, span, on_call)
                     for op, fn in self._ops.items()}

    ServerNode.__init__ = init
    dispatch = ServerNode.dispatch

    server_layer = log.layer_of[log.name_id["server.fms"]]

    @functools.wraps(dispatch)
    def traced_dispatch(self, method, args, kwargs):
        if not stack or log.layers[-1] == server_layer:
            return dispatch(self, method, args, kwargs)
        i = log.open(log.name_id[_server_span(self.name)])
        try:
            return dispatch(self, method, args, kwargs)
        finally:
            log.close(i)

    ServerNode.dispatch = traced_dispatch

    # batched RPCs: records carried per Batch command
    batch_init = Batch.__init__

    @functools.wraps(batch_init)
    def traced_batch(self, server, rpcs, origins=None):
        batch_init(self, server, rpcs, origins)
        if stack:
            counts["server.batches"] += 1
            counts["server.batch_records"] += sum(
                len(r.args[0]) if r.args and isinstance(r.args[0], (tuple, list))
                else 1 for r in rpcs)

    Batch.__init__ = traced_batch

    # kv: every public store method; scans are traced per step
    for cls, span in ((HashStore, "kv.hash"), (BTreeStore, "kv.btree")):
        nid = log.name_id[span]
        for name, fn in _public_methods(cls):
            def on_call(args, kwargs, _name=name, _span=span):
                log.kv_calls[_span] = log.kv_calls.get(_span, 0) + 1
                counts["kv.keys"] += _keys_in(_name, args)

            traced = log.span_fn(fn, span, on_call)
            if inspect.isgeneratorfunction(fn):
                def traced_scan(*args, _t=traced, _nid=nid, **kwargs):
                    return _TracedIter(_t(*args, **kwargs), log, _nid)
                setattr(cls, name, functools.wraps(fn)(traced_scan))
            else:
                setattr(cls, name, traced)

    # meter
    def on_charge(args, kwargs):
        counts["meter.charges"] += 1

    for name in ("charge", "charge_many", "charge_repeat", "charge_us"):
        setattr(Meter, name, log.span_fn(getattr(Meter, name), "meter", on_charge))

    # placement
    def on_lookup(args, kwargs):
        counts["placement.ring_lookups"] += 1

    for name in ("lookup", "lookup_novel", "lookup_n"):
        setattr(ConsistentHashRing, name,
                log.span_fn(getattr(ConsistentHashRing, name), "placement", on_lookup))

    # lease: hits are gets that return an entry
    lease_get = log.span_fn(LeaseCache.get, "lease")

    @functools.wraps(LeaseCache.get)
    def traced_get(self, key, now_us):
        if not stack:
            return lease_get(self, key, now_us)
        value = lease_get(self, key, now_us)
        counts["lease.gets"] += 1
        if value is not None:
            counts["lease.hits"] += 1
        return value

    LeaseCache.get = traced_get
    LeaseCache.put = log.span_fn(LeaseCache.put, "lease")

    # obs: telemetry ingest
    def on_record(args, kwargs):
        counts["obs.records"] += 1

    for name in ("op_complete", "rpc_complete", "queue_depth", "mark"):
        setattr(TelemetrySink, name,
                log.span_fn(getattr(TelemetrySink, name), "obs", on_record))

    # openloop: arrival precompute, start, per-arrival callbacks, pack jobs
    sol.arrival_times = log.span_fn(sol.arrival_times, "openloop")
    for name in ("start", "_arrive", "_dispatch"):
        fn = getattr(sol.OpenLoopSource, name, None)
        if fn is not None:
            setattr(sol.OpenLoopSource, name, log.span_fn(fn, "openloop"))
    for cls in hol.PACKS.values():
        for name in ("prepare", "job"):
            setattr(cls, name, log.span_fn(getattr(cls, name), "openloop"))
