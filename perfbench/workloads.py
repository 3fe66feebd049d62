"""The benchmark's four workloads, driven through the program's public API.

Each workload turns the benchmark seed into inputs (paths, op streams,
a seed for the arrival processes), builds a deployment, runs an
unmeasured pre-population wave, then the measured phase, and finally
checks the program's outputs.  ``Phases`` takes the host timestamps that
separate set-up from the measured phase, and checkpoints inside the
measured phase at fixed points of the work (every so many operations or
open-loop jobs, and each open-loop cell); ``Probe`` keeps the engines and
open-loop sources the program builds, so virtual-time results can be read
back even where the deployment is built inside the program
(``sweep_capacity``).  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import random
from time import perf_counter

import hostref

#: create_contended: Fig. 8 headline cell (8 FMS, Table-3 client count)
CC_SERVERS = 8
CC_CLIENTS = 130
CC_ITEMS = 200
CC_MARK_EVERY = 1000

#: bulk_load: one write-behind client on the direct engine; the file
#: count is 3x the 65,536-entry client placement and lease caches
BL_SERVERS = 4
BL_DIRS = 192
BL_FILES_PER_DIR = 1024
BL_MAX_OPS = 64
BL_MAX_BYTES = 64 * 1024
BL_MARK_EVERY = 4096

#: mixed_zipf: 32 closed-loop clients on locofs-a, Zipf-hot pools
MZ_SERVERS = 4
MZ_CLIENTS = 32
MZ_ITEMS = 300
MZ_POOL = 16
MZ_ZIPF_S = 1.0
MZ_MARK_EVERY = 400
MZ_MIX = (
    ("stat", 0.24), ("access", 0.10), ("open", 0.10),
    ("create", 0.16), ("chmod", 0.12), ("chown", 0.06),
    ("unlink", 0.08), ("rename", 0.06), ("mkdir", 0.08),
)

#: openloop_sweep: Fig. 18 path; loads straddle the locofs-nc knee
#: (~35K ops/s at 4 servers) and stay under locofs-c's (~70K ops/s).
#: The admission queue is deep enough that no arrival is shed within
#: the horizon, so saturation shows as backlog and tail latency.
OL_PACK = "dl-pipeline"
OL_SYSTEMS = ("locofs-c", "locofs-nc")
OL_SERVERS = 4
OL_LOADS = (15_000.0, 30_000.0, 45_000.0, 60_000.0)
OL_HORIZON_US = 50_000.0
OL_QUEUE_BOUND = 1 << 16
OL_MARK_EVERY = 500


class Phases:
    """Host timestamps of one workload run.

    ``t0`` is taken before ``repro`` is imported.  ``build`` opens the
    root span (traced runs) just before the deployment is built,
    ``measure`` marks the first measured operation, ``end`` the last.

    Host time is kept as segments: set-up is cut in two at ``build``, and
    ``mark`` cuts the measured phase where the workload calls it, at fixed
    points of its work, so with one seed the k-th segment does the same
    work in every repetition.  Untraced runs (``reference``) run the host
    reference burst untimed at every cut and after ``end``; ``ref0`` is
    the burst the process ran just before ``t0``.  Segment k of
    ``setup_segments + segments`` lies between ``refs[k]`` and
    ``refs[k + 1]``.  ``paused_s`` is the time the bursts took after
    ``t0``.
    """

    def __init__(self, t0: float, ref0: float, spans=None):
        self.t0 = t0
        self.spans = spans
        self._root = None
        self.t_build = self.t_measure = self.t_end = None
        self.reference = spans is None
        self.refs: list[float] = [ref0] if self.reference else []
        self.setup_segments: list[float] = []
        self.segments: list[float] = []
        self.paused_s = 0.0
        self._t = t0

    def build(self) -> None:
        if self.spans is not None:
            self._root = self.spans.open(self.spans.name_id["harness"])
        self.t_build = perf_counter()
        self.setup_segments.append(self.t_build - self._t)
        self._resume(self.t_build)

    def measure(self) -> None:
        self.t_measure = perf_counter()
        self.setup_segments.append(self.t_measure - self._t)
        self._resume(self.t_measure)

    def mark(self) -> None:
        t = perf_counter()
        self.segments.append(t - self._t)
        self._resume(t)

    def end(self) -> None:
        self.t_end = perf_counter()
        self.segments.append(self.t_end - self._t)
        if self._root is not None:
            self.spans.close(self._root)
        if self.reference:
            self.refs.append(hostref.burst())

    def _resume(self, t: float) -> None:
        """Run the reference burst untimed, then restart the segment clock."""
        if self.reference:
            self.refs.append(hostref.burst())
        self._t = perf_counter()
        self.paused_s += self._t - t


class Probe:
    """Construction-time hooks: remember every engine and open-loop source
    the program builds, and when the first source starts.  They cost
    nothing per operation, so both untraced and traced runs install them.
    """

    def __init__(self, phases: Phases):
        self.engines: list = []
        self.sources: list = []
        self.phases = phases

    def install(self) -> None:
        from repro.sim import openloop
        from repro.sim.engine import DirectEngine, EventEngine

        engines = self.engines
        for cls in (DirectEngine, EventEngine):
            def init(self_, *args, _orig=cls.__init__, **kwargs):
                _orig(self_, *args, **kwargs)
                engines.append(self_)
            cls.__init__ = functools.wraps(cls.__init__)(init)

        start = openloop.OpenLoopSource.start
        probe = self

        @functools.wraps(start)
        def traced_start(self_):
            # each cell of a sweep starts a source: the first opens the
            # measured phase, the others are checkpoints
            if probe.phases.t_measure is None:
                probe.phases.measure()
            else:
                probe.phases.mark()
            probe.sources.append(self_)
            return start(self_)

        openloop.OpenLoopSource.start = traced_start

    def nodes(self) -> list:
        return [node for eng in self.engines for node in eng.cluster.nodes()]

    def events(self) -> int:
        return sum(eng.sim.events_processed for eng in self.engines
                   if hasattr(eng, "sim"))


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _server_state(nodes) -> list:
    return [[n.name, n.requests_served, repr(n.busy_us)] for n in nodes]


def _busy(nodes) -> list[float]:
    return [n.busy_us for n in nodes]


def _util_max(nodes, busy0: list[float], elapsed_us: float) -> float:
    if elapsed_us <= 0.0:
        return 0.0
    return max((n.busy_us - b) / elapsed_us for n, b in zip(nodes, busy0))


def _result(*, attempted, completed, failed, virtual_us, nodes, op_counts,
            checks=None, extra_digest=None, p50=0.0, p99=0.0, util=0.0,
            virtual_iops=None) -> dict:
    doc = {"elapsed_us": repr(virtual_us), "servers": _server_state(nodes),
           "ops": op_counts}
    if extra_digest is not None:
        doc["extra"] = extra_digest
    if virtual_iops is None:
        virtual_iops = completed / virtual_us * 1e6 if virtual_us > 0 else 0.0
    return {
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "checks": checks,
        "digest": _digest(doc),
        "model": {
            "virtual_iops": virtual_iops,
            "virtual_elapsed_us": virtual_us,
            "server_util_max": util,
            "p50_us": p50,
            "p99_us": p99,
        },
    }


def _run_closed_loop(engine, gens) -> list:
    """Spawn one simulated client per generator and drain the simulator."""
    errors: list = []

    def on_done(value, exc):
        if exc is not None:
            errors.append(exc)

    for gen in gens:
        engine.spawn(gen, on_done)
    engine.sim.run()
    return errors


# --- create_contended --------------------------------------------------------

def _mkdirs(client, paths):
    for p in paths:
        yield from client.op_generator("mkdir", p, 0o755)


def _touch_loop(client, paths, overhead, box, mark):
    op = client.op_generator
    for p in paths:
        yield overhead
        yield from op("create", p, 0o644)
        box[0] += 1
        if box[0] % CC_MARK_EVERY == 0:
            mark()


def create_contended(seed: int, phases: Phases, probe: Probe, spans=None) -> dict:
    from repro.harness.registry import make_system
    from repro.sim.engine import LocalCharge

    rng = random.Random(seed)
    roots = [f"/c{cid:04d}-{rng.getrandbits(24):06x}" for cid in range(CC_CLIENTS)]
    paths = [[f"{root}/{rng.getrandbits(32):08x}{n:04d}" for n in range(CC_ITEMS)]
             for root in roots]

    phases.build()
    system = make_system("locofs-c", CC_SERVERS, engine_kind="event")
    engine = system.engine
    clients = [system.client() for _ in range(CC_CLIENTS)]
    errors = _run_closed_loop(engine, [_mkdirs(c, [r]) for c, r in zip(clients, roots)])
    overhead = LocalCharge(system.cost.client_overhead_us)
    nodes = system.cluster.nodes()
    busy0 = _busy(nodes)
    box = [0]
    phases.measure()
    v0 = engine.now
    errors += _run_closed_loop(engine, [_touch_loop(c, p, overhead, box, phases.mark)
                                        for c, p in zip(clients, paths)])
    elapsed = engine.now - v0
    phases.end()

    expected = CC_CLIENTS * CC_ITEMS
    files = system.total_files_fast()
    return _result(
        attempted=expected, completed=box[0], failed=expected - box[0],
        virtual_us=elapsed, nodes=probe.nodes(), op_counts={"create": box[0]},
        util=_util_max(nodes, busy0, elapsed),
        checks={
            "no_errors": not errors,
            "ops_eq_clients_x_items": box[0] == expected,
            "files_created": files == expected,
        })


# --- bulk_load ---------------------------------------------------------------

def bulk_load(seed: int, phases: Phases, probe: Probe, spans=None) -> dict:
    from repro import BatchConfig, ClusterConfig
    from repro.common.errors import FSError
    from repro.core.fs import LocoFS

    rng = random.Random(seed)
    dirs = [f"/d{d:04d}-{rng.getrandbits(24):06x}" for d in range(BL_DIRS)]
    paths = [f"{d}/{rng.getrandbits(32):08x}{n:04d}"
             for d in dirs for n in range(BL_FILES_PER_DIR)]

    phases.build()
    fs = LocoFS(ClusterConfig(num_metadata_servers=BL_SERVERS,
                              batch=BatchConfig(enabled=True, max_ops=BL_MAX_OPS,
                                                max_bytes=BL_MAX_BYTES)),
                engine_kind="direct")
    client = fs.client()
    for d in dirs:
        client.mkdir(d)
    create, flush = client.create, client.flush
    if spans is not None:
        create = spans.span_fn(create, "client")
        flush = spans.span_fn(flush, "client")
    nodes = fs.cluster.nodes()
    busy0 = _busy(nodes)
    failed = 0
    phases.measure()
    v0 = fs.engine.now
    for i in range(0, len(paths), BL_MARK_EVERY):
        for p in paths[i:i + BL_MARK_EVERY]:
            try:
                create(p)
            except FSError:
                failed += 1
        phases.mark()
    flush()
    elapsed = fs.engine.now - v0
    phases.end()

    expected = len(paths)
    files = fs.total_files_fast()
    return _result(
        attempted=expected, completed=expected - failed, failed=failed,
        virtual_us=elapsed, nodes=probe.nodes(),
        op_counts={"create": expected - failed, "files": files},
        util=_util_max(nodes, busy0, elapsed),
        checks={
            "ops_eq_clients_x_items": failed == 0,
            "files_eq_created": files == expected - failed,
        })


# --- mixed_zipf --------------------------------------------------------------

def _zipf_cdf(n: int, s: float) -> list[float]:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _mixed_inputs(rng: random.Random) -> list[tuple[str, int, float]]:
    """One client's op stream: (op, zipf rank, uniform draw) per item."""
    ops = [op for op, _ in MZ_MIX]
    weights = [w for _, w in MZ_MIX]
    cdf = _zipf_cdf(MZ_POOL, MZ_ZIPF_S)
    return [(op, bisect.bisect_left(cdf, rng.random()), rng.random())
            for op in rng.choices(ops, weights, k=MZ_ITEMS)]


class _MixedClient:
    """The benchmark's model of one client's namespace, so every op it
    issues is valid under sequential per-client semantics."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.live = [f"f{n:06d}" for n in range(MZ_POOL)]
        self.fresh = MZ_POOL
        self.dirs = 0

    def new_name(self) -> str:
        name = f"f{self.fresh:06d}"
        self.fresh += 1
        return name


def _setup_pool(client, model: _MixedClient):
    yield from client.op_generator("mkdir", model.workdir, 0o755)
    for name in model.live:
        yield from client.op_generator("create", f"{model.workdir}/{name}", 0o644)


def _mixed_loop(client, model: _MixedClient, stream, overhead, box, mark):
    from repro.common.errors import FSError

    op_gen = client.op_generator
    wd = model.workdir
    live = model.live
    for op, rank, u in stream:
        yield overhead
        if not live and op not in ("create", "mkdir"):
            op = "create"
        try:
            if op == "create":
                name = model.new_name()
                yield from op_gen("create", f"{wd}/{name}", 0o644)
                live.append(name)
            elif op == "mkdir":
                yield from op_gen("mkdir", f"{wd}/m{model.dirs:05d}", 0o755)
                model.dirs += 1
            elif op == "unlink":
                name = live.pop(int(u * len(live)))
                yield from op_gen("unlink", f"{wd}/{name}")
            elif op == "rename":
                i = int(u * len(live))
                dst = model.new_name()
                yield from op_gen("rename", f"{wd}/{live[i]}", f"{wd}/{dst}")
                live[i] = dst
            else:
                path = f"{wd}/{live[rank % len(live)]}"
                if op == "stat":
                    yield from op_gen("stat_file", path)
                elif op == "access":
                    yield from op_gen("access", path, 4)
                elif op == "open":
                    yield from op_gen("open", path, 4)
                elif op == "chmod":
                    yield from op_gen("chmod", path, (0o600, 0o640, 0o644)[int(u * 3)])
                else:
                    yield from op_gen("chown", path, 1000 + int(u * 7), 1000)
        except FSError:
            box["failed"] += 1
        box["ops"] += 1
        box["per_op"][op] = box["per_op"].get(op, 0) + 1
        if box["ops"] % MZ_MARK_EVERY == 0:
            mark()


def _latency_quantiles(sink, lo_us: float, hi_us: float) -> tuple[float, float]:
    from repro.obs import LogSketch

    merged = LogSketch()
    for op in sink.op_names():
        if op.startswith("client."):
            merged.merge(sink.merged_sketch(op, lo_us, hi_us))
    if not merged.count:
        return 0.0, 0.0
    return merged.quantile(0.50), merged.quantile(0.99)


def mixed_zipf(seed: int, phases: Phases, probe: Probe, spans=None) -> dict:
    from repro.core.fsck import check
    from repro.harness.registry import make_system
    from repro.obs import TelemetrySink
    from repro.sim.engine import LocalCharge

    rng = random.Random(seed)
    models = [_MixedClient(f"/w{cid:03d}-{rng.getrandbits(24):06x}")
              for cid in range(MZ_CLIENTS)]
    streams = [_mixed_inputs(rng) for _ in range(MZ_CLIENTS)]

    phases.build()
    system = make_system("locofs-a", MZ_SERVERS, engine_kind="event")
    engine = system.engine
    sink = TelemetrySink()
    engine.attach_observability(telemetry=sink)
    clients = [system.client() for _ in range(MZ_CLIENTS)]
    errors = _run_closed_loop(engine, [_setup_pool(c, m) for c, m in zip(clients, models)])
    for c in clients:
        c.flush()
    overhead = LocalCharge(system.cost.client_overhead_us)
    cache = system.lookup_cache
    hits0, misses0 = cache.counters.get("hits"), cache.counters.get("misses")
    nodes = system.cluster.nodes()
    busy0 = _busy(nodes)
    box = {"ops": 0, "failed": 0, "per_op": {}}
    phases.measure()
    v0 = engine.now
    errors += _run_closed_loop(engine, [
        _mixed_loop(c, m, s, overhead, box, phases.mark)
        for c, m, s in zip(clients, models, streams)])
    for c in clients:
        c.flush()
    v1 = engine.now
    phases.end()

    elapsed = v1 - v0
    p50, p99 = _latency_quantiles(sink, v0, v1)
    hits = cache.counters.get("hits") - hits0
    lookups = hits + cache.counters.get("misses") - misses0
    res = _result(
        attempted=MZ_CLIENTS * MZ_ITEMS, completed=box["ops"] - box["failed"],
        failed=box["failed"], virtual_us=elapsed, nodes=probe.nodes(),
        op_counts=dict(sorted(box["per_op"].items())),
        extra_digest=[sink.total_ops, sink.total_errors],
        util=_util_max(nodes, busy0, elapsed), p50=p50, p99=p99)

    # the drained namespace: clean, and exactly the files/dirs the clients hold
    report = check(system)
    want_files = sum(len(m.live) for m in models)
    want_dirs = 1 + sum(1 + m.dirs for m in models)
    res["checks"] = {
        "no_errors": not errors,
        "ops_eq_clients_x_items": box["ops"] - box["failed"] == MZ_CLIENTS * MZ_ITEMS,
        "fsck_clean": report.clean,
        "fsck_files": report.files == want_files,
        "fsck_dirs": report.directories == want_dirs,
    }
    res["lookupcache_hit_rate"] = hits / lookups if lookups else 0.0
    return res


# --- openloop_sweep ----------------------------------------------------------

def openloop_sweep(seed: int, phases: Phases, probe: Probe, spans=None) -> dict:
    from repro.harness.openloop import PACKS
    from repro.obs.capacity import capacity_json, knee_ordering_ok, sweep_capacity

    program_seed = random.Random(seed).getrandbits(31)

    # checkpoint every so many jobs the pack hands to the sources, besides
    # each cell's start (``Probe``)
    pack = PACKS[OL_PACK]
    job = pack.job
    jobs = [0]

    def counted_job(self_, *args):
        jobs[0] += 1
        if jobs[0] % OL_MARK_EVERY == 0:
            phases.mark()
        return job(self_, *args)

    pack.job = counted_job

    phases.build()
    report = sweep_capacity(systems=OL_SYSTEMS, pack=OL_PACK, loads=OL_LOADS,
                            num_servers=OL_SERVERS, horizon_us=OL_HORIZON_US,
                            seed=program_seed, attribution=False,
                            queue_bound=OL_QUEUE_BOUND)
    phases.end()

    totals = [src.totals() for src in probe.sources]
    offered = sum(t.offered for t in totals)
    executed = sum(t.completed + t.errors for t in totals)
    failed = sum(t.errors + t.shed + t.abandoned for t in totals)
    points = [pt for entry in report["systems"].values() for pt in entry["points"]]
    weight = sum(pt["completed"] for pt in points)
    p50 = sum(pt["p50"] * pt["completed"] for pt in points) / weight if weight else 0.0
    p99 = sum(pt["p99"] * pt["completed"] for pt in points) / weight if weight else 0.0
    virtual_us = sum(eng.now for eng in probe.engines)
    util = max((n.busy_us / eng.now for eng in probe.engines if eng.now > 0
                for n in eng.cluster.nodes()), default=0.0)
    goodput = sum(t.completed_in_horizon for t in totals)
    res = _result(
        attempted=offered, completed=executed, failed=failed,
        virtual_us=virtual_us, nodes=probe.nodes(),
        op_counts=[[t.offered, t.completed, t.errors, t.shed, t.abandoned]
                   for t in totals],
        extra_digest=hashlib.sha256(capacity_json(report).encode()).hexdigest(),
        util=util, p50=p50, p99=p99,
        virtual_iops=goodput / (len(totals) * OL_HORIZON_US) * 1e6 if totals else 0.0)
    res["checks"] = {
        "cells": len(totals) == len(OL_SYSTEMS) * len(OL_LOADS),
        "conservation_ok": all(pt["conservation_ok"] for pt in points),
        "knee_ordering_ok": knee_ordering_ok(report, "locofs-nc", "locofs-c"),
        "nc_knee_detected": report["systems"]["locofs-nc"]["knee"] is not None,
    }
    res["openloop"] = {"offered": offered,
                       "shed_ratio": (sum(t.shed + t.abandoned for t in totals)
                                      / offered if offered else 0.0)}
    return res


WORKLOADS = {
    "create_contended": create_contended,
    "bulk_load": bulk_load,
    "mixed_zipf": mixed_zipf,
    "openloop_sweep": openloop_sweep,
}
