"""Run one workload once in a fresh process and print its figures as JSON.

Invoked by ``run.py``; one process per run so that set-up time includes
importing ``repro`` and the peak RSS is that of a process that ran the
workload once::

    python3 perfbench/child.py --workload bulk_load --seed 1 [--trace SPANS]

With ``--trace`` the layer wrappers are installed before the deployment
is built and the spans are written to ``SPANS`` when the run ends.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import hostref

REF0 = hostref.burst()
T0 = perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans as spanlib  # noqa: E402
from workloads import WORKLOADS, Phases, Probe  # noqa: E402


def _layer_metrics(log: spanlib.SpanLog, res: dict, probe: Probe) -> tuple[dict, bool]:
    a = log.analyze()
    st = a["self_s"]
    c = log.counts
    ops = max(res["completed"], 1)
    events = probe.events()
    kv_calls = sum(log.kv_calls.values())
    sc = log.server_calls
    return {
        "engine.self_s": st["engine"],
        "engine.events": events,
        "engine.ns_per_event": st["engine"] / events * 1e9 if events else 0.0,
        "engine.rpcs": sum(n.requests_served for n in probe.nodes()),
        "client.self_s": st["client"],
        "client.resumes": a["spans"]["client"],
        "client.us_per_op": st["client"] / ops * 1e6,
        "placement.self_s": st["placement"],
        "placement.ring_lookups": c["placement.ring_lookups"],
        "placement.ring_lookups_per_op": c["placement.ring_lookups"] / ops,
        "lease.self_s": st["lease"],
        "lease.gets": c["lease.gets"],
        "lease.hit_rate": c["lease.hits"] / c["lease.gets"] if c["lease.gets"] else 0.0,
        "server.fms.self_s": st["server.fms"],
        "server.dms.self_s": st["server.dms"],
        "server.cache.self_s": st["server.cache"],
        "server.obj.self_s": st["server.obj"],
        "server.fms.calls": sc.get("server.fms", 0),
        "server.dms.calls": sc.get("server.dms", 0),
        "server.cache.calls": sc.get("server.cache", 0),
        "server.records_per_batch": (c["server.batch_records"] / c["server.batches"]
                                     if c["server.batches"] else 0.0),
        "lookupcache.hit_rate": res.get("lookupcache_hit_rate", 0.0),
        "kv.self_s": st["kv.hash"] + st["kv.btree"],
        "kv.calls": kv_calls,
        "kv.hash.calls": log.kv_calls.get("kv.hash", 0),
        "kv.btree.calls": log.kv_calls.get("kv.btree", 0),
        "kv.keys_per_call": c["kv.keys"] / kv_calls if kv_calls else 0.0,
        "meter.self_s": st["meter"],
        "meter.charges": c["meter.charges"],
        "obs.self_s": st["obs"],
        "obs.records": c["obs.records"],
        "openloop.self_s": st["openloop"],
        "openloop.offered": res.get("openloop", {}).get("offered", 0),
        "openloop.shed_ratio": res.get("openloop", {}).get("shed_ratio", 0.0),
        "harness.self_s": st["harness"],
        "trace.root_s": a["root_s"],
        "trace.self_sum_s": a["self_sum_s"],
        "trace.spans": a["n_spans"],
    }, a["sum_ok"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS", default=None,
                    help="record spans and write them to this file")
    args = ap.parse_args()

    log = spanlib.SpanLog() if args.trace else None
    phases = Phases(T0, REF0, log)
    probe = Probe(phases)
    probe.install()
    if log is not None:
        spanlib.install_tracing(log)
    res = WORKLOADS[args.workload](args.seed, phases, probe, log)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": sum(phases.setup_segments),
        "measured_s": sum(phases.segments),
        "setup_segments_s": phases.setup_segments,
        "segments_s": phases.segments,
        "refs_s": phases.refs,
        "root_s": phases.t_end - phases.t_build - phases.paused_s,
        "peak_rss_mb": rss_kib / 1024.0,
        **res,
    }
    if log is not None:
        out["layers"], out["checks"]["trace_self_sum_eq_root"] = \
            _layer_metrics(log, res, probe)
        log.dump(args.trace, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
