#!/usr/bin/env python3
"""The simulator's benchmark: host speed, set-up time and memory of
four workloads, with an outside-in per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload create_contended --seed 1 \\
        --seconds 20 --trace 0

Each run starts one fresh process per repetition of the workload
(``child.py``), one at a time, until ``--seconds`` have passed.  With
``--trace 0`` it prints the end-to-end metrics as medians over the
repetitions, with host times scaled to a reference host speed (see
``reference_costs``); with ``--trace 1`` it alternates untraced and
traced repetitions and prints the per-layer metrics, and the spans of the last
traced repetition are written under ``.perfbench/``.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

import argparse
import compileall
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostref
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 20261017
#: repetitions per run at least, whatever --seconds says
MIN_REPS = 3
MIN_PAIRS = 1
#: one repetition may not take longer than this
CHILD_TIMEOUT_S = 150


def run_child(workload: str, seed: int, spans_path: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} repetition failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_costs(rep: dict) -> tuple[float, float]:
    """Set-up and measured host time of one repetition in reference bursts.

    Host speed on a shared machine swings by tens of percent within a
    second, and for minutes at a time.  The child cuts its host time into
    short segments and runs the reference burst (``hostref``) untimed at
    every cut, so each segment is divided by the bursts run just before
    and just after it, while the host was as loaded as during the segment.
    """
    setup = rep["setup_segments_s"]
    segments = setup + rep["segments_s"]
    refs = rep["refs_s"]
    cost = [s / ((a + b) / 2) for s, a, b in zip(segments, refs, refs[1:])]
    return sum(cost[:len(setup)]), sum(cost[len(setup):])


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """``(untraced, traced)`` results; traced is empty without ``trace``.

    Repeats while the next repetition (or pair) is expected to end within
    ``seconds``, so a run lasts about ``seconds`` whatever the workload.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    spans_path = OUT / f"spans-{workload}.bin" if trace else None
    if trace:
        OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        untraced.append(run_child(workload, seed, None))
        if trace:
            traced.append(run_child(workload, seed, spans_path))
        now = time.perf_counter()
        enough = len(traced) >= MIN_PAIRS if trace else len(untraced) >= MIN_REPS
        if enough and now + (now - t) > deadline:
            return untraced, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    # byte-compile once, so no repetition pays for it inside set-up time
    compileall.compile_dir(str(SRC), quiet=1)

    untraced, traced = repetitions(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    everything = untraced + traced
    digests = sorted({r["digest"] for r in everything})
    failed_checks = sorted({f"{name}" for r in everything
                            for name, ok in r["checks"].items() if not ok})
    segment_counts = sorted({len(r["segments_s"]) for r in everything})
    if len(segment_counts) != 1:
        failed_checks.append("same_segments_every_repetition")
    if any(len(r["refs_s"]) != len(r["setup_segments_s"]) + len(r["segments_s"]) + 1
           for r in untraced):
        failed_checks.append("reference_burst_around_every_segment")
    correct = not failed_checks and len(digests) == 1
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"untraced_reps={len(untraced)} traced_reps={len(traced)}")
    print(f"virtual_digest={','.join(digests)} "
          f"(identical across repetitions{' and traced runs' if traced else ''}: "
          f"{len(digests) == 1})")
    print(f"failed_ops_ratio={failed / attempted!r} fraction "
          f"(failed={failed} attempted={attempted})")
    if failed_checks:
        print(f"FAILED CHECKS: {', '.join(failed_checks)}")

    if not args.trace:
        costs = [reference_costs(r) for r in untraced]
        burst = median([b for r in untraced for b in r["refs_s"]])
        print(f"measured segments per repetition: {segment_counts}; reference "
              f"burst {burst * 1e3:.3f} ms (nominal {hostref.NOMINAL_S * 1e3:g} ms); "
              f"unscaled: {median([r['completed'] / r['measured_s'] for r in untraced]):.1f} "
              f"ops/s, set-up {median([r['setup_s'] for r in untraced]):.4f} s")
        values = {
            "sim_ops_per_s": median([r["completed"] / (c[1] * hostref.NOMINAL_S)
                                     for r, c in zip(untraced, costs)]),
            "setup_s": median([c[0] for c in costs]) * hostref.NOMINAL_S,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        for r, (setup, measured) in zip(untraced, costs):
            print(f"  rep: setup_s={r['setup_s']:.4f} ({setup:.1f} bursts) "
                  f"measured_s={r['measured_s']:.4f} ({measured:.1f} bursts) "
                  f"ops={r['completed']} rss_mb={r['peak_rss_mb']:.1f}")
    else:
        values = {}
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        for name in untraced[0]["model"]:
            values["model." + name] = median([r["model"][name] for r in untraced])
        wall = median([r["root_s"] for r in untraced])
        values["trace.untraced_wall_s"] = wall
        values["trace.overhead_ratio"] = median([r["root_s"] for r in traced]) / wall
        print("layer self times sum to the root span in every traced "
              f"repetition: {all(r['checks']['trace_self_sum_eq_root'] for r in traced)}")
        print(f"spans written to {OUT.relative_to(ROOT)}/")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
