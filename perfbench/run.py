"""Layered benchmark for the Fix reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload resident-locality --seed 1 --seconds 30 --trace 0

Workloads: ``resident-locality``, ``sim-placement``, ``sim-gossip`` (see
``workloads.py`` for what each loads and why).

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced batches, reports the
per-layer metrics from the traced ones and the tracing overhead from the
pair, and writes the raw spans to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (drift, load, sample counts, per-thread coverage).

End-to-end metrics:

* ``setup_s`` - median seconds to build a cluster, compile codelets,
  preload data and run the connect handshakes (executing), or to build a
  simulated platform and its job graph (simulated);
* ``jobs_per_s`` - checked jobs per wall second of the timed batches; a
  job is a delegation, or a simulated invocation;
* ``latency_p50_ms`` / ``latency_p90_ms`` - executing: from handing a job
  to ``scatter`` until its result is checked; simulated: from handing a
  graph to the platform until its result is checked;
* ``bytes_per_job`` - executing: every byte crossing a ``Channel`` in the
  timed batches (request, reply, gossip); simulated:
  ``RunResult.bytes_transferred / invocations``;
* ``sim_makespan_s`` - simulated: median simulated completion time of the
  run's graphs, deterministic per seed and moved by placement quality;
  executing (no simulated clock): median wall time of one batch of jobs;
* ``rss_mb`` - peak resident memory of this process.

Failures are not a metric (they must stay 0): a wrong or missing result
counts in ``failed``, and ``correct`` is false when any job failed.  In
the traced run ``correct`` is also false when the coverage check fails:
more than ``COVERAGE_LIMIT`` of a thread's traced time fell in no
wrapped layer, so a hot function has lost its wrapper.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The traced run's coverage check: per thread role, at most this share
#: of traced wall time may fall outside every wrapped layer.  The glue in
#: the simulated platform's process bodies takes about 10% on
#: ``sim-placement``; an unwrapped hot layer takes 25% or more.
COVERAGE_LIMIT = 0.15

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("bytes_per_job", "B"),
    ("sim_makespan_s", "s"),
    ("rss_mb", "MB"),
]


def covered(rollup) -> bool:
    """The coverage check: every thread role's unexplained share of its
    traced wall time stays under ``COVERAGE_LIMIT``."""
    return all(
        rollup.unexplained_frac(role) < COVERAGE_LIMIT for role in ("driver", "worker")
    )


def end_to_end(workload, batches) -> dict:
    from workloads import percentile

    plain = [batch for batch in batches if not batch.traced]
    jobs = sum(batch.jobs for batch in plain)
    seconds = sum(batch.seconds for batch in plain)
    latencies = [value for batch in plain for value in batch.latencies]
    if plain[0].sim_makespan is not None:
        # One value per distinct graph: replays repeat them exactly.
        firsts = {}
        for index, batch in enumerate(batches):
            firsts.setdefault(index % workload.graphs, batch)
        makespan = median([batch.sim_makespan for batch in firsts.values()])
        moved = sum(batch.bytes for batch in firsts.values())
        per_job = moved / sum(batch.jobs for batch in firsts.values())
    else:
        makespan = median([batch.seconds for batch in plain])
        per_job = sum(batch.bytes for batch in plain) / jobs
    return {
        "setup_s": median(workload.setup_samples),
        "jobs_per_s": jobs / seconds,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "bytes_per_job": per_job,
        "sim_makespan_s": makespan,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layered(workload, batches, tracer, resident_start, resident_end) -> dict:
    from layers import NODES, per_layer
    from workloads import quarter_rates

    traced = [batch for batch in batches if batch.traced]
    plain = [batch for batch in batches if not batch.traced]
    traced_jobs = sum(batch.jobs for batch in traced)
    values = per_layer(tracer.rollup(), traced_jobs, getattr(workload, "rounds", []))
    placement = getattr(workload, "placement", {})
    values["fixpoint.net.placed_at_holder_frac"] = (
        placement["at_holder"] / placement["read_jobs"]
        if placement.get("read_jobs")
        else 0.0
    )
    untraced_rate = sum(b.jobs for b in plain) / sum(b.seconds for b in plain)
    traced_rate = traced_jobs / sum(b.seconds for b in traced)
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.traced_jobs_per_s"] = traced_rate
    values["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    first, last = quarter_rates(batches)
    values["drift.first_quarter_jobs_per_s"] = first
    values["drift.last_quarter_jobs_per_s"] = last
    for node in NODES:
        for when, resident in (("start", resident_start), ("end", resident_end)):
            counts = resident.get(node, {"objects": 0, "bytes": 0})
            values[f"drift.{node}.objects_{when}"] = counts["objects"]
            values[f"drift.{node}.bytes_{when}"] = counts["bytes"]
    values["load.nproc"] = workload.load.limit
    values["load.peak_threads"] = workload.load.peak_threads
    values["load.peak_inflight"] = workload.load.peak_inflight
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, TARGETS
    from tracing import Tracer
    from workloads import WORKLOADS, quarter_rates, timed_phase

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # nproc: the CPUs this process may run on, as the nproc command counts.
    workload = WORKLOADS[args.workload](args.seed, len(os.sched_getaffinity(0)))
    tracer = Tracer(TARGETS)
    try:
        workload.setup()
        resident_start = workload.resident()
        batches = timed_phase(workload, args.seconds, bool(args.trace), tracer)
        resident_end = workload.resident()
    finally:
        workload.close()

    attempted = sum(batch.jobs for batch in batches)
    failed = sum(batch.failed for batch in batches)
    coverage_ok = True
    if args.trace:
        values = layered(workload, batches, tracer, resident_start, resident_end)
        units = dict(PER_LAYER)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json.gz")
        coverage_ok = covered(tracer.rollup())
        if not coverage_ok:
            print(
                "perfbench: over "
                f"{COVERAGE_LIMIT:.0%} of a thread's traced time is in no "
                "wrapped layer; wrap the hot function",
                file=sys.stderr,
            )
    else:
        values = end_to_end(workload, batches)
        units = dict(END_TO_END)
    first, last = quarter_rates(batches)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "failed_frac": failed / attempted,
        "batches": len(batches),
        "latency_samples": sum(len(b.latencies) for b in batches if not b.traced),
        "setup_samples": len(workload.setup_samples),
        "drift_jobs_per_s": {"first_quarter": first, "last_quarter": last},
        "resident": {"start": resident_start, "end": resident_end},
        "nproc": workload.load.limit,
        "peak_threads": workload.load.peak_threads,
        "peak_inflight": workload.load.peak_inflight,
    }
    if args.trace:
        detail["coverage_ok"] = coverage_ok
        detail["missing_targets"] = sorted(tracer.missing)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and coverage_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
