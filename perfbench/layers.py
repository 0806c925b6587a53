"""Which bindings the traced run wraps, and the per-layer metrics.

Layers follow the package layout: ``repro.core`` (repository scans and
the bundle codec), ``repro.fixpoint`` (delegation transport and eval),
``repro.dist`` (placement; gossip and membership) and the simulator
(the ``repro.sim`` engine and the simulated platform's helpers).  Each
metric below names the end-to-end metric it should move, and where:

* repository scans move ``jobs_per_s`` and ``latency_p50_ms`` on
  ``resident-locality`` by a lot;
* the codec and the delegation transport move both latencies on
  ``resident-locality`` by little (their own workload, ``fanout-small``,
  was dropped as unsteady; see ``workloads.py``);
  ``fixpoint.net.placed_at_holder_frac`` moves ``bytes_per_job`` there;
* placement moves ``jobs_per_s`` on ``sim-placement`` and must leave
  ``sim_makespan_s`` unchanged; ``dist.scheduler.placed_at_holder_frac``
  moves ``sim_makespan_s`` and ``bytes_per_job`` on ``sim-gossip``;
* gossip and membership move ``jobs_per_s`` on ``sim-gossip`` only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.handle import LITERAL_MAX
from tracing import CONTAINERS, Rollup, Target

_GOSSIP_TAGS = (0x10, 0x11, 0x12)


def _classify_frame(counts, args, _result) -> None:
    """Split ``Channel.send`` bytes into request, reply and gossip."""
    _channel, sender, payload = args[:3]
    if payload[:1] and payload[0] in _GOSSIP_TAGS:
        kind = "gossip"
    elif sender.name == "hub":
        kind = "request"
    else:
        kind = "reply"
    key = f"fixpoint.net.Channel.send.{kind}_bytes"
    counts[key] = counts.get(key, 0) + len(payload)


def _count_candidates(counts, args, _result) -> None:
    key = "dist.costmodel.choose.candidates"
    counts[key] = counts.get(key, 0) + len(args[0])


def _placed_at_holder(counts, args, placement) -> None:
    """Did the scheduler pick a machine that, by the cluster's registry,
    holds the task's largest input?"""
    scheduler, task = args[0], args[1]
    objects = scheduler.cluster.objects
    inputs = [objects[name] for name in task.inputs if name in objects]
    if not inputs:
        return
    largest = max(info.size for info in inputs)
    holders = set()
    for info in inputs:
        if info.size == largest:
            holders |= info.locations
    counts["dist.scheduler.placements"] = counts.get("dist.scheduler.placements", 0) + 1
    if placement.machine in holders:
        key = "dist.scheduler.placed_at_holder"
        counts[key] = counts.get(key, 0) + 1


def _bytes_hashed(args) -> int:
    size = len(args[0].data)
    return size if size > LITERAL_MAX else 0


TARGETS: List[Target] = [
    # repro.core: repository scans
    Target("repro.core.storage:Repository.handles", "gen"),
    Target("repro.core.minrepo:transitive_footprint"),
    Target("repro.fixpoint.runtime:Fixpoint.holdings"),
    Target("repro.core.data:Tree.handle", "count"),
    Target("repro.core.data:Blob.handle", "count", amount=_bytes_hashed),
    # repro.core: codec
    Target("repro.core.serialize:encode_bundle"),
    Target("repro.core.serialize:decode_bundle"),
    Target("repro.core.handle:Handle.pack", "count"),
    # repro.fixpoint
    Target("repro.fixpoint.net:FixpointNode.scatter"),
    Target("repro.fixpoint.net:FixpointNode._quote_peers"),
    Target("repro.fixpoint.net:FixpointNode._dispatch"),
    Target("repro.fixpoint.net:FixpointNode._finish_delegation"),
    Target("repro.fixpoint.net:FixpointNode._serve"),
    Target("repro.fixpoint.net:FixpointNode._absorb_request"),
    Target("repro.fixpoint.net:FixpointNode._absorb_reply"),
    Target("repro.fixpoint.net:Channel.send", after=_classify_frame),
    Target("repro.fixpoint.net:Delegation.result"),
    Target("repro.fixpoint.runtime:Fixpoint.eval"),
    Target("repro.fixpoint.jobs:JobQueue.run_job"),
    # repro.dist: placement
    Target("repro.dist.scheduler:DataflowScheduler.place", after=_placed_at_holder),
    Target("repro.dist.costmodel:choose", after=_count_candidates),
    Target("repro.dist.objectview:ObjectView.price_moves"),
    Target("repro.dist.scheduler:DataflowScheduler.note_output"),
    Target("repro.dist.engine:FixpointSim._consumer_hint"),
    # repro.dist: gossip and membership
    Target("repro.dist.gossip:GossipCoordinator.round"),
    Target("repro.dist.membership:MembershipView.merge"),
    Target("repro.dist.objectview:ObjectView.exchange"),
    # the simulator: its event loop and the primitives that process
    # bodies call; each step of a process body is a container
    Target("repro.sim.engine:Simulator.run_until"),
    Target("repro.sim.engine:Simulator.process", "steps"),
    Target("repro.sim.engine:Simulator.timeout"),
    Target("repro.sim.engine:all_of"),
    Target("repro.sim.resources:Resource.acquire"),
    Target("repro.sim.resources:Resource.release"),
    Target("repro.sim.network:Network.message"),
    Target("repro.sim.cluster:Cluster.add_object"),
    Target("repro.sim.stats:CpuAccountant.begin"),
    Target("repro.sim.stats:CpuAccountant.end"),
    Target("repro.sim.stats:report"),
    Target("repro.baselines.base:Platform._fetch_all"),
    Target("repro.baselines.base:Platform._meter"),
]

#: Self-time groups for the layer shares.  ``wait`` is the driver blocked
#: on a result while a worker does the work, so it is left out of the
#: shares; containers are the unexplained remainder.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "repo_scan": (
        "core.storage.Repository.handles",
        "core.minrepo.transitive_footprint",
        "fixpoint.runtime.Fixpoint.holdings",
    ),
    "codec": ("core.serialize.encode_bundle", "core.serialize.decode_bundle"),
    "net": (
        "fixpoint.net.FixpointNode.scatter",
        "fixpoint.net.FixpointNode._quote_peers",
        "fixpoint.net.FixpointNode._dispatch",
        "fixpoint.net.FixpointNode._finish_delegation",
        "fixpoint.net.FixpointNode._serve",
        "fixpoint.net.FixpointNode._absorb_request",
        "fixpoint.net.FixpointNode._absorb_reply",
        "fixpoint.net.Channel.send",
    ),
    "eval": ("fixpoint.runtime.Fixpoint.eval",),
    "placement": (
        "dist.scheduler.DataflowScheduler.place",
        "dist.scheduler.DataflowScheduler.note_output",
        "dist.engine.FixpointSim._consumer_hint",
        "dist.costmodel.choose",
        "dist.objectview.ObjectView.price_moves",
    ),
    "gossip": (
        "dist.gossip.GossipCoordinator.round",
        "dist.membership.MembershipView.merge",
        "dist.objectview.ObjectView.exchange",
    ),
    "sim_engine": (
        "sim.engine.Simulator.run_until",
        "sim.engine.Simulator.process",
        "sim.engine.Simulator.timeout",
        "sim.engine.all_of",
        "sim.resources.Resource.acquire",
        "sim.resources.Resource.release",
        "sim.network.Network.message",
        "sim.cluster.Cluster.add_object",
        "sim.stats.CpuAccountant.begin",
        "sim.stats.CpuAccountant.end",
        "sim.stats.report",
        "baselines.base.Platform._fetch_all",
        "baselines.base.Platform._meter",
    ),
    "driver": ("driver.build_job", "driver.check"),
    "unexplained": CONTAINERS,
}
WAIT = ("fixpoint.net.Delegation.result",)

NODES = ("hub", "peer-a", "peer-b")

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("core.storage.Repository.handles.calls_per_job", "count"),
    ("core.storage.Repository.handles.self_ms_per_job", "ms"),
    ("core.data.Tree.handle.calls_per_job", "count"),
    ("core.data.Blob.handle.bytes_hashed_per_job", "B"),
    ("core.minrepo.transitive_footprint.self_ms_per_job", "ms"),
    ("fixpoint.runtime.Fixpoint.holdings.self_ms_per_job", "ms"),
    ("core.serialize.encode_bundle.self_ms_per_job", "ms"),
    ("core.serialize.decode_bundle.self_ms_per_job", "ms"),
    ("core.handle.Handle.pack.calls_per_job", "count"),
    ("fixpoint.net.FixpointNode.scatter.ms_per_call", "ms"),
    ("fixpoint.net.Delegation.result.wait_ms_per_job", "ms"),
    ("fixpoint.net.Channel.send.frames_per_job", "count"),
    ("fixpoint.net.Channel.send.request_bytes_per_job", "B"),
    ("fixpoint.net.Channel.send.reply_bytes_per_job", "B"),
    ("fixpoint.runtime.Fixpoint.eval.self_ms_per_job", "ms"),
    ("fixpoint.net.placed_at_holder_frac", "frac"),
    ("dist.scheduler.DataflowScheduler.place.us_per_call", "us"),
    ("dist.costmodel.choose.us_per_call", "us"),
    ("dist.costmodel.choose.candidates_per_call", "count"),
    ("dist.objectview.ObjectView.price_moves.us_per_call", "us"),
    ("dist.scheduler.placed_at_holder_frac", "frac"),
    ("dist.gossip.GossipCoordinator.round.calls_per_job", "count"),
    ("dist.gossip.GossipCoordinator.round.self_ms_per_job", "ms"),
    ("dist.gossip.bytes_per_round", "B"),
    ("dist.gossip.membership_bytes_per_round", "B"),
    ("dist.gossip.entries_per_round", "count"),
    ("dist.membership.MembershipView.merge.calls_per_round", "count"),
    ("dist.membership.MembershipView.merge.self_ms_per_round", "ms"),
    ("dist.objectview.ObjectView.exchange.self_ms_per_round", "ms"),
    *[(f"layer.{group}.self_share", "frac") for group in GROUPS],
    ("trace.driver_thread.unexplained_frac", "frac"),
    ("trace.worker_threads.unexplained_frac", "frac"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.traced_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("drift.first_quarter_jobs_per_s", "1/s"),
    ("drift.last_quarter_jobs_per_s", "1/s"),
    *[
        (f"drift.{node}.{what}_{when}", "count" if what == "objects" else "B")
        for node in NODES
        for what in ("objects", "bytes")
        for when in ("start", "end")
    ],
    ("load.nproc", "count"),
    ("load.peak_threads", "count"),
    ("load.peak_inflight", "count"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_shares(rollup: Rollup) -> Dict[str, float]:
    """Each group's share of all self time outside ``WAIT``."""
    owner = {name: group for group, names in GROUPS.items() for name in names}
    totals = dict.fromkeys(GROUPS, 0.0)
    for name, (_calls, _total, own) in rollup.spans.items():
        if name in WAIT:
            continue
        totals[owner[name]] += own
    whole = sum(totals.values())
    return {group: _ratio(value, whole) for group, value in totals.items()}


def per_layer(rollup: Rollup, traced_jobs: int, rounds: list) -> Dict[str, float]:
    """The span- and counter-derived metrics (drift, load and overhead
    are filled in by the caller)."""
    jobs = max(traced_jobs, 1)
    counts = rollup.counts
    calls, total, own = rollup.calls, rollup.total, rollup.self_time
    ms = 1e3
    round_calls = calls("dist.gossip.GossipCoordinator.round")
    values = {
        "core.storage.Repository.handles.calls_per_job":
            calls("core.storage.Repository.handles") / jobs,
        "core.storage.Repository.handles.self_ms_per_job":
            own("core.storage.Repository.handles") * ms / jobs,
        "core.data.Tree.handle.calls_per_job":
            counts.get("core.data.Tree.handle", 0) / jobs,
        "core.data.Blob.handle.bytes_hashed_per_job":
            counts.get("core.data.Blob.handle:amount", 0) / jobs,
        "core.minrepo.transitive_footprint.self_ms_per_job":
            own("core.minrepo.transitive_footprint") * ms / jobs,
        "fixpoint.runtime.Fixpoint.holdings.self_ms_per_job":
            own("fixpoint.runtime.Fixpoint.holdings") * ms / jobs,
        "core.serialize.encode_bundle.self_ms_per_job":
            own("core.serialize.encode_bundle") * ms / jobs,
        "core.serialize.decode_bundle.self_ms_per_job":
            own("core.serialize.decode_bundle") * ms / jobs,
        "core.handle.Handle.pack.calls_per_job":
            counts.get("core.handle.Handle.pack", 0) / jobs,
        "fixpoint.net.FixpointNode.scatter.ms_per_call": _ratio(
            total("fixpoint.net.FixpointNode.scatter") * ms,
            calls("fixpoint.net.FixpointNode.scatter"),
        ),
        "fixpoint.net.Delegation.result.wait_ms_per_job":
            total("fixpoint.net.Delegation.result") * ms / jobs,
        "fixpoint.net.Channel.send.frames_per_job":
            calls("fixpoint.net.Channel.send") / jobs,
        "fixpoint.net.Channel.send.request_bytes_per_job":
            counts.get("fixpoint.net.Channel.send.request_bytes", 0) / jobs,
        "fixpoint.net.Channel.send.reply_bytes_per_job":
            counts.get("fixpoint.net.Channel.send.reply_bytes", 0) / jobs,
        "fixpoint.runtime.Fixpoint.eval.self_ms_per_job":
            own("fixpoint.runtime.Fixpoint.eval") * ms / jobs,
        "dist.scheduler.DataflowScheduler.place.us_per_call": _ratio(
            total("dist.scheduler.DataflowScheduler.place") * 1e6,
            calls("dist.scheduler.DataflowScheduler.place"),
        ),
        "dist.costmodel.choose.us_per_call": _ratio(
            total("dist.costmodel.choose") * 1e6, calls("dist.costmodel.choose")
        ),
        "dist.costmodel.choose.candidates_per_call": _ratio(
            counts.get("dist.costmodel.choose.candidates", 0),
            calls("dist.costmodel.choose"),
        ),
        "dist.objectview.ObjectView.price_moves.us_per_call": _ratio(
            total("dist.objectview.ObjectView.price_moves") * 1e6,
            calls("dist.objectview.ObjectView.price_moves"),
        ),
        "dist.scheduler.placed_at_holder_frac": _ratio(
            counts.get("dist.scheduler.placed_at_holder", 0),
            counts.get("dist.scheduler.placements", 0),
        ),
        "dist.gossip.GossipCoordinator.round.calls_per_job": round_calls / jobs,
        "dist.gossip.GossipCoordinator.round.self_ms_per_job":
            own("dist.gossip.GossipCoordinator.round") * ms / jobs,
        "dist.gossip.bytes_per_round": _ratio(
            sum(r.bytes_shipped for r in rounds), len(rounds)
        ),
        "dist.gossip.membership_bytes_per_round": _ratio(
            sum(r.membership_bytes for r in rounds), len(rounds)
        ),
        "dist.gossip.entries_per_round": _ratio(
            sum(r.entries_shipped for r in rounds), len(rounds)
        ),
        "dist.membership.MembershipView.merge.calls_per_round": _ratio(
            calls("dist.membership.MembershipView.merge"), round_calls
        ),
        "dist.membership.MembershipView.merge.self_ms_per_round": _ratio(
            own("dist.membership.MembershipView.merge") * ms, round_calls
        ),
        "dist.objectview.ObjectView.exchange.self_ms_per_round": _ratio(
            own("dist.objectview.ObjectView.exchange") * ms, round_calls
        ),
        "trace.driver_thread.unexplained_frac": rollup.unexplained_frac("driver"),
        "trace.worker_threads.unexplained_frac": rollup.unexplained_frac("worker"),
    }
    for group, share in layer_shares(rollup).items():
        values[f"layer.{group}.self_share"] = share
    return values
