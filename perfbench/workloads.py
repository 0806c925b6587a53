"""The three workloads and the timed phase that drives them.

Each workload loads one layer more than the others:

* ``resident-locality`` - one long-lived cluster whose nodes hold three
  thousand resident objects: delegation's repository scans dominate,
  and placement must run read-path jobs where their input already is;
* ``sim-placement`` - the fig. 8b word count on 100 simulated machines
  with the coordinator's full view: ``DataflowScheduler.place`` dominates;
* ``sim-gossip`` - the same dataflow on 16 machines with gossiped beliefs
  and membership: gossip rounds and membership merges dominate.

The executing workload runs on ``repro.fixpoint.net`` in this process: a
hub and two peers, each peer with a fixed pool of one worker, channel
latency 0.  One driver thread runs a closed loop that keeps at most
``nproc`` delegations in flight through ``FixpointNode.scatter``.
Simulated workloads run one job graph per batch on a fresh
``FixpointSim``.

A fourth workload, ``fanout-small`` (unique tiny delegations on clusters
rebuilt every 32 jobs, where the per-delegation fixed cost dominates), was
dropped as unsteady: its 90th-percentile latency hinges on thread wake-ups
across CPUs and spread by a third between runs on a shared host.  The
codec and transport metrics are still measured, on ``resident-locality``.

Every input (arguments, preload, blob contents, shard placement, graph
jitter, gossip peer choice) comes from the seed; the program only sees
the generated inputs.  Every output is checked against a value the
driver computes itself.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.errors import FixError
from repro.core.thunks import make_application
from repro.fixpoint.net import FixpointNode

_now = time.perf_counter

#: A delegation that takes longer than this is counted as failed.
RESULT_TIMEOUT_S = 60.0

SCAN_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    data = fix.read_blob(entries[2])\n"
    "    nonce = fix.read_blob(entries[3])\n"
    "    return fix.create_blob(\n"
    "        len(data).to_bytes(8, 'little')\n"
    "        + data.count(nonce[:1]).to_bytes(8, 'little')\n"
    "    )\n"
)


def scan_expected(data: bytes, nonce: bytes) -> bytes:
    """What the scan codelet must return, computed by the driver."""
    return len(data).to_bytes(8, "little") + data.count(nonce[:1]).to_bytes(
        8, "little"
    )


@dataclass
class Batch:
    """One batch of jobs: executing jobs in one closed loop, or one graph."""

    jobs: int
    failed: int
    seconds: float
    traced: bool
    latencies: List[float] = field(default_factory=list)
    bytes: int = 0
    #: Simulated workloads: the graph's simulated makespan.
    sim_makespan: Optional[float] = None


class LoadBudget:
    """Peak in-flight jobs and live threads; refuses to exceed ``nproc``."""

    def __init__(self, limit: int):
        self.limit = limit
        self.peak_inflight = 0
        self.peak_threads = threading.active_count()

    def note(self, inflight: int) -> None:
        if inflight > self.limit:
            raise RuntimeError(
                f"driver put {inflight} jobs in flight, above nproc={self.limit}"
            )
        self.peak_inflight = max(self.peak_inflight, inflight)
        self.peak_threads = max(self.peak_threads, threading.active_count())


@dataclass
class Job:
    encode: object
    expected: bytes
    #: Read-path jobs: the peer that already holds the input.
    holder: Optional[str] = None


def closed_loop(
    hub: FixpointNode,
    count: int,
    make_job: Callable[[], Job],
    load: LoadBudget,
    tracer,
    placement: Dict[str, int],
) -> Batch:
    """Run ``count`` jobs, at most ``load.limit`` in flight, and check each.

    A job's latency runs from handing it to ``scatter`` until its result
    is checked.  Results are collected oldest first.
    """
    inflight: deque = deque()
    latencies: List[float] = []
    failed = made = 0
    start = _now()
    while made < count or inflight:
        while made < count and len(inflight) < load.limit:
            with tracer.span("driver.build_job"):
                job = make_job()
            sent = _now()
            future = hub.scatter([job.encode])[0]
            if job.holder is not None:
                placement["read_jobs"] += 1
                placement["at_holder"] += future.peer == job.holder
            inflight.append((sent, job, future))
            made += 1
            load.note(len(inflight))
        sent, job, future = inflight.popleft()
        try:
            result = future.result(RESULT_TIMEOUT_S)
            with tracer.span("driver.check"):
                ok = hub.repo.get_blob(result).data == job.expected
        except FixError:
            ok = False
        latencies.append(_now() - sent)
        failed += not ok
    return Batch(count, failed, _now() - start, False, latencies)


def _channel_bytes(hub: FixpointNode) -> int:
    return sum(channel.total_bytes for channel in hub.peers.values())


class ResidentLocality:
    """A long-lived hub and two one-worker peers, each node holding a
    resident working set.

    Read path (three jobs in four): scan an input one peer already holds
    - placement should run the job there and ship no input bytes.  Write
    path (every fourth job, so the mix does not vary with the seed): scan
    a blob the hub has just written; it ships once.  Each job adds about
    1.25 objects to the hub, small against the preload, so throughput
    drifts little over a run.
    """

    name = "resident-locality"
    batch_jobs = 16
    #: Earlier jobs' leftovers per node: one argument blob plus one
    #: application tree each.
    earlier_jobs = 1500
    large_blobs = 4
    peer_inputs = 8
    input_bytes = 256 * 1024
    write_bytes = 4 * 1024
    write_every = 4
    setup_repeats = 3

    peer_names = ("peer-a", "peer-b")
    min_batches = 2

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.load = LoadBudget(nproc)
        self.setup_samples: List[float] = []
        self.placement = {"read_jobs": 0, "at_holder": 0}
        self.hub: Optional[FixpointNode] = None
        self.peers: List[FixpointNode] = []
        self.rng = random.Random(seed ^ 0x5EED)
        self.next_nonce = self.rng.randrange(1 << 40)
        self.made = 0
        self.inputs: List[tuple] = []
        self.function = None

    def nodes(self) -> List[FixpointNode]:
        return [self.hub, *self.peers]

    def _close_cluster(self) -> None:
        for peer in self.peers:
            peer.close()
        if self.hub is not None:
            self.hub.close()
        self.hub, self.peers = None, []

    def _preload(self, node: FixpointNode, rng: random.Random) -> None:
        repo = node.repo
        for _ in range(self.earlier_jobs):
            argument = repo.put_blob(rng.randbytes(rng.randint(40, 400)))
            nonce = repo.put_blob(rng.randbytes(8))
            make_application(repo, self.function, [argument, nonce])
        for _ in range(self.large_blobs):
            repo.put_blob(rng.randbytes(self.input_bytes))

    def setup(self) -> None:
        for _ in range(self.setup_repeats):
            self._close_cluster()
            start = _now()
            rng = random.Random(self.seed)
            self.hub = FixpointNode("hub")
            self.peers = [FixpointNode(name, workers=1) for name in self.peer_names]
            for peer in self.peers:
                self.function = peer.runtime.compile(SCAN_SOURCE, "scan")
            for node in self.nodes():
                self._preload(node, rng)
            self.inputs = []
            for peer in self.peers:
                for _ in range(self.peer_inputs):
                    data = rng.randbytes(self.input_bytes)
                    self.inputs.append((data, peer.repo.put_blob(data), peer.name))
            for peer in self.peers:
                self.hub.connect(peer)
            self.setup_samples.append(_now() - start)

    def prepare(self, index: int) -> None:
        pass

    def make_job(self) -> Job:
        repo = self.hub.repo
        nonce = self.next_nonce.to_bytes(8, "little")
        self.next_nonce += 1
        self.made += 1
        if self.made % self.write_every:
            data, handle, holder = self.rng.choice(self.inputs)
        else:
            data, holder = self.rng.randbytes(self.write_bytes), None
            handle = repo.put_blob(data)
        encode = make_application(
            repo, self.function, [handle, repo.put_blob(nonce)]
        ).wrap_strict()
        return Job(encode, scan_expected(data, nonce), holder)

    def batch(self, index: int, tracer) -> Batch:
        before = _channel_bytes(self.hub)
        batch = closed_loop(
            self.hub, self.batch_jobs, self.make_job, self.load, tracer,
            self.placement,
        )
        batch.bytes = _channel_bytes(self.hub) - before
        return batch

    def resident(self) -> Dict[str, Dict[str, int]]:
        return {
            node.name: {"objects": len(node.repo), "bytes": node.repo.data_bytes()}
            for node in self.nodes()
        }

    def close(self) -> None:
        self._close_cluster()


class _Simulated:
    """One word-count graph per batch on a fresh ``FixpointSim``.

    The batches cycle through ``graphs`` seeded graphs; every repeat is a
    seeded replay and must reproduce the first run's makespan and bytes
    exactly.  Shards are spread evenly over the machines in a seeded
    order, so the makespan does not hinge on one overloaded machine.
    """

    graphs = 3
    shard_bytes = 100 << 20
    machines = 0
    shards = 0
    gossip = False
    #: Enough startup rounds for the scheduler's view to converge on the
    #: shard locations: aged beliefs would move shards instead.
    startup_rounds = 6

    def __init__(self, seed: int, nproc: int):
        rng = random.Random(seed)
        self.graph_seeds = [rng.randrange(1 << 31) for _ in range(self.graphs)]
        self.min_batches = self.graphs + 1
        self.load = LoadBudget(nproc)
        self.setup_samples: List[float] = []
        self.first: Dict[int, tuple] = {}
        self.platform = None
        self.graph = None
        self.rounds: List = []

    def setup(self) -> None:
        import repro.baselines  # noqa: F401 - must precede repro.dist.engine

    def prepare(self, index: int) -> None:
        from repro.dist.engine import FixpointSim
        from repro.dist.gossip import GossipConfig
        from repro.workloads.corpus import ShardSpec
        from repro.workloads.wordcount import build_wordcount_graph

        graph_seed = self.graph_seeds[index % self.graphs]
        start = _now()
        rng = random.Random(graph_seed)
        gossip = (
            GossipConfig(
                membership=True, seed=graph_seed, startup_rounds=self.startup_rounds
            )
            if self.gossip
            else None
        )
        self.platform = FixpointSim.build(
            nodes=self.machines, seed=graph_seed, gossip=gossip
        )
        names = self.platform.cluster.machine_names()
        locations = [names[i % len(names)] for i in range(self.shards)]
        rng.shuffle(locations)
        shards = [
            ShardSpec(f"chunk-{i:05d}", self.shard_bytes, location)
            for i, location in enumerate(locations)
        ]
        self.graph = build_wordcount_graph(shards, seed=rng.randrange(1 << 31))
        self.setup_samples.append(_now() - start)

    def batch(self, index: int, tracer) -> Batch:
        tasks = len(self.graph.tasks)
        start = _now()
        result = self.platform.run(self.graph)
        with tracer.span("driver.check"):
            finished = sum(1 for name in self.graph.tasks if name in result.task_finish)
            outcome = (result.makespan, result.bytes_transferred)
            replayed = self.first.setdefault(index % self.graphs, outcome) == outcome
            failed = tasks - finished
            if result.invocations != tasks or not replayed:
                failed = tasks
        seconds = _now() - start
        self.load.note(1)  # one graph in flight
        if self.platform.gossip is not None and tracer.installed:
            self.rounds.extend(self.platform.gossip.rounds)
        return Batch(
            tasks,
            failed,
            seconds,
            False,
            [seconds],
            result.bytes_transferred,
            result.makespan,
        )

    def resident(self) -> Dict[str, Dict[str, int]]:
        return {}

    def close(self) -> None:
        self.platform = self.graph = None


class SimPlacement(_Simulated):
    name = "sim-placement"
    machines = 100
    shards = 1000


class SimGossip(_Simulated):
    name = "sim-gossip"
    machines = 16
    shards = 256
    gossip = True


WORKLOADS = {
    cls.name: cls for cls in (ResidentLocality, SimPlacement, SimGossip)
}


def timed_phase(workload, seconds: float, trace: bool, tracer) -> List[Batch]:
    """Run batches for ``seconds`` of wall time (and at least
    ``workload.min_batches``).

    With ``trace``, every other batch runs with the tracer installed, so
    traced and untraced throughput are measured on the same cluster
    state."""
    batches: List[Batch] = []
    deadline = _now() + seconds
    index = 0
    while _now() < deadline or len(batches) < workload.min_batches:
        workload.prepare(index)
        traced = trace and index % 2 == 1
        with tracer.installed_for(traced), tracer.span("driver.batch"):
            batch = workload.batch(index, tracer)
        batch.traced = traced
        batches.append(batch)
        index += 1
    return batches


def quarter_rates(batches: List[Batch]) -> tuple:
    """Jobs per second over the first and the last quarter of the
    untraced batches (at least one batch each)."""
    plain = [batch for batch in batches if not batch.traced]
    size = max(1, len(plain) // 4)

    def rate(part):
        return sum(b.jobs for b in part) / sum(b.seconds for b in part)

    return rate(plain[:size]), rate(plain[-size:])


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
