"""Gossip anti-entropy: digest/delta protocol, coordinator, both runtimes.

Covers the versioned delta state in
:class:`repro.dist.objectview.ObjectView` (``digest`` / ``delta_since``
/ ``merge_delta``, forget-retracts-from-deltas), the handshake core
driven in-process (its converged short-circuit), the seeded
:class:`repro.dist.gossip.GossipCoordinator` (replayable schedules,
O(log n) convergence, full-state ablation accounting, staleness
monotonicity), the :class:`~repro.dist.engine.FixpointSim` wiring
(scheduler beliefs age with the round budget), and the executing
runtime's GOSSIP frames (transitive spread, never-connected placement,
concurrency with live delegations).
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.thunks import make_application
from repro.dist.engine import FixpointSim
from repro.dist.gossip import (
    GossipConfig,
    GossipCoordinator,
    GossipError,
    absorb,
    answer,
    close,
    pack_delta,
    pack_digest,
    syn,
    unpack_delta,
    unpack_digest,
)
from repro.dist.graph import JobGraph, TaskSpec
from repro.dist.membership import MembershipView
from repro.dist.objectview import EMPTY_DIGEST, Digest, ObjectView
from repro.fixpoint.net import FixpointNode, NodeDirectory

MB = 1 << 20


def seeded_views(n: int, objects_per_node: int = 3):
    """n views, each the sole believer in its own objects."""
    views = [ObjectView(f"node{i:03d}") for i in range(n)]
    for i, view in enumerate(views):
        for j in range(objects_per_node):
            view.learn(f"obj-{i}-{j}", view.node, 1 * MB)
    return views


def handshake(caller, server):
    """One membership-free round of the handshake core, in-process;
    returns its (Syn, Ack, Push) messages."""
    hello = syn(caller)
    ack = answer(server, None, hello)
    push = close(caller, None, ack)
    absorb(server, push)
    return hello, ack, push


def shipped(messages):
    """(entries, digest bytes, delta bytes) one handshake moved."""
    hello, ack, push = messages
    return (
        len(ack.delta) + len(push.delta),
        hello.digest.wire_bytes() + ack.digest.wire_bytes(),
        ack.delta.wire_bytes() + push.delta.wire_bytes(),
    )


def union_of(views):
    union = ObjectView("union")
    for view in views:
        union.merge_delta(view.delta_since(union.digest()))
    return union.snapshot()


# ----------------------------------------------------------------------
# The digest/delta protocol on ObjectView


class TestDigestDelta:
    def test_digest_covers_learned_entries(self):
        view = ObjectView("a")
        assert view.digest().versions == {}
        view.learn("x", "m1", 10)
        view.learn("y", "m2", 20)
        digest = view.digest()
        assert digest.versions == {"a": 2}
        assert digest.covers("a", 2)
        assert not digest.covers("a", 3)

    def test_relearning_stamps_nothing(self):
        """Repeat observations are free on the gossip wire."""
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        before = view.digest()
        view.learn("x", "m1", 10)  # same belief, same size
        view.learn("x", "m1")  # no size at all
        assert view.digest() == before

    def test_size_correction_is_news(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        view.learn("x", "m1", 99)  # the size changed: must propagate
        fresh = ObjectView("b")
        fresh.merge_delta(view.delta_since(fresh.digest()))
        assert fresh.believed_size("x") == 99

    def test_delta_since_ships_only_the_uncovered_tail(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        mid = view.digest()
        view.learn("y", "m2", 20)
        delta = view.delta_since(mid)
        assert len(delta) == 1
        assert delta.entries[0][2] == "y"
        assert view.delta_since(view.digest()).is_empty

    def test_merge_is_idempotent_by_version(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        delta = view.delta_since(EMPTY_DIGEST)
        fresh = ObjectView("b")
        assert fresh.merge_delta(delta) == 1
        assert fresh.merge_delta(delta) == 0  # replay applies nothing
        assert fresh.snapshot() == view.snapshot()

    def test_merged_entries_forward_transitively(self):
        """Entries keep their origin stamp, so b can serve a's news to c
        - the property epidemic spread rests on."""
        a, b, c = ObjectView("a"), ObjectView("b"), ObjectView("c")
        a.learn("x", "a", 10)
        handshake(a, b)
        handshake(b, c)
        assert c.knows("x", "a")
        assert c.believed_size("x") == 10
        # And c's coverage means a has nothing left to send it.
        assert a.delta_since(c.digest()).is_empty

    def test_forgotten_entries_never_gossip_onward(self):
        """forget retracts the stamp from future deltas (no tombstones),
        while coverage stays advanced so peers don't re-send it."""
        a = ObjectView("a")
        a.learn("x", "m1", 10)
        a.learn("doomed", "m2", 20)
        a.forget("doomed", "m2")
        fresh = ObjectView("b")
        fresh.merge_delta(a.delta_since(fresh.digest()))
        assert "doomed" not in fresh.snapshot()
        assert fresh.snapshot() == a.snapshot()
        # Coverage includes the retracted stamp: nothing to re-send.
        assert a.delta_since(fresh.digest()).is_empty

    def test_forget_keeps_a_foreign_corroborated_belief(self):
        """A rollback retracts only this view's own assertion.  When the
        same belief carries a foreign stamp (the holder itself, or a
        third party, said so), it survives the forget - stripping the
        foreign stamp would leave its version covered by our digest
        forever, making a true fact permanently unlearnable via gossip.
        """
        caller, holder = ObjectView("caller"), ObjectView("holder")
        caller.learn("k", "holder", 10)  # the optimistic advance
        holder.learn("k", "holder", 10)  # the holder's own assertion...
        caller.merge_delta(holder.delta_since(caller.digest()))  # ...merged
        caller.forget("k", "holder")
        assert caller.knows("k", "holder")  # corroborated: kept
        # And the foreign stamp still forwards to third parties.
        third = ObjectView("third")
        third.merge_delta(caller.delta_since(third.digest()))
        assert third.knows("k", "holder")

    def test_exchange_still_produces_the_union(self):
        from repro.sim.cluster import Cluster, MachineSpec
        from repro.sim.engine import Simulator

        sim = Simulator()
        cluster = Cluster(
            sim, [MachineSpec("node0", cores=4), MachineSpec("node1", cores=4)]
        )
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        v0, v1 = ObjectView("node0"), ObjectView("node1")
        v0.refresh_local(cluster)
        v1.refresh_local(cluster)
        handshake(v0, v1)
        for view in (v0, v1):
            assert view.where("a") == {"node0"}
            assert view.where("b") == {"node1"}


class TestConvergedExchangeRegression:
    """The satellite regression: the old exchange re-sent full state on
    every handshake; the digest short-circuit must make a handshake
    between converged views ~free."""

    def test_converged_exchange_ships_zero_entries(self):
        a, b = ObjectView("a"), ObjectView("b")
        for i in range(50):
            a.learn(f"obj{i}", "a", 1 * MB)
        first_entries, first_digests, first_deltas = shipped(handshake(a, b))
        assert first_entries == 50
        entries, digests, deltas = shipped(handshake(a, b))
        assert entries == 0
        # Only digests (+ empty-delta framing) cross the wire...
        assert deltas <= 16
        # ...orders of magnitude below the full state the old code sent.
        assert digests + deltas < (first_digests + first_deltas) / 20

    def test_wire_codec_matches_the_accounting(self):
        """Digest/Delta wire_bytes must equal the real serialization the
        executing runtime ships (repro.dist.gossip codec)."""
        view = ObjectView("a")
        view.learn(b"\x07" * 32, "b", 7)  # content-key-style bytes name
        view.learn("string-name", "c")  # sizeless str name
        delta = view.delta_since(EMPTY_DIGEST)
        raw = pack_delta(delta)
        assert len(raw) == delta.wire_bytes()
        decoded, offset = unpack_delta(raw)
        assert decoded == delta
        assert offset == len(raw)
        digest = view.digest()
        raw = pack_digest(digest)
        assert len(raw) == digest.wire_bytes()
        decoded, offset = unpack_digest(raw)
        assert decoded == digest
        assert offset == len(raw)

    def test_unpackable_name_type_is_a_gossip_error(self):
        view = ObjectView("a")
        view.learn(("tuple", "name"), "b", 1)  # fine in simulation...
        with pytest.raises(GossipError):
            pack_delta(view.delta_since(EMPTY_DIGEST))  # ...not on a wire


# ----------------------------------------------------------------------
# The handshake core


class TestHandshakeCore:
    """The ordering rules of the shared core, on two views with paired
    failure detectors (the wiring both drivers use)."""

    @staticmethod
    def _node(name):
        view = ObjectView(name)
        membership = MembershipView(
            name,
            on_dead=view.evict,
            on_rejoin=view.readmit,
            on_refute=view.advance_epoch,
        )
        return view, membership

    @staticmethod
    def _round(caller, server):
        (view, membership), (peer, theirs) = caller, server
        push = close(view, membership, answer(peer, theirs, syn(view, membership)))
        absorb(peer, push)
        return push

    def test_server_refutation_rides_the_ack_ahead_of_its_entries(self):
        caller, server = self._node("c"), self._node("s")
        server[0].learn("x", "s", 10)
        self._round(caller, server)
        caller[1].declare_dead("s")  # a false accusation
        assert caller[0].where("x") == set()
        self._round(caller, server)
        # The server refuted while answering, and its ACK carried the
        # refutation, so the caller readmitted it before merging the
        # re-stamped entry.
        assert server[1].incarnation() == 2
        assert not caller[1].is_dead("s")
        assert caller[0].where("x") == {"s"}

    def test_caller_refutation_waits_for_the_next_syn(self):
        caller, server = self._node("c"), self._node("s")
        caller[0].learn("x", "c", 10)
        self._round(caller, server)
        server[1].declare_dead("c")
        push = self._round(caller, server)
        # The ACK told the caller it was dead; it refuted, but its PUSH
        # was computed first and carries nothing of the new epoch.
        assert caller[1].incarnation() == 2
        assert not [e for e in push.delta.entries if e[0] == "c#2"]
        self._round(caller, server)
        assert not server[1].is_dead("c")
        assert server[0].where("x") == {"c"}

    def test_full_state_treats_the_digest_as_empty(self):
        a, b = ObjectView("a"), ObjectView("b")
        a.learn("x", "a", 10)
        b.learn("y", "b", 20)
        handshake(a, b)
        ack = answer(b, None, syn(a), full_state=True)
        push = close(a, None, ack, full_state=True)
        assert len(ack.delta) == len(push.delta) == 2
        assert absorb(b, push) == 0  # nothing new: replays are idempotent


# ----------------------------------------------------------------------
# The coordinator


class TestCoordinator:
    def test_fixed_seed_replays_identical_schedules(self):
        runs = []
        for _ in range(2):
            coordinator = GossipCoordinator(seeded_views(12), seed=7)
            coordinator.run_rounds(5)
            runs.append(
                [
                    (round.pairs, round.bytes_shipped, round.entries_shipped)
                    for round in coordinator.rounds
                ]
            )
        assert runs[0] == runs[1]

    def test_different_seeds_pick_different_peers(self):
        a = GossipCoordinator(seeded_views(12), seed=1)
        b = GossipCoordinator(seeded_views(12), seed=2)
        a.round(), b.round()
        assert a.rounds[0].pairs != b.rounds[0].pairs

    @pytest.mark.parametrize("n", [2, 8, 32, 100])
    def test_convergence_in_log_rounds(self, n):
        """After ceil(log2(n)) + c rounds every view equals the union -
        epidemic doubling, not O(n) token passing."""
        views = seeded_views(n)
        expected_union = union_of(views)
        coordinator = GossipCoordinator(views, fanout=1, seed=0)
        budget = math.ceil(math.log2(n)) + 4
        rounds = coordinator.run(max_rounds=budget)
        assert rounds <= budget
        for view in views:
            assert view.snapshot() == expected_union

    def test_run_raises_when_budget_too_small(self):
        views = seeded_views(32)
        coordinator = GossipCoordinator(views, seed=0)
        with pytest.raises(GossipError):
            coordinator.run(max_rounds=1)
        # The budget is exact: no extra round ran (or was accounted)
        # past it before the failure surfaced.
        assert len(coordinator.rounds) == 1

    def test_run_succeeds_on_an_exact_budget(self):
        """Convergence reached *by* the last budgeted round counts -
        the final round's outcome must be checked, not discarded."""
        rounds_needed = GossipCoordinator(seeded_views(32), seed=0).run()
        coordinator = GossipCoordinator(seeded_views(32), seed=0)
        assert coordinator.run(max_rounds=rounds_needed) == rounds_needed
        assert len(coordinator.rounds) == rounds_needed

    def test_full_state_ablation_ships_more_bytes(self):
        """Same seed, same schedule - the ablation re-sends everything
        every handshake, the delta protocol only the news."""
        delta_coord = GossipCoordinator(seeded_views(16), seed=3)
        rounds = delta_coord.run()
        full_coord = GossipCoordinator(
            seeded_views(16), seed=3, full_state=True
        )
        full_coord.run_rounds(rounds)
        assert full_coord.converged()
        assert delta_coord.total_bytes < full_coord.total_bytes / 2

    def test_late_joiner_catches_up(self):
        views = seeded_views(8)
        coordinator = GossipCoordinator(views, seed=0)
        coordinator.run()
        joiner = ObjectView("late")
        joiner.learn("late-obj", "late", 1 * MB)
        coordinator.add_view(joiner)
        coordinator.run()
        assert joiner.snapshot() == views[0].snapshot()
        assert views[0].knows("late-obj", "late")


class TestStaleness:
    """A view excluded from k rounds prices placements worse - more
    believed-missing bytes - than a converged one, monotonically in k:
    the unit-level companion of benchmarks/bench_gossip.py."""

    def excluded_missing_bytes(self, k: int) -> int:
        """Run 6 rounds of fresh data + gossip; the watcher view sits
        out the *last* k rounds.  Returns the bytes the watcher believes
        machine m0 is missing for the full object set afterwards."""
        machines = [ObjectView(f"m{i}") for i in range(4)]
        watcher = ObjectView("watcher")
        coordinator = GossipCoordinator(machines + [watcher], seed=11)
        names = []
        total_rounds = 6
        for step in range(total_rounds):
            # One new object materializes everywhere each step (a
            # replicated output): a fresh view knows m0 holds it.
            name = f"out-{step}"
            names.append(name)
            for machine in machines:
                machine.learn(name, machine.node, 1 * MB)
            participants = None
            if step >= total_rounds - k:
                participants = {m.node for m in machines}  # watcher out
            coordinator.run_rounds(2, participants)
        needs = [(name, 1 * MB) for name in names]
        return watcher.price_moves(needs, ["m0"])["m0"]

    def test_excluded_view_prices_monotonically_worse(self):
        missing = [self.excluded_missing_bytes(k) for k in range(4)]
        assert missing[0] == 0  # fully gossiped: nothing believed missing
        for fresher, staler in zip(missing, missing[1:]):
            assert staler >= fresher
        assert missing[-1] > missing[0]  # staleness has a real price


# ----------------------------------------------------------------------
# FixpointSim wiring: beliefs age with the round budget


def two_step_graph():
    graph = JobGraph()
    graph.add_data("big0", 10 * MB, "node0")
    graph.add_data("big1", 10 * MB, "node1")
    graph.add_task(
        TaskSpec(
            name="a",
            fn="f",
            inputs=("big0",),
            output="a.out",
            output_size=4 * MB,
            compute_seconds=0.1,
        )
    )
    graph.add_task(
        TaskSpec(
            name="b",
            fn="f",
            inputs=("a.out", "big1"),
            output="b.out",
            output_size=8,
            compute_seconds=0.1,
        )
    )
    return graph


class TestFixpointSimGossip:
    def test_gossiped_run_completes_and_spreads_outputs(self):
        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(startup_rounds=3, rounds_per_output=2, seed=0),
        )
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        # The global view never snapshotted the registry, yet gossip
        # carried the outputs to it.
        assert platform.scheduler.view.where("a.out")
        assert platform.gossip.rounds  # rounds actually ran

    def test_zero_round_budget_means_the_scheduler_stays_stale(self):
        """rounds_per_output=0 is the aging extreme: outputs exist on
        machines (and in machine views) but the global belief never
        hears of them - staleness as a knob, correctness intact."""
        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(startup_rounds=3, rounds_per_output=0, seed=0),
        )
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        assert not platform.scheduler.view.where("a.out")
        # Ground truth has the replica; only the belief lags.
        assert platform.cluster.locate("a.out")

    def test_without_gossip_behaviour_is_unchanged(self):
        platform = FixpointSim.build(nodes=3, cores=4)
        assert platform.gossip is None
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        assert platform.scheduler.view.where("a.out")


# ----------------------------------------------------------------------
# Executing runtime: GOSSIP frames over real channels

FAT_INC_SOURCE = (
    '"""'
    + "p" * 600
    + '"""\n'
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
    "    return fix.create_blob((n + 1).to_bytes(8, 'little'))\n"
)


class TestNetGossip:
    def test_gossip_frames_cross_the_wire_and_count(self):
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        channel = a.connect(b)  # connect itself is one gossip round
        before = channel.total_bytes
        assert before > 0  # the inventory handshake is real traffic now
        blob = a.repo.put_blob(b"fresh" * 100)
        traffic = a.gossip_with("beta")
        assert traffic.entries_sent >= 1  # the new blob's belief shipped
        assert b.view.knows(blob.content_key(), "alpha")
        assert b.view.believed_size(blob.content_key()) == blob.byte_size()
        assert channel.total_bytes - before == traffic.bytes_shipped

    def test_converged_peers_gossip_for_digest_bytes_only(self):
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        channel = a.connect(b)
        connect_bytes = channel.total_bytes
        traffic = a.gossip_with("beta")
        assert traffic.entries_sent == 0
        assert traffic.entries_received == 0
        # Digests + framing (plus the membership piggyback: a u64
        # incarnation + u64 heartbeat per member), a tiny fraction of
        # the connect handshake.
        assert traffic.bytes_shipped < max(280, connect_bytes / 4)

    def test_transitive_spread_reaches_unconnected_nodes(self):
        """alpha learns what gamma holds through beta - no alpha-gamma
        channel ever existed."""
        alpha, beta, gamma = (
            FixpointNode("alpha"),
            FixpointNode("beta"),
            FixpointNode("gamma"),
        )
        alpha.connect(beta)
        beta.connect(gamma)
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert "gamma" not in alpha.peers
        assert alpha.view.knows(fn.content_key(), "gamma")
        assert alpha.view.believed_size(fn.content_key()) > 600

    def test_gossip_unknown_peer_raises(self):
        lonely = FixpointNode("lonely")
        from repro.fixpoint.net import NetworkError

        with pytest.raises(NetworkError):
            lonely.gossip_with("nobody")

    #: The wire format, pinned: (tag, length, sha256) of each
    #: frame of connect + one more round between two fresh nodes.  The
    #: stdlib codelets every node compiles at boot are part of the
    #: inventory, so a stdlib edit moves these too.
    PINNED_FRAMES = [
        ("10", 71, "78918bf21db5102ab394cfd8ad265ba278093dc3afe4ae0eb28fe590437261c2"),
        ("11", 507, "e3b1257bbe1df99d1a9fb5b51b8c068267e87c18fbe1d96eb2fc0d874e1cc727"),
        ("12", 460, "6e170cddeb8d3402d74eff985631087f9f74854c9fa8907f32dc9e60ad017a63"),
        ("10", 108, "67406d5762cfdc3d0ed72f161a8d6689ef7c6a2309ee10e9a32090e64fcc505b"),
        ("11", 180, "1be7215b623246de43f9200fdb748494dd93c0ca288464e863d56e203cb8a693"),
        ("12", 106, "d5e2c300dd1e0a05df8edcfe23a33b183b96c9ebde4c66040f5ba5c743fa3f3e"),
    ]

    def test_frames_match_the_pinned_wire_format(self, monkeypatch):
        import hashlib

        from repro.core.data import Blob
        from repro.fixpoint.net import Channel

        frames = []
        send = Channel.send

        def recording_send(channel, sender, payload):
            frames.append(bytes(payload))
            return send(channel, sender, payload)

        monkeypatch.setattr(Channel, "send", recording_send)
        alpha, beta = FixpointNode("alpha"), FixpointNode("beta")
        alpha.repo.put(Blob(b"alpha-only " * 8))
        beta.repo.put(Blob(b"beta-only " * 9))
        channel = alpha.connect(beta)
        alpha.repo.put(Blob(b"alpha-later " * 7))
        beta.repo.put(Blob(b"beta-later " * 6))
        traffic = alpha.gossip_with("beta")
        assert [
            (f[:1].hex(), len(f), hashlib.sha256(f).hexdigest()) for f in frames
        ] == self.PINNED_FRAMES
        assert traffic.bytes_shipped == 394
        assert (traffic.entries_received, traffic.entries_sent) == (1, 1)
        assert (channel.bytes_ab, channel.bytes_ba) == (745, 687)

    def _round_frames(self, monkeypatch):
        """A connected pair plus the frames of one more round."""
        from repro.fixpoint.net import Channel

        a, b = FixpointNode("alpha"), FixpointNode("beta")
        a.connect(b)
        a.repo.put_blob(b"news" * 50)
        frames = []
        send = Channel.send

        def recording_send(channel, sender, payload):
            frames.append(bytes(payload))
            return send(channel, sender, payload)

        monkeypatch.setattr(Channel, "send", recording_send)
        a.gossip_with("beta")
        monkeypatch.setattr(Channel, "send", send)
        return a, b, frames

    def test_truncated_gossip_frames_are_network_errors(self, monkeypatch):
        """Every strict prefix of a SYN or PUSH is refused with a
        NetworkError (never a bare struct.error), before any state
        changes on the receiving node."""
        from repro.fixpoint.net import NetworkError

        _a, b, (syn_frame, _ack, push_frame) = self._round_frames(monkeypatch)
        digest = b.view.digest()
        for frame, serve in (
            (syn_frame, b._serve_gossip_syn),
            (push_frame, b._absorb_gossip_push),
        ):
            for cut in range(len(frame)):
                with pytest.raises(NetworkError, match="gossip"):
                    serve(frame[:cut])
        assert b.view.digest() == digest

    def test_sweep_suspects_a_peer_whose_ack_fails_to_parse(self, monkeypatch):
        """A malformed ACK is a failed handshake: the sweep records a
        suspicion instead of letting a codec error escape."""
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        a.connect(b)
        serve = b._serve_gossip_syn

        def truncating_serve(wire):
            ack, seq = serve(wire)
            return ack[: len(ack) // 2], seq

        monkeypatch.setattr(b, "_serve_gossip_syn", truncating_serve)
        assert a.gossip_sweep() == []
        assert a.membership.status("beta") == "suspect"


@pytest.mark.stress
class TestGossipConcurrencyStress:
    """Concurrent gossip rounds + live delegation traffic on a 5-node
    mesh: no deadlock (bounded waits throughout), no lost inventory
    entries (after quiescing, anti-entropy makes every view agree on
    everything every node holds)."""

    NODES = 5
    DELEGATIONS = 4  # per node
    GOSSIP_ROUNDS = 6  # per node, concurrent with the delegations

    def test_concurrent_gossip_and_delegations(self):
        directory = NodeDirectory()
        nodes = [
            FixpointNode(f"n{i}", workers=2, directory=directory)
            for i in range(self.NODES)
        ]
        try:
            for i, node in enumerate(nodes):
                for other in nodes[i + 1 :]:
                    node.connect(other)  # full mesh
            fn = nodes[0].runtime.compile(FAT_INC_SOURCE, "fat-inc")
            errors = []
            futures = []
            futures_lock = threading.Lock()

            def delegate_traffic(node, base):
                try:
                    for j in range(self.DELEGATIONS):
                        encode = make_application(
                            node.repo,
                            fn,
                            [node.repo.put_blob(int_blob(base + j))],
                        ).wrap_strict()
                        with futures_lock:
                            futures.append(
                                (base + j, node, node.scatter([encode])[0])
                            )
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            def gossip_traffic(node, index):
                try:
                    for j in range(self.GOSSIP_ROUNDS):
                        offset = 1 + j % (self.NODES - 1)  # never self
                        node.gossip_with(f"n{(index + offset) % self.NODES}")
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = []
            for index, node in enumerate(nodes):
                threads.append(
                    threading.Thread(
                        target=delegate_traffic,
                        args=(node, index * 100),
                        daemon=True,
                    )
                )
                threads.append(
                    threading.Thread(
                        target=gossip_traffic, args=(node, index), daemon=True
                    )
                )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "stress threads deadlocked"
            assert not errors, f"stress traffic died: {errors[0]!r}"
            for value, node, future in futures:
                result = future.result(timeout=30)
                assert blob_int(node.repo.get_blob(result).data) == value + 1
            # Quiesced: a full anti-entropy sweep must reconcile every
            # view with every node's real holdings - nothing lost.
            for node in nodes:
                for other in nodes:
                    if other is not node:
                        node.gossip_with(other.name)
            for node in nodes:
                for other in nodes:
                    for key, size in other.runtime.holdings().items():
                        assert node.view.knows(key, other.name), (
                            f"{node.name} lost {other.name}'s entry"
                        )
        finally:
            for node in nodes:
                node.close()


class TestGossipLearnedPlacement:
    """Acceptance: a FixpointNode places work on a peer it learned about
    only via gossip - never directly connected at quote time."""

    def test_quote_prices_and_delegation_dials_a_gossip_learned_node(self):
        directory = NodeDirectory()
        alpha = FixpointNode("alpha", directory=directory)
        beta = FixpointNode("beta", directory=directory)
        gamma = FixpointNode("gamma", directory=directory)
        alpha.connect(beta)
        beta.connect(gamma)
        # gamma acquires the fat codelet *after* all connects: only
        # gossip can tell alpha about it.
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert "gamma" not in alpha.peers
        arg = alpha.repo.put_blob(int_blob(41))
        encode = make_application(alpha.repo, fn, [arg]).wrap_strict()
        quote = alpha.quote_best(encode)
        assert quote.candidate == "gamma"  # priced without a channel
        result = alpha.eval_anywhere(encode)
        assert blob_int(alpha.repo.get_blob(result).data) == 42
        assert gamma.delegations_served == 1
        assert beta.delegations_served == 0
        assert "gamma" in alpha.peers  # dialed on demand to place the work

    def test_concurrent_dials_share_one_channel(self):
        """Racing connects of the same pair - from either end - must
        agree on a single channel (and so a single sequence space);
        two channels would split the pair's frames and wedge delivery."""
        for trial in range(20):
            a = FixpointNode(f"a{trial}")
            b = FixpointNode(f"b{trial}")
            barrier = threading.Barrier(2)
            errors = []

            def dial(src, dst):
                try:
                    barrier.wait(timeout=10)
                    src.connect(dst)
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = [
                threading.Thread(target=dial, args=(a, b), daemon=True),
                threading.Thread(target=dial, args=(b, a), daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
                assert not thread.is_alive()
            assert not errors, f"racing connect died: {errors[0]!r}"
            assert a.peers[b.name] is b.peers[a.name]

    def test_without_a_directory_unreachable_names_are_not_candidates(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        alpha.connect(beta)
        beta.connect(gamma)
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert alpha.view.knows(fn.content_key(), "gamma")
        # Knowledge without an endpoint: placement must stick to peers
        # it can actually reach.
        assert "gamma" not in alpha._candidates()
