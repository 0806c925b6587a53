"""The shared placement policy: one cost model for both runtimes.

Covers :mod:`repro.dist.costmodel` (pricing, tie-breaks, hints), the
incremental holdings/size index in :class:`repro.dist.objectview.ObjectView`
(consistency through ``learn`` / ``sync_from_cluster`` / ``exchange``,
staleness pricing), and the acceptance property of the unification: the
simulated :class:`DataflowScheduler` and the executing
:class:`repro.fixpoint.net.FixpointNode` pick the *same* machine when
they hold the same beliefs.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SchedulingError
from repro.core.minrepo import transitive_footprint
from repro.core.thunks import make_application
from repro.dist.costmodel import Quote, choose, price_moves, quote
from repro.dist.gossip import absorb, answer, close, syn
from repro.dist.graph import TaskSpec
from repro.dist.objectview import ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint.net import FixpointNode
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator

MB = 1 << 20


def make_cluster(nodes=3, cores=4):
    sim = Simulator()
    cluster = Cluster(
        sim, [MachineSpec(f"node{i}", cores=cores) for i in range(nodes)]
    )
    return sim, cluster


class TestPriceMoves:
    def locations(self, table):
        return lambda name: table.get(name, ())

    def test_prices_missing_bytes_per_candidate(self):
        table = {"a": {"m1"}, "b": {"m2"}, "c": {"m1", "m2"}}
        prices = price_moves(
            [("a", 10), ("b", 20), ("c", 5)],
            self.locations(table),
            ["m1", "m2", "m3"],
        )
        assert prices == {"m1": 20, "m2": 10, "m3": 35}

    def test_unknown_object_charges_everyone(self):
        prices = price_moves(
            [("ghost", 7)], self.locations({}), ["m1", "m2"]
        )
        assert prices == {"m1": 7, "m2": 7}

    def test_locations_outside_candidates_ignored(self):
        table = {"a": {"elsewhere"}}
        prices = price_moves([("a", 10)], self.locations(table), ["m1"])
        assert prices == {"m1": 10}

    def test_duplicate_needs_counted_twice(self):
        """Mirrors ObjectView.bytes_missing, which sums per occurrence."""
        prices = price_moves(
            [("a", 10), ("a", 10)], self.locations({"a": {"m1"}}), ["m1", "m2"]
        )
        assert prices == {"m1": 0, "m2": 20}


class TestChoose:
    def test_cheapest_bytes_win(self):
        best = choose(
            ["m1", "m2"], {"m1": 100, "m2": 5}.__getitem__, lambda m: 0
        )
        assert best.candidate == "m2"
        assert best.move_bytes == 5

    def test_ties_spread_by_load_then_name(self):
        prices = {"m1": 10, "m2": 10, "m3": 10}
        loads = {"m1": 2, "m2": 0, "m3": 0}
        best = choose(prices, prices.__getitem__, loads.__getitem__)
        assert best.candidate == "m2"  # load beats m1, name beats m3

    def test_output_hint_prices_the_journey(self):
        prices = {"m1": 0, "m2": 3}
        best = choose(
            prices,
            prices.__getitem__,
            lambda m: 0,
            output_size=100,
            consumer_location="m2",
        )
        assert best.candidate == "m2"
        assert best.hint_bytes == 0  # at the consumer, the output stays put
        assert quote("m1", 0, 0, output_size=100, consumer_location="m2") == Quote(
            "m1", 0, 100, 0
        )

    def test_empty_candidates_is_an_error(self):
        with pytest.raises(SchedulingError):
            choose([], lambda m: 0, lambda m: 0)


class TestHoldingsIndex:
    def assert_consistent(self, view, names, locations):
        """Forward map, inverted holdings index, and knows() agree."""
        for name in names:
            for loc in locations:
                assert view.knows(name, loc) == (loc in view.where(name))
                assert (name in view.holdings(loc)) == view.knows(name, loc)

    def test_learn_maintains_index(self):
        view = ObjectView("n0")
        view.learn("x", "m1", 10)
        view.learn("x", "m2", 10)
        view.learn("y", "m1", 4)
        assert view.holdings("m1") == {"x", "y"}
        assert view.holdings("m2") == {"x"}
        assert view.holdings("m3") == set()
        assert view.bytes_held("m1") == 14
        assert view.believed_size("x") == 10
        assert view.believed_size("ghost") == 0
        self.assert_consistent(view, ["x", "y"], ["m1", "m2", "m3"])

    def test_sync_from_cluster_maintains_index(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        cluster.add_object("b", 20, "node2")
        view = ObjectView("node0")
        view.sync_from_cluster(cluster)
        assert view.holdings("node1") == {"b"}
        assert view.bytes_held("node2") == 20
        self.assert_consistent(view, ["a", "b"], ["node0", "node1", "node2"])

    def test_exchange_maintains_index_and_sizes(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        v0, v1 = ObjectView("node0"), ObjectView("node1")
        v0.refresh_local(cluster)
        v1.refresh_local(cluster)
        absorb(v1, close(v0, None, answer(v1, None, syn(v0))))
        for view in (v0, v1):
            assert view.holdings("node0") == {"a"}
            assert view.holdings("node1") == {"b"}
            assert view.believed_size("a") == 10
            assert view.believed_size("b") == 20
            self.assert_consistent(view, ["a", "b"], ["node0", "node1"])

    def test_bytes_missing_many_matches_per_machine(self):
        sim, cluster = make_cluster(nodes=4)
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        cluster.add_object("c", 30, "node1")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        names = ["a", "b", "c"]
        machines = cluster.machine_names()
        many = view.bytes_missing_many(cluster, names, machines)
        assert many == {
            m: view.bytes_missing(cluster, names, m) for m in machines
        }


class TestStaleness:
    def test_missed_replica_prices_a_redundant_fetch(self):
        """A replica the view never saw must cost a (redundant) transfer,
        never a failure - beliefs price, ground truth settles."""
        sim, cluster = make_cluster()
        cluster.add_object("x", 10 * MB, "node0")
        cluster.add_object("y", 1 * MB, "node1")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        cluster.add_object("x", 10 * MB, "node1")  # replica the view missed
        # Belief says node1 must fetch x; ground truth says it is free.
        assert view.bytes_missing(cluster, ["x", "y"], "node1") == 10 * MB
        assert cluster.bytes_missing(["x", "y"], "node1") == 0
        # The stale scheduler therefore places at node0 and pays y's
        # journey - the staleness-induced redundant transfer.
        sched = DataflowScheduler(cluster, view)
        task = TaskSpec(
            name="t",
            fn="f",
            inputs=("x", "y"),
            output="t.out",
            output_size=8,
            compute_seconds=0.1,
        )
        placement = sched.place(task)
        assert placement.machine == "node0"
        assert placement.predicted_move_bytes == 1 * MB

    def test_engine_survives_view_staleness_end_to_end(self):
        """Replicas created by fetches are invisible to the scheduler's
        view (only outputs are learned) - the run must still complete and
        the view must provably lag ground truth."""
        from repro.dist.engine import FixpointSim
        from repro.dist.graph import JobGraph

        platform = FixpointSim.build(nodes=3, cores=4)
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
        # b consumes a.out next to big1: a.out gets fetched to node1...
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
        result = platform.run(graph)
        assert set(result.task_finish) == {"a", "b"}
        # ...so ground truth has a replica at node1 that the scheduler's
        # view never learned (fetch replicas are not note_output'd).
        view = platform.scheduler.view
        locations = platform.cluster.locate("a.out")
        assert "node1" in locations
        assert view.where("a.out") == {"node0"}
        # Pricing a follow-up at node1 with the stale view charges the
        # redundant fetch; ground truth knows it would be free.
        assert (
            view.bytes_missing(platform.cluster, ["a.out"], "node1") == 4 * MB
        )
        assert platform.cluster.bytes_missing(["a.out"], "node1") == 0


SOURCE_CONCAT = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    blobs = [fix.read_blob(e) for e in entries[2:]]\n"
    "    return fix.create_blob(b''.join(blobs))\n"
)


class TestOnePolicyBothRuntimes:
    """Acceptance: given the same believed view, the executing runtime's
    delegation and the simulated scheduler resolve to the same machine
    (both go through :func:`repro.dist.costmodel.choose`)."""

    def build_nodes(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        big = bytes(range(256)) * 4  # 1 KiB, lives on beta (and alpha ships none of it)
        small = b"s" * 40  # 40 B, lives on gamma and alpha
        hbig = beta.repo.put_blob(big)
        hsmall = gamma.repo.put_blob(small)
        alpha.repo.put_blob(small)
        fn_beta = beta.runtime.compile(SOURCE_CONCAT, "concat")
        fn_gamma = gamma.runtime.compile(SOURCE_CONCAT, "concat")
        assert fn_beta == fn_gamma  # content-addressed: one handle
        alpha.connect(beta)
        alpha.connect(gamma)
        encode = make_application(
            alpha.repo, fn_beta, [hbig, hsmall]
        ).wrap_strict()
        return alpha, beta, gamma, encode

    def mirror_into_scheduler(self, alpha, encode):
        """Rebuild alpha's exact beliefs as a cluster + ObjectView."""
        fp = transitive_footprint(alpha.repo, encode)
        local = alpha.runtime.holdings()
        sim = Simulator()
        cluster = Cluster(
            sim, [MachineSpec("beta", cores=4), MachineSpec("gamma", cores=4)]
        )
        view = ObjectView("sched")
        names = []
        for key in sorted(fp.data):
            name = key.hex()
            size = local.get(key, alpha.view.believed_size(key))
            peers = alpha.view.where(key) & {"beta", "gamma"}
            # The registry needs some location; data only alpha holds
            # starts at the (non-machine) client endpoint.
            for location in peers or {"client"}:
                cluster.add_object(name, size, location)
            for location in peers:
                view.learn(name, location, size)
            names.append(name)
        sched = DataflowScheduler(cluster, view)
        task = TaskSpec(
            name="t",
            fn="f",
            inputs=tuple(names),
            output="t.out",
            output_size=8,
            compute_seconds=0.1,
        )
        return sched, task

    def test_both_pick_the_same_machine(self):
        alpha, beta, gamma, encode = self.build_nodes()
        net_quote = alpha.quote_best(encode)
        sched, task = self.mirror_into_scheduler(alpha, encode)
        placement = sched.place(task)
        # Same winner AND the same believed price, down to the byte.
        assert placement.machine == net_quote.candidate == "beta"
        assert placement.predicted_move_bytes == net_quote.move_bytes
        # The choice is real: eval_anywhere delegates to that machine
        # and the evaluation succeeds there.
        result = alpha.eval_anywhere(encode)
        assert beta.delegations_served == 1
        assert gamma.delegations_served == 0
        payload = alpha.repo.get_blob(result).data
        assert payload == bytes(range(256)) * 4 + b"s" * 40

    def test_load_feedback_moves_both_the_same_way(self):
        """Tip the tie-break with load on both sides: same flip."""
        alpha, beta, gamma, encode = self.build_nodes()
        # Make beta and gamma equal-priced by giving gamma the big blob
        # too (alpha learns of it late - another inventory exchange).
        big = bytes(range(256)) * 4
        hbig = gamma.repo.put_blob(big)
        alpha.view.learn(hbig.content_key(), "gamma", hbig.byte_size())
        small = b"s" * 40
        hsmall = alpha.repo.put_blob(small)
        alpha.view.learn(hsmall.content_key(), "beta", hsmall.byte_size())
        alpha.view.learn(hsmall.content_key(), "gamma", hsmall.byte_size())
        assert alpha.quote_best(encode).candidate == "beta"  # name tie-break
        alpha.outstanding["beta"] = 3
        assert alpha.quote_best(encode).candidate == "gamma"  # load wins
        sched, task = self.mirror_into_scheduler(alpha, encode)
        sched.task_started("beta")
        assert sched.place(task).machine == "gamma"


class TestForget:
    """``ObjectView.forget``: the rollback path for optimistic advances."""

    def test_forget_retracts_location_and_holdings(self):
        view = ObjectView("alpha")
        view.learn("obj", "beta", 100)
        view.learn("obj", "gamma", 100)
        view.forget("obj", "beta")
        assert not view.knows("obj", "beta")
        assert view.where("obj") == {"gamma"}
        assert "obj" not in view.holdings("beta")

    def test_forget_keeps_size_knowledge(self):
        """Size is per-object, not per-replica: a wrong location belief
        does not invalidate what we know the object weighs."""
        view = ObjectView("alpha")
        view.learn("obj", "beta", 4096)
        view.forget("obj", "beta")
        assert view.believed_size("obj") == 4096
        # Pricing still charges the right weight once re-learned.
        view.learn("obj", "gamma")
        assert view.price_moves([("obj", 4096)], ["beta", "gamma"]) == {
            "beta": 4096,
            "gamma": 0,
        }

    def test_forget_last_location_empties_where(self):
        view = ObjectView("alpha")
        view.learn("obj", "beta", 10)
        view.forget("obj", "beta")
        assert view.where("obj") == set()
        assert len(view) == 0

    def test_forget_unknown_is_a_noop(self):
        view = ObjectView("alpha")
        view.forget("never-seen", "beta")  # must not raise
        view.learn("obj", "beta", 10)
        view.forget("obj", "gamma")  # wrong location: no change
        assert view.knows("obj", "beta")


class TestViewConcurrency:
    """The view's lock: learn/forget racing price_moves stays coherent.

    The executing runtime absorbs delegation replies on serving threads
    while the dispatcher quotes placements; without the internal lock
    the pricing pass iterates location sets that mutate under it.
    """

    def test_concurrent_learn_forget_and_price_moves(self):
        import threading

        view = ObjectView("alpha")
        names = [f"obj{i}" for i in range(50)]
        for name in names:
            view.learn(name, "beta", 10)
        needs = [(name, 10) for name in names]
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    for name in names:
                        view.learn(name, "gamma", 10)
                    for name in names:
                        view.forget(name, "gamma")
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                prices = view.price_moves(needs, ["beta", "gamma", "delta"])
                # Atomic pass: beta always holds everything, delta never
                # does, and gamma is either fully charged or not per
                # object - never a torn read that breaks the invariant.
                assert prices["beta"] == 0
                assert prices["delta"] == 500
                assert 0 <= prices["gamma"] <= 500
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not errors, f"churn thread died: {errors[0]!r}"
