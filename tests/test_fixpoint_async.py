"""Non-blocking delegation: the load signal is live, errors cross the
wire, and fan-out overlaps in-flight work.

These tests gate peer-side evaluation on events so "in flight" is a
controlled, deterministic state - no sleeps deciding outcomes.  The
acceptance property for the whole change is
:class:`TestLoadSignalLive`: with two equal-priced peers and one
delegation in flight, ``quote_best`` steers to the idle peer, and the
same scenario collapses back to the name tie when ``outstanding`` is
forced to zero - proving the signal is read live, not recomputed dead.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.thunks import make_application, make_identification, strict
from repro.fixpoint.net import (
    Delegation,
    FixpointNode,
    NetworkError,
    RemoteEvalError,
)

#: A padded codelet whose shipping cost is visible on the wire (and
#: equal on every peer that compiled it - the tie the load must break).
FAT_INC_SOURCE = (
    '"""'
    + "p" * 600
    + '"""\n'
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
    "    return fix.create_blob((n + 1).to_bytes(8, 'little'))\n"
)

BOOM_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    raise ValueError('boom')\n"
)


class Gate:
    """Blocks a runtime's ``eval`` until released (deterministic gating)."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.started = threading.Semaphore(0)
        self.release = threading.Event()
        self._real = runtime.eval
        runtime.eval = self._gated

    def _gated(self, encode):
        self.started.release()
        if not self.release.wait(10):
            raise TimeoutError("gate never released")
        return self._real(encode)

    def open(self):
        self.release.set()

    def restore(self):
        self.runtime.eval = self._real


def tied_pair():
    """A hub plus two peers with identical believed bytes for the fat
    codelet: every quote between them is a genuine tie."""
    alpha = FixpointNode("alpha")
    left = FixpointNode("left")
    right = FixpointNode("right")
    fn_left = left.runtime.compile(FAT_INC_SOURCE, "fat-inc")
    fn_right = right.runtime.compile(FAT_INC_SOURCE, "fat-inc")
    assert fn_left == fn_right
    alpha.connect(left)
    alpha.connect(right)
    return alpha, left, right, fn_left


def fat_encode(alpha, fn, n):
    arg = alpha.repo.put_blob(int_blob(n))
    return make_application(alpha.repo, fn, [arg]).wrap_strict()


def add_encode(node, x, y):
    repo = node.repo
    fn = node.runtime.stdlib["add_u8"]
    return node.runtime.invoke(
        fn, [repo.put_blob(int_blob(x, 1)), repo.put_blob(int_blob(y, 1))]
    ).wrap_strict()


class TestDelegateAsync:
    def test_future_resolves_to_absorbed_result(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        future = alpha.delegate_async("beta", add_encode(alpha, 20, 22))
        assert isinstance(future, Delegation)
        assert future.peer == "beta"
        result = future.result(10)
        assert future.done
        assert blob_int(alpha.repo.get_blob(result).data) == 42
        assert beta.delegations_served == 1

    def test_outstanding_live_between_dispatch_and_reply(self):
        alpha, left, right, fn = tied_pair()
        gate = Gate(left.runtime)
        try:
            future = alpha.delegate_async("left", fat_encode(alpha, fn, 1))
            assert gate.started.acquire(timeout=10)  # serve has started
            assert not future.done
            assert alpha.outstanding["left"] == 1  # live while in flight
            gate.open()
            assert blob_int(alpha.repo.get_blob(future.result(10)).data) == 2
            assert alpha.outstanding["left"] == 0  # dropped after absorb
        finally:
            gate.restore()

    def test_sync_delegate_is_dispatch_plus_wait(self):
        """The blocking path rides the same machinery (served off the
        caller's thread, result absorbed before return)."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        result = alpha.delegate("beta", add_encode(alpha, 5, 6))
        assert blob_int(alpha.repo.get_blob(result).data) == 11
        assert alpha.outstanding["beta"] == 0

    def test_peer_serves_on_its_worker_pool(self):
        alpha = FixpointNode("alpha")
        with FixpointNode("beta", workers=2) as beta:
            alpha.connect(beta)
            before = beta.runtime.pool.submitted
            futures = [
                alpha.delegate_async("beta", add_encode(alpha, i, 1))
                for i in range(3)
            ]
            values = [
                blob_int(alpha.repo.get_blob(f.result(10)).data)
                for f in futures
            ]
            assert values == [1, 2, 3]
            # Each request landed on the shared pool as a task.
            assert beta.runtime.pool.submitted - before >= 3

    def test_serve_survives_a_closed_pool(self):
        """A peer whose pool was shut down falls back to per-request
        threads instead of enqueueing work nobody will pop."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta", workers=2)
        alpha.connect(beta)
        beta.runtime.close()
        result = alpha.delegate("beta", add_encode(alpha, 2, 2))
        assert blob_int(alpha.repo.get_blob(result).data) == 4


class TestLoadSignalLive:
    """The acceptance property: in-flight load steers placement."""

    def test_quote_steers_to_idle_peer_while_delegation_in_flight(self):
        alpha, left, right, fn = tied_pair()
        gate = Gate(left.runtime)
        try:
            probe = fat_encode(alpha, fn, 7)
            # Idle cluster: a genuine tie, broken by name.
            assert alpha.quote_best(probe).candidate == "left"
            future = alpha.delegate_async("left", fat_encode(alpha, fn, 1))
            assert gate.started.acquire(timeout=10)
            # One delegation in flight on left: the tiebreak fires and
            # the idle peer wins.
            live = alpha.quote_best(probe)
            assert live.candidate == "right"
            assert live.load == 0
            # Force the signal dead: the same scenario collapses back to
            # the name tie - both picks identical - proving the live
            # quote above came from the outstanding count, nothing else.
            saved = dict(alpha.outstanding)
            for peer in alpha.outstanding:
                alpha.outstanding[peer] = 0
            assert alpha.quote_best(probe).candidate == "left"
            alpha.outstanding.update(saved)
            gate.open()
            future.result(10)
        finally:
            gate.restore()

    def test_scatter_spreads_equal_priced_delegations(self):
        """Six equal-priced delegations land 3/3 across two peers -
        only possible if every quote saw the loads of the dispatches
        before it (a dead signal piles all six onto 'left')."""
        alpha, left, right, fn = tied_pair()
        gate_left = Gate(left.runtime)
        gate_right = Gate(right.runtime)
        try:
            encodes = [fat_encode(alpha, fn, n) for n in range(6)]
            futures = alpha.scatter(encodes)
            assert alpha.outstanding == {"left": 3, "right": 3}
            gate_left.open()
            gate_right.open()
            values = [
                blob_int(alpha.repo.get_blob(f.result(10)).data)
                for f in futures
            ]
            assert values == [n + 1 for n in range(6)]
            assert left.delegations_served == 3
            assert right.delegations_served == 3
            assert alpha.outstanding == {"left": 0, "right": 0}
        finally:
            gate_left.restore()
            gate_right.restore()

    def test_same_encode_on_both_peers_converges(self):
        """Determinism of absorbed handles: both peers compute the same
        encode concurrently and every repository converges on the same
        result handle and payload."""
        alpha, left, right, fn = tied_pair()
        encode = fat_encode(alpha, fn, 41)
        f1 = alpha.delegate_async("left", encode)
        f2 = alpha.delegate_async("right", encode)
        r1, r2 = f1.result(10), f2.result(10)
        assert r1 == r2
        assert blob_int(alpha.repo.get_blob(r1).data) == 42
        assert left.repo.get_blob(r1).data == right.repo.get_blob(r2).data

    def test_inflight_delegations_overlap_wire_time(self):
        """With per-direction channel latency, four concurrent
        delegations finish far sooner than four serial round trips -
        the wall-clock win the whole refactor exists for.  The bound is
        *relative* (fan-out vs a serial pass on the same nodes, whose
        wire time is latency-dominated either way), so a slow CI box
        shifts both sides instead of failing an absolute deadline."""
        alpha, left, right, fn = tied_pair()
        for channel in alpha.peers.values():
            channel.latency = 0.03
        fan_encodes = [fat_encode(alpha, fn, n) for n in range(4)]
        start = time.perf_counter()
        results = [f.result(15) for f in alpha.scatter(fan_encodes)]
        fanout_wall = time.perf_counter() - start
        assert [blob_int(alpha.repo.get_blob(r).data) for r in results] == [
            1, 2, 3, 4,
        ]
        serial_encodes = [fat_encode(alpha, fn, n) for n in range(10, 14)]
        start = time.perf_counter()
        for encode in serial_encodes:
            alpha.delegate_best(encode)
        serial_wall = time.perf_counter() - start
        # Serial pays 4 round trips x 2 transits back to back; the
        # overlapped flights pay little more than one round trip.
        assert fanout_wall < serial_wall / 1.5, (
            f"fan-out {fanout_wall:.3f}s vs serial {serial_wall:.3f}s"
        )


class TestConcurrentDispatch:
    def test_two_dispatchers_one_worker_pool_no_deadlock(self):
        """Regression: spawning the serve task *outside* the dispatch
        lock let a preempted dispatcher enqueue its task after a later
        sequence number's, wedging a 1-worker pool in the delivery
        window (waiting for a frame queued behind it).  Hammer the
        interleaving with a tiny switch interval; timeouts turn a
        recurrence into a failure instead of a hang."""
        import sys

        alpha = FixpointNode("alpha")
        with FixpointNode("beta", workers=1) as beta:
            alpha.connect(beta)
            errors = []

            def dispatcher(tag):
                try:
                    for n in range(25):
                        future = alpha.delegate_async(
                            "beta", add_encode(alpha, tag, n)
                        )
                        value = blob_int(
                            alpha.repo.get_blob(future.result(30)).data
                        )
                        assert value == tag + n
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=dispatcher, args=(tag,))
                    for tag in (1, 2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(90)
                alive = [t for t in threads if t.is_alive()]
            finally:
                sys.setswitchinterval(old_interval)
            assert not alive, "dispatcher threads deadlocked"
            assert not errors, f"concurrent dispatch failed: {errors[0]!r}"


class TestEvalMany:
    def test_results_in_input_order_mixing_local_and_remote(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        # A codelet only beta holds: those encodes must delegate.
        fn = beta.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        alpha.connect(beta)
        remote = fat_encode(alpha, fn, 9)
        local_a = add_encode(alpha, 2, 3)
        local_b = add_encode(alpha, 30, 12)
        results = alpha.eval_many([local_a, remote, local_b])
        values = [blob_int(alpha.repo.get_blob(r).data) for r in results]
        assert values == [5, 10, 42]
        assert alpha.delegations_sent == 1  # only the remote one shipped

    def test_all_local_never_delegates(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        results = alpha.eval_many(
            [add_encode(alpha, 1, 1), add_encode(alpha, 2, 2)]
        )
        assert [blob_int(alpha.repo.get_blob(r).data) for r in results] == [
            2, 4,
        ]
        assert alpha.delegations_sent == 0

    def test_no_peers_and_incomplete_footprint_raises(self):
        from repro.core.errors import MissingObjectError

        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        fn = beta.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        # Never connected: alpha knows the handle but holds nothing.
        encode = fat_encode(alpha, fn, 1)
        with pytest.raises(MissingObjectError):
            alpha.eval_many([encode])


class TestErrorFrames:
    def test_remote_eval_failure_crosses_the_wire(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        fn = alpha.runtime.compile(BOOM_SOURCE, "boom")
        encode = make_application(
            alpha.repo, fn, [alpha.repo.put_blob(int_blob(1))]
        ).wrap_strict()
        with pytest.raises(RemoteEvalError) as excinfo:
            alpha.delegate("beta", encode)
        err = excinfo.value
        assert err.peer == "beta"
        assert err.error_type == "CodeletError"
        assert "boom" in err.remote_message
        # No false memo: the encode has no locally recorded result.
        assert alpha.repo.get_result(encode) is None
        assert alpha.outstanding["beta"] == 0

    def test_node_still_usable_after_remote_failure(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        fn = alpha.runtime.compile(BOOM_SOURCE, "boom")
        bad = make_application(
            alpha.repo, fn, [alpha.repo.put_blob(int_blob(1))]
        ).wrap_strict()
        with pytest.raises(RemoteEvalError):
            alpha.delegate("beta", bad)
        good = alpha.delegate("beta", add_encode(alpha, 20, 1))
        assert blob_int(alpha.repo.get_blob(good).data) == 21

    def test_async_failure_resolves_the_future_not_the_thread(self):
        """The error is delivered where result() is called - the serving
        thread never leaks an exception."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        fn = alpha.runtime.compile(BOOM_SOURCE, "boom")
        encode = make_application(
            alpha.repo, fn, [alpha.repo.put_blob(int_blob(1))]
        ).wrap_strict()
        future = alpha.delegate_async("beta", encode)
        assert future.wait(10)
        assert future.done
        with pytest.raises(RemoteEvalError):
            future.result(10)


#: A codelet whose result is too big to ride inside its handle, so the
#: reply's bundle carries it.
QUAD_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    return fix.create_blob(fix.read_blob(entries[2]) * 4)\n"
)


class TestDelegationFrames:
    """Request, reply and error reply go through the same frame codec
    as gossip: a tag, the sender (requests only), the span context,
    then the message's fields."""

    #: The wire format, pinned: (tag, length, sha256) of the request,
    #: reply, failing request and error reply of two delegations
    #: between fresh nodes.  The stdlib codelets every node compiles at
    #: boot are part of the inventory, so a stdlib edit moves these too.
    PINNED_FRAMES = [
        ("02", 446, "ea314f5e1ed9fd6bea4c77ab5ffa3670fbbdf76104d92149beb267ed8368b9d0"),
        ("00", 253, "e101ac94abf1832d5103b6bde5690555cb45a84b5de8b99f0b5bcba17db658db"),
        ("02", 306, "b97b03393df42a2d0f9d29ffe9602182a1222010494961d599668b32ba10a848"),
        ("01", 73, "d7957bc0131308ca51a35e87b587720ef2f7cede68d8512e1347272a9953b365"),
    ]

    def _frames(self, monkeypatch):
        """Two delegations (one ok, one failing remotely) and one
        gossip round between fresh nodes; returns the nodes, the two
        encodes and the seven frames in send order."""
        from repro.fixpoint.net import Channel

        alpha, beta = FixpointNode("alpha"), FixpointNode("beta")
        alpha.connect(beta)
        quad = alpha.runtime.compile(QUAD_SOURCE, "quad")
        boom = alpha.runtime.compile(BOOM_SOURCE, "boom")
        ok = make_application(
            alpha.repo, quad, [alpha.repo.put_blob(b"wire" * 10)]
        ).wrap_strict()
        bad = make_application(
            alpha.repo, boom, [alpha.repo.put_blob(int_blob(1))]
        ).wrap_strict()
        frames = []
        send = Channel.send

        def recording_send(channel, sender, payload):
            frames.append(bytes(payload))
            return send(channel, sender, payload)

        monkeypatch.setattr(Channel, "send", recording_send)
        result = alpha.delegate("beta", ok)
        assert alpha.repo.get_blob(result).data == b"wire" * 40
        with pytest.raises(RemoteEvalError):
            alpha.delegate("beta", bad)
        alpha.gossip_with("beta")
        monkeypatch.setattr(Channel, "send", send)
        return alpha, beta, ok, bad, frames

    def test_frames_match_the_pinned_wire_format(self, monkeypatch):
        import hashlib

        _alpha, _beta, _ok, _bad, frames = self._frames(monkeypatch)
        assert [
            (f[:1].hex(), len(f), hashlib.sha256(f).hexdigest())
            for f in frames[:4]
        ] == self.PINNED_FRAMES

    @pytest.mark.parametrize("kind", ["request", "reply", "error reply"])
    def test_truncated_frames_are_refused(self, monkeypatch, kind):
        """Every strict prefix is refused with a NetworkError - or, for
        a cut inside the bundle that ends the frame, by the bundle
        codec's SerializationError - and never as a bare struct.error,
        HandleError or UnicodeDecodeError; the receiver's view does not
        change."""
        from repro.core.errors import SerializationError

        alpha, beta, ok, bad, frames = self._frames(monkeypatch)
        request, reply, _, error = frames[:4]
        # Where the bundle starts: after [tag]([u16 len][sender])[ctx]
        # and the 32-byte handle.
        frame, receiver, parse, bundle_at = {
            "request": (
                request, beta, beta._absorb_request, 1 + 2 + 5 + 16 + 32
            ),
            "reply": (
                reply,
                alpha,
                lambda wire: alpha._absorb_reply("beta", ok, wire),
                1 + 16 + 32,
            ),
            "error reply": (
                error,
                alpha,
                lambda wire: alpha._absorb_reply("beta", bad, wire),
                len(error),
            ),
        }[kind]
        digest = receiver.view.digest()
        for cut in range(len(frame)):
            with pytest.raises((NetworkError, SerializationError)) as excinfo:
                parse(frame[:cut])
            refused = type(excinfo.value)
            assert refused is NetworkError or (
                refused is SerializationError and cut >= bundle_at
            ), (cut, excinfo.value)
        assert receiver.view.digest() == digest

    def test_a_frame_of_the_wrong_kind_is_refused(self, monkeypatch):
        alpha, beta, ok, _bad, frames = self._frames(monkeypatch)
        request, reply, _, error, syn, ack, push = frames
        alpha_digest, beta_digest = alpha.view.digest(), beta.view.digest()
        for wire in (ack, reply, error, syn):
            with pytest.raises(NetworkError, match="expected a request"):
                beta._absorb_request(wire)
        for wire in (request, ack, syn, push):
            with pytest.raises(
                NetworkError, match="expected a reply or error reply"
            ):
                alpha._absorb_reply("beta", ok, wire)
        with pytest.raises(NetworkError, match="expected a gossip SYN"):
            beta._serve_gossip_syn(request)
        with pytest.raises(NetworkError, match="expected a gossip PUSH"):
            beta._absorb_gossip_push(reply)
        assert (alpha.view.digest(), beta.view.digest()) == (
            alpha_digest,
            beta_digest,
        )


class TestViewRollback:
    """Regression for the over-advance bug: ``delegate`` used to learn
    ``to_ship`` before the peer replied, so a failure mid-serve left the
    caller falsely believing the peer holds the data - and the *next*
    delegate omitted it, stranding the peer on a
    :class:`MissingObjectError` that staleness-tolerance is supposed to
    make impossible."""

    def test_transport_failure_rolls_back_and_retry_reships(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        payload = bytes(range(256)) * 4
        blob = alpha.repo.put_blob(payload)
        encode = strict(make_identification(blob))
        real_serve = beta._serve

        def dead_serve(wire, arrival=None):
            raise ConnectionResetError("wire cut before the peer parsed")

        beta._serve = dead_serve
        try:
            with pytest.raises(NetworkError):
                alpha.delegate("beta", encode)
        finally:
            beta._serve = real_serve
        # The rollback: alpha no longer believes beta holds the payload
        # it never actually received...
        assert not alpha.view.knows(blob.content_key(), "beta")
        # ...so the retry re-ships it and succeeds.  (Without the
        # rollback the retry omits the blob and the peer dies with
        # MissingObjectError.)
        result = alpha.delegate("beta", encode)
        assert beta.repo.get_blob(result).data == payload
        before = alpha.peers["beta"].total_bytes
        assert before > len(payload)  # the payload really crossed twice

    def test_wire_order_makes_inflight_omission_safe(self):
        """The dispatcher may omit data "already on the wire" to the
        same peer only because the channel is wire-serialized: the
        second request's bundle is never decoded before the first's has
        landed.  Slowing the *first* decode must stall the second, not
        let it overtake and strand on the missing blob."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        payload = bytes(range(256)) * 16  # 4 KiB
        blob = alpha.repo.put_blob(payload)
        first = strict(make_identification(alpha.repo.put_tree([blob])))
        second = strict(
            make_identification(alpha.repo.put_tree([blob, blob]))
        )
        real_absorb = beta._absorb_request

        def slow_big_bundles(wire):
            if len(wire) > len(payload):  # only the first request is fat
                time.sleep(0.15)  # invite the second serve to overtake
            return real_absorb(wire)

        beta._absorb_request = slow_big_bundles
        try:
            f1 = alpha.delegate_async("beta", first)
            f2 = alpha.delegate_async("beta", second)  # omits the blob
            r1, r2 = f1.result(10), f2.result(10)
        finally:
            beta._absorb_request = real_absorb
        assert beta.repo.get_tree(r2)  # evaluated with the shared blob
        assert beta.repo.get_blob(blob).data == payload
        # And the whole point of the omission: one payload on the wire.
        assert alpha.peers["beta"].bytes_ab < 2 * len(payload)

    def test_remote_eval_failure_also_rolls_back(self):
        """Even when the peer *did* absorb the shipped bundle before its
        evaluation failed, the caller retracts the optimistic advance -
        a conservative belief costs at most a redundant re-ship."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        alpha.connect(beta)
        fn = alpha.runtime.compile(BOOM_SOURCE, "boom")
        encode = make_application(
            alpha.repo, fn, [alpha.repo.put_blob(int_blob(1))]
        ).wrap_strict()
        with pytest.raises(RemoteEvalError):
            alpha.delegate("beta", encode)
        assert not alpha.view.knows(fn.content_key(), "beta")
