"""A real (executing) multi-node Fixpoint: delegation by shipped values.

The simulated engine (:mod:`repro.dist`) studies *performance*; this
module is the *functional* distributed runtime: several in-process
Fixpoint nodes connected by message channels, delegating evaluation by
sending Fix values in the packed wire format (paper section 4.2.1):

* on connect, nodes run one digest/delta anti-entropy round - content
  keys *and per-handle wire sizes* - into a passive
  :class:`~repro.dist.objectview.ObjectView`, and can re-run it any
  time with :meth:`FixpointNode.gossip_with` (the GOSSIP frames below);
* ``delegate_async(encode)`` ships the Encode's minimum repository as
  one bundle (handles are self-describing - no scheduler round trip, no
  extra metadata), tagged with the sender's identity so the remote node
  can filter its reply through its view of the caller, and returns a
  :class:`Delegation` future immediately;
* the peer serves the request on its own worker pool
  (:meth:`~repro.fixpoint.runtime.Fixpoint.spawn`), and the reply - or
  an explicit error frame, when peer-side evaluation fails - crosses the
  wire back and is absorbed into the caller's repository on the serving
  thread; both views advance - on send *and* on receive.

Delegation is therefore **non-blocking end to end**: the per-peer
``outstanding`` count is raised at dispatch and lowered only once the
reply has been absorbed, so while work is in flight every
:meth:`FixpointNode.quote_best` sees live load.  That is what lets the
cost model's tiebreak (believed bytes first, then load, then name)
actually spread equal-priced work across peers - the property the
paper's placement policy presumes, and the same overlap of in-flight
remote work that Nexus-style I/O offloading wins come from.  Fan-out
helpers build on it: :meth:`FixpointNode.scatter` quotes and dispatches
a batch without waiting, :meth:`FixpointNode.eval_many` overlaps remote
delegations with local evaluation and gathers results in order.  The
blocking :meth:`FixpointNode.delegate` is now just dispatch-plus-wait.

Placement (:meth:`FixpointNode.delegate_best` /
:meth:`FixpointNode.eval_anywhere`) resolves through the same
:mod:`repro.dist.costmodel` the simulated
:class:`~repro.dist.scheduler.DataflowScheduler` uses: peers are priced
by the believed missing *bytes* of the footprint (not handle counts),
genuine ties spread by in-flight delegation load, then break by name.
Local evaluation is preferred whenever it is cheapest (a complete local
footprint prices at zero, and no remote quote can beat zero).

Channels are in-memory here (the transport is pluggable), but every byte
crossing them really is serialized and reparsed - the wire format is
load-bearing, not decorative - and the link is **wire-serialized**:
frames carry per-direction sequence numbers and are decoded in send
order, like a real stream transport.  That ordering is what makes the
dispatcher's optimistic "already on the wire" filtering sound under
concurrency.  A channel may carry a per-direction ``latency``; it is
paid on the *serving* thread, never the dispatching one, so in-flight
delegations overlap their wire time (pipelined, still ordered).

Request frame::

    [u16 sender length][sender utf-8][16-byte span context]
    [32-byte encode handle][bundle]

Response frame::

    [16-byte span context][u8 status=0]
                          [32-byte result handle][bundle]   (ok)
    [16-byte span context][u8 status=1]
                          [u16 type length][type utf-8]
                          [u32 message length][message utf-8]  (error)

The 16-byte :class:`~repro.obs.SpanContext` is how tracing crosses the
wire: the request carries the caller's *dispatch* span, the peer's
*serve* span parents to it, and the reply (ok or error) carries the
serve span back so the caller's *absorb* span parents to that - one
stitched dispatch -> serve -> absorb chain per delegation, across
nodes, reassembled by :func:`repro.obs.stitch`.  An untraced node
ships :data:`~repro.obs.NULL_CONTEXT` and its peers degrade to local
roots.

The error frame is what carries a peer-side evaluation failure across
the wire: the serve runs on the peer's thread, so raising through
Python would strand the exception there - instead the caller's future
fails with :class:`RemoteEvalError`, and the caller's optimistic view
advance for the shipped data is rolled back
(:meth:`~repro.dist.objectview.ObjectView.forget`), so the next attempt
re-ships instead of stranding on a false belief.

The ok-response bundle carries only the result data the server does
*not* believe the caller already holds - echoing back what the caller
just shipped would double the round trip for nothing.

**Gossip frames.**  Inventory knowledge is no longer connect-time-only:
:meth:`FixpointNode.gossip_with` runs one push-pull anti-entropy round
over a live channel, sequenced like every other frame::

    [u8 0x10][u16 sender length][sender utf-8][ctx][digest][members]  (SYN)
    [u8 0x11][ctx][digest][delta][members]                            (ACK)
    [u8 0x12][u16 sender length][sender utf-8][ctx][delta]            (PUSH)

(``ctx`` is the same 16-byte span context delegation frames carry: the
SYN/PUSH ship the caller's *round* span, the ACK the peer's *serve*
span, so a whole anti-entropy round is one stitched trace too.)

Each frame carries one message of the sans-I/O handshake core in
:mod:`repro.dist.gossip` - the steps
:class:`~repro.dist.gossip.GossipCoordinator` drives in-process, and
whose docstring holds the ordering rules.  This driver keeps only the
net-specific parts (frame header, field codecs, channel sequencing,
spans, metrics) and its policy: both ends restamp their own holdings
and beat once per round.  A frame that fails to parse raises
:class:`NetworkError`, a failed handshake like any other.

Entries keep their origin stamps, so beliefs spread *transitively*:
after beta gossips with gamma and alpha gossips with beta, alpha knows
what gamma holds without ever having opened a channel to it - and
because placement candidates include every gossip-learned node
resolvable through the optional :class:`NodeDirectory`,
:meth:`FixpointNode.quote_best` prices those nodes and delegation dials
them on demand (:meth:`FixpointNode.connect` is itself just channel
setup plus one gossip round).  Converged peers exchange digests and
empty deltas - a handshake between nodes that already agree ships a
few dozen bytes, not their inventories.

**Membership.**  The SYN and ACK frames piggyback each side's
:class:`~repro.dist.membership.MembershipView` map (heartbeat
counters stamped like inventory versions, merged with the same
idempotent join algebra), so liveness spreads on exactly the traffic
that spreads inventory.  :meth:`FixpointNode.gossip_sweep` is one
failure-detector round: gossip with every live peer, record a
suspicion for any that fail at the transport, age the detector one
tick.  A peer whose silence outlives suspect + confirm thresholds is
tombstoned, and the node reacts (:meth:`FixpointNode._on_peer_dead`,
fired outside every lock): the dead peer's beliefs are evicted from
the view, its channel is closed - waking frames parked in delivery
windows and callers blocked in :meth:`Channel.transit` with a
:class:`NetworkError` naming the dead endpoint - and its directory
entry is unregistered so gossip-learned names stop resolving to a
corpse.  In-flight :class:`Delegation` futures to the dead peer fail
fast through the same channel-close path, roll back their optimistic
view advance, and :meth:`FixpointNode.retry_elsewhere` re-quotes and
re-dispatches the work on the survivors.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.sync import (
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    note_blocking,
)
from ..core.errors import FixError, MissingObjectError
from ..core.handle import HANDLE_BYTES, Handle
from ..core.minrepo import Footprint, transitive_footprint
from ..core.serialize import decode_bundle, encode_bundle
from ..core.storage import Repository
from ..dist.costmodel import Quote, choose
from ..dist.gossip import (
    Ack,
    GossipError,
    Push,
    Syn,
    absorb,
    answer,
    close,
    pack_delta,
    pack_digest,
    syn,
    unpack_delta,
    unpack_digest,
)
from ..dist.membership import (
    MembershipError,
    MembershipView,
    pack_members,
    unpack_members,
)
from ..dist.objectview import ObjectView
from ..obs import NULL_CONTEXT, Obs, SpanContext
from .jobs import Job
from .runtime import Fixpoint

_SENDER_LEN = struct.Struct("<H")
_ERR_TYPE_LEN = struct.Struct("<H")
_ERR_MSG_LEN = struct.Struct("<I")

_STATUS_OK = b"\x00"
_STATUS_ERR = b"\x01"

#: Gossip frame layout per handshake-core message: tag byte, whether
#: the header names the sender, and the message's fields in wire order.
_GOSSIP_FRAMES = {
    Syn: (b"\x10", True, ("digest", "members")),
    Ack: (b"\x11", False, ("digest", "delta", "members")),
    Push: (b"\x12", True, ("delta",)),
}
_GOSSIP_CODECS = {
    "digest": (pack_digest, unpack_digest),
    "delta": (pack_delta, unpack_delta),
    "members": (pack_members, unpack_members),
}

#: Serializes topology mutation (channel registration on *both*
#: endpoints).  One process-wide lock, not per-node: connect touches two
#: nodes at once, and delegation now dials gossip-learned peers
#: implicitly, so two threads (or both ends) may race to link the same
#: pair - without this they each mint a Channel and the pair's frames
#: split across two sequence spaces, wedging delivery forever.  Held
#: only around the dict registration, never across wire traffic.
_TOPOLOGY_LOCK = TrackedLock("net._TOPOLOGY_LOCK")


class NetworkError(FixError):
    """Delegation failures (unknown peer, unresolvable dependencies)."""


class RemoteEvalError(NetworkError):
    """A peer-side evaluation failure, carried back as an error frame.

    The peer serves requests on its own threads, so its exception cannot
    raise through the caller's Python stack; it is serialized (exception
    type name plus message) and re-raised here when the caller reads the
    delegation's result.
    """

    def __init__(self, peer: str, error_type: str, message: str):
        super().__init__(
            f"delegation to {peer!r} failed remotely with "
            f"{error_type}: {message}"
        )
        self.peer = peer
        self.error_type = error_type
        self.remote_message = message


def _pack_error(exc: BaseException) -> bytes:
    """Serialize an exception into the error-response frame body."""
    error_type = type(exc).__name__.encode("utf-8")
    message = str(exc).encode("utf-8")
    return (
        _ERR_TYPE_LEN.pack(len(error_type))
        + error_type
        + _ERR_MSG_LEN.pack(len(message))
        + message
    )


def _unpack_error(body: bytes) -> Tuple[str, str]:
    """Parse an error-response frame body into (type name, message)."""
    (type_len,) = _ERR_TYPE_LEN.unpack_from(body, 0)
    offset = _ERR_TYPE_LEN.size
    error_type = body[offset : offset + type_len].decode("utf-8")
    offset += type_len
    (msg_len,) = _ERR_MSG_LEN.unpack_from(body, offset)
    offset += _ERR_MSG_LEN.size
    message = body[offset : offset + msg_len].decode("utf-8")
    return error_type, message


def _pack_gossip(message, ctx: SpanContext, sender: str) -> bytes:
    """``[tag]([u16 sender len][sender])[ctx]`` then the message's
    fields through the gossip codecs."""
    tag, named, fields = _GOSSIP_FRAMES[type(message)]
    parts = [tag]
    if named:
        raw = sender.encode("utf-8")
        parts += [_SENDER_LEN.pack(len(raw)), raw]
    parts.append(ctx.pack())
    parts += [_GOSSIP_CODECS[f][0](getattr(message, f)) for f in fields]
    return b"".join(parts)


def _unpack_gossip(receiver: str, wire: bytes, kind: type):
    """Parse a gossip frame that must carry a ``kind`` message; returns
    (message, sender, span context).  A wrong tag or a frame that fails
    to parse raises :class:`NetworkError`, like any other bad wire."""
    tag, named, fields = _GOSSIP_FRAMES[kind]
    label = kind.__name__.lower()
    if wire[:1] != tag:
        raise NetworkError(f"{receiver}: bad gossip {label} tag {wire[:1]!r}")
    try:
        offset, sender = 1, ""
        if named:
            (length,) = _SENDER_LEN.unpack_from(wire, offset)
            offset += _SENDER_LEN.size
            sender = wire[offset : offset + length].decode("utf-8")
            offset += length
        ctx, offset = SpanContext.unpack(wire, offset)
        values = []
        for f in fields:
            value, offset = _GOSSIP_CODECS[f][1](wire, offset)
            values.append(value)
    except (GossipError, MembershipError, struct.error, UnicodeDecodeError) as exc:
        raise NetworkError(
            f"{receiver}: malformed gossip {label} frame: {exc}"
        ) from exc
    return kind(*values), sender, ctx


@dataclass(frozen=True)
class GossipTraffic:
    """What one :meth:`FixpointNode.gossip_with` round actually moved."""

    peer: str
    bytes_shipped: int
    entries_received: int
    entries_sent: int


class NodeDirectory:
    """Name -> node resolution: the membership side of gossip.

    Gossip teaches a node *names* of machines holding data; turning a
    name into a dialable endpoint is a directory lookup (the in-process
    stand-in for address resolution in a real transport).  Nodes built
    with ``directory=`` register themselves; placement then treats
    every resolvable gossip-learned name as a candidate, and delegation
    connects on demand.
    """

    def __init__(self):
        self._nodes: Dict[str, "FixpointNode"] = {}

    def register(self, node: "FixpointNode") -> None:
        self._nodes[node.name] = node

    def unregister(self, name: str) -> None:
        """Drop a (dead) node: gossip-learned names stop resolving to
        it, so placement stops dialing a corpse.  Idempotent - several
        survivors' detectors may confirm the same death."""
        self._nodes.pop(name, None)

    def get(self, name: str) -> Optional["FixpointNode"]:
        return self._nodes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)


class _Arrival:
    """The wire-order delivery window for one frame.

    Entering waits until every earlier frame on the same direction has
    been delivered (decoded by the receiver); exiting marks this frame
    delivered and wakes successors.  :meth:`release` is idempotent, so
    a failure path that never entered the window can still free it
    without double-advancing the sequence.
    """

    __slots__ = ("channel", "direction", "seq")

    def __init__(self, channel: "Channel", direction: str, seq: int):
        self.channel = channel
        self.direction = direction
        self.seq = seq

    def __enter__(self) -> "_Arrival":
        self.channel._await_turn(self.direction, self.seq)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        self.channel._release(self.direction, self.seq)


@dataclass
class Channel:
    """A byte-counting, **wire-serialized** in-memory link.

    Frames on one direction carry sequence numbers assigned at
    :meth:`send` and must be *delivered* (decoded by the receiver) in
    that order - :meth:`arrival` hands out the delivery window.  This
    mirrors a real ordered transport: two concurrent delegations may
    evaluate in any order, but the second request's bundle is never
    parsed before the first's, so a dispatcher that skipped re-shipping
    data "already on the wire" can rely on it having landed.

    ``latency`` (seconds, per direction) is paid via :meth:`transit` on
    the serving thread *before* the delivery window, so in-flight
    frames overlap their wire time (pipelining) while still landing in
    order.
    """

    a: "FixpointNode"
    b: "FixpointNode"
    bytes_ab: int = 0
    bytes_ba: int = 0
    latency: float = 0.0
    _cond: object = field(
        default_factory=lambda: TrackedCondition(name="Channel._cond"),
        repr=False,
        compare=False,
    )
    _closed: bool = field(default=False, repr=False, compare=False)
    _sent: Dict[str, int] = field(
        default_factory=lambda: {"ab": 0, "ba": 0}, repr=False, compare=False
    )
    _delivered: Dict[str, int] = field(
        default_factory=lambda: {"ab": 0, "ba": 0}, repr=False, compare=False
    )
    #: Frames released ahead of their turn (an abandoned dispatch, a
    #: serve that died before its window); the delivery frontier only
    #: advances over *contiguous* completions, so an early release can
    #: never unblock frames that are still waiting on live predecessors.
    _early: Dict[str, set] = field(
        default_factory=lambda: {"ab": set(), "ba": set()},
        repr=False,
        compare=False,
    )

    def _direction(self, sender: "FixpointNode") -> str:
        if sender is self.a:
            return "ab"
        if sender is self.b:
            return "ba"
        raise NetworkError("sender is not an endpoint of this channel")

    def send(self, sender: "FixpointNode", payload: bytes) -> Tuple[bytes, int]:
        """Put a frame on the wire; returns (wire copy, sequence).

        Raises :class:`NetworkError` on a closed channel: a frame whose
        sequence number nobody will ever deliver would wedge the
        direction, so the failure must be loud and at the send site.
        """
        with self._cond:
            direction = self._direction(sender)
            if self._closed:
                raise NetworkError(
                    f"channel {self.a.name}<->{self.b.name} is closed: "
                    f"cannot send from {sender.name}"
                )
            if direction == "ab":
                self.bytes_ab += len(payload)
            else:
                self.bytes_ba += len(payload)
            seq = self._sent[direction]
            self._sent[direction] += 1
        # Both endpoints count the frame - outside the condition lock,
        # so metric updates never serialize the wire.
        receiver = self.b if direction == "ab" else self.a
        sender._note_frame(receiver.name, "out", len(payload))
        receiver._note_frame(sender.name, "in", len(payload))
        return bytes(payload), seq  # the wire copy

    def arrival(self, sender: "FixpointNode", seq: int) -> _Arrival:
        """The delivery window for frame ``seq`` sent by ``sender``."""
        return _Arrival(self, self._direction(sender), seq)

    def _await_turn(self, direction: str, seq: int) -> None:
        with self._cond:
            while self._delivered[direction] < seq:
                if self._closed:
                    # Close wakes every waiter: a frame parked in the
                    # delivery window must fail, not sleep forever on a
                    # predecessor that will never be delivered.
                    raise NetworkError(
                        f"channel {self.a.name}<->{self.b.name} closed "
                        f"while frame {seq} awaited delivery"
                    )
                self._cond.wait()

    def _release(self, direction: str, seq: int) -> None:
        with self._cond:
            if seq < self._delivered[direction]:
                return  # already delivered (idempotent)
            early = self._early[direction]
            early.add(seq)
            advanced = False
            while self._delivered[direction] in early:
                early.remove(self._delivered[direction])
                self._delivered[direction] += 1
                advanced = True
            if advanced:
                self._cond.notify_all()

    def transit(self) -> None:
        """One direction's wire time.  Called off the dispatching thread.

        The wait is interruptible: :meth:`close` (membership eviction, a
        crashed endpoint) wakes it mid-flight with a :class:`NetworkError`
        naming the endpoints, instead of sleeping out the full latency
        on a link that no longer exists.  Implemented as a deadline loop
        on the channel condition - ``wait(timeout)`` may return early on
        any notify, so each wakeup re-checks closed and re-waits only
        the remainder.
        """
        if self.latency <= 0:
            return
        # Waiting out wire time while holding a lock is the
        # hold-while-blocking shape the --race tracker flags; announce
        # the block so it can check the calling thread's held set.
        note_blocking("Channel.transit")
        deadline = time.monotonic() + self.latency
        with self._cond:
            while True:
                if self._closed:
                    raise NetworkError(
                        f"channel {self.a.name}<->{self.b.name} closed "
                        "while a frame was in transit"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)

    def close(self) -> None:
        """Tear the link down: subsequent sends raise, parked delivery
        windows wake with :class:`NetworkError` instead of wedging.
        Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def total_bytes(self) -> int:
        with self._cond:
            return self.bytes_ab + self.bytes_ba


class Delegation:
    """One in-flight asynchronous delegation (a future).

    Created by :meth:`FixpointNode.delegate_async`.  Resolved on the
    serving thread only *after* the reply has been absorbed into the
    caller's repository - when :meth:`result` returns, the handle and
    its data are local.  A peer-side evaluation failure resolves the
    future with :class:`RemoteEvalError`; a transport failure with
    :class:`NetworkError`.

    Completion signalling is a :class:`~repro.fixpoint.jobs.Job` - the
    same primitive the worker pool uses - so there is exactly one
    result/error/event implementation in the package; this class adds
    only the delegation identity and the timeout-to-:class:`NetworkError`
    translation.

    Every delegation settles its caller-side bookkeeping (the per-peer
    ``outstanding`` count, and - on failure - the rollback of the
    optimistic view advance for the shipped keys) **exactly once**,
    through a one-shot closure armed at dispatch.  The serving thread
    settles it on completion; :meth:`cancel` (or a :meth:`result`
    timeout) settles it from the caller's side when the caller stops
    waiting.  Whichever side loses the race becomes a no-op, so a hung
    peer can no longer leak phantom in-flight load and falsely-believed
    shipped keys forever - the bug this settle path fixes.
    """

    __slots__ = ("peer", "encode", "_job", "_settler")

    def __init__(self, peer: str, encode: Handle):
        self.peer = peer
        self.encode = encode
        self._job = Job(encode)
        #: One-shot settle closure (armed by ``FixpointNode._dispatch``):
        #: ``settler(rollback) -> bool``, True only for the first caller.
        self._settler = None

    @property
    def done(self) -> bool:
        return self._job.done

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._job.wait(timeout)

    def cancel(self) -> bool:
        """Abandon this delegation from the caller's side.

        Settles the dispatch bookkeeping - drops the peer's outstanding
        count and rolls back the optimistic view advance for every key
        shipped - and fails the future with :class:`NetworkError`.
        Returns True if this call did the settling; False when the
        delegation already resolved (or another canceller won), in
        which case nothing changes.  The peer may still finish serving
        the abandoned request; a late reply is absorbed as ordinary
        (true) belief but no longer touches the settled bookkeeping.
        """
        if self._settler is None or self._job.done:
            return False
        if not self._settler(True):
            return False
        self._job.fail(
            NetworkError(
                f"delegation to {self.peer!r} was cancelled by the caller"
            )
        )
        return True

    def result(self, timeout: Optional[float] = None) -> Handle:
        """Block until resolved; return (or raise) the outcome.

        A timeout **cancels** the delegation: the optimistic view
        advance is rolled back and the peer's in-flight count dropped
        before the :class:`NetworkError` raises - a hung peer must not
        keep phantom load and false shipped-key beliefs alive forever.
        If the reply lands in the instant between the timeout and the
        cancellation, the race is benign: the settled side wins, and
        the freshly-arrived result is returned instead of the error.
        """
        if not self._job.wait(timeout):
            if self.cancel():
                raise NetworkError(
                    f"delegation to {self.peer!r} timed out after "
                    f"{timeout}s (rolled back)"
                )
            # Lost the race: the serving thread settled first, so its
            # resolution (result or failure) is imminent - wait it in.
            self._job.wait()
        return self._job.value()

    def _complete(self, result: Handle) -> None:
        self._job.complete(result)

    def _fail(self, error: BaseException) -> None:
        self._job.fail(error)


class FixpointNode:
    """One executing node: a Fixpoint runtime plus peer channels."""

    def __init__(
        self,
        name: str,
        workers: int = 0,
        directory: Optional[NodeDirectory] = None,
        obs: Optional[Obs] = None,
        suspect_after: int = 3,
        confirm_after: int = 3,
        incarnation: int = 1,
    ):
        self.name = name
        #: SWIM incarnation: a node restarted after the cluster
        #: tombstoned it passes its old incarnation + 1, which outranks
        #: the tombstone in every survivor's lattice; the view stamps
        #: beliefs under the matching epoch so survivors' retained
        #: version caps (which cover everything the *previous*
        #: incarnation ever said) do not swallow the fresh ones.
        self.incarnation = incarnation
        #: Observability: metrics registry + tracer.  Each node gets its
        #: own wall-clocked :class:`~repro.obs.Obs` by default (cheap:
        #: metric updates are a lock and a dict write), so two-node
        #: examples produce stitched traces out of the box; pass
        #: ``repro.obs.NULL_OBS`` to run dark, or share one Obs across
        #: nodes to get a single cluster-wide registry.
        self.obs = obs if obs is not None else Obs(name)
        self.runtime = Fixpoint(workers=workers, obs=self.obs)
        self.peers: Dict[str, Channel] = {}
        #: What this node believes its peers hold (the passive view):
        #: object names are content keys, locations are peer names, and
        #: sizes come from the handles seen in inventory/wire traffic.
        #: Gossip also puts *this node's own* holdings in it, stamped
        #: with version counters, so anti-entropy can forward them.
        self.view = ObjectView(name, clock=self.obs.clock, epoch=incarnation)
        #: Optional membership: lets placement treat gossip-learned
        #: node names as candidates and delegation dial them on demand.
        self.directory = directory
        if directory is not None:
            directory.register(self)
        #: Gossiped liveness: heartbeats piggyback on the SYN/ACK
        #: frames, :meth:`gossip_sweep` runs the suspect -> confirm
        #: detector, and a confirmed death fires :meth:`_on_peer_dead`
        #: (outside the membership lock) to evict, close, unregister.
        #: The mirrors: a dead peer reasserting life at a higher
        #: incarnation fires :meth:`_on_peer_rejoin` (readmit its
        #: beliefs, restore its candidacy), and this node beating its
        #: *own* tombstone fires :meth:`_on_self_refute` (advance the
        #: view epoch, re-register in the directory).
        self.membership = MembershipView(
            name,
            suspect_after=suspect_after,
            confirm_after=confirm_after,
            on_dead=self._on_peer_dead,
            on_rejoin=self._on_peer_rejoin,
            on_refute=self._on_self_refute,
            incarnation=incarnation,
        )
        #: In-flight delegations per peer - the load signal the cost
        #: model spreads equal-price candidates with.  Raised at
        #: dispatch, lowered when the reply has been absorbed, so it is
        #: *live* while work is in flight.
        self.outstanding: Dict[str, int] = {}
        self.delegations_served = 0
        self.delegations_sent = 0
        self.gossip_rounds = 0
        #: Serializes dispatch (footprint, send, optimistic view
        #: advance, outstanding bump) against reply bookkeeping.
        self._lock = TrackedRLock("FixpointNode._lock")
        # Instruments (get-or-create: shared-Obs nodes share families,
        # distinguished by labels).  Live structures - in-flight load,
        # view size, view staleness - are sampled at export via gauge
        # callbacks instead of pushed on the hot path.
        registry = self.obs.registry
        self._m_frames = registry.counter(
            "net_frames_total", "Wire frames by peer and direction"
        )
        self._m_bytes = registry.counter(
            "net_bytes_total", "Wire bytes by peer and direction"
        )
        self._m_transit = registry.histogram(
            "net_transit_seconds", "Per-frame wire time, by peer"
        )
        self._m_quote = registry.histogram(
            "quote_seconds", "Placement quote time through the cost model"
        )
        self._m_sent = registry.counter(
            "delegations_sent_total", "Delegations dispatched, by peer"
        )
        self._m_served = registry.counter(
            "delegations_served_total", "Delegations served, by caller"
        )
        self._m_rollbacks = registry.counter(
            "delegation_rollbacks_total",
            "Failed delegations whose optimistic view advance was rolled back",
        )
        self._m_evictions = registry.counter(
            "membership_evictions_total",
            "Peers confirmed dead and evicted from the view",
        )
        self._m_rejoins = registry.counter(
            "membership_rejoins_total",
            "Tombstoned peers readmitted at a higher incarnation",
        )
        self._m_refutations = registry.counter(
            "membership_refutations_total",
            "Own tombstones refuted by bumping the incarnation",
        )
        self._m_retries = registry.counter(
            "delegation_retries_total",
            "Failed delegations re-quoted and re-dispatched on survivors",
        )
        self._m_gossip_rounds = registry.counter(
            "gossip_rounds_total", "Anti-entropy rounds by peer and role"
        )
        self._m_gossip_entries = registry.counter(
            "gossip_entries_total", "Gossip delta entries by direction"
        )
        self._m_gossip_bytes = registry.counter(
            "gossip_bytes_total", "Gossip frame bytes, by peer"
        )
        registry.gauge(
            "delegations_inflight", "Live in-flight delegation load"
        ).set_function(
            lambda: float(sum(self.outstanding.values())), node=self.name
        )
        view_stats = registry.gauge(
            "view_size", "ObjectView belief-state sizes"
        )
        for stat in ("entries", "replicas", "log_entries", "origins"):
            view_stats.set_function(
                lambda s=stat: float(self.view.stats()[s]),
                node=self.name,
                stat=stat,
            )
        registry.gauge(
            "view_staleness_seconds",
            "Age of the view's last belief advance",
        ).set_function(self.view.staleness, node=self.name)

    @property
    def repo(self) -> Repository:
        return self.runtime.repo

    def _note_frame(self, peer: str, direction: str, nbytes: int) -> None:
        """Count one wire frame (called by :meth:`Channel.send` for
        both endpoints, outside the channel's condition lock)."""
        self._m_frames.inc(peer=peer, direction=direction)
        self._m_bytes.inc(nbytes, peer=peer, direction=direction)

    def close(self) -> None:
        self.runtime.close()

    def crash(self) -> None:
        """Simulate abrupt death: every link drops, the pool stops.

        Closing the channels is what makes the death *observable*:
        peers' sends raise, frames parked in delivery windows and
        callers waiting out :meth:`Channel.transit` wake with
        :class:`NetworkError`, and subsequent :meth:`gossip_sweep`
        attempts fail at the transport and feed the failure detector.
        Nothing is announced - survivors must detect the silence.
        """
        for channel in list(self.peers.values()):
            channel.close()
        self.runtime.close()

    def _on_peer_dead(self, peer_name: str) -> None:
        """React to a membership tombstone for ``peer_name``.

        Runs outside the membership lock (it takes the view's and the
        channel's own locks): evict every belief about the dead peer
        from the view - tombstone-gated, so late gossip cannot
        resurrect them - close and drop its channel so parked waiters
        fail fast naming the dead endpoint, and unregister it from the
        directory so gossip-learned names stop dialing it.  The
        ``outstanding`` entry is kept (in-flight delegations still
        settle through it); placement ignores dead candidates anyway.
        """
        evicted = self.view.evict(peer_name)
        self._m_evictions.inc(peer=peer_name)
        with _TOPOLOGY_LOCK:
            channel = self.peers.pop(peer_name, None)
        if channel is not None:
            channel.close()
        if self.directory is not None:
            self.directory.unregister(peer_name)
        self.obs.tracer.start(
            "membership.evict", peer=peer_name
        ).set(beliefs_evicted=evicted).finish()

    def _on_peer_rejoin(self, peer_name: str) -> None:
        """React to a tombstoned peer reasserting life at a higher
        incarnation - the :meth:`_on_peer_dead` counterpart.

        Runs outside the membership lock.  Readmission lifts the
        view's eviction gate so the peer's fresh-epoch beliefs merge
        again (the retained version caps keep shadowing its pre-death
        gossip); placement candidacy and the :meth:`_ensure_channel`
        fast-fail recover by themselves, because both consult the
        membership's live dead set.  If a channel to the peer survived
        the false alarm, its endpoint is re-registered in the directory
        (a *restarted* peer re-registers itself at construction; a
        falsely-accused one re-registers in its own
        :meth:`_on_self_refute`).
        """
        readmitted = self.view.readmit(peer_name)
        if self.directory is not None:
            channel = self.peers.get(peer_name)
            if channel is not None and not channel.closed:
                self.directory.register(
                    channel.b if channel.a is self else channel.a
                )
        self._m_rejoins.inc(peer=peer_name)
        self.obs.tracer.start(
            "membership.rejoin", peer=peer_name
        ).set(readmitted=readmitted).finish()

    def _on_self_refute(self, incarnation: int) -> None:
        """React to *this node* beating its own tombstone.

        A falsely-accused node has a recovery problem eviction created:
        every survivor purged its holdings and kept the version caps,
        so replaying its old gossip applies 0 entries everywhere.
        Advancing the view's epoch re-stamps its holdings under the
        fresh ``name#incarnation`` origin - new information under every
        cap - and the next gossip round carries both the refutation
        (which readmits this node at each survivor) and the re-stamped
        beliefs.  Re-registering undoes the survivors' directory purge.
        """
        self.incarnation = incarnation
        restamped = self.view.advance_epoch(incarnation)
        if self.directory is not None:
            self.directory.register(self)
        self._m_refutations.inc()
        self.obs.tracer.start(
            "membership.refute", incarnation=incarnation
        ).set(restamped=restamped).finish()

    def __enter__(self) -> "FixpointNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Topology

    def connect(self, other: "FixpointNode") -> Channel:
        """Link two nodes; the inventory handshake (paper 4.2.2) is one
        digest/delta gossip round over the new channel.

        The same round used to run only here - connect-time-only
        exchange - which is exactly what :meth:`gossip_with` replaces:
        any later round refreshes the link for O(delta) bytes, and
        beliefs merged from one peer forward to the next.

        Safe to race: registration is atomic under the topology lock
        (double-checked), so concurrent dials of the same pair - from
        either end - share one channel and one sequence space.  The
        inventory gossip runs after the lock drops; a dispatcher that
        finds the channel mid-handshake just ships conservatively.

        A *closed* channel to the same peer (a healed partition, a
        peer readmitted after a false tombstone) does not satisfy the
        dial: it is dropped from both endpoints and a fresh channel
        with a fresh sequence space is minted.
        """
        stale = self.peers.get(other.name)
        if stale is not None and stale.closed:
            # The closed-ness check takes the channel's own lock, so it
            # runs before the topology lock, never inside it.
            with _TOPOLOGY_LOCK:
                if self.peers.get(other.name) is stale:
                    self.peers.pop(other.name, None)
                if other.peers.get(self.name) is stale:
                    other.peers.pop(self.name, None)
        with _TOPOLOGY_LOCK:
            existing = self.peers.get(other.name)
            if existing is not None:
                return existing
            channel = Channel(self, other)
            self.peers[other.name] = channel
            other.peers[self.name] = channel
            self.outstanding.setdefault(other.name, 0)
            other.outstanding.setdefault(self.name, 0)
        # Sampled, not copied: tests and benchmarks set a channel's
        # latency *after* connecting.
        self.obs.registry.gauge(
            "net_channel_latency_seconds", "Configured per-direction latency"
        ).set_function(lambda: channel.latency, peer=other.name)
        other.obs.registry.gauge(
            "net_channel_latency_seconds", "Configured per-direction latency"
        ).set_function(lambda: channel.latency, peer=self.name)
        self.gossip_with(other.name)
        return channel

    def _peer(self, name: str) -> "FixpointNode":
        channel = self.peers.get(name)
        if channel is None:
            raise NetworkError(f"{self.name}: no peer named {name!r}")
        return channel.b if channel.a is self else channel.a

    def _ensure_channel(self, peer_name: str) -> Channel:
        """A live channel to ``peer_name``, dialing through the
        directory when the name was learned only via gossip.  A peer
        this node's detector has confirmed dead is refused outright -
        failing fast with the death named beats dialing a corpse; the
        refusal lifts by itself when the peer rejoins, because the
        check consults the live lattice.  A closed channel (a healed
        partition, a readmitted peer) is re-dialed through the
        directory rather than returned."""
        if self.membership.is_dead(peer_name):
            raise NetworkError(
                f"{self.name}: peer {peer_name!r} is confirmed dead"
            )
        channel = self.peers.get(peer_name)
        if channel is not None and not channel.closed:
            return channel
        if self.directory is not None:
            node = self.directory.get(peer_name)
            if node is not None and node is not self:
                return self.connect(node)
        if channel is not None:
            # No directory to re-dial through: the stale link is all we
            # have, and sending on it raises naming the closed channel.
            return channel
        raise NetworkError(f"{self.name}: no peer named {peer_name!r}")

    # ------------------------------------------------------------------
    # Gossip: digest/delta anti-entropy over live channels

    def _refresh_self(self) -> None:
        """Stamp this node's own holdings into its view (a node always
        knows its disk); dedup in ``learn`` keeps repeats free."""
        for key, size in self.runtime.holdings().items():
            self.view.learn(key, self.name, size)

    def gossip_with(self, peer_name: str) -> GossipTraffic:
        """One push-pull anti-entropy round with a connected peer.

        The handshake core's messages cross the real channel as three
        sequenced frames (SYN, ACK, PUSH), serialized, reparsed, and
        counted like delegation traffic, so gossip can run concurrently
        with live delegations.  Between converged peers the deltas are
        empty: the round costs two digests and framing.
        """
        channel = self.peers.get(peer_name)
        if channel is None:
            raise NetworkError(f"{self.name}: no peer named {peer_name!r}")
        peer = self._peer(peer_name)
        self._refresh_self()
        # The heartbeat advances with every round this node initiates.
        self.membership.beat()
        span = self.obs.tracer.start("gossip.round", peer=peer_name)
        hello = syn(self.view, self.membership)
        wire, seq = channel.send(self, _pack_gossip(hello, span.context, self.name))
        with self._m_transit.time(peer=peer_name):
            channel.transit()
        with channel.arrival(self, seq):
            ack_wire, ack_seq = peer._serve_gossip_syn(wire)
        with self._m_transit.time(peer=peer_name):
            channel.transit()
        with channel.arrival(peer, ack_seq):
            ack, _, _ = _unpack_gossip(self.name, ack_wire, Ack)
            push = close(self.view, self.membership, ack)
        push_wire, push_seq = channel.send(
            self, _pack_gossip(push, span.context, self.name)
        )
        with self._m_transit.time(peer=peer_name):
            channel.transit()
        with channel.arrival(self, push_seq):
            peer._absorb_gossip_push(push_wire)
        with self._lock:
            self.gossip_rounds += 1
        entries_in, entries_out = len(ack.delta), len(push.delta)
        bytes_shipped = len(wire) + len(ack_wire) + len(push_wire)
        self._m_gossip_rounds.inc(peer=peer_name, role="caller")
        self._m_gossip_bytes.inc(bytes_shipped, peer=peer_name)
        self._m_gossip_entries.inc(entries_in, direction="in")
        self._m_gossip_entries.inc(entries_out, direction="out")
        span.set(
            bytes=bytes_shipped, entries_in=entries_in, entries_out=entries_out
        ).finish()
        return GossipTraffic(peer_name, bytes_shipped, entries_in, entries_out)

    def _serve_gossip_syn(self, wire: bytes) -> Tuple[bytes, int]:
        """Peer side of a gossip SYN: answer with the core's ACK.

        Runs inside the SYN's delivery window on the gossiping thread;
        sends (and sequences) the ACK on the way out.
        """
        hello, sender, ctx = _unpack_gossip(self.name, wire, Syn)
        self._refresh_self()
        # Serving a round is as alive as initiating one.
        self.membership.beat()
        span = self.obs.tracer.start("gossip.serve", parent=ctx, peer=sender)
        ack = answer(self.view, self.membership, hello)
        span.set(entries_out=len(ack.delta)).finish()
        with self._lock:
            self.gossip_rounds += 1
        self._m_gossip_rounds.inc(peer=sender, role="server")
        return self._send_back(sender, _pack_gossip(ack, span.context, self.name))

    def _absorb_gossip_push(self, wire: bytes) -> int:
        """Peer side of the closing PUSH: merge the caller's delta."""
        push, sender, ctx = _unpack_gossip(self.name, wire, Push)
        with self.obs.tracer.start(
            "gossip.absorb", parent=ctx, peer=sender
        ) as span:
            applied = absorb(self.view, push)
            span.set(applied=applied)
        return applied

    def gossip_sweep(self) -> List[GossipTraffic]:
        """One failure-detector round: gossip with every live peer.

        A peer whose handshake dies at the transport (closed channel, a
        crashed endpoint) is recorded as *suspected* at its believed
        heartbeat; a live-but-slow peer refutes that on any later sweep
        simply by having beaten past it.  The sweep then ages the
        detector one tick - a peer silent for ``suspect_after`` sweeps
        is suspected even without a failed send, and unrefuted
        suspicion hardens into a tombstone after ``confirm_after``
        more, firing :meth:`_on_peer_dead`.  Returns the traffic of the
        rounds that succeeded.
        """
        results: List[GossipTraffic] = []
        for peer_name in sorted(self.peers):
            if self.membership.is_dead(peer_name):
                continue
            try:
                results.append(self.gossip_with(peer_name))
            except NetworkError:
                self.membership.suspect(peer_name)
        self.membership.tick()
        return results

    def rejoin(self, survivor: "FixpointNode") -> GossipTraffic:
        """The rejoin handshake: dial a survivor, run two full rounds.

        Covers both ways back from a tombstone.  A node *restarted*
        after the cluster buried it (built with ``incarnation`` = old
        + 1) already outranks the tombstone: round one delivers the
        assertion, the survivor's ``on_rejoin`` readmits it, and the
        same round's ACK delta re-seeds this empty view from the
        survivor's full state while the PUSH carries this node's
        fresh-epoch holdings back.  A *falsely-accused* node (still
        running, same incarnation as its tombstone) instead learns of
        its own death from round one's ACK, refutes it on the spot
        (incarnation bump + epoch restamp via ``on_refute``), and round
        two spreads the refutation and the restamped holdings.  The
        dial itself replaces any closed channel left over from the
        partition; epidemic gossip carries the readmission to every
        other survivor from there.  Returns the final round's traffic.
        """
        before = self.membership.incarnation(self.name)
        self.connect(survivor)  # dials (and runs round one) if needed
        traffic = self.gossip_with(survivor.name)
        if self.membership.incarnation(self.name) != before:
            # The refutation fired mid-handshake; one more round
            # carries it - and the restamped holdings - to the
            # survivor (idempotent if the previous round already did).
            traffic = self.gossip_with(survivor.name)
        return traffic

    # ------------------------------------------------------------------
    # Delegation

    def delegate_async(self, peer_name: str, encode: Handle) -> Delegation:
        """Dispatch ``encode`` to a peer; returns a :class:`Delegation`.

        Ships only data the peer is not known to hold - the view keeps
        repeated delegations cheap in both directions (the reply is
        filtered symmetrically by the server; see :meth:`_serve`).  The
        view advance for shipped data is *optimistic*: recorded at
        dispatch so overlapping delegations do not re-ship the same
        bytes, and rolled back (:meth:`ObjectView.forget`) if the
        delegation fails before the peer confirms the result.

        ``outstanding[peer]`` is raised before this method returns and
        lowered when the reply is absorbed, so quotes taken while the
        work is in flight see the load.
        """
        return self._dispatch(peer_name, encode, None)

    def _dispatch(
        self, peer_name: str, encode: Handle, fp: Optional[Footprint]
    ) -> Delegation:
        """Build, send, and hand off one request frame.

        ``fp`` lets callers that already computed the footprint for a
        placement quote (:meth:`scatter`, :meth:`eval_many`) skip the
        second walk.  The optimistic ``view.learn`` for shipped data is
        safe against concurrent delegations because the channel is
        wire-serialized: a later request's bundle is never parsed by
        the peer before this one's has landed in its repository.
        """
        channel = self._ensure_channel(peer_name)
        peer = self._peer(peer_name)
        future = Delegation(peer_name, encode)
        span = self.obs.tracer.start("delegate.dispatch", peer=peer_name)
        with self._lock:
            if fp is None:
                fp = transitive_footprint(self.repo, encode)
            to_ship: List[Handle] = []
            for handle in self.repo.handles():
                key = handle.content_key()
                if key in fp.data and not self.view.knows(key, peer_name):
                    to_ship.append(handle)
            sender = self.name.encode("utf-8")
            request = (
                _SENDER_LEN.pack(len(sender))
                + sender
                + span.context.pack()
                + encode.pack()
                + encode_bundle(self.repo, to_ship)
            )
            wire, request_seq = channel.send(self, request)
            self.delegations_sent += 1
            self._m_sent.inc(peer=peer_name)
            shipped: List[bytes] = []
            for handle in to_ship:
                key = handle.content_key()
                self.view.learn(key, peer_name, handle.byte_size())
                shipped.append(key)
            self.outstanding[peer_name] = (
                self.outstanding.get(peer_name, 0) + 1
            )

            # One-shot settle closure: *every* way this delegation can
            # end - reply absorbed, transport death, spawn failure, a
            # caller-side timeout/cancel - funnels through it, and only
            # the first caller wins.  It owns the dispatch's two side
            # effects (the optimistic view advance and the load count),
            # so no outcome can leak them and no race can undo them
            # twice (the PR 8 satellite-a leak: a timed-out ``result()``
            # returned without either).
            state = {"settled": False}

            def settle(rollback: bool) -> bool:
                with self._lock:
                    if state["settled"]:
                        return False
                    state["settled"] = True
                    self.outstanding[peer_name] -= 1
                    if rollback:
                        for key in shipped:
                            self.view.forget(key, peer_name)
                        if shipped:
                            self._m_rollbacks.inc(peer=peer_name)
                return True

            future._settler = settle
            # Spawn *inside* the dispatch lock: the serve task's queue
            # position must match its wire sequence number, or a
            # bounded peer pool can pick up frame k+1 first and wedge a
            # worker in the delivery window waiting for frame k that is
            # queued behind it.
            try:
                peer.runtime.spawn(
                    lambda: self._finish_delegation(
                        future, channel, peer, peer_name, encode,
                        wire, request_seq,
                    )
                )
            except BaseException as exc:
                # No serving thread will ever run: undo every side
                # effect of the dispatch (belief, load, and the frame's
                # slot in the delivery order - an unreleased sequence
                # number would wedge the direction forever).
                settle(True)
                channel.arrival(self, request_seq).release()
                span.set(bytes=len(wire), handles_shipped=len(shipped))
                span.finish(status="error", error=str(exc))
                raise
            span.set(bytes=len(wire), handles_shipped=len(shipped))
            span.finish()
        return future

    def delegate(self, peer_name: str, encode: Handle) -> Handle:
        """Evaluate ``encode`` on a peer; returns the (absorbed) result.

        Blocking convenience over :meth:`delegate_async` - the load
        signal stays live for the whole round trip either way.
        """
        return self.delegate_async(peer_name, encode).result()

    def _finish_delegation(
        self,
        future: Delegation,
        channel: Channel,
        peer: "FixpointNode",
        peer_name: str,
        encode: Handle,
        wire: bytes,
        request_seq: int,
    ) -> None:
        """Serving-thread half of one delegation: deliver, serve, absorb.

        Runs on the *peer's* pool (or fallback serve thread) so the
        dispatcher never blocks.  Both outcomes resolve through the
        delegation's one-shot settle closure: a failure - transport or
        remote evaluation - settles with rollback (forgetting the
        optimistic view advance for the shipped keys) and fails the
        future; success settles without.  If the caller's
        timeout/cancel settled first, the closure refuses and this
        thread drops its outcome on the floor - the caller already owns
        the bookkeeping.  ``outstanding`` drops inside the settle,
        *before* the future resolves, so a waiter that quotes the
        moment ``result()`` returns never sees phantom load from its
        own finished delegation.
        """
        settle = future._settler
        assert settle is not None  # armed by _dispatch before spawn
        request_arrival = channel.arrival(self, request_seq)
        try:
            with self._m_transit.time(peer=peer_name):
                channel.transit()
            wire_back, reply_seq = peer._serve(wire, arrival=request_arrival)
            with self._m_transit.time(peer=peer_name):
                channel.transit()
            with channel.arrival(peer, reply_seq):
                result = self._absorb_reply(peer_name, encode, wire_back)
        except BaseException as exc:  # noqa: BLE001 - resolves the future
            if not isinstance(exc, FixError):
                exc = NetworkError(
                    f"{self.name}: delegation to {peer_name!r} died in "
                    f"transit: {exc}"
                )
            if settle(True):
                future._fail(exc)
        else:
            if settle(False):
                future._complete(result)
        finally:
            # A serve that died before entering its delivery window must
            # not wedge the direction; release is idempotent.
            request_arrival.release()

    def _absorb_reply(
        self, peer_name: str, encode: Handle, wire_back: bytes
    ) -> Handle:
        """Parse a response frame into the local repository and views.

        The frame's leading span context is the peer's *serve* span, so
        the absorb span minted here joins the delegation's trace as its
        child - the caller-side tail of the stitched chain.  The error
        frame carries it too: a failed delegation still traces end to
        end.
        """
        ctx, offset = SpanContext.unpack(wire_back, 0)
        status, body = wire_back[offset : offset + 1], wire_back[offset + 1 :]
        span = self.obs.tracer.start(
            "delegate.absorb", parent=ctx, peer=peer_name
        )
        if status == _STATUS_ERR:
            error_type, message = _unpack_error(body)
            span.finish(status="error", error=f"{error_type}: {message}")
            raise RemoteEvalError(peer_name, error_type, message)
        if status != _STATUS_OK:
            span.finish(status="error", error=f"bad status byte {status!r}")
            raise NetworkError(
                f"{self.name}: bad response status byte {status!r}"
            )
        result = Handle.unpack(body[:HANDLE_BYTES])
        absorbed = decode_bundle(self.repo, body[HANDLE_BYTES:])
        for handle in absorbed:
            self.view.learn(handle.content_key(), peer_name, handle.byte_size())
        self.view.learn(result.content_key(), peer_name, result.byte_size())
        self.repo.put_result(encode, result)
        span.set(bytes=len(wire_back), handles_absorbed=len(absorbed))
        span.finish()
        return result

    def _serve(
        self, wire: bytes, arrival: Optional[_Arrival] = None
    ) -> Tuple[bytes, int]:
        """Peer side: parse, evaluate, reply with the *filtered* bundle.

        The request names its sender, so the reply ships only result
        data the sender is not believed to hold - in particular, never
        data the sender itself just shipped in this request.  Runs on
        this node's worker pool; a failure after the sender is known
        (missing data, codelet error) becomes an error-response frame,
        never an exception through the serving thread.

        ``arrival`` is the request frame's delivery window: the bundle
        is decoded inside it, in wire order.  The reply is built *and
        sequenced* under this node's lock, so the reply filter and the
        reply's position on the wire agree - a reply that omits data
        "the sender already received" is always ordered after the reply
        that shipped it.  Returns the sent reply (wire copy, sequence).
        """
        with self._lock:
            self.delegations_served += 1
        sender: Optional[str] = None
        span = None
        try:
            if arrival is not None:
                with arrival:
                    sender, encode, ctx = self._absorb_request(wire)
            else:
                sender, encode, ctx = self._absorb_request(wire)
            # The serve span parents to the caller's dispatch span (the
            # context the request frame carried): this is the hop where
            # the trace crosses nodes.
            span = self.obs.tracer.start(
                "delegate.serve", parent=ctx, peer=sender
            )
            self._m_served.inc(peer=sender)
            result = self.runtime.eval(encode)
            # Reply with the result and the data needed to read it,
            # filtered through the view of the caller ("ship only what
            # the peer is not known to hold" - the same rule the
            # dispatcher applies).
            with self._lock:
                result_fp = transitive_footprint(self.repo, result)
                to_ship = [
                    handle
                    for handle in self.repo.handles()
                    if handle.content_key() in result_fp.data
                    and not self.view.knows(handle.content_key(), sender)
                ]
                for handle in to_ship:
                    self.view.learn(
                        handle.content_key(), sender, handle.byte_size()
                    )
                self.view.learn(
                    result.content_key(), sender, result.byte_size()
                )
                span.set(handles_shipped=len(to_ship)).finish()
                payload = (
                    span.context.pack()
                    + _STATUS_OK
                    + result.pack()
                    + encode_bundle(self.repo, to_ship)
                )
                return self._send_back(sender, payload)
        except BaseException as exc:  # noqa: BLE001 - crosses the wire
            if sender is None:
                raise  # cannot even address a reply: a transport failure
            # The error frame still carries the serve span (minted right
            # after the request parsed, so it exists on every path that
            # can address a reply): the caller's absorb span joins the
            # trace even for failures.
            if span is not None:
                span.finish(
                    status="error", error=f"{type(exc).__name__}: {exc}"
                )
            reply_ctx = span.context if span is not None else NULL_CONTEXT
            return self._send_back(
                sender, reply_ctx.pack() + _STATUS_ERR + _pack_error(exc)
            )

    def _absorb_request(
        self, wire: bytes
    ) -> Tuple[str, Handle, SpanContext]:
        """Decode one request frame into the repository (wire order)."""
        (sender_len,) = _SENDER_LEN.unpack_from(wire, 0)
        offset = _SENDER_LEN.size
        sender = wire[offset : offset + sender_len].decode("utf-8")
        offset += sender_len
        ctx, offset = SpanContext.unpack(wire, offset)
        encode = Handle.unpack(wire[offset : offset + HANDLE_BYTES])
        received = decode_bundle(self.repo, wire[offset + HANDLE_BYTES :])
        # The sender evidently holds everything it shipped: the server's
        # view of the caller advances on receive, mirroring the caller's
        # advance on send.
        for handle in received:
            self.view.learn(handle.content_key(), sender, handle.byte_size())
        return sender, encode, ctx

    def _send_back(self, sender: str, payload: bytes) -> Tuple[bytes, int]:
        channel = self.peers.get(sender)
        if channel is None:
            raise NetworkError(f"{self.name}: no channel back to {sender!r}")
        return channel.send(self, payload)

    # ------------------------------------------------------------------
    # Placement: the shared cost model decides where to run

    def _candidates(self) -> List[str]:
        """Every node placement may price: connected peers plus any
        gossip-learned holder the directory can actually dial.

        Without a directory a name learned via gossip is knowledge with
        no endpoint, so only live channels qualify - placement must
        never pick a machine delegation cannot reach.  Confirmed-dead
        peers never qualify: eviction pops their channel and purges
        their view beliefs, and the filter here catches the window
        between a tombstone landing and the eviction callback running.
        """
        names = {
            peer
            for peer in self.peers
            if not self.membership.is_dead(peer)
        }
        if self.directory is not None:
            for location in self.view.known_locations():
                if (
                    location != self.name
                    and location not in names
                    and not self.membership.is_dead(location)
                    and self.directory.get(location) is not None
                ):
                    names.add(location)
        return sorted(names)

    def _quote_peers(
        self,
        fp: Footprint,
        local: Dict[bytes, int],
        candidates: Optional[List[str]] = None,
    ) -> Quote:
        """Price every candidate for ``fp`` through the shared cost model.

        Sizes are authoritative for locally-held data and believed (from
        the inventory gossip) otherwise; a key whose size nobody ever
        reported prices as zero, which charges every candidate equally
        and so never skews the choice.

        Candidates default to :meth:`_candidates` - connected peers plus
        dialable gossip-learned holders.  They are first filtered for
        *serviceability*: a footprint key this node cannot ship (not
        held locally) and the peer is not believed to hold would strand
        the evaluation there.  Strandedness is counted in missing *keys*
        (each unshippable key weighs 1), never in bytes - a
        size-unreported key prices every peer at zero bytes and would
        let a dead-end peer slip through the filter.  Peers with
        stranded keys only stay candidates when every peer has them
        (the view may be stale - the peer might hold the datum anyway,
        and delegating is the only way to find out; staleness must
        never fail a delegation that could have worked).

        Confirmed-dead peers are different: they are excluded inside
        :func:`repro.dist.costmodel.choose` itself (the repo's one
        placement policy), because a tombstone is a *liveness* fact,
        not a staleness guess - delegating there cannot succeed.
        """
        if candidates is None:
            candidates = self._candidates()
        dead = self.membership.dead_nodes()
        with self._m_quote.time():
            needs = [
                (key, local.get(key, self.view.believed_size(key)))
                for key in fp.data
            ]
            prices = self.view.price_moves(needs, candidates)
            unshippable = [
                (key, 1) for key, _ in needs if key not in local
            ]
            stranded = self.view.price_moves(unshippable, candidates)
            viable = [
                peer for peer in candidates if stranded[peer] == 0
            ] or list(candidates)
            return choose(
                viable,
                prices.__getitem__,
                lambda peer: self.outstanding.get(peer, 0),
                exclude=dead,
            )

    def quote_best(self, encode: Handle) -> Quote:
        """The cheapest remote quote for evaluating ``encode``.

        This is the executing-runtime twin of
        :meth:`repro.dist.scheduler.DataflowScheduler.place`: believed
        missing bytes first, in-flight delegation load on ties, then
        name.  A serviceable peer believed to hold *nothing* is still a
        candidate, it just prices at the full footprint.  Because
        ``outstanding`` stays raised for the whole flight of an async
        delegation, quotes taken mid-flight steer toward idle peers.
        Candidates include nodes this one has never connected to, when
        gossip named them and the directory can dial them.
        """
        candidates = self._candidates()
        if not candidates:
            raise NetworkError(f"{self.name}: no peers to delegate to")
        fp = transitive_footprint(self.repo, encode)
        return self._quote_peers(fp, self.runtime.holdings(), candidates)

    def delegate_best(self, encode: Handle) -> Handle:
        """Delegate to the peer the shared cost model prices cheapest."""
        return self.delegate(self.quote_best(encode).candidate, encode)

    def eval_anywhere(self, encode: Handle) -> Handle:
        """Evaluate locally when that is cheapest; otherwise delegate
        through the shared cost model (:meth:`delegate_best`).

        A complete local footprint prices at zero bytes moved, and no
        remote quote can be cheaper than zero - so "prefer local when
        cheapest" reduces to: run here when everything is resident,
        delegate to the cheapest peer otherwise.  (A node cannot *pull*
        data, so an incomplete local footprint is not a candidate.)
        """
        fp = transitive_footprint(self.repo, encode)
        local = self.runtime.holdings()
        if fp.data <= local.keys():
            return self.runtime.eval(encode)
        candidates = self._candidates()
        if not candidates:
            raise MissingObjectError(encode, self.name)
        return self.delegate(
            self._quote_peers(fp, local, candidates).candidate, encode
        )

    # ------------------------------------------------------------------
    # Fan-out: many delegations in flight at once

    def scatter(self, encodes: Sequence[Handle]) -> List[Delegation]:
        """Quote and dispatch every encode without waiting for replies.

        Each dispatch raises ``outstanding`` before the next quote runs,
        so equal-priced candidates spread round-robin across peers
        instead of piling onto the first name - the load tiebreak doing
        real work.  Returns the futures in input order.

        The local inventory is snapshotted once for the whole batch
        (replies absorbed mid-dispatch could only *add* holdings, and a
        conservative snapshot merely re-prices - staleness costs
        redundancy, never correctness); each footprint is computed once
        and shared between the quote and the dispatch.
        """
        candidates = self._candidates()
        if not candidates:
            raise NetworkError(f"{self.name}: no peers to delegate to")
        local = self.runtime.holdings()
        futures: List[Delegation] = []
        for encode in encodes:
            fp = transitive_footprint(self.repo, encode)
            quote = self._quote_peers(fp, local, candidates)
            futures.append(self._dispatch(quote.candidate, encode, fp))
        return futures

    def eval_many(self, encodes: Sequence[Handle]) -> List[Handle]:
        """Evaluate a batch, overlapping remote work with local work.

        Per-encode placement follows :meth:`eval_anywhere`: a complete
        local footprint runs here, anything else is dispatched
        asynchronously to the cheapest peer.  All remote dispatches
        happen *first*, so their wire time and peer-side evaluation
        overlap the local evaluations that follow; results return in
        input order.  The first failed delegation raises.

        As in :meth:`scatter`, the local inventory is snapshotted once:
        a reply absorbed mid-dispatch can only add holdings, so the
        snapshot at worst delegates work that just became local - a
        redundant transfer, never a wrong result.
        """
        remote: List[Tuple[int, Delegation]] = []
        local_work: List[Tuple[int, Handle]] = []
        results: Dict[int, Handle] = {}
        local = self.runtime.holdings()
        candidates = self._candidates()
        for index, encode in enumerate(encodes):
            fp = transitive_footprint(self.repo, encode)
            if fp.data <= local.keys():
                local_work.append((index, encode))
            elif not candidates:
                raise MissingObjectError(encode, self.name)
            else:
                quote = self._quote_peers(fp, local, candidates)
                remote.append(
                    (index, self._dispatch(quote.candidate, encode, fp))
                )
        for index, encode in local_work:
            results[index] = self.runtime.eval(encode)
        for index, future in remote:
            results[index] = future.result()
        return [results[index] for index in range(len(encodes))]

    def retry_elsewhere(self, failed: Delegation) -> Delegation:
        """Re-quote and re-dispatch a failed delegation on the survivors.

        The lost-work half of failure handling: the failure detector
        only *discovers* a death - work that was in flight toward the
        dead peer still failed with :class:`NetworkError`, and the
        caller holds a dead future.  This closes the loop.  The failed
        peer is reported suspected (first-hand transport evidence beats
        waiting out a silence timeout), its name is excluded from the
        fresh quote even before the tombstone lands, and the encode is
        re-priced across the remaining candidates through the same cost
        model as any first dispatch - re-delegation is not a special
        placement policy.

        The caller decides *when* to retry (the failed future must be
        settled; its rollback already freed the optimistic view advance,
        so the new quote prices shipping honestly).  Raises
        :class:`NetworkError` when no candidate survives.
        """
        if not failed.done:
            raise NetworkError(
                f"{self.name}: cannot retry a delegation to "
                f"{failed.peer!r} that is still in flight"
            )
        self.membership.suspect(failed.peer)
        candidates = [
            peer for peer in self._candidates() if peer != failed.peer
        ]
        if not candidates:
            raise NetworkError(
                f"{self.name}: no surviving peers to retry the "
                f"delegation that died on {failed.peer!r}"
            )
        fp = transitive_footprint(self.repo, failed.encode)
        quote = self._quote_peers(
            fp, self.runtime.holdings(), candidates
        )
        self._m_retries.inc(peer=failed.peer, target=quote.candidate)
        return self._dispatch(quote.candidate, failed.encode, fp)
