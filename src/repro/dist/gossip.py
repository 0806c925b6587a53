"""Epidemic anti-entropy over :class:`~repro.dist.objectview.ObjectView`s.

The paper's inventory handshake (4.2.2) keeps placement beliefs fresh,
but run all-pairs it is O(n^2) handshakes, each re-shipping full state.
Here every round each view push-pulls a digest+delta handshake with
``fanout`` random peers, so news doubles its audience roughly every
round and the group converges in O(log n) rounds shipping O(delta)
bytes per handshake.  Rounds are seeded: the same seed replays the same
peer schedule, which keeps convergence assertions deterministic.

**One handshake, two drivers.**  The handshake is a sans-I/O core of
four steps, each a function of an :class:`ObjectView`, an optional
:class:`~repro.dist.membership.MembershipView` and one in-memory
message: :func:`syn` makes a :class:`Syn` (digest, members),
:func:`answer` an :class:`Ack` (digest, delta, members), :func:`close`
a :class:`Push` (delta), and :func:`absorb` applies the push.
:class:`GossipCoordinator` - the simulated platform's and the
benchmarks' driver - passes the messages in-process;
:class:`~repro.fixpoint.net.FixpointNode` packs them into its
SYN/ACK/PUSH frames.  When to beat and when to restamp a node's own
holdings stays with each driver.  The ordering rules live here only:

1. *Liveness merges before inventory, on both sides.*  A tombstone
   evicts ahead of the stale entries it shadows, and a rejoin lifts
   the eviction gate ahead of the returning node's fresh entries;
   inventory-first would drop those entries while the version caps
   advanced past them, losing them for good.
2. *The caller computes its PUSH delta before merging the ACK's
   members.*  If the ACK brings home the caller's own tombstone, the
   merge refutes it (incarnation bump, epoch restamp), and the
   restamped entries must not ride a members-free PUSH into a peer
   that still believes the caller dead.  They go out next round,
   behind the SYN that carries the refutation.  (The ACK carries the
   server's post-merge members, so its refutations arrive first.)
3. *One view's lock at a time, never two*, so concurrent handshakes
   in either direction cannot deadlock.

The digest and delta wire codec (:func:`pack_digest`, :func:`pack_delta`
and their unpack twins) is what the net driver's frames carry;
``Digest.wire_bytes``/``Delta.wire_bytes`` account for exactly this
encoding, and truncated input raises :class:`GossipError` naming the
offset.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import FixError
from ..obs import NULL_OBS, Obs
from .membership import Member, MembershipView, members_wire_bytes
from .objectview import Delta, Digest, EMPTY_DIGEST, Entry, ObjectView

_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<H")
_U64 = struct.Struct("<Q")

_NAME_STR = b"\x00"
_NAME_BYTES = b"\x01"
_NO_SIZE = b"\x00"
_HAS_SIZE = b"\x01"


class GossipError(FixError):
    """Anti-entropy failures (round budget exhausted, bad wire frames)."""


# ----------------------------------------------------------------------
# Wire codec (shared with repro.fixpoint.net's GOSSIP frames)


def _truncated(raw: bytes, offset: int, detail: object) -> GossipError:
    where = f"offset {offset} of {len(raw)}"
    return GossipError(f"truncated gossip frame at {where}: {detail}")


# Unpackers slice variable-length fields unchecked: a slice cut short by
# the frame's end is always followed by a struct read or the size-flag
# check, which fails before anything is decoded or stored.


def pack_digest(digest: Digest) -> bytes:
    parts = [_COUNT.pack(len(digest.versions))]
    for origin in sorted(digest.versions):
        raw = origin.encode("utf-8")
        parts.append(_LEN.pack(len(raw)) + raw + _U64.pack(digest.versions[origin]))
    return b"".join(parts)


def unpack_digest(raw: bytes, offset: int = 0) -> Tuple[Digest, int]:
    versions: Dict[str, int] = {}
    try:
        (count,) = _COUNT.unpack_from(raw, offset)
        offset += _COUNT.size
        for _ in range(count):
            (length,) = _LEN.unpack_from(raw, offset)
            origin = raw[offset + _LEN.size : offset + _LEN.size + length]
            offset += _LEN.size + length
            (version,) = _U64.unpack_from(raw, offset)
            offset += _U64.size
            versions[origin.decode("utf-8")] = version
    except struct.error as exc:
        raise _truncated(raw, offset, exc) from None
    return Digest(versions), offset


def _pack_name(name) -> bytes:
    if isinstance(name, bytes):
        return _NAME_BYTES + _LEN.pack(len(name)) + name
    if isinstance(name, str):
        raw = name.encode("utf-8")
        return _NAME_STR + _LEN.pack(len(raw)) + raw
    raise GossipError(
        f"cannot serialize object name of type {type(name).__name__!r} "
        "(wire gossip carries str or bytes names)"
    )


def _unpack_name(tag: bytes, body: bytes):
    if tag == _NAME_BYTES:
        return body
    if tag == _NAME_STR:
        return body.decode("utf-8")
    raise GossipError(f"bad name tag byte {tag!r} in gossip delta")


def pack_delta(delta: Delta) -> bytes:
    parts = [pack_digest(Digest(delta.versions)), _COUNT.pack(len(delta.entries))]
    for origin, version, name, location, size in delta.entries:
        origin_raw = origin.encode("utf-8")
        location_raw = location.encode("utf-8")
        parts.append(_LEN.pack(len(origin_raw)) + origin_raw + _U64.pack(version))
        parts.append(_pack_name(name))
        parts.append(_LEN.pack(len(location_raw)) + location_raw)
        if size is None:
            parts.append(_NO_SIZE)
        else:
            parts.append(_HAS_SIZE + _U64.pack(size))
    return b"".join(parts)


def unpack_delta(raw: bytes, offset: int = 0) -> Tuple[Delta, int]:
    caps, offset = unpack_digest(raw, offset)
    entries: List[Entry] = []
    try:
        (count,) = _COUNT.unpack_from(raw, offset)
        offset += _COUNT.size
        for _ in range(count):
            (length,) = _LEN.unpack_from(raw, offset)
            offset += _LEN.size + length
            origin = raw[offset - length : offset]
            (version,) = _U64.unpack_from(raw, offset)
            tag = raw[offset + _U64.size : offset + _U64.size + 1]
            offset += _U64.size + 1
            (length,) = _LEN.unpack_from(raw, offset)
            offset += _LEN.size + length
            name = raw[offset - length : offset]
            (length,) = _LEN.unpack_from(raw, offset)
            offset += _LEN.size + length
            location = raw[offset - length : offset]
            flag = raw[offset : offset + 1]
            offset += 1
            size: Optional[int] = None
            if flag == _HAS_SIZE:
                (size,) = _U64.unpack_from(raw, offset)
                offset += _U64.size
            elif flag != _NO_SIZE:
                if not flag:
                    raise _truncated(raw, offset - 1, "size flag")
                raise GossipError(f"bad size flag byte {flag!r} in gossip delta")
            name = _unpack_name(tag, name)
            entries.append(
                (origin.decode("utf-8"), version, name, location.decode("utf-8"), size)
            )
    except struct.error as exc:
        raise _truncated(raw, offset, exc) from None
    return Delta(tuple(entries), dict(caps.versions)), offset


# ----------------------------------------------------------------------
# The handshake core (its ordering rules are in the module docstring)


@dataclass(frozen=True)
class Syn:
    digest: Digest
    members: Tuple[Member, ...] = ()


@dataclass(frozen=True)
class Ack:
    digest: Digest
    delta: Delta  # what the caller lacks
    members: Tuple[Member, ...] = ()  # after merging the caller's


@dataclass(frozen=True)
class Push:
    delta: Delta  # what the server lacks


def syn(view: ObjectView, membership: Optional[MembershipView] = None) -> Syn:
    """Caller, step 1."""
    return Syn(view.digest(), membership.members() if membership is not None else ())


def answer(view: ObjectView, membership: Optional[MembershipView],
           message: Syn, full_state: bool = False) -> Ack:
    """Server, step 2.  ``full_state`` is the ablation: the caller's
    digest is treated as empty, so the delta is the whole view."""
    members: Tuple[Member, ...] = ()
    if membership is not None:
        membership.merge(message.members)
        members = membership.members()
    delta = view.delta_since(EMPTY_DIGEST if full_state else message.digest)
    return Ack(view.digest(), delta, members)


def close(view: ObjectView, membership: Optional[MembershipView],
          message: Ack, full_state: bool = False) -> Push:
    """Caller, step 3 (``full_state`` as in :func:`answer`)."""
    delta = view.delta_since(EMPTY_DIGEST if full_state else message.digest)
    if membership is not None:
        membership.merge(message.members)
    view.merge_delta(message.delta)
    return Push(delta)


def absorb(view: ObjectView, message: Push) -> int:
    """Server, step 4; returns the entries applied."""
    return view.merge_delta(message.delta)


# ----------------------------------------------------------------------
# The round driver


@dataclass(frozen=True)
class GossipConfig:
    """Knobs for wiring gossip into a platform (see FixpointSim).

    ``startup_rounds`` run when a graph's initial placements register;
    ``rounds_per_output`` run each time an output materializes - the
    aging knob: 0 freezes the scheduler's beliefs at startup, more keeps
    them fresher at more traffic.  ``membership=True`` gives every
    participant a failure detector that confirms silent nodes dead after
    ``suspect_after`` + ``confirm_after`` observed rounds, evicting their
    holdings from its view and taking them out of placement.
    """

    fanout: int = 1
    startup_rounds: int = 2
    rounds_per_output: int = 1
    seed: int = 0
    membership: bool = False
    suspect_after: int = 4
    confirm_after: int = 4


@dataclass(frozen=True)
class RoundStats:
    """Per-round accounting: who exchanged, and what it cost."""

    index: int
    pairs: Tuple[Tuple[str, str], ...]
    digest_bytes: int
    delta_bytes: int
    entries_shipped: int
    #: The SYN's and ACK's membership maps (0 with membership off).
    membership_bytes: int = 0

    @property
    def bytes_shipped(self) -> int:
        return self.digest_bytes + self.delta_bytes + self.membership_bytes


class GossipCoordinator:
    """Seeded random-peer anti-entropy rounds over a set of views.

    One round: every participating view (in registration order) runs
    the handshake core, in-process, with ``fanout`` uniformly random
    other participants.  ``full_state=True`` is the ablation that treats
    every peer's digest as empty, re-shipping both full states each
    handshake, kept so the benchmark can price the difference.

    The coordinator is a driver, not a lock: views guard themselves, so
    rounds may run concurrently with live traffic mutating the views.
    """

    def __init__(
        self,
        views: Iterable[ObjectView],
        fanout: int = 1,
        seed: int = 0,
        full_state: bool = False,
        obs: Obs = NULL_OBS,
        membership: bool = False,
        suspect_after: int = 4,
        confirm_after: int = 4,
    ):
        self._views: List[ObjectView] = list(views)
        if fanout < 1:
            raise GossipError("gossip fanout must be at least 1")
        self.fanout = fanout
        self.full_state = full_state
        self.rng = random.Random(seed)
        self.rounds: List[RoundStats] = []
        #: Ground-truth dead set (:meth:`kill`): survivors' detectors
        #: must notice the silence; nothing here tells them.
        self._dead: Set[str] = set()
        #: One failure detector per participant; its tombstones evict
        #: from its *own* view - beliefs die per-observer, epidemically.
        self._suspect_after = suspect_after
        self._confirm_after = confirm_after
        self._membership: Dict[str, MembershipView] = {}
        if membership:
            for view in self._views:
                self._enroll(view)
        #: The simulated platform passes its sim-clocked obs, so these
        #: counters land in the scheduler's (replayable) export.
        self.obs = obs
        self._m_rounds = obs.registry.counter(
            "gossip_coordinator_rounds_total", "Epidemic rounds driven"
        )
        self._m_exchanges = obs.registry.counter(
            "gossip_coordinator_exchanges_total",
            "Pairwise handshakes across all rounds",
        )
        self._m_bytes = obs.registry.counter(
            "gossip_coordinator_bytes_total",
            "Handshake bytes by kind (digest vs delta)",
        )
        self._m_entries = obs.registry.counter(
            "gossip_coordinator_entries_total", "Delta entries shipped"
        )
        self._m_convergence = obs.registry.histogram(
            "gossip_convergence_rounds",
            "Rounds a run() needed to converge every view",
            buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                     32.0, 48.0, 64.0),
        )

    def add_view(self, view: ObjectView) -> None:
        """Late joiners participate from the next round on."""
        self._views.append(view)
        if self._membership:
            self._enroll(view)

    # ------------------------------------------------------------------
    # Liveness

    def _enroll(self, view: ObjectView, incarnation: int = 1) -> None:
        self._membership[view.node] = MembershipView(
            view.node,
            suspect_after=self._suspect_after,
            confirm_after=self._confirm_after,
            on_dead=view.evict,
            on_rejoin=view.readmit,
            on_refute=view.advance_epoch,
            incarnation=incarnation,
        )

    @property
    def membership_enabled(self) -> bool:
        return bool(self._membership)

    def membership_view(self, node: str) -> MembershipView:
        """The failure detector paired with ``node``'s ObjectView."""
        return self._membership[node]

    def kill(self, node: str) -> None:
        """Ground truth: ``node`` crashes *now*: it stops gossiping and
        beating, and survivors must detect, spread the tombstone, and
        evict (the gap ``bench_churn.py`` measures)."""
        self._dead.add(node)

    def restart(self, node: str, clock=None) -> ObjectView:
        """The killed ``node`` reboots, one incarnation up.

        State did not survive the crash: a fresh ObjectView at ``epoch =
        incarnation + 1`` and a fresh detector asserting ``ALIVE`` at
        that incarnation, which outranks every survivor's tombstone - so
        ordinary gossip readmits the node and merges its fresh-origin
        beliefs, while replays of its first life still apply 0 entries.
        Returns the fresh view so the experiment can seed its holdings.
        """
        if node not in self._dead:
            raise GossipError(f"cannot restart {node!r}: it was never killed")
        index = next(
            (i for i, v in enumerate(self._views) if v.node == node), None
        )
        if index is None:
            raise GossipError(f"cannot restart unknown node {node!r}")
        # One past the dead view's epoch, which tracks its incarnation
        # through any refutations it made before it died.
        incarnation = self._views[index].epoch + 1
        fresh = ObjectView(node, clock=clock, epoch=incarnation)
        self._views[index] = fresh
        self._dead.discard(node)
        if self._membership:
            self._enroll(fresh, incarnation=incarnation)
        return fresh

    def declared_dead(self, node: str) -> Set[str]:
        """Which participants have tombstoned ``node`` so far."""
        return {
            observer
            for observer, membership in self._membership.items()
            if observer not in self._dead and membership.is_dead(node)
        }

    def readmitted(self, node: str) -> Set[str]:
        """Which survivors believe ``node`` alive *at its current
        incarnation* - i.e. have merged the rejoin, not merely never
        heard of the death."""
        current = self._membership[node].incarnation() if self._membership else 1
        return {
            observer
            for observer, membership in self._membership.items()
            if observer not in self._dead
            and observer != node
            and not membership.is_dead(node)
            and membership.incarnation(node) >= current
        }

    # ------------------------------------------------------------------

    def round(self, participants: Optional[Set[str]] = None) -> RoundStats:
        """Run one gossip round; returns its accounting.

        ``participants`` (node names) restricts who takes part - the
        staleness experiments exclude a view from k rounds and measure
        how much worse its placements price.
        """
        active = [
            v for v in self._views
            if (participants is None or v.node in participants)
            and v.node not in self._dead
        ]
        detectors = [self._membership[v.node] for v in active if self._membership]
        for detector in detectors:  # a killed node's heartbeat just stops
            detector.beat()
        pairs: List[Tuple[str, str]] = []
        digest_bytes = delta_bytes = entries = membership_bytes = 0
        for view in active:
            peers = [p for p in active if p is not view]
            if not peers:
                continue
            chosen = self.rng.sample(peers, min(self.fanout, len(peers)))
            mine = self._membership.get(view.node)
            for peer in chosen:
                theirs = self._membership.get(peer.node)
                hello = syn(view, mine)
                ack = answer(peer, theirs, hello, self.full_state)
                push = close(view, mine, ack, self.full_state)
                absorb(peer, push)
                pairs.append((view.node, peer.node))
                if not self.full_state:  # the ablation ships no digests
                    digest_bytes += hello.digest.wire_bytes()
                    digest_bytes += ack.digest.wire_bytes()
                delta_bytes += ack.delta.wire_bytes() + push.delta.wire_bytes()
                entries += len(ack.delta) + len(push.delta)
                if mine is not None:
                    membership_bytes += members_wire_bytes(hello.members)
                    membership_bytes += members_wire_bytes(ack.members)
        for detector in detectors:  # suspect -> confirm; on_dead evicts
            detector.tick()
        stats = RoundStats(
            len(self.rounds), tuple(pairs), digest_bytes, delta_bytes,
            entries, membership_bytes,
        )
        self.rounds.append(stats)
        self._m_rounds.inc()
        self._m_exchanges.inc(len(pairs))
        self._m_bytes.inc(digest_bytes, kind="digest")
        self._m_bytes.inc(delta_bytes, kind="delta")
        if membership_bytes:
            self._m_bytes.inc(membership_bytes, kind="membership")
        self._m_entries.inc(entries)
        return stats

    def run_rounds(
        self, count: int, participants: Optional[Set[str]] = None
    ) -> List[RoundStats]:
        """``count`` unconditional rounds (the platform's aging budget)."""
        return [self.round(participants) for _ in range(count)]

    def run(self, max_rounds: int = 64) -> int:
        """Gossip until every view agrees; returns rounds used.

        Raises :class:`GossipError` when the budget runs out first - a
        convergence *assertion*.  At most ``max_rounds`` rounds run
        (convergence is checked once more after the last one).
        """
        for used in range(max_rounds + 1):
            if self.converged():
                self._m_convergence.observe(float(used))
                return used
            if used < max_rounds:
                self.round()
        raise GossipError(
            f"gossip failed to converge within {max_rounds} rounds "
            f"({len(self._views)} views)"
        )

    # ------------------------------------------------------------------

    def converged(self) -> bool:
        """True when every *surviving* view's belief snapshot agrees
        (killed views are frozen at death)."""
        live = [v for v in self._views if v.node not in self._dead]
        if len(live) < 2:
            return True
        first = live[0].snapshot()
        return all(view.snapshot() == first for view in live[1:])

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_shipped for r in self.rounds)
