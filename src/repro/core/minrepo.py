"""Minimum repositories (paper section 3.3).

The *minimum repository* of a Thunk is the bounded set of Fix data that
must be resident before its function starts, so the function can always
run to completion without blocking on I/O.  It is computed purely from the
Thunk's handle graph:

* data reachable through **Object** handles is included (recursively
  through Trees);
* **Refs** contribute only their metadata - the referent stays remote;
* bare **Thunks** contribute their describing Tree but nothing they would
  compute - they are somebody else's problem;
* **Encodes** are *pending work*: the runtime must evaluate them before
  the invocation, and their own minimum repositories are needed
  transitively.

A function may not change its own minimum repository, but it can create
child Thunks that grow it (by including an Encode) or shrink it (by
dropping entries) - the grow/shrink rules are checked by
:func:`check_derivation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set

from .handle import Handle, ThunkStyle
from .storage import Repository


@dataclass(frozen=True)
class Footprint:
    """The data footprint of evaluating a handle.

    ``data`` holds content keys of data that must be resident;
    ``pending`` holds Encode handles that must be evaluated first;
    ``data_bytes`` sums the handle-recorded sizes of ``data``.
    """

    data: FrozenSet[bytes]
    pending: FrozenSet[Handle]
    data_bytes: int

    def __contains__(self, handle: Handle) -> bool:
        return handle.content_key() in self.data

    def is_subset_of(self, other: "Footprint") -> bool:
        return self.data <= other.data


def footprint(repo: Repository, handle: Handle) -> Footprint:
    """Compute the minimum repository of ``handle``.

    Tolerates missing data: a referenced-but-absent datum is still counted
    in ``data`` (by content key) using the size recorded in its handle, so
    schedulers can cost placements before any transfer happens.
    """
    return _walk(repo, handle, expand=False)


def transitive_footprint(repo: Repository, handle: Handle) -> Footprint:
    """The closure of :func:`footprint` over pending Encodes.

    ``footprint`` treats an Encode entry as somebody else's problem -
    correct for placement costing, where the platform may evaluate it
    anywhere.  A *delegatee* asked to evaluate the whole object, however,
    needs everything required to evaluate every nested Encode as well:
    the same walk, with each pending Encode expanded where it is found.
    """
    return _walk(repo, handle, expand=True)


def _walk(repo: Repository, handle: Handle, expand: bool) -> Footprint:
    """The footprint walk.  ``subject`` is True only along the spine
    being evaluated: paper fig. 2, a bare Thunk handed to a child
    *excludes* its definition from the minimum repository; only the
    thunk actually being evaluated needs its definition resident.  With
    ``expand``, every pending Encode is the subject of its own
    evaluation, walked once against the same ``data`` set."""
    data: Set[bytes] = set()
    pending: Set[Handle] = set()
    total = 0
    stack = [(handle, True)]
    while stack:
        h, subject = stack.pop()
        if h.is_encode:
            if h not in pending:
                pending.add(h)
                if subject or expand:
                    stack.append((h.unwrap_encode(), True))
            continue
        if h.thunk_style is not ThunkStyle.NONE:
            if subject:
                stack.append((h.definition(), False))
            continue
        if h.is_ref or h.is_literal:
            continue  # metadata only / the payload rides inside the handle
        key = h.content_key()
        if key in data:
            continue
        data.add(key)
        total += h.byte_size()
        if h.is_tree and repo.contains(h):
            stack.extend((child, False) for child in repo.get_tree(h))
    return Footprint(frozenset(data), frozenset(pending), total)


def check_derivation(
    repo: Repository,
    parent: Footprint,
    child: Handle,
    created: FrozenSet[bytes] = frozenset(),
) -> bool:
    """Validate the grow/shrink rules for a child Thunk.

    Every datum in the child's minimum repository must come from the
    parent's repository, from data the parent created (``created``), or be
    the (future) result of an Encode the child includes.  Returns True when
    the derivation is legal.
    """
    child_fp = footprint(repo, child)
    allowed = set(parent.data) | set(created)
    if child.thunk_style is not ThunkStyle.NONE:
        # The describing Tree of the child thunk is necessarily new data
        # the parent just built; it is always legal.
        allowed.add(child.definition().content_key())
    return child_fp.data <= allowed
