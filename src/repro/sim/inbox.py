"""Round inboxes: the delivery rule of Phase B and the shared tally.

In Phase B of a round (Section 3.1) every participant broadcasts once,
and the fault model decides, per sender, which receivers miss that
sender's message (the round's ``withheld`` map).  Most receivers of a
round therefore see exactly the same messages: under crash faults only
the recipients a crashing sender skipped differ, and those usually
miss the same senders.  :func:`deliver` turns ``withheld`` once into
each receiver's set of missed senders and gives every receiver with
the same set one shared, read-only :class:`Inbox`.

An :class:`Inbox` offers a tally — each distinct payload mapped to its
``(count, lowest sender)`` — computed on first use, so a shared inbox
is counted once per round instead of once per receiver.  Protocols
read it through :func:`tally`, which also counts a plain mapping
directly (tests and direct callers pass dicts).
"""

from __future__ import annotations

import types
from collections import Counter
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["Inbox", "Tally", "deliver", "tally"]

#: Distinct payload -> ``(count, lowest sender)``, in first-seen order.
Tally = Mapping[Any, Tuple[int, int]]


def _count(messages: Mapping[int, Any]) -> Tally:
    """The read-only tally of ``messages`` (sender -> payload)."""
    counts = Counter(messages.values())
    # Senders in descending order: each payload's last write, the one
    # that stays, is its lowest sender.
    senders = sorted(messages, reverse=True)
    lowest = dict(zip(map(messages.__getitem__, senders), senders))
    return types.MappingProxyType(
        {payload: (count, lowest[payload]) for payload, count in counts.items()}
    )


class Inbox(Mapping[int, Any]):
    """One receiver's round messages: sender pid -> payload.

    Senders are in ascending order.  The inbox is read-only — item
    assignment raises ``TypeError`` — because :func:`deliver` hands the
    same object to every receiver that got the same messages.  Read
    its tally with :func:`tally`.
    """

    __slots__ = ("_messages", "_tally")

    def __init__(self, messages: Dict[int, Any]) -> None:
        self._messages = messages
        self._tally: Optional[Tally] = None

    def __getitem__(self, sender: int) -> Any:
        return self._messages[sender]

    def __iter__(self) -> Iterator[int]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __repr__(self) -> str:
        return f"Inbox({self._messages!r})"


def tally(inbox: Mapping[int, Any]) -> Tally:
    """Each distinct payload of ``inbox`` -> ``(count, lowest sender)``.

    Payloads appear in the order they are first seen, so reading the
    tally in order meets payloads in sender order.  An :class:`Inbox`
    computes its tally on first use and hands every later caller the
    same read-only mapping; any other mapping is counted directly.
    Payloads must be hashable.
    """
    if type(inbox) is Inbox:
        if inbox._tally is None:
            inbox._tally = _count(inbox._messages)
        return inbox._tally
    return _count(inbox)


def deliver(
    payloads: Mapping[int, Any],
    withheld: Mapping[int, AbstractSet[int]],
    receivers: Sequence[int],
) -> Dict[int, Inbox]:
    """Each receiver's inbox for one round.

    Args:
        payloads: Sender -> payload for every participant, in ascending
            sender order.
        withheld: Sender -> receivers that miss its message, as a fault
            model's ``withheld`` returns it.  Entries for non-senders
            are ignored, and a receiver never misses its own message.
        receivers: The pids that run ``receive`` this round.

    Receivers that miss the same senders share one :class:`Inbox`;
    receivers that miss nothing share the round's full one.
    """
    # Senders grouped by the receivers they skip (never themselves).
    by_skipped: Dict[FrozenSet[int], List[int]] = {}
    for sender, skipped in withheld.items():
        if sender in payloads:
            skipped = frozenset(skipped).difference((sender,))
            if skipped:
                by_skipped.setdefault(skipped, []).append(sender)
    # Refine one partition of the receivers, keyed by missed senders,
    # with each group of senders in turn.  A step adds only its own
    # senders to a missed set, so the refined keys never collide.
    groups: Dict[FrozenSet[int], Set[int]] = {frozenset(): set(receivers)}
    for skipped, senders in by_skipped.items():
        refined: Dict[FrozenSet[int], Set[int]] = {}
        for missed, members in groups.items():
            hit = members.intersection(skipped)
            if hit:
                refined[missed.union(senders)] = hit
                members -= hit
            if members:
                refined[missed] = members
        groups = refined
    inboxes: Dict[int, Inbox] = {}
    for missed, members in groups.items():
        inbox = Inbox(
            {s: p for s, p in payloads.items() if s not in missed}
            if missed
            else dict(payloads)
        )
        inboxes.update(dict.fromkeys(members, inbox))
    return inboxes
