"""Eager reliable broadcast over point-to-point channels.

Tolerates any number of crash failures: on first receipt of a message a
replica forwards it to everyone else before delivering it locally, so if
any correct replica delivers, all of them eventually do.  A message is its
vertex: `(issuer, seq)` already names the origin, so duplicates are
suppressed per vertex at each replica.

The transport is injected and owns crashes: `send(src, dst, msg)` enqueues
a channel transmission (the simulator decides timing, partitions and what
happens to messages of a crashed replica, and never calls in on behalf of
one), and `deliver(replica_id, msg)` hands a deduplicated message up to
the replica automaton.
"""

from __future__ import annotations

from typing import NamedTuple

from .dag import Command


class BroadcastMessage(NamedTuple):
    vertex: Command
    parents: frozenset


class ReliableBroadcast:
    def __init__(self, replica_ids, send, deliver):
        self._ids = list(replica_ids)
        self._send = send
        self._deliver = deliver
        self._seen = {rid: set() for rid in self._ids}

    def r_broadcast(self, sender, msg: BroadcastMessage):
        """Disseminate `msg` from `sender` to every other replica.

        The sender's own vertex is already in its DAG when this is called,
        which stands in for self-delivery.
        """
        self._seen[sender].add(msg.vertex)
        for dst in self._ids:
            if dst != sender:
                self._send(sender, dst, msg)

    def on_receive(self, rid, msg: BroadcastMessage):
        """Channel receipt at `rid`: dedup, forward-on-first, deliver."""
        if msg.vertex in self._seen[rid]:
            return
        self._seen[rid].add(msg.vertex)
        for dst in self._ids:
            if dst != rid:
                self._send(rid, dst, msg)
        self._deliver(rid, msg)
