"""Eager reliable broadcast over point-to-point channels.

Tolerates any number of crash failures: on first receipt of a message a
replica forwards it to everyone else before delivering it locally, so if
any correct replica delivers, all of them eventually do.  A message is its
vertex: `(issuer, seq)` already names the origin, so duplicates are
suppressed per vertex at each replica.

The transport is injected and owns crashes: `send(src, dsts, msg)` is one
fan-out, a channel transmission from `src` to each replica of `dsts`, in
order (the simulator decides timing, partitions and what happens to
messages of a crashed replica, and never calls in on behalf of one), and
`deliver(replica_id, msg)` hands a deduplicated message up to the replica
automaton.
"""

from __future__ import annotations

from typing import NamedTuple

from .dag import Command


class BroadcastMessage(NamedTuple):
    vertex: Command
    parents: frozenset


class ReliableBroadcast:
    def __init__(self, replica_ids, send, deliver):
        ids = list(replica_ids)
        self._send = send
        self._deliver = deliver
        self._seen = {rid: set() for rid in ids}
        # rid -> every other replica, in id order: its fan-out
        self._others = {rid: [d for d in ids if d != rid] for rid in ids}

    def r_broadcast(self, sender, msg: BroadcastMessage):
        """Disseminate `msg` from `sender` to every other replica.

        The sender's own vertex is already in its DAG when this is called,
        which stands in for self-delivery.
        """
        self._seen[sender].add(msg.vertex)
        self._send(sender, self._others[sender], msg)

    def on_receive(self, rid, msg: BroadcastMessage):
        """Channel receipt at `rid`: dedup, forward-on-first, deliver."""
        if msg.vertex in self._seen[rid]:
            return
        self._seen[rid].add(msg.vertex)
        self._send(rid, self._others[rid], msg)
        self._deliver(rid, msg)
