"""The replica automaton: local append and parent-buffered delivery.

Each replica owns a local command DAG and derives its visible history by
running the reconciliation function over it.  Appends are wait-free: the
enabledness check, vertex creation and history update touch only local
state; dissemination is handed to the broadcast layer.  Delivered vertices
whose parents have not arrived yet are parked until they have.

The history is kept up to date by a reconciler session
(`reconcile.open_session`): each inserted vertex is handed to the session,
which updates the history and reports the first position that changed.
Data-type states are kept on a stack of (k, state after the first k
history commands), k rising.  A replay resumes from the top entry and
pushes the state it reaches; a change pops the entries past the position
it reports.  `history_delta` reports the history as a change against the
previous report; its search for their longest common prefix starts at
the lowest position changed since then.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

from .broadcast import BroadcastMessage
from .dag import Command, CommandDag
from .datatype import BOTTOM, DataTypeSpec, replay
from .reconcile import open_session

_uid = attrgetter("issuer", "seq")


class InvariantViolation(Exception):
    pass


class Replica:
    def __init__(self, rid: int, spec: DataTypeSpec, recon,
                 broadcast=None, on_insert=None):
        self.id = rid
        self.spec = spec
        self.recon = recon
        self.dag = CommandDag()
        self.next_seq = 1
        # missing parent -> list of parked BroadcastMessages
        self.pending = {}
        self._broadcast = broadcast if broadcast else (lambda msg: None)
        self._on_insert = on_insert
        self._session = open_session(recon, self.dag)
        # (k, state after the first k commands), k rising; every entry
        # describes the current history
        self._kept = [(0, spec.initial_state)]
        # the history at the last history_delta call, and the lowest
        # position changed since then
        self._reported = self.history
        self._low = 0

    @property
    def history(self):
        """The current history; a list once returned is never mutated."""
        return self._session.history

    def append(self, op):
        """Issue `op` locally; returns its response, or BOTTOM untouched.

        The enabledness check runs `op` on the state after the current
        history.  On success the new vertex hangs off the current leaves,
        the history is updated, the vertex is broadcast, and the response
        is the one the command has in the post-insertion history.  Both
        states are replayed from the top kept state below them.
        """
        state, _ = self._replay_to(len(self.history))
        _, resp = self.spec.step(state, op)
        if resp == BOTTOM:
            return BOTTOM
        parents = self.dag.leaves()
        v = Command(op, self.id, self.next_seq)
        self.next_seq += 1
        self._insert(v, parents)
        self._broadcast(BroadcastMessage(v, parents))
        # under bfs and fair a vertex below every leaf is last; lifo puts
        # it first
        h = self.history
        pos = len(h) - 1 if h[-1] is v else h.index(v)
        _, responses = self._replay_to(pos + 1)
        return responses[-1]

    def history_delta(self):
        """(keep, added): the length of the longest common prefix of the
        current history with the history at the previous call (or the
        empty one), and the commands after that prefix."""
        old, new = self._reported, self.history
        keep = min(self._low, len(old))
        # positions below _low are unchanged, so the same objects
        while keep < len(old) and old[keep] is new[keep]:
            keep += 1
        self._reported, self._low = new, len(new)
        return keep, new[keep:]

    def on_deliver(self, msg: BroadcastMessage):
        """Handle an r-delivered vertex, parking it if parents are missing."""
        if msg.vertex in self.dag:
            raise InvariantViolation(
                "duplicate delivery reached replica %d: %r"
                % (self.id, msg.vertex))
        missing = self._missing_parent(msg.parents)
        if missing is not None:
            self.pending.setdefault(missing, []).append(msg)
            return
        queue = deque([msg])
        while queue:
            m = queue.popleft()
            self._insert(m.vertex, m.parents)
            for parked in self.pending.pop(m.vertex, []):
                still_missing = self._missing_parent(parked.parents)
                if still_missing is None:
                    queue.append(parked)
                else:
                    self.pending.setdefault(still_missing, []).append(parked)

    def _missing_parent(self, parents):
        """The missing parent with the least uid, or None; the first one
        found would follow the hash seed, and so would the trace."""
        missing = [p for p in parents if p not in self.dag]
        return min(missing, key=_uid) if missing else None

    def _insert(self, v: Command, parents):
        chain = self.dag.chains().get(v.issuer)
        last = chain[-1].seq if chain else 0
        if v.seq != last + 1:
            raise InvariantViolation(
                "sequence gap at replica %d: inserting %r after seq %d"
                % (self.id, v, last))
        self.dag.insert(v, parents)
        self._changed_from(self._session.insert(v))
        if self._on_insert:
            self._on_insert(v, parents)

    def _changed_from(self, pos):
        """Drop the kept states past `pos`, where the history changed."""
        self._low = min(self._low, pos)
        while self._kept[-1][0] > pos:
            self._kept.pop()

    def _replay_to(self, pos):
        """State after the first `pos` history commands, and the responses
        of the commands replayed from the top kept state to get it."""
        kept = self._kept
        while kept[-1][0] > pos:
            kept.pop()
        k, state = kept[-1]
        state, responses = replay(self.spec, self._session.history[k:pos],
                                  state)
        if k < pos:
            kept.append((pos, state))
        return state, responses
