"""The replica automaton: local append and parent-buffered delivery.

Each replica owns a local command DAG and derives its visible history by
running the reconciliation function over it.  Appends are wait-free: the
enabledness check, vertex creation and history update touch only local
state; dissemination is handed to the broadcast layer.  Delivered vertices
whose parents have not arrived yet are parked until they have.

The history is kept up to date by a reconciler session
(`reconcile.open_session`): each inserted vertex is handed to the session,
which updates the history and reports the first position that changed.
Data-type states are cached every `_STRIDE` positions plus at the furthest
position replayed, and a replay resumes from the nearest cached state at or
before that position instead of from the initial state.  `history_delta`
reports the history as a change against the previous report; its search
for their longest common prefix starts at the lowest position changed
since then.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

from .broadcast import BroadcastMessage
from .dag import Command, CommandDag, EPSILON
from .datatype import BOTTOM, DataTypeSpec, replay
from .reconcile import open_session

# Positions between cached data-type states.  One state per position makes
# a long intlog run's memory quadratic in its length; a stride bounds the
# replay after a change to this many steps plus the changed suffix.
_STRIDE = 16

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
        # _states[i] is the state after the first i * _STRIDE commands;
        # _tip the furthest (position, state) replayed.  Both always
        # describe the current history.
        self._states = [spec.initial_state]
        self._tip = (0, spec.initial_state)
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
        states are replayed from the nearest cached state.
        """
        state, _ = self._replay_to(len(self.history))
        _, resp = self.spec.apply(state, op)
        if resp == BOTTOM:
            return BOTTOM
        parents = self.dag.leaves()
        v = Command(op, self.id, self.next_seq)
        self.next_seq += 1
        self._insert(v, parents)
        self._broadcast(BroadcastMessage(v, frozenset(parents)))
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
        missing = [p for p in parents
                   if p is not EPSILON and p not in self.dag]
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
        """Drop the cached states past `pos`, where the history changed."""
        self._low = min(self._low, pos)
        del self._states[pos // _STRIDE + 1:]
        if self._tip[0] > pos:
            self._tip = ((len(self._states) - 1) * _STRIDE, self._states[-1])

    def _replay_to(self, pos):
        """State after the first `pos` history commands, and the responses
        of the commands replayed from the nearest cached state to get it."""
        k, state = self._tip
        if pos < k:
            k = pos - pos % _STRIDE
            state = self._states[k // _STRIDE]
        responses = []
        while k < pos:
            end = min(pos, k - k % _STRIDE + _STRIDE)
            state, done = replay(self.spec, self._session.history[k:end],
                                 state)
            responses += done
            k = end
            if k == len(self._states) * _STRIDE:
                self._states.append(state)
        if k >= self._tip[0]:
            self._tip = (k, state)
        return state, responses
