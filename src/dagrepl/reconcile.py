"""Reconciliation functions: total orders over a command DAG.

A reconciliation function maps a DAG to a history containing exactly its
commands (RF-Totality).  Three instances:

* f_bfs  -- commands grouped by ascending greatest distance from the root,
            each distance level sorted by issuer id.  Yields a growing
            stable prefix.
* f_fair -- round-robin leader selection: repeatedly pick the next issuer
            owning a vertex whose causal past covers everything ordered so
            far, and append that vertex's remaining past in topological
            order.  Yields a stable prefix that is additionally fair.
            `fair_leaders` is the leader scan alone, which the trace
            checker shares to verify a history without expanding batches.
* f_lifo -- newest-first by local insertion order.  Deliberately unstable;
            negative baseline only.

A replica does not rerun its reconciler on every change.  It opens a
session, `open_session(recon, dag)`, over its DAG.  After each
`dag.insert(v)` it calls `session.insert(v)`, which brings
`session.history` up to date and returns the first position that changed.
`session.history` is a fresh list after every insert; a list once handed
out is never mutated.

* f_bfs.session places v by `bisect` on its immutable `level_key`.
* f_fair.session resumes the round-robin loop from the one round that v
  can change (see `_FairSession`).
* A reconciler without a `session` attribute, f_lifo included, is rerun
  from scratch and reports position 0, which is exact for f_lifo.

The attributes survive `functools.wraps`, so a wrapped reconciler keeps its
session.  The functions themselves stay from-scratch: they are the
reference the sessions and the checker's certificate are tested against.
"""

from __future__ import annotations

from bisect import bisect_right

from .dag import CommandDag, level_key, topo_sort


def f_bfs(dag: CommandDag):
    """Distance-level order, levels resolved by issuer id.

    Equivalent to walking levels 1..max(dist) and draining each level in
    ascending issuer order; an edge strictly increases dist, so the output
    is never required to be edge-respecting within a level and is not.
    """
    return topo_sort(dag, dag.commands())


def fair_leaders(dag: CommandDag):
    """The past masks of f_fair's leaders, in the order it picks them.

    The issuer pointer cycles over the ids present in the DAG, ascending,
    starting at the smallest on every invocation.  A vertex v of issuer j
    qualifies as a leader when v is not yet ordered and past(v) covers the
    whole sequence built so far; the smallest qualifying sequence number
    wins.  The loop stops after a full cycle with no qualifying issuer.

    It scans the DAG's issuer chains by past mask.  The built sequence is
    one leader's causal past, so down-closed, and past(v) holds v: v
    qualifies iff its mask p strictly contains the sequence's mask s, that
    is `s | p == p != s`.  So each mask strictly contains the one before.
    """
    procs = sorted(dag.chains())
    past = dag.past_masks().__getitem__
    pasts = [list(map(past, dag.chains()[j])) for j in procs]
    # Scan pointers only ever move forward: the built sequence only grows,
    # so a vertex that is ordered or fails the coverage test never
    # qualifies later.
    ptr = [0] * len(procs)
    leaders = []
    seq_mask = 0
    rr = 0
    misses = 0
    while misses < len(procs):
        chain = pasts[rr]
        for k in range(ptr[rr], len(chain)):
            p = chain[k]
            if seq_mask | p == p != seq_mask:
                ptr[rr] = k
                misses = 0
                leaders.append(p)
                seq_mask = p
                break
        else:
            ptr[rr] = len(chain)
            misses += 1
        rr = (rr + 1) % len(procs)
    return leaders


def f_fair(dag: CommandDag):
    """Round-robin leader order.

    Each leader found by `fair_leaders` appends its batch: the part of its
    past not yet ordered, in topological order.  The leftover vertices
    follow in one last batch.  Batch k thus ends at position
    `|past(leader_k)|`, and every batch is sorted by `level_key`.
    """
    seq = []
    seq_mask = 0
    for p in fair_leaders(dag) + [dag.all_mask()]:
        seq.extend(topo_sort(dag, dag.expand_mask(p & ~seq_mask)))
        seq_mask = p
    return seq


def f_lifo(dag: CommandDag):
    """Local insertion order, newest first.  Violates Growing Stable Prefix."""
    return list(reversed(dag.commands()))


class _LevelOrder:
    """A set of commands in `level_key` order, grown by bisection."""

    def __init__(self, dag: CommandDag, cmds=None):
        self._dag = dag
        self.history = topo_sort(dag, dag.commands() if cmds is None
                                 else cmds)
        self._keys = [level_key(dag, c) for c in self.history]

    def insert(self, v):
        key = level_key(self._dag, v)
        pos = bisect_right(self._keys, key)
        self._keys.insert(pos, key)
        self.history = self.history[:pos] + [v] + self.history[pos:]
        return pos


class _FairSession:
    """f_fair over a growing DAG, resumed from the one round v can change.

    A round is one turn of the issuer pointer; it misses when its scan
    reaches the end of the issuer's chain without finding a leader.  A new
    vertex v of a known issuer i is childless and i's highest sequence
    number, so it is in no other vertex's past and last in i's chain: only a
    scan that reaches the end of i's chain can see it, and after i's first
    miss round every round of i misses.  Every earlier round runs as before.
    In that first miss round v leads iff past(v) covers the sequence built
    so far.  If it does, the loop resumes from the state saved at the start
    of that round.  If not, v fails the coverage test in every later round
    too, because the built sequence only grows, so no round changes and v
    joins the leftover batch by bisection.  A first vertex of a new issuer
    changes the rotation, so the loop reruns from round 0; that happens
    once per issuer.

    Saved states of later rounds may hold a scan pointer to i that stops
    short of such a leftover v.  Resuming from one rescans v, which fails
    again, so the result is the same.
    """

    def __init__(self, dag: CommandDag):
        self._dag = dag
        # issuer -> (round, len(seq), seq_mask, rr, ptr, misses) at the
        # start of its first miss round; every issuer has one after a run
        self._saved = {}
        self._seq = []         # the sequence built by the leader rounds
        self._restart()

    def insert(self, v):
        """Account for `v`, just inserted into the DAG; returns the first
        changed history position.  `v` must follow every earlier command
        of its issuer, which the protocol's causal chains guarantee."""
        old = self.history
        start = self._saved.get(v.issuer)
        if start is None:
            self._restart()
            pos = 0
        elif start[2] & ~self._dag.past_mask(v):
            pos = len(self._seq) + self._rest.insert(v)
            self.history = self._seq + self._rest.history
            return pos
        else:
            self._run(*start)
            pos = start[1]
        # A rerun rebuilds the history from `pos`, but often only appends
        # to it: v's leader round tends to take over the old leftover batch.
        new = self.history
        end = min(len(old), len(new))
        while pos < end and old[pos] is new[pos]:
            pos += 1
        return pos

    def _restart(self):
        self._procs = sorted(self._dag.chains())
        self._run(0, 0, 0, 0, [0] * len(self._procs), 0)

    def _run(self, rnd, length, seq_mask, rr, ptr, misses):
        """Run the loop of f_fair from the given round state to its end."""
        dag, procs = self._dag, self._procs
        chains, past = dag.chains(), dag.past_masks()
        saved = {j: s for j, s in self._saved.items() if s[0] < rnd}
        seq = self._seq
        del seq[length:]
        ptr = list(ptr)
        while misses < len(procs):
            j = procs[rr]
            chain = chains[j]
            for k in range(ptr[rr], len(chain)):
                p = past[chain[k]]
                if seq_mask | p == p != seq_mask:
                    ptr[rr] = k
                    misses = 0
                    seq.extend(topo_sort(dag, dag.expand_mask(p & ~seq_mask)))
                    seq_mask = p
                    break
            else:
                if j not in saved:
                    saved[j] = (rnd, len(seq), seq_mask, rr, list(ptr),
                                misses)
                ptr[rr] = len(chain)
                misses += 1
            rr = (rr + 1) % len(procs)
            rnd += 1
        self._saved = saved
        self._rest = _LevelOrder(dag, dag.expand_mask(dag.all_mask()
                                                      & ~seq_mask))
        self.history = seq + self._rest.history


class _Rerun:
    """Session of a reconciler without one: rerun it, report position 0."""

    def __init__(self, recon, dag: CommandDag):
        self._recon = recon
        self._dag = dag
        self.history = list(recon(dag))

    def insert(self, v):
        self.history = list(self._recon(self._dag))
        return 0


f_bfs.session = _LevelOrder
f_fair.session = _FairSession


def open_session(recon, dag: CommandDag):
    """A session of `recon` over `dag`, starting from the DAG as it is."""
    make = getattr(recon, "session", None)
    return make(dag) if make else _Rerun(recon, dag)


RECONCILERS = {"bfs": f_bfs, "fair": f_fair, "lifo": f_lifo}


def get_reconciler(name: str):
    try:
        return RECONCILERS[name]
    except KeyError:
        raise KeyError("unknown reconciliation function %r (have: %s)"
                       % (name, ", ".join(sorted(RECONCILERS)))) from None
