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
* f_lifo -- newest-first by local insertion order.  Deliberately unstable;
            negative baseline only.

f_bfs and f_fair share one shape: leader batches, each the unordered
part of one leader's causal past, then a leftover batch, each batch in
`level_key` order.  f_bfs has no leaders; `fair_leaders` is f_fair's
leader scan alone, with which the trace checker verifies a history
without expanding a batch.

A replica does not rerun its reconciler on every change.  It opens a
session, `open_session(recon, dag)`, over its DAG.  After each
`dag.insert(v)` it calls `session.insert(v)`, which brings
`session.history` up to date and returns the first position that changed.
`session.history` is a fresh list after every insert; a list once handed
out is never mutated.

* f_bfs.session places v by `bisect` on its immutable `level_key`.
* f_fair.session resumes `fair_leaders`' scan from the one round that v
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


def _chain_masks(dag: CommandDag):
    """The DAG's issuer ids, ascending, and each one's chain of past masks
    by ascending seq."""
    chains, past = dag.chains(), dag.past_masks().__getitem__
    procs = sorted(chains)
    return procs, [list(map(past, chains[j])) for j in procs]


def _scan(procs, pasts, leaders, rnd, rr, ptr, misses, saved):
    """Run f_fair's round-robin leader scan from round `rnd` to its end,
    appending the leaders' past masks to `leaders`.

    The issuer pointer `rr` cycles over `procs`, the DAG's issuer ids,
    ascending, and `pasts[rr]` is the chain of past masks of issuer
    `procs[rr]` (see `_chain_masks`).  A vertex v qualifies as a leader
    when v is not yet ordered and past(v) covers the sequence built so
    far, which is the last leader's past: down-closed, and past(v) holds
    v, so v qualifies iff its mask p strictly contains the last mask s,
    `s | p == p != s`.  The smallest qualifying sequence number wins; the
    scan stops after a full cycle with no qualifying issuer.  The built
    sequence only grows, so a vertex that is ordered or fails the test
    never qualifies later, and the scan pointers `ptr` only move forward.
    `saved` maps each issuer to the state `(round, len(leaders), rr, ptr,
    misses)` at the start of its first miss round, one whose scan reaches
    the end of its chain; an issuer already in `saved` keeps its entry.
    """
    count = len(procs)
    seq_mask = leaders[-1] if leaders else 0
    while misses < count:
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
            if procs[rr] not in saved:
                saved[procs[rr]] = (rnd, len(leaders), rr, list(ptr), misses)
            ptr[rr] = len(chain)
            misses += 1
        rr = (rr + 1) % count
        rnd += 1


def fair_leaders(dag: CommandDag):
    """The past masks of f_fair's leaders, in the order it picks them: the
    scan from round 0, with the issuer pointer at the smallest id."""
    procs, pasts = _chain_masks(dag)
    leaders = []
    _scan(procs, pasts, leaders, 0, 0, [0] * len(procs), 0, {})
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

    def insert(self, v):
        # the raw lookup costs less per probe than `level_key`, and cannot
        # miss: every history command is in the DAG
        pos = bisect_right(self.history, level_key(self._dag, v),
                           key=self._dag._key.__getitem__)
        self.history = self.history[:pos] + [v] + self.history[pos:]
        return pos


class _FairSession:
    """f_fair over a growing DAG, resumed from the one round v can change.

    A new vertex v of a known issuer i is childless and i's highest
    sequence number, so it is in no other vertex's past and last in i's
    chain: only a scan that reaches the end of i's chain can see it, and
    after i's first miss round (see `_scan`) every round of i misses.
    Every earlier round runs as before.  In that first miss round v leads
    iff past(v) covers the sequence built so far.  If it does, `_scan`
    resumes from the state saved at the start of that round.  If not, v
    fails the coverage test in every later round too, because the built
    sequence only grows, so no round changes and v joins the leftover
    batch by bisection.  A first vertex of a new issuer changes the
    rotation, so the scan reruns from round 0; that happens once per
    issuer.

    Saved states of later rounds may hold a scan pointer to i that stops
    short of such a leftover v.  Resuming from one rescans v, which fails
    again, so the result is the same.  The scan's chains of past masks
    (`_chain_masks`) are kept too: v's mask is appended to i's.
    """

    def __init__(self, dag: CommandDag):
        self._dag = dag
        self._saved = {}       # issuer -> its `_scan` state; all have one
        self._leaders = []     # fair_leaders(dag)
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
        else:
            # start[2], the issuer pointer in v's issuer's first miss
            # round, points at that issuer
            p = self._dag.past_mask(v)
            self._pasts[start[2]].append(p)
            count = start[1]
            seq_mask = self._leaders[count - 1] if count else 0
            if seq_mask & ~p:
                pos = len(self._seq) + self._rest.insert(v)
                self.history = self._seq + self._rest.history
                return pos
            self._run(*start)
            pos = seq_mask.bit_count()
        # A rerun rebuilds the history from `pos`, but often only appends
        # to it: v's leader round tends to take over the old leftover batch.
        new = self.history
        end = min(len(old), len(new))
        while pos < end and old[pos] is new[pos]:
            pos += 1
        return pos

    def _restart(self):
        self._procs, self._pasts = _chain_masks(self._dag)
        self._run(0, 0, 0, [0] * len(self._procs), 0)

    def _run(self, rnd, count, rr, ptr, misses):
        """Resume the scan from the given round state, then rebuild the
        batches of leaders `count` on and the leftover batch."""
        dag, leaders, seq = self._dag, self._leaders, self._seq
        del leaders[count:]
        self._saved = {j: s for j, s in self._saved.items() if s[0] < rnd}
        _scan(self._procs, self._pasts, leaders, rnd, rr, list(ptr), misses,
              self._saved)
        seq_mask = leaders[count - 1] if count else 0
        del seq[seq_mask.bit_count():]
        for p in leaders[count:]:
            seq.extend(topo_sort(dag, dag.expand_mask(p & ~seq_mask)))
            seq_mask = p
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
