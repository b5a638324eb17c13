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
leader scan alone.  `_LeaderScan` resumes that scan as the DAG grows; the
fair session builds its batches from it, and the trace checker keeps one
per replica to verify a history without expanding a batch.

A replica does not rerun its reconciler on every change.  It opens a
session, `open_session(recon, dag)`, over its DAG.  After each
`dag.insert(v)` it calls `session.insert(v)`, which brings
`session.history` up to date and returns the first position that changed.
`session.history` is a fresh list after every insert; a list once handed
out is never mutated.

* f_bfs.session places v by `bisect` on its immutable `level_key`.
* f_fair.session rebuilds its batches from the first leader that v
  changed in its `_LeaderScan`, or bisects v into the leftover batch.
* A reconciler without a `session` attribute, f_lifo included, is rerun
  from scratch and reports position 0, which is exact for f_lifo.

The attributes survive `functools.wraps`, so a wrapped reconciler keeps its
session.  The functions themselves stay from-scratch: they are the
reference the sessions, `_LeaderScan` and the checker's certificate are
tested against.
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


def _scan(procs, pasts, leaders, rnd, rr, ptr, misses, saved):
    """Run f_fair's round-robin leader scan from round `rnd` to its end,
    appending the leaders' past masks to `leaders`.

    The issuer pointer `rr` cycles over `procs`, the DAG's issuer ids,
    ascending, and `pasts[rr]` is the chain of past masks of issuer
    `procs[rr]`, by ascending seq.  A vertex v qualifies as a leader
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
    return _LeaderScan(dag).leaders


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


class _LeaderScan:
    """`fair_leaders` over a growing DAG, resumed from the one round a new
    vertex can change.

    A new vertex v is childless, so it is in no other vertex's past.  When
    v is last in its issuer i's chain, only a scan that reaches the end of
    i's chain can see it, and after i's first miss round (see `_scan`)
    every round of i misses.  Every earlier round runs as before.  In that
    first miss round v leads iff past(v) covers the sequence built so far.
    If it does, `_scan` resumes from the state saved at the start of that
    round.  If not, v fails the coverage test in every later round too,
    because the built sequence only grows, so no round changes.  A first
    vertex of a new issuer changes the rotation, so the scan reruns from
    round 0; that happens once per issuer.  So does a vertex inserted
    before the end of its chain, which the protocol's causal chains never
    allow but a DAG rebuilt from a hostile trace may hold: the scan is
    exact for any insertion order.

    Saved states of later rounds may hold a scan pointer to i that stops
    short of such a non-leading v.  Resuming from one rescans v, which
    fails again, so the result is the same.
    """

    def __init__(self, dag: CommandDag):
        self._dag = dag
        self._restart()

    def insert(self, v):
        """Account for `v`, just inserted into the DAG; returns the index of
        the first leader that changed, or None when no leader changed."""
        start = self._saved.get(v.issuer)
        if start is None or self._dag.chains()[v.issuer][-1] is not v:
            self._restart()
            return 0
        # rr, the issuer pointer in v's issuer's first miss round, points
        # at that issuer
        rnd, count, rr, ptr, misses = start
        p = self._dag.past_mask(v)
        self._pasts[rr].append(p)
        if count and self.leaders[count - 1] & ~p:
            return None
        del self.leaders[count:]
        self._saved = {j: s for j, s in self._saved.items() if s[0] < rnd}
        _scan(self._procs, self._pasts, self.leaders, rnd, rr, list(ptr),
              misses, self._saved)
        return count

    def _restart(self):
        # each issuer's chain of past masks, by ascending seq
        chains, past = self._dag.chains(), self._dag.past_masks().__getitem__
        self._procs = sorted(chains)
        self._pasts = [list(map(past, chains[j])) for j in self._procs]
        self.leaders = []      # fair_leaders(dag)
        self._saved = {}       # issuer -> its `_scan` state; all have one
        _scan(self._procs, self._pasts, self.leaders, 0, 0,
              [0] * len(self._procs), 0, self._saved)


class _FairSession:
    """f_fair over a growing DAG: the batches of a `_LeaderScan`'s leaders,
    rebuilt from the first leader that changed, and the leftover batch,
    into which a vertex that changes no leader joins by bisection."""

    def __init__(self, dag: CommandDag):
        self._dag = dag
        self._scan = _LeaderScan(dag)
        self._seq = []         # the sequence built by the leader rounds
        self._rebuild(0)

    def insert(self, v):
        """Account for `v`, just inserted into the DAG; returns the first
        changed history position."""
        old = self.history
        count = self._scan.insert(v)
        if count is None:
            pos = len(self._seq) + self._rest.insert(v)
            self.history = self._seq + self._rest.history
            return pos
        pos = self._rebuild(count)
        # A rebuild rewrites the history from `pos`, but often only appends
        # to it: v's leader round tends to take over the old leftover batch.
        new = self.history
        end = min(len(old), len(new))
        while pos < end and old[pos] is new[pos]:
            pos += 1
        return pos

    def _rebuild(self, count):
        """Rebuild the batches of leaders `count` on and the leftover
        batch; returns the position where they start."""
        dag, leaders, seq = self._dag, self._scan.leaders, self._seq
        seq_mask = leaders[count - 1] if count else 0
        pos = seq_mask.bit_count()
        del seq[pos:]
        for p in leaders[count:]:
            seq.extend(topo_sort(dag, dag.expand_mask(p & ~seq_mask)))
            seq_mask = p
        self._rest = _LevelOrder(dag, dag.expand_mask(dag.all_mask()
                                                      & ~seq_mask))
        self.history = seq + self._rest.history
        return pos


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
