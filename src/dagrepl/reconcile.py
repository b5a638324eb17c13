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
`level_key` order (`_batches`).  f_bfs is the case with no leaders.  Each
carries a leader scan, `recon.scan(dag)`, which holds the leaders' past
masks in `leaders` and accounts for each vertex inserted into the DAG in
`insert(v)`: f_bfs's finds none, and f_fair's, `_LeaderScan`, resumes
`fair_leaders` as the DAG grows.  The trace checker keeps one scan per
replica to verify a history without expanding a batch.

A replica does not rerun its reconciler on every change.  It opens a
session, `open_session(recon, dag)`, over its DAG.  After each
`dag.insert(v)` it calls `session.insert(v)`, which brings
`session.history` up to date and returns the first position that changed.
`session.history` is a fresh list after every insert; a list once handed
out is never mutated.  A reconciler with a scan has one session,
`_BatchOrder`; one without, f_lifo included, is rerun from scratch and
reports position 0, which is exact for f_lifo.

The attribute survives `functools.wraps`, so a wrapped reconciler keeps
its scan.  The functions themselves stay from-scratch: they are the
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


def _scan(procs, chains, past, leaders, rnd, rr, ptr, misses, saved):
    """Run f_fair's round-robin leader scan from round `rnd` to its end,
    appending the leaders' past masks to `leaders`.

    The issuer pointer `rr` cycles over `procs`, the DAG's issuer ids,
    ascending; `chains` and `past` are the DAG's `chains()` and
    `past_masks()`.  A vertex v qualifies as a leader when v is not yet
    ordered and past(v) covers the sequence built so far, which is the
    last leader's past: down-closed, and past(v) holds v, so v qualifies
    iff its mask p strictly contains the last mask s,
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
        chain = chains[procs[rr]]
        for k in range(ptr[rr], len(chain)):
            p = past[chain[k]]
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


def _batches(dag: CommandDag, leaders, count):
    """The batches of the leader masks `leaders` from index `count` on,
    then the leftover batch: the history from position
    `leaders[count - 1].bit_count()` on (from 0 when `count` is 0).  A
    leader's batch is the part of its past not in the previous leader's,
    sorted by `level_key`; the leftover batch is every other DAG member,
    sorted the same way."""
    seq = []
    seq_mask = leaders[count - 1] if count else 0
    for p in leaders[count:] + [dag.all_mask()]:
        seq.extend(topo_sort(dag, dag.expand_mask(p & ~seq_mask)))
        seq_mask = p
    return seq


def f_fair(dag: CommandDag):
    """Round-robin leader order.

    Each leader found by `fair_leaders` appends its batch: the part of its
    past not yet ordered, in topological order.  The leftover vertices
    follow in one last batch.  Batch k thus ends at position
    `|past(leader_k)|`, and every batch is sorted by `level_key`.
    """
    return _batches(dag, fair_leaders(dag), 0)


def f_lifo(dag: CommandDag):
    """Local insertion order, newest first.  Violates Growing Stable Prefix."""
    return list(reversed(dag.commands()))


class _NoLeaders:
    """f_bfs's leader scan: it finds none."""

    def __init__(self, dag: CommandDag):
        self.leaders = []

    def insert(self, v):
        return None


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
        the first leader that changed, or None when no leader changed.
        A rerun from round 0 rebinds `leaders`."""
        dag = self._dag
        start = self._saved.get(v.issuer)
        if start is None or dag.chains()[v.issuer][-1] is not v:
            self._restart()
            return 0
        # rr, the issuer pointer in v's issuer's first miss round, points
        # at that issuer
        rnd, count, rr, ptr, misses = start
        if count and self.leaders[count - 1] & ~dag.past_masks()[v]:
            return None
        del self.leaders[count:]
        self._saved = {j: s for j, s in self._saved.items() if s[0] < rnd}
        _scan(self._procs, dag.chains(), dag.past_masks(), self.leaders,
              rnd, rr, list(ptr), misses, self._saved)
        return count

    def _restart(self):
        dag = self._dag
        self._procs = sorted(dag.chains())
        self.leaders = []      # fair_leaders(dag)
        self._saved = {}       # issuer -> its `_scan` state; all have one
        _scan(self._procs, dag.chains(), dag.past_masks(), self.leaders,
              0, 0, [0] * len(self._procs), 0, self._saved)


class _BatchOrder:
    """The session of a reconciler with a leader scan: the batches of the
    scan's leaders and the leftover batch, rebuilt from the first leader
    that changed, or joined by bisection by a vertex that changes none."""

    def __init__(self, dag: CommandDag, scan):
        self._dag = dag
        self._scan = scan
        self.history = _batches(dag, scan.leaders, 0)

    def insert(self, v):
        """Account for `v`, just inserted into the DAG; returns the first
        changed history position."""
        dag, old = self._dag, self.history
        count = self._scan.insert(v)
        leaders = self._scan.leaders
        if count is None:
            # the raw lookup costs less per probe than `level_key`, and
            # cannot miss: every history command is in the DAG
            pos = bisect_right(old, level_key(dag, v),
                               leaders[-1].bit_count() if leaders else 0,
                               key=dag._key.__getitem__)
            self.history = new = old.copy()
            new.insert(pos, v)
            return pos
        pos = leaders[count - 1].bit_count() if count else 0
        self.history = new = old[:pos] + _batches(dag, leaders, count)
        # A rebuild rewrites the history from `pos`, but often only appends
        # to it: v's leader round tends to take over the old leftover batch.
        end = min(len(old), len(new))
        while pos < end and old[pos] is new[pos]:
            pos += 1
        return pos


class _Rerun:
    """Session of a reconciler without a scan: rerun it, report position 0."""

    def __init__(self, recon, dag: CommandDag):
        self._recon = recon
        self._dag = dag
        self.history = list(recon(dag))

    def insert(self, v):
        self.history = list(self._recon(self._dag))
        return 0


f_bfs.scan = _NoLeaders
f_fair.scan = _LeaderScan


def open_session(recon, dag: CommandDag):
    """A session of `recon` over `dag`, starting from the DAG as it is."""
    scan = getattr(recon, "scan", None)
    return _BatchOrder(dag, scan(dag)) if scan else _Rerun(recon, dag)


RECONCILERS = {"bfs": f_bfs, "fair": f_fair, "lifo": f_lifo}


def get_reconciler(name: str):
    try:
        return RECONCILERS[name]
    except KeyError:
        raise KeyError("unknown reconciliation function %r (have: %s)"
                       % (name, ", ".join(sorted(RECONCILERS)))) from None
