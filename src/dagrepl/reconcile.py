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
`insert(v)`: f_bfs's finds none, and f_fair's, `_LeaderScan`, keeps
`fair_leaders` in O(issuers) per vertex.  The trace checker keeps one
scan per replica to verify a history without expanding a batch.

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


def _scan(dag: CommandDag):
    """f_fair's round-robin leader scan of `dag`: the leaders' past masks,
    and issuer -> `(round, leaders before it)` of its first miss round.

    Round r visits the r-th issuer, counted cyclically in ascending id
    order.  A vertex v qualifies as a leader when v is not yet ordered and
    past(v) covers the sequence built so far, which is the last leader's
    past: down-closed, and past(v) holds v, so v qualifies iff its mask p
    strictly contains the last mask s, `s | p == p != s`.  The smallest
    qualifying sequence number wins; the scan stops after a full cycle
    with no qualifying issuer.  The built sequence only grows, so a vertex
    that is ordered or fails the test never qualifies later, and each
    issuer's chain pointer `ptr` only moves forward.  A miss round is one
    whose scan reaches the end of the chain, so every later round of its
    issuer misses too.
    """
    chains, past = dag.chains(), dag.past_masks()
    procs = sorted(chains)
    count = len(procs)
    leaders, saved = [], {}
    ptr = [0] * count
    seq_mask = rnd = misses = 0
    while misses < count:
        rr = rnd % count
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
                saved[procs[rr]] = (rnd, len(leaders))
            ptr[rr] = len(chain)
            misses += 1
        rnd += 1
    return leaders, saved


def fair_leaders(dag: CommandDag):
    """The past masks of f_fair's leaders, in the order it picks them: the
    scan from round 0, with the issuer pointer at the smallest id."""
    return _scan(dag)[0]


def _batches(dag: CommandDag, leaders):
    """The batches of the leader masks `leaders`, then the leftover batch.
    A leader's batch is the part of its past not in the previous leader's,
    sorted by `level_key`; the leftover batch is every other DAG member,
    sorted the same way."""
    seq, seq_mask = [], 0
    for p in leaders + [dag.all_mask()]:
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
    return _batches(dag, fair_leaders(dag))


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
    """`fair_leaders` over a growing DAG, kept in O(issuers) per new vertex.

    A new vertex v is childless, so it is in no other vertex's past.  When
    v is last in its issuer i's chain, only a scan that reaches the end of
    i's chain can see it: i's first miss round r (see `_scan`) and i's
    later rounds.  Every round before r runs as before.  In round r, v
    leads iff past(v) covers the sequence built so far.  If not, v fails
    the coverage test in every later round too, because the built
    sequence only grows, so no round changes.  If it does, v is the last
    leader: no other vertex's past holds past(v), so each of the next n
    rounds misses, and each issuer whose first miss round was r or later
    first misses in one of them.  A first vertex of a new issuer changes
    the rotation, so the scan reruns from round 0; that happens once per
    issuer.  So does a vertex inserted before the end of its chain, which
    the protocol's causal chains never allow but a DAG rebuilt from a
    hostile trace may hold: the scan is exact for any insertion order.
    """

    def __init__(self, dag: CommandDag):
        self._dag = dag
        self._restart()

    def insert(self, v):
        """Account for `v`, just inserted into the DAG; returns the index of
        the first leader that changed, or None when no leader changed.  A
        positive index k means v is now the last leader, after leader
        k - 1; a rerun from round 0 returns 0 and rebinds `leaders`."""
        dag, saved = self._dag, self._saved
        start = saved.get(v.issuer)
        if start is None or dag.chains()[v.issuer][-1] is not v:
            self._restart()
            return 0
        rnd, count = start
        p = dag.past_masks()[v]
        if count and self.leaders[count - 1] & ~p:
            return None
        del self.leaders[count:]
        self.leaders.append(p)
        n = len(saved)          # round rnd + n visits v's issuer again
        for j, (r, _) in saved.items():
            if r >= rnd:
                saved[j] = (rnd + (r - rnd - 1) % n + 1, count + 1)
        return count

    def _restart(self):
        self.leaders, self._saved = _scan(self._dag)


class _BatchOrder:
    """The session of a reconciler with a leader scan: the batches of the
    scan's leaders and the leftover batch.  A vertex that changes no leader
    joins the leftover batch by bisection, a new last leader splits the
    batches after the one before it, and a rerun of the scan rebuilds all."""

    def __init__(self, dag: CommandDag, scan):
        self._dag = dag
        self._scan = scan
        self.history = _batches(dag, scan.leaders)
        self._built = len(scan.leaders)     # leaders `history` has batches of

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
        if count:
            # v's batch is the tail's members in past(v), then v, whose dist
            # tops its past.  Filtering keeps a leftover batch's order; the
            # batches of dropped leaders are sorted again as `_batches` does.
            pos, p = leaders[count - 1].bit_count(), leaders[-1]
            past = dag.past_masks()
            ins, out = [], []
            for u in old[pos:]:
                (ins if past[u] | p == p else out).append(u)
            if self._built > count:
                for part in ins, out:
                    part.sort(key=past.__getitem__)
                    part.sort(key=dag._key.__getitem__)
            new = old[:pos]
            new += ins + [v] + out      # one copy of the long kept prefix
        else:
            pos, new = 0, _batches(dag, leaders)
        self.history = new
        self._built = len(leaders)
        end = len(old)      # the new history has one command more
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
