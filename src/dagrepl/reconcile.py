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

A reconciler that is a plain sort exposes its sort key as a `key`
attribute, `key(dag, c)`, whose value never changes once `c` is in the DAG.
Its history then only ever gains vertices at `bisect` positions, which is
what lets a replica maintain it incrementally.  The attribute survives
`functools.wraps`, so a wrapped reconciler keeps it.
"""

from __future__ import annotations

from .dag import CommandDag, level_key, topo_sort


def f_bfs(dag: CommandDag):
    """Distance-level order, levels resolved by issuer id.

    Equivalent to walking levels 1..max(dist) and draining each level in
    ascending issuer order; an edge strictly increases dist, so the output
    is never required to be edge-respecting within a level and is not.
    """
    return topo_sort(dag, dag.commands())


f_bfs.key = level_key


def f_fair(dag: CommandDag):
    """Round-robin leader order.

    The issuer pointer cycles over the ids present in the DAG, ascending,
    starting at the smallest on every invocation.  A vertex v of issuer j
    qualifies as a leader when v is not yet ordered and past(v) covers the
    whole sequence built so far; the smallest qualifying sequence number
    wins.  The loop stops after a full cycle with no qualifying issuer,
    then the leftover vertices are appended in one topological batch.
    """
    cmds = dag.commands()
    if not cmds:
        return []
    procs = sorted({c.issuer for c in cmds})
    by_proc = {j: [] for j in procs}
    for c in cmds:
        by_proc[c.issuer].append(c)
    for lst in by_proc.values():
        lst.sort(key=lambda c: c.seq)
    # Scan pointers only ever move forward: an issuer's causal pasts grow
    # with its sequence numbers, and the built sequence only grows, so a
    # vertex that failed the coverage test never passes it later.
    ptr = {j: 0 for j in procs}
    bit = {c: 1 << i for i, c in enumerate(cmds)}
    past = dag.past_mask
    seq = []
    seq_mask = 0
    rr = 0
    misses = 0
    while misses < len(procs):
        j = procs[rr]
        rr = (rr + 1) % len(procs)
        lst = by_proc[j]
        k = ptr[j]
        leader = None
        while k < len(lst):
            v = lst[k]
            if seq_mask & bit[v]:       # already ordered
                k += 1
                continue
            if seq_mask & ~past(v):     # past(v) does not cover seq
                k += 1
                continue
            leader = v
            break
        ptr[j] = k
        if leader is None:
            misses += 1
            continue
        misses = 0
        seq.extend(topo_sort(dag, dag.expand_mask(past(leader) & ~seq_mask)))
        seq_mask |= past(leader)
    remaining = dag.expand_mask(dag.all_mask() & ~seq_mask)
    seq.extend(topo_sort(dag, remaining))
    return seq


def f_lifo(dag: CommandDag):
    """Local insertion order, newest first.  Violates Growing Stable Prefix."""
    return list(reversed(dag.commands()))


RECONCILERS = {"bfs": f_bfs, "fair": f_fair, "lifo": f_lifo}


def get_reconciler(name: str):
    try:
        return RECONCILERS[name]
    except KeyError:
        raise KeyError("unknown reconciliation function %r (have: %s)"
                       % (name, ", ".join(sorted(RECONCILERS)))) from None
