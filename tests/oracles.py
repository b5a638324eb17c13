"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code paths with the library: pasts come from explicit
reachability, distances from longest-path recursion, the level order from
regrouping, and the fair order from a literal step-by-step interpreter of
the round-robin construction with a Kahn-style topological sort.
"""

import itertools

from dagrepl.dag import Command, CommandDag, EPSILON


def brute_past(dag, v):
    """Reachability by explicit parent-edge walk; v included, root excluded."""
    out = set()
    stack = [v]
    while stack:
        u = stack.pop()
        if u is EPSILON or u in out:
            continue
        out.add(u)
        stack.extend(dag.parents_of(u))
    return out


def brute_dist(dag, v):
    """Longest path from the root by plain recursion, no caching."""
    if v is EPSILON:
        return 0
    return 1 + max(brute_dist(dag, p) for p in dag.parents_of(v))


def all_topo_orders(dag, subset):
    """Every edge-respecting permutation of `subset` (small subsets only)."""
    subset = list(subset)
    orders = []
    for perm in itertools.permutations(subset):
        seen = set()
        ok = True
        for v in perm:
            if any(u in brute_past(dag, v) for u in subset
                   if u != v and u not in seen):
                ok = False
                break
            seen.add(v)
        if ok:
            orders.append(list(perm))
    return orders


def _kahn_sort(dag, subset):
    """Topological order of `subset`, lowest (dist, issuer, seq) first,
    emitted only once all in-subset predecessors are out."""
    remaining = set(subset)
    out = []
    while remaining:
        ready = [v for v in remaining
                 if not (brute_past(dag, v) - {v}) & remaining]
        ready.sort(key=lambda c: (brute_dist(dag, c), c.issuer, c.seq))
        out.append(ready[0])
        remaining.discard(ready[0])
    return out


def oracle_f_bfs(dag):
    """Group by brute-force distance, drain levels by issuer id."""
    levels = {}
    for v in dag.commands():
        levels.setdefault(brute_dist(dag, v), []).append(v)
    out = []
    for d in sorted(levels):
        out.extend(sorted(levels[d], key=lambda c: (c.issuer, c.seq)))
    return out


def oracle_f_fair(dag):
    """Literal interpreter of the round-robin leader construction."""
    verts = list(dag.commands())
    if not verts:
        return []
    procs = sorted({v.issuer for v in verts})
    seq = []
    seq_set = set()
    rr = 0
    misses = 0
    while misses < len(procs):
        j = procs[rr]
        rr = (rr + 1) % len(procs)
        candidates = [v for v in verts
                      if v.issuer == j and v not in seq_set
                      and seq_set <= brute_past(dag, v)]
        if not candidates:
            misses += 1
            continue
        misses = 0
        leader = min(candidates, key=lambda c: c.seq)
        update = _kahn_sort(dag, brute_past(dag, leader) - seq_set)
        seq.extend(update)
        seq_set.update(update)
    seq.extend(_kahn_sort(dag, set(verts) - seq_set))
    return seq


def lcp(a, b):
    """Length of the longest common prefix of two sequences."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


def trace_snapshots(events):
    """Yield (event, history, dag) at each `history` event of a trace: the
    replica's full history decoded naively from the deltas, as a list of
    [issuer, seq], and its DAG rebuilt from the trace's inserts so far
    (commands without ops; no reconciler reads one)."""
    histories, dags, cmds = {}, {}, {}
    for ev in events:
        rid = ev.get("replica")
        if ev["kind"] == "insert":
            v = cmds.setdefault(tuple(ev["vertex"]),
                                Command((), *ev["vertex"]))
            parents = {cmds.get(tuple(p), tuple(p)) for p in ev["parents"]}
            dags.setdefault(rid, CommandDag()).insert(v, parents or {EPSILON})
        elif ev["kind"] == "history":
            old = histories.get(rid, [])
            h = histories[rid] = old[:ev["keep"]] + ev["add"]
            yield ev, h, dags.setdefault(rid, CommandDag())


def naive_retained(events, stable, correct):
    """The own commands of the replicas in `correct` retained for the
    stable history `stable`, from tuple copies: each own command's basis is
    a copy of its issuer's history before it, at the first snapshot there
    that holds it, and it is retained when it equals the stable history
    before it."""
    histories, basis = {}, {}
    for ev in events:
        if ev["kind"] != "history" or ev["replica"] not in correct:
            continue
        rid = ev["replica"]
        h = histories.get(rid, [])[:ev["keep"]] + [tuple(u) for u in ev["add"]]
        histories[rid] = h
        for i, uid in enumerate(h):
            if uid[0] == rid and uid not in basis:
                basis[uid] = tuple(h[:i])
    pos = {uid: i for i, uid in enumerate(stable)}
    return {uid for uid, b in basis.items()
            if uid in pos and b == tuple(stable[:pos[uid]])}


def naive_starvation(events, stable, correct, window):
    """The starvation verdicts of `fairness_report` for the stable history
    `stable`: a replica passes when one of its last `window` commands in
    `stable` is retained (`naive_retained`)."""
    retained = naive_retained(events, stable, correct)
    verdicts = {}
    for rid in correct:
        tail = [uid for uid in stable if uid[0] == rid][-window:]
        if len(tail) < window:
            verdicts[rid] = "indeterminate"
        elif retained.intersection(tail):
            verdicts[rid] = "pass"
        else:
            verdicts[rid] = "fail"
    return verdicts


# --- DAG generation -----------------------------------------------------
#
# Protocol-shaped DAGs: a new vertex of issuer j hangs below the leaves of
# a causally closed view that contains all of j's own vertices.

def random_protocol_dag(rng, max_vertices, max_issuers):
    """One random protocol-shaped CommandDag."""
    n_issuers = rng.randint(1, max_issuers)
    size = rng.randint(0, max_vertices)
    dag = CommandDag()
    pasts = {}            # Command -> frozenset past incl. itself
    own = {j: [] for j in range(1, n_issuers + 1)}
    counter = 0
    for _ in range(size):
        j = rng.randint(1, n_issuers)
        view = set()
        if own[j]:
            view |= pasts[own[j][-1]]
        others = [v for v in pasts if v not in view]
        for v in rng.sample(others, rng.randint(0, len(others))):
            view |= pasts[v]
        strict = set()
        for v in view:
            strict |= pasts[v] - {v}
        parents = view - strict
        if not parents:
            parents = {EPSILON}
        cmd = Command(("push", counter), j, len(own[j]) + 1)
        counter += 1
        dag.insert(cmd, parents)
        pasts[cmd] = frozenset().union(
            *(pasts[p] for p in parents if p is not EPSILON)) | {cmd}
        own[j].append(cmd)
    return dag


def random_out_of_order_dag(rng, size, issuers):
    """A DAG outside the protocol: random parents, and each issuer's seqs
    (some repeated, with another op) inserted in random order."""
    dag = CommandDag()
    for k in range(size):
        j = rng.randint(1, issuers)
        parents = rng.sample(dag.commands(), min(len(dag), rng.randint(0, 3)))
        seq = rng.randint(1, size)
        dag.insert(Command((k, j, seq), j, seq), parents or {EPSILON})
    return dag


def enumerate_protocol_dags(n_issuers, max_vertices):
    """Every protocol-reachable DAG with at most `max_vertices` vertices.

    Yields CommandDags; states are deduplicated on their (issuer, seq,
    parent-set) structure, which pins the DAG completely.
    """
    root = ("eps",)
    init = frozenset()
    seen = {init}
    frontier = [init]
    yield _build(init, n_issuers)
    while frontier:
        nxt = []
        for state in frontier:
            verts = {(j, s): ps for j, s, ps in state}
            if len(verts) >= max_vertices:
                continue
            pasts = {}

            def past_of(k):
                if k not in pasts:
                    out = {k}
                    for p in verts[k]:
                        if p != root:
                            out |= past_of(p)
                    pasts[k] = frozenset(out)
                return pasts[k]

            for k in verts:
                past_of(k)
            for j in range(1, n_issuers + 1):
                mine = [k for k in verts if k[0] == j]
                base = set()
                for k in mine:
                    base |= pasts[k]
                optional = [k for k in verts if k not in base]
                for r in range(len(optional) + 1):
                    for combo in itertools.combinations(optional, r):
                        view = set(base)
                        for k in combo:
                            view |= pasts[k]
                        covered = set()
                        for k in view:
                            covered |= pasts[k] - {k}
                        parents = frozenset(view - covered) or \
                            frozenset([root])
                        newv = (j, len(mine) + 1, parents)
                        ns = state | {newv}
                        if ns not in seen:
                            seen.add(ns)
                            nxt.append(ns)
                            yield _build(ns, n_issuers)
        frontier = nxt


def _build(state, n_issuers):
    root = ("eps",)
    remaining = {(j, s): ps for j, s, ps in state}
    cmds = {}
    dag = CommandDag()
    while remaining:
        for key in sorted(remaining):
            ps = remaining[key]
            if all(p == root or p in cmds for p in ps):
                cmd = Command(("push", 10 * key[0] + key[1]),
                              key[0], key[1])
                cmds[key] = cmd
                dag.insert(
                    cmd, {EPSILON if p == root else cmds[p] for p in ps})
                del remaining[key]
                break
    return dag
