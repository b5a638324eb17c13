import random
from collections import Counter

import pytest

from dagrepl.dag import Command, CommandDag, EPSILON, level_key, \
    parse_dag
from dagrepl.reconcile import RECONCILERS, _LeaderScan, f_bfs, f_fair, \
    f_lifo, fair_leaders, get_reconciler, open_session
from dagrepl.scenarios import FIG1_BFS_ORDER, FIG1_FAIR_ORDER

from oracles import brute_dist, brute_past, lcp, oracle_f_bfs, \
    oracle_f_fair, random_out_of_order_dag, random_protocol_dag


def keys(history):
    return [(c.issuer, c.seq) for c in history]


def test_fig1_bfs_order(fig1_dag):
    assert keys(f_bfs(fig1_dag)) == FIG1_BFS_ORDER
    assert f_bfs(fig1_dag) == oracle_f_bfs(fig1_dag)


def test_fig1_fair_order(fig1_dag):
    assert keys(f_fair(fig1_dag)) == FIG1_FAIR_ORDER
    assert f_fair(fig1_dag) == oracle_f_fair(fig1_dag)


# Outside the protocol: issuer 2's seq 1 hangs below its seqs 3 and 5, and
# every issuer's seqs arrive out of order.  The order was frozen from the
# f_fair that sorted each issuer's commands by seq on every call.
NON_PROTOCOL_DAG = """
2 3 push 0 : eps
2 4 push 1 : eps
2 5 push 2 : 2.4
2 1 push 3 : 2.3 2.5
1 3 push 4 : 2.4
3 3 push 5 : 2.1
3 2 push 9 : 2.5
1 2 push 11 : 3.2 3.3
"""
NON_PROTOCOL_FAIR_ORDER = [(2, 3), (2, 4), (2, 5), (2, 1), (3, 2), (3, 3),
                           (1, 2), (1, 3)]


def test_fair_order_pinned_outside_the_protocol():
    dag = parse_dag(NON_PROTOCOL_DAG)
    assert keys(f_fair(dag)) == NON_PROTOCOL_FAIR_ORDER


def _scan_paths(whole, order):
    """Insert `order`, the vertices of `whole`, into a new DAG below their
    parents there, one at a time.  After each insert a `_LeaderScan` that
    has seen every insert must hold `fair_leaders(dag)`, whose batches
    make `oracle_f_fair(dag)`, and keep every leader before the index it
    returns, all of them for None.  A session of f_bfs and one of f_fair
    see the same inserts; each must hold its reconciler's history and
    return exactly the length of the common prefix with its previous
    one.  The scan's saved state must equal a fresh scan's.  Returns a
    Counter of the paths taken: "none", "resumed" (a positive index),
    "new issuer", "out of order", and of the resumes "split" (v leads
    after every old leader) and "merged" (later leaders were dropped)."""
    dag = CommandDag()
    scan = _LeaderScan(dag)
    sessions = {recon: open_session(recon, dag) for recon in (f_bfs, f_fair)}
    paths = Counter()
    for v in order:
        old = list(scan.leaders)
        new_issuer = v.issuer not in dag.chains()
        dag.insert(v, whole.parents_of(v))
        out_of_order = dag.chains()[v.issuer][-1] is not v
        k = scan.insert(v)
        assert scan.leaders == fair_leaders(dag)
        assert scan._saved == _LeaderScan(dag)._saved
        assert keys(f_fair(dag)) == keys(oracle_f_fair(dag))
        for recon, session in sessions.items():
            previous = session.history
            pos = session.insert(v)
            assert session.history == recon(dag)
            assert pos == lcp(previous, session.history)
        if k is None:
            assert scan.leaders == old
        else:
            assert scan.leaders[:k] == old[:k]
        if out_of_order:
            assert k == 0
            paths["out of order"] += 1
        elif new_issuer:
            paths["new issuer"] += len(dag) > 1     # not the first vertex
        elif k is None:
            paths["none"] += 1
        elif k:
            paths["resumed"] += 1
            paths["split" if k == len(old) else "merged"] += 1
    return paths


def _parents_first(rng, dag):
    """The vertices of `dag` in a random order with parents first, as
    shuffled deliveries reach a replica that parks a vertex until its
    parents are in."""
    pending = list(dag.commands())
    rng.shuffle(pending)
    done = set()
    while pending:
        v = next(v for v in pending if all(p is EPSILON or p in done
                                          for p in dag.parents_of(v)))
        pending.remove(v)
        done.add(v)
        yield v


def test_leader_scan_matches_from_scratch_on_shuffled_deliveries():
    rng = random.Random(71)
    paths = Counter()
    for _ in range(60):
        dag = random_protocol_dag(rng, 30, 5)
        paths += _scan_paths(dag, _parents_first(rng, dag))
    assert paths["out of order"] == 0
    assert min(paths["none"], paths["resumed"], paths["new issuer"]) > 50
    assert min(paths["split"], paths["merged"]) > 50


def test_leader_scan_matches_from_scratch_out_of_order():
    # every order outside the protocol is exact too: a vertex below the
    # end of its issuer's chain reruns the scan from round 0
    rng = random.Random(73)
    paths = Counter()
    for _ in range(60):
        dag = random_out_of_order_dag(rng, rng.randint(0, 30), 4)
        paths += _scan_paths(dag, dag.commands())
    dag = parse_dag(NON_PROTOCOL_DAG)
    pinned = _scan_paths(dag, dag.commands())
    assert pinned["out of order"] == 3
    assert min(paths["none"], paths["resumed"], paths["out of order"]) > 50


# Outside the protocol: two (2, 13)s at one distance.  (1, 10) leads with
# the later one in its batch; (2, 15) then drops that leader, and the two
# must meet again in insertion order.
EQUAL_KEYS_DAG = """
1 3 push 0 : eps
2 13 push 1 : eps
2 13 push 2 : eps
1 10 push 3 : 1.3 2.13
2 15 push 4 : 1.3
"""


def test_merged_batches_keep_insertion_order_among_equal_keys():
    dag = parse_dag(EQUAL_KEYS_DAG)
    assert _scan_paths(dag, dag.commands())["merged"] == 1
    assert [c.op[1] for c in f_fair(dag)] == [0, 4, 1, 2, 3]


def test_fig1_lifo_order(fig1_dag):
    assert f_lifo(fig1_dag) == list(reversed(list(fig1_dag.commands())))


def test_empty_dag():
    dag = CommandDag()
    assert f_bfs(dag) == []
    assert f_fair(dag) == []
    assert f_lifo(dag) == []


def _edge_respecting(dag, history):
    pos = {c: k for k, c in enumerate(history)}
    for v in history:
        for u in brute_past(dag, v) - {v}:
            if pos[u] > pos[v]:
                return False
    return True


def test_totality_and_permutation_random():
    # Every reconciler must emit each vertex exactly once.
    rng = random.Random(23)
    for _ in range(150):
        dag = random_protocol_dag(rng, 25, 4)
        verts = set(dag.commands())
        for name, recon in RECONCILERS.items():
            hist = recon(dag)
            assert set(hist) == verts and len(hist) == len(verts), name


def test_bfs_is_edge_respecting_random():
    rng = random.Random(29)
    for _ in range(100):
        dag = random_protocol_dag(rng, 25, 4)
        assert _edge_respecting(dag, f_bfs(dag))


def test_fair_is_edge_respecting_random():
    rng = random.Random(31)
    for _ in range(100):
        dag = random_protocol_dag(rng, 25, 4)
        assert _edge_respecting(dag, f_fair(dag))


def test_bfs_matches_level_oracle_random():
    rng = random.Random(37)
    for _ in range(100):
        dag = random_protocol_dag(rng, 25, 4)
        assert f_bfs(dag) == oracle_f_bfs(dag)
        # level_key is the one key f_bfs sorts by
        assert f_bfs(dag) == sorted(dag.commands(),
                                    key=lambda c: level_key(dag, c))


def test_fair_matches_interpreter_oracle_random():
    rng = random.Random(41)
    for _ in range(100):
        dag = random_protocol_dag(rng, 25, 4)
        assert f_fair(dag) == oracle_f_fair(dag)


def test_bfs_depends_only_on_structure():
    # Rebuilding the same DAG in a different insertion order must not
    # change the level order.
    rng = random.Random(43)
    for _ in range(40):
        dag = random_protocol_dag(rng, 15, 3)
        verts = list(dag.commands())
        other = CommandDag()
        remaining = list(verts)
        rng.shuffle(remaining)
        inserted = set()
        while remaining:
            for v in list(remaining):
                if all(p is EPSILON or p in inserted
                       for p in dag.parents_of(v)):
                    other.insert(v, dag.parents_of(v))
                    inserted.add(v)
                    remaining.remove(v)
        assert f_bfs(other) == f_bfs(dag)
        assert f_fair(other) == f_fair(dag)


def test_lifo_is_reversed_insertion_random():
    rng = random.Random(47)
    for _ in range(60):
        dag = random_protocol_dag(rng, 20, 4)
        assert f_lifo(dag) == list(reversed(list(dag.commands())))


def test_bfs_levels_sorted():
    rng = random.Random(53)
    for _ in range(60):
        dag = random_protocol_dag(rng, 25, 4)
        hist = f_bfs(dag)
        dists = [brute_dist(dag, v) for v in hist]
        assert dists == sorted(dists)
        for a, b in zip(hist, hist[1:]):
            if brute_dist(dag, a) == brute_dist(dag, b):
                assert (a.issuer, a.seq) < (b.issuer, b.seq)


def test_determinism():
    rng = random.Random(59)
    dag = random_protocol_dag(rng, 25, 4)
    for recon in (f_bfs, f_fair, f_lifo):
        assert recon(dag) == recon(dag)


def test_registry():
    assert get_reconciler("bfs") is f_bfs
    assert get_reconciler("fair") is f_fair
    assert get_reconciler("lifo") is f_lifo
    with pytest.raises(KeyError):
        get_reconciler("bogus")
