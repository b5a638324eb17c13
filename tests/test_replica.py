import functools
import random

import pytest

from dagrepl.broadcast import BroadcastMessage
from dagrepl.dag import Command, EPSILON
from dagrepl.datatype import BOTTOM, INTLOG, NFS, OK, replay
from dagrepl.replica import InvariantViolation, Replica
from dagrepl.reconcile import f_bfs, f_fair, f_lifo

from oracles import oracle_f_fair, random_protocol_dag


def test_append_ok():
    sent = []
    r = Replica(1, NFS, f_bfs, broadcast=sent.append)
    assert r.append(("mkdir", "/", "a")) == OK
    assert len(r.dag) == 1
    assert len(sent) == 1
    v = sent[0].vertex
    assert v == Command(("mkdir", "/", "a"), 1, 1)
    assert sent[0].parents == frozenset({EPSILON})


def test_append_disabled_no_broadcast():
    sent = []
    r = Replica(1, NFS, f_bfs, broadcast=sent.append)
    assert r.append(("rmdir", "/nope")) == BOTTOM
    assert len(r.dag) == 0
    assert sent == []
    assert r.next_seq == 1


def test_append_parents_are_current_leaves():
    sent = []
    r = Replica(1, NFS, f_bfs, broadcast=sent.append)
    r.append(("mkdir", "/", "a"))
    r.append(("mkdir", "/", "b"))
    assert sent[1].parents == {sent[0].vertex}


def test_history_equals_recon_of_dag():
    r = Replica(1, INTLOG, f_fair)
    for k in range(5):
        r.append(("push", k))
    assert r.history == f_fair(r.dag)


def test_on_deliver_in_order():
    r = Replica(2, NFS, f_bfs)
    a = Command(("mkdir", "/", "a"), 1, 1)
    b = Command(("mkdir", "/a", "b"), 1, 2)
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    r.on_deliver(BroadcastMessage(b, frozenset({a})))
    assert len(r.dag) == 2
    assert r.history == f_bfs(r.dag)


def test_on_deliver_parks_until_parent_arrives():
    r = Replica(2, NFS, f_bfs)
    a = Command(("mkdir", "/", "a"), 1, 1)
    b = Command(("mkdir", "/a", "b"), 1, 2)
    c = Command(("mkdir", "/a/b", "c"), 1, 3)
    r.on_deliver(BroadcastMessage(c, frozenset({b})))
    r.on_deliver(BroadcastMessage(b, frozenset({a})))
    assert len(r.dag) == 0 and len(r.pending) == 2
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    # Cascade: a unblocks b which unblocks c.
    assert len(r.dag) == 3 and r.pending == {}


def test_on_deliver_reparks_on_second_missing_parent():
    r = Replica(3, INTLOG, f_bfs)
    a = Command(("push", 1), 1, 1)
    b = Command(("push", 2), 2, 1)
    c = Command(("push", 3), 1, 2)
    r.on_deliver(BroadcastMessage(c, frozenset({a, b})))
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    assert len(r.dag) == 1 and len(r.pending) == 1
    r.on_deliver(BroadcastMessage(b, frozenset({EPSILON})))
    assert len(r.dag) == 3 and r.pending == {}


def test_duplicate_delivery_raises():
    r = Replica(2, NFS, f_bfs)
    a = Command(("mkdir", "/", "a"), 1, 1)
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    with pytest.raises(InvariantViolation):
        r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))


def test_sequence_gap_raises():
    r = Replica(2, NFS, f_bfs)
    b = Command(("mkdir", "/", "b"), 1, 2)
    with pytest.raises(InvariantViolation):
        r._insert(b, frozenset({EPSILON}))


def test_on_insert_callback():
    seen = []
    r = Replica(1, INTLOG, f_bfs,
                on_insert=lambda v, ps: seen.append((v, frozenset(ps))))
    r.append(("push", 7))
    assert seen == [(Command(("push", 7), 1, 1), frozenset({EPSILON}))]


def test_append_response_matches_history_position():
    # Under the level order a remote command can slot in *before* a local
    # one, so the returned response must come from the merged history.
    r = Replica(2, NFS, f_bfs)
    a = Command(("mkdir", "/", "a"), 1, 1)
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    resp = r.append(("rmdir", "/a"))
    assert resp == OK
    state_ops = [c.op for c in r.history]
    assert state_ops == [("mkdir", "/", "a"), ("rmdir", "/a")]


def test_history_matches_recon_after_random_deliveries():
    rng = random.Random(61)
    for _ in range(40):
        dag = random_protocol_dag(rng, 20, 4)
        r = Replica(99, INTLOG, f_fair)
        for v in dag.commands():
            r.on_deliver(BroadcastMessage(v, frozenset(dag.parents_of(v))))
        assert r.history == f_fair(r.dag)
        assert len(r.dag) == len(dag)


def _random_op(rng, spec, k):
    if spec is INTLOG:
        return ("push", k)
    dirs = ["/a", "/b", "/a/c"]
    if rng.random() < 0.5:
        return ("rmdir", rng.choice(dirs))
    path = rng.choice(["/", "/a"])
    return ("mkdir", path, rng.choice(["a", "b", "c"]))


@pytest.mark.parametrize("recon", [f_bfs, f_fair, f_lifo],
                         ids=["bfs", "fair", "lifo"])
@pytest.mark.parametrize("spec", [INTLOG, NFS], ids=["intlog", "nfs"])
def test_incremental_history_matches_from_scratch(recon, spec):
    # Three replicas; messages reach each one in random order, so vertices
    # get parked and the kept states are invalidated at random positions.
    rng = random.Random(recon.__name__ + spec.name)
    inbox = {rid: [] for rid in (1, 2, 3)}

    def broadcaster(src):
        def send(msg):
            for dst in inbox:
                if dst != src:
                    inbox[dst].append(msg)
        return send

    reps = {rid: Replica(rid, spec, recon, broadcast=broadcaster(rid))
            for rid in inbox}
    held = []   # (list object read from .history, copy of its contents)
    appended = 0
    while appended < 100 or any(inbox.values()):
        if appended < 100:
            rid = rng.choice(list(reps))
        else:
            rid = rng.choice([j for j in inbox if inbox[j]])
        r = reps[rid]
        if appended < 100 and (not inbox[rid] or rng.random() < 0.4):
            op = _random_op(rng, spec, appended)
            before = list(r.history)
            resp = r.append(op)
            if resp == BOTTOM and r.history == before:
                state, _ = replay(spec, before)
                assert spec.step(state, op)[1] == BOTTOM
            else:
                appended += 1
                v = Command(op, rid, r.next_seq - 1)
                pos = r.history.index(v)
                _, expected = replay(spec, r.history[:pos + 1])
                assert resp == expected[-1]
        else:
            msg = inbox[rid].pop(rng.randrange(len(inbox[rid])))
            r.on_deliver(msg)
        assert r.history == recon(r.dag)
        # the kept data-type states describe the current history
        k, state = r._kept[-1]
        assert state == replay(spec, r.history[:k])[0]
        if rng.random() < 0.1:
            held.append((r.history, list(r.history)))
    for r in reps.values():
        assert r.pending == {}
        assert len(r.history) > 32
        for k, state in r._kept:
            assert state == replay(spec, r.history[:k])[0]
    for hist, contents in held:
        assert hist == contents


@pytest.mark.parametrize("recon", [f_bfs, f_fair], ids=["bfs", "fair"])
def test_key_reconciler_is_never_rerun(recon):
    # A wrapped reconciler keeps its scan attribute, and with it the
    # incremental path.
    calls = []

    @functools.wraps(recon)
    def counted(dag):
        calls.append(1)
        return recon(dag)

    r = Replica(2, INTLOG, counted)
    a = Command(("push", 1), 1, 1)
    r.on_deliver(BroadcastMessage(a, frozenset({EPSILON})))
    for k in range(5):
        r.append(("push", k))
    assert r.history == recon(r.dag)
    assert calls == []


@pytest.mark.parametrize("recon", [f_bfs, f_fair, f_lifo],
                         ids=["bfs", "fair", "lifo"])
def test_session_matches_recon_on_shuffled_deliveries(recon, monkeypatch):
    # Vertices of random protocol DAGs reach a replica in random order, so
    # they get parked and new issuers appear mid-stream.  After each insert
    # the history must be the from-scratch one, and the session must have
    # reported a position before which nothing changed.
    changed = []
    real = Replica._changed_from

    def record(self, pos):
        changed.append(pos)
        real(self, pos)

    monkeypatch.setattr(Replica, "_changed_from", record)
    rng = random.Random("shuffled-" + recon.__name__)
    parked = late_issuers = 0
    for _ in range(60):
        dag = random_protocol_dag(rng, 30, 5)
        msgs = [BroadcastMessage(v, frozenset(dag.parents_of(v)))
                for v in dag.commands()]
        rng.shuffle(msgs)
        previous = []

        def check(v, parents):
            nonlocal previous, late_issuers
            history = r.history
            assert history == recon(r.dag)
            if recon is f_fair:
                assert history == oracle_f_fair(r.dag)
            assert history[:changed[-1]] == previous[:changed[-1]]
            if len(r.dag) > 1 and v.seq == 1:
                late_issuers += 1
            previous = list(history)

        r = Replica(9, INTLOG, recon, on_insert=check)
        for msg in msgs:
            r.on_deliver(msg)
            parked += msg.vertex not in r.dag
        assert len(r.dag) == len(dag) and r.pending == {}
    assert parked > 300 and late_issuers > 50


def test_every_copy_of_a_vertex_holds_one_parent_set():
    sent = []
    r1 = Replica(1, INTLOG, f_bfs, broadcast=sent.append)
    r2 = Replica(2, INTLOG, f_bfs)
    for k in range(3):
        r1.append(("push", k))
        msg = sent[-1]
        r2.on_deliver(msg)
        v = msg.vertex
        assert r2.dag.parents_of(v) is r1.dag.parents_of(v) is msg.parents


def test_replay_below_the_top_kept_state_pops_it():
    r = Replica(1, INTLOG, f_fair)
    for k in range(6):
        r.append(("push", k))
    assert r._kept[-1][0] > 2
    state, _ = r._replay_to(2)
    assert state == replay(INTLOG, r.history[:2])[0]
    assert r._kept[-1][0] == 2
