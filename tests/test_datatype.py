import random

from dagrepl.dag import parse_dag
from dagrepl.datatype import BOTTOM, INTLOG, NFS, OK, get_datatype, replay
from dagrepl.reconcile import f_bfs, f_fair

from conftest import FIXTURES


def test_mkdir_under_root():
    state, resp = NFS.step(frozenset({"/"}), ("mkdir", "/", "d2"))
    assert resp == OK
    assert state == frozenset({"/", "/d2"})


def test_rmdir_with_child_is_disabled():
    s = frozenset({"/", "/d2", "/d2/d4"})
    state, resp = NFS.step(s, ("rmdir", "/d2"))
    assert resp == BOTTOM
    assert state is s


def test_rmdir_missing_directory_is_disabled():
    s = frozenset({"/"})
    state, resp = NFS.step(s, ("rmdir", "/d9"))
    assert (state, resp) == (s, BOTTOM)


def test_rmdir_root_is_disabled():
    state, resp = NFS.step(frozenset({"/"}), ("rmdir", "/"))
    assert resp == BOTTOM


def test_mkdir_existing_target_is_disabled():
    s = frozenset({"/", "/d1"})
    state, resp = NFS.step(s, ("mkdir", "/", "d1"))
    assert (state, resp) == (s, BOTTOM)


def test_mkdir_under_missing_path_is_disabled():
    s = frozenset({"/"})
    assert NFS.step(s, ("mkdir", "/nope", "x")) == (s, BOTTOM)


def test_intlog_every_push_enabled():
    state = INTLOG.initial_state
    for k in range(5):
        state, resp = INTLOG.step(state, ("push", k))
        assert resp == OK
    assert state == (0, 1, 2, 3, 4)


def test_replay_empty():
    state, responses = replay(NFS, [])
    assert state == frozenset({"/"})
    assert responses == []


def _fig1():
    return parse_dag((FIXTURES / "fig1_dag.txt").read_text())


def test_replay_fig1_bfs_order():
    # Expected responses hand-folded and cross-checked against a
    # brute-force fold below: o5 fails because the rmdir of /d2 precedes
    # it, o7 fails because /d2/d4 was never created.
    history = f_bfs(_fig1())
    state, responses = replay(NFS, history)
    assert responses == [OK, OK, OK, OK, BOTTOM, OK, BOTTOM]
    assert _brute_fold(history) == (state, responses)


def test_replay_fig1_fair_order():
    # Here the rmdir of /d2 is the loser: /d2 has a child by the time it
    # is ordered.
    history = f_fair(_fig1())
    state, responses = replay(NFS, history)
    assert responses == [OK, OK, OK, OK, OK, BOTTOM, OK]
    assert _brute_fold(history) == (state, responses)


def _brute_fold(history):
    """Independent fold: applies ops one by one via a fresh dict-based
    directory model, then converts back."""
    dirs = {"/"}
    responses = []
    for cmd in history:
        op = cmd.op
        if op[0] == "mkdir":
            _, path, name = op
            child = ("" if path == "/" else path) + "/" + name
            if path in dirs and child not in dirs and "/" not in name:
                dirs.add(child)
                responses.append(OK)
            else:
                responses.append(BOTTOM)
        else:
            _, path = op
            children = [p for p in dirs if p.startswith(path + "/")]
            if path in dirs and path != "/" and not children:
                dirs.remove(path)
                responses.append(OK)
            else:
                responses.append(BOTTOM)
    return frozenset(dirs), responses


def test_determinism():
    rng = random.Random(1)
    state = frozenset({"/", "/a", "/a/b"})
    ops = [("mkdir", "/", "x"), ("rmdir", "/a"), ("rmdir", "/a/b"),
           ("mkdir", "/a", "b")]
    for op in ops:
        assert NFS.step(state, op) == NFS.step(state, op)


def test_bottom_neutrality_random():
    rng = random.Random(7)
    state = frozenset({"/"})
    for _ in range(300):
        parts = ["/", "/a", "/b", "/a/b", "/a/c", "/b/c"]
        if rng.random() < 0.5:
            op = ("mkdir", rng.choice(parts), rng.choice("abc"))
        else:
            op = ("rmdir", rng.choice(parts))
        new, resp = NFS.step(state, op)
        if resp == BOTTOM:
            assert new == state
        state = new


def test_replay_prefix_consistency():
    rng = random.Random(11)
    ops = []
    for k in range(40):
        if rng.random() < 0.6:
            ops.append(("mkdir", rng.choice(["/", "/a", "/b"]),
                        rng.choice("ab")))
        else:
            ops.append(("rmdir", rng.choice(["/a", "/b", "/a/a"])))
    final, full = replay(NFS, ops)
    for cut in range(len(ops) + 1):
        state, part = replay(NFS, ops[:cut])
        assert part == full[:cut]
        # resuming from the prefix's state gives the rest of the replay
        assert replay(NFS, ops[cut:], state) == (final, full[cut:])


def test_registry():
    assert get_datatype("nfs") is NFS
    assert get_datatype("intlog") is INTLOG
    try:
        get_datatype("bogus")
    except KeyError as exc:
        assert "bogus" in str(exc)
    else:
        raise AssertionError("expected KeyError")


def test_intlog_state_repr_names_its_values():
    state = replay(INTLOG, [("push", 0), ("push", 1), ("push", 2)])[0]
    assert repr(state) == "_Log(0, 1, 2)"
