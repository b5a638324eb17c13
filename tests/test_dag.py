import random

import pytest

from dagrepl.dag import (Command, CommandDag, EPSILON, DuplicateVertex,
                         MissingParent, UnknownVertex, format_dag, level_key,
                         parse_dag, topo_sort)

from oracles import all_topo_orders, brute_dist, brute_past, \
    random_out_of_order_dag, random_protocol_dag


def cmd(issuer, seq, tag="op"):
    return Command((tag, issuer, seq), issuer, seq)


def past(dag, v):
    """v's causal past, read from its mask."""
    return set(dag.expand_mask(dag.past_masks()[v]))


def test_insert_first_vertex():
    dag = CommandDag()
    v = cmd(1, 1)
    assert dag.insert(v, {EPSILON}) is None
    assert level_key(dag, v)[0] == 1
    assert dag.leaves() == {v}


def test_insert_missing_parent():
    dag = CommandDag()
    with pytest.raises(MissingParent):
        dag.insert(cmd(1, 1), {cmd(9, 9)})


def test_insert_duplicate():
    dag = CommandDag()
    dag.insert(cmd(1, 1), {EPSILON})
    with pytest.raises(DuplicateVertex):
        dag.insert(cmd(1, 1), {EPSILON})


def test_insert_needs_parents():
    with pytest.raises(MissingParent):
        CommandDag().insert(cmd(1, 1), set())


def test_rejected_insert_leaves_dag_unchanged(fig1_dag):
    before = format_dag(fig1_dag)
    commands = fig1_dag.commands()
    leaves = fig1_dag.leaves()
    chains = {j: list(c) for j, c in fig1_dag.chains().items()}
    keys = [level_key(fig1_dag, c) for c in commands]
    masks = dict(fig1_dag.past_masks())
    last = commands[-1]
    rejected = [(last, {EPSILON}, DuplicateVertex),
                (cmd(9, 1), {last, cmd(9, 9)}, MissingParent),
                (cmd(9, 1), set(), MissingParent)]
    for v, parents, error in rejected:
        with pytest.raises(error):
            fig1_dag.insert(v, parents)
        assert format_dag(fig1_dag) == before
        assert fig1_dag.commands() == commands
        assert fig1_dag.leaves() == leaves
        assert cmd(9, 1) not in fig1_dag
        assert len(fig1_dag) == len(commands)
        assert fig1_dag.past_masks() == masks
        assert fig1_dag.chains() == chains
        assert [level_key(fig1_dag, c) for c in commands] == keys
        with pytest.raises(UnknownVertex):
            level_key(fig1_dag, cmd(9, 1))
    # the DAG still takes the vertex once its parents are right, and the
    # commands read before it are a snapshot, not the live order
    fig1_dag.insert(cmd(9, 1), {last})
    assert fig1_dag.commands() == commands + (cmd(9, 1),)
    assert fig1_dag.leaves() == (leaves - {last}) | {cmd(9, 1)}
    assert level_key(fig1_dag, cmd(9, 1))[0] == \
        level_key(fig1_dag, last)[0] + 1
    assert fig1_dag.chains() == {**chains, 9: [cmd(9, 1)]}


def test_leaves_root_only():
    assert CommandDag().leaves() == {EPSILON}


def test_fig1_leaves(fig1_dag, fig1_vertices):
    v = fig1_vertices
    assert fig1_dag.leaves() == {v["F"], v["G"]}


def test_fig1_leaves_without_last_layer(fig1_vertices):
    # Rebuild the example without its last layer; the middle layer is then
    # childless.
    v = fig1_vertices
    dag = CommandDag()
    for u in (v["A"], v["B"], v["C"]):
        dag.insert(u, {EPSILON})
    dag.insert(v["D"], {v["A"], v["B"]})
    dag.insert(v["E"], {v["A"], v["B"], v["C"]})
    assert dag.leaves() == {v["D"], v["E"]}


def test_fig1_insert_distance(fig1_vertices):
    v = fig1_vertices
    dag = CommandDag()
    for u in (v["A"], v["B"], v["C"]):
        dag.insert(u, {EPSILON})
    dag.insert(v["E"], {v["A"], v["B"], v["C"]})
    assert level_key(dag, v["E"])[0] == 2
    assert brute_dist(dag, v["E"]) == 2


def test_fig1_past(fig1_dag, fig1_vertices):
    v = fig1_vertices
    assert past(fig1_dag, v["A"]) == {v["A"]}
    assert past(fig1_dag, v["E"]) == {v["A"], v["B"], v["C"], v["E"]}
    assert past(fig1_dag, v["F"]) == {v["A"], v["B"], v["D"], v["F"]}
    for u in fig1_dag.commands():
        assert past(fig1_dag, u) == brute_past(fig1_dag, u)


def test_fig1_dist(fig1_dag, fig1_vertices):
    v = fig1_vertices
    assert level_key(fig1_dag, v["E"])[0] == 2
    assert level_key(fig1_dag, v["G"])[0] == 3
    for u in (v["A"], v["B"], v["C"]):
        assert level_key(fig1_dag, u)[0] == 1
    for u in fig1_dag.commands():
        assert level_key(fig1_dag, u)[0] == brute_dist(fig1_dag, u)


def test_unknown_vertex(fig1_dag):
    with pytest.raises(UnknownVertex):
        level_key(fig1_dag, cmd(9, 9))
    with pytest.raises(UnknownVertex):
        fig1_dag.parents_of(cmd(9, 9))


def test_topo_sort_fig1_subsets(fig1_dag, fig1_vertices):
    v = fig1_vertices
    order = topo_sort(fig1_dag, {v["B"], v["C"], v["E"]})
    assert order == [v["B"], v["C"], v["E"]]
    assert order in all_topo_orders(fig1_dag, {v["B"], v["C"], v["E"]})
    assert topo_sort(fig1_dag, set()) == []
    assert topo_sort(fig1_dag, {v["D"], v["F"]}) == [v["D"], v["F"]]


def test_topo_sort_against_exhaustive_orders():
    rng = random.Random(5)
    for _ in range(60):
        dag = random_protocol_dag(rng, 7, 3)
        verts = list(dag.commands())
        subset = set(rng.sample(verts, min(len(verts), rng.randint(0, 6))))
        got = topo_sort(dag, subset)
        assert set(got) == subset and len(got) == len(subset)
        if subset:
            assert got in all_topo_orders(dag, subset)


def _assert_indexes(dag):
    """The cached level keys and issuer chains, against brute force."""
    for v in dag.commands():
        assert level_key(dag, v) == (brute_dist(dag, v), v.issuer, v.seq)
    # sorted() is stable, so equal seqs stay in insertion order
    assert dag.chains() == {j: sorted(c, key=lambda v: v.seq)
                            for j, c in _inserted_by_issuer(dag).items()}


def _inserted_by_issuer(dag):
    out = {}
    for v in dag.commands():
        out.setdefault(v.issuer, []).append(v)
    return out


def test_indexes_on_protocol_dags():
    rng = random.Random(19)
    for _ in range(60):
        _assert_indexes(random_protocol_dag(rng, 25, 4))


def test_indexes_on_out_of_order_dags():
    rng = random.Random(29)
    reordered = repeated = 0
    for _ in range(60):
        dag = random_out_of_order_dag(rng, 25, 4)
        _assert_indexes(dag)
        for j, inserted in _inserted_by_issuer(dag).items():
            reordered += inserted != dag.chains()[j]
            repeated += len({v.seq for v in inserted}) < len(inserted)
    assert reordered > 30 and repeated > 30


def test_distance_immutable_under_insertions():
    rng = random.Random(13)
    for _ in range(40):
        dag = random_protocol_dag(rng, 20, 4)
        recorded = {}
        rebuilt = CommandDag()
        for v in dag.commands():
            rebuilt.insert(v, dag.parents_of(v))
            recorded[v] = level_key(rebuilt, v)[0]
        for v in dag.commands():
            assert level_key(dag, v)[0] == recorded[v] == brute_dist(dag, v)


def test_past_independent_of_insertion_interleaving():
    # Two local DAGs from the same run share every vertex's causal past.
    rng = random.Random(17)
    for _ in range(30):
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
        for v in verts:
            assert past(other, v) == past(dag, v) == brute_past(dag, v)
            assert level_key(other, v) == level_key(dag, v)


def test_expand_mask_matches_per_bit_scan():
    rng = random.Random(23)
    for size in (0, 1, 7, 64, 65, 300):
        dag = CommandDag()
        for k in range(size):
            dag.insert(cmd(1, k + 1), dag.leaves())
        order = dag.commands()
        for density in (0.0, 0.04, 0.5, 1.0):
            mask = sum(1 << i for i in range(size) if rng.random() < density)
            expected = [c for i, c in enumerate(order) if (mask >> i) & 1]
            assert dag.expand_mask(mask) == expected
        assert dag.expand_mask((1 << size) - 1) == list(order)


def test_fixture_roundtrip(fig1_dag):
    text = format_dag(fig1_dag)
    again = parse_dag(text)
    assert list(again.commands()) == list(fig1_dag.commands())
    for v in fig1_dag.commands():
        assert again.parents_of(v) == fig1_dag.parents_of(v)
