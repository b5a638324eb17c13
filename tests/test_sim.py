import gc
import json
import pathlib
import random
import re

import pytest

from dagrepl import sim
from dagrepl.broadcast import BroadcastMessage, ReliableBroadcast
from dagrepl.checks import check_convergence, check_safety, run_all_checks
from dagrepl.cli import main
from dagrepl.reconcile import get_reconciler
from dagrepl.replica import Replica
from dagrepl.sim import ConfigError, Partition, Scenario, Trace, \
    full_histories, run
from dagrepl.scenarios import BUILTIN, FIG1_BFS_ORDER, FIG1_FAIR_ORDER, \
    continuous_scenario, fig1_scenario, random_scenario, starvation_scenario

from oracles import lcp, oracle_f_fair, trace_snapshots


def _final_histories(trace):
    return {ev["replica"]: [tuple(u) for u in h]
            for ev, h in full_histories(trace.events)}


def test_single_replica_degenerate():
    sc = Scenario(n=1, datatype="intlog", recon="bfs",
                  workload=[(1, 1, ("push", 1)), (2, 1, ("push", 2))])
    trace = run(sc)
    finals = _final_histories(trace)
    assert finals == {1: [(1, 1), (1, 2)]}
    assert trace.meta["quiescent"]


def test_determinism_same_seed():
    sc = random_scenario(3, "bfs")
    a, b = run(sc), run(sc)
    assert a.meta == b.meta
    assert a.events == b.events


def test_different_seed_differs():
    a = run(random_scenario(1, "bfs"))
    b = run(random_scenario(2, "bfs"))
    assert a.events != b.events


def test_fig1_scripted_deliveries():
    for recon, order in (("bfs", FIG1_BFS_ORDER), ("fair", FIG1_FAIR_ORDER)):
        trace = run(fig1_scenario(recon))
        finals = _final_histories(trace)
        assert set(finals) == {1, 2, 3}
        for hist in finals.values():
            assert hist == order


def test_append_bottom_recorded():
    sc = Scenario(n=1, datatype="nfs", recon="bfs",
                  workload=[(1, 1, ("rmdir", "/nope"))])
    trace = run(sc)
    kinds = [ev["kind"] for ev in trace.events]
    assert "append_bottom" in kinds and "append" not in kinds


def test_an_op_is_written_as_its_workload_entry_gave_it(tmp_path):
    # equal ops, so equal dict keys, each with a JSON text of its own
    ops = [("push", 1), ("push", True), ("push", 1.0)]
    texts = ['["push",1]', '["push",true]', '["push",1.0]']
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(t, 1, op) for t, op in enumerate(ops, 1)])
    path = tmp_path / "t.jsonl"
    run(sc).to_jsonl(path)
    written = re.findall(r'"kind":"append","op":(.*?),"replica"',
                         path.read_text())
    assert written == texts
    read = [sim._encode(ev["op"]) for ev in Trace.from_jsonl(path).events
            if ev["kind"] == "append"]
    assert read == texts


@pytest.mark.parametrize("delay_max", [1, 2, 3, 7, 8, 10, 64])
def test_delays_are_randint_draws(delay_max):
    # no partition, crash or script: every send's delay is the next draw
    for seed in range(3):
        sc = Scenario(n=3, datatype="intlog", recon="bfs", seed=seed,
                      delay_max=delay_max,
                      workload=[(4 * t, 1 + t % 3, ("push", t))
                                for t in range(12)])
        delays = [ev["deliver_at"] - ev["at"] for ev in run(sc).events
                  if ev["kind"] == "send"]
        rng = random.Random(seed)
        assert len(delays) == 12 * 3 * 2
        assert delays == [rng.randint(1, delay_max) for _ in delays]


def test_crashed_replica_stops_appending():
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(1, 1, ("push", 1)), (50, 1, ("push", 2))],
                  crashes=[(1, 10)], seed=3)
    trace = run(sc)
    appends = [ev for ev in trace.events if ev["kind"] == "append"]
    assert [ev["seq"] for ev in appends] == [1]
    assert trace.meta["crashed"] == [1]


def test_partition_defers_but_delivers():
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(1, 1, ("push", 1))],
                  partitions=[Partition([(1, 2)], 0, 500)],
                  seed=4)
    trace = run(sc)
    assert check_convergence(trace)["ok"]
    delivers = [ev for ev in trace.events if ev["kind"] == "deliver"]
    assert delivers and delivers[0]["replica"] == 2
    sends = [ev for ev in trace.events
             if ev["kind"] == "send" and ev["dst"] == 2]
    assert all(ev["deliver_at"] >= 500 for ev in sends)


def test_no_flush_marks_nonquiescent():
    sc = random_scenario(5, "bfs")
    sc.quiescence_flush = False
    trace = run(sc)
    assert not trace.meta["quiescent"]


def test_config_errors():
    with pytest.raises(ConfigError):
        run(Scenario(n=0, datatype="intlog", recon="bfs", workload=[]))
    with pytest.raises(ConfigError):
        run(Scenario(n=2, datatype="intlog", recon="bfs",
                     workload=[(1, 3, ("push", 1))]))
    with pytest.raises(ConfigError):
        run(Scenario(n=2, datatype="intlog", recon="bfs",
                     workload=[(-1, 1, ("push", 1))]))
    with pytest.raises(ConfigError):
        run(Scenario(n=2, datatype="intlog", recon="bfs", workload=[],
                     partitions=[Partition([(1, 2)], 5, 5)]))
    with pytest.raises(ConfigError):
        run(Scenario(n=2, datatype="intlog", recon="bfs", workload=[],
                     snapshot_every=0))
    with pytest.raises(ConfigError):
        run(Scenario(n=2, datatype="intlog", recon="bogus", workload=[]))
    with pytest.raises(ConfigError, match="workload op"):   # not JSON
        run(Scenario(n=2, datatype="intlog", recon="bfs",
                     workload=[(1, 1, ("push", object()))]))


@pytest.mark.parametrize("field, value, message", [
    ("workload", [(1, 1, ("push", 1)), (1, 1)],
     "a workload entry must have 3 items, not (1, 1)"),
    ("crashes", [(2, 5), (1, 2, 3)],
     "a crash must be [replica, integer time], not (1, 2, 3)"),
    ("partitions", [{"links": [(1, 2)], "start": 1, "end": 5}],
     "a partition must be a Partition, not {'links': [(1, 2)], "
     "'start': 1, 'end': 5}"),
    ("deliveries", [(1, 1, 1, 5)],
     "deliveries must be a dict or None, not [(1, 1, 1, 5)]"),
    ("workload", 5, "workload must be a list, not 5"),
])
def test_malformed_in_memory_scenario_is_a_config_error(field, value,
                                                        message):
    # the shapes `run` unpacks; the error names the field and its first
    # bad entry, not the whole list
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(1, 1, ("push", 1))])
    setattr(sc, field, value)
    with pytest.raises(ConfigError) as info:
        run(sc)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value", [
    ("workload", [(10**4300, 1, ("push", 1))]),
    ("seed", 10**4300),
    ("workload", [(1, 1, ("push", 10**4300))]),
    ("n", 10**18), ("delay_max", 10**18), ("snapshot_every", 10**18),
    ("seed", -10**18), ("crashes", [(2, 10**18)]),
    ("partitions", [Partition([(1, 2)], -10**18, 5)]),
    ("deliveries", {(2, 1, 1): 10**18}),
    ("deliveries", {(2, 1, 10**18): 5}),
], ids=["time_past_digit_limit", "seed_past_digit_limit",
        "op_past_digit_limit", "n", "delay_max", "snapshot_every", "seed",
        "crash_time", "partition_start", "delivery_time", "delivery_key"])
def test_integer_of_more_than_18_digits_is_a_config_error(field, value):
    # one bound on every integer of a scenario; an int past the digit
    # limit, which has no repr, is named, not printed
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(1, 1, ("push", 1))])
    setattr(sc, field, value)
    with pytest.raises(ConfigError, match="of more than 18 digits"):
        run(sc)


def test_integers_of_18_digits_run_and_check(tmp_path):
    # delivery times past 18 digits are the sums of two bounded ints; the
    # reader takes their lines through `json.loads`
    big = 10**18 - 1
    sc = Scenario(n=3, datatype="intlog", recon="bfs",
                  workload=[(big - 5, 1, ("push", 1)), (big, 2, ("push", 2))],
                  seed=-big, crashes=[(3, big)], delay_max=big,
                  partitions=[Partition([(1, 2)], -big, big)])
    path = tmp_path / "t.jsonl"
    run(sc).to_jsonl(path)
    verdicts = run_all_checks(Trace.from_jsonl(path))
    assert verdicts == run_all_checks(run(sc)) and verdicts["ok"]


def test_send_budget_bounds_replicas_and_commands():
    # n(n-1) channel sends per command; `_Sim` validates before it builds
    one = [(1, 1, ("push", 1))]
    many = [(t, 1, ("push", t)) for t in range(50000)]
    for n, workload in ((1000, one), (1, []), (5, many)):
        sim._validate(Scenario(n=n, datatype="intlog", recon="bfs",
                               workload=workload))
    for n, workload in ((1001, one), (1001, []), (5, many + one),
                        (10**15, one)):
        with pytest.raises(ConfigError, match="channel sends"):
            sim._validate(Scenario(n=n, datatype="intlog", recon="bfs",
                                   workload=workload))


def test_scenario_json_roundtrip(tmp_path):
    sc = random_scenario(7, "fair")
    path = tmp_path / "sc.json"
    sc.save(path)
    again = Scenario.load(path)
    assert again == sc
    assert run(again).events == run(sc).events


def test_scenario_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"n": 2})


def test_trace_jsonl_roundtrip(tmp_path):
    trace = run(fig1_scenario("bfs"))
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(path)
    again = Trace.from_jsonl(path)
    assert again.meta == trace.meta
    assert again.events == trace.events
    with open(path) as fh:
        first = json.loads(fh.readline())
    assert first["schema"] == 4


def test_trace_from_jsonl_rejects_non_trace(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"nope": 1}\n')
    with pytest.raises(ConfigError):
        Trace.from_jsonl(path)


def test_trace_steps_strictly_increase():
    trace = run(random_scenario(9, "fair"))
    steps = [ev["t"] for ev in trace.events]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_random_scenario_with_faults_converges_and_safe():
    trace = run(random_scenario(11, "fair"))
    assert check_convergence(trace)["ok"]
    assert check_safety(trace)["ok"]


@pytest.mark.parametrize("recon", ["bfs", "fair"])
def test_crashed_replica_is_silent(recon):
    # the simulator alone owns crashes: after its crash event a replica
    # sends, delivers, inserts and snapshots nothing
    for seed in range(10):
        sc = random_scenario(seed, recon)
        assert len(sc.crashes) == 1
        crashed = set()
        for ev in run(sc).events:
            assert ev.get("replica") not in crashed, (seed, ev)
            assert ev.get("src") not in crashed, (seed, ev)
            if ev["kind"] == "crash":
                crashed.add(ev["replica"])
        assert crashed == {sc.crashes[0][0]}


@pytest.mark.parametrize("build, recon", [(random_scenario, "bfs"),
                                          (random_scenario, "fair"),
                                          (continuous_scenario, "lifo")])
@pytest.mark.parametrize("every", [1, 10])
def test_keep_is_exact(build, recon, every):
    # every keep is the naive LCP of consecutive decoded snapshots, and
    # every decoded snapshot is the reconciliation of the DAG rebuilt
    # from the trace's inserts
    reconcile = oracle_f_fair if recon == "fair" else get_reconciler(recon)
    revoked = 0
    for seed in range(8):
        sc = build(seed, recon, commands=30)
        sc.snapshot_every = every
        prev = {}
        for ev, h, dag in trace_snapshots(run(sc).events):
            old = prev.get(ev["replica"], [])
            assert ev["keep"] == lcp(old, h), (seed, ev)
            revoked += len(old) - ev["keep"]
            assert h == [[c.issuer, c.seq] for c in reconcile(dag)], \
                (seed, ev)
            prev[ev["replica"]] = h
    assert revoked > 0


def _respaced(path, tmp_path):
    """The trace at `path` rewritten with default `json.dumps` spacing,
    keys in reverse order, a blank line, a line with surrounding spaces
    and no final newline."""
    lines = [json.dumps(dict(sorted(json.loads(line).items(), reverse=True)))
             for line in path.read_text().splitlines()]
    lines.insert(2, "")
    lines[3] = " \t%s  " % lines[3]
    other = tmp_path / "respaced.jsonl"
    other.write_text("\n".join(lines))
    return other


def test_trace_reads_any_spacing(tmp_path):
    trace = run(random_scenario(3, "fair", commands=40))
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(path)
    # compact JSON with sorted keys, one value per line
    first = path.read_text().splitlines()[1]
    assert ", " not in first and ": " not in first
    assert list(json.loads(first)) == sorted(json.loads(first))
    compact = Trace.from_jsonl(path)
    again = Trace.from_jsonl(_respaced(path, tmp_path))
    assert again.meta == compact.meta == trace.meta
    assert again.events == compact.events == trace.events
    assert run_all_checks(again) == run_all_checks(compact)


def _per_line_json_loads(path):
    """The reference reader: `json.loads` of every non-blank line."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(json.loads(line))
                # not JSON, an int past the digit limit, nested too deep
                except (ValueError, RecursionError):
                    return number
    return values


def _read(path):
    """The trace reader on every line of `path`, a meta line or none, with
    its records expanded into events as `Trace.events` expands them."""
    with open(path, encoding="utf-8") as fh:
        return sim._expand(sim._read_lines(fh, path))


def _expanded(values):
    """Per-line values with each `sends` or `recv` value replaced by its
    events, as schema 2 wrote them: the i-th [dst, deliver_at] pair a
    `send` at step t + i, and after a `recv` value's k pairs the deliver
    and the insert of its uid at its src, at steps t + k and t + k + 1."""
    events = []
    for v in values:
        kind = v.get("kind") if isinstance(v, dict) else None
        if kind not in ("sends", "recv"):
            events.append(v)
            continue
        for i, (dst, deliver_at) in enumerate(v["to"]):
            events.append({"at": v["at"], "deliver_at": deliver_at,
                           "dst": dst, "kind": "send", "src": v["src"],
                           "t": v["t"] + i, "uid": v["uid"]})
        if kind == "recv":
            t = v["t"] + len(v["to"])
            events.append({"kind": "deliver", "replica": v["src"], "t": t,
                           "uid": v["uid"]})
            events.append({"kind": "insert", "parents": v["parents"],
                           "replica": v["src"], "t": t + 1,
                           "vertex": v["uid"]})
    return events


def _well_formed_sends(v):
    """Whether `sends` or `recv` value `v` has what its expansion needs:
    an integer `t`, one or more [dst, deliver_at] lists in `to`, a 2-item
    `uid` list, an `at`, a `src` and, in a `recv` value, a list of 2-item
    lists in `parents`."""
    to, uid, parents = v.get("to"), v.get("uid"), v.get("parents")
    return (type(v.get("t")) is int and "at" in v and "src" in v
            and isinstance(to, list) and len(to) > 0
            and all(isinstance(p, list) and len(p) == 2 for p in to)
            and isinstance(uid, list) and len(uid) == 2
            and (v["kind"] == "sends" or isinstance(parents, list)
                 and all(isinstance(p, list) and len(p) == 2
                         for p in parents)))


# lines the writer makes from its deliver and append templates
_DELIVER = '{"kind":"deliver","replica":1,"t":5,"uid":[1,2]}'
_APPEND = ('{"kind":"append","op":["push",1],"replica":1,"resp":"ok",'
           '"seq":1,"t":5}')


@pytest.mark.parametrize("text", [
    '{"a": 1}\n\n  [2] \n\t3\r\n"x"',
    '"abc\n def"\n',
    '[1\n],[2]\n',
    '1],[2\n',
    '{"a": 1} {"b": 2}\n',
    '{"a": 1}{"b": 2}\n',
    '1 2\n',
    '\x0c\n{"a": 1}\n',
    '\x0c{"a": 1}\n',
    '{"a": 1}\x0c\n',
    '\u3000[1]\n',
    '\ufeff[1]\n',
    '[Infinity, -Infinity, 1e5, -0.5]\n',
    '[1.]\n',
    '[-]\n',
    'tru\n',
    'null\n',
    '"\u2028 \\u2029 "\n',
    '"tab\there"\n',
    '[1]\r[2]\r\n[3]',
    '{"a": 1}\n{"b": ',
    *(_DELIVER + '\n%s\n' % line + _DELIVER + '\n' for line in (
        _DELIVER.replace(':1,', ':01,'),
        _DELIVER.replace(':1,', ':-0,'),
        _DELIVER.replace(':1,', ':1.0,'),
        _DELIVER.replace(':1,', ':1e3,'),
        _DELIVER.replace(':1,', ':1%s,' % ('0' * 29)),
        _DELIVER.replace(':1,', ':1%s,' % ('0' * 4300)),
        _DELIVER.replace('[1,2]', '[1,2,3]'),
        # Unicode decimal digits are not JSON digits
        _DELIVER.replace(':1,', ':\u0663,'),
        _DELIVER.replace('[1,2]', '[1,\uff13]'),
        _DELIVER.replace(',', ', ', 1),
        _DELIVER + _DELIVER,
        _DELIVER + ' ' + _DELIVER,
        '{"kind":"insert","parents":[],"replica":1,"t":5,"vertex":[1,2]}',
        '{"add":[],"keep":0,"kind":"history","replica":1,"t":5}',
        '[' * 100000,
    )),
    _DELIVER + '\r\n' + _DELIVER + '\r\n',
    _DELIVER + '\n' + _DELIVER,
    # JSON takes a string with a raw DEL, a raw non-ASCII character or an
    # escape, and refuses one with a raw tab
    *(_DELIVER + '\n%s\n' % line + _DELIVER + '\n' for line in (
        _APPEND.replace('"ok"', '"o\tk"'),
        _APPEND.replace('"ok"', '"o\x7fk"'),
        _APPEND.replace('"ok"', '"\u00e9"'),
        _APPEND.replace('"ok"', '"o\\\\k"'),
    )),
], ids=range(42))
def test_reader_matches_per_line_json_loads(tmp_path, text):
    path = tmp_path / "lines.jsonl"
    path.write_text(text, encoding="utf-8")
    expected = _per_line_json_loads(path)
    if isinstance(expected, list):
        assert _read(path) == _expanded(expected)
    else:
        with pytest.raises(ConfigError, match="line %d is not JSON"
                           % expected):
            _read(path)


def _crlf(path, tmp_path):
    other = tmp_path / "crlf.jsonl"
    other.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return other


@pytest.mark.parametrize("name, recon", [("fig1", "bfs"),
                                         ("starvation", "fair"),
                                         ("random", "fair"),
                                         ("continuous", "lifo")])
def test_reader_matches_per_line_json_loads_on_traces(tmp_path, name,
                                                       recon):
    # template lines are parsed in runs, every other line by itself; the
    # result is per-line json.loads on the file as written, with CRLF line
    # ends and re-spaced, with each sends and recv line expanded
    path = tmp_path / "t.jsonl"
    run(BUILTIN[name](2, recon)).to_jsonl(path)
    for copy in (path, _crlf(path, tmp_path), _respaced(path, tmp_path)):
        expected = _per_line_json_loads(copy)
        assert isinstance(expected, list)
        expected = _expanded(expected)
        assert len(expected) > 100
        assert _read(copy) == expected


def test_parsed_events_share_their_keys(tmp_path):
    # read from a file, and parsed from the lines of a run
    path = tmp_path / "t.jsonl"
    trace = run(random_scenario(4, "bfs"))
    trace.to_jsonl(path)
    read = Trace.from_jsonl(path).events
    for events in (read, trace.events):
        keys = sum(map(len, events))
        distinct = len({id(key) for ev in events for key in ev})
        assert keys > 30000 and distinct < keys / 20
    # and they hold one string per kind, not one per event, also where
    # every line is parsed by itself
    respaced = Trace.from_jsonl(_respaced(path, tmp_path)).events
    for events in (read, trace.events, respaced):
        kinds = {ev["kind"] for ev in events}
        assert len({id(ev["kind"]) for ev in events}) == len(kinds) > 3


@pytest.mark.parametrize("recon", ["bfs", "fair", "lifo"])
def test_run_leaves_only_the_trace(recon):
    # the simulator's cyclic references are cut when `run` returns, so its
    # replicas go with it, without a collection
    gc.collect()
    gc.disable()
    try:
        trace = run(random_scenario(1, recon, commands=40))
        left = [o for o in gc.get_objects()
                if isinstance(o, (Replica, ReliableBroadcast, sim._Sim))]
    finally:
        gc.enable()
    assert trace.events and left == []


def _two_values_on_one_line(path):
    lines = path.read_text().splitlines()
    lines[4] += " " + lines[5]
    path.write_text("\n".join(lines) + "\n")
    return 5


def _cut_mid_line(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6]) + "\n" + lines[6][:20])
    return 7


@pytest.mark.parametrize("spoil", [_two_values_on_one_line, _cut_mid_line])
def test_bad_line_is_usage_error_naming_it(capsys, tmp_path, spoil):
    path = tmp_path / "t.jsonl"
    run(fig1_scenario("bfs")).to_jsonl(path)
    number = spoil(path)
    assert main(["check", "--trace", str(path)]) == 2
    assert "line %d is not JSON" % number in capsys.readouterr().err


def _writer_scenarios():
    for recon in ("bfs", "fair"):
        yield fig1_scenario(recon)
        yield starvation_scenario(recon)
    # disabled ops: append_bottom lines
    yield Scenario.load(pathlib.Path(__file__).parent / "fixtures"
                        / "nfs_bottoms.json")
    for seed in range(6):
        for recon in ("bfs", "fair", "lifo"):
            yield random_scenario(seed, recon)
            yield continuous_scenario(seed, recon)


def test_written_lines_are_the_encoder_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    formatted = {"sends", "recv", "deliver", "insert", "history"}
    appends = {"append", "append_bottom"}
    templated = set()
    for sc in _writer_scenarios():
        trace = run(sc)
        trace.to_jsonl(path)        # the simulator's lines, as it wrote them
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        values = [json.loads(line) for line in lines[1:]]
        assert lines == [sim._encode(v) + "\n"
                         for v in [trace.meta, *values]], sc.name
        # one line per fan-out to the n-1 other replicas, and its send
        # events are the trace's
        assert all(len(v["to"]) == sc.n - 1 for v in values
                   if v["kind"] in ("sends", "recv")), sc.name
        assert _expanded(values) == trace.events \
            == Trace.from_jsonl(path).events, sc.name
        # the reader's grammar takes every line of the simulator's own
        # formats, an append's only where JSON escapes neither its op nor
        # its resp, and all of them occur
        kinds = set()
        for v, line in zip(values, lines[1:]):
            if v["kind"] in formatted or (v["kind"] in appends
                                          and "\\" not in line):
                assert sim._template_line()(line), line
                templated.add(v["kind"])
            kinds.add(v["kind"])
        # a deliver line is a parked receipt's, which not every run has;
        # the runs together have them, as `templated` shows below
        assert formatted - {"deliver"} <= kinds, sc.name
        assert "send" not in kinds, sc.name
    assert templated == formatted | appends


def _perturbed(ev):
    """Copies of an event of one of the simulator's line formats with one
    field of another type or shape, one key too many or too few, or a kind
    that is not a string."""
    odd = [True, 1.5, "1", None, 2**70, -1, [1]]
    for key, value in ev.items():
        if type(value) is int or value is None:     # t, at, deliver_at, ...
            for x in odd:
                yield {**ev, key: x}
        elif key in ("uid", "vertex"):
            for i in (0, 1):
                for x in odd:
                    pair = list(value)
                    pair[i] = x
                    yield {**ev, key: pair}
            for x in (tuple(value), value[:1], [*value, 1],
                      {0: value[0], 1: value[1]}):
                yield {**ev, key: x}
        elif key in ("parents", "add", "to"):
            yield {**ev, key: [tuple(p) for p in value]}
            yield {**ev, key: tuple(value)}
            yield {**ev, key: {}}
            yield {**ev, key: [[1, 2], [1]]}
            yield {**ev, key: [[1, 2], [1, 2, 3]]}
            yield {**ev, key: [[1, True], [1, 2]]}
            yield {**ev, key: [{0: 1, 1: 2}]}
            yield {**ev, key: [[1, 2], [1, 2.0]]}
            yield {**ev, key: [[1, 2], [1, None]]}
            yield {**ev, key: [[1, 2], "ab"]}
            yield {**ev, key: []}
        elif key in ("op", "resp"):
            # JSON escapes the first three; a float, a nested list and a
            # 19-digit int are outside the template, the others inside
            for x in ('say "hi"', "a\\b", "caf\u00e9", 1.5, [["push", 1]],
                      10**18, [], "", ["push", 10**18 - 1, "x"]):
                yield {**ev, key: x}
    for extra in ("x", "zz", 0):
        yield {**ev, extra: 1}
    for key in ev:
        less = {k: v for k, v in ev.items() if k != key}
        yield less
        yield {**less, "x": 1}
    for kind in (1, None, ["send"], b"send", ("send",), "send"):
        yield {**ev, "kind": kind}


def test_template_lines_match_the_encoder_on_odd_events(tmp_path):
    path = tmp_path / "odd.jsonl"
    run(random_scenario(0, "bfs")).to_jsonl(path)
    values = _per_line_json_loads(path)[1:]
    samples = []
    for kind in ("sends", "deliver", "insert", "history", "recv"):
        samples.append(next(v for v in values if v["kind"] == kind))
    sends, recv = samples[0], samples[4]
    assert len(sends["to"]) == len(recv["to"]) == 4     # n - 1 pairs
    samples.append({**sends, "to": sends["to"][:1]})
    samples.append({**sends, "to": [sends["to"][0], [2, None]]})
    samples.append({**recv, "to": [recv["to"][0], [2, None]]})
    samples.append(next(v for v in values
                        if v["kind"] == "recv" and len(v["parents"]) > 1))
    samples.append({**recv, "parents": []})
    samples.append(next(v for v in values
                        if v["kind"] == "insert" and len(v["parents"]) > 1))
    samples.append({**samples[2], "parents": []})
    samples.append(next(v for v in values
                        if v["kind"] == "history" and len(v["add"]) > 1))
    samples.append({**samples[3], "add": []})
    samples.append(next(v for v in values if v["kind"] == "append"))
    run(Scenario.load(pathlib.Path(__file__).parent / "fixtures"
                      / "nfs_bottoms.json")).to_jsonl(path)
    samples.append(next(v for v in _per_line_json_loads(path)[1:]
                        if v["kind"] == "append_bottom"
                        and "\\" not in sim._encode(v)))
    lines = []
    for sample in samples:
        assert sim._template_line()(sim._encode(sample))
        for ev in _perturbed(sample):
            try:
                lines.append(sim._encode(ev))
            except TypeError:   # keys that do not sort, or a bytes kind
                pass
    assert len(lines) > 500
    # a sends or recv line the reader cannot expand is refused, naming it
    kept = []
    for line in lines:
        v = json.loads(line)
        if v.get("kind") not in ("sends", "recv") or _well_formed_sends(v):
            kept.append(line)
            continue
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="line 1 is a malformed %s "
                           % v["kind"]):
            _read(path)
    assert len(lines) - len(kept) > 100
    # the reader takes the encoder's other odd lines, some in the template
    # form and most not, as per-line json.loads does, and expands them
    path.write_text("".join(line + "\n" for line in kept))
    assert _read(path) == _expanded(_per_line_json_loads(path))


class _EveryReceipt(sim._Sim):
    """The simulator that schedules every channel receipt, also of a
    vertex the destination already holds, and writes its issuers' sends
    lines and the `to` text of its forwards through the encoder."""

    def _send(self, src, dsts, msg):
        to = []
        for dst in dsts:
            at = self._deliver_time(src, dst, msg)
            to.append([dst, at])
            if at is not None:
                self._push(at, self._handle_recv, src, dst, msg)
        if src != msg.vertex.issuer:    # held for the receipt's lines
            self.held = (self.step + 1, sim._encode(to)[1:-1])
            self.step += len(to)
            return
        self._emit({"kind": "sends", "src": src, "to": to,
                    "uid": [msg.vertex.issuer, msg.vertex.seq],
                    "at": self.now})
        self.step += len(to) - 1


def _schedule_scenarios():
    for seed in range(10):
        for recon in ("bfs", "fair"):
            yield random_scenario(seed, recon)
    for seed in range(5):
        for recon in ("bfs", "fair", "lifo"):
            yield continuous_scenario(seed, recon)
    for recon in ("bfs", "fair"):
        yield starvation_scenario(recon)
    sc = random_scenario(5, "fair")
    sc.quiescence_flush = False
    yield sc


def test_unscheduled_duplicate_receipts_change_no_event():
    skipped = 0
    for sc in _schedule_scenarios():
        every, held = _EveryReceipt(sc), sim._Sim(sc)
        assert every.run().events == held.run().events, (sc.name, sc.seed)
        skipped += every.push_counter - held.push_counter
    assert skipped > 0


class _OtherParents(sim._Sim):
    """The simulator that r-delivers one vertex to one replica that is not
    its issuer with a parent fewer."""

    patched = None

    def _rb_deliver(self, rid, msg):
        if (self.patched is None and msg.vertex.issuer != rid
                and len(msg.parents) > 1):
            dropped = min(msg.parents, key=lambda p: (p.issuer, p.seq))
            msg = BroadcastMessage(msg.vertex, msg.parents - {dropped})
            self.patched = rid, msg.vertex
        super()._rb_deliver(rid, msg)


def test_insert_lines_show_each_replicas_own_parents():
    sc = random_scenario(0, "bfs")
    assert check_safety(run(sc))["past_immutability"]["ok"]
    other = _OtherParents(sc)
    trace = other.run()
    rid, v = other.patched
    shown = {ev["replica"]: len(ev["parents"]) for ev in trace.events
             if ev["kind"] == "insert"
             and ev["vertex"] == [v.issuer, v.seq]}
    assert shown[rid] == min(shown.values()) < max(shown.values())
    assert not check_safety(trace)["past_immutability"]["ok"]


def test_scripted_deliveries_without_a_flush_leave_sends_undelivered(
        tmp_path):
    # fig1's script times some deliveries; without a flush the others are
    # never scheduled, and the run is not quiescent
    sc = fig1_scenario("bfs")
    sc.quiescence_flush = False
    trace = run(sc)
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(path)
    undelivered = [ev for ev in trace.events
                   if ev["kind"] == "send" and ev["deliver_at"] is None]
    assert len(undelivered) == 16
    verdicts = run_all_checks(trace)
    assert "convergence" not in verdicts
    assert verdicts["ok"]
    assert run_all_checks(Trace.from_jsonl(path)) == verdicts
