import json

import pytest

from dagrepl import sim
from dagrepl.checks import check_convergence, check_safety, run_all_checks
from dagrepl.cli import main
from dagrepl.reconcile import get_reconciler
from dagrepl.sim import ConfigError, Partition, Scenario, Trace, \
    full_histories, run
from dagrepl.scenarios import FIG1_BFS_ORDER, FIG1_FAIR_ORDER, \
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
    assert first["schema"] == 2


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
                except json.JSONDecodeError:
                    return number
    return values


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
], ids=range(21))
def test_reader_matches_per_line_json_loads(tmp_path, text):
    path = tmp_path / "lines.jsonl"
    path.write_text(text, encoding="utf-8")
    expected = _per_line_json_loads(path)
    if isinstance(expected, list):
        assert sim._read_jsonl(path) == expected
    else:
        with pytest.raises(ConfigError, match="line %d is not JSON"
                           % expected):
            sim._read_jsonl(path)


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
    for seed in range(6):
        for recon in ("bfs", "fair", "lifo"):
            yield random_scenario(seed, recon)
            yield continuous_scenario(seed, recon)


def test_written_lines_are_the_encoder_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    for sc in _writer_scenarios():
        trace = run(sc)
        trace.to_jsonl(path)
        expected = "".join(sim._encode(ev) + "\n"
                           for ev in [trace.meta, *trace.events])
        assert path.read_text(encoding="utf-8") == expected, sc.name


def _perturbed(ev):
    """Copies of a templated event with one field of another type or
    shape, one key too many or too few, or a kind that is not a string."""
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
        elif key == "parents":
            yield {**ev, key: [tuple(p) for p in value]}
            yield {**ev, key: tuple(value)}
            yield {**ev, key: {}}
            yield {**ev, key: [[1, 2], [1]]}
            yield {**ev, key: [[1, 2], [1, 2, 3]]}
            yield {**ev, key: [[1, True], [1, 2]]}
            yield {**ev, key: [{0: 1, 1: 2}]}
            yield {**ev, key: [[1, 2], [1, 2.0]]}
    for extra in ("x", "zz", 0):
        yield {**ev, extra: 1}
    for key in ev:
        less = {k: v for k, v in ev.items() if k != key}
        yield less
        yield {**less, "x": 1}
    for kind in (1, None, ["send"], b"send", ("send",)):
        yield {**ev, "kind": kind}


def test_template_lines_match_the_encoder_on_odd_events():
    trace = run(random_scenario(0, "bfs"))
    samples = []
    for kind in ("send", "deliver", "insert"):
        samples.append(next(ev for ev in trace.events
                            if ev["kind"] == kind))
    samples.append({**samples[0], "deliver_at": None})
    samples.append(next(ev for ev in trace.events
                        if ev["kind"] == "insert" and len(ev["parents"]) > 1))
    samples.append({**samples[2], "parents": []})
    checked = 0
    for sample in samples:
        assert sim._line(sample) == sim._encode(sample)
        for ev in _perturbed(sample):
            try:
                expected = sim._encode(ev)
            except (TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    sim._line(ev)
            else:
                assert sim._line(ev) == expected, ev
            checked += 1
    assert checked > 300


class _EveryReceipt(sim._Sim):
    """The simulator that schedules every channel receipt, also of a
    vertex the destination already holds."""

    def _send(self, src, dst, msg):
        at = self._deliver_time(src, dst, msg)
        self._emit({"kind": "send", "src": src, "dst": dst,
                    "uid": [msg.vertex.issuer, msg.vertex.seq],
                    "at": self.now, "deliver_at": at})
        if at is not None:
            self._push(at, self._handle_recv, src, dst, msg)


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
