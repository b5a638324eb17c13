import json
import re

import pytest

from dagrepl import cli
from dagrepl.cli import main
from dagrepl.scenarios import random_scenario


def test_run_builtin_random(capsys, tmp_path):
    trace_out = tmp_path / "trace.jsonl"
    report_out = tmp_path / "report.json"
    rc = main(["run", "--scenario", "random", "--seed", "4",
               "--recon", "fair", "--trace-out", str(trace_out),
               "--report-out", str(report_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "safety       PASS" in out
    assert "convergence  PASS" in out
    report = json.loads(report_out.read_text())
    assert report["verdicts"]["ok"] is True
    assert report["config"]["seed"] == 4


def test_check_agrees_with_run(capsys, tmp_path):
    trace_out = tmp_path / "trace.jsonl"
    rc_run = main(["run", "--scenario", "random", "--seed", "6",
                   "--recon", "fair", "--trace-out", str(trace_out)])
    out_run = capsys.readouterr().out
    rc_check = main(["check", "--trace", str(trace_out)])
    out_check = capsys.readouterr().out
    assert rc_run == rc_check == 0
    assert out_run == out_check


def test_run_scenario_file(capsys, tmp_path):
    path = tmp_path / "sc.json"
    random_scenario(8, "bfs").save(path)
    rc = main(["run", "--scenario", str(path)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_run_starvation_bfs_fails(capsys):
    rc = main(["run", "--scenario", "starvation", "--recon", "bfs",
               "--window", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fairness     FAIL" in out


def test_run_starvation_fair_passes(capsys):
    rc = main(["run", "--scenario", "starvation", "--recon", "fair",
               "--window", "5"])
    assert rc == 0
    capsys.readouterr()


def test_fig1_output(capsys):
    rc = main(["fig1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f_bfs:" in out and "f_fair:" in out
    # the two concurrent conflicts resolve oppositely under the two orders
    assert "(rmdir /d2, 1, 2) -> bottom" in out
    assert "(mkdir /d2 d4, 2, 2) -> bottom" in out


def test_fuzz(capsys):
    rc = main(["fuzz", "--scenario", "random", "--seeds", "3",
               "--recon", "fair"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3/3 seeds passed" in out


def test_missing_trace_is_usage_error(capsys, tmp_path):
    rc = main(["check", "--trace", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_builtin_is_usage_error(capsys):
    rc = main(["run", "--scenario", "no-such-file.json"])
    assert rc == 2
    capsys.readouterr()


def test_bad_args_exit_code(capsys):
    assert main(["run"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args, named", [
    (["run", "--scenario", "starvation", "--recon", "fair",
      "--window", "-100"], "--window"),
    (["run", "--scenario", "starvation", "--recon", "fair",
      "--window", "0"], "--window"),
    (["run", "--scenario", "fig1", "--window", "ten"], "--window"),
    (["check", "--trace", "t.jsonl", "--window", "0"], "--window"),
    (["fuzz", "--scenario", "random", "--window", "0"], "--window"),
    (["fuzz", "--scenario", "random", "--seeds", "-3"], "--seeds"),
    (["fuzz", "--scenario", "random", "--seeds", "0"], "--seeds"),
], ids=["run_negative_window", "run_zero_window", "run_word_window",
        "check_zero_window", "fuzz_zero_window", "fuzz_negative_seeds",
        "fuzz_zero_seeds"])
def test_count_options_must_be_positive(capsys, args, named):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "argument %s: must be an integer >= 1" % named in err


def _fig1_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert main(["run", "--scenario", "fig1", "--trace-out", str(path)]) == 0
    return path


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _edit_meta(path, edit):
    """Rewrite the trace at `path` with `edit` applied to its meta line."""
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    edit(meta)
    path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")


def _not_utf8(path):
    data = path.read_bytes()
    path.write_bytes(data[:40] + b"\xff" + data[41:])


def _drop_crashed(path):
    _edit_meta(path, lambda meta: meta.pop("crashed"))


def _bogus_recon(path):
    _edit_meta(path, lambda meta: meta["scenario"].update(recon="bogus"))


def _string_n(path):
    _edit_meta(path, lambda meta: meta["scenario"].update(n="3"))


def _integer_crashed(path):
    _edit_meta(path, lambda meta: meta.update(crashed=5))


def _list_recon(path):
    _edit_meta(path, lambda meta: meta["scenario"].update(recon=["fair"]))


def _string_quiescent(path):
    _edit_meta(path, lambda meta: meta.update(quiescent="yes"))


def _huge_n(path):
    # n far above the replicas the events name or the meta crashes
    _edit_meta(path, lambda meta: meta["scenario"].update(n=100000))


def _edit_events(path, edit):
    """Rewrite the trace at `path` with `edit` applied to its event list."""
    lines = path.read_text().splitlines()
    events = [json.loads(line) for line in lines[1:]]
    edit(events)
    path.write_text("\n".join(lines[:1] + [json.dumps(ev) for ev in events])
                    + "\n")


def _first(events, kind):
    return next(ev for ev in events if ev["kind"] == kind)


def _unknown_parent(path):
    def edit(events):
        _first(events, "insert")["parents"].append([99, 1])
    _edit_events(path, edit)


def _repeated_insert(path):
    def edit(events):
        events.append(dict(_first(events, "insert"), t=events[-1]["t"] + 1))
    _edit_events(path, edit)


def _insert_outside_replicas(path):
    def edit(events):
        _first(events, "insert")["replica"] = 99
    _edit_events(path, edit)


def _recv_outside_replicas(path):
    # a recv line's src is the replica of its deliver and its insert
    def edit(events):
        _first(events, "recv")["src"] = 4
    _edit_events(path, edit)
    return "replica 4 is not in 1..3"


def _history_outside_replicas(path):
    def edit(events):
        _first(events, "history")["replica"] = 0
    _edit_events(path, edit)


def _no_kind(path):
    def edit(events):
        del events[0]["kind"]
    _edit_events(path, edit)


def _short_vertex(path):
    def edit(events):
        _first(events, "insert")["vertex"] = [1]
    _edit_events(path, edit)


def _late_first_insert(path):
    def edit(events):
        _first(events, "insert")["t"] = 10 ** 6
    _edit_events(path, edit)


def _send_without_t(path):
    def edit(events):
        del _first(events, "sends")["t"]
    _edit_events(path, edit)


def _short_history_element(path):
    def edit(events):
        _first(events, "history")["add"].append([1])
    _edit_events(path, edit)


def _schema_1(path):
    _edit_meta(path, lambda meta: meta.update(schema=1))
    return "record the trace again"


def _schema_2(path):
    # schema 2 wrote a line per channel send, not one per fan-out
    _edit_meta(path, lambda meta: meta.update(schema=2))
    return "record the trace again"


def _schema_3(path):
    # schema 3 wrote a first receipt as sends, deliver and insert lines
    _edit_meta(path, lambda meta: meta.update(schema=3))
    return "record the trace again"


def _schema_float(path):
    # 4.0 == 4, but no writer writes a float schema
    _edit_meta(path, lambda meta: meta.update(schema=4.0))
    return "record the trace again"


def _string_keep(path):
    def edit(events):
        _first(events, "history")["keep"] = "0"
    _edit_events(path, edit)


def _negative_keep(path):
    def edit(events):
        _first(events, "history")["keep"] = -1
    _edit_events(path, edit)


def _keep_above_previous(path):
    def edit(events):
        ev = _first(events, "history")
        ev["keep"] = len(ev["add"]) + 1
    _edit_events(path, edit)


def _history_without_delta(path):
    def edit(events):
        ev = _first(events, "history")
        ev["h"] = ev.pop("add")
        del ev["keep"]
    _edit_events(path, edit)


def _string_add_element(path):
    def edit(events):
        _first(events, "history")["add"] = ["ab"]
    _edit_events(path, edit)


def _append_without_seq(path):
    def edit(events):
        del _first(events, "append")["seq"]
    _edit_events(path, edit)


def _unknown_kind(path):
    def edit(events):
        _first(events, "sends")["kind"] = "bogus"
    _edit_events(path, edit)


@pytest.mark.parametrize("spoil", [_truncate, _not_utf8, _drop_crashed,
                                   _bogus_recon, _unknown_parent,
                                   _repeated_insert,
                                   _insert_outside_replicas,
                                   _recv_outside_replicas,
                                   _history_outside_replicas,
                                   _no_kind, _short_vertex,
                                   _late_first_insert, _send_without_t,
                                   _short_history_element,
                                   _append_without_seq, _unknown_kind,
                                   _string_n, _integer_crashed, _list_recon,
                                   _string_quiescent, _schema_1, _schema_2,
                                   _schema_3, _schema_float,
                                   _string_keep, _negative_keep,
                                   _keep_above_previous,
                                   _history_without_delta,
                                   _string_add_element, _huge_n])
def test_check_bad_trace_is_usage_error(capsys, tmp_path, spoil):
    path = _fig1_trace(tmp_path)
    message = spoil(path) or ""
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err, err


def test_other_schema_is_refused_before_its_body(capsys, tmp_path):
    # the meta is read first: a schema-2 or schema-3 trace is refused for
    # its schema, not for a later line that is not JSON
    for schema in (2, 3):
        path = _fig1_trace(tmp_path)
        _edit_meta(path, lambda meta: meta.update(schema=schema))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace schema %d, not 4" % schema in err, err
        assert "record the trace again" in err, err
        assert re.search(r"line \d", err) is None, err


@pytest.mark.parametrize("line", [
    '{"kind":"deliver","replica":1,"t":1%s,"uid":[1,1]}' % ("0" * 4300),
    "[" * 100000,
], ids=["int_past_digit_limit", "deep_nesting"])
def test_hostile_trace_line_is_usage_error_naming_it(capsys, tmp_path, line):
    path = _fig1_trace(tmp_path)
    lines = path.read_text().splitlines()
    lines[3] = line
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    assert "line 4 is not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("kind, edit", [
    ("sends", {"t": int("9" * 4300)}), ("sends", {"t": 10**18}),
    ("sends", {"t": -10**18}), ("insert", {"t": 10**18, "vertex": "x"}),
], ids=["at_digit_limit", "19_digits", "negative", "malformed_record"])
def test_step_of_more_than_18_digits_is_usage_error(capsys, tmp_path, kind,
                                                    edit):
    # the last step of a sends record at the digit limit has one digit
    # more, which no message could print; the t of a record is checked
    # before its other fields, whose message shows the t
    path = _fig1_trace(tmp_path)
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1)
                  if '"kind":"%s"' % kind in line)
    ev = json.loads(lines[number - 1])
    ev.update(edit)
    lines[number - 1] = json.dumps(ev)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    # the meta is line 1, and every line before the record is one event
    assert capsys.readouterr().err == ("error: trace event %d has a t of "
                                       "more than 18 digits\n" % (number - 1))


@pytest.mark.parametrize("edit", [
    {"t": None}, {"t": "5"}, {"t": True}, {"t": 1.5},
    {"to": None}, {"to": "x"}, {"to": {}}, {"to": []}, {"to": [[2]]},
    {"to": [[2, 9], [3, 9, 1]]}, {"to": [[2, 9], "ab"]}, {"to": [{"2": 9}]},
    {"uid": None}, {"uid": [1]}, {"uid": [1, 1, 1]}, {"uid": "ab"},
    {"uid": {"0": 1, "1": 1}}, {"at": None}, {"src": None},
], ids=lambda edit: "%s=%s" % next(iter(edit.items())))
def test_hostile_sends_line_is_usage_error_naming_it(capsys, tmp_path, edit):
    # a field given as None is left out; an empty `to` is refused, as a
    # line that takes no step
    path = _fig1_trace(tmp_path)
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1)
                  if '"kind":"sends"' in line)
    ev = json.loads(lines[number - 1])
    ev.update(edit)
    lines[number - 1] = json.dumps({k: v for k, v in ev.items()
                                    if v is not None})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line %d is a malformed sends line" % number in err, err


@pytest.mark.parametrize("edit", [
    {"parents": None}, {"parents": "x"}, {"parents": [1]},
    {"parents": [[1]]}, {"parents": [[1, 1], [2, 1, 1]]}, {"to": []},
    {"uid": [1]}, {"src": None}, {"t": 1.5},
], ids=lambda edit: "%s=%s" % next(iter(edit.items())))
def test_hostile_recv_line_is_usage_error_naming_it(capsys, tmp_path, edit):
    # a recv line is checked as a sends line, and its parents as a list of
    # pairs; a field given as None is left out
    path = _fig1_trace(tmp_path)
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1)
                  if '"kind":"recv"' in line)
    ev = json.loads(lines[number - 1])
    ev.update(edit)
    lines[number - 1] = json.dumps({k: v for k, v in ev.items()
                                    if v is not None})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line %d is a malformed recv line" % number in err, err


def _repeat_kept_command(path):
    def edit(events):
        # a later snapshot of a replica adds its first command again
        snaps = [ev for ev in events if ev["kind"] == "history"]
        first = snaps[0]
        later = next(ev for ev in snaps[1:]
                     if ev["replica"] == first["replica"] and ev["keep"])
        later["add"].append(first["add"][0])
    _edit_events(path, edit)


def test_added_repeat_of_kept_command_fails_validity(capsys, tmp_path):
    path = _fig1_trace(tmp_path)
    report = tmp_path / "report.json"
    _repeat_kept_command(path)
    capsys.readouterr()
    assert main(["check", "--trace", str(path),
                 "--report-out", str(report)]) == 1
    safety = json.loads(report.read_text())["verdicts"]["safety"]
    assert not safety["validity"]["ok"]
    assert "repeated command" in safety["validity"]["problems"][0]


def test_failed_verdict_prints_its_first_problems(capsys, tmp_path):
    path = _fig1_trace(tmp_path)
    report = tmp_path / "report.json"
    _repeat_kept_command(path)
    capsys.readouterr()
    assert main(["check", "--trace", str(path),
                 "--report-out", str(report)]) == 1
    out = capsys.readouterr().out.splitlines()
    safety = json.loads(report.read_text())["verdicts"]["safety"]
    failed = [name for name, v in safety.items()
              if isinstance(v, dict) and not v["ok"]]
    assert "validity" in failed
    at = out.index("safety       FAIL")
    assert sorted(out[at + 1:at + 1 + len(failed)]) == [
        "  %s: %s" % (name, safety[name]["problems"][0]) for name in failed]
    assert out[at + 1].startswith("  validity: repeated command in history")
    # a passing verdict prints no detail
    assert out[at + 1 + len(failed)] == "stability    PASS"


def test_swapped_fair_snapshot_fails_recon_equivalence(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    assert main(["run", "--scenario", "random", "--recon", "fair",
                 "--trace-out", str(path)]) == 0
    swapped = {}

    def edit(events):
        # two commands one snapshot adds trade places
        ev = next(ev for ev in events
                  if ev["kind"] == "history" and len(ev["add"]) > 1)
        ev["add"][:2] = ev["add"][1::-1]
        swapped.update(ev)
    _edit_events(path, edit)
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("safety       FAIL")
    assert out[at + 1] == (
        "  recon_equivalence: replica %d snapshot at t=%d != recon(dag)"
        % (swapped["replica"], swapped["t"]))


def test_failed_fairness_names_the_starving_replica(capsys):
    assert main(["run", "--scenario", "starvation", "--recon", "bfs",
                 "--window", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("fairness     FAIL")
    assert out[at + 1] == "  starving replicas: 2"
    assert out[at + 2] == "convergence  PASS"


def test_failed_fairness_and_convergence_print_their_counts(capsys):
    verdicts = {"fairness": {"name": "fairness", "ok": False,
                             "missing_from_stable": [(1, 4), (2, 1)],
                             "starvation": {1: "pass", 2: "indeterminate"}},
                "convergence": {"name": "convergence", "ok": False,
                                "distinct_final_histories": 2},
                "ok": False}
    assert cli._print_verdicts(verdicts) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fairness     FAIL",
        "  missing from the stable prefix: (1, 4), first of 2",
        "convergence  FAIL",
        "  2 distinct final histories"]


def test_check_blames_the_event_out_of_order(capsys, tmp_path):
    path = _fig1_trace(tmp_path)
    _late_first_insert(path)
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "t=1000000" in err and "cannot insert" not in err


def test_unknown_recon_is_usage_error(capsys):
    assert main(["run", "--scenario", "random", "--recon", "bogus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_datatype_is_usage_error(capsys, tmp_path):
    scenario = random_scenario(8, "bfs")
    scenario.datatype = "bogus"
    path = tmp_path / "sc.json"
    scenario.save(path)
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, named", [
    (("n",), "3", "n must"),
    (("snapshot_every",), "2", "snapshot_every"),
    (("workload", 0, 0), "1", "workload time"),
    (("workload", 0, 1), "1", "workload replica"),
    (("crashes", 0, 1), "x", "crash"),
    (("partitions", 0, "start"), "a", "partition"),
    (("seed",), [1], "seed"),
    (("delay_max",), 0, "delay_max"),
    (("partitions", 0, "links", 0), [1, 2, 3], "partition link"),
    (("workload", 0, 2), ["pop"], "workload op"),
    (("workload", 0, 2), [], "workload op"),
    (("workload", 0, 2), ["push", [1]], "workload op"),
    (("quiescence_flush",), "no", "quiescence_flush"),
    (("deliveries",), [[1, 1, 1, "x"]], "delivery"),
    (("datatype",), ["intlog"], "datatype"),
    (("snapshot_evry",), 0, "'snapshot_evry'"),
    (("recon",), ["bfs"], "recon"),
    (("deliveries",), [[2, 1, 1, 5]], "partitions"),
    (("workload", 0, 0), int("9" * 4300), "error: a workload time"),
    (("n",), int("9" * 4300), "error: n must"),
    (("delay_max",), int("9" * 4300), "error: delay_max"),
    (("partitions", 0, "end"), int("9" * 4300), "error: a partition"),
], ids=["string_n", "string_snapshot_every", "string_workload_time",
        "string_workload_replica", "string_crash_time",
        "string_partition_start", "list_seed", "zero_delay_max",
        "three_replica_link", "unknown_op", "empty_op",
        "unhashable_op", "string_quiescence_flush", "string_delivery_time",
        "list_datatype", "misspelled_field", "list_recon",
        "deliveries_with_partitions", "huge_workload_time", "huge_n",
        "huge_delay_max", "huge_partition_end"])
def test_run_bad_scenario_is_usage_error(capsys, tmp_path, where, value,
                                         named):
    doc = random_scenario(8, "bfs").to_dict()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_scenario_over_the_send_budget_is_usage_error(capsys, tmp_path):
    # 1001 replicas make 1001 * 1000 channel sends for one command
    doc = random_scenario(8, "bfs").to_dict()
    doc.update(n=1001, workload=doc["workload"][:1])
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "1001000 channel sends" in capsys.readouterr().err


@pytest.mark.parametrize("data, named", [
    (b'[{"n": 2}]', "JSON object"),
    (b'{"n": ', "not a JSON file"),
    (b'{"name": "\xff"}', "not a JSON file"),
    (b"[" * 100000, "not a JSON file"),
    (b'{"n": 1%s}' % (b"0" * 4300), "not a JSON file"),
], ids=["list", "truncated", "not_utf8", "deep_nesting",
        "int_past_digit_limit"])
def test_scenario_file_not_a_json_object_is_usage_error(capsys, tmp_path,
                                                        data, named):
    path = tmp_path / "sc.json"
    path.write_bytes(data)
    assert main(["run", "--scenario", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_retired_horizon_key_is_ignored(capsys, tmp_path):
    # scenario files written before `horizon` was retired still run
    doc = random_scenario(8, "bfs").to_dict()
    doc["horizon"] = 0
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_internal_key_error_propagates(capsys, tmp_path, monkeypatch):
    path = _fig1_trace(tmp_path)

    def broken(trace, window=10):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run_all_checks", broken)
    with pytest.raises(KeyError):
        main(["check", "--trace", str(path)])


def test_fuzz_reports_failing_seeds(capsys):
    rc = main(["fuzz", "--scenario", "starvation", "--seeds", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.splitlines() == ["seed 0 FAIL: fairness",
                                "seed 1 FAIL: fairness", "0/2 seeds passed"]
