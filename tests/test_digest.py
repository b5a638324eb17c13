"""The checkers' digest reads a trace's records, in which a broadcast
fan-out is one `sends` record, and numbers the events as if each channel
send were one: it must record, refuse and name exactly what it does over
the expanded `send` events."""

import copy
import pathlib
import sys
import types

import pytest

from dagrepl import scenarios, sim
from dagrepl.checks import _Digest, run_all_checks
from dagrepl.scenarios import random_scenario
from dagrepl.sim import ConfigError, Trace, run

from test_trace_bytes import _scenarios

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _benchmark_scenarios():
    """(name, scenario) of the first scenario of each benchmark workload."""
    mods = types.SimpleNamespace(sim=sim, scenarios=scenarios)
    for w in WORKLOADS.values():
        yield w.name, w.build(mods, 0, w.n)


_CASES = [*_scenarios(), *_benchmark_scenarios()]


@pytest.mark.parametrize("name, scenario", _CASES,
                         ids=[name for name, _ in _CASES])
def test_digest_of_records_is_the_digest_of_events(tmp_path, name,
                                                   scenario):
    path = tmp_path / "t.jsonl"
    run(scenario).to_jsonl(path)
    read = Trace.from_jsonl(path)
    records = read.records
    assert any(r["kind"] == "sends" for r in records), name
    of_records = _Digest(read)
    events = Trace.from_jsonl(path)
    of_events = _Digest(Trace(events.meta, events.events))
    assert of_events.sends and vars(of_records) == vars(of_events), name


def _records():
    """The meta and the records of a small run, and the event number of
    each record: a `sends` record's is the number of its first send."""
    trace = run(random_scenario(0, "bfs", commands=20))
    records = trace.records
    numbers, number = [], 1
    for record in records:
        numbers.append(number)
        number += len(record["to"]) if record["kind"] == "sends" else 1
    return trace.meta, records, numbers


def _error(meta, events):
    with pytest.raises(ConfigError) as info:
        _Digest(Trace(meta, events))
    return str(info.value)


@pytest.mark.parametrize("field, value", [
    ("to", []), ("to", {"2": 5}), ("to", None), ("uid", [1]),
    ("uid", [1, "2"]), ("uid", 7), ("t", 1.5)])
def test_malformed_sends_record_is_named_by_its_first_event(field, value):
    meta, records, numbers = _records()
    i = [k for k, r in enumerate(records) if r["kind"] == "sends"][3]
    assert numbers[i] > i + 1          # sends records before it count more
    records[i] = {**records[i], field: value}
    assert _error(meta, records).startswith(
        "trace event %d (t=%r) is malformed" % (numbers[i], records[i]["t"]))


def _spoil_a_field(ev):
    ev["replica"] = "1"


def _repeat_the_step(ev):
    ev["t"] -= 1


@pytest.mark.parametrize("spoil", [_spoil_a_field, _repeat_the_step])
def test_event_after_sends_records_is_named_as_in_the_events(spoil):
    # the digest of the events names it by the same number and step
    meta, records, numbers = _records()
    i = next(k for k in range(20, len(records))
             if records[k]["kind"] == "deliver"
             and records[k - 1]["kind"] == "sends")
    records = copy.deepcopy(records)
    spoil(records[i])
    message = _error(meta, records)
    assert "trace event %d " % numbers[i] in message
    assert _error(meta, sim._expand(records)) == message


def test_checking_a_file_builds_no_send_events(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    run(random_scenario(0, "bfs")).to_jsonl(path)

    def no_events(records):
        raise AssertionError("records were expanded into events")

    monkeypatch.setattr(sim, "_expand", no_events)
    trace = Trace.from_jsonl(path)
    assert run_all_checks(trace)["safety"]["ok"]
    # the trace still holds its records, not events
    assert any(r["kind"] == "sends" for r in trace.records)
