"""The bytes `Trace.to_jsonl` writes, pinned by their sha256 digests, and
the one representation a trace holds at a time.

The simulator formats its own trace lines; the digests hold those formats
to the same bytes on every supported Python.  A second table pins the
events: each trace rendered as schema 2 wrote it, a line per event, one
`send` line per channel send.  Schema 3 wrote each fan-out as one `sends`
line and left the events as they were, so that table is schema 2's own.
A change that alters the trace on purpose re-records both:

    PYTHONPATH=src python tests/test_trace_bytes.py
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from dagrepl.checks import _Digest
from dagrepl.scenarios import continuous_scenario, fig1_scenario, \
    random_scenario, starvation_scenario
from dagrepl.sim import Scenario, Trace, _encode, run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "trace_sha256_schema3.json"
EVENTS_FIXTURE = FIXTURES / "trace_sha256.json"     # the schema 2 rendering


def _scenarios():
    """(name, scenario) of every pinned trace."""
    for recon in ("bfs", "fair"):
        yield "fig1:%s" % recon, fig1_scenario(recon)
        yield "starvation:%s" % recon, starvation_scenario(recon)
    for seed in range(3):
        for recon in ("bfs", "fair", "lifo"):
            yield "random:%s:%d" % (recon, seed), random_scenario(seed, recon)
            yield ("continuous:%s:%d" % (recon, seed),
                   continuous_scenario(seed, recon))
    sc = random_scenario(5, "fair")     # sends past the horizon: null times
    sc.quiescence_flush = False
    yield "random:fair:5:no-flush", sc
    # scripted nfs with disabled ops (`append_bottom` lines) and string ops
    # that JSON escapes
    yield "nfs_bottoms", Scenario.load(FIXTURES / "nfs_bottoms.json")


def _digests(directory):
    path = pathlib.Path(directory) / "t.jsonl"
    digests = {}
    for name, sc in _scenarios():
        run(sc).to_jsonl(path)
        data = path.read_bytes()
        assert b'"kind":"sends"' in data and b'"kind":"send"' not in data
        if name.endswith("no-flush"):
            assert b',null]' in data
        if name == "nfs_bottoms":
            assert b'"kind":"append_bottom"' in data and b"\\u00e9" in data
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _schema_2_digests():
    """The digest of each pinned trace rendered as schema 2 wrote it: the
    meta with schema 2, then the encoder's line of each event."""
    digests = {}
    for name, sc in _scenarios():
        trace = run(sc)
        lines = [_encode({**trace.meta, "schema": 2})]
        lines += map(_encode, trace.events)
        data = "".join(line + "\n" for line in lines).encode()
        if name.endswith("no-flush"):
            assert b'"deliver_at":null' in data
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_trace_bytes_match_the_recorded_digests(tmp_path):
    assert _digests(tmp_path) == json.loads(FIXTURE.read_text())


def test_events_are_schema_2s_events():
    # the send events that a run's sends lines expand into, and every
    # other event, are byte for byte the lines schema 2 wrote
    assert _schema_2_digests() == json.loads(EVENTS_FIXTURE.read_text())


def test_a_read_trace_writes_its_file_back(tmp_path):
    # a trace read from a file holds its records, the encoder's values of
    # its lines, until its events are read, also through the checkers'
    # digest; a run's lines, once read as records, write back the same
    # bytes
    path, again = tmp_path / "t.jsonl", tmp_path / "w.jsonl"
    for name, sc in _scenarios():
        trace = run(sc)
        trace.to_jsonl(path)
        data = path.read_bytes()
        read = Trace.from_jsonl(path)
        read.to_jsonl(again)
        assert again.read_bytes() == data, name
        _Digest(read)
        assert trace.records
        for written in (read, trace):
            written.to_jsonl(again)
            assert again.read_bytes() == data, name


def _change_a_field(trace):
    trace.events[-1]["t"] += 1


def _append_an_event(trace):
    trace.events.append({"kind": "crash", "replica": 2, "t": 10**6})


def _reassign_the_list(trace):
    trace.events = [ev for ev in trace.events if ev["kind"] != "send"]


def _assign_before_reading(trace):
    trace.events = run(fig1_scenario("bfs")).events


@pytest.mark.parametrize("edit", [_change_a_field, _append_an_event,
                                  _reassign_the_list, _assign_before_reading])
def test_edited_events_are_written_not_the_lines(tmp_path, edit):
    # a run's events are parsed from its lines on first read; from then on
    # the events are the trace, and the lines are gone
    path = tmp_path / "t.jsonl"
    trace = run(fig1_scenario("fair"))
    edit(trace)
    trace.to_jsonl(path)
    written = Trace.from_jsonl(path).events
    assert written == trace.events != run(fig1_scenario("fair")).events


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for fixture, digests in ((FIXTURE, _digests(d)),
                                 (EVENTS_FIXTURE, _schema_2_digests())):
            fixture.write_text(json.dumps(digests, indent=2, sort_keys=True)
                               + "\n")
