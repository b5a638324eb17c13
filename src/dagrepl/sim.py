"""Seeded deterministic simulation of replicas under asynchrony and faults.

A Scenario describes the replica count, data type, reconciliation
function, workload (timed appends), fault schedule (crashes and temporary
partitions) and a seed.  `run` executes it as a single-threaded
discrete-event loop and returns a Trace: a totally ordered event log with
per-replica history snapshots, consumed by the checkers in
`dagrepl.checks`.

A snapshot is a delta (since trace schema 2): `keep` is the exact length of the
longest common prefix with the replica's previous snapshot in the trace,
and `add` the commands after it, so a snapshot costs the change, not the
history.  `keep` below the previous length is a revocation.
`full_histories` decodes the deltas back into full histories.  A trace
file holds one compact, sorted-key JSON value per line, which the
simulator writes as each event happens: a sends, deliver, insert, history,
append or append_bottom line from a format with the encoder's bytes (an
append's op text is encoded once, with its workload entry), a crash or
partition line by the encoder.  A `sends` line (schema 3) is one fan-out
of the broadcast layer: its n-1 channel sends as `[dst, deliver_at]`
pairs in the order their delays are drawn, at the steps t, t+1, ....
The checkers read a trace's records, its lines' JSON values; its events,
with one `send` event per pair, as in schema 2, are built only when read.
The trace `run` returns is those lines; its records are parsed on first
read by the reader of a file's lines after its meta, which takes any
spacing that per-line `json.loads` takes and parses each run of lines of
the simulator's formats in one call, so that their records share their
key strings.

Timing model: channel delays are drawn from the seeded RNG as
`randint(1, delay_max)` draws them (or pinned by an explicit per-message
delivery script); partitions defer deliveries on cut links until the
partition ends, never dropping them.  A crash permanently silences a
replica; messages it still had in flight are dropped or kept per
destination (seeded coin), which is what exercises the broadcast layer's
forwarding path.  A channel send of a vertex the destination already
holds is recorded as a `send` event but its receipt is never scheduled:
the broadcast layer would drop it as a duplicate.  A scenario may make at
most `_SEND_BUDGET` channel sends, n(n-1) per command.  When `run`
returns, only the trace is left of the simulation.
"""

from __future__ import annotations

import heapq
import json
import random
import re
import sys
from dataclasses import dataclass, field, fields
from functools import cache

from .broadcast import ReliableBroadcast
from .dag import Command
from .datatype import BOTTOM, get_datatype
from .reconcile import get_reconciler
from .replica import Replica


class ConfigError(Exception):
    pass


@dataclass
class Partition:
    links: list          # [(a, b), ...]; each link is cut in both directions
    start: int
    end: int


@dataclass
class Scenario:
    n: int
    datatype: str
    recon: str
    workload: list                     # [(time, replica, op), ...]
    crashes: list = field(default_factory=list)      # [(replica, time)]
    partitions: list = field(default_factory=list)   # [Partition, ...]
    seed: int = 0
    delay_max: int = 10
    quiescence_flush: bool = True
    snapshot_every: int = 1
    deliveries: dict | None = None     # (dst, issuer, seq) -> time; scripted
    name: str = ""

    def to_dict(self):
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {key: _TO_JSON[key](value) if key in _TO_JSON else value
                for key, value in items}

    @classmethod
    def from_dict(cls, d):
        """The scenario of a `to_dict` document; ConfigError names the
        first thing wrong with it."""
        if not isinstance(d, dict):
            raise ConfigError("a scenario must be a JSON object, not %s"
                              % type(d).__name__)
        names = {f.name for f in fields(cls)}
        for key in d:       # older scenario files hold the retired horizon
            if key not in names and key != "horizon":
                raise ConfigError("unknown scenario key %r" % (key,))
        try:
            return cls(**{key: _FROM_JSON[key](value)
                          if key in _FROM_JSON else value
                          for key, value in d.items() if key in names})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("malformed scenario: %s" % exc) from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            # not JSON, not UTF-8, an int past the digit limit, too deep
            except (ValueError, RecursionError) as exc:
                raise ConfigError("%s is not a JSON file (%s)"
                                  % (path, exc)) from None
        return cls.from_dict(doc)


# to_dict's converters to the JSON form of the fields that need one, and
# from_dict's back
_TO_JSON = {
    "workload": lambda rows: [[t, r, list(op)] for t, r, op in rows],
    "crashes": lambda rows: [[r, t] for r, t in rows],
    "partitions": lambda rows: [{"links": [list(l) for l in p.links],
                                 "start": p.start, "end": p.end}
                                for p in rows],
    "deliveries": lambda rows: (None if rows is None else
                                sorted([dst, j, s, t] for (dst, j, s), t
                                       in rows.items())),
}
_FROM_JSON = {
    "workload": lambda rows: [(t, r, tuple(op)) for t, r, op in rows],
    "crashes": lambda rows: [(r, t) for r, t in rows],
    "partitions": lambda rows: [Partition([tuple(l) for l in p["links"]],
                                          p["start"], p["end"])
                                for p in rows],
    "deliveries": lambda rows: (None if rows is None else
                                {(dst, j, s): t for dst, j, s, t in rows}),
}


TRACE_SCHEMA = 3


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# One encoder for every line: compact JSON with sorted keys, so a trace
# file is deterministic bytes.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value(where, number, line):
    """The JSON value of line `number` of `where`."""
    try:
        return json.loads(line)
    # a ValueError also stands for an int past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError("%s: line %d is not JSON (%s)"
                          % (where, number, exc)) from None


def _read_lines(lines, where, number=0):
    """The records of the non-blank text lines `lines`, which follow line
    `number` of `where`: each line's JSON value, a `sends` value kept
    whole, each with one string per kind.  It takes and refuses exactly
    the lines that per-line `json.loads` does, and refuses a malformed
    `sends` line (`_checked_sends`), naming it.  A run of consecutive
    template lines, at most `_RUN`, is parsed in one call, so that their
    records share their key strings; any other line ends the run and is
    parsed by itself."""
    records, run = [], []
    template_line = _template_line()

    def parse_run():
        values = json.loads("[%s]" % ",".join(run))
        run.clear()
        for value in values:
            value["kind"] = sys.intern(value["kind"])
        records.extend(values)

    for number, line in enumerate(lines, number + 1):
        if template_line(line):
            run.append(line)
            if len(run) == _RUN:
                parse_run()
        elif line.strip():
            parse_run()
            value = _value(where, number, line)
            if type(value) is dict and type(value.get("kind")) is str:
                value["kind"] = sys.intern(value["kind"])
                if value["kind"] == "sends":
                    _checked_sends(where, number, value)
            records.append(value)
    parse_run()
    return records


def _expand(records):
    """The events of the reader's `records`: each `sends` record replaced
    by its `send` events, the channel send of its i-th [dst, deliver_at]
    pair at step t + i, which share the record's uid list.  It empties
    `records` as it goes, so that a record is freed once it is expanded."""
    events = []
    for i, ev in enumerate(records):
        records[i] = None
        if type(ev) is not dict or ev.get("kind") != "sends":
            events.append(ev)
            continue
        at, src, t, uid = ev["at"], ev["src"], ev["t"], ev["uid"]
        events += [{"at": at, "deliver_at": deliver_at, "dst": dst,
                    "kind": "send", "src": src, "t": t + k, "uid": uid}
                   for k, (dst, deliver_at) in enumerate(ev["to"])]
    return events


def _checked_sends(where, number, ev):
    """Check the `sends` value of line `number` of `where`: ConfigError
    names the line for a missing field, a `t` that is not an integer, a
    `to` that is not a list of one or more [dst, deliver_at] lists, or a
    `uid` that is not a 2-item list.  The simulator never writes an empty
    `to`: a fan-out to no replica is no line, and a line takes one step
    per pair."""
    try:
        t, to, uid = ev["t"], ev["to"], ev["uid"]
        if type(t) is not int:
            raise TypeError("t %r is not an integer" % (t,))
        if type(to) is not list or not to or any(
                type(pair) is not list or len(pair) != 2 for pair in to):
            raise ValueError("to %r is not a list of one or more "
                             "[dst, deliver_at] pairs" % (to,))
        if type(uid) is not list or len(uid) != 2:
            raise ValueError("uid %r is not a pair" % (uid,))
        for key in ("at", "src"):       # `_expand` reads them too
            if key not in ev:
                raise KeyError(key)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("%s: line %d is a malformed sends line: %s %s"
                          % (where, number, type(exc).__name__, exc)) from None


# A line of one of the simulator's formats (`_SENDS`, ...) with canonical
# ints of at most 18 digits, none negative (the simulator writes none), and
# an op or resp that is such an int, a string of printable ASCII without
# `"` or `\`, or a flat list of those.  It is exactly one JSON value, so a
# run of such lines joined by commas is one JSON array of the lines'
# values; the digit bound keeps that parse below the int digit limit.  The
# pattern is compiled in every process that reads a trace, so the int
# group, copied 42 times, is kept short: a lookahead for the leading zero,
# not an alternation.  It is compiled with re.ASCII, so that `\d` is a JSON
# digit, not any Unicode decimal digit.
_INT = r"(?!0\d)\d{1,18}"
_PAIR = r"\[%s,%s\]" % (_INT, _INT)
_PAIRS = r"\[(?:%s(?:,%s)*)?\]" % (_PAIR, _PAIR)
# a sends line's `to`: one or more [dst, deliver_at or null] pairs
_TO_PAIR = r"\[%s,(?:%s|null)\]" % (_INT, _INT)
_TO = r"\[%s(?:,%s)*\]" % (_TO_PAIR, _TO_PAIR)
# an append line's op or resp
_ATOM = r'(?:%s|"[ !#-\[\]-~]*")' % _INT
_VALUE = r"(?:%s|\[(?:%s(?:,%s)*)?\])" % (_ATOM, _ATOM, _ATOM)


@cache
def _template_line():
    """The `fullmatch` of such a line, compiled on first use."""
    formats = (_SENDS, _DELIVER, _INSERT, _HISTORY, _APPEND, _APPEND_BOTTOM)
    return re.compile("(?:%s)\n?" % "|".join(
        re.escape(f.rstrip("\n"))
        .replace(re.escape('"to":[%s]'), '"to":' + _TO)
        .replace(re.escape("[%s]"), _PAIRS)
        .replace("%s", _VALUE)
        .replace("%d", _INT) for f in formats), re.ASCII).fullmatch


# The most lines parsed in one call.  The scanner shares key strings only
# within a call; the cap bounds the joined text.
_RUN = 1024


# The lines of the simulator's sends, deliver, insert, history and append
# events, all but a handful of a trace: `_encode`'s bytes for the values the
# simulator owns.  `_SENDS`'s to is filled with "[dst,deliver_at]" items,
# `_INSERT`'s parents and `_HISTORY`'s add with `_pairs`, `_APPEND`'s and
# `_APPEND_BOTTOM`'s op and resp with `_encode`.
_SENDS = ('{"at":%d,"kind":"sends","src":%d,"t":%d,"to":[%s],'
          '"uid":[%d,%d]}\n')
_DELIVER = '{"kind":"deliver","replica":%d,"t":%d,"uid":[%d,%d]}\n'
_INSERT = ('{"kind":"insert","parents":[%s],"replica":%d,"t":%d,'
           '"vertex":[%d,%d]}\n')
_HISTORY = '{"add":[%s],"keep":%d,"kind":"history","replica":%d,"t":%d}\n'
_APPEND = ('{"kind":"append","op":%s,"replica":%d,"resp":%s,"seq":%d,'
           '"t":%d}\n')
_APPEND_BOTTOM = '{"kind":"append_bottom","op":%s,"replica":%d,"t":%d}\n'


def _pairs(uids):
    """The JSON list items of (issuer, seq) pairs of ints."""
    return ",".join(["[%d,%d]" % uid for uid in uids])


class Trace:
    """The meta line and the events of a run, held as the simulator's
    lines (from `run`), then as records (from a file, or once `records` is
    read), then as events (once `events` is read or set), each form
    replacing the one before.  `records`, the checkers' input, are the
    events once there are events.  `to_jsonl` writes the lines as they
    are, else encodes the records: a file's bytes come back, and edited
    events are written as edited."""

    def __init__(self, meta, events):
        self.meta = meta
        self.events = events

    @classmethod
    def _of(cls, meta, lines=None, records=None):
        trace = cls(meta, None)
        trace._lines, trace._records = lines, records
        return trace

    @property
    def records(self):
        if self._lines is not None:
            self._records, self._lines = _read_lines(self._lines, "run"), None
        return self._events if self._records is None else self._records

    @property
    def events(self):
        if self._events is None:
            self._events, self._records = _expand(self.records), None
        return self._events

    @events.setter
    def events(self, events):
        self._events, self._records, self._lines = events, None, None

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_encode(self.meta) + "\n")
            fh.writelines(self._lines if self._lines is not None else
                          (_encode(record) + "\n" for record in self.records))

    @classmethod
    def from_jsonl(cls, path):
        """The trace in file `path`, as records.  Its meta, the first
        non-blank line, is checked before the other lines are read:
        ConfigError for a file that is not a trace or a trace of another
        schema."""
        with open(path, encoding="utf-8") as fh:
            try:
                meta = None
                for number, line in enumerate(fh, 1):
                    if line.strip():
                        meta = _value(path, number, line)
                        break
                if type(meta) is not dict or "schema" not in meta:
                    raise ConfigError("not a trace file: %s" % path)
                # 3.0 == 3, but a float schema is no writer's
                if type(meta["schema"]) is not int \
                        or meta["schema"] != TRACE_SCHEMA:
                    raise ConfigError("%s: trace schema %r, not %d; record "
                                      "the trace again"
                                      % (path, meta["schema"], TRACE_SCHEMA))
                return cls._of(meta, records=_read_lines(fh, path, number))
            except UnicodeDecodeError as exc:
                raise ConfigError("%s is not UTF-8 text (%s)"
                                  % (path, exc)) from None


def full_histories(events):
    """Yield (event, history) for each `history` event of a well-formed
    trace, where history is a fresh list of the replica's [issuer, seq]
    pairs after the event's delta."""
    current = {}
    for ev in events:
        if ev["kind"] == "history":
            rid = ev["replica"]
            h = current.get(rid, [])[:ev["keep"]] + ev["add"]
            current[rid] = h
            yield ev, list(h)


def _need(ok, what, value):
    if not ok:
        raise ConfigError("%s, not %r" % (what, value))


def resolve(lookup, what, name):
    """`lookup(name)` of a registry; ConfigError naming `what` when `name`
    is not one of its names."""
    _need(isinstance(name, str), "%s must be a string" % what, name)
    try:
        return lookup(name)
    except KeyError as exc:
        raise ConfigError("%s: %s" % (what, exc.args[0])) from None


# The most channel sends a scenario may make: n(n-1) per command, as every
# replica relays each vertex to every other on first receipt.
_SEND_BUDGET = 10**6


def _validate(sc: Scenario):
    """The data type and the reconciler `sc` names, and the JSON text of
    each workload entry's op; raise ConfigError naming the first malformed
    field of `sc`."""
    for name, least in (("n", 1), ("delay_max", 1), ("snapshot_every", 1)):
        value = getattr(sc, name)
        _need(_is_int(value) and value >= least,
              "%s must be an integer >= %d" % (name, least), value)
    _need(isinstance(sc.workload, (list, tuple)), "workload must be a list",
          sc.workload)
    for entry in sc.workload:
        _need(isinstance(entry, (tuple, list)) and len(entry) == 3,
              "a workload entry must have 3 items", entry)
    sends = sc.n * (sc.n - 1) * max(1, len(sc.workload))
    if sends > _SEND_BUDGET:
        raise ConfigError("n = %d and a workload of %d make up to %d "
                          "channel sends, over the budget of %d"
                          % (sc.n, len(sc.workload), sends, _SEND_BUDGET))
    _need(_is_int(sc.seed), "seed must be an integer", sc.seed)
    _need(isinstance(sc.quiescence_flush, bool),
          "quiescence_flush must be a boolean", sc.quiescence_flush)
    spec = resolve(get_datatype, "datatype", sc.datatype)
    recon = resolve(get_reconciler, "recon", sc.recon)

    def replica(r):
        return _is_int(r) and 1 <= r <= sc.n

    # each entry's own text: equal ops such as ("push", 1) and
    # ("push", 1.0) are written as they were given
    op_texts = []
    for t, r, op in sc.workload:
        _need(_is_int(t) and t >= 0, "a workload time must be an integer "
              ">= 0", t)
        _need(replica(r), "a workload replica must be in 1..%d" % sc.n, r)
        try:
            hash(op)
            spec.step(spec.initial_state, op)
            op_texts.append(_encode(op))
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError("workload op %r fails on %s (%s)"
                              % (op, spec.name, exc)) from None
    for c in sc.crashes:
        _need(isinstance(c, (tuple, list)) and len(c) == 2 and replica(c[0])
              and _is_int(c[1]), "a crash must be [replica, integer time]", c)
    for p in sc.partitions:
        _need(isinstance(p, Partition), "a partition must be a Partition", p)
        for link in p.links:
            _need(isinstance(link, (tuple, list)) and len(link) == 2
                  and all(map(replica, link)), "a partition link must be "
                  "a pair of replicas in 1..%d" % sc.n, link)
        _need(_is_int(p.start) and _is_int(p.end) and p.start < p.end,
              "a partition needs integers start < end", [p.start, p.end])
    _need(sc.deliveries is None or isinstance(sc.deliveries, dict),
          "deliveries must be a dict or None", sc.deliveries)
    for key, t in (sc.deliveries or {}).items():
        _need(isinstance(key, tuple) and len(key) == 3
              and all(map(_is_int, (*key, t))),
              "a delivery must be four integers", (key, t))
    if sc.deliveries is not None and sc.partitions:
        raise ConfigError("a scenario with deliveries cannot have partitions:"
                          " a scripted delivery time is final")
    return spec, recon, op_texts


class _Sim:
    def __init__(self, scenario: Scenario):
        self.spec, self.recon, self.op_texts = _validate(scenario)
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.delay_bits = scenario.delay_max.bit_length()
        self.lines = []            # the trace's event lines, as written
        self.step = 0
        self.now = 0
        self.heap = []
        self.push_counter = 0
        self.crashed = {}          # rid -> crash time
        self.keep_after_crash = {} # rid -> {dst: bool}
        self.handler_count = {r: 0 for r in range(1, scenario.n + 1)}
        times = [t for t, _, _ in scenario.workload]
        times += [t for _, t in scenario.crashes]
        times += [p.end for p in scenario.partitions]
        if scenario.deliveries:
            times += list(scenario.deliveries.values())
        self.last_input_time = max([t for t, _, _ in scenario.workload],
                                   default=0)
        self.flush_base = (max(times, default=0)) + 1000
        self.flush_tick = 0
        # (start, end, the (src, dst) pairs it cuts) of each partition
        self.cuts = [(p.start, p.end,
                      {pair for a, b in p.links for pair in ((a, b), (b, a))})
                     for p in scenario.partitions]

        ids = list(range(1, scenario.n + 1))
        self.rb = ReliableBroadcast(ids, self._send, self._rb_deliver)
        self.replicas = {}
        for rid in ids:
            self.replicas[rid] = Replica(
                rid, self.spec, self.recon,
                broadcast=self._make_broadcast(rid),
                on_insert=self._make_on_insert(rid))
        # parent set -> its `_INSERT` text; the replicas insert a vertex
        # with the one set its message carries, so a text is formatted once
        self.parents_text = {}

    def _make_broadcast(self, rid):
        return lambda msg: self.rb.r_broadcast(rid, msg)

    def _make_on_insert(self, rid):
        def hook(v, parents):
            text = self.parents_text.get(parents)
            if text is None:
                text = self.parents_text[parents] = _pairs(sorted(
                    [(p.issuer, p.seq) for p in parents
                     if isinstance(p, Command)]))
            self.step += 1
            self.lines.append(_INSERT % (text, rid, self.step, v.issuer,
                                         v.seq))
        return hook

    # --- event plumbing ------------------------------------------------

    def _emit(self, ev):
        """Record an event of a kind without a line format of its own."""
        self.step += 1
        ev["t"] = self.step
        self.lines.append(_encode(ev) + "\n")

    def _push(self, at, handler, *args):
        """Call `handler(*args)` at time `at`; ties run in push order."""
        self.push_counter += 1
        heapq.heappush(self.heap, (at, self.push_counter, handler, args))

    def _snapshot(self, rid, force=False):
        self.handler_count[rid] += 1
        due = (force
               or self.handler_count[rid] % self.scenario.snapshot_every == 0
               or self.now >= self.last_input_time)
        if due:
            keep, add = self.replicas[rid].history_delta()
            self.step += 1
            self.lines.append(_HISTORY % (
                _pairs([(c.issuer, c.seq) for c in add]), keep, rid,
                self.step))

    # --- transport ------------------------------------------------------

    def _deliver_time(self, src, dst, msg):
        sc = self.scenario
        if sc.deliveries is not None:
            v = msg.vertex
            at = sc.deliveries.get((dst, v.issuer, v.seq))
            if at is None:
                if not sc.quiescence_flush:
                    return None
                self.flush_tick += 1
                at = self.flush_base + self.flush_tick
            return max(at, self.now + 1)
        # randint(1, delay_max) as random.Random draws it (3.10-3.13):
        # 1 + the first delay_max.bit_length()-bit draw below delay_max
        r = self.rng.getrandbits(self.delay_bits)
        while r >= sc.delay_max:
            r = self.rng.getrandbits(self.delay_bits)
        at = self.now + 1 + r
        # a partition covering the arrival defers it to the partition end;
        # chained partitions are re-checked until the time is clear
        moved = True
        while moved:
            moved = False
            for start, end, pairs in self.cuts:
                if start <= at < end and (src, dst) in pairs:
                    at = end
                    moved = True
        if not sc.quiescence_flush and at > self.last_input_time:
            return None
        return at

    def _send(self, src, dsts, msg):
        """One fan-out: a channel send to each of `dsts`, a step each, all
        on one `sends` line."""
        if not dsts:            # n = 1: no fan-out, no line
            return
        v = msg.vertex
        to = []
        for dst in dsts:
            at = self._deliver_time(src, dst, msg)
            if at is None:
                to.append("[%d,null]" % dst)
                continue
            to.append("[%d,%d]" % (dst, at))
            # a vertex dst already holds is in its broadcast layer's seen
            # set, so the receipt would be dropped untouched: it is not
            # scheduled
            if v not in self.replicas[dst].dag:
                self._push(at, self._handle_recv, src, dst, msg)
        self.lines.append(_SENDS % (self.now, src, self.step + 1,
                                    ",".join(to), v.issuer, v.seq))
        self.step += len(to)

    def _rb_deliver(self, rid, msg):
        self.step += 1
        self.lines.append(_DELIVER % (rid, self.step, msg.vertex.issuer,
                                      msg.vertex.seq))
        self.replicas[rid].on_deliver(msg)

    # --- handlers ---------------------------------------------------------

    def _handle_append(self, rid, op, op_text):
        if rid in self.crashed:
            return
        replica = self.replicas[rid]
        before = len(replica.dag)
        resp = replica.append(op)
        self.step += 1
        if resp == BOTTOM and len(replica.dag) == before:
            self.lines.append(_APPEND_BOTTOM % (op_text, rid, self.step))
            return
        self.lines.append(_APPEND % (op_text, rid, _encode(resp),
                                     replica.next_seq - 1, self.step))
        self._snapshot(rid, force=True)

    def _handle_recv(self, src, dst, msg):
        ct = self.crashed.get(src)
        if ct is not None and self.now > ct:
            # in flight when the sender crashed; kept or dropped per
            # destination so a later message never outruns an earlier one
            if not self.keep_after_crash[src].get(dst, False):
                return
        if dst in self.crashed:
            return
        dag = self.replicas[dst].dag
        before = len(dag)
        self.rb.on_receive(dst, msg)
        if len(dag) != before:
            self._snapshot(dst)

    def _handle_crash(self, rid):
        self.crashed[rid] = self.now
        self.keep_after_crash[rid] = {
            dst: self.rng.random() < 0.5
            for dst in range(1, self.scenario.n + 1) if dst != rid}
        self._emit({"kind": "crash", "replica": rid})

    # --- main loop ---------------------------------------------------------

    def run(self):
        sc = self.scenario
        for (t, r, op), op_text in zip(sc.workload, self.op_texts):
            self._push(t, self._handle_append, r, op, op_text)
        for r, t in sc.crashes:
            self._push(t, self._handle_crash, r)
        for p in sc.partitions:
            for at, kind in ((p.start, "partition_start"),
                             (p.end, "partition_end")):
                self._push(at, self._emit,
                           {"kind": kind, "links": [list(l) for l in p.links]})
        while self.heap:
            self.now, _, handler, args = heapq.heappop(self.heap)
            handler(*args)
        for rid in sorted(self.replicas):
            if rid not in self.crashed:
                self._snapshot(rid, force=True)
        meta = {
            "schema": TRACE_SCHEMA,
            "scenario": sc.to_dict(),
            "quiescent": sc.quiescence_flush,
            "crashed": sorted(self.crashed),
        }
        # the broadcast layer and the replicas call back into the sim; drop
        # them so that the run is freed with the sim, not by a collection
        del self.rb, self.replicas
        return Trace._of(meta, lines=self.lines)


def run(scenario: Scenario) -> Trace:
    """Execute a scenario; fixed seed means a bit-identical trace."""
    return _Sim(scenario).run()
