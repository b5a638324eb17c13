"""Seeded deterministic simulation of replicas under asynchrony and faults.

A Scenario describes the replica count, data type, reconciliation
function, workload (timed appends), fault schedule (crashes and temporary
partitions) and a seed.  `run` executes it as a single-threaded
discrete-event loop and returns a Trace: a totally ordered event log with
per-replica history snapshots, consumed by the checkers in
`dagrepl.checks`.

A snapshot is a delta (trace schema 2): `keep` is the exact length of the
longest common prefix with the replica's previous snapshot in the trace,
and `add` the commands after it, so a snapshot costs the change, not the
history.  `keep` below the previous length is a revocation.
`full_histories` decodes the deltas back into full histories.  A trace
file holds one compact, sorted-key JSON value per line; the int-only
send, deliver and insert lines are formatted directly, with the same
bytes.  Reading takes any spacing that per-line `json.loads` takes.

Timing model: channel delays are drawn from the seeded RNG (or pinned by
an explicit per-message delivery script); partitions defer deliveries on
cut links until the partition ends, never dropping them.  A crash
permanently silences a replica; messages it still had in flight are
dropped or kept per destination (seeded coin), which is what exercises the
broadcast layer's forwarding path.  A channel send of a vertex the
destination already holds is recorded as a `send` event but its receipt
is never scheduled: the broadcast layer would drop it as a duplicate.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field, fields

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
        return {
            "name": self.name,
            "n": self.n,
            "datatype": self.datatype,
            "recon": self.recon,
            "seed": self.seed,
            "delay_max": self.delay_max,
            "quiescence_flush": self.quiescence_flush,
            "snapshot_every": self.snapshot_every,
            "workload": [[t, r, list(op)] for t, r, op in self.workload],
            "crashes": [[r, t] for r, t in self.crashes],
            "partitions": [{"links": [list(l) for l in p.links],
                            "start": p.start, "end": p.end}
                           for p in self.partitions],
            "deliveries": (None if self.deliveries is None else
                           sorted([dst, j, s, t] for (dst, j, s), t
                                  in self.deliveries.items())),
        }

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
            except ValueError as exc:   # not JSON, or not UTF-8
                raise ConfigError("%s is not a JSON file (%s)"
                                  % (path, exc)) from None
        return cls.from_dict(doc)


# from_dict's converters from the JSON form of the fields that have one
_FROM_JSON = {
    "workload": lambda rows: [(t, r, tuple(op)) for t, r, op in rows],
    "crashes": lambda rows: [(r, t) for r, t in rows],
    "partitions": lambda rows: [Partition([tuple(l) for l in p["links"]],
                                          p["start"], p["end"])
                                for p in rows],
    "deliveries": lambda rows: (None if rows is None else
                                {(dst, j, s): t for dst, j, s, t in rows}),
}


TRACE_SCHEMA = 2


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# meta fields the checkers read: key path, what it must be, and the test
_META_FIELDS = (
    (("scenario", "n"), "an integer >= 1", lambda x: _is_int(x) and x >= 1),
    (("scenario", "recon"), "a string", lambda x: isinstance(x, str)),
    (("quiescent",), "a boolean", lambda x: isinstance(x, bool)),
    (("crashed",), "a list of integers",
     lambda x: isinstance(x, list) and all(map(_is_int, x))),
)


# One encoder for every line: compact JSON with sorted keys, so a trace
# file is deterministic bytes.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_scan = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _read_jsonl(path):
    """The JSON values of the non-blank lines of `path`, in order.

    It accepts and rejects exactly the lines that per-line `json.loads`
    does: a line is one JSON value with optional JSON whitespace around it.
    The C scanner parses each line; `json.loads` runs only on a line the
    scanner rejected, for its error message.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                text = line.strip(_JSON_SPACE)
                try:
                    value, end = _scan(text, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = None
                if end == len(text):
                    values.append(value)
                elif line.strip():
                    raise ConfigError("%s: line %d is not JSON (%s)"
                                      % (path, number, _json_error(line)))
        except UnicodeDecodeError as exc:
            raise ConfigError("%s is not UTF-8 text (%s)"
                              % (path, exc)) from None
    return values


def _json_error(line):
    """Why per-line `json.loads` rejects `line`."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return exc


# The send, deliver and insert lines, most of a trace, are written from
# %-templates of their sorted keys.  A template holds only for the exact
# keys with exact ints, where `%s` gives the JSON bytes (a bool is an int
# that JSON writes as true or false), and lists of two of them, which
# `str` writes as JSON but for the spaces; any other event goes to
# `_encode`.
def _pair(x):
    return type(x) is list and len(x) == 2 \
        and type(x[0]) is int and type(x[1]) is int


def _send_line(ev):
    at, late, dst, src, t, uid = (ev["at"], ev["deliver_at"], ev["dst"],
                                  ev["src"], ev["t"], ev["uid"])
    if len(ev) == 7 and type(at) is int and type(dst) is int \
            and type(src) is int and type(t) is int and _pair(uid) \
            and (late is None or type(late) is int):
        return ('{"at":%s,"deliver_at":%s,"dst":%s,"kind":"send","src":%s,'
                '"t":%s,"uid":[%s,%s]}' % (at, "null" if late is None
                                           else late, dst, src, t, *uid))


def _deliver_line(ev):
    replica, t, uid = ev["replica"], ev["t"], ev["uid"]
    if len(ev) == 4 and type(replica) is int and type(t) is int \
            and _pair(uid):
        return ('{"kind":"deliver","replica":%s,"t":%s,"uid":[%s,%s]}'
                % (replica, t, *uid))


def _insert_line(ev):
    parents, replica, t, vertex = (ev["parents"], ev["replica"], ev["t"],
                                   ev["vertex"])
    if len(ev) == 5 and type(replica) is int and type(t) is int \
            and _pair(vertex) and type(parents) is list \
            and all(map(_pair, parents)):
        return ('{"kind":"insert","parents":%s,"replica":%s,"t":%s,'
                '"vertex":[%s,%s]}'
                % (str(parents).replace(" ", ""), replica, t, *vertex))


# kind -> its line from a template, or None where the template is not exact
_TEMPLATED = {"send": _send_line, "deliver": _deliver_line,
              "insert": _insert_line}


def _line(ev):
    """`_encode(ev)`, formatted directly for the common event kinds."""
    kind = ev.get("kind")
    template = _TEMPLATED.get(kind) if type(kind) is str else None
    try:
        line = template and template(ev)
    except KeyError:        # a templated kind without one of its keys
        line = None
    return line or _encode(ev)


class Trace:
    def __init__(self, meta, events):
        self.meta = meta
        self.events = events

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_line(ev) + "\n"
                          for ev in [self.meta, *self.events])

    @classmethod
    def from_jsonl(cls, path):
        lines = _read_jsonl(path)
        if not lines or not isinstance(lines[0], dict) \
                or "schema" not in lines[0]:
            raise ConfigError("not a trace file: %s" % path)
        if lines[0]["schema"] != TRACE_SCHEMA:
            raise ConfigError("%s: trace schema %r, not %d; record the "
                              "trace again" % (path, lines[0]["schema"],
                                               TRACE_SCHEMA))
        for field, kind, valid in _META_FIELDS:
            node = lines[0]
            for key in field:
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError("%s: meta line lacks %s"
                                      % (path, ".".join(field)))
                node = node[key]
            if not valid(node):
                raise ConfigError("%s: meta field %s is %r, not %s"
                                  % (path, ".".join(field), node, kind))
        return cls(lines[0], lines[1:])


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


def _validate(sc: Scenario):
    """The data type and the reconciler `sc` names; raise ConfigError
    naming the first malformed field of `sc`."""
    for name, least in (("n", 1), ("delay_max", 1), ("snapshot_every", 1)):
        value = getattr(sc, name)
        _need(_is_int(value) and value >= least,
              "%s must be an integer >= %d" % (name, least), value)
    _need(_is_int(sc.seed), "seed must be an integer", sc.seed)
    _need(isinstance(sc.quiescence_flush, bool),
          "quiescence_flush must be a boolean", sc.quiescence_flush)
    spec = resolve(get_datatype, "datatype", sc.datatype)
    recon = resolve(get_reconciler, "recon", sc.recon)

    def replica(r):
        return _is_int(r) and 1 <= r <= sc.n

    for t, r, op in sc.workload:
        _need(_is_int(t) and t >= 0, "a workload time must be an integer "
              ">= 0", t)
        _need(replica(r), "a workload replica must be in 1..%d" % sc.n, r)
        try:
            hash(op)
            spec.step(spec.initial_state, op)
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError("workload op %r fails on %s (%s)"
                              % (op, spec.name, exc)) from None
    for r, t in sc.crashes:
        _need(replica(r) and _is_int(t), "a crash must be a replica in "
              "1..%d and an integer time" % sc.n, [r, t])
    for p in sc.partitions:
        for link in p.links:
            _need(isinstance(link, (tuple, list)) and len(link) == 2
                  and all(map(replica, link)), "a partition link must be "
                  "a pair of replicas in 1..%d" % sc.n, link)
        _need(_is_int(p.start) and _is_int(p.end) and p.start < p.end,
              "a partition needs integers start < end", [p.start, p.end])
    for key, t in (sc.deliveries or {}).items():
        _need(isinstance(key, tuple) and len(key) == 3
              and all(map(_is_int, (*key, t))),
              "a delivery must be four integers", (key, t))
    if sc.deliveries is not None and sc.partitions:
        raise ConfigError("a scenario with deliveries cannot have partitions:"
                          " a scripted delivery time is final")
    return spec, recon


class _Sim:
    def __init__(self, scenario: Scenario):
        self.spec, self.recon = _validate(scenario)
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.events = []
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

    def _make_broadcast(self, rid):
        return lambda msg: self.rb.r_broadcast(rid, msg)

    def _make_on_insert(self, rid):
        def hook(v, parents):
            self._emit({"kind": "insert", "replica": rid,
                        "vertex": [v.issuer, v.seq],
                        "parents": sorted([p.issuer, p.seq] for p in parents
                                          if isinstance(p, Command))})
        return hook

    # --- event plumbing ------------------------------------------------

    def _emit(self, ev):
        self.step += 1
        ev["t"] = self.step
        self.events.append(ev)

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
            self._emit({"kind": "history", "replica": rid, "keep": keep,
                        "add": [[c.issuer, c.seq] for c in add]})

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
        at = self.now + self.rng.randint(1, sc.delay_max)
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

    def _send(self, src, dst, msg):
        at = self._deliver_time(src, dst, msg)
        self._emit({"kind": "send", "src": src, "dst": dst,
                    "uid": [msg.vertex.issuer, msg.vertex.seq],
                    "at": self.now, "deliver_at": at})
        # a vertex dst already holds is in its broadcast layer's seen set,
        # so the receipt would be dropped untouched: it is not scheduled
        if at is not None and msg.vertex not in self.replicas[dst].dag:
            self._push(at, self._handle_recv, src, dst, msg)

    def _rb_deliver(self, rid, msg):
        self._emit({"kind": "deliver", "replica": rid,
                    "uid": [msg.vertex.issuer, msg.vertex.seq]})
        self.replicas[rid].on_deliver(msg)

    # --- handlers ---------------------------------------------------------

    def _handle_append(self, rid, op):
        if rid in self.crashed:
            return
        before = len(self.replicas[rid].dag)
        resp = self.replicas[rid].append(op)
        if resp == BOTTOM and len(self.replicas[rid].dag) == before:
            self._emit({"kind": "append_bottom", "replica": rid,
                        "op": list(op)})
            return
        seq = self.replicas[rid].next_seq - 1
        self._emit({"kind": "append", "replica": rid, "op": list(op),
                    "seq": seq, "resp": resp})
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
        before = len(self.replicas[dst].dag)
        self.rb.on_receive(dst, msg)
        if len(self.replicas[dst].dag) != before:
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
        for t, r, op in sc.workload:
            self._push(t, self._handle_append, r, op)
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
        return Trace(meta, self.events)


def run(scenario: Scenario) -> Trace:
    """Execute a scenario; fixed seed means a bit-identical trace."""
    return _Sim(scenario).run()
