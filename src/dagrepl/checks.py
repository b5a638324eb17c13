"""Trace checkers: convergence, stability, fairness and safety.

All checkers consume a Trace produced by `dagrepl.sim.run` (or reloaded
from a trace file), or the one-pass digest of its records that
`run_all_checks` shares between them, and return verdict objects; they
never mutate the trace.  Histories and vertices are identified by
(issuer, seq) pairs.

A snapshot is a delta against the replica's previous snapshot (since trace
schema 2), and the checkers work in proportion to the deltas, not to the
histories: validity, repeats, monotonicity and wait-freedom look at the
added and the revoked commands only, and the stable-prefix curve is a
running minimum of `keep`s.  Reconciliation equivalence is tested at
every snapshot, which makes the checker a differential test of the
incremental sessions.  A reconciler with a leader scan (`recon.scan`,
f_bfs's and f_fair's) has one certificate (`_batches_verified`): its
history is leader batches and a leftover batch, each in level order, and
the certificate checks the batches against the leader masks without
expanding any.  The masks are those of one scan per replica, fed the
inserts the checker replays: f_bfs's scan finds none, and f_fair's
resumes its round-robin scan.  The sessions resume the same scans, so each
replica's final snapshot is also reconciled from scratch.  A reconciler
without a scan, `lifo`, reconciles the rebuilt DAG from scratch at every
snapshot.

Stability is finite-trace approximated: a prefix of length L counts as
stabilized once every recorded snapshot from some point onward starts
with one fixed L-sequence, measured from the latest point at which every
correct replica still has a snapshot ahead.  With sampled snapshots the
checkers may miss revocations but never invent them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .dag import Command, CommandDag, DagError, EPSILON, level_key
from .reconcile import get_reconciler
from .sim import ConfigError, _INT_BOUND, _is_int, resolve

# meta fields the checkers read: key path, what it must be, and the test
_META_FIELDS = (
    (("scenario", "n"), "an integer >= 1", lambda x: _is_int(x) and x >= 1),
    (("scenario", "recon"), "a string", lambda x: isinstance(x, str)),
    (("quiescent",), "a boolean", lambda x: isinstance(x, bool)),
    (("crashed",), "a list of integers",
     lambda x: isinstance(x, list) and all(map(_is_int, x))),
)


def _int(x):
    if type(x) is not int:
        raise TypeError("%r is not an integer" % (x,))
    return x


def _uid(x):
    issuer, seq = x
    if type(issuer) is not int or type(seq) is not int:
        raise TypeError("%r is not a pair of integers" % (x,))
    return issuer, seq


class _Delta(NamedTuple):
    """One decoded snapshot and what it did to the replica's history."""
    t: int
    keep: int
    add: tuple          # uids after the kept prefix
    repeated: bool      # the history after it repeats a command
    shrank: bool        # a revoked command is missing from that history


def _apply(h, keep, add):
    """Replace `h[keep:]` by `add` in place; returns the revoked tail."""
    revoked = h[keep:]
    del h[keep:]
    h += add
    return revoked


class _Digest:
    """One linear pass over the trace, shared by the checkers.

    It is the checkers' only reader of the meta and the raw events, which
    it reads as the trace's records (`Trace.records`), decoding each once,
    by kind: a `sends` record counts as the `send` events it expands
    into, a `recv` record as those and its `deliver` and `insert` events,
    and a `send` event as one.  It requires the meta fields it reads
    (`_META_FIELDS`), strictly increasing `t`s of at most 18 digits and
    well-formed fields, with each `keep` between 0 and the replica's
    previous history length, a non-empty `to` list in a `sends` or `recv`
    record and a `recv` record's `src` in 1..n, raising ConfigError that
    names the offending field or event otherwise, an event by its number
    among the expanded events, a record by its first, so the checkers
    trust what it records.  It also requires each replica in 1..n to be
    crashed or named by an event, so that a hostile n cannot size the
    checkers' work, and resolves the meta's reconciler name, raising
    ConfigError for an unknown one.  It keeps each replica's current
    history as a list and a uid set, records per snapshot the facts that
    need the set, and per replica the revocation and delivery counts and
    first insert steps.
    """

    def __init__(self, trace):
        meta = trace.meta
        for path, kind, valid in _META_FIELDS:
            node = meta
            for key in path:
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError("trace meta lacks %s" % ".".join(path))
                node = node[key]
            if not valid(node):
                raise ConfigError("trace meta field %s is %r, not %s"
                                  % (".".join(path), node, kind))
        self.n = meta["scenario"]["n"]
        self.recon = resolve(get_reconciler, "scenario.recon",
                             meta["scenario"]["recon"])
        self.quiescent = meta["quiescent"]
        self.crashed = set(meta["crashed"])
        self.appends = defaultdict(list)    # rid -> [(t, uid)]
        self.snapshots = defaultdict(list)  # rid -> [_Delta]
        self.inserted = defaultdict(dict)   # rid -> {uid: t of 1st insert}
        self.delivers = defaultdict(Counter)    # rid -> uid -> deliveries
        self.revoked = defaultdict(Counter)     # rid -> uid -> revocations
        self.sends = Counter()              # uid -> channel send count
        # rid -> its own appends missing from its next snapshot
        self.unseen = defaultdict(list)
        # Inserts (t, 0, rid, uid, parent uids) and snapshots
        # (t, 1, rid, index in snapshots[rid], _Delta), in trace order.
        self.ordered = []
        histories = defaultdict(list)       # rid -> current history
        members = defaultdict(set)          # rid -> the uids in it
        awaiting = defaultdict(list)        # rid -> appends since snapshot

        def replica(x):
            rid = _int(x)
            if not 1 <= rid <= self.n:
                raise ValueError("replica %d is not in 1..%d" % (rid, self.n))
            return rid

        def insert(t, rid, vertex, parents):
            self.ordered.append((t, 0, rid, vertex,
                                 frozenset(map(_uid, parents))))
            self.inserted[rid].setdefault(vertex, t)

        # the events before the record, a `sends` or `recv` record counting
        # as the events it expands into, so that messages number the events
        # of schema 2
        pos = 0
        prev_t = None
        for rec in trace.records:
            span = 1
            # decode the record and record what it says; a trace that
            # fails a test below is refused as a whole
            try:
                kind, t = rec["kind"], rec["t"]
                if type(t) is not int:
                    raise TypeError("t %r is not an integer" % (t,))
                # before any message below shows t
                if not -_INT_BOUND < t < _INT_BOUND:
                    raise ConfigError("trace event %d has a t of more than "
                                      "18 digits" % (pos + 1))
                if kind == "sends" or kind == "recv":
                    to = rec["to"]      # one fan-out: most channel sends
                    if type(to) is not list or not to:
                        raise ValueError("to %r is not a non-empty list"
                                         % (to,))
                    span = len(to)
                    uid = _uid(rec["uid"])
                    self.sends[uid] += span
                    if kind == "recv":  # then the deliver and the insert
                        rid = replica(rec["src"])
                        self.delivers[rid][uid] += 1
                        span += 2
                        insert(t + span - 1, rid, uid, rec["parents"])
                elif kind in ("insert", "deliver", "history", "append"):
                    rid = replica(rec["replica"])
                    if kind == "insert":
                        insert(t, rid, _uid(rec["vertex"]), rec["parents"])
                    elif kind == "deliver":
                        self.delivers[rid][_uid(rec["uid"])] += 1
                    elif kind == "history":
                        keep = _int(rec["keep"])
                        add = tuple(map(_uid, rec["add"]))
                        h, seen = histories[rid], members[rid]
                        if not 0 <= keep <= len(h):
                            raise ValueError("keep %d is not in 0..%d (the "
                                             "previous length)"
                                             % (keep, len(h)))
                        clean = len(seen) == len(h)
                        revoked = _apply(h, keep, add)
                        self.revoked[rid].update(revoked)
                        if clean:
                            seen.difference_update(revoked)
                            seen.update(add)
                        else:       # a repeat in h: only a rebuild is exact
                            seen.clear()
                            seen.update(h)
                        delta = _Delta(t, keep, add, len(seen) != len(h),
                                       not seen.issuperset(revoked))
                        self.ordered.append((t, 1, rid,
                                             len(self.snapshots[rid]), delta))
                        self.snapshots[rid].append(delta)
                        self.unseen[rid] += [uid for uid
                                             in awaiting.pop(rid, ())
                                             if uid not in seen]
                    else:
                        uid = (rid, _int(rec["seq"]))
                        self.appends[rid].append((t, uid))
                        awaiting[rid].append(uid)
                elif kind == "send":
                    self.sends[_uid(rec["uid"])] += 1
                elif kind not in ("append_bottom", "crash", "partition_start",
                                  "partition_end"):  # nothing read but `t`
                    raise ValueError("unknown event kind %r" % (kind,))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    "trace event %d (t=%r) is malformed: %s %s"
                    % (pos + 1, rec.get("t") if isinstance(rec, dict)
                       else None, type(exc).__name__, exc)) from None
            if prev_t is not None and t <= prev_t:
                raise ConfigError("trace event %d has t=%d, not above the "
                                  "previous event's t=%d"
                                  % (pos + 1, t, prev_t))
            prev_t = t + span - 1
            pos += span
        for rid, uids in awaiting.items():
            self.unseen[rid] += uids
        # Every correct replica has events, so n is at most the replicas
        # named or crashed; nothing is sized by n before this test.
        named = set().union(self.appends, self.snapshots, self.inserted,
                            self.delivers)
        named.update(r for r in self.crashed if 1 <= r <= self.n)
        if len(named) < self.n:
            raise ConfigError("meta n=%d, but only %d replicas are named "
                              "by an event or crashed"
                              % (self.n, len(named)))
        self.correct = [r for r in range(1, self.n + 1)
                        if r not in self.crashed]
        # rid -> its last history, for every replica with a snapshot
        self.final = {rid: tuple(h) for rid, h in histories.items()}


def _digest(trace):
    """`trace` itself when it is already a digest, else its digest."""
    return trace if isinstance(trace, _Digest) else _Digest(trace)


def check_convergence(trace):
    """All correct replicas ended with the same history sequence."""
    d = _digest(trace)
    finals = {rid: d.final.get(rid, ()) for rid in d.correct}
    ok = d.quiescent and len(set(finals.values())) <= 1
    return {"name": "convergence", "ok": ok,
            "quiescent": d.quiescent,
            "distinct_final_histories": len(set(finals.values())),
            "final_length": len(next(iter(finals.values()), ()))}


@dataclass
class StabilityReport:
    curve: list                       # [(trace step, stabilized length)]
    final_len: int
    stable_history: tuple             # tuple of (issuer, seq)
    revocations: dict                 # uid -> revocation count
    retained: set                     # own uids issued on a stable basis
    issued: dict                      # rid -> successfully issued count
    quiescent: bool
    t_stable_start: int               # trace step the tail window opens at
    correct: list = field(default_factory=list)


def stable_prefix(trace) -> StabilityReport:
    d = _digest(trace)
    correct = set(d.correct)
    snaps = [(t, rid, delta) for t, tag, rid, _, delta in d.ordered
             if tag == 1 and rid in correct]

    issued = {rid: len(d.appends.get(rid, [])) for rid in d.correct}

    if not snaps:
        return StabilityReport([], 0, (), {}, set(), issued, d.quiescent, 0,
                               d.correct)

    # lcp_from[k]: the longest common prefix of the snapshots k, k+1, ...
    # A prefix length is common to a set of histories when it is common to
    # each replica's consecutive snapshots, which is what `keep` measures,
    # and to the replicas' final histories.  For k <= k_star every final
    # history is in the set, so the running minimum below is exact there;
    # past k_star it is a lower bound and unused.
    finals = [d.final[rid] for rid in d.correct if rid in d.final]
    common = next((i for i, column in enumerate(zip(*finals))
                   if len(set(column)) > 1), min(map(len, finals)))
    lcp_from = [0] * len(snaps)
    next_keep = {}              # rid -> keep of its snapshot after k
    for k in range(len(snaps) - 1, -1, -1):
        _, rid, delta = snaps[k]
        if rid in next_keep:
            common = min(common, next_keep[rid])
        else:                   # rid's last snapshot; k_star is the least
            k_star = k
        lcp_from[k] = common
        next_keep[rid] = delta.keep
    final_len = lcp_from[k_star]
    last = d.final[snaps[-1][1]]

    if d.quiescent and len(set(finals)) == 1:
        stable_history = last
    else:
        stable_history = last[:final_len]

    curve = [(snaps[k][0], lcp_from[k]) for k in range(k_star + 1)]

    # An own command keeps its basis when the issuer's history up to it, at
    # its first snapshot there, is the stable history up to it; `lcp`
    # tracks the issuer's common prefix with the stable history per delta.
    # A walk that stopped below `keep` still stops there, as nothing below
    # `keep` changed; else it resumes at `keep`, over the added commands.
    pos = {uid: i for i, uid in enumerate(stable_history)}
    revocations = Counter()
    retained = set()
    for rid in d.correct:
        revocations.update(d.revoked.get(rid, ()))
        seen = set()
        lcp = 0
        for _, keep, add, _, _ in d.snapshots.get(rid, []):
            lcp = min(lcp, keep)
            end = min(keep + len(add), len(stable_history))
            while keep <= lcp < end and add[lcp - keep] == stable_history[lcp]:
                lcp += 1
            for i, uid in enumerate(add, keep):
                if uid[0] == rid and uid not in seen:
                    seen.add(uid)
                    if pos.get(uid) == i <= lcp:
                        retained.add(uid)

    return StabilityReport(curve, final_len, stable_history,
                           dict(revocations), retained, issued,
                           d.quiescent, snaps[k_star][0], d.correct)


def fairness_report(trace, report: StabilityReport, window: int = 10):
    """Fairness and no-starvation verdicts from a stability report.

    Fairness: every command that every correct replica inserted before
    the tail window opens (`t_stable_start`) must be in the stabilized
    prefix.  A command some correct replica had not inserted by then, such
    as one still in flight when a run without a flush ends, cannot have
    stabilized in the trace; it is reported as indeterminate, not as a
    failure.  Starvation: a replica fails when its last `window` commands
    in the stabilized prefix all lost the basis they were issued against.
    """
    d = _digest(trace)
    stable = report.stable_history
    stable_set = set(stable)
    start = report.t_stable_start

    late = 0
    unstable = []
    for rid in d.correct:
        for t, uid in d.appends.get(rid, []):
            if uid in stable_set:
                continue
            if t >= start:
                late += 1
            else:
                unstable.append(uid)
    missing = [uid for uid in unstable if all(
        d.inserted.get(rid, {}).get(uid, start) < start for rid in d.correct)]
    indeterminate = late + len(unstable) - len(missing)

    starvation = {}
    for rid in d.correct:
        own = [uid for uid in stable if uid[0] == rid]
        tail = own[-window:]
        if len(tail) < window:
            starvation[rid] = "indeterminate"
            continue
        starvation[rid] = ("pass" if report.retained.intersection(tail)
                           else "fail")

    ok = not missing and all(v != "fail" for v in starvation.values())
    return {"name": "fairness", "ok": ok,
            "fairness_ok": not missing,
            "missing_from_stable": sorted(missing),
            "indeterminate": indeterminate,
            "starvation": starvation}


def _monotone(curve):
    return all(b[1] >= a[1] for a, b in zip(curve, curve[1:]))


def check_stability(report: StabilityReport, min_fraction=0.0):
    """Growing-stable-prefix verdict from a stability report: monotone
    curve, threshold on length."""
    total_issued = sum(report.issued.values())
    need = int(total_issued * min_fraction)
    ok = _monotone(report.curve) and report.final_len >= need
    return {"name": "stability", "ok": ok,
            "monotone": _monotone(report.curve),
            "final_len": report.final_len,
            "issued": total_issued,
            "required": need}


def check_safety(trace):
    """The per-trace safety suite; every sub-verdict must hold.

    Every check runs on every snapshot.  Under a reconciler with a leader
    scan, reconciliation equivalence is verified by one certificate
    (`_batches_verified`) with the leaders of the replica's scan, plus a
    from-scratch reconciliation at each replica's final snapshot; under a
    reconciler without one, by a from-scratch reconciliation at every
    snapshot.
    """
    d = _digest(trace)
    problems = defaultdict(list)

    # Validity: successful appends per issuer carry seqs 1,2,3,... and every
    # snapshot element matches an issued command, without repeats.
    issued = set()
    for rid, apps in d.appends.items():
        for i, (_, uid) in enumerate(apps):
            if uid != (rid, i + 1):
                problems["validity"].append(
                    "replica %d append %d has uid %r" % (rid, i + 1, uid))
            issued.add(uid)

    # Validity of each snapshot's added commands, monotonicity and
    # wait-freedom over the snapshot stream.
    for rid in range(1, d.n + 1):
        for delta in d.snapshots.get(rid, []):
            if delta.repeated:
                problems["validity"].append(
                    "repeated command in history of %d at t=%d"
                    % (rid, delta.t))
            for uid in sorted(set(delta.add) - issued):
                problems["validity"].append(
                    "unissued %r in history of %d" % (uid, rid))
            if delta.shrank:
                problems["monotonicity"].append(
                    "history of %d shrank at t=%d" % (rid, delta.t))
        for uid in d.unseen.get(rid, []):
            problems["wait_freedom"].append(
                "command %r missing from issuer snapshot" % (uid,))

    # Reliable broadcast properties.
    for rid in range(1, d.n + 1):
        for uid, cnt in d.delivers.get(rid, {}).items():
            if cnt > 1:
                problems["rb_integrity"].append(
                    "%r delivered %d times at %d" % (uid, cnt, rid))
            if uid not in issued:
                problems["rb_integrity"].append(
                    "%r delivered but never broadcast" % (uid,))
    for rid in d.correct:
        for _, uid in d.appends.get(rid, []):
            if uid not in d.inserted.get(rid, ()):
                problems["rb_validity"].append(
                    "correct sender %d missing own %r" % (rid, uid))
    if d.quiescent:
        known = {rid: d.inserted.get(rid, {}) for rid in d.correct}
        union = set().union(*known.values())
        for rid, k in known.items():
            for uid in union.difference(k):
                problems["rb_totality"].append(
                    "correct replica %d never got %r" % (rid, uid))
    for uid, cnt in d.sends.items():
        if cnt > d.n * d.n:
            problems["message_bound"].append(
                "%d channel sends for %r" % (cnt, uid))

    # One pass over inserts and snapshots, in trace order, rebuilds every
    # replica's DAG and history.  Each insert is checked against the DAG
    # invariants.  At each snapshot the history must equal the
    # reconciliation of the DAG, which also implies RF-Totality per
    # snapshot.
    dags = {rid: CommandDag() for rid in range(1, d.n + 1)}
    scan = getattr(d.recon, "scan", None)
    scans = {rid: scan(dag) for rid, dag in dags.items()} if scan else {}
    histories = defaultdict(list)
    # rid -> the prefix of its history that passed at its last snapshot
    # and whose batches' leaders have not changed since
    verified = defaultdict(int)
    cmds = {}
    first = {}                  # uid -> (parent uids, dist) where first seen
    level_count = defaultdict(Counter)
    for t, tag, rid, key, value in d.ordered:
        dag = dags[rid]
        if tag == 1:
            i, delta = key, value
            h = histories[rid]
            _apply(h, delta.keep, delta.add)
            if not scans:
                same = d.recon(dag) == list(map(cmds.get, h))
            else:
                verified[rid] = _batches_verified(
                    dag, cmds, h, min(delta.keep, verified[rid]),
                    scans[rid].leaders)
                same = verified[rid] == len(h) == len(dag)
                if i == len(d.snapshots[rid]) - 1:
                    same = same and d.recon(dag) == list(map(cmds.get, h))
            if not same:
                problems["recon_equivalence"].append(
                    "replica %d snapshot at t=%d != recon(dag)" % (rid, t))
            continue
        uid, parents = key, value
        # No reconciler reads a command's op, so the rebuilt DAG has none.
        v = cmds.setdefault(uid, Command((), *uid))
        # A parent no replica has inserted stays a bare uid, which no DAG
        # contains, so insert rejects it like a parent known elsewhere.
        try:
            dag.insert(v, {cmds.get(p, p) for p in parents} or {EPSILON})
        except DagError as exc:
            raise ConfigError("replica %d cannot insert %r at t=%d: %s %s"
                              % (rid, uid, t, type(exc).__name__, exc)
                              ) from None
        k = scans[rid].insert(v) if scans else None
        if k is not None:       # the batches from leader k on changed
            pos = scans[rid].leaders[k - 1].bit_count() if k else 0
            verified[rid] = min(verified[rid], pos)
        # Equal parent sets at every replica imply, by induction over
        # insertion order, equal causal pasts.
        dv = level_key(dag, v)[0]
        first_parents, first_dist = first.setdefault(uid, (parents, dv))
        if first_parents != parents:
            problems["past_immutability"].append(
                "parents of %r differ at replica %d" % (uid, rid))
        if first_dist != dv:
            problems["dist_immutability"].append(
                "dist of %r differs at replica %d" % (uid, rid))
        level_count[rid][dv] += 1
        if level_count[rid][dv] > d.n:
            problems["level_bound"].append(
                "replica %d has %d vertices at distance %d"
                % (rid, level_count[rid][dv], dv))

    names = ["validity", "monotonicity", "wait_freedom",
             "past_immutability", "level_bound", "dist_immutability",
             "rb_integrity", "rb_validity", "rb_totality", "message_bound",
             "recon_equivalence"]
    verdict = {"name": "safety", "ok": not problems}
    for nm in names:
        verdict[nm] = {"ok": nm not in problems,
                       "problems": problems.get(nm, [])[:10]}
    return verdict


def _batches_verified(dag, cmds, h, start, leaders):
    """How far the history `h` is the leader batches of the past masks
    `leaders` followed by the leftover batch: the length of the prefix that
    passes, walked from `start` with `h[:start]` taken as passed.  h is
    f_fair(dag) for `fair_leaders(dag)`, f_bfs(dag) for no leaders, iff
    that length is len(h) == len(dag).  No batch is expanded.

    Let m_1..m_k be the leader masks, strictly nested, and m_0 = 0.  Batch
    j ends at position m_j.bit_count(), the leftover batch k + 1 at
    len(dag).  Each x of batch j <= k has past(x) | m_j == m_j, and each x
    of batch j has past(x) | m_{j-1} != m_{j-1}; the leftover batch has no
    upper mask, as it holds every other DAG member.  Inside a batch the
    level key strictly increases, ties broken by insertion index, which is
    the highest bit of a past mask: both reconcilers sort a batch by level
    key, stably, from insertion order.  A batch holding only members of
    its mask difference, in strict order, holds each member once; with
    len(h) == len(dag) it holds all of them.  So these facts hold iff h is
    that history, on any DAG.

    Each position's facts rest on its batch's two masks and on the
    position before it only, and past masks never change, so the walk
    starts at `start`, which the caller keeps at or below the first
    position where h, or the batch holding it, changed since it last
    passed, and stops at the first failing position.
    """
    past = dag.past_masks()
    b = bisect_right(leaders, start, key=int.bit_count)  # batch of `start`
    lower = leaders[b - 1] if b else 0
    # The leftover batch has upper mask 0, which stands for none, and no
    # end.
    upper = leaders[b] if b < len(leaders) else 0
    end = upper.bit_count() or None
    prev = ()                               # below every level key
    if start > lower.bit_count():           # inside a batch; h[start - 1]
        u = cmds[h[start - 1]]              # passed, so it is in the DAG
        prev, prev_p = level_key(dag, u), past[u]
    for i in range(start, len(h)):
        if i == end:
            b += 1
            lower, upper = upper, leaders[b] if b < len(leaders) else 0
            end = upper.bit_count() or None
            prev = ()
        v = cmds.get(h[i])
        p = past.get(v, 0)                  # 0 is inside every mask
        if p | lower == lower or upper and p | upper != upper:
            return i
        key = level_key(dag, v)
        if prev >= key and (prev > key or prev_p >= p):
            return i
        prev, prev_p = key, p
    return len(h)


def run_all_checks(trace, window: int = 10):
    """Every checker on one trace; convergence only binds at quiescence.

    The trace is digested once and its stability report computed once;
    every checker reads those.
    """
    d = _Digest(trace)
    report = stable_prefix(d)
    verdicts = {}
    verdicts["safety"] = check_safety(d)
    verdicts["stability"] = check_stability(report)
    verdicts["fairness"] = fairness_report(d, report, window=window)
    if d.quiescent:
        verdicts["convergence"] = check_convergence(d)
    verdicts["ok"] = all(v["ok"] for v in verdicts.values()
                         if isinstance(v, dict))
    return verdicts
