"""Trace checkers: convergence, stability, fairness and safety.

All checkers consume a Trace produced by `dagrepl.sim.run` (or reloaded
from a trace file), or the one-pass digest of it that `run_all_checks`
shares between them, and return verdict objects; they never mutate the
trace.  Histories and vertices are identified by (issuer, seq) pairs.

Stability is finite-trace approximated: a prefix of length L counts as
stabilized once every recorded snapshot from some point onward starts
with one fixed L-sequence, measured from the latest point at which every
correct replica still has a snapshot ahead.  With sampled snapshots the
checkers may miss revocations but never invent them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .dag import Command, CommandDag, DagError, EPSILON
from .reconcile import get_reconciler
from .sim import ConfigError


def _lcp(a, b):
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _int(x):
    if type(x) is not int:
        raise TypeError("%r is not an integer" % (x,))
    return x


def _uid(x):
    issuer, seq = x
    return _int(issuer), _int(seq)


class _Digest:
    """One linear pass over the trace, shared by the checkers.

    It is the checkers' only reader of raw events.  It requires strictly
    increasing `t` and well-formed fields, raising ConfigError that names
    the offending event otherwise, so the checkers trust what it records.
    """

    def __init__(self, trace):
        meta = trace.meta
        self.n = meta["scenario"]["n"]
        self.recon_name = meta["scenario"]["recon"]
        self.quiescent = meta["quiescent"]
        self.crashed = set(meta["crashed"])
        self.correct = [r for r in range(1, self.n + 1)
                        if r not in self.crashed]
        self.appends = defaultdict(list)    # rid -> [(t, uid)]
        self.snapshots = defaultdict(list)  # rid -> [(t, tuple of uid)]
        self.inserted = defaultdict(set)    # rid -> uids inserted there
        self.delivers = defaultdict(list)   # rid -> [uid]
        self.sends = Counter()              # uid -> channel send count
        # Inserts (t, 0, rid, uid, parent uids) and snapshots
        # (t, 1, rid, index in snapshots[rid], h), in trace order.
        self.ordered = []
        prev_t = None
        for pos, ev in enumerate(trace.events, 1):
            try:
                kind, t, rid, value = self._decode(ev)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    "trace event %d (t=%r) is malformed: %s %s"
                    % (pos, ev.get("t") if isinstance(ev, dict) else None,
                       type(exc).__name__, exc)) from None
            if prev_t is not None and t <= prev_t:
                raise ConfigError("trace event %d has t=%d, not above the "
                                  "previous event's t=%d" % (pos, t, prev_t))
            prev_t = t
            if kind == "append":
                self.appends[rid].append((t, value))
            elif kind == "history":
                self.ordered.append((t, 1, rid, len(self.snapshots[rid]),
                                     value))
                self.snapshots[rid].append((t, value))
            elif kind == "insert":
                self.ordered.append((t, 0, rid) + value)
                self.inserted[rid].add(value[0])
            elif kind == "deliver":
                self.delivers[rid].append(value)
            elif kind == "send":
                self.sends[value] += 1

    def _decode(self, ev):
        """(kind, t, replica, fields) of one event, or KeyError, TypeError
        or ValueError for a missing or malformed field or an unknown kind."""
        kind, t = ev["kind"], _int(ev["t"])
        if kind in ("append_bottom", "crash", "partition_start",
                    "partition_end"):       # nothing read but `t`
            return kind, t, None, None
        if kind == "send":
            return kind, t, None, _uid(ev["uid"])
        if kind not in ("append", "history", "insert", "deliver"):
            raise ValueError("unknown event kind %r" % (kind,))
        rid = _int(ev["replica"])
        if not 1 <= rid <= self.n:
            raise ValueError("replica %d is not in 1..%d" % (rid, self.n))
        if kind == "append":
            value = (rid, _int(ev["seq"]))
        elif kind == "history":
            value = tuple(map(_uid, ev["h"]))
        elif kind == "insert":
            value = (_uid(ev["vertex"]), frozenset(map(_uid, ev["parents"])))
        else:
            value = _uid(ev["uid"])
        return kind, t, rid, value


def _digest(trace):
    """`trace` itself when it is already a digest, else its digest."""
    return trace if isinstance(trace, _Digest) else _Digest(trace)


def check_convergence(trace):
    """All correct replicas ended with the same history sequence."""
    d = _digest(trace)
    finals = {}
    for rid in d.correct:
        snaps = d.snapshots.get(rid, [])
        finals[rid] = snaps[-1][1] if snaps else ()
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
    basis_at_issue: dict              # uid -> basis tuple (issuer view)
    issued: dict                      # rid -> successfully issued count
    quiescent: bool
    t_stable_start: int               # trace step the tail window opens at
    correct: list = field(default_factory=list)


def stable_prefix(trace) -> StabilityReport:
    d = _digest(trace)
    correct = set(d.correct)
    snaps = [(t, rid, h) for t, tag, rid, _, h in d.ordered
             if tag == 1 and rid in correct]

    issued = {rid: len(d.appends.get(rid, [])) for rid in d.correct}

    if not snaps:
        return StabilityReport([], 0, (), {}, {}, issued, d.quiescent, 0,
                               d.correct)

    # longest common prefix of every snapshot in the suffix starting at k
    lcp_from = [0] * len(snaps)
    common = snaps[-1][2]
    for k in range(len(snaps) - 1, -1, -1):
        common = common[:_lcp(common, snaps[k][2])]
        lcp_from[k] = len(common)

    last_index = {}
    for k, (_, rid, _) in enumerate(snaps):
        last_index[rid] = k
    k_star = min(last_index.values())
    final_len = lcp_from[k_star]
    prefix_value = snaps[-1][2][:final_len]

    if d.quiescent and len({d.snapshots[r][-1][1] for r in d.correct
                            if d.snapshots.get(r)}) == 1:
        stable_history = snaps[-1][2]
    else:
        stable_history = prefix_value

    curve = [(snaps[k][0], lcp_from[k]) for k in range(k_star + 1)]

    revocations = Counter()
    basis_at_issue = {}
    for rid in d.correct:
        prev = ()
        seen = set()
        for _, h in d.snapshots.get(rid, []):
            cut = _lcp(prev, h)
            for uid in prev[cut:]:
                revocations[uid] += 1
            # h[:cut] is prev[:cut], whose own commands are already seen
            for pos, uid in enumerate(h[cut:], cut):
                if uid[0] == rid and uid not in seen:
                    seen.add(uid)
                    basis_at_issue[uid] = h[:pos]
            prev = h

    return StabilityReport(curve, final_len, stable_history,
                           dict(revocations), basis_at_issue, issued,
                           d.quiescent, snaps[k_star][0], d.correct)


def fairness_report(trace, report: StabilityReport, window: int = 10):
    """Fairness and no-starvation verdicts from a stability report.

    Fairness: every command issued by a correct replica well before the
    horizon must be in the stabilized prefix; late issues are reported as
    indeterminate, not failures.  Starvation: a replica fails when its
    last `window` commands in the stabilized prefix all lost the basis
    they were issued against.
    """
    d = _digest(trace)
    stable = report.stable_history
    stable_set = set(stable)
    pos = {uid: i for i, uid in enumerate(stable)}

    missing = []
    indeterminate = 0
    for rid in d.correct:
        for t, uid in d.appends.get(rid, []):
            if uid in stable_set:
                continue
            if t >= report.t_stable_start:
                indeterminate += 1
            else:
                missing.append(uid)

    starvation = {}
    for rid in d.correct:
        own = [uid for uid in stable if uid[0] == rid]
        tail = own[-window:]
        if len(tail) < window:
            starvation[rid] = "indeterminate"
            continue
        retained = [uid for uid in tail
                    if report.basis_at_issue.get(uid) == stable[:pos[uid]]]
        starvation[rid] = "pass" if retained else "fail"

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


def check_safety(trace, sample: int = 1):
    """The per-trace safety suite; every sub-verdict must hold.

    `sample` thins the reconciliation-equivalence recomputation to every
    sample-th snapshot (final snapshots always included); all other checks
    run on everything recorded.
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

    # Validity of each snapshot, monotonicity and wait-freedom over the
    # snapshot stream.
    for rid in range(1, d.n + 1):
        snaps = d.snapshots.get(rid, [])
        prev = set()
        for t, h in snaps:
            cur = set(h)
            if len(cur) != len(h):
                problems["validity"].append(
                    "repeated command in history of %d at t=%d" % (rid, t))
            for uid in sorted(cur - issued):
                problems["validity"].append(
                    "unissued %r in history of %d" % (uid, rid))
            if not prev <= cur:
                problems["monotonicity"].append(
                    "history of %d shrank at t=%d" % (rid, t))
            prev = cur
        times = [t for t, _ in snaps]
        for t, uid in d.appends.get(rid, []):
            k = bisect_left(times, t)
            if k == len(snaps) or uid not in snaps[k][1]:
                problems["wait_freedom"].append(
                    "command %r missing from issuer snapshot" % (uid,))

    # Reliable broadcast properties.
    for rid in range(1, d.n + 1):
        seen = Counter(d.delivers.get(rid, []))
        for uid, cnt in seen.items():
            if cnt > 1:
                problems["rb_integrity"].append(
                    "%r delivered %d times at %d" % (uid, cnt, rid))
            if uid not in issued:
                problems["rb_integrity"].append(
                    "%r delivered but never broadcast" % (uid,))
    for rid in [r for r in range(1, d.n + 1) if r not in d.crashed]:
        for _, uid in d.appends.get(rid, []):
            if uid not in d.inserted.get(rid, ()):
                problems["rb_validity"].append(
                    "correct sender %d missing own %r" % (rid, uid))
    if d.quiescent:
        known = {rid: d.inserted.get(rid, set()) for rid in d.correct}
        union = set().union(*known.values()) if known else set()
        for rid, k in known.items():
            for uid in union - k:
                problems["rb_totality"].append(
                    "correct replica %d never got %r" % (rid, uid))
    for uid, cnt in d.sends.items():
        if cnt > d.n * d.n:
            problems["message_bound"].append(
                "%d channel sends for %r" % (cnt, uid))

    # One pass over inserts and snapshots, in trace order, rebuilds every
    # replica's DAG.  Each insert is checked against the DAG invariants.
    # At (sampled) snapshot points the history must equal a from-scratch
    # reconciliation of the DAG, which also implies RF-Totality per
    # snapshot.
    recon = get_reconciler(d.recon_name)
    dags = {rid: CommandDag() for rid in range(1, d.n + 1)}
    cmds = {}
    first = {}                  # uid -> (parent uids, dist) where first seen
    level_count = defaultdict(Counter)
    for t, tag, rid, key, value in d.ordered:
        dag = dags[rid]
        if tag == 1:
            i, h = key, value
            if i != len(d.snapshots[rid]) - 1 and (i + 1) % sample != 0:
                continue
            expect = tuple((c.issuer, c.seq) for c in recon(dag))
            if expect != h:
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
        # Equal parent sets at every replica imply, by induction over
        # insertion order, equal causal pasts.
        dv = dag.dist(v)
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


def run_all_checks(trace, window: int = 10, sample: int = 1):
    """Every checker on one trace; convergence only binds at quiescence.

    The trace is digested once and its stability report computed once;
    every checker reads those.
    """
    d = _Digest(trace)
    report = stable_prefix(d)
    verdicts = {}
    verdicts["safety"] = check_safety(d, sample=sample)
    verdicts["stability"] = check_stability(report)
    verdicts["fairness"] = fairness_report(d, report, window=window)
    if d.quiescent:
        verdicts["convergence"] = check_convergence(d)
    verdicts["ok"] = all(v["ok"] for v in verdicts.values()
                         if isinstance(v, dict))
    return verdicts
