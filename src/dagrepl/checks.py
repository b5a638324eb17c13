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


class _Digest:
    """One linear pass over the trace, shared by the checkers."""

    def __init__(self, trace):
        meta = trace.meta
        self.n = meta["scenario"]["n"]
        self.recon_name = meta["scenario"]["recon"]
        self.quiescent = meta["quiescent"]
        self.crashed = set(meta["crashed"])
        self.correct = [r for r in range(1, self.n + 1)
                        if r not in self.crashed]
        self.appends = defaultdict(list)    # rid -> [(t, uid, op, resp)]
        self.bottoms = defaultdict(list)    # rid -> [(t, op)]
        self.ops = {}                       # uid -> op tuple
        self.snapshots = defaultdict(list)  # rid -> [(t, tuple of uid)]
        self.inserts = defaultdict(list)    # rid -> [(t, uid, parent uids)]
        self.delivers = defaultdict(list)   # rid -> [(t, uid)]
        self.sends = Counter()              # uid -> channel send count
        for ev in trace.events:
            kind = ev["kind"]
            if kind == "append":
                uid = (ev["replica"], ev["seq"])
                self.appends[ev["replica"]].append(
                    (ev["t"], uid, tuple(ev["op"]), ev["resp"]))
                self.ops[uid] = tuple(ev["op"])
            elif kind == "append_bottom":
                self.bottoms[ev["replica"]].append((ev["t"],
                                                    tuple(ev["op"])))
            elif kind == "history":
                self.snapshots[ev["replica"]].append(
                    (ev["t"], tuple((j, s) for j, s in ev["h"])))
            elif kind == "insert":
                self.inserts[ev["replica"]].append(
                    (ev["t"], tuple(ev["vertex"]),
                     tuple(tuple(p) for p in ev["parents"])))
            elif kind == "deliver":
                self.delivers[ev["replica"]].append(
                    (ev["t"], tuple(ev["uid"])))
            elif kind == "send":
                self.sends[tuple(ev["uid"])] += 1


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
    per_replica: dict                 # rid -> {"in_stable", "never_revoked"}
    issued: dict                      # rid -> successfully issued count
    quiescent: bool
    t_stable_start: int               # trace step the tail window opens at
    correct: list = field(default_factory=list)


def stable_prefix(trace) -> StabilityReport:
    d = _digest(trace)
    merged = []
    for rid in d.correct:
        for t, h in d.snapshots.get(rid, []):
            merged.append((t, rid, h))
    merged.sort(key=lambda x: x[0])

    issued = {rid: len(d.appends.get(rid, [])) for rid in d.correct}

    if not merged:
        return StabilityReport([], 0, (), {}, {}, {}, issued,
                               d.quiescent, 0, d.correct)

    # longest common prefix of every snapshot in the suffix starting at k
    lcp_from = [0] * len(merged)
    common = merged[-1][2]
    for k in range(len(merged) - 1, -1, -1):
        common = common[:_lcp(common, merged[k][2])]
        lcp_from[k] = len(common)
        common = merged[k][2][:len(common)]

    last_index = {}
    for k, (_, rid, _) in enumerate(merged):
        last_index[rid] = k
    k_star = min(last_index.values())
    final_len = lcp_from[k_star]
    prefix_value = merged[-1][2][:final_len]

    if d.quiescent and len({d.snapshots[r][-1][1] for r in d.correct
                            if d.snapshots.get(r)}) == 1:
        stable_history = merged[-1][2]
    else:
        stable_history = prefix_value

    curve = [(merged[k][0], lcp_from[k]) for k in range(k_star + 1)]

    revocations = Counter()
    basis_at_issue = {}
    for rid in d.correct:
        snaps = d.snapshots.get(rid, [])
        prev = ()
        seen = set()
        for _, h in snaps:
            cut = _lcp(prev, h)
            for uid in prev[cut:]:
                revocations[uid] += 1
            for pos, uid in enumerate(h):
                if uid[0] == rid and uid not in seen:
                    seen.add(uid)
                    basis_at_issue[uid] = h[:pos]
            prev = h

    per_replica = {}
    for rid in d.correct:
        own = [uid for uid in stable_history if uid[0] == rid]
        per_replica[rid] = {
            "in_stable": len(own),
            "never_revoked": sum(1 for uid in own
                                 if revocations.get(uid, 0) == 0),
        }

    return StabilityReport(curve, final_len, stable_history,
                           dict(revocations), basis_at_issue, per_replica,
                           issued, d.quiescent, merged[k_star][0], d.correct)


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
        for t, uid, _, _ in d.appends.get(rid, []):
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
        for i, (_, uid, _, _) in enumerate(apps):
            if uid != (rid, i + 1):
                problems["validity"].append(
                    "replica %d append %d has uid %r" % (rid, i + 1, uid))
            issued.add(uid)
    for rid in range(1, d.n + 1):
        for t, h in d.snapshots.get(rid, []):
            if len(set(h)) != len(h):
                problems["validity"].append(
                    "repeated command in history of %d at t=%d" % (rid, t))
            for uid in h:
                if uid not in issued:
                    problems["validity"].append(
                        "unissued %r in history of %d" % (uid, rid))

    # Monotonicity and wait-freedom over the snapshot stream.
    for rid in range(1, d.n + 1):
        snaps = d.snapshots.get(rid, [])
        prev = set()
        for t, h in snaps:
            cur = set(h)
            if not prev <= cur:
                problems["monotonicity"].append(
                    "history of %d shrank at t=%d" % (rid, t))
            prev = cur
        times = [t for t, _ in snaps]
        for t, uid, _, _ in d.appends.get(rid, []):
            k = bisect_left(times, t)
            if k == len(snaps) or uid not in snaps[k][1]:
                problems["wait_freedom"].append(
                    "command %r missing from issuer snapshot" % (uid,))

    # Reliable broadcast properties.
    for rid in range(1, d.n + 1):
        seen = Counter(uid for _, uid in d.delivers.get(rid, []))
        for uid, cnt in seen.items():
            if cnt > 1:
                problems["rb_integrity"].append(
                    "%r delivered %d times at %d" % (uid, cnt, rid))
            if uid not in issued:
                problems["rb_integrity"].append(
                    "%r delivered but never broadcast" % (uid,))
    for rid in [r for r in range(1, d.n + 1) if r not in d.crashed]:
        own_inserted = {uid for _, uid, _ in d.inserts.get(rid, [])
                        if uid[0] == rid}
        for _, uid, _, _ in d.appends.get(rid, []):
            if uid not in own_inserted:
                problems["rb_validity"].append(
                    "correct sender %d missing own %r" % (rid, uid))
    if d.quiescent:
        known = {}
        for rid in d.correct:
            known[rid] = {uid for _, uid, _ in d.inserts.get(rid, [])}
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
    merged = []
    for rid, ins in d.inserts.items():
        for t, uid, parents in ins:
            merged.append((t, 0, rid, uid, parents))
    for rid, snaps in d.snapshots.items():
        for i, (t, h) in enumerate(snaps):
            merged.append((t, 1, rid, i, h))
    merged.sort(key=lambda x: x[:2])
    dags = {rid: CommandDag() for rid in range(1, d.n + 1)}
    cmds = {}
    first = {}                  # uid -> (past, parents, dist) where first seen
    level_count = defaultdict(Counter)
    for t, tag, rid, key, value in merged:
        dag = dags.get(rid)
        if dag is None:
            raise ConfigError("replica %r at t=%d is not in 1..%d (%s)"
                              % (rid, t, d.n, "history" if tag else
                                 "insert of %r" % (key,)))
        if tag == 1:
            i, h = key, value
            if i != len(d.snapshots[rid]) - 1 and (i + 1) % sample != 0:
                continue
            expect = tuple((c.issuer, c.seq) for c in recon(dag))
            if expect != h:
                problems["recon_equivalence"].append(
                    "replica %d snapshot at t=%d != recon(dag)" % (rid, t))
            continue
        uid, parent_uids = key, value
        v = cmds.setdefault(
            uid, Command(d.ops.get(uid, ("?",)), uid[0], uid[1]))
        # A parent no replica has inserted stays a bare uid, which no DAG
        # contains, so insert rejects it like a parent known elsewhere.
        try:
            dag.insert(v, {cmds.get(p, p) for p in parent_uids}
                       or {EPSILON})
        except DagError as exc:
            raise ConfigError("replica %d cannot insert %r at t=%d: %s %s"
                              % (rid, uid, t, type(exc).__name__, exc)
                              ) from None
        pset = frozenset((c.issuer, c.seq) for c in dag.past(v))
        parents = frozenset((p.issuer, p.seq) for p in dag.parents_of(v)
                            if isinstance(p, Command))
        dv = dag.dist(v)
        first_past, first_parents, first_dist = first.setdefault(
            uid, (pset, parents, dv))
        if first_past != pset:
            problems["past_immutability"].append(
                "past of %r differs at replica %d" % (uid, rid))
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

    # Distances cached at insertion must equal a from-scratch recomputation
    # on the final DAG (they were recorded incrementally above).
    for rid, dag in dags.items():
        for v in dag.commands():
            fresh = 1 + max((0 if p is EPSILON else dag.dist(p))
                            for p in dag.parents_of(v))
            if fresh != first[(v.issuer, v.seq)][2]:
                problems["dist_immutability"].append(
                    "cached dist of %r drifted at replica %d"
                    % ((v.issuer, v.seq), rid))

    names = ["validity", "monotonicity", "wait_freedom",
             "past_immutability", "level_bound", "dist_immutability",
             "rb_integrity", "rb_validity", "rb_totality", "message_bound",
             "recon_equivalence"]
    verdict = {"name": "safety", "ok": not problems}
    for nm in names:
        verdict[nm] = {"ok": nm not in problems,
                       "problems": problems.get(nm, [])[:10]}
    return verdict


def run_all_checks(trace, window: int = 10, min_fraction: float = 0.0,
                   sample: int = 1):
    """Every checker on one trace; convergence only binds at quiescence.

    The trace is digested once and its stability report computed once;
    every checker reads those.
    """
    d = _Digest(trace)
    report = stable_prefix(d)
    verdicts = {}
    verdicts["safety"] = check_safety(d, sample=sample)
    verdicts["stability"] = check_stability(report, min_fraction=min_fraction)
    verdicts["fairness"] = fairness_report(d, report, window=window)
    if d.quiescent:
        verdicts["convergence"] = check_convergence(d)
    verdicts["ok"] = all(v["ok"] for v in verdicts.values()
                         if isinstance(v, dict))
    return verdicts
