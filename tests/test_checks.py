import copy
import random
from collections import Counter, defaultdict

import pytest

from dagrepl import reconcile
from dagrepl.checks import StabilityReport, _batches_verified, \
    check_convergence, check_safety, check_stability, fairness_report, \
    run_all_checks, stable_prefix
from dagrepl.dag import Command, CommandDag, EPSILON
from dagrepl.reconcile import _LeaderScan, f_bfs, f_fair, f_lifo, \
    fair_leaders
from dagrepl.sim import ConfigError, Scenario, Trace, full_histories, run
from dagrepl.scenarios import STARVATION_VICTIM, continuous_scenario, \
    fig1_scenario, random_scenario, starvation_scenario

from oracles import lcp, naive_retained, naive_starvation, \
    random_out_of_order_dag, random_protocol_dag, trace_snapshots


def _mutated(trace, fn):
    """A copy of `trace` changed by `fn`, which sees each history event's
    full history as `h`; the histories `fn` leaves are encoded back as
    deltas with exact `keep`."""
    t = Trace(copy.deepcopy(trace.meta), copy.deepcopy(trace.events))
    for ev, h in list(full_histories(t.events)):
        ev["h"] = h
        del ev["keep"], ev["add"]
    fn(t)
    prev = {}
    for ev in t.events:
        if ev["kind"] == "history":
            h = ev.pop("h")
            keep = lcp(prev.get(ev["replica"], []), h)
            ev.update(keep=keep, add=h[keep:])
            prev[ev["replica"]] = h
    return t


@pytest.fixture(scope="module")
def random_trace():
    return run(random_scenario(21, "fair"))


def test_convergence_pass(random_trace):
    verdict = check_convergence(random_trace)
    assert verdict["ok"]
    assert verdict["distinct_final_histories"] == 1


def test_convergence_fails_on_divergent_finals(random_trace):
    def corrupt(t):
        # flip the last snapshot of the first correct replica
        for ev in reversed(t.events):
            if ev["kind"] == "history" and ev["h"]:
                ev["h"] = list(reversed(ev["h"]))
                return
    bad = _mutated(random_trace, corrupt)
    assert not check_convergence(bad)["ok"]


def test_convergence_not_claimed_without_quiescence(random_trace):
    bad = _mutated(random_trace, lambda t: t.meta.update(quiescent=False))
    assert not check_convergence(bad)["ok"]


def test_stability_continuous_bfs_monotone_and_long():
    trace = run(continuous_scenario(1, "bfs"))
    report = stable_prefix(trace)
    lens = [l for _, l in report.curve]
    assert lens == sorted(lens)
    issued = sum(report.issued.values())
    assert report.final_len >= issued * 2 // 3
    verdict = check_stability(report, min_fraction=2 / 3)
    assert verdict["ok"]


def test_stability_continuous_lifo_never_stabilizes():
    # Newest-first ordering keeps rewriting the head of the history, so
    # under continuous load the stabilized prefix stays empty.
    trace = run(continuous_scenario(1, "lifo"))
    report = stable_prefix(trace)
    assert report.final_len == 0
    assert not check_stability(report, min_fraction=0.1)["ok"]


def test_stability_quiescent_prefix_is_full_history(random_trace):
    report = stable_prefix(random_trace)
    assert report.quiescent
    finals = {ev["replica"]: tuple(map(tuple, h))
              for ev, h in full_histories(random_trace.events)}
    assert report.stable_history in set(finals.values())


def test_starvation_verdicts():
    bfs = run(starvation_scenario("bfs"))
    fair = run(starvation_scenario("fair"))
    bfs_fair = fairness_report(bfs, stable_prefix(bfs), window=5)
    fair_fair = fairness_report(fair, stable_prefix(fair), window=5)
    assert bfs_fair["starvation"][STARVATION_VICTIM] == "fail"
    assert fair_fair["starvation"][STARVATION_VICTIM] == "pass"
    assert fair_fair["ok"]


def test_starvation_indeterminate_on_tiny_run():
    trace = run(fig1_scenario("fair"))
    verdict = fairness_report(trace, stable_prefix(trace), window=10)
    # no replica issued 10 commands, so no starvation claim either way
    assert set(verdict["starvation"].values()) == {"indeterminate"}


@pytest.mark.parametrize("recon", ["bfs", "fair", "lifo"])
def test_fairness_counts_commands_in_flight_as_indeterminate(recon):
    # Without a final flush, a command that some correct replica had not
    # inserted when the tail window opened cannot have stabilized: it is
    # indeterminate, not missing.  Checked against the raw events.
    in_flight = 0
    for seed in range(4):
        trace = run(continuous_scenario(seed, recon))
        report = stable_prefix(trace)
        verdict = fairness_report(trace, report)
        start, correct = report.t_stable_start, set(report.correct)
        got = defaultdict(set)          # uid -> correct replicas, in time
        early = []                      # unstable, issued before `start`
        for ev in trace.events:
            if ev["t"] >= start or ev.get("replica") not in correct:
                continue
            if ev["kind"] == "insert":
                got[tuple(ev["vertex"])].add(ev["replica"])
            elif ev["kind"] == "append":
                uid = (ev["replica"], ev["seq"])
                if uid not in report.stable_history:
                    early.append(uid)
        missing = sorted(uid for uid in early if got[uid] == correct)
        unstable = sum(issued for issued in report.issued.values()) \
            - len(report.stable_history)
        assert verdict["missing_from_stable"] == missing
        assert verdict["indeterminate"] == unstable - len(missing)
        in_flight += len(early) - len(missing)
        if recon == "fair" and seed == 0:   # the CLI's default run
            assert verdict["ok"] and verdict["indeterminate"]
    assert in_flight


def test_safety_pass(random_trace):
    verdict = check_safety(random_trace)
    assert verdict["ok"]
    for key, sub in verdict.items():
        if isinstance(sub, dict):
            assert sub["ok"], (key, sub["problems"])


def test_safety_detects_unissued_command(random_trace):
    def corrupt(t):
        for ev in t.events:
            if ev["kind"] == "history" and ev["h"]:
                ev["h"] = ev["h"] + [[99, 1]]
                return
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["validity"]["ok"]


def test_safety_detects_shrinking_history(random_trace):
    def corrupt(t):
        hits = [ev for ev in t.events if ev["kind"] == "history"
                and len(ev["h"]) > 1]
        hits[-1]["h"] = hits[-1]["h"][:1]
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["monotonicity"]["ok"]


def test_safety_detects_duplicate_delivery(random_trace):
    def corrupt(t):
        for ev in t.events:
            if ev["kind"] == "deliver":
                t.events.append(dict(ev, t=t.events[-1]["t"] + 1))
                return
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["rb_integrity"]["ok"]


def test_safety_detects_wrong_order(random_trace):
    def corrupt(t):
        hits = [ev for ev in t.events if ev["kind"] == "history"
                and len(ev["h"]) > 1]
        hits[-1]["h"] = list(reversed(hits[-1]["h"]))
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["recon_equivalence"]["ok"]


def _history_pairs(t):
    """(event, previous history of its replica) for each history event."""
    prev = {}
    for ev in t.events:
        if ev["kind"] == "history":
            yield ev, prev.get(ev["replica"], [])
            prev[ev["replica"]] = ev["h"]


def _append_instead_of_insert(t):
    # a snapshot that gained one command inside the history gets it last
    for ev, old in _history_pairs(t):
        h = ev["h"]
        k = lcp(old, h)
        if len(h) == len(old) + 1 and k < len(old) and h[k + 1:] == old[k:]:
            ev["h"] = old + [h[k]]
            return
    raise AssertionError("no insert inside a history")


def _swap_added(t):
    # two adjacent added commands of one snapshot trade places
    for ev, old in _history_pairs(t):
        h = ev["h"]
        k = lcp(old, h)
        if len(h) - k >= 2:
            ev["h"] = h[:k] + [h[k + 1], h[k]] + h[k + 2:]
            return
    raise AssertionError("no snapshot adds two commands")


def _lasting_swap(t):
    # from some snapshot on, a replica's first two commands trade places
    rid = next(ev["replica"] for ev in t.events
               if ev["kind"] == "history" and len(ev["h"]) > 1)
    for ev in t.events:
        if ev["kind"] == "history" and ev["replica"] == rid:
            h = ev["h"]
            ev["h"] = h[1::-1] + h[2:]


def _dropped_command(t):
    # a snapshot in mid-trace misses its last command
    hits = [ev for ev in t.events if ev["kind"] == "history"
            and len(ev["h"]) > 1]
    ev = hits[len(hits) // 2]
    ev["h"] = ev["h"][:-1]


def _foreign_command(t):
    # a snapshot's last command is replaced by one no replica inserted
    ev = next(ev for ev in t.events if ev["kind"] == "history"
              and len(ev["h"]) > 1)
    ev["h"] = ev["h"][:-1] + [[99, 1]]


SPOILS = [_append_instead_of_insert, _swap_added, _lasting_swap,
          _dropped_command, _foreign_command]


@pytest.mark.parametrize("spoil", SPOILS)
def test_bfs_recon_equivalence_matches_from_scratch(spoil):
    # under bfs the checker tests each snapshot on its delta; it must flag
    # the very snapshots that a from-scratch f_bfs comparison flags
    bad = _mutated(run(random_scenario(21, "bfs")), spoil)
    expect = ["replica %d snapshot at t=%d != recon(dag)"
              % (ev["replica"], ev["t"])
              for ev, h, dag in trace_snapshots(bad.events)
              if h != [[c.issuer, c.seq] for c in f_bfs(dag)]]
    got = check_safety(bad)["recon_equivalence"]
    assert expect and not got["ok"]
    assert got["problems"] == expect[:10]


@pytest.mark.parametrize("spoil", SPOILS)
def test_fair_recon_equivalence_matches_from_scratch(spoil):
    # under fair the checker verifies each snapshot by certificate; it must
    # flag the very snapshots that a from-scratch f_fair comparison flags
    bad = _mutated(run(random_scenario(21, "fair")), spoil)
    expect = ["replica %d snapshot at t=%d != recon(dag)"
              % (ev["replica"], ev["t"])
              for ev, h, dag in trace_snapshots(bad.events)
              if h != [[c.issuer, c.seq] for c in f_fair(dag)]]
    got = check_safety(bad)["recon_equivalence"]
    assert expect and not got["ok"]
    assert got["problems"] == expect[:10]


def _stale_batches(t, limit=10):
    # Across a leader change, a snapshot keeps its replica's previous
    # history up to the end of the first changed batch, as a session that
    # never reran its scan would, and is right from there on.  Only that
    # batch is wrong, so a walk that starts one batch late passes it.
    # The leaders of each snapshot come from scratch, and the replica's
    # snapshot after a spoiled one is left as it is.
    dags, cmds, prev = defaultdict(CommandDag), {}, {}
    spoiled = 0
    for ev in t.events:
        rid = ev.get("replica")
        if ev["kind"] == "insert":
            v = cmds.setdefault(tuple(ev["vertex"]),
                                Command((), *ev["vertex"]))
            dags[rid].insert(v, {cmds[tuple(p)] for p in ev["parents"]}
                             or {EPSILON})
        elif ev["kind"] == "history":
            h, leaders = ev["h"], fair_leaders(dags[rid])
            old_h, old, old_spoiled = prev.get(rid, ([], [], True))
            k = lcp(old, leaders)
            end = leaders[k].bit_count() if 0 < k < len(leaders) else 0
            spoil = spoiled < limit and not old_spoiled \
                and end <= len(old_h) and old_h[:end] != h[:end]
            if spoil:
                ev["h"] = old_h[:end] + h[end:]
                spoiled += 1
            prev[rid] = ev["h"], leaders, spoil
    assert spoiled == limit


def test_fair_walk_starts_at_the_first_changed_batch():
    # the checker must walk a snapshot from the start of the first batch
    # whose leader changed since the replica's previous snapshot
    bad = _mutated(run(random_scenario(21, "fair")), _stale_batches)
    expect = ["replica %d snapshot at t=%d != recon(dag)"
              % (ev["replica"], ev["t"])
              for ev, h, dag in trace_snapshots(bad.events)
              if h != [[c.issuer, c.seq] for c in f_fair(dag)]]
    got = check_safety(bad)["recon_equivalence"]
    assert len(expect) == 10
    assert got["problems"] == expect


def test_fair_checker_reruns_no_scan_per_snapshot(random_trace, monkeypatch):
    # Per replica, check_safety reruns its leader scan from round 0 at
    # most once per issuer, besides the scan it starts on the empty DAG,
    # and calls fair_leaders only through the final snapshot's f_fair.
    restarts, calls = [], []
    real_restart, real_leaders = _LeaderScan._restart, fair_leaders

    def restart(self):
        restarts.append(1)
        real_restart(self)

    def leaders(dag):
        calls.append(1)
        return real_leaders(dag)

    monkeypatch.setattr(_LeaderScan, "_restart", restart)
    monkeypatch.setattr(reconcile, "fair_leaders", leaders)
    assert check_safety(random_trace)["ok"]
    events = random_trace.events
    n = random_trace.meta["scenario"]["n"]
    issuers = {ev["vertex"][0] for ev in events if ev["kind"] == "insert"}
    snapshots = [ev["replica"] for ev in events if ev["kind"] == "history"]
    assert len(calls) == len(set(snapshots)) == n
    # fair_leaders(dag) starts a scan, which runs from round 0 too
    assert len(restarts) <= n * (1 + len(issuers)) + len(calls)
    assert len(snapshots) > 5 * len(restarts)


@pytest.mark.parametrize("recon, scanned", [(f_bfs, True), (f_fair, True),
                                            (f_lifo, False)],
                         ids=["bfs", "fair", "lifo"])
def test_checker_takes_its_scans_from_the_reconciler(recon, scanned,
                                                     monkeypatch):
    # check_safety builds one leader scan per replica from `recon.scan`,
    # and none for a reconciler without one
    trace = run(random_scenario(21, recon.__name__[2:]))
    built = []
    if scanned:
        real = recon.scan

        def counted(dag):
            built.append(dag)
            return real(dag)

        monkeypatch.setattr(recon, "scan", counted)
    assert check_safety(trace)["ok"]
    assert len(built) == (trace.meta["scenario"]["n"] if scanned else 0)
    assert len(set(map(id, built))) == len(built)


def _mutants(rng, dag, h):
    """Changed copies of `h`, f_bfs(dag) or f_fair(dag), placed by
    f_fair's batches: a swap inside a batch, a swap across a batch
    boundary, a moved leader, a dropped element and a duplicated one (in
    place of another, and added)."""
    ends = [m.bit_count() for m in fair_leaders(dag)]
    starts = [0] + ends
    batches = [(a, b) for a, b in zip(starts, ends + [len(h)]) if b - a > 1]
    out = []
    if batches:
        a, b = rng.choice(batches)
        i, j = rng.sample(range(a, b), 2)
        m = list(h)
        m[i], m[j] = m[j], m[i]
        out.append(m)
    inner = [e for e in ends if e < len(h)]
    if inner:
        e = rng.choice(inner)
        out.append(h[:e - 1] + [h[e], h[e - 1]] + h[e + 1:])
    if ends:
        e = rng.choice(ends)
        m = h[:e - 1] + h[e:]
        m.insert(rng.randrange(len(h)), h[e - 1])
        out.append(m)
    if h:
        i, j = rng.randrange(len(h)), rng.randrange(len(h))
        out.append(h[:i] + h[i + 1:])
        m = list(h)
        m[i] = h[j]
        out.append(m)
        out.append(h[:i] + [h[j]] + h[i:])
    return out


def _random_dags(rng, count):
    for k in range(count):
        if k % 2:
            yield random_out_of_order_dag(rng, rng.randint(0, 30), 4)
        else:
            yield random_protocol_dag(rng, 30, 4)


# reconciler -> the leader masks its certificate is given
LEADERS = {f_bfs: lambda dag: [], f_fair: fair_leaders}


def _certified(dag, cmds, h, keep, leaders, state):
    """Whether `_batches_verified` passes the history `h`, changed from
    `keep` on, walked as `check_safety` walks it: from the least of `keep`,
    the prefix that passed at the previous call and the start of the first
    batch whose leader changed since then.  `state` is [the leaders, that
    prefix] of the previous call, [[], 0] at the first, updated in place;
    the leaders are diffed here, not taken from a `_LeaderScan`."""
    old, passed = state
    start = min(keep, passed)
    if leaders != old:
        k = lcp(old, leaders)
        start = min(start, leaders[k - 1].bit_count() if k else 0)
    state[:] = leaders, _batches_verified(dag, cmds, h, start, leaders)
    return state[1] == len(h) == len(dag)


def _certificate_is_exact_on_random_dags(recon, seed):
    # the certificate accepts a history iff it is recon(dag), on protocol
    # DAGs and on DAGs with shuffled and repeated seqs alike
    rng = random.Random(seed)
    accepted = rejected = 0
    for dag in _random_dags(rng, 4000):
        true = recon(dag)
        cmds = {c: c for c in dag.commands()}
        for h in [true] + _mutants(rng, dag, true):
            got = _batches_verified(dag, cmds, h, 0, LEADERS[recon](dag)) \
                == len(h) == len(dag)
            assert got == (h == true), (dag.commands(), h)
            accepted += got
            rejected += not got
    assert accepted >= 4000 and rejected > 15000


def test_fair_certificate_is_exact_on_random_dags():
    _certificate_is_exact_on_random_dags(f_fair, 61)


def test_bfs_certificate_is_exact_on_random_dags():
    _certificate_is_exact_on_random_dags(f_bfs, 62)


def _certificate_is_exact_on_growing_dags(recon, seed):
    # one state per DAG while it grows, each history true or a mutant:
    # a verdict never leans on a prefix that failed before
    rng = random.Random(seed)
    failed_then_kept = 0
    for whole in _random_dags(rng, 600):
        dag = CommandDag()
        state = [[], 0]
        prev, prev_ok = [], True
        for v in whole.commands():
            dag.insert(v, whole.parents_of(v))
            true = recon(dag)
            h = rng.choice([true] + _mutants(rng, dag, true))
            keep = lcp(prev, h)
            got = _certified(dag, {c: c for c in dag.commands()}, h, keep,
                             LEADERS[recon](dag), state)
            assert got == (h == true)
            failed_then_kept += not prev_ok and keep == len(prev)
            prev, prev_ok = h, got
    assert failed_then_kept > 50


def test_fair_certificate_is_exact_on_growing_dags():
    _certificate_is_exact_on_growing_dags(f_fair, 67)


def test_bfs_certificate_is_exact_on_growing_dags():
    _certificate_is_exact_on_growing_dags(f_bfs, 68)


def _swap_pairs(rng, count=5):
    """A mutation: `count` snapshots get an adjacent pair swapped; every
    other one also keeps that swap, in the first half of its history, in
    its replica's later snapshots while the pair stays in place."""
    def spoil(t):
        snaps = [ev for ev in t.events if ev["kind"] == "history"
                 and len(ev["h"]) > 1]
        chosen = {id(ev): k % 2 for k, ev in
                  enumerate(rng.sample(snaps, count))}
        lasting = {}            # replica -> (position, pair)
        for ev in t.events:
            if ev["kind"] != "history":
                continue
            h, rid = ev["h"], ev["replica"]
            if id(ev) in chosen:
                i = rng.randrange(len(h) // 2 if chosen[id(ev)]
                                  else len(h) - 1)
                if chosen[id(ev)]:
                    lasting[rid] = (i, h[i:i + 2])
            elif rid in lasting and h[lasting[rid][0]:][:2] \
                    == lasting[rid][1]:
                i = lasting[rid][0]
            else:
                lasting.pop(rid, None)
                continue
            ev["h"] = h[:i] + h[i:i + 2][::-1] + h[i + 2:]
    return spoil


def test_fair_certificate_matches_from_scratch_per_snapshot():
    # every snapshot's verdict equals the from-scratch comparison with
    # f_fair, also when it follows a failing snapshot and keeps the
    # position where that one went wrong
    kept_wrong = 0
    for seed in range(8):
        trace = run(random_scenario(seed, "fair"))
        if seed % 2:
            trace = _mutated(trace, _swap_pairs(random.Random(seed)))
        certs = defaultdict(lambda: [[], 0])
        wrong_at = {}           # replica -> where its last snapshot erred
        for ev, h, dag in trace_snapshots(trace.events):
            rid = ev["replica"]
            h = [tuple(u) for u in h]
            true = [(c.issuer, c.seq) for c in f_fair(dag)]
            cmds = {(c.issuer, c.seq): c for c in dag.commands()}
            assert _certified(dag, cmds, h, ev["keep"], fair_leaders(dag),
                              certs[rid]) == (h == true)
            kept_wrong += ev["keep"] > wrong_at.get(rid, len(h))
            if h == true:
                wrong_at.pop(rid, None)
            else:
                wrong_at[rid] = lcp(h, true)
    assert kept_wrong > 20


def _starvation_pairs(trace):
    """(fairness_report's starvation, the naive one) for a few windows."""
    report = stable_prefix(trace)
    for window in (2, 5, 10):
        got = fairness_report(trace, report, window)["starvation"]
        yield got, naive_starvation(trace.events, report.stable_history,
                                    set(report.correct), window)


@pytest.mark.parametrize("recon", ["bfs", "fair"])
def test_starvation_matches_naive_basis_copies(recon):
    verdicts = set()
    for seed in range(6):
        for got, expect in _starvation_pairs(run(random_scenario(seed,
                                                                 recon))):
            assert got == expect
            verdicts.update(got.values())
    assert {"pass", "fail"} <= verdicts


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("recon", ["bfs", "fair"])
def test_starvation_matches_naive_on_mutated_traces(recon, spoil):
    bad = _mutated(run(random_scenario(21, recon)), spoil)
    for got, expect in _starvation_pairs(bad):
        assert got == expect


def _revoke_bases(victim):
    """A mutation: each snapshot of `victim` that first holds one of its
    own commands has its first two commands swapped, and the victim's next
    snapshot swaps them back, so every basis it issued on is revoked."""
    def spoil(t):
        seen = set()
        for ev in t.events:
            if ev["kind"] == "history" and ev["replica"] == victim:
                h = ev["h"]
                own = {tuple(u) for u in h if u[0] == victim}
                if own - seen and len(h) > 2:
                    ev["h"] = h[1::-1] + h[2:]
                seen |= own
    return spoil


def test_revoked_bases_starve_the_issuer(random_trace):
    report = stable_prefix(random_trace)
    before = fairness_report(random_trace, report)["starvation"]
    victim = min(rid for rid, v in before.items() if v == "pass")
    bad = _mutated(random_trace, _revoke_bases(victim))
    bad_report = stable_prefix(bad)
    # only the bases changed: the stable history is the same
    assert bad_report.stable_history == report.stable_history
    after = fairness_report(bad, bad_report)["starvation"]
    assert after == {**before, victim: "fail"}
    assert after == naive_starvation(bad.events, bad_report.stable_history,
                                     set(bad_report.correct), 10)


def _foreign_inserts_with_parents(t):
    return [ev for ev in t.events if ev["kind"] == "insert"
            and ev["vertex"][0] != ev["replica"] and ev["parents"]]


def test_safety_detects_changed_parents(random_trace):
    def corrupt(t):
        # a replica that is not the issuer records one parent fewer
        ev = _foreign_inserts_with_parents(t)[0]
        ev["parents"] = ev["parents"][1:]
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["past_immutability"]["ok"]


def test_safety_detects_changed_dist(random_trace):
    def corrupt(t):
        # hung below the root, the vertex sits at distance 1 there only
        _foreign_inserts_with_parents(t)[0]["parents"] = []
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["dist_immutability"]["ok"]


def test_safety_detects_overfull_level(random_trace):
    def corrupt(t):
        # n+1 more vertices at distance 1 of replica 1
        n = t.meta["scenario"]["n"]
        hits = [ev for ev in _foreign_inserts_with_parents(t)
                if ev["replica"] == 1]
        assert len(hits) > n
        for ev in hits[:n + 1]:
            ev["parents"] = []
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["level_bound"]["ok"]


def test_safety_detects_issue_missing_from_snapshots(random_trace):
    def corrupt(t):
        ev = next(ev for ev in t.events if ev["kind"] == "append")
        uid = [ev["replica"], ev["seq"]]
        for snap in t.events:
            if snap["kind"] == "history" and snap["replica"] == uid[0]:
                snap["h"] = [u for u in snap["h"] if u != uid]
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["wait_freedom"]["ok"]


def test_safety_detects_message_flood(random_trace):
    def corrupt(t):
        ev = next(ev for ev in t.events if ev["kind"] == "send")
        n = t.meta["scenario"]["n"]
        last = t.events[-1]["t"]
        t.events.extend(dict(ev, t=last + k + 1) for k in range(n * n + 1))
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["message_bound"]["ok"]


def test_safety_detects_missing_totality(random_trace):
    def corrupt(t):
        # erase one replica's record of ever inserting a foreign vertex,
        # picking one that no later insert at that replica hangs below so
        # the remaining event stream still parses
        victim = None
        crashed = set(t.meta["crashed"])
        for ev in t.events:
            if ev["kind"] != "insert" or ev["vertex"][0] == ev["replica"]:
                continue
            rid, vert = ev["replica"], ev["vertex"]
            if rid in crashed or vert[0] in crashed:
                continue
            used = any(e["kind"] == "insert" and e["replica"] == rid
                       and vert in e["parents"] for e in t.events)
            if not used:
                victim = (rid, tuple(vert))
                break
        t.events = [ev for ev in t.events
                    if not (ev["kind"] == "insert"
                            and ev["replica"] == victim[0]
                            and tuple(ev["vertex"]) == victim[1])]
        # drop that replica's snapshots so the lie is self-consistent
        t.events = [ev for ev in t.events
                    if not (ev["kind"] == "history"
                            and ev["replica"] == victim[0])]
    verdict = check_safety(_mutated(random_trace, corrupt))
    assert not verdict["rb_totality"]["ok"]


def test_run_all_checks_aggregates(random_trace):
    verdicts = run_all_checks(random_trace)
    assert verdicts["ok"]
    assert verdicts["safety"]["ok"]
    assert verdicts["stability"]["ok"]
    assert verdicts["fairness"]["ok"]
    assert verdicts["convergence"]["ok"]


@pytest.mark.parametrize("recon", ["bogus", ["fair"]], ids=["bogus", "list"])
def test_run_all_checks_rejects_unknown_recon(random_trace, recon):
    meta = copy.deepcopy(random_trace.meta)
    meta["scenario"]["recon"] = recon
    with pytest.raises(ConfigError, match="recon"):
        run_all_checks(Trace(meta, random_trace.events))


@pytest.mark.parametrize("edit, field", [
    (lambda meta: meta.pop("quiescent"), "quiescent"),
    (lambda meta: meta.pop("scenario"), "scenario.n"),
    (lambda meta: meta.update(crashed=5), "crashed"),
    (lambda meta: meta["scenario"].update(n="5"), "scenario.n"),
], ids=["no_quiescent", "no_scenario", "integer_crashed", "string_n"])
def test_malformed_meta_of_an_in_memory_trace_is_named(edit, field):
    # A Trace built in memory skips the file reader; the checkers' reader
    # must still refuse its meta by name before reading any of it.
    trace = run(random_scenario(0, "bfs", commands=20))
    meta = copy.deepcopy(trace.meta)
    edit(meta)
    with pytest.raises(ConfigError, match="meta .*%s" % field):
        run_all_checks(Trace(meta, trace.events))


@pytest.mark.parametrize("seed", range(5))
def test_fairness_counts_appends_after_the_window_opens_as_late(seed):
    # A simulator trace ends on a forced snapshot of every correct replica,
    # after its last append; without replica 1's snapshots after its middle
    # one, the tail window opens before many appends.
    trace = run(continuous_scenario(seed, "bfs", commands=60))
    own = [ev for ev in trace.events
           if ev["kind"] == "history" and ev["replica"] == 1]
    dropped = {id(ev) for ev in own[len(own) // 2 + 1:]}
    trace = Trace(trace.meta,
                  [ev for ev in trace.events if id(ev) not in dropped])
    report = stable_prefix(trace)
    stable = set(report.stable_history)
    late, early = [], []
    for ev in trace.events:
        if ev["kind"] == "append" and ev["replica"] in report.correct:
            uid = (ev["replica"], ev["seq"])
            if uid not in stable:
                (late if ev["t"] >= report.t_stable_start
                 else early).append(uid)
    verdict = fairness_report(trace, report)
    missing = verdict["missing_from_stable"]
    assert len(late) >= 21
    assert not set(late) & set(missing)
    assert verdict["indeterminate"] == len(late) + len(early) - len(missing)


def test_no_correct_replica_gives_the_empty_report():
    sc = Scenario(n=2, datatype="intlog", recon="bfs",
                  workload=[(5, 1, ("push", 1)), (6, 2, ("push", 2))],
                  crashes=[(1, 0), (2, 0)])
    trace = run(sc)
    assert [ev["kind"] for ev in trace.events] == ["crash", "crash"]
    assert stable_prefix(trace) == StabilityReport(
        [], 0, (), {}, set(), {}, True, 0, [])
    verdicts = run_all_checks(trace)
    assert verdicts["ok"]
    assert all(v["ok"] and not v["problems"]
               for v in verdicts["safety"].values() if isinstance(v, dict))
    assert verdicts["stability"]["final_len"] == 0
    assert verdicts["fairness"]["indeterminate"] == 0
    assert verdicts["fairness"]["starvation"] == {}
    assert verdicts["convergence"]["distinct_final_histories"] == 0


def _revocation_sweep():
    for recon in ("bfs", "fair", "lifo"):
        for seed in range(4):
            yield "random:%s:%d" % (recon, seed), random_scenario(seed, recon)
            yield ("continuous:%s:%d" % (recon, seed),
                   continuous_scenario(seed, recon))
    for recon in ("bfs", "fair"):
        yield "starvation:%s" % recon, starvation_scenario(recon)


@pytest.mark.parametrize("sc", [pytest.param(sc, id=name)
                                for name, sc in _revocation_sweep()])
def test_revocations_match_a_naive_count(sc):
    # every command of a correct replica's history past its common prefix
    # with the replica's next history is one revocation
    trace = run(sc)
    correct = set(range(1, sc.n + 1)) - set(trace.meta["crashed"])
    naive, previous = Counter(), {}
    for ev, h in full_histories(trace.events):
        old = previous.get(ev["replica"], [])
        if ev["replica"] in correct:
            naive.update(tuple(uid) for uid in old[lcp(old, h):])
        previous[ev["replica"]] = h
    assert stable_prefix(trace).revocations == dict(naive)


@pytest.mark.parametrize("sc", [pytest.param(sc, id=name)
                                for name, sc in _revocation_sweep()])
def test_retained_matches_naive_bases(sc):
    # an own command is retained iff its basis, its issuer's history
    # before it at the first snapshot there that holds it, is the stable
    # history before it
    trace = run(sc)
    report = stable_prefix(trace)
    assert report.retained == naive_retained(
        trace.events, report.stable_history, set(report.correct))
