"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) and then asserts, so `pytest -v tests/test_acceptance.py` doubles
as a human-readable scorecard.  The heavyweight simulation sweeps are run
once in a module-scoped fixture and shared by the criteria that consume
them; each trace is digested once and the digest handed to every checker.
"""

import os
import random
import subprocess
import sys
import time

import pytest

from dagrepl.checks import _Digest, check_convergence, check_safety, \
    stable_prefix, fairness_report
from dagrepl.dag import EPSILON
from dagrepl.datatype import BOTTOM, OK, get_datatype, replay
from dagrepl.reconcile import f_bfs, f_fair, f_lifo
from dagrepl.scenarios import FIG1_BFS_ORDER, FIG1_FAIR_ORDER, \
    STARVATION_VICTIM, continuous_scenario, fig1_scenario, random_scenario, \
    starvation_scenario
from dagrepl.sim import full_histories, run

from oracles import enumerate_protocol_dags, oracle_f_bfs, oracle_f_fair, \
    random_protocol_dag

N_CONVERGENCE_SEEDS = 100
N_STABILITY_SEEDS = 25
FUZZ_DAGS = 10_000


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, detail


# --- shared simulation sweeps (criteria 4, 5, 6, 8) -----------------------

@pytest.fixture(scope="module")
def sweeps():
    data = {
        "conv_ok": 0, "conv_runs": 0, "conv_elapsed": 0.0,
        "stab": [],          # (recon, seed, monotone, final_len, issued)
        "lifo_final": [],
        "safety": [],        # (label, verdict dict)
        "cont_fair": [],     # (seed, fairness verdict) of continuous fair
    }

    for seed in range(N_CONVERGENCE_SEEDS):
        for recon in ("bfs", "fair"):
            t0 = time.perf_counter()
            digest = _Digest(run(random_scenario(seed, recon)))
            ok = check_convergence(digest)["ok"]
            data["conv_elapsed"] += time.perf_counter() - t0
            data["conv_runs"] += 1
            data["conv_ok"] += ok
            data["safety"].append(
                ("random/%s/%d" % (recon, seed),
                 check_safety(digest)))

    for seed in range(N_STABILITY_SEEDS):
        for recon in ("bfs", "fair"):
            digest = _Digest(run(continuous_scenario(seed, recon)))
            rep = stable_prefix(digest)
            monotone = all(b >= a for (_, a), (_, b)
                           in zip(rep.curve, rep.curve[1:]))
            data["stab"].append((recon, seed, monotone, rep.final_len,
                                 sum(rep.issued.values())))
            if recon == "fair":
                data["cont_fair"].append((seed,
                                          fairness_report(digest, rep)))
            data["safety"].append(
                ("continuous/%s/%d" % (recon, seed),
                 check_safety(digest)))
        digest = _Digest(run(continuous_scenario(seed, "lifo")))
        data["lifo_final"].append(stable_prefix(digest).final_len)
        data["safety"].append(
            ("continuous/lifo/%d" % seed,
             check_safety(digest)))
    return data


# --- criterion 1: exact reproduction of the worked example ----------------

def test_criterion_1_worked_example(capsys):
    t0 = time.perf_counter()
    spec = get_datatype("nfs")
    got = {}
    for recon in ("bfs", "fair"):
        trace = run(fig1_scenario(recon))
        *_, (_, final) = full_histories(trace.events)
        ops = {}
        for ev in trace.events:
            if ev["kind"] == "append":
                ops[(ev["replica"], ev["seq"])] = tuple(ev["op"])
        order = [tuple(u) for u in final]
        _, responses = replay(spec, [ops[u] for u in order])
        got[recon] = (order, responses)
    elapsed = time.perf_counter() - t0

    ok = (got["bfs"][0] == FIG1_BFS_ORDER
          and got["fair"][0] == FIG1_FAIR_ORDER
          # the rmdir/mkdir conflict flips: level order drops the mkdir of
          # /d2/d4's parent path, round-robin drops the rmdir instead
          and got["bfs"][1] == [OK, OK, OK, OK, BOTTOM, OK, BOTTOM]
          and got["fair"][1] == [OK, OK, OK, OK, OK, BOTTOM, OK]
          and elapsed < 1.0)
    _line(capsys, 1, ok,
          "worked example exact under both orders in %.2fs" % elapsed)


# --- criterion 2: totality fuzz over 10,000 random DAGs -------------------

def test_criterion_2_totality_fuzz(capsys):
    rng = random.Random("acceptance-2")
    t0 = time.perf_counter()
    violations = 0
    for _ in range(FUZZ_DAGS):
        dag = random_protocol_dag(rng, 50, 5)
        verts = set(dag.commands())
        hb, hf = f_bfs(dag), f_fair(dag)
        if set(hb) != verts or len(hb) != len(verts):
            violations += 1
        if set(hf) != verts or len(hf) != len(verts):
            violations += 1
        pos = {c: i for i, c in enumerate(hf)}
        for v in hf:
            for p in dag.parents_of(v):
                if p is not EPSILON and pos[p] >= pos[v]:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _line(capsys, 2, ok,
          "%d DAGs, %d violations, %.1fs" % (FUZZ_DAGS, violations, elapsed))


# --- criterion 3: exhaustive small-instance oracle equivalence ------------

def test_criterion_3_exhaustive_oracles(capsys):
    counts = {}
    mismatches = 0
    for issuers in (2, 3):
        n = 0
        for dag in enumerate_protocol_dags(issuers, 6):
            if f_fair(dag) != oracle_f_fair(dag):
                mismatches += 1
            if f_bfs(dag) != oracle_f_bfs(dag):
                mismatches += 1
            n += 1
        counts[issuers] = n
    ok = (mismatches == 0
          and counts[2] == 625 and counts[3] == 15_441)
    _line(capsys, 3, ok,
          "%d + %d DAGs exhaustively checked, %d mismatches"
          % (counts[2], counts[3], mismatches))


# --- criterion 4: convergence at quiescence --------------------------------

def test_criterion_4_convergence(capsys, sweeps):
    ok = (sweeps["conv_ok"] == sweeps["conv_runs"] == 2 * N_CONVERGENCE_SEEDS
          and sweeps["conv_elapsed"] < 60.0)
    _line(capsys, 4, ok,
          "%d/%d runs converged in %.1fs"
          % (sweeps["conv_ok"], sweeps["conv_runs"], sweeps["conv_elapsed"]))


# --- criterion 5: growing stable prefix + negative control -----------------

def test_criterion_5_stable_prefix(capsys, sweeps):
    bad = [(r, s) for r, s, monotone, final, issued in sweeps["stab"]
           if not monotone or final * 3 < issued * 2]
    lifo_bad = [f for f in sweeps["lifo_final"] if f != 0]
    ok = not bad and not lifo_bad and \
        len(sweeps["stab"]) == 2 * N_STABILITY_SEEDS and \
        len(sweeps["lifo_final"]) == N_STABILITY_SEEDS
    _line(capsys, 5, ok,
          "%d runs monotone with prefix >= 2/3; newest-first control "
          "stuck at 0 in %d/%d runs"
          % (len(sweeps["stab"]) - len(bad),
             len(sweeps["lifo_final"]) - len(lifo_bad),
             len(sweeps["lifo_final"])))


# --- criterion 6: level bound and distance immutability --------------------

def test_criterion_6_level_bound(capsys, sweeps):
    bad = [label for label, v in sweeps["safety"]
           if not (v["level_bound"]["ok"] and v["dist_immutability"]["ok"])]
    ok = not bad
    _line(capsys, 6, ok,
          "level <= n and stable distances on all %d traces%s"
          % (len(sweeps["safety"]),
             "" if ok else "; first offender %s" % bad[0]))


# --- criterion 7: fairness / no starvation ---------------------------------

def test_criterion_7_starvation(capsys, sweeps):
    t0 = time.perf_counter()
    verdicts = {}
    victim_all_stable = False
    for recon in ("bfs", "fair"):
        trace = run(starvation_scenario(recon))
        rep = stable_prefix(trace)
        fr = fairness_report(trace, rep, window=5)
        verdicts[recon] = fr["starvation"][STARVATION_VICTIM]
        if recon == "fair":
            victim_cmds = {(ev["replica"], ev["seq"])
                           for ev in trace.events if ev["kind"] == "append"
                           and ev["replica"] == STARVATION_VICTIM}
            victim_all_stable = victim_cmds <= set(rep.stable_history)
    elapsed = time.perf_counter() - t0
    # Under continuous load round-robin starves no replica either.  The
    # commands missing from the stable prefix are counted, not bound: an
    # in-flight leader can still reorder commands every replica holds.
    starving = [seed for seed, fr in sweeps["cont_fair"]
                if "fail" in fr["starvation"].values()]
    missing = sum(len(fr["missing_from_stable"])
                  for _, fr in sweeps["cont_fair"])
    ok = (verdicts == {"bfs": "fail", "fair": "pass"}
          and victim_all_stable and elapsed < 5.0
          and len(sweeps["cont_fair"]) == N_STABILITY_SEEDS
          and not starving)
    _line(capsys, 7, ok,
          "victim starves under level order (%s) but not round-robin (%s), "
          "all victim commands stable, %.2fs; no starving replica in %d "
          "continuous round-robin runs (%d commands missing from their "
          "stable prefixes)"
          % (verdicts["bfs"], verdicts["fair"], elapsed,
             len(sweeps["cont_fair"]) - len(starving), missing))


# --- criterion 8: full safety suite on every trace --------------------------

def test_criterion_8_safety_suite(capsys, sweeps):
    bad = [(label, [k for k, sub in v.items()
                    if isinstance(sub, dict) and not sub["ok"]])
           for label, v in sweeps["safety"] if not v["ok"]]
    ok = not bad
    _line(capsys, 8, ok,
          "zero safety violations across %d traces%s"
          % (len(sweeps["safety"]),
             "" if ok else "; first offender %s" % (bad[0],)))


# --- criterion 9: byte-identical replay --------------------------------------

def test_criterion_9_determinism(capsys, tmp_path):
    ok = True
    for i, sc in enumerate([random_scenario(0, "fair"),
                            continuous_scenario(0, "bfs"),
                            fig1_scenario("fair")]):
        paths = []
        for k in (0, 1):
            p = tmp_path / ("t%d_%d.jsonl" % (i, k))
            run(sc).to_jsonl(p)
            paths.append(p)
        if paths[0].read_bytes() != paths[1].read_bytes():
            ok = False
    # separate processes with different hash seeds write the same bytes
    across = set()
    for hash_seed in ("1", "2", "3"):
        p = tmp_path / ("hash%s.jsonl" % hash_seed)
        subprocess.run(
            [sys.executable, "-m", "dagrepl.cli", "run", "--scenario",
             "random", "--seed", "0", "--recon", "fair", "--trace-out",
             str(p)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.DEVNULL, check=True, timeout=300)
        across.add(p.read_bytes())
    ok = ok and len(across) == 1
    _line(capsys, 9, ok, "replayed scenarios produce byte-identical traces, "
          "also across processes with hash seeds 1-3")
