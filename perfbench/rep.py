"""One repetition of a workload, run in a fresh Python process.

    python3 perfbench/rep.py '{"mode": "plain", "workload": "bfs-partition",
                               "scenario_seed": 0, "n": 500}'

prints one JSON object as its last line.  Modes:

plain   set-up, then `sim.run` + `Trace.to_jsonl` and `Trace.from_jsonl` +
        `run_all_checks`, timed; the only wrapper is the one timing each
        `Replica.append` call.  Gives the end-to-end metrics.
sim     set-up and an unwrapped `sim.run` only: the untraced reference for
        the tracing overhead, and the fingerprint recorder.
traced  like plain, but with a span around every entry point listed in
        `traced_run`; gives the per-layer metrics.

The functions are importable too, which is how the self-tests run them at
a tiny size in-process.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("dag", "datatype", "reconcile", "broadcast", "replica", "sim",
           "checks", "scenarios")


def import_dagrepl():
    """Import `dagrepl` afresh from the checkout's `src`; a namespace of
    its modules."""
    for name in [m for m in sys.modules
                 if m == "dagrepl" or m.startswith("dagrepl.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = types.SimpleNamespace(
        **{m: importlib.import_module("dagrepl." + m) for m in MODULES})
    if Path(mods.sim.__file__).resolve().parent != SRC / "dagrepl":
        raise RuntimeError("imported dagrepl from %s, not from %s"
                           % (mods.sim.__file__, SRC))
    return mods


def setup(workload, scenario_seed, n, repeats=SETUP_REPEATS):
    """Import + scenario generation, `repeats` times; the last import wins.

    Returns (modules, scenario, import seconds list, scenario seconds list).
    """
    imports, builds = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mods = import_dagrepl()
        t1 = time.perf_counter()
        scenario = WORKLOADS[workload].build(mods, scenario_seed, n)
        t2 = time.perf_counter()
        imports.append(t1 - t0)
        builds.append(t2 - t1)
    return mods, scenario, imports, builds


# --- outputs derived from a trace ---------------------------------------

def final_histories(trace):
    """Last history of every replica, decoding full (`h`) snapshots and
    `keep`/`add` deltas alike."""
    final = {}
    for ev in trace.events:
        if ev["kind"] == "history":
            rid = ev["replica"]
            if "h" in ev:
                final[rid] = [list(x) for x in ev["h"]]
            else:
                final[rid] = (final.get(rid, [])[:ev["keep"]]
                              + [list(x) for x in ev["add"]])
    return final


def fingerprint(trace):
    """Hash of every correct replica's final history and every append's
    response, in issue order."""
    crashed = set(trace.meta["crashed"])
    n = trace.meta["scenario"]["n"]
    final = final_histories(trace)
    responses = []
    for ev in trace.events:
        if ev["kind"] == "append":
            responses.append([ev["replica"], ev["seq"], ev["resp"]])
        elif ev["kind"] == "append_bottom":
            responses.append([ev["replica"], list(ev["op"]), "bottom"])
    doc = {"final": [final.get(r, []) for r in range(1, n + 1)
                     if r not in crashed],
           "responses": responses}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stable_lags(report, trace):
    """Trace steps from each determinate command's `append` event to its
    entry into the stable prefix; None for one that never enters it.

    Determinate: issued by a correct replica before `t_stable_start`.
    A command is in the prefix from the first curve point whose length
    exceeds its position (the curve is non-decreasing by construction).
    """
    correct = set(report.correct)
    times = [t for t, _ in report.curve]
    lengths = [length for _, length in report.curve]
    pos = {tuple(uid): i for i, uid in enumerate(report.stable_history)}
    lags = []
    for ev in trace.events:
        if ev["kind"] != "append" or ev["replica"] not in correct:
            continue
        if ev["t"] >= report.t_stable_start:
            continue
        p = pos.get((ev["replica"], ev["seq"]))
        if p is None:
            lags.append(None)
            continue
        k = bisect.bisect_right(lengths, p)
        entered = times[k] if k < len(times) else report.t_stable_start
        lags.append(entered - ev["t"])
    return lags


def verdict_ok(verdicts, quiescent):
    """Safety always binds, convergence on quiescent runs; fairness never
    does (bfs may starve legitimately, and on continuous runs commands in
    flight at the horizon count as missing)."""
    if not verdicts["safety"]["ok"]:
        return False
    return not quiescent or verdicts["convergence"]["ok"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_path(workload):
    WORK.mkdir(exist_ok=True)
    return WORK / ("%s-%d.jsonl" % (workload, os.getpid()))


# --- modes ---------------------------------------------------------------

def plain_run(workload, scenario_seed, n):
    mods, scenario, imports, builds = setup(workload, scenario_seed, n)
    replica_cls = mods.replica.Replica
    original = vars(replica_cls)["append"]
    durations = []

    def timed_append(self, op):
        t0 = time.perf_counter_ns()
        resp = original(self, op)
        durations.append(time.perf_counter_ns() - t0)
        return resp

    path = _trace_path(workload)
    replica_cls.append = timed_append
    try:
        t0 = time.perf_counter()
        trace = mods.sim.run(scenario)
        trace.to_jsonl(path)
        t1 = time.perf_counter()
        del trace
        t2 = time.perf_counter()
        parsed = mods.sim.Trace.from_jsonl(path)
        verdicts = mods.checks.run_all_checks(parsed)
        t3 = time.perf_counter()
        trace_bytes = path.stat().st_size
    finally:
        replica_cls.append = original
        path.unlink(missing_ok=True)
    report = mods.checks.stable_prefix(parsed)
    return {
        "mode": "plain",
        "ok": verdict_ok(verdicts, parsed.meta["quiescent"]),
        "fingerprint": fingerprint(parsed),
        "cmds": len(durations),
        "sim_s": t1 - t0,
        "check_s": t3 - t2,
        "append_ms": [d / 1e6 for d in durations],
        "setup_s": [a + b for a, b in zip(imports, builds)],
        "peak_rss_mb": peak_rss_mb(),
        "trace_bytes": trace_bytes,
        "sends": sum(1 for ev in parsed.events if ev["kind"] == "send"),
        "revocations": sum(report.revocations.values()),
        "stable_lags": stable_lags(report, parsed),
        "fairness_missing": len(verdicts["fairness"]["missing_from_stable"]),
    }


def sim_run(workload, scenario_seed, n):
    mods, scenario, _, _ = setup(workload, scenario_seed, n, repeats=1)
    t0 = time.perf_counter()
    trace = mods.sim.run(scenario)
    t1 = time.perf_counter()
    return {"mode": "sim", "ok": True, "fingerprint": fingerprint(trace),
            "sim_s": t1 - t0}


def _lcp(a, b):
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def instrument(tracer, mods):
    """Wrap every layer's entry points, counting work at each boundary."""
    count = tracer.count
    last_replay = {}    # replica id -> last history it replayed
    last_output = {}    # replica id -> last history its reconciler gave
    pending_max = [0]

    def on_expand(args, result):
        count("bits_scanned", len(args[0]))
        count("bits_set", len(result))

    def on_replay(args, result):
        history = args[1]
        count("replay_steps", len(history))
        rid = tracer.context("replica.append")
        count("replay_redone", _lcp(last_replay.get(rid, ()), history))
        last_replay[rid] = history

    def on_recon(args, result):
        count("vertices_in", len(args[0]))
        rid = tracer.context("replica.history")
        if tracer.phase == "sim" and rid is not None:
            count("recon_out", len(result))
            count("recon_kept", _lcp(last_output.get(rid, ()), result))
            last_output[rid] = result

    def on_append(args, result):
        if result == mods.datatype.BOTTOM:
            count("append_bottom")

    def on_deliver(args, result):
        replica, msg = args
        if msg.vertex not in replica.dag:
            count("parked")
        depth = sum(len(q) for q in replica.pending.values())
        pending_max[0] = max(pending_max[0], depth)

    def replica_id(args):
        return args[0].id

    patch = tracer.patch
    patch(mods.dag.CommandDag, "insert", "dag.insert")
    patch(mods.dag.CommandDag, "expand_mask", "dag.expand_mask",
          hook=on_expand)
    patch(mods.replica, "replay", "datatype.replay", hook=on_replay)
    for name in list(mods.reconcile.RECONCILERS):
        patch(mods.reconcile.RECONCILERS, name, "reconcile", hook=on_recon)
    patch(mods.replica.Replica, "append", "replica.append", hook=on_append,
          context=replica_id)
    patch(mods.replica.Replica, "on_deliver", "replica.on_deliver",
          hook=on_deliver)
    patch(mods.replica.Replica, "history", "replica.history",
          context=replica_id)
    patch(mods.broadcast.ReliableBroadcast, "r_broadcast",
          "broadcast.r_broadcast")
    patch(mods.broadcast.ReliableBroadcast, "on_receive",
          "broadcast.on_receive")
    patch(mods.sim, "run", "sim.run", phase="sim")
    patch(mods.sim.Trace, "to_jsonl", "sim.trace.write")
    patch(mods.sim.Trace, "from_jsonl", "sim.trace.parse")
    patch(mods.checks, "run_all_checks", "checks.run_all", phase="checks")
    for attr, name in (("check_safety", "checks.safety"),
                       ("check_stability", "checks.stability"),
                       ("stable_prefix", "checks.stable_prefix"),
                       ("fairness_report", "checks.fairness"),
                       ("check_convergence", "checks.convergence")):
        patch(mods.checks, attr, name)
    return pending_max


def _ratio(a, b):
    return a / b if b else 0.0


def traced_run(workload, scenario_seed, n, tracer=None):
    """A fully wrapped run; returns per-layer metrics plus the raw counts
    that the growth metrics need.  Every wrapper is restored on return."""
    mods, scenario, imports, builds = setup(workload, scenario_seed, n)
    tracer = tracer or Tracer()
    path = _trace_path(workload)
    try:
        pending_max = instrument(tracer, mods)
        trace = mods.sim.run(scenario)
        trace.to_jsonl(path)
        events = len(trace.events)
        history_events = sum(1 for ev in trace.events
                             if ev["kind"] == "history")
        del trace
        parsed = mods.sim.Trace.from_jsonl(path)
        verdicts = mods.checks.run_all_checks(parsed)
    finally:
        tracer.restore()
    try:
        total_bytes = history_bytes = 0
        with open(path, "rb") as fh:
            for line in fh:
                total_bytes += len(line)
                if json.loads(line).get("kind") == "history":
                    history_bytes += len(line)
    finally:
        path.unlink(missing_ok=True)

    def sim(name):
        return tracer.span_stats("sim", name)

    def other(name):
        return tracer.span_stats("other", name)

    def checks(name):
        return tracer.span_stats("checks", name)

    def counted(name):
        return tracer.counts[("sim", name)]

    cmds = sim("replica.append")[0]
    steps = counted("replay_steps")
    m = {}
    m["setup.import_s"] = statistics.median(imports)
    m["setup.scenario_s"] = statistics.median(builds)
    calls, busy, own = sim("dag.insert")
    m["dag.insert.calls"] = calls
    m["dag.insert.s"] = busy
    m["dag.insert.checks_calls"] = checks("dag.insert")[0]
    calls, busy, own = sim("dag.expand_mask")
    m["dag.expand_mask.calls"] = calls
    m["dag.expand_mask.s"] = busy
    m["dag.expand_mask.self_s"] = own
    m["dag.expand_mask.bits_scanned"] = counted("bits_scanned")
    m["dag.expand_mask.hit_ratio"] = _ratio(counted("bits_set"),
                                            counted("bits_scanned"))
    calls, busy, own = sim("datatype.replay")
    m["datatype.replay.calls"] = calls
    m["datatype.replay.s"] = busy
    m["datatype.replay.self_s"] = own
    m["datatype.replay.steps_per_cmd"] = _ratio(steps, cmds)
    m["datatype.replay.redone_frac"] = _ratio(counted("replay_redone"),
                                              steps)
    calls, busy, own = sim("reconcile")
    m["reconcile.calls"] = calls
    m["reconcile.s"] = busy
    m["reconcile.self_s"] = own
    m["reconcile.vertices_in"] = counted("vertices_in")
    m["reconcile.checks_calls"] = checks("reconcile")[0]
    m["reconcile.kept_prefix_frac"] = _ratio(counted("recon_kept"),
                                             counted("recon_out"))
    calls, busy, own = sim("replica.append")
    m["replica.append.calls"] = calls
    m["replica.append.bottom"] = counted("append_bottom")
    m["replica.append.self_s"] = own
    calls, busy, own = sim("replica.on_deliver")
    m["replica.on_deliver.calls"] = calls
    m["replica.on_deliver.s"] = busy
    m["replica.parked"] = counted("parked")
    m["replica.pending.max"] = pending_max[0]
    m["broadcast.r_broadcast.calls"] = sim("broadcast.r_broadcast")[0]
    calls, busy, own = sim("broadcast.on_receive")
    m["broadcast.on_receive.calls"] = calls
    m["broadcast.on_receive.s"] = busy
    m["broadcast.first_receipt_ratio"] = _ratio(
        sim("replica.on_deliver")[0], calls)
    calls, busy, own = sim("sim.run")
    m["sim.run.s"] = busy
    m["sim.run.self_s"] = own
    m["sim.events"] = events
    m["sim.history_events"] = history_events
    m["sim.trace.write_s"] = other("sim.trace.write")[1]
    m["sim.trace.parse_s"] = other("sim.trace.parse")[1]
    m["sim.trace.history_bytes_frac"] = _ratio(history_bytes, total_bytes)
    m["checks.run_all.s"] = checks("checks.run_all")[1]
    m["checks.safety.s"] = checks("checks.safety")[1]
    calls, busy, own = checks("checks.stable_prefix")
    m["checks.stable_prefix.s"] = busy
    m["checks.stable_prefix.calls"] = calls
    m["checks.stability.s"] = checks("checks.stability")[1]
    m["checks.fairness.s"] = checks("checks.fairness")[1]
    m["checks.convergence.s"] = checks("checks.convergence")[1]
    m["checks.fairness.missing"] = len(
        verdicts["fairness"]["missing_from_stable"])
    growth_counts = {"datatype.replay.steps": steps,
                     "reconcile.vertices_in": counted("vertices_in"),
                     "dag.expand_mask.bits_scanned": counted("bits_scanned"),
                     "dag.insert.calls": m["dag.insert.calls"]}
    self_times = {"%s:%s" % key: rec[2] / 1e9
                  for key, rec in sorted(tracer.stats.items())}
    return {
        "mode": "traced",
        "ok": (verdict_ok(verdicts, parsed.meta["quiescent"])
               and tracer.negative_self == 0),
        "negative_self": tracer.negative_self,
        "fingerprint": fingerprint(parsed),
        "metrics": m,
        "growth_counts": growth_counts,
        "self_times": self_times,
    }


MODES = {"plain": plain_run, "sim": sim_run, "traced": traced_run}


def main(argv):
    spec = json.loads(argv[1])
    result = MODES[spec["mode"]](spec["workload"], spec["scenario_seed"],
                                 spec["n"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
