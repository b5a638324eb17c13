"""The dagrepl benchmark.

    python3 perfbench/run.py --workload bfs-partition --seed 1 \
        --seconds 30 --trace 0

Runs one workload (see workloads.py) as repetitions, each in a fresh
Python process, one after another, until `--seconds` have passed and
every scenario of the run has run at least once.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Every line but the last is a report of the run (environment, scenario
seeds, fingerprints, per-repetition figures); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts repetitions and `failed` those that raised, failed the
safety checker, failed convergence on a quiescent run, or produced another
output fingerprint than the one recorded in fingerprints.json or than an
earlier repetition of the same scenario.  Exit code 2 means the benchmark
could not run at all (no `src/dagrepl` in this checkout, a bad argument).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import SCENARIOS, WORKLOADS, scenario_seeds  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
REP = HERE / "rep.py"
RUN_LIMIT = 160        # seconds after which no repetition is started;
KILL_AFTER = 170       # a repetition still running then is killed
TIMINGS = (".s", "_s")  # per-layer names ending so are times: medians


def percentile(values, q):
    """Nearest-rank percentile; None (never stable) sorts as infinite."""
    ordered = sorted(values, key=lambda v: math.inf if v is None else v)
    v = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return math.inf if v is None else v


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_fingerprints(workload, n):
    try:
        stored = json.loads(FINGERPRINTS.read_text()).get(workload, {})
    except (OSError, ValueError):
        return {}
    return stored.get("seeds", {}) if stored.get("n") == n else {}


def spawn(mode, workload, scenario_seed, n, deadline):
    """One repetition in a fresh process; (result or None, error text)."""
    spec = {"mode": mode, "workload": workload,
            "scenario_seed": scenario_seed, "n": n}
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), json.dumps(spec)], cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:]
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, "unparsable output: %r" % lines[-1][:200]


class Run:
    """The repetitions of one benchmark run and their verdicts."""

    def __init__(self, workload, n, seconds):
        self.workload = workload
        self.n = n
        self.start = time.monotonic()
        self.measure_until = self.start + seconds
        self.hard_deadline = self.start + KILL_AFTER
        self.stored = load_fingerprints(workload, n)
        self.seen = {}          # (mode's n, scenario seed) -> fingerprint
        self.checked = 0        # fingerprints compared with the store
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def keep_going(self, done):
        now = time.monotonic()
        return (not done or now < self.measure_until) and \
            now - self.start < RUN_LIMIT

    def rep(self, mode, scenario_seed, n=None):
        n = n or self.n
        self.attempted += 1
        result, error = spawn(mode, self.workload, scenario_seed, n,
                              self.hard_deadline)
        if result is not None:
            error = self._verify(result, scenario_seed, n)
        if error:
            self.failed += 1
            self.errors.append({"mode": mode, "scenario_seed": scenario_seed,
                                "n": n, "error": error})
            return None
        return result

    def _verify(self, result, scenario_seed, n):
        if not result["ok"]:
            return "a checker failed"
        fp = result["fingerprint"]
        first = self.seen.setdefault((n, scenario_seed), fp)
        if fp != first:
            return "fingerprint %s differs from an earlier %s" % (fp, first)
        stored = self.stored.get(str(scenario_seed)) if n == self.n else None
        if stored is not None:
            self.checked += 1
            if fp != stored:
                return "fingerprint %s differs from recorded %s" % (fp,
                                                                   stored)
        return ""


def end_to_end(run, seeds):
    """Plain repetitions cycling over the run's scenarios."""
    reps = {s: [] for s in seeds}
    k = 0
    while run.keep_going(k >= len(seeds)):
        seed = seeds[k % len(seeds)]
        result = run.rep("plain", seed)
        if result is not None:
            reps[seed].append(result)
        k += 1
    done = [s for s in seeds if reps[s]]
    if not done:
        return {}, {}
    first = [reps[s][0] for s in done]
    allreps = [r for s in done for r in reps[s]]
    cmds = sum(r["cmds"] for r in first)
    sim_s = sum(statistics.median(r["sim_s"] for r in reps[s]) for s in done)
    check_s = sum(statistics.median(r["check_s"] for r in reps[s])
                  for s in done)
    append_ms = [x for r in allreps for x in r["append_ms"]]
    lags = [x for r in first for x in r["stable_lags"]]
    metrics = {
        "setup_s": statistics.median(x for r in allreps
                                     for x in r["setup_s"]),
        "sim_cmd_per_s": cmds / sim_s,
        "check_cmd_per_s": cmds / check_s,
        "append_ms_p50": percentile(append_ms, 0.50),
        "append_ms_p98": percentile(append_ms, 0.98),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in allreps),
        "trace_bytes_per_cmd": sum(r["trace_bytes"] for r in first) / cmds,
        "stable_lag_p50": percentile(lags, 0.50),
        "stable_lag_p98": percentile(lags, 0.98),
        "revocations_per_cmd": sum(r["revocations"] for r in first) / cmds,
        "msgs_per_cmd": sum(r["sends"] for r in first) / cmds,
    }
    detail = {
        "repetitions": {str(s): len(reps[s]) for s in seeds},
        "per_repetition": {str(s): [[r["cmds"], r["sim_s"], r["check_s"]]
                                    for r in reps[s]] for s in done},
        "append_samples": len(append_ms),
        "stable_lag_samples": len(lags),
        "never_stable": sum(1 for x in lags if x is None),
        "fairness_missing": {str(s): reps[s][0]["fairness_missing"]
                             for s in done},
        "fingerprints": {str(s): reps[s][0]["fingerprint"] for s in done},
    }
    return metrics, detail


def per_layer(run, seed):
    """Traced repetitions of one scenario, each paired with an untraced
    `sim.run` of it, plus one traced repetition at half size."""
    plain, traced = [], []
    half = run.rep("traced", seed, n=run.n // 2)
    while run.keep_going(bool(traced)):
        for mode, into in (("sim", plain), ("traced", traced)):
            result = run.rep(mode, seed)
            if result is not None:
                into.append(result)
    if not traced or not plain or half is None:
        return {}, {}
    metrics = dict(traced[0]["metrics"])
    for name in metrics:
        if name.endswith(TIMINGS):
            metrics[name] = statistics.median(r["metrics"][name]
                                              for r in traced)
        elif any(r["metrics"][name] != metrics[name] for r in traced):
            run.failed += 1
            run.errors.append({"error": "count %s differs between traced "
                                        "repetitions" % name})
    for name, full in traced[0]["growth_counts"].items():
        small = half["growth_counts"][name]
        metrics[name + ".growth"] = (math.log2(full / small)
                                     if full and small else 0.0)
    metrics["sim.trace_overhead"] = (metrics["sim.run.s"]
                                     / statistics.median(r["sim_s"]
                                                         for r in plain))
    sim_self = {k[4:]: v for k, v in traced[0]["self_times"].items()
                if k.startswith("sim:")}
    detail = {"traced_repetitions": len(traced),
              "top_sim_self": max(sim_self, key=sim_self.get),
              "sim_self_s": sim_self,
              "fingerprint": traced[0]["fingerprint"]}
    return metrics, detail


def declared(kind):
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dagrepl" / "__init__.py").is_file():
        print("perfbench: no src/dagrepl under %s" % ROOT, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seeds = scenario_seeds(args.seed)
    run = Run(wl.name, wl.n, args.seconds)
    if args.trace:
        metrics, detail = per_layer(run, seeds[0])
        units = declared("per_layer")
    else:
        metrics, detail = end_to_end(run, seeds)
        units = declared("end_to_end")
    bad = sorted(set(units) - set(metrics))
    if bad and not run.failed:
        run.failed += 1
        run.errors.append({"error": "no value for %s" % ", ".join(bad)})
    for name, value in metrics.items():
        if not math.isfinite(value):
            # e.g. more than 2% of determinate commands never stabilised
            run.errors.append({"error": "%s is %r" % (name, value)})
            metrics[name] = sys.float_info.max
            bad.append(name)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(ROOT),
            "workload_n": {w.name: w.n for w in WORKLOADS.values()},
            "scenarios_per_run": SCENARIOS,
        },
        "scenario_seeds": seeds if not args.trace else seeds[:1],
        "fingerprints_checked": run.checked,
        "wall_s": time.monotonic() - run.start,
        "detail": detail,
        "errors": run.errors,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": run.failed == 0 and not bad,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
