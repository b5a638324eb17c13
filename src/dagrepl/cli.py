"""Command-line front end.

    dagrepl run   --scenario FILE|BUILTIN [--seed N] [--recon NAME]
                  [--trace-out F] [--report-out F] [--window K]
    dagrepl check --trace FILE [--report-out F] [--window K]
    dagrepl fig1
    dagrepl fuzz  --scenario FILE|BUILTIN --seeds N [--recon NAME]
                  [--window K]

Builtin scenario names: fig1, starvation, random, continuous.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_all_checks
from .datatype import get_datatype, replay
from .scenarios import BUILTIN
from .sim import ConfigError, Scenario, Trace, full_histories, run


def _load_scenario(spec: str, seed, recon) -> Scenario:
    if spec in BUILTIN:
        scenario = BUILTIN[spec](seed if seed is not None else 0, recon)
    else:
        scenario = Scenario.load(spec)
    if seed is not None:
        scenario.seed = seed
    if recon:
        scenario.recon = recon
    return scenario


def _first_problems(name, v):
    """One line per reason a failed verdict failed, naming its first
    problem."""
    if name == "safety":
        return ["%s: %s" % (sub, r["problems"][0])
                for sub, r in v.items()
                if isinstance(r, dict) and not r["ok"]]
    if name == "fairness":
        lines = []
        missing = v["missing_from_stable"]
        if missing:
            lines.append("missing from the stable prefix: %s, first of %d"
                         % (tuple(missing[0]), len(missing)))
        starving = [str(rid) for rid, s in v["starvation"].items()
                    if s == "fail"]
        if starving:
            lines.append("starving replicas: %s" % ", ".join(starving))
        return lines
    if name == "convergence":
        return ["%d distinct final histories"
                % v["distinct_final_histories"]]
    return []


def _print_verdicts(verdicts):
    for name, v in verdicts.items():
        if isinstance(v, dict):
            print("%-12s %s" % (name, "PASS" if v["ok"] else "FAIL"))
            if not v["ok"]:
                for line in _first_problems(name, v):
                    print("  " + line)
    return 0 if verdicts["ok"] else 1


def _write_report(path, scenario_dict, verdicts):
    if not path:
        return
    with open(path, "w") as fh:
        json.dump({"config": scenario_dict, "verdicts": verdicts},
                  fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _cmd_run(args):
    scenario = _load_scenario(args.scenario, args.seed, args.recon)
    trace = run(scenario)
    if args.trace_out:
        trace.to_jsonl(args.trace_out)
    verdicts = run_all_checks(trace, window=args.window)
    _write_report(args.report_out, scenario.to_dict(), verdicts)
    return _print_verdicts(verdicts)


def _cmd_check(args):
    trace = Trace.from_jsonl(args.trace)
    verdicts = run_all_checks(trace, window=args.window)
    _write_report(args.report_out, trace.meta["scenario"], verdicts)
    return _print_verdicts(verdicts)


def _cmd_fig1(args):
    from .scenarios import fig1_scenario
    spec = get_datatype("nfs")
    rc = 0
    for recon in ("bfs", "fair"):
        trace = run(fig1_scenario(recon))
        verdicts = run_all_checks(trace)
        *_, (_, final) = full_histories(trace.events)
        ops = {}
        for ev in trace.events:
            if ev["kind"] == "append":
                ops[(ev["replica"], ev["seq"])] = tuple(ev["op"])
        history = [ops[(j, s)] for j, s in final]
        _, responses = replay(spec, history)
        print("f_%s:" % recon)
        for (j, s), op, resp in zip(final, history, responses):
            print("  (%s, %d, %d) -> %s" % (" ".join(map(str, op)), j, s,
                                            resp))
        if not verdicts["ok"]:
            rc = 1
    return rc


def _cmd_fuzz(args):
    failures = []
    for seed in range(args.seeds):
        scenario = _load_scenario(args.scenario, seed, args.recon)
        trace = run(scenario)
        verdicts = run_all_checks(trace, window=args.window)
        if not verdicts["ok"]:
            bad = [k for k, v in verdicts.items()
                   if isinstance(v, dict) and not v["ok"]]
            failures.append((seed, bad))
            print("seed %d FAIL: %s" % (seed, ", ".join(bad)))
    print("%d/%d seeds passed" % (args.seeds - len(failures), args.seeds))
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dagrepl",
        description="DAG-based eventually consistent replication harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and check it")
    p_run.add_argument("--scenario", required=True,
                       help="scenario JSON file or builtin name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--recon", default=None)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--report-out", default=None)
    p_run.add_argument("--window", type=int, default=10)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="re-check an existing trace")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--report-out", default=None)
    p_check.add_argument("--window", type=int, default=10)
    p_check.set_defaults(func=_cmd_check)

    p_fig1 = sub.add_parser(
        "fig1", help="print the worked example under both f_bfs and f_fair")
    p_fig1.set_defaults(func=_cmd_fig1)

    p_fuzz = sub.add_parser("fuzz", help="sweep seeds over a scenario")
    p_fuzz.add_argument("--scenario", required=True)
    p_fuzz.add_argument("--seeds", type=int, default=20)
    p_fuzz.add_argument("--recon", default=None)
    p_fuzz.add_argument("--window", type=int, default=10)
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
