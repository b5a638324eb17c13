"""Growth gates: how a run's cost grows with its length and its replica
count, without a clock.

Wall-clock ratios on a shared machine are noise; the traced peak of a
run's heap and the bytes of its trace are the same on every run.  So a
term that grows faster than the run shows as a per-command peak that
rises with N, and a trace term above the broadcast's as bytes per command
that rise faster than n.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from dagrepl import reconcile
from dagrepl.checks import run_all_checks
from dagrepl.scenarios import continuous_scenario
from dagrepl.sim import Trace, run


def _peak(fn):
    """The tracemalloc peak of `fn()`, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sim_peak_per_command(recon, commands):
    """The tracemalloc peak of `sim.run`, in bytes per command."""
    scenario = continuous_scenario(0, recon, commands=commands)
    return _peak(lambda: run(scenario)) / commands


def _check_peak_per_command(tmp_path, recon, commands):
    """The tracemalloc peak of reading a written trace and checking it, in
    bytes per command."""
    path = tmp_path / ("%s-%d.jsonl" % (recon, commands))
    run(continuous_scenario(0, recon, commands=commands)).to_jsonl(path)
    return _peak(lambda: run_all_checks(Trace.from_jsonl(path))) / commands


# A run's memory is linear in its length but for the past masks, one
# bit per earlier vertex in every vertex's past: O(N^2) bits per DAG, which
# the bound allows (x1.07 to x1.10 on Python 3.10 to 3.13).  It fails on
# kept data-type states that copy the history: an intlog state per append
# that copied its log gave x1.31 to x1.35 for both reconcilers.  Replay
# steps per command are about flat whether or not states copy their log,
# so a step count could not gate this.
@pytest.mark.parametrize("recon", ["bfs", "fair"])
def test_sim_peak_per_command_grows_only_by_the_masks(recon):
    small = _sim_peak_per_command(recon, 500)
    large = _sim_peak_per_command(recon, 2000)
    ratio = large / small
    assert ratio <= 1.2, (
        "%s: sim.run peak %.0f B/cmd at N=500, %.0f B/cmd at N=2000: "
        "x%.3f, above x1.2" % (recon, small, large, ratio))


# The check phase is linear in the trace but for the past masks of the DAGs
# `check_safety` rebuilds, one bit per earlier vertex in every vertex's
# past, which the bound allows (x1.04 to x1.06 on Python 3.10 to 3.13).
# It fails on a basis kept per own command: a tuple copy of the issuer's
# history at its first snapshot there gave x1.33.
@pytest.mark.parametrize("recon", ["bfs", "fair"])
def test_check_peak_per_command_grows_only_by_the_masks(tmp_path, recon):
    small = _check_peak_per_command(tmp_path, recon, 300)
    large = _check_peak_per_command(tmp_path, recon, 1200)
    ratio = large / small
    assert ratio <= 1.2, (
        "%s: check peak %.0f B/cmd at N=300, %.0f B/cmd at N=1200: "
        "x%.3f, above x1.2" % (recon, small, large, ratio))


# A fair session reruns its leader scan from round 0, and rebuilds its
# batches, only for a new issuer: n(n + 1) scans in all, counting each
# replica's scan of its empty DAG.  A scan resumed by walking the issuers'
# chains made about two per command.
@pytest.mark.parametrize("commands", [500, 2000])
def test_fair_sim_scans_from_round_0_once_per_issuer(monkeypatch, commands):
    calls = Counter()

    def count(name):
        real = getattr(reconcile, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(reconcile, name, counted)
    count("_scan")
    count("_batches")
    scenario = continuous_scenario(0, "fair", commands=commands)
    run(scenario)
    n = scenario.n
    assert calls["_batches"] <= calls["_scan"] <= n * (n + 1), calls


def _written_at_n(tmp_path, n, commands=600):
    """The path of a written `continuous` bfs trace at n replicas, with the
    final flush."""
    scenario = continuous_scenario(0, "bfs", commands=commands, n=n)
    scenario.quiescence_flush = True
    path = tmp_path / ("n%d.jsonl" % n)
    run(scenario).to_jsonl(path)
    return path


def _trace_bytes_per_command(tmp_path, n, commands=600):
    """The bytes of that trace per command."""
    return _written_at_n(tmp_path, n, commands).stat().st_size / commands


# Eager reliable broadcast makes n(n-1) channel sends per command, n fan-outs
# of n-1, and the trace writes a fan-out as one line, so that a command's
# lines grow linearly with n.  The O(n^2) term left is one `[dst,at]` pair,
# about 8 bytes, per channel send.  From n = 3 to 6 the bytes per command
# grow x1.87, from 605 to 1133, with a first receipt's forward, delivery
# and insert on one line; with the three on lines of their own it was
# x2.07 (799 to 1652), and a line per channel send gave x3.31 (1043 to
# 3449), which fails.  The two runs take about 0.15 s.
def test_trace_bytes_per_command_grow_about_linearly_in_n(tmp_path):
    small = _trace_bytes_per_command(tmp_path, 3)
    large = _trace_bytes_per_command(tmp_path, 6)
    ratio = large / small
    assert ratio <= 2.5, (
        "trace %.0f B/cmd at n=3, %.0f B/cmd at n=6: x%.3f, above x2.5"
        % (small, large, ratio))


def _check_peak_per_command_at_n(tmp_path, n, commands=600):
    """The tracemalloc peak of reading that trace and checking it, in bytes
    per command."""
    path = _written_at_n(tmp_path, n, commands)
    return _peak(lambda: run_all_checks(Trace.from_jsonl(path))) / commands


# The checker reads a fan-out as one `sends` record and counts its pairs,
# so that its memory per command grows about linearly with n.  The terms
# the bound allows are the DAG `check_safety` rebuilds for each of the n
# replicas, and one `[dst,at]` pair per channel send in the records' `to`
# lists.  From n = 3 to 6 the peak per command grows x2.06, from 10.6 to
# 21.9 kB on Python 3.11; a `send` dict per channel send gave x2.42 (10.7
# to 26.0 kB), which fails.  The two runs and their checks take about 2 s.
def test_check_peak_per_command_grows_about_linearly_in_n(tmp_path):
    small = _check_peak_per_command_at_n(tmp_path, 3)
    large = _check_peak_per_command_at_n(tmp_path, 6)
    ratio = large / small
    assert ratio <= 2.25, (
        "check peak %.0f B/cmd at n=3, %.0f B/cmd at n=6: x%.3f, above "
        "x2.25" % (small, large, ratio))
