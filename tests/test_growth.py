"""Growth gates: how a run's cost grows with its length, without a clock.

Wall-clock ratios on a shared machine are noise; the traced peak of a
run's heap is the same bytes on every run.  So a term that grows faster
than the run shows as a per-command peak that rises with N.
"""

import gc
import tracemalloc

import pytest

from dagrepl.scenarios import continuous_scenario
from dagrepl.sim import run


def _sim_peak_per_command(recon, commands):
    """The tracemalloc peak of `sim.run`, in bytes per command."""
    scenario = continuous_scenario(0, recon, commands=commands)
    gc.collect()
    tracemalloc.start()
    try:
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / commands


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
