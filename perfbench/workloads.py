"""The benchmark's workloads: sizes, scenario seeds and scenario builders.

Every workload is a closed loop in which the simulator is the only client:
it issues the next timed append only after the previous handler returned.
A run with seed S simulates the SCENARIOS scenarios whose seeds are
``scenario_seeds(S)``; the same S always gives the same scenarios, and the
three workloads share the scenario seeds so that `bfs-partition` and
`fair-partition` run the very same inputs under the two reconcilers.

This module imports nothing from `dagrepl` at import time: the import of
the package is part of the measured set-up, so the builders take the
freshly imported modules as an argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Scenarios per run.  Pooling many scenarios per run is what keeps the
# per-seed spread of the exact counts small: between single scenarios of
# one workload, revocations per command and the p98 stable lag differ by
# more than half their median (the partition's length and the crash
# victim are drawn from the seed), and pooling 32 brings the spread between
# run seeds down to about a tenth of that.  The partition workloads' size
# is kept moderate so that 32 scenarios fit in one run.
SCENARIOS = 32


def scenario_seeds(seed: int, count: int = SCENARIOS):
    """Scenario seeds of run seed `seed`; disjoint between run seeds."""
    return [seed * 1000 + i for i in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                 # issued appends per scenario
    build: Callable        # build(mods, scenario_seed, n) -> Scenario


def _partition(recon):
    def build(mods, scenario_seed, n):
        return mods.scenarios.random_scenario(scenario_seed, recon,
                                              commands=n)
    return build


# nfs-continuous: a namespace of 6 top-level directories with 3 children
# each.  The generator tracks the namespace a sequential execution would
# have and issues the enabled operation on a random path with probability
# NFS_ENABLED, the disabled one otherwise; concurrent appends at the other
# replicas raise the bottom share from that 10% to about 40%.
NFS_TOP = ("a", "b", "c", "d", "e", "f")
NFS_SUB = ("x", "y", "z")
NFS_ENABLED = 0.9


def _nfs_continuous(mods, scenario_seed, n):
    rng = random.Random("nfs-continuous-%d" % scenario_seed)
    paths = (["/" + a for a in NFS_TOP]
             + ["/%s/%s" % (a, b) for a in NFS_TOP for b in NFS_SUB])
    present = {"/"}
    workload = []
    t = 0
    for _ in range(n):
        t += rng.randint(1, 3)
        path = rng.choice(paths)
        parent, _, name = path.rpartition("/")
        parent = parent or "/"
        mkdir = ("mkdir", parent, name)
        rmdir = ("rmdir", path)
        if path in present:
            enabled = not any(p.startswith(path + "/") for p in present)
            op = rmdir if enabled else mkdir
        else:
            enabled = parent in present
            op = mkdir if enabled else rmdir
        if rng.random() >= NFS_ENABLED:
            op = rmdir if op is mkdir else mkdir
            enabled = False
        if enabled:
            if op is mkdir:
                present.add(path)
            else:
                present.discard(path)
        workload.append((t, rng.randint(1, 3), op))
    return mods.sim.Scenario(n=3, datatype="nfs", recon="bfs",
                             workload=workload, seed=scenario_seed,
                             delay_max=4, quiescence_flush=False,
                             snapshot_every=1, name="nfs-continuous")


WORKLOADS = {
    w.name: w for w in (
        # The stock convergence run: replay and the bfs sort dominate.
        Workload("bfs-partition", 250, _partition("bfs")),
        # The same scenarios under fair, where expand_mask dominates.
        Workload("fair-partition", 250, _partition("fair")),
        # Read- and observation-heavy, no partition: the bypass for the
        # pending buffer.
        Workload("nfs-continuous", 400, _nfs_continuous),
    )
}
