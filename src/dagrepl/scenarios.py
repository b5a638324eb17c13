"""Built-in scenarios: the worked 3-replica NFS example, the adversarial
starvation workload, and randomized convergence / continuous-input runs.

The scripted scenarios pin every message delivery explicitly so their
concurrency structure is exact; the random ones draw delays, a temporary
partition and a crash from the scenario seed.
"""

from __future__ import annotations

import random

from .sim import Partition, Scenario


def fig1_scenario(recon: str = "bfs") -> Scenario:
    """Three NFS replicas producing the canonical 7-command DAG.

    Replica 1 issues mkdir /d1, rmdir /d2 and rmdir /d1; replica 2 issues
    mkdir /d2 and mkdir /d2/d4; replica 3 issues mkdir /d3 and
    mkdir /d2/d4/d5.  Deliveries are scripted so that the two rmdir/mkdir
    conflicts are concurrent at equal DAG distance.
    """
    workload = [
        (10, 1, ("mkdir", "/", "d1")),       # (o1,1,1)
        (20, 2, ("mkdir", "/", "d2")),       # (o2,2,1)
        (30, 3, ("mkdir", "/", "d3")),       # (o3,3,1)
        (50, 1, ("rmdir", "/d2")),           # (o4,1,2)
        (60, 2, ("mkdir", "/d2", "d4")),     # (o5,2,2)
        (70, 1, ("rmdir", "/d1")),           # (o6,1,3)
        (80, 3, ("mkdir", "/d2/d4", "d5")),  # (o7,3,2)
    ]
    deliveries = {
        (2, 1, 1): 35,   # o1 -> replica 2
        (3, 1, 1): 45,   # o1 -> replica 3
        (1, 2, 1): 40,   # o2 -> replica 1
        (3, 2, 1): 46,   # o2 -> replica 3
        (2, 3, 1): 36,   # o3 -> replica 2
        (3, 2, 2): 65,   # o5 -> replica 3
        # everything else arrives in the final flush
    }
    return Scenario(n=3, datatype="nfs", recon=recon, workload=workload,
                    deliveries=deliveries, name="fig1")


FIG1_BFS_ORDER = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (3, 2)]
FIG1_FAIR_ORDER = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (1, 2), (1, 3)]


def starvation_scenario(recon: str = "bfs") -> Scenario:
    """Two NFS replicas; replica 2 is the starvation victim under f_bfs.

    In each of 10 rounds, replica 1 creates a fresh directory, both
    replicas sync, then replica 1 removes it while replica 2 concurrently
    creates a child inside it.  The conflicting pair sits at equal DAG
    distance, so the issuer-id tie-break orders the removal first every
    round and replica 2's command loses its issue-time basis.
    """
    workload = []
    deliveries = {}
    seq1 = 0
    seq2 = 0
    for r in range(1, 11):
        base = 100 * r
        d = "d%d" % r
        workload.append((base, 1, ("mkdir", "/", d)))
        seq1 += 1
        deliveries[(2, 1, seq1)] = base + 5
        workload.append((base + 10, 1, ("rmdir", "/" + d)))
        seq1 += 1
        deliveries[(2, 1, seq1)] = base + 20
        workload.append((base + 11, 2, ("mkdir", "/" + d, "x%d" % r)))
        seq2 += 1
        deliveries[(1, 2, seq2)] = base + 21
    return Scenario(n=2, datatype="nfs", recon=recon, workload=workload,
                    deliveries=deliveries, name="starvation")


STARVATION_VICTIM = 2


def random_scenario(seed: int, recon: str = "bfs",
                    commands: int = 200) -> Scenario:
    """Random timed appends at 5 intlog replicas, with one temporary
    partition and one crash."""
    n = 5
    rng = random.Random("scenario-%d" % seed)
    workload = []
    t = 0
    for k in range(commands):
        t += rng.randint(1, 5)
        rid = rng.randint(1, n)
        workload.append((t, rid, ("push", k)))
    horizon_t = t
    cut_start = rng.randint(horizon_t // 4, horizon_t // 2)
    cut_len = rng.randint(horizon_t // 10, horizon_t // 4)
    group = set(rng.sample(range(1, n + 1), n // 2))
    links = [(a, b) for a in sorted(group)
             for b in range(1, n + 1) if b not in group]
    victim = rng.randint(1, n)
    crash_t = rng.randint(2 * horizon_t // 3, horizon_t)
    return Scenario(n=n, datatype="intlog", recon=recon, workload=workload,
                    partitions=[Partition(links, cut_start,
                                          cut_start + cut_len)],
                    crashes=[(victim, crash_t)],
                    seed=seed, delay_max=10, snapshot_every=10,
                    name="random")


def continuous_scenario(seed: int, recon: str = "bfs",
                        commands: int = 300, n: int = 3) -> Scenario:
    """Continuous input at n (by default 3) intlog replicas: no quiescence,
    messages in flight at the horizon stay undelivered.  Used for the
    growing-stable-prefix checks."""
    rng = random.Random("continuous-%d" % seed)
    workload = []
    t = 0
    for k in range(commands):
        t += rng.randint(1, 3)
        rid = rng.randint(1, n)
        workload.append((t, rid, ("push", k)))
    return Scenario(n=n, datatype="intlog", recon=recon, workload=workload,
                    seed=seed, delay_max=8, quiescence_flush=False,
                    snapshot_every=5, name="continuous")


BUILTIN = {
    "fig1": lambda seed, recon: fig1_scenario(recon or "bfs"),
    "starvation": lambda seed, recon: starvation_scenario(recon or "bfs"),
    "random": lambda seed, recon: random_scenario(seed, recon or "bfs"),
    "continuous": lambda seed, recon: continuous_scenario(seed,
                                                          recon or "bfs"),
}
