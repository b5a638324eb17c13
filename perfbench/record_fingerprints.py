"""Record the output fingerprints that run.py checks repetitions against.

    python3 perfbench/record_fingerprints.py FIRST_SEED LAST_SEED

simulates every scenario of run seeds FIRST_SEED..LAST_SEED of every
workload and merges their fingerprints into fingerprints.json.  Record on
a commit whose outputs are known good; a workload whose size changed
starts a fresh record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
from run import FINGERPRINTS  # noqa: E402
from workloads import WORKLOADS, scenario_seeds  # noqa: E402


def main(argv):
    first, last = int(argv[1]), int(argv[2])
    try:
        store = json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        store = {}
    for wl in WORKLOADS.values():
        entry = store.get(wl.name)
        if not entry or entry["n"] != wl.n:
            entry = store[wl.name] = {"n": wl.n, "seeds": {}}
        for seed in range(first, last + 1):
            for scenario_seed in scenario_seeds(seed):
                result = rep.sim_run(wl.name, scenario_seed, wl.n)
                entry["seeds"][str(scenario_seed)] = result["fingerprint"]
            print(wl.name, seed, flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda kv: int(kv[0])))
        FINGERPRINTS.write_text(json.dumps(store, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
