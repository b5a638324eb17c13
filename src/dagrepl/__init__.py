"""DAG-based eventually consistent state-machine replication.

Replicas keep issued commands in a causal DAG and derive their visible
history with a reconciliation function; the shipped functions guarantee a
monotonically growing stable prefix (f_bfs) and, additionally, fairness
and no starvation (f_fair).  A seeded discrete-event simulator plus trace
checkers verify those properties mechanically.
"""

from .broadcast import BroadcastMessage, ReliableBroadcast
from .dag import (Command, CommandDag, EPSILON, DagError, DuplicateVertex,
                  MissingParent, UnknownVertex, topo_sort)
from .datatype import (BOTTOM, DATATYPES, INTLOG, NFS, OK, DataTypeSpec,
                       get_datatype, replay)
from .reconcile import RECONCILERS, f_bfs, f_fair, f_lifo, get_reconciler
from .replica import InvariantViolation, Replica
from .sim import ConfigError, Partition, Scenario, Trace, run

__all__ = [
    "BOTTOM", "BroadcastMessage", "Command", "CommandDag", "ConfigError",
    "DATATYPES", "DagError", "DataTypeSpec", "DuplicateVertex", "EPSILON",
    "INTLOG", "InvariantViolation", "MissingParent", "NFS", "OK",
    "Partition", "RECONCILERS", "ReliableBroadcast", "Replica", "Scenario",
    "Trace", "UnknownVertex", "f_bfs", "f_fair", "f_lifo", "get_datatype",
    "get_reconciler", "replay", "run", "topo_sort",
]
