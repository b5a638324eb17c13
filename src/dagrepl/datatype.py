"""Sequential data types replicated by the DAG framework.

A data type is a deterministic step function over immutable states.  An
operation that is not enabled in the current state leaves the state
untouched and answers BOTTOM; disabled operations are never errors.

Operations are plain tuples so they hash, compare and serialize without
ceremony:

    ("mkdir", path, name)   create directory `name` under `path`
    ("rmdir", path)         remove the (childless) directory at `path`
    ("push", value)         append `value` to the integer log
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

OK = "ok"
BOTTOM = "bottom"


@dataclass(frozen=True)
class DataTypeSpec:
    """A replicated data type: an initial state and a deterministic step."""

    name: str
    initial_state: object
    step: Callable[[object, tuple], tuple]


_INITIAL = object()


def replay(spec: DataTypeSpec, history, state=_INITIAL):
    """Fold the data type's step over a history of commands.

    Starts from `state`, the data type's initial state by default, so a
    caller holding the state after some prefix can replay just the rest.
    Returns the final state and the response of every command, positionally
    aligned with the history.  Elements may be Commands (their `.op` is
    used) or bare operation tuples.
    """
    if state is _INITIAL:
        state = spec.initial_state
    responses = []
    for item in history:
        op = item.op if hasattr(item, "op") else item
        state, resp = spec.step(state, op)
        responses.append(resp)
    return state, responses


# --- NFS directory tree -----------------------------------------------------
#
# State: frozenset of absolute directory paths, always containing "/".
# mkdir(p, n) is enabled iff p exists and p/n does not; rmdir(p) is enabled
# iff p exists, p != "/" and p has no children.  mkdir of an existing
# directory is treated as disabled.

def _nfs_child(path, name):
    return ("" if path == "/" else path) + "/" + name


def _nfs_step(state, op):
    kind = op[0]
    if kind == "mkdir":
        _, path, name = op
        if not name or "/" in name:
            return state, BOTTOM
        if path not in state:
            return state, BOTTOM
        child = _nfs_child(path, name)
        if child in state:
            return state, BOTTOM
        return state | {child}, OK
    if kind == "rmdir":
        _, path = op
        if path == "/" or path not in state:
            return state, BOTTOM
        prefix = path + "/"
        if any(p.startswith(prefix) for p in state):
            return state, BOTTOM
        return state - {path}, OK
    raise ValueError("unknown nfs operation: %r" % (op,))


NFS = DataTypeSpec("nfs", frozenset({"/"}), _nfs_step)


# --- Append-only integer log ------------------------------------------------
#
# Every push is enabled, so no command ever answers BOTTOM.  Useful for
# isolating ordering behaviour from enabledness.  A state is () or a _Log
# node: a push shares its log, so it is O(1) and a kept state costs O(1)
# memory, and a state iterates as its values and compares as their tuple.

class _Log:
    __slots__ = ("prev", "last")

    def __init__(self, prev, last):
        self.prev, self.last = prev, last

    def __iter__(self):     # a loop: a log can outgrow the recursion limit
        values, node = [], self
        while type(node) is _Log:
            values.append(node.last)
            node = node.prev
        return reversed(values)

    def __eq__(self, other):
        return isinstance(other, (tuple, _Log)) and tuple(self) == tuple(other)

    def __repr__(self):
        return "_Log(%s)" % ", ".join(map(repr, self))


def _intlog_step(state, op):
    if op[0] == "push":
        return _Log(state, op[1]), OK
    raise ValueError("unknown intlog operation: %r" % (op,))


INTLOG = DataTypeSpec("intlog", (), _intlog_step)


DATATYPES = {"nfs": NFS, "intlog": INTLOG}


def get_datatype(name: str) -> DataTypeSpec:
    try:
        return DATATYPES[name]
    except KeyError:
        raise KeyError("unknown data type %r (have: %s)"
                       % (name, ", ".join(sorted(DATATYPES)))) from None
