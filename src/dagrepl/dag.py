"""The collaboratively constructed command DAG.

Vertices are commands (operation, issuer, sequence number) hanging off a
synthetic root EPSILON.  The DAG caches, per vertex, its level key
(greatest distance from the root, issuer, seq) and its causal past (as a
bitmask over insertion indices); both are immutable once the vertex is
inserted, because a vertex's parent set never changes.  It also keeps each
issuer's chain: the issuer's commands in ascending seq order.

CommandDag is append-only: insert adds one vertex in place, and nothing
ever removes a vertex or changes one already inserted.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress
from operator import attrgetter
from typing import Iterable, NamedTuple

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class DagError(Exception):
    pass


class MissingParent(DagError):
    pass


class DuplicateVertex(DagError):
    pass


class UnknownVertex(DagError):
    pass


class Command(NamedTuple):
    op: tuple
    issuer: int
    seq: int

    def __repr__(self):
        return "(%s,%d,%d)" % (" ".join(str(x) for x in self.op),
                               self.issuer, self.seq)


class _Root:
    """The synthetic root; never a Command, never part of a history."""

    __slots__ = ()

    def __repr__(self):
        return "eps"


EPSILON = _Root()


class CommandDag:
    """Append-only command DAG with cached level keys, causal pasts and
    issuer chains."""

    __slots__ = ("_parents", "_key", "_past", "_order", "_childless",
                 "_chains")

    def __init__(self):
        self._parents = {}        # Command -> frozenset of parents
        self._key = {}            # Command -> (dist, issuer, seq)
        self._past = {}           # Command -> bitmask incl. own bit
        self._order = []          # commands in insertion order
        self._childless = set()   # commands with no outgoing edge
        self._chains = {}         # issuer -> its commands, ascending seq

    def __len__(self):
        return len(self._order)

    def __contains__(self, v):
        return v is EPSILON or v in self._parents

    def commands(self):
        """All commands, in local insertion order (a snapshot)."""
        return tuple(self._order)

    def chains(self):
        """issuer -> its commands by ascending seq (live; do not mutate)."""
        return self._chains

    def past_masks(self):
        """Command -> the bitmask of its past, itself included (live)."""
        return self._past

    def parents_of(self, v):
        try:
            return self._parents[v]
        except KeyError:
            raise UnknownVertex(repr(v)) from None

    def insert(self, v: Command, parents: Iterable) -> None:
        """Add `v` below `parents`, in place.

        Parents may include EPSILON; when the DAG is empty the root stands
        in as the only parent.  Every precondition is checked before
        anything changes, so a rejected insert leaves the DAG as it was.
        """
        parents = frozenset(parents)
        if not parents:
            raise MissingParent("vertex %r needs at least one parent" % (v,))
        if v in self._parents:
            raise DuplicateVertex(repr(v))
        key, past = self._key, self._past
        dist, mask = 0, 1 << len(self._order)
        for p in parents:
            if p is not EPSILON:
                try:
                    mask |= past[p]
                except KeyError:
                    raise MissingParent(repr(p)) from None
                if key[p][0] > dist:
                    dist = key[p][0]
        self._parents[v] = parents
        self._key[v] = (dist + 1, v.issuer, v.seq)
        past[v] = mask
        self._order.append(v)
        self._childless -= parents
        self._childless.add(v)
        chain = self._chains.setdefault(v.issuer, [])
        if chain and chain[-1].seq > v.seq:     # never in the protocol
            insort(chain, v, key=attrgetter("seq"))     # after equal seqs
        else:
            chain.append(v)

    def leaves(self):
        """Vertices with no outgoing edge, a frozenset; {EPSILON} if empty."""
        if not self._order:
            return frozenset({EPSILON})
        return frozenset(self._childless)

    def dist(self, v) -> int:
        return 0 if v is EPSILON else level_key(self, v)[0]

    def all_mask(self) -> int:
        return (1 << len(self._order)) - 1

    def expand_mask(self, mask: int):
        """Commands whose bits are set, in insertion-index order."""
        # bin() lists the bits most significant first; reversed and mapped
        # to 0/1 bytes they select from the insertion order without a
        # Python-level loop, which matters for sparse and dense masks alike.
        flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
        return list(compress(self._order, flags))

    def past(self, v):
        """v plus every vertex with a path to v; EPSILON is excluded."""
        try:
            return set(self.expand_mask(self._past[v]))
        except KeyError:
            raise UnknownVertex(repr(v)) from None


def level_key(dag: CommandDag, c):
    """(dist, issuer, seq): the level order, fixed once `c` is in `dag`."""
    try:
        return dag._key[c]
    except KeyError:
        raise UnknownVertex(repr(c)) from None


def topo_sort(dag: CommandDag, subset):
    """Edge-respecting order of `subset`, sorted by `level_key`.

    An edge u -> w forces dist(u) < dist(w), so sorting by the key is a
    topological order of any subset.
    """
    try:
        return sorted(subset, key=dag._key.__getitem__)
    except KeyError as exc:
        raise UnknownVertex(repr(exc.args[0])) from None


# --- textual DAG fixtures ----------------------------------------------------
#
# One line per vertex, root implied:
#
#     issuer seq op-tokens : parent-list
#
# where op-tokens is e.g. "mkdir / d1", "rmdir /d2" or "push 5" and the
# parent list is "eps" or space-separated issuer.seq pairs.  Lines starting
# with "#" and blank lines are ignored.

def _parse_op(tokens):
    kind = tokens[0]
    if kind == "mkdir":
        return ("mkdir", tokens[1], tokens[2])
    if kind == "rmdir":
        return ("rmdir", tokens[1])
    if kind == "push":
        return ("push", int(tokens[1]))
    raise ValueError("unknown op in fixture: %r" % (tokens,))


def parse_dag(text: str) -> CommandDag:
    dag = CommandDag()
    by_key = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        fields = head.split()
        issuer, seq = int(fields[0]), int(fields[1])
        op = _parse_op(fields[2:])
        parent_keys = tail.split()
        if parent_keys == ["eps"]:
            parents = {EPSILON}
        else:
            parents = set()
            for key in parent_keys:
                pj, ps = key.split(".")
                parents.add(by_key[(int(pj), int(ps))])
        v = Command(op, issuer, seq)
        by_key[(issuer, seq)] = v
        dag.insert(v, parents)
    return dag


def format_dag(dag: CommandDag) -> str:
    lines = []
    for v in dag.commands():
        parents = dag.parents_of(v)
        if EPSILON in parents:
            plist = "eps"
        else:
            plist = " ".join("%d.%d" % (p.issuer, p.seq)
                             for p in sorted(parents,
                                             key=lambda c: (c.issuer, c.seq)))
        lines.append("%d %d %s : %s"
                     % (v.issuer, v.seq, " ".join(str(x) for x in v.op),
                        plist))
    return "\n".join(lines) + "\n"
