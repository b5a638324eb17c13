"""A seeded trace fuzzer: mutants of recorded traces never crash `check`.

Each mutant of a recorded `fig1` trace and of a small `random` trace has
lines dropped, duplicated or swapped, a field retyped, a `recv` line
split into the lines it stands for or its `src` or `parents` spoiled, a
byte corrupted or the file cut; half of them get their `t`s renumbered so
that moved lines reach the checkers.  `dagrepl check` must give a verdict
(exit 0 or 1) or reject the file with exit 2 and an `error:` line; an
exception escaping `main` fails the test.
"""

import json
import random

import pytest

from dagrepl.cli import main
from dagrepl.scenarios import fig1_scenario, random_scenario
from dagrepl.sim import run

MUTANTS = 200           # per recorded trace
# values of other types, and integers out of range, for `_retype`; the
# last has 4300 digits, the most `json.loads` takes
ODD_VALUES = ("x", "", None, True, 1.5, -1, 0, 99, [], [1], [[1]],
              {}, {"kind": "send"}, int("9" * 4300))


def _drop(rng, lines):
    del lines[rng.randrange(len(lines))]


def _duplicate(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))


def _swap(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


def _retype(rng, lines):
    """Give one field, at any depth of one line, a value of another type."""
    i = rng.randrange(len(lines))
    doc = json.loads(lines[i])
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = rng.choice(keys)
        if isinstance(node[key], (dict, list)) and node[key] \
                and rng.random() < 0.5:
            node = node[key]
            continue
        node[key] = rng.choice(ODD_VALUES)
        break
    lines[i] = json.dumps(doc)


def _recv(rng, lines):
    """Write one `recv` line as the `sends`, `deliver` and `insert` lines
    it stands for, or give its `src` or `parents` another value: one of
    another type, a replica out of range, or parents that are not pairs."""
    docs = [json.loads(line) for line in lines]
    recvs = [i for i, doc in enumerate(docs)
             if isinstance(doc, dict) and doc.get("kind") == "recv"]
    if not recvs:
        return
    i = rng.choice(recvs)
    doc = docs[i]
    to, t = doc.get("to"), doc.get("t")
    if rng.random() < 0.5 and isinstance(to, list) and type(t) is int:
        sends = {k: v for k, v in doc.items() if k != "parents"}
        sends["kind"] = "sends"
        src, uid = doc.get("src"), doc.get("uid")
        lines[i:i + 1] = map(json.dumps, (
            sends,
            {"kind": "deliver", "replica": src, "t": t + len(to),
             "uid": uid},
            {"kind": "insert", "parents": doc.get("parents"),
             "replica": src, "t": t + len(to) + 1, "vertex": uid}))
        return
    key = rng.choice(("src", "parents"))
    doc[key] = rng.choice(ODD_VALUES + (6, [[1, 1, 1]], [[1, 1], [2]]))
    lines[i] = json.dumps(doc)


MUTATIONS = (_drop, _duplicate, _swap, _retype, _recv)


def _renumber(lines):
    """Number the integer `t`s of the event lines 1, 2, ... again, so that
    a mutant with moved lines gets past the reader to the checkers.  A
    `sends` line with a non-empty `to` list takes a step per item, and a
    `recv` line with one takes two steps more."""
    t = 0
    for i, line in enumerate(lines[1:], 1):
        ev = json.loads(line)
        if isinstance(ev, dict) and type(ev.get("t")) is int:
            ev["t"] = t + 1
            to, kind = ev.get("to"), ev.get("kind")
            if kind in ("sends", "recv") and isinstance(to, list) and to:
                t += len(to) + (kind == "recv") * 2
            else:
                t += 1
            lines[i] = json.dumps(ev)


def _mutant(rng, text):
    """`text` with one to three line mutations, then perhaps its `t`s
    renumbered, and perhaps a corrupted byte or a cut."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        rng.choice(MUTATIONS)(rng, lines)
    if rng.random() < 0.5:
        _renumber(lines)
    data = ("\n".join(lines) + "\n").encode()
    roll = rng.random()
    if roll < 0.15:
        at = rng.randrange(len(data))
        data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    elif roll < 0.3:
        data = data[:rng.randrange(len(data))]
    return data


@pytest.mark.parametrize("name, scenario", [
    ("fig1", fig1_scenario("fair")),
    ("random", random_scenario(2, "bfs", commands=12)),
])
def test_mutated_trace_gets_verdict_or_usage_error(capsys, tmp_path, name,
                                                   scenario):
    recorded = tmp_path / "recorded.jsonl"
    run(scenario).to_jsonl(recorded)
    text = recorded.read_text()
    rng = random.Random("trace-fuzz-%s" % name)
    path = tmp_path / "mutant.jsonl"
    outcomes = {0: 0, 1: 0, 2: 0}
    for i in range(MUTANTS):
        data = _mutant(rng, text)
        path.write_bytes(data)
        capsys.readouterr()
        try:
            rc = main(["check", "--trace", str(path)])
        except Exception as exc:
            pytest.fail("mutant %d of %s raised %s: %s\n%s"
                        % (i, name, type(exc).__name__, exc,
                           data.decode(errors="replace")))
        out, err = capsys.readouterr()
        assert rc in outcomes, (i, rc)
        if rc == 2:
            assert err.startswith("error: "), (i, err)
        else:
            assert "PASS" in out or "FAIL" in out, (i, out)
        outcomes[rc] += 1
    # the mutants reach the checkers, not only the reader
    assert outcomes[1] and outcomes[2], outcomes
