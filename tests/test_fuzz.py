"""Fixture fuzz: one mutation of a bundled fixture never escapes ``cli.main``.

Each mutation deletes a key or list entry, duplicates a list entry, or sets a
value to one of ``VALUES``; the mutated fixture's own command then runs in
process, and its exit code must be one of the contract's 0, 1 and 2.  An
input error (2) must name the fixture in its first line: its file stem, or the
``name`` it declares.
"""

import copy
import random
from collections import Counter

import yaml

from cubiclct.cli import fixture_dir, main

SEED = 1
MUTATIONS = 300
VALUES = (0, 1, -1, 1.5, 10**40, -(10**40), True, None, "", "x", "1/0", "-1/2", "A1", "E8",
          "0 > 1", "tau >= 1", [], [0], {}, {"x": 1})


def _slots(node, out):
    """Every ``(container, key)`` below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(rng, doc) -> str:
    slots = _slots(doc, [])
    op = rng.choice(("delete", "duplicate", "set"))
    if op == "duplicate":
        slots = [s for s in slots if isinstance(s[0], list)]
    container, key = rng.choice(slots)
    if op == "delete":
        del container[key]
    elif op == "duplicate":
        container.insert(key, copy.deepcopy(container[key]))
    else:
        container[key] = copy.deepcopy(rng.choice(VALUES))
    return op


def _command(doc) -> str:
    return "case" if "script" in doc else "equivariant" if "group" in doc else "fiberwise"


def test_no_mutation_escapes_main(capsys, tmp_path):
    paths = sorted(fixture_dir().glob("*.yaml"))
    docs = {p.stem: yaml.safe_load(p.read_text()) for p in paths}
    rng = random.Random(SEED)
    codes = Counter()
    for i in range(MUTATIONS):
        name = rng.choice(sorted(docs))
        doc = copy.deepcopy(docs[name])
        op = _mutate(rng, doc)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main([_command(docs[name]), str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (i, name, op, code)
        if code == 2:
            first = err.splitlines()[0]
            declared = doc.get("name")
            assert name in first or (isinstance(declared, str) and declared in first), \
                (i, name, op, first)
        codes[code] += 1
    # the sample reaches both a verdict and the input-error path
    assert codes[0] and codes[2], codes
