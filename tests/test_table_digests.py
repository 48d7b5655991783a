"""Pins of every registry table, debug payloads included.

golden/table_digests.json maps each constant and method of
``coefficients.METHODS`` to the sha256 of ``to_json()`` of its table at k
= 1..50, in order, with null where the method has no table at that k (it
raises DomainError).  A generator rewritten for speed must give the same
bytes: the test names each (method, k) that moved.
``python tests/test_table_digests.py`` adds the methods not pinned yet and
never rewrites an existing entry; ``python tests/test_table_digests.py
--diff`` prints each (constant, method, k) whose table moved, writes
nothing, and exits 1 if any moved, 0 otherwise.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from zetaodd.coefficients import METHODS
from zetaodd.core import DomainError

GOLDEN = Path(__file__).parent / "golden" / "table_digests.json"
KS = range(1, 51)
PAIRS = [(constant, method) for constant, methods in METHODS.items() for method in methods]


def digests(constant: str, method: str) -> list:
    """sha256 of each table's to_json() at k = 1..50, None where it raises
    DomainError."""
    out = []
    for k in KS:
        try:
            table = METHODS[constant][method][2](k)
        except DomainError:
            out.append(None)
        else:
            out.append(hashlib.sha256(table.to_json().encode()).hexdigest())
    return out


def moved(constant: str, method: str, pinned: dict) -> list:
    """The ks at which the table differs from its pin."""
    return [k for k, old, new in zip(KS, pinned[constant][method], digests(constant, method))
            if old != new]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_method(golden):
    assert sorted((c, m) for c in golden for m in golden[c]) == sorted(PAIRS)
    assert sum(d is not None for c in golden for m in golden[c] for d in golden[c][m]) == 884


@pytest.mark.parametrize("constant, method", PAIRS)
def test_tables_are_pinned(constant, method, golden):
    assert moved(constant, method, golden) == [], f"{constant} {method}: these k moved"


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if sys.argv[1:] == ["--diff"]:
        changed = [(c, m, k) for c, m in PAIRS if m in pinned.get(c, {})
                   for k in moved(c, m, pinned)]
        for c, m, k in changed:
            print(f"{c} {m} k={k}")
        sys.exit(1 if changed else 0)
    else:
        for c, m in PAIRS:
            pinned.setdefault(c, {}).setdefault(m, digests(c, m))
        GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
