"""Byte-for-byte pins of `coeffs` output, debug payloads included.

Each file under golden/ is what the CLI printed for a table that exercises
one corner of the exact number field: Gaussian debug strings (p2), sqrt(2)
factors that cancel again (root7, root7_p), sqrt(105) (prop_pi3_fast) and
the negative-nome rewrite (p3).
"""

from pathlib import Path

import pytest

from zetaodd import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "p2_k1.json": "coeffs --constant zeta --method p2 --k 1",
    "root7_k1.json": "coeffs --constant zeta --method root7 --k 1",
    "root7_p_k1.json": "coeffs --constant zeta --method root7_p --k 1",
    "prop_pi3_fast_k1.json": "coeffs --constant pi --method prop_pi3_fast --power 3",
    "p3_k1_rewritten.json": "coeffs --constant zeta --method p3 --k 1 --rewrite-positive-q",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_coeffs_output_is_pinned(name, capsys):
    assert cli.main(CASES[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
