"""Report bytes pinned against fixtures captured before the localization key.

The fixtures in tests/golden/ are the stdout of ``corpus run --seed 7`` and
of ``localize units`` on three Z/n inputs, written by the scan-based unit
enumeration that ``LocalizedRing.key`` replaced.  The ``iso verify``,
``iso laurent`` and ``localize decompose`` fixtures were written while
monoid-ring coefficients went through the coefficient ring's methods term by
term and ``Lcg64.below`` took two calls per draw; they pin the sampling
stream of the batteries.  The two ``iso verify`` fixtures over finite
monoids (T2 over Z/3, multiplication mod 6 over Z/5) were written while
``h_forward`` handed a pair list to ``GroupRing.from_terms``; they pin the
finite battery's draws and its ``kernel_zero_hits``.  Every byte must match.
"""
from pathlib import Path

import pytest

from grothloc.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(__file__).parents[1] / "src" / "grothloc" / "corpus"
FREE2 = str(CORPUS / "free2.json")

CASES = [
    ("corpus_run_seed7.json", ["corpus", "run", "--seed", "7"]),
    ("localize_units_z12_4.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":12}', "--sgens", "[4]"]),
    ("localize_units_z120_2.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":120}', "--sgens", "[2]"]),
    ("localize_units_z120_6_5.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":120}', "--sgens", "[6,5]"]),
    ("iso_verify_free2_z7_3.json",
     ["iso", "verify", "--ring", '{"kind":"Zmod","n":7}', "--monoid", FREE2,
      "--sgens", "[3]", "--samples", "80", "--seed", "5"]),
    ("iso_verify_t2_z3_2.json",
     ["iso", "verify", "--ring", '{"kind":"Zmod","n":3}', "--monoid", str(CORPUS / "t2.json"),
      "--sgens", "[2]", "--samples", "80", "--seed", "5"]),
    ("iso_verify_z6_mult_z5_2.json",
     ["iso", "verify", "--ring", '{"kind":"Zmod","n":5}', "--monoid", str(CORPUS / "z6_mult.json"),
      "--sgens", "[2]", "--samples", "80", "--seed", "5"]),
    ("iso_laurent_z_rank2.json",
     ["iso", "laurent", "--ring", '{"kind":"Z"}', "--rank", "2", "--samples", "80"]),
    ("iso_laurent_z5_rank3.json",
     ["iso", "laurent", "--ring", '{"kind":"Zmod","n":5}', "--rank", "3", "--samples", "80"]),
    ("localize_decompose_z6_free2.json",
     ["localize", "decompose", "--ring", '{"kind":"Zmod","n":6}', "--monoid", FREE2,
      "--sgens", "[[[5,[1,0]]]]",
      "--fraction", '{"num":[[1,[2,0]],[2,[0,1]],[3,[0,0]]],"den_witness":[0]}']),
]


@pytest.mark.parametrize("fixture,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_fixture(tmp_path, fixture, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()
