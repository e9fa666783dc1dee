"""Report bytes pinned against fixtures captured before the localization key.

The fixtures in tests/golden/ are the stdout of ``corpus run --seed 7`` and
of ``localize units`` on three Z/n inputs, written by the scan-based unit
enumeration that ``LocalizedRing.key`` replaced.  Every byte must match.
"""
from pathlib import Path

import pytest

from grothloc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("corpus_run_seed7.json", ["corpus", "run", "--seed", "7"]),
    ("localize_units_z12_4.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":12}', "--sgens", "[4]"]),
    ("localize_units_z120_2.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":120}', "--sgens", "[2]"]),
    ("localize_units_z120_6_5.json",
     ["localize", "units", "--ring", '{"kind":"Zmod","n":120}', "--sgens", "[6,5]"]),
]


@pytest.mark.parametrize("fixture,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_fixture(tmp_path, fixture, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()
