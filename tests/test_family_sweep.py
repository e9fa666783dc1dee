"""Family-facing command bytes pinned over every monoid family.

Six commands that ask a monoid about itself (cancellativity, quasi-zeros,
G(M), its total order, zero-divisors of R[M], graded components and the
graded isomorphism) run on each packaged monoid file and on two sums nested
in sums.  ``tests/golden/family_sweep.json`` holds, per run, the stdout
text and the exit code, captured before the family questions moved from
module-level dispatchers onto the monoid classes; refusals (exit 2) are
pinned with their ``detail`` strings.  One row was re-pinned since:
``groth order numsg_2_3`` now carries ``"cancellative": null``, because a
presentation's cancellativity is not decided and ``orderable`` is about
G(M) only.
"""
import json
from pathlib import Path

import pytest

from grothloc.cli import main

GOLDEN = Path(__file__).parent / "golden" / "family_sweep.json"
CORPUS = Path(__file__).parents[1] / "src" / "grothloc" / "corpus"
ZMOD5 = '{"kind":"Zmod","n":5}'

T2 = {"kind": "cayley", "table": [[0, 1], [1, 1]]}
Z3_MULT = {"kind": "cayley", "identity": 1, "table": [[i * j % 3 for j in range(3)] for i in range(3)]}
Z3_ADD = {"kind": "cayley", "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]}
N = {"kind": "free", "rank": 1}


def _sum(*components):
    return {"kind": "direct_sum", "components": list(components)}


NESTED = {
    "t2_sum_z3mult_n": _sum(T2, _sum(Z3_MULT, N)),
    "t2_sum_z3mult_z3add": _sum(T2, _sum(Z3_MULT, Z3_ADD)),
}
MONOIDS = ["free2", "numsg_2_3", "t2", "z4", "z6_mult", *NESTED]

COMMANDS = {
    "monoid check": lambda path: ["monoid", "check", path],
    "groth compute": lambda path: ["groth", "compute", "--monoid", path],
    "groth order": lambda path: ["groth", "order", "--monoid", path, "--samples", "50"],
    "mring nzd": lambda path: ["mring", "nzd", "--ring", ZMOD5, "--monoid", path],
    "localize decompose": lambda path: [
        "localize", "decompose", "--ring", ZMOD5, "--monoid", path, "--sgens", "[]",
        "--fraction", '{"num":[],"den_witness":[]}'],
    "iso verify": lambda path: [
        "iso", "verify", "--ring", ZMOD5, "--monoid", path, "--sgens", "[2]",
        "--samples", "20"],
}

CASES = [f"{command} {name}" for command in COMMANDS for name in MONOIDS]


def monoid_path(tmp_path, name: str) -> str:
    if name in NESTED:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(NESTED[name]), encoding="utf-8")
        return str(path)
    return str(CORPUS / f"{name}.json")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_and_exit_code_match_fixture(tmp_path, capsys, golden, case):
    command, name = case.rsplit(" ", 1)
    code = main(COMMANDS[command](monoid_path(tmp_path, name)))
    assert (code, capsys.readouterr().out.encode()) == (golden[case]["exit"], golden[case]["stdout"].encode())
