"""End-to-end runs of the command line interface.

Each test invokes main() with an explicit argv and reads the JSON report
back through --out, the same way a shell user would.  One test goes through
a real subprocess to pin down the stdout/stderr split.
"""

import json
import subprocess
import sys
from importlib import resources

import pytest

from grothloc.cli import main

CORPUS = resources.files("grothloc") / "corpus"
ZMOD5 = '{"kind": "Zmod", "n": 5}'
ZMOD12 = '{"kind": "Zmod", "n": 12}'


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture
def free1(tmp_path):
    p = tmp_path / "free1.json"
    p.write_text('{"kind": "free", "rank": 1}', encoding="utf-8")
    return str(p)


class TestMonoidCheck:
    def test_semilattice_report(self, tmp_path):
        code, rep = run(tmp_path, "monoid", "check", str(CORPUS / "t2.json"))
        assert code == 0
        assert rep["command"] == "monoid check"
        assert rep["ok"] is True
        assert rep["results"]["axioms_ok"] is True
        assert rep["results"]["cancellative"] is False
        assert rep["results"]["quasi_zero_size"] == 2
        assert rep["results"]["groth_trivial"] is True

    def test_axiom_violation_exits_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "kind": "cayley",
                    "size": 2,
                    "identity": 0,
                    "table": [[0, 1], [0, 0]],
                }
            ),
            encoding="utf-8",
        )
        code, rep = run(tmp_path, "monoid", "check", str(bad))
        assert code == 3
        assert rep["error"] == "axiom-violation"
        assert rep["law"]
        assert isinstance(rep["witness"], list)

    def test_missing_file_exits_two(self, tmp_path):
        code, rep = run(tmp_path, "monoid", "check", str(tmp_path / "no.json"))
        assert code == 2
        assert rep["error"] == "InvalidInputError"

    def test_malformed_json_file_exits_two(self, tmp_path):
        bad = tmp_path / "trail.json"
        bad.write_text('{"kind": "free",', encoding="utf-8")
        code, rep = run(tmp_path, "monoid", "check", str(bad))
        assert code == 2


class TestGrothCompute:
    def test_free_rank_two(self, tmp_path):
        code, rep = run(
            tmp_path, "groth", "compute", "--monoid", str(CORPUS / "free2.json")
        )
        assert code == 0
        assert rep["results"] == {"free_rank": 2, "torsion": []}

    def test_numerical_semigroup_fills_in(self, tmp_path):
        code, rep = run(
            tmp_path, "groth", "compute", "--monoid", str(CORPUS / "numsg_2_3.json")
        )
        assert code == 0
        assert rep["results"] == {"free_rank": 1, "torsion": []}

    def test_finite_table(self, tmp_path):
        code, rep = run(
            tmp_path, "groth", "compute", "--monoid", str(CORPUS / "z4.json")
        )
        assert code == 0
        assert rep["results"] == {"free_rank": 0, "torsion": [4]}


class TestGrothOrder:
    def test_certificate_for_numerical_semigroup(self, tmp_path):
        code, rep = run(
            tmp_path,
            "groth", "order", "--monoid", str(CORPUS / "numsg_2_3.json"),
            "--samples", "150",
        )
        assert code == 0
        assert rep["results"]["orderable"] is True
        cert = rep["results"]["certificate"]
        assert cert["free_positions"]
        assert cert["column_transform"]
        assert rep["checks"] == {
            "sampled_compatible": True,
            "sampled_total": True,
            "sampled_transitive": True,
        }

    def test_torsion_witness_reported(self, tmp_path):
        pres = tmp_path / "ncz2.json"
        pres.write_text(
            json.dumps(
                {
                    "kind": "presentation",
                    "generators": 2,
                    "relations": [[[0, 2], [0, 0]]],
                }
            ),
            encoding="utf-8",
        )
        code, rep = run(tmp_path, "groth", "order", "--monoid", str(pres))
        assert code == 0
        assert rep["results"]["orderable"] is False
        assert rep["results"]["torsion_order"] == 2
        assert rep["results"]["torsion_witness"]

    def test_cayley_input_rejected(self, tmp_path):
        code, rep = run(
            tmp_path, "groth", "order", "--monoid", str(CORPUS / "t2.json")
        )
        assert code == 2


class TestMringNzd:
    def test_sweep_finds_the_collapsing_monomial(self, tmp_path):
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", '{"kind": "Zmod", "n": 2}',
            "--monoid", str(CORPUS / "t2.json"),
        )
        assert code == 0
        assert rep["results"]["all_nonzerodivisors"] is False
        assert rep["results"]["zerodivisor_degrees"] == [1]
        assert rep["checks"]["matches_cancellativity"] is True

    def test_sweep_on_a_group(self, tmp_path):
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", '{"kind": "Zmod", "n": 5}',
            "--monoid", str(CORPUS / "z4.json"),
        )
        assert code == 0
        assert rep["results"]["all_nonzerodivisors"] is True
        assert rep["results"]["zerodivisor_degrees"] == []

    def test_single_degree_query(self, tmp_path):
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", '{"kind": "Zmod", "n": 2}',
            "--monoid", str(CORPUS / "t2.json"),
            "--degree", "1",
        )
        assert code == 0
        assert rep["results"] == {"degree": 1, "nonzerodivisor": False}


class TestLocalizeDecompose:
    def test_rank_one_components_carry_integer_degrees(self, tmp_path, free1):
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", ZMOD5,
            "--monoid", free1,
            "--sgens", "[[[1, [1]]]]",
            "--fraction",
            '{"num": [[1, [2]], [2, [1]], [3, [0]]], "den_witness": [0]}',
        )
        assert code == 0
        comps = rep["results"]["components"]
        assert len(comps) == 3
        assert sorted(c["degree"] for c in comps.values()) == [-1, 0, 1]
        assert rep["checks"]["sum_back"] is True
        assert rep["checks"]["keys_pairwise_distinct"] is True
        assert rep["checks"]["idempotent"] is True

    def test_component_keys_are_difference_pairs(self, tmp_path, free1):
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", ZMOD5,
            "--monoid", free1,
            "--sgens", "[[[1, [1]]]]",
            "--fraction", '{"num": [[3, [0]]], "den_witness": [0]}',
        )
        assert code == 0
        (key,) = rep["results"]["components"]
        assert json.loads(key) == [[0], [1]]
        assert rep["results"]["components"][key]["degree"] == -1

    def test_witness_out_of_range_rejected(self, tmp_path, free1):
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", ZMOD5,
            "--monoid", free1,
            "--sgens", "[[[1, [1]]]]",
            "--fraction", '{"num": [[1, [0]]], "den_witness": [7]}',
        )
        assert code == 2


class TestLocalizeUnits:
    def test_idempotent_generator_over_z12(self, tmp_path):
        code, rep = run(
            tmp_path, "localize", "units", "--ring", ZMOD12, "--sgens", "[4]"
        )
        assert code == 0
        res = rep["results"]
        assert res["units"] == 2
        assert res["groth_order"] == 2
        assert res["iso"] is True
        assert res["closure_size"] == 2
        assert res["saturation_size"] == 8
        assert rep["checks"]["embedding_morphism"] is True
        assert rep["checks"]["embedding_injective"] is True

    def test_unit_generators_over_z12(self, tmp_path):
        code, rep = run(
            tmp_path,
            "localize", "units", "--ring", ZMOD12, "--sgens", "[5, 7, 11]",
        )
        assert code == 0
        assert rep["results"]["units"] == 4
        assert rep["results"]["groth_order"] == 4
        assert rep["results"]["iso"] is True

    def test_integer_base_rejected(self, tmp_path):
        code, rep = run(
            tmp_path,
            "localize", "units", "--ring", '{"kind": "Z"}', "--sgens", "[2]",
        )
        assert code == 2


class TestIsoCommands:
    def test_verify_line_over_mod5(self, tmp_path, free1):
        code, rep = run(
            tmp_path,
            "iso", "verify",
            "--ring", ZMOD5,
            "--monoid", free1,
            "--sgens", "[]",
            "--samples", "40",
        )
        assert code == 0
        assert rep["results"]["samples"] == 40
        assert rep["results"]["hom_ok"] is True
        assert rep["results"]["injective_ok"] is True
        assert rep["results"]["roundtrip_ok"] is True
        assert rep["checks"]["all_ok"] is True

    def test_laurent_rank_one(self, tmp_path):
        code, rep = run(
            tmp_path,
            "iso", "laurent", "--ring", ZMOD5, "--rank", "1", "--samples", "40",
        )
        assert code == 0
        assert rep["results"]["rank"] == 1
        assert rep["ok"] is True

    def test_bad_inline_json_exits_two(self, tmp_path):
        code, rep = run(
            tmp_path, "iso", "laurent", "--ring", "{oops", "--rank", "1"
        )
        assert code == 2
        assert rep["error"] == "InvalidInputError"


class TestCorpusRun:
    def test_packaged_corpus_passes(self, tmp_path):
        code, rep = run(tmp_path, "corpus", "run")
        assert code == 0
        assert rep["results"]["total"] == rep["results"]["passed"]
        assert rep["results"]["total"] >= 19
        names = [row["name"] for row in rep["results"]["entries"]]
        assert names == sorted(names)

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["corpus", "run", "--seed", "0", "--out", str(a)]) == 0
        assert main(["corpus", "run", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_expectation_exits_one(self, tmp_path):
        doc = {
            "entries": [
                {
                    "name": "t2-wrong",
                    "kind": "monoid",
                    "monoid": {
                        "kind": "cayley",
                        "size": 2,
                        "identity": 0,
                        "table": [[0, 1], [1, 1]],
                    },
                    "expected": {"quasi_zero_size": 5},
                }
            ]
        }
        (tmp_path / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 1
        assert rep["ok"] is False
        row = rep["results"]["entries"][0]
        assert row["ok"] is False
        assert row["actual"]["quasi_zero_size"] == 2


    def test_missing_dir_exits_two(self, tmp_path):
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path / "missing"))
        assert code == 2
        assert rep["error"] == "InvalidInputError"

    @pytest.mark.parametrize("doc", [
        {"entries": [{"name": "x"}]},
        {"entries": [{"kind": "monoid", "expected": {}}]},
        [1, 2],
    ], ids=["entry-without-kind", "entry-without-name", "top-level-list"])
    def test_malformed_corpus_file_exits_two(self, tmp_path, doc):
        (tmp_path / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 2
        assert rep["error"] == "InvalidInputError"

    @pytest.mark.parametrize("kind, field", [
        ("monoid", "monoid"),
        ("groth", "monoid"),
        ("localize_units", "ring"),
        ("localize_units", "sgens"),
        ("one_plus_ideal", "ring"),
        ("one_plus_ideal", "ideal_gens"),
        ("iso_verify", "ring"),
        ("iso_verify", "monoid"),
        ("iso_laurent", "ring"),
        ("iso_laurent", "rank"),
    ])
    def test_entry_without_its_kind_field_exits_two(self, tmp_path, kind, field):
        entry = {
            "name": "x", "kind": kind, "expected": {},
            "monoid": {"kind": "free", "rank": 1},
            "ring": {"kind": "Zmod", "n": 5},
            "sgens": [], "ideal_gens": [], "rank": 1,
        }
        del entry[field]
        doc = {"entries": [entry]}
        (tmp_path / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 2
        assert rep["error"] == "InvalidInputError"
        assert repr(field) in rep["detail"]

    @pytest.mark.parametrize("kind", ["nope", ["monoid"]])
    def test_unknown_entry_kind_exits_two(self, tmp_path, kind):
        doc = {"entries": [{"name": "x", "kind": kind, "expected": {}}]}
        (tmp_path / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 2
        assert rep["error"] == "InvalidInputError"

    def test_float_table_in_monoid_file_exits_two(self, tmp_path):
        bad = tmp_path / "float.json"
        bad.write_text('{"kind": "cayley", "table": [[0, 1.7], [1.2, 1]]}', encoding="utf-8")
        code, rep = run(tmp_path, "monoid", "check", str(bad))
        assert code == 2
        assert rep["error"] == "InvalidInputError"


@pytest.mark.parametrize("relations", [
    [[[True, 0], [0, 1]]],
    [[[1.0, 0], [0, 1]]],
    [[["1", 0], [0, 1]]],
], ids=["bool", "float", "string"])
def test_non_integer_presentation_word_exits_two(tmp_path, relations):
    p = tmp_path / "pres.json"
    doc = {"kind": "presentation", "generators": 2, "relations": relations}
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = run(tmp_path, "groth", "compute", "--monoid", str(p))
    assert code == 2
    assert rep["error"] == "InvalidInputError"


@pytest.mark.parametrize("modulus", [5.5, "7", True, None], ids=["float", "string", "bool", "null"])
def test_non_integer_modulus_exits_two(tmp_path, modulus):
    ring = json.dumps({"kind": "Zmod", "n": modulus})
    code, rep = run(tmp_path, "iso", "laurent", "--ring", ring, "--rank", "1", "--samples", "5")
    assert code == 2
    assert rep["error"] == "InvalidInputError"


@pytest.mark.parametrize("kind", ["free", "lattice"])
@pytest.mark.parametrize("rank", [True, 1.0, "1", None])
def test_non_integer_rank_exits_two(tmp_path, kind, rank):
    p = tmp_path / "tuple.json"
    p.write_text(json.dumps({"kind": kind, "rank": rank}), encoding="utf-8")
    code, rep = run(tmp_path, "groth", "compute", "--monoid", str(p))
    assert code == 2
    assert rep["error"] == "InvalidInputError"


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = main(["groth", "compute", "--monoid", str(CORPUS / "t2.json"), "--out", str(target)])
    assert code == 2
    assert not target.exists()
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "groth compute"
    assert rep["error"] == "InvalidInputError"


class TestReportEnvelope:
    def test_digest_is_stable_across_runs(self, tmp_path):
        _, rep1 = run(tmp_path, "groth", "compute",
                      "--monoid", str(CORPUS / "free2.json"), name="r1.json")
        _, rep2 = run(tmp_path, "groth", "compute",
                      "--monoid", str(CORPUS / "free2.json"), name="r2.json")
        assert rep1["inputs_sha256"] == rep2["inputs_sha256"]

    def test_digest_tracks_the_seed(self, tmp_path):
        _, rep1 = run(tmp_path, "groth", "compute",
                      "--monoid", str(CORPUS / "free2.json"),
                      "--seed", "0", name="r1.json")
        _, rep2 = run(tmp_path, "groth", "compute",
                      "--monoid", str(CORPUS / "free2.json"),
                      "--seed", "1", name="r2.json")
        assert rep1["inputs_sha256"] != rep2["inputs_sha256"]
        assert rep2["seed"] == 1

    def test_every_report_names_its_command(self, tmp_path):
        _, rep = run(tmp_path, "corpus", "run")
        assert rep["command"] == "corpus run"
        assert "checks" in rep


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["monoid", "frobnicate"]) == 64

    def test_missing_required_argument(self):
        assert main(["groth", "compute"]) == 64

    def test_no_arguments_at_all(self):
        assert main([]) == 64


def test_subprocess_keeps_stdout_pure_json(tmp_path):
    """The report goes to stdout, timing chatter to stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "grothloc", "corpus", "run", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["ok"] is True
    assert "elapsed_ms=" in proc.stderr
