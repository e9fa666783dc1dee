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

from grothloc import cli
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


@pytest.fixture
def t2_plus_n(tmp_path):
    p = tmp_path / "t2_plus_n.json"
    p.write_text(json.dumps({"kind": "direct_sum", "components": [
        {"kind": "cayley", "table": [[0, 1], [1, 1]]}, {"kind": "free", "rank": 1},
    ]}), encoding="utf-8")
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

    @pytest.mark.parametrize("doc, trivial", [
        ({"kind": "lattice", "rank": 0}, True),
        ({"kind": "lattice", "rank": 2}, False),
        ({"kind": "direct_sum", "components": [
            {"kind": "cayley", "table": [[0, 1], [1, 1]]},
            {"kind": "free", "rank": 1},
        ]}, False),
    ], ids=["lattice0", "lattice2", "t2_plus_n"])
    def test_groth_trivial_for_infinite_families(self, tmp_path, doc, trivial):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, rep = run(tmp_path, "monoid", "check", str(p))
        assert code == 0
        assert rep["results"]["groth_trivial"] is trivial

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

    def test_one_elimination_for_structure_and_group(self, tmp_path, monkeypatch):
        from grothloc import grothendieck

        calls = []
        honest = grothendieck._eliminate

        def spy(*args, **kwargs):
            calls.append(args)
            return honest(*args, **kwargs)

        # the elimination core, behind smith_normal_form and MonoidPresentation.snf
        monkeypatch.setattr(grothendieck, "_eliminate", spy)
        code, rep = run(
            tmp_path, "groth", "order", "--monoid", str(CORPUS / "numsg_2_3.json"),
            "--samples", "20",
        )
        assert code == 0 and rep["results"]["orderable"] is True
        assert len(calls) == 1

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
        assert rep["results"]["cancellative"] is None

    def test_presentation_leaves_cancellativity_open(self, tmp_path):
        """<a, b | a + b = b> has G(M) = Z, so G(M) is ordered; but
        a + b = 0 + b with a != 0, so M does not cancel and has no compatible
        order.  Cancellativity of a presentation is not decided, and the
        report says so next to ``orderable`` instead of implying it."""
        pres = tmp_path / "absorbed.json"
        pres.write_text(json.dumps({"kind": "presentation", "generators": 2,
                                    "relations": [[[1, 1], [0, 1]]]}), encoding="utf-8")
        code, rep = run(tmp_path, "groth", "order", "--monoid", str(pres))
        assert code == 0 and rep["ok"] is True
        assert rep["results"]["orderable"] is True
        assert rep["results"]["cancellative"] is None
        assert rep["results"]["structure"] == {"free_rank": 1, "torsion": []}

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_lattice_orders_like_free(self, tmp_path, rank):
        # G(Z^k) = G(N^k) = Z^k, so both read as k generators, no relations
        reports = []
        for kind in ("lattice", "free"):
            p = tmp_path / f"{kind}.json"
            p.write_text(json.dumps({"kind": kind, "rank": rank}), encoding="utf-8")
            code, rep = run(tmp_path, "groth", "order", "--monoid", str(p),
                            "--samples", "60", name=f"{kind}.out.json")
            assert code == 0
            reports.append(rep)
        lattice, free = reports
        assert lattice["results"] == free["results"]
        assert lattice["checks"] == free["checks"]
        assert lattice["results"]["structure"] == {"free_rank": rank, "torsion": []}
        assert all(lattice["checks"].values())
        assert "cancellative" not in lattice["results"]  # decided: both cancel

    def test_cayley_input_rejected(self, tmp_path, t2_plus_n):
        for monoid in (str(CORPUS / "t2.json"), t2_plus_n):
            code, rep = run(tmp_path, "groth", "order", "--monoid", monoid)
            assert code == 2
            assert rep["error"] == "InvalidInputError"
            assert rep["detail"] == (
                "total orders are built from presentation, free or lattice descriptions"
            )


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

    def test_integer_coefficients(self, tmp_path):
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", '{"kind": "Z"}',
            "--monoid", str(CORPUS / "t2.json"),
        )
        assert code == 0
        assert rep["results"]["zerodivisor_degrees"] == [1]
        assert rep["checks"]["matches_cancellativity"] is True

    @pytest.mark.parametrize("degree, flag", [
        ("[0, [1]]", True), ("[1, [0]]", False),
    ], ids=["t2_identity", "t2_absorbing"])
    def test_nested_degree_over_t2_plus_n(self, tmp_path, t2_plus_n, degree, flag):
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", ZMOD5,
            "--monoid", t2_plus_n,
            "--degree", degree,
        )
        assert code == 0
        assert rep["results"] == {"degree": json.loads(degree), "nonzerodivisor": flag}


    def test_identity_degree_of_a_presentation(self, tmp_path):
        """The identity's translation is injective even where cancellativity
        is not decided, as on the numerical semigroup <2, 3>."""
        code, rep = run(
            tmp_path,
            "mring", "nzd",
            "--ring", ZMOD5,
            "--monoid", str(CORPUS / "numsg_2_3.json"),
            "--degree", "[0, 0]",
        )
        assert code == 0
        assert rep["results"] == {"degree": [0, 0], "nonzerodivisor": True}


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

    def test_zero_denominator_has_no_components(self, tmp_path):
        """(2 eps_0)^2 = 0 over Z/4: a zero ring, so nothing survives."""
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", '{"kind": "Zmod", "n": 4}',
            "--monoid", str(CORPUS / "t2.json"),
            "--sgens", "[[[2, 0]]]",
            "--fraction", '{"num": [[1, 1], [3, 0]], "den_witness": [0, 0]}',
        )
        assert code == 0
        assert rep["results"] == {"component_count": 0, "components": {}}
        assert all(rep["checks"].values())

    def test_monomial_denominator_over_t2_plus_n(self, tmp_path, t2_plus_n):
        """eps(0, [1]) is a non-zero-divisor: translation by it is injective."""
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", ZMOD5,
            "--monoid", t2_plus_n,
            "--sgens", "[[[1, [0, [1]]]]]",
            "--fraction",
            '{"num": [[1, [0, [2]]], [2, [1, [2]]], [3, [1, [0]]]], "den_witness": [0]}',
        )
        assert code == 0
        assert rep["results"]["component_count"] == 2
        assert all(rep["checks"].values())

    def test_unit_scalar_monomial_over_z6(self, tmp_path):
        """5 is a unit of Z/6, so 5*eps(1, 0) is a non-zero-divisor of (Z/6)[N^2]."""
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", '{"kind": "Zmod", "n": 6}',
            "--monoid", str(CORPUS / "free2.json"),
            "--sgens", "[[[5, [1, 0]]]]",
            "--fraction",
            '{"num": [[1, [2, 0]], [2, [0, 1]], [3, [0, 0]]], "den_witness": [0]}',
        )
        assert code == 0
        assert rep["results"]["component_count"] == 3
        assert all(rep["checks"].values())

    def test_zero_divisor_scalar_over_z6_exits_two(self, tmp_path):
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", '{"kind": "Zmod", "n": 6}',
            "--monoid", str(CORPUS / "free2.json"),
            "--sgens", "[[[2, [1, 0]]]]",
            "--fraction", '{"num": [[1, [2, 0]]], "den_witness": [0]}',
        )
        assert code == 2
        assert rep["error"] == "UndecidableConfigurationError"

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


    @pytest.mark.parametrize("sgens, fraction", [
        ("5", '{"num": [[1, [0]]], "den_witness": [0]}'),
        ("[[[1, [1]]]]", '{"num": [[1, [0]]], "den_witness": 5}'),
        ("[[[1, [1]]], [[1, [1]]]]", '{"num": [[1, [0]]], "den_witness": [true]}'),
        ("[[[1, [1]]]]", '{"num": [[1, [0]]], "den_witness": [0.0]}'),
    ], ids=["sgens-not-a-list", "witness-not-a-list", "bool-index", "float-index"])
    def test_malformed_input_exits_two(self, tmp_path, free1, sgens, fraction):
        code, rep = run(
            tmp_path,
            "localize", "decompose",
            "--ring", ZMOD5,
            "--monoid", free1,
            "--sgens", sgens,
            "--fraction", fraction,
        )
        assert code == 2
        assert rep["error"] == "InvalidInputError"


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
    @pytest.mark.parametrize("fixture", ["t2.json", "z4.json", "z6_mult.json"])
    @pytest.mark.parametrize("n,sgens", [(4, "[2]"), (8, "[2,3]")])
    def test_verify_with_a_nilpotent_generator(self, tmp_path, fixture, n, sgens):
        """2 is nilpotent mod 4 and mod 8, so 0 is in S and in T and both
        sides are the zero ring: every image is 0, every kernel draw a hit."""
        code, rep = run(tmp_path, "iso", "verify",
                        "--ring", json.dumps({"kind": "Zmod", "n": n}),
                        "--monoid", str(CORPUS / fixture), "--sgens", sgens,
                        "--samples", "30")
        assert code == 0 and rep["ok"] is True
        assert rep["results"]["kernel_zero_hits"] == 30

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

    def test_verify_at_depth_two(self, tmp_path, free1):
        """The sampler's fractions are products of up to two S generators
        (depth two, fixed now that ``--depth`` is gone); over Z at [2] on N
        each is built from its own witness and the round trip holds."""
        code, rep = run(
            tmp_path,
            "iso", "verify",
            "--ring", '{"kind": "Z"}',
            "--monoid", free1,
            "--sgens", "[2]",
        )
        assert code == 0
        assert rep["checks"]["all_ok"] is True

    def test_large_prime_modulus(self, tmp_path):
        """Z/(2^61 - 1): building the ring runs no primality test."""
        ring = json.dumps({"kind": "Zmod", "n": 2**61 - 1})
        code, rep = run(tmp_path, "iso", "verify", "--ring", ring,
                        "--monoid", str(CORPUS / "free2.json"), "--sgens", "[3]",
                        "--samples", "20")
        assert code == 0 and rep["ok"] is True
        code, rep = run(tmp_path, "iso", "laurent", "--ring", ring, "--rank", "3",
                        "--samples", "20")
        assert code == 0 and rep["ok"] is True

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_verify_below_the_sampled_powers(self, tmp_path, seed):
        """The sampler draws products of up to two S generators and carries
        their witnesses, so over Z at [2] every fraction it draws is built
        with no closure of S, whatever the seed."""
        code, rep = run(
            tmp_path,
            "iso", "verify",
            "--ring", '{"kind": "Z"}',
            "--monoid", str(CORPUS / "free2.json"),
            "--sgens", "[2]",
            "--seed", seed,
        )
        assert code == 0
        assert rep["checks"]["all_ok"] is True

    @pytest.mark.parametrize("argv", [
        ("iso", "verify", "--ring", '{"kind": "Z"}', "--monoid", str(CORPUS / "free2.json"),
         "--sgens", "[2]", "--samples", "40"),
        ("localize", "decompose", "--ring", ZMOD5, "--monoid", str(CORPUS / "free2.json"),
         "--sgens", "[[[1, [1, 0]]]]",
         "--fraction", '{"num": [[1, [2, 0]], [3, [0, 1]]], "den_witness": [0, 0]}'),
    ], ids=["iso_verify", "localize_decompose"])
    def test_depth_is_a_usage_error(self, tmp_path, capsys, argv):
        """``--depth`` is gone from every subcommand: passing it exits 64 and
        writes no report.  Its former default 8 stays in ``inputs_sha256``,
        so a run without it keeps its digest (the golden reports pin it)."""
        out = tmp_path / "report.json"
        for depth in ("0", "8"):
            assert main([*argv, "--depth", depth, "--out", str(out)]) == 64
            assert "unrecognized arguments: --depth" in capsys.readouterr().err
        assert not out.exists()
        code, rep = run(tmp_path, *argv)
        assert code == 0 and rep["ok"] is True

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

    @pytest.mark.parametrize("kind, fields", [
        ("one_plus_ideal", {"ring": {"kind": "Zmod", "n": 12}, "ideal_gens": [4]}),
        ("kx", {"modulus": 3, "samples": 5}),
        ("iso_verify", {"ring": {"kind": "Zmod", "n": 5},
                        "monoid": {"kind": "free", "rank": 1}, "samples": 5}),
        ("iso_laurent", {"ring": {"kind": "Zmod", "n": 5}, "rank": 1, "samples": 5}),
    ])
    def test_expected_key_missing_from_report_exits_one(self, tmp_path, kind, fields):
        entry = {"name": "x", "kind": kind, "expected": {"nonsense": 1}, **fields}
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 1
        assert "error" not in rep
        row = rep["results"]["entries"][0]
        assert row["ok"] is False
        assert row["actual"] == {}

    def test_iso_verify_entry_over_z_matches_the_command(self, tmp_path):
        """Over Z at [2] the entry, like ``iso verify`` in
        ``test_verify_below_the_sampled_powers``, compares fractions by
        cross-multiplication."""
        monoid = json.loads((CORPUS / "free2.json").read_text(encoding="utf-8"))
        entry = {"name": "z_at_2", "kind": "iso_verify", "ring": {"kind": "Z"},
                 "monoid": monoid, "sgens": [2], "samples": 20,
                 "expected": {"all_ok": True}}
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 0
        assert rep["results"]["entries"][0]["actual"] == {"all_ok": True}

    def test_iso_verify_entry_with_zero_generator_over_z_exits_two(self, tmp_path):
        entry = {"name": "z_at_0", "kind": "iso_verify", "ring": {"kind": "Z"},
                 "monoid": {"kind": "free", "rank": 1}, "sgens": [0],
                 "expected": {"all_ok": True}}
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 2
        assert rep["error"] == "InvalidInputError"

    @pytest.mark.parametrize("modulus", [4, 6])
    def test_kx_entry_needs_a_prime_modulus(self, tmp_path, modulus):
        entry = {"name": "kx", "kind": "kx", "modulus": modulus, "samples": 5,
                 "expected": {"x_in_s": False}}
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, rep = run(tmp_path, "corpus", "run", "--dir", str(tmp_path))
        assert code == 2
        assert rep["error"] == "InvalidInputError"
        assert rep["detail"] == f"K[x] needs a prime modulus, got {modulus}"

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

    @pytest.mark.parametrize("kind, field, value", [
        ("localize_units", "sgens", 5),
        ("iso_verify", "sgens", 5),
        ("one_plus_ideal", "ideal_gens", 5),
        ("iso_laurent", "samples", "x"),
        ("kx", "modulus", True),
        ("iso_laurent", "rank", 1.0),
    ])
    def test_entry_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, kind, field, value):
        entry = {
            "name": "x", "kind": kind, "expected": {},
            "monoid": {"kind": "free", "rank": 1},
            "ring": {"kind": "Zmod", "n": 5},
            "sgens": [], "ideal_gens": [], "rank": 1,
        }
        entry[field] = value
        (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        assert main(["corpus", "run", "--dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert rep["error"] == "InvalidInputError"
        assert field in rep["detail"]
        assert "Traceback" not in err

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


@pytest.mark.parametrize("argv", [
    ["iso", "laurent", "--ring", '{"kind": "Z"}', "--rank", "1", "--samples", "-3"],
    ["groth", "order", "--monoid", str(CORPUS / "numsg_2_3.json"), "--samples", "-2"],
    ["monoid", "check", str(CORPUS / "t2.json"), "--samples", "-1"],
], ids=["laurent_samples", "order_samples", "check_samples"])
def test_negative_count_exits_two(tmp_path, argv):
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert rep["error"] == "InvalidInputError"
    assert "nonnegative" in rep["detail"]


def test_negative_corpus_samples_exits_two(tmp_path, capsys):
    entry = {"name": "x", "kind": "iso_laurent", "expected": {"all_ok": True},
             "ring": {"kind": "Z"}, "rank": 1, "samples": -3}
    (tmp_path / "corpus.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    assert main(["corpus", "run", "--dir", str(tmp_path)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == "InvalidInputError"
    assert "samples must be nonnegative" in rep["detail"]


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

    @pytest.mark.parametrize("argv, name", [
        (["monoid", "check"], "input.json"),
        (["groth", "compute", "--monoid"], "input.json"),
        (["corpus", "run", "--dir"], "corpus.json"),
    ], ids=["monoid check", "groth compute", "corpus run"])
    def test_digest_reads_file_content_not_path(self, tmp_path, argv, name):
        """The same content at two paths gives one digest, different content
        at one path two."""
        def digest(fixture, where):
            doc = json.loads((CORPUS / fixture).read_text(encoding="utf-8"))
            if name == "corpus.json":
                doc = {"entries": [{"name": "x", "kind": "monoid", "monoid": doc,
                                    "expected": {}}]}
            where.mkdir(exist_ok=True)
            (where / name).write_text(json.dumps(doc), encoding="utf-8")
            arg = where if name == "corpus.json" else where / name
            code, rep = run(tmp_path, *argv, str(arg))
            assert code == 0, rep
            return rep["inputs_sha256"]

        assert digest("t2.json", tmp_path / "a") == digest("t2.json", tmp_path / "b")
        assert digest("t2.json", tmp_path / "a") != digest("z4.json", tmp_path / "a")

    @pytest.mark.parametrize("argv", [
        ["monoid", "check", str(CORPUS / "t2.json")],
        ["groth", "compute", "--monoid", str(CORPUS / "free2.json")],
        ["corpus", "run", "--dir", str(CORPUS)],
    ], ids=["monoid check", "groth compute", "corpus run"])
    def test_each_file_argument_is_parsed_once(self, tmp_path, monkeypatch, argv):
        """The digest reuses the command's own parse of its file argument."""
        loads = []
        honest = json.load

        def spy(fh, *args, **kwargs):
            loads.append(fh.name)
            return honest(fh, *args, **kwargs)

        monkeypatch.setattr(cli.json, "load", spy)
        code, rep = run(tmp_path, *argv)
        assert code == 0, rep
        assert len(loads) == 1, loads

    def test_every_report_names_its_command(self, tmp_path):
        _, rep = run(tmp_path, "corpus", "run")
        assert rep["command"] == "corpus run"
        assert "checks" in rep


def test_internal_fault_exits_seventy(monkeypatch, capsys):
    """A fault in the program itself ends in a JSON report, not a traceback."""
    def broken(args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "_cmd_localize_units", broken)
    assert main(["localize", "units", "--ring", ZMOD12, "--sgens", "[4]"]) == 70
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "command": "localize units",
        "error": "internal",
        "detail": "RuntimeError: broken on purpose",
    }
    assert "Traceback" not in err


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


# `python -m grothloc argv...` in a child; the first statement may block numpy
CHILD = (
    "import runpy, sys; {block}"
    "runpy.run_module('grothloc', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize("argv", [
    ["monoid", "check", str(CORPUS / "t2.json")],
    ["groth", "compute", "--monoid", str(CORPUS / "z6_mult.json")],
    ["localize", "units", "--ring", ZMOD12, "--sgens", "[4]"],
    ["iso", "verify", "--ring", ZMOD5, "--monoid", str(CORPUS / "t2.json"),
     "--sgens", "[2]", "--samples", "20"],
    ["corpus", "run", "--seed", "0"],
], ids=lambda argv: " ".join(argv[:2]))
def test_runs_without_numpy(argv):
    """A child whose `import numpy` fails gives the same exit code and stdout."""
    runs = [
        subprocess.run(
            [sys.executable, "-c", CHILD.format(block=block), *argv],
            capture_output=True, text=True, timeout=120,
        )
        for block in ("", "sys.modules['numpy'] = None; ")
    ]
    plain, blocked = runs
    assert "Traceback" not in blocked.stderr, blocked.stderr
    assert (blocked.returncode, blocked.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == 0 and json.loads(plain.stdout)["ok"] is True
