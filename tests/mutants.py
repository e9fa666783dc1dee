"""A catalogue of mutants of the library, each with the tests that must kill it.

A mutant is one exact edit of one file under ``src/``: a snippet, its
replacement, and the ids of the tests that must fail once it is made.  Run
from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

For each mutant the runner copies ``src/`` to a temporary directory, makes
the edit there, and runs the mutant's tests with ``pytest -x`` against that
copy.  The mutant is killed when they fail.  A survivor is reported and
the run exits 1.  A snippet that does not occur exactly once in its file,
or a pytest run that neither passes nor fails (a collection error, say), is
a runner error and exits 2: code that a mutant targets cannot move without
its entry here moving too (``tests/test_mutants.py`` checks every snippet in
the tier-1 suite).  Standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

KEYS = "tests/test_localization_keys.py::"
GRADED = "tests/test_graded_components.py::"
NZD = "tests/test_nonzerodivisors.py::"
SPLIT = GRADED + "test_seeded_fractions_match_the_per_degree_split"
CORNER_TESTS = [
    KEYS + "test_zmod_certificates_cover_every_class",
    KEYS + "test_zmod_keys_match_definition[12]",
]

MUTANTS = [
    # the certified corner Z/n' of a localization of Z/n
    Mutant(
        "zmod-corner-gcd-against-n",
        "grothloc/ring.py",
        "x, g = e * u % n, gcd(u, m)",
        "x, g = e * u % n, gcd(u, n)",
        CORNER_TESTS,
    ),
    Mutant(
        "zmod-corner-inverse-off-by-one",
        "grothloc/ring.py",
        "units[x] = y = e * pow(u, -1, m) % n",
        "units[x] = y = e * (pow(u, -1, m) + 1) % n",
        CORNER_TESTS,
    ),
    Mutant(
        "zmod-corner-zero-annihilator",
        "grothloc/ring.py",
        "z = e * (m // g) % n",
        "z = 0",
        CORNER_TESTS,
    ),
    # the saturation read off eR
    Mutant(
        "saturate-tests-a-not-ea",
        "grothloc/localization.py",
        "b = units.get(mul(e, a))",
        "b = units.get(a)",
        [KEYS + "test_zmod_units_and_reports[12]", KEYS + "test_zmod_units_walk_no_classes"],
    ),
    Mutant(
        "saturate-witness-off-by-one",
        "grothloc/localization.py",
        "witnesses[a] = b\n",
        "witnesses[a] = b + 1\n",
        [KEYS + "test_zmod_units_and_reports[12]", KEYS + "test_zmod_seeded_sets_match_the_walks[12]"],
    ),
    # graded components and their sum
    Mutant(
        "decompose-keeps-zero-components",
        "grothloc/localization.py",
        "if not loc.is_zero(part):",
        "if True:",
        [GRADED + "test_zero_in_s_leaves_no_component", SPLIT + "[z4_over_Z6_at_2]"],
    ),
    Mutant(
        "decompose-last-seen-degree",
        "grothloc/localization.py",
        "slot = acc.setdefault(group.key(x), (x, {}))",
        "slot = acc[group.key(x)] = (x, acc.get(group.key(x), (x, {}))[1])",
        [SPLIT + "[t2_over_Z_at_5]", SPLIT + "[numsg_2_3_over_Z]"],
    ),
    Mutant(
        "decompose-per-degree-unless-finite-witness",
        "grothloc/localization.py",
        'if group.strategy == "cancellative-cross-sum":',
        'if group.strategy != "finite-witness-enumeration":',
        [GRADED + "test_merging_bases_do_merge", SPLIT + "[numsg_2_3_over_Z]"],
    ),
    Mutant(
        "sum-components-no-denominator-check",
        "grothloc/localization.py",
        "if not eq(part.den, den):",
        "if False:",
        [GRADED + "test_sum_components_refuses_mixed_denominators"],
    ),
    # the idempotent e of a multiplicative set
    Mutant(
        "idempotent-powers-the-first-generator",
        "grothloc/localization.py",
        "t = functools.reduce(ring.mul, self.generators, ring.one)",
        "t = functools.reduce(ring.mul, self.generators[:1], ring.one)",
        [KEYS + "test_zmod_keys_match_definition[12]", KEYS + "test_small_zmod_every_pair[12]"],
    ),
    # McCoy's test over Z/n
    Mutant(
        "mccoy-gcd-of-the-first-coefficient",
        "grothloc/ring.py",
        "return gcd(self.n, *coeffs) == 1",
        "return gcd(self.n, next(iter(coeffs))) == 1",
        [
            NZD + "test_mccoy_over_zmod_polynomials_matches_box_search[6]",
            NZD + "test_mccoy_over_z6_in_several_variables_matches_box_search[free2]",
        ],
    ),
]


class RunnerError(Exception):
    pass


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    return (src / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)


def apply(mutant: Mutant, src: Path) -> None:
    """Make the mutant's edit in the tree ``src``."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise RunnerError(
            f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"
        )
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail against a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import grothloc; print(grothloc.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(src)):
            raise RunnerError(f"{mutant.name}: grothloc imported from {where.stdout!r}")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):
        raise RunnerError(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout[-2000:]}")
    return run.returncode == 1


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    survivors = []
    start = time.perf_counter()
    try:
        for m in chosen:
            t = time.perf_counter()
            dead = killed(m)
            print(f"{'killed ' if dead else 'SURVIVED'} {m.name} ({time.perf_counter() - t:.1f} s)")
            if not dead:
                survivors.append(m.name)
    except RunnerError as exc:
        print(f"runner error: {exc}")
        return 2
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
