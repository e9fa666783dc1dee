"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload briefly, end to end and traced, and checks that:
every metric named in BENCHMARK.json is printed with its unit and nothing
else is; no op failed; the printed input digest is the one the generator
gives, the same seed gives the same digest and op sequence and another seed
a different one; the traced graded run shows no SNF and no exhaustive
localization equality, as predicted; and the benchmark refuses to run, with
a nonzero exit and no result line, where the grothloc sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SEED = 3


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(label, ok):
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            failures.append(label)

    for w in (w["name"] for w in spec["workloads"]):
        a, b, c = (gen.generate(w, s, str(ROOT)) for s in (SEED, SEED, SEED + 1))
        kinds = [[op["kind"] for op in deck] for deck in a["decks"]]
        check(f"{w}: same seed, same digest and op sequence",
              a["digest"] == b["digest"] and kinds == [[op["kind"] for op in d] for d in b["decks"]])
        check(f"{w}: another seed, another digest", a["digest"] != c["digest"])
        for trace in (0, 1):
            proc = _run(["--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)])
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                check(f"{w} trace={trace}: runs ({proc.stderr[-500:]})", False)
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{w} trace={trace}: metric names and units", got == wanted[trace])
            check(f"{w} trace={trace}: result keys",
                  sorted(result) == ["attempted", "correct", "failed", "metrics"])
            check(f"{w} trace={trace}: failed_frac == 0",
                  result["correct"] is True and result["failed"] == 0 and record["failed_frac"] == 0)
            check(f"{w} trace={trace}: printed digest", record["inputs_sha256"] == a["digest"])
            if trace == 0:
                check(f"{w}: at least 100 ops", result["attempted"] >= 100)
            else:
                check(f"{w}: counts repeat across passes", record["counts_repeat"])
            if trace and w == "graded":
                m = result["metrics"]
                check("graded: no SNF", m["grothendieck.snf.calls"]["value"] == 0)
                check("graded: no exhaustive localization equality",
                      m["localization.eq.calls.exhaustive-witness"]["value"] == 0)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "structure", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    check("refuses to run without the sources",
          proc.returncode != 0 and '"correct"' not in proc.stdout)
    shutil.rmtree(bare)

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
