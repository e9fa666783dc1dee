"""Seeded benchmark of grothloc: four workloads, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Workloads (see gen.py for the exact decks):
  structure  group completions: SNF of Cayley relation matrices and of
             presentations with known invariant factors, finite direct sums,
             total-order coordinates.  Nothing is shared between ops.
  graded     decomposition, isomorphism and Laurent batteries over a few
             localized monoid rings that are built once and shared.
  finite     exhaustive sweeps (unit correspondences, 1 + I, the four-way
             cancellativity equivalence, isomorphisms over non-cancellative
             monoids), a fresh structure per op.
  cli        `python -m grothloc` as a child process, one at a time, for every
             subcommand and `corpus run` (run through runpy, as -m does, so
             the child can time its own host speed; see workloads.CLI_MAIN).

One process, one closed-loop client, no threads.  Decks of ops are run whole
until --seconds have passed and at least 100 ops are done.  Every op checks
its answers against oracles.py and counts as failed if it raises, reports a
false ok/all_ok/iso, or disagrees with the oracle.

--trace 0 prints the end-to-end metrics: setup_s (median time of
`import grothloc` in a fresh interpreter plus the median time to generate
the inputs and build what the ops share, each repeated five times),
ops_per_s (median over decks), op_p50_ms and op_p90_ms (nearest rank over
all ops) and peak_rss_mb (this process, or its children for cli).  Times
are scaled by the host speed of the process that did the work, measured
around each op (see hostspeed.py).
--trace 1 runs deck 0 again and again, alternating an untraced and a traced
pass, and prints per-layer metrics of one pass (counts repeat exactly; times
are medians over passes) plus the tracing overhead.  Spans go to
perfbench/out/trace-<workload>-<seed>.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a record of the run (input digest, sizes, failures
by kind, unscaled times, peak RSS before the measured ops, hypervisor steal
time during them, versions, nproc, git commit).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import layers
from hostspeed import Scaler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("structure", "graded", "finite", "cli")
MIN_OPS = 100
HARD_LIMIT_S = 120
SETUP_REPEATS = 5
# numpy is loaded before the clock starts: its import takes most of a cold
# start and swings by a factor of three with the host's load, which would
# drown the library's own import.  The cli workload still pays it per op.
# The child scales its import time by its own host speed (hostspeed.py),
# which the speed this process sees does not follow.  It prints raw and
# scaled seconds.
IMPORT_PROBE = (
    "import sys, time, numpy; sys.path.insert(0, {here!r}); from hostspeed import host_speed; "
    "sys.path.pop(0); before = host_speed(); t = time.perf_counter(); import grothloc; "
    "t = time.perf_counter() - t; print(t, t * (before + host_speed()) / 2)"
)
# numpy's BLAS starts a thread pool when imported; one thread keeps this
# process and its children to the single thread of the closed loop.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _percentile(values, q):
    """Nearest rank: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _child(code: str) -> str:
    from workloads import child_env

    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def _steal_ticks():
    """Machine-wide CPU time stolen by the hypervisor, in clock ticks, or None.

    Read from the aggregate cpu line of /proc/stat (its eighth value).
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs ops of one workload and tallies outcomes."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = Counter()
        self.by_kind = Counter()
        self._reported = set()

    def op(self, spec, rec) -> bool:
        kind = spec["kind"]
        try:
            ok = bool(rec.run(f"op.{kind}", self.wl.call, spec, rec))
        except Exception:
            ok = False
            if kind not in self._reported:
                self._reported.add(kind)
                print(f"op {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.attempted += 1
        self.by_kind[kind] += 1
        if not ok:
            self.failed[kind] += 1
            if kind not in self._reported:
                self._reported.add(kind)
                print(f"op {kind} failed its check", file=sys.stderr)
        return ok


def measure(runner, seconds, rec) -> dict:
    """Closed loop over whole decks until time is up and MIN_OPS are done."""
    decks = runner.wl.decks
    steal0 = _steal_ticks()
    scaler = Scaler()
    raw_lat, lat, raw_rates, rates = [], [], [], []
    start = perf_counter()
    i = 0
    while True:
        deck = decks[i % len(decks)]
        i += 1
        raw_deck, deck_lat = [], []
        for spec in deck:
            _, raw, scaled = scaler.timed(runner.op, spec, rec)
            child = runner.wl.child_speed()
            raw_deck.append(raw)
            deck_lat.append(scaled if child is None else raw * child)
        raw_lat += raw_deck
        lat += deck_lat
        raw_rates.append(len(deck) / sum(raw_deck))
        rates.append(len(deck) / sum(deck_lat))
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(lat) >= MIN_OPS or elapsed >= HARD_LIMIT_S):
            break
    steal1 = _steal_ticks()
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": _percentile(lat, 0.5) * 1000,
        "op_p90_ms": _percentile(lat, 0.9) * 1000,
        "raw": {
            "ops_per_s": statistics.median(raw_rates),
            "op_p50_ms": _percentile(raw_lat, 0.5) * 1000,
            "op_p90_ms": _percentile(raw_lat, 0.9) * 1000,
        },
        "latency_samples": len(lat),
        "decks_run": i,
        "measured_s": perf_counter() - start,
        "steal_s": None if steal0 is None or steal1 is None else (steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
    }


def measure_traced(runner, seconds):
    """Alternate untraced and traced passes (set-up plus deck 0)."""
    from workloads import NullRecorder

    wl = runner.wl
    deck = wl.decks[0]
    untraced, traced, per_pass = [], [], []
    first = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wl.build()
        for spec in deck:
            runner.op(spec, NullRecorder())
        untraced.append(len(deck) / (perf_counter() - t0))
        tracer = Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            tracer.run("setup.build", wl.build)
            for op_id, spec in enumerate(deck, 1):
                tracer.op_id = op_id
                runner.op(spec, tracer)
            traced.append(len(deck) / (perf_counter() - t0))
        finally:
            tracer.uninstall()
        per_pass.append(layers.values(tracer))
        if first is None:
            first = tracer
        if perf_counter() - start >= seconds:
            break
    metrics = layers.combine(per_pass)
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics["trace.ops_per_s_untraced"] = (u, "1/s")
    metrics["trace.ops_per_s_traced"] = (t, "1/s")
    metrics["trace.overhead"] = (u / t, "ratio")
    counts_repeat = all(
        p[k] == per_pass[0][k] for p in per_pass for k, (_, unit) in p.items() if unit in layers.EXACT_UNITS
    )
    return metrics, first, {"passes": len(per_pass), "counts_repeat": counts_repeat}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)

    if not (ROOT / "src" / "grothloc" / "__init__.py").is_file():
        print(f"perfbench: no grothloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # set-up: import of grothloc in fresh interpreters, then generation and
    # shared structures in this one, each repeated and scaled by host speed.
    # An untimed import first brings the bytecode caches up to date (children
    # may write them, see workloads.child_env), so that every timed child and
    # every cli op loads the same cached bytecode whatever an earlier run or
    # checkout left behind.
    _child("import grothloc")
    probe = IMPORT_PROBE.format(here=str(HERE))
    imports = [tuple(map(float, _child(probe).split())) for _ in range(SETUP_REPEATS)]
    from workloads import NullRecorder, Workload

    scaler = Scaler()
    builds = []
    for _ in range(SETUP_REPEATS):
        wl = None  # let the previous set-up go before building the next
        wl, raw, scaled = scaler.timed(Workload, args.workload, args.seed, str(ROOT))
        builds.append((raw, scaled))
    import_s = [scaled for _, scaled in imports]
    build_s = [scaled for _, scaled in builds]
    raw_setup_s = statistics.median(r for r, _ in imports) + statistics.median(r for r, _ in builds)
    runner = Runner(wl)

    record = {
        "benchmark": "grothloc-perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": wl.inputs["digest"],
        "sizes": wl.sizes(),
    }
    if args.trace:
        layer, tracer, info = measure_traced(runner, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record.update(info)
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"record": record, "metrics": metrics, "trace": tracer.dump()}))
        record["trace_file"] = str(out.relative_to(ROOT))
    else:
        # peak RSS so far: numpy, the library and every generated deck; what
        # the measured ops add on top is the difference to peak_rss_mb
        rss_before = {"self": _peak_rss_mb(resource.RUSAGE_SELF),
                      "children": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
        e2e = measure(runner, args.seconds, NullRecorder())
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(import_s) + statistics.median(build_s), "unit": "s"},
            "ops_per_s": {"value": e2e.pop("ops_per_s"), "unit": "1/s"},
            "op_p50_ms": {"value": e2e.pop("op_p50_ms"), "unit": "ms"},
            "op_p90_ms": {"value": e2e.pop("op_p90_ms"), "unit": "ms"},
            "peak_rss_mb": {"value": _peak_rss_mb(who), "unit": "MB"},
        }
        record.update(e2e)
        record["peak_rss_before_measure_mb"] = rss_before
        record["raw"]["setup_s"] = raw_setup_s
        record["setup"] = {"import_s": import_s, "build_s": build_s}

    import numpy

    failed = sum(runner.failed.values())
    record.update({
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "ops_by_kind": dict(runner.by_kind),
        "failed_by_kind": dict(runner.failed),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": _git_commit(),
        },
        "metrics": metrics,
    })
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
