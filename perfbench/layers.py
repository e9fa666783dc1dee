"""Per-layer metrics of a traced pass, named as in BENCHMARK.json.

Layers are the grothloc modules.  Counts come from the wrappers' counters
and repeat exactly for a given seed; times are inclusive span time (.ms)
or self time (.self_ms), in milliseconds per pass.
"""
from __future__ import annotations

import statistics

GROTH_STRATEGIES = ("cancellative-cross-sum", "finite-witness-enumeration", "presentation-lattice")
LOC_STRATEGIES = ("cross-multiplication", "exhaustive-witness")
EXACT_UNITS = ("count", "B", "ratio")

# span name -> which of calls / inclusive ms / self ms to report
SPAN_FIELDS = (
    ("grothendieck.snf", ("calls", "ms")),
    ("grothendieck.eq", ("self_ms",)),
    ("grothendieck.classes", ("calls", "ms")),
    ("grothendieck.order.coords", ("calls", "ms")),
    ("ring.mr_mul", ("calls", "self_ms")),
    ("ring.gr_from_terms", ("calls", "self_ms")),
    ("ring.nzd_sweep", ("calls", "ms")),
    ("ring.gr_injective", ("calls", "ms")),
    ("localization.eq", ("self_ms",)),
    ("localization.closure", ("calls", "ms")),
    ("localization.decompose", ("ms",)),
    ("localization.units", ("ms",)),
    ("localization.saturate", ("ms",)),
    ("localization.classes", ("ms",)),
    ("isomorphisms.context", ("calls", "ms")),
    ("isomorphisms.h_forward", ("calls", "self_ms")),
    ("isomorphisms.h_inverse", ("calls", "self_ms")),
    ("monoid.cayley_build", ("calls", "ms")),
)

COUNTERS = (
    "grothendieck.snf.cells",
    *(f"grothendieck.eq.calls.{s}" for s in GROTH_STRATEGIES),
    "grothendieck.classes.classes",
    "ring.mr_mul.term_products",
    "ring.gr_from_terms.terms_in",
    "ring.gr_from_terms.terms_out",
    "ring.nzd_sweep.candidates",
    *(f"localization.eq.calls.{s}" for s in LOC_STRATEGIES),
    "localization.closure.elements",
    "localization.closure.lookups",
    "monoid.cayley_build.max_size",
)

CLI_TIMES = ("cli.proc_ms", "cli.inproc_ms", "cli.startup_ms")


def values(tr) -> dict:
    """name -> (value, unit) for one traced pass."""
    out = {}
    for span, fields in SPAN_FIELDS:
        for f in fields:
            if f == "calls":
                out[f"{span}.calls"] = (tr.calls[span], "count")
            elif f == "ms":
                out[f"{span}.ms"] = (tr.ms(span), "ms")
            else:
                out[f"{span}.self_ms"] = (tr.self_ms(span), "ms")
    for name in COUNTERS:
        out[name] = (tr.counters[name], "count")
    elements = tr.counters["localization.closure.elements"]
    lookups = tr.counters["localization.closure.lookups"]
    out["localization.closure.lookups_per_element"] = (lookups / elements if elements else 0.0, "ratio")
    for name in CLI_TIMES:
        samples = tr.samples.get(name)
        out[name] = (statistics.median(samples) if samples else 0.0, "ms")
    out["cli.report_bytes"] = (sum(tr.samples.get("cli.report_bytes", ())), "B")
    return out


def combine(passes: list) -> dict:
    """Counts from the first pass (they repeat); times as medians over passes."""
    out = {}
    for name, (value, unit) in passes[0].items():
        if unit not in EXACT_UNITS:
            value = statistics.median(p[name][0] for p in passes)
        out[name] = (value, unit)
    return out
