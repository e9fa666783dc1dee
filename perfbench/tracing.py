"""Spans and counters around calls into grothloc, installed from outside.

The library is not edited: install() swaps public functions and methods
for timing wrappers and uninstall() puts the originals back.  Each span
records (id, parent id, op id, name, start ns, end ns); spans are kept in
memory up to a cap and written when the run ends.  Per-name call counts,
inclusive time and self time (span time minus the time of its child spans)
are aggregated for every call, kept or not.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

KEEP_SPANS = 100_000


def _snf_cells(tr, args, kwargs, result):
    tr.counters["grothendieck.snf.cells"] += result.nrows * result.ncols


def _strategy(layer):
    def hook(tr, args, kwargs, result):
        tr.counters[f"{layer}.eq.calls.{args[0].strategy}"] += 1
    return hook


def _classes(tr, args, kwargs, result):
    tr.counters["grothendieck.classes.classes"] += len(result)


def _term_products(tr, args, kwargs, result):
    tr.counters["ring.mr_mul.term_products"] += len(args[0].coeffs) * len(args[1].coeffs)


def _terms(tr, args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    tr.counters["ring.gr_from_terms.terms_in"] += len(pairs)
    tr.counters["ring.gr_from_terms.terms_out"] += len(result.terms)


def _candidates(tr, args, kwargs, result):
    mring = args[0]
    tr.counters["ring.nzd_sweep.candidates"] += mring.coeff_ring.n ** mring.monoid.size()


def _closure(tr, args, kwargs, result):
    tr.counters["localization.closure.elements"] += len(args[0].closure)


def _cayley_size(tr, args, kwargs, result):
    name = "monoid.cayley_build.max_size"
    tr.counters[name] = max(tr.counters[name], args[0].size())


# (span name, "module" or "module.Class", attribute, counter hook)
PROBES = (
    ("grothendieck.snf", "grothendieck", "smith_normal_form", _snf_cells),
    ("grothendieck.eq", "grothendieck.GrothendieckGroup", "eq", _strategy("grothendieck")),
    ("grothendieck.classes", "grothendieck", "groth_classes", _classes),
    ("grothendieck.order.coords", "grothendieck.GrothOrder", "coords", None),
    ("ring.mr_mul", "ring.MRElement", "__mul__", _term_products),
    ("ring.gr_from_terms", "ring.GroupRing", "from_terms", _terms),
    ("ring.nzd_sweep", "ring", "monomial_is_nonzerodivisor", _candidates),
    ("ring.gr_injective", "ring", "group_ring_map_injective", None),
    ("localization.eq", "localization.LocalizedRing", "eq", _strategy("localization")),
    ("localization.closure", "localization.MultiplicativeSet", "__init__", _closure),
    ("localization.decompose", "localization", "decompose_fraction", None),
    ("localization.units", "localization", "units_of_localization", None),
    ("localization.saturate", "localization", "saturate", None),
    ("localization.classes", "localization", "localization_classes", None),
    ("isomorphisms.context", "isomorphisms.HMapContext", "__init__", None),
    ("isomorphisms.h_forward", "isomorphisms", "h_forward", None),
    ("isomorphisms.h_inverse", "isomorphisms", "h_inverse", None),
    ("monoid.cayley_build", "monoid.CayleyMonoid", "__init__", _cayley_size),
)

# (counter name, "module.Class", methods whose calls it counts)
COUNTED = (
    ("localization.closure.lookups", "localization.MultiplicativeSet", ("contains", "witness")),
)


def _resolve(path):
    mod_name, _, cls_name = path.partition(".")
    module = importlib.import_module(f"grothloc.{mod_name}")
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Span stack, aggregates and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.next_id = 1
        self.op_id = 0
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.samples = defaultdict(list)
        self._undo = []

    # -- recording

    def sample(self, name: str, value: float):
        self.samples[name].append(value)

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self.stack
        frame = [self.next_id, 0]
        self.next_id += 1
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - frame[1]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((frame[0], parent, self.op_id, name, t0, t1))
            else:
                self.dropped += 1

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.run(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation

    def _swap(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every probe; module functions are replaced wherever imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "grothloc" or n.startswith("grothloc.")]
        for name, path, attr, hook in PROBES:
            owner = _resolve(path)
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            if isinstance(owner, type):
                self._swap(owner, attr, wrapped)
                continue
            for module in modules:
                if getattr(module, attr, None) is orig:
                    self._swap(module, attr, wrapped)
        for name, path, attrs in COUNTED:
            owner = _resolve(path)
            for attr in attrs:
                self._swap(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results

    def ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": dict(self.calls),
            "total_ms": {k: v / 1e6 for k, v in self.total_ns.items()},
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "counters": dict(self.counters),
        }
