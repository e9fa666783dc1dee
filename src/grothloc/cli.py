"""Command-line front end; every command emits one deterministic JSON report.

Exit codes: 0 success, 1 a verification failed, 2 malformed input,
3 monoid axiom violation, 64 usage error, 70 internal error (a fault in
grothloc itself, reported as JSON instead of a traceback).  Timing goes to
stderr so that report bytes depend only on the inputs and the seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from math import prod

from .errors import (
    AxiomViolationError,
    GrothlocError,
    InvalidInputError,
    TorsionWitnessError,
)
from .grothendieck import (
    GrothElement,
    GrothendieckGroup,
    build_total_order,
    monoid_groth_structure,
    presentation_snf,
    structure_from_snf,
)
from .localization import (
    LocalizedRing,
    MultiplicativeSet,
    decompose_fraction,
    groth_units_embedding,
    groth_units_iso,
    kx_counterexample_check,
    one_plus_ideal_check,
    sum_components,
)
from .isomorphisms import HMapContext, laurent_iso, verify_isomorphism
from .monoid import (
    DirectSumMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    MonoidPresentation,
    monoid_from_dict,
)
from .ring import (
    IntegerRing,
    ModRing,
    MonoidRing,
    _deg_from_json,
    _deg_to_json,
    monomial_is_nonzerodivisor,
    ring_from_dict,
)
from .rng import Lcg64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=200)
    # --depth reads into inputs_sha256 only, so reports keep their bytes
    sub.add_argument("--depth", type=int, default=8)
    sub.add_argument("--out", default=None, help="report path (default stdout)")


def _load_json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON argument: {exc}") from exc


def _load_sgens(text: str) -> list:
    sgens = _load_json_arg(text)
    if not isinstance(sgens, list):
        raise InvalidInputError("sgens must be a JSON list of ring elements")
    return sgens


def _read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _read_file_arg(args, name: str):
    """The parsed JSON of file argument ``name``; kept on ``args.parsed`` so
    the inputs digest reuses it instead of reading the file again."""
    data = _read_json_file(_FILE_ARGS[name].format(getattr(args, name)))
    args.parsed[name] = data
    return data


def _load_monoid_file(args, name: str):
    return monoid_from_dict(_read_file_arg(args, name))


def _structure_json(s) -> dict:
    return {"free_rank": s.free_rank, "torsion": list(s.torsion_invariants)}


def _groth_key_json(key: GrothElement) -> list:
    return [_deg_to_json(key.first), _deg_to_json(key.second)]


# ---------------------------------------------------------------------------
# commands


def _quasi_zero_size(m) -> int:
    """How many quasi-zeros a finite M has; a direct sum's are counted as the
    product of its components' counts, never built."""
    if isinstance(m, DirectSumMonoid):
        return prod(map(_quasi_zero_size, m.components))
    return len(m.quasi_zeros())


def _monoid_facts(m) -> dict:
    """Cancellativity (None when undecided) and, on a finite carrier, the
    quasi-zero submonoid's size and whether G(M) is trivial."""
    facts = {}
    try:
        facts["cancellative"] = m.cancellative()
    except GrothlocError:
        facts["cancellative"] = None
    if m.is_finite:
        facts["quasi_zero_size"] = _quasi_zero_size(m)
        facts["groth_trivial"] = GrothendieckGroup(m).is_trivial()
    return facts


def _cmd_monoid_check(args):
    m = _load_monoid_file(args, "file")
    results = {"axioms_ok": True, **_monoid_facts(m)}
    checks = {}
    if m.is_finite:
        results["carrier_size"] = m.size()
        all_quasi_zero = results["quasi_zero_size"] == m.size()
        checks["quasi_zero_all_iff_trivial"] = all_quasi_zero == results["groth_trivial"]
    else:
        results["groth_trivial"] = monoid_groth_structure(m).order() == 1
    ok = all(checks.values())
    return {"results": results, "checks": checks}, ok


def _cmd_groth_compute(args):
    m = _load_monoid_file(args, "monoid")
    s = monoid_groth_structure(m)
    return {"results": _structure_json(s)}, True


def _cmd_groth_order(args):
    m = _load_monoid_file(args, "monoid")
    if isinstance(m, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
        # G(N^k) = G(Z^k) = Z^k: k generators, no relations
        m = MonoidPresentation(m.rank, ())
    if not isinstance(m, MonoidPresentation):
        raise InvalidInputError(
            "total orders are built from presentation, free or lattice descriptions"
        )
    snf = presentation_snf(m)
    s = structure_from_snf(snf)
    results = {"structure": _structure_json(s)}
    try:
        order = build_total_order(s, snf)
    except TorsionWitnessError as exc:
        results["orderable"] = False
        results["torsion_witness"] = list(exc.element)
        results["torsion_order"] = exc.order
        return {"results": results, "checks": {}}, True
    results["orderable"] = True
    results["certificate"] = {
        "free_positions": order.free_positions,
        "column_transform": snf.V,
    }
    group = GrothendieckGroup(m)
    rng = Lcg64(args.seed)
    compatible = True
    total = True
    transitive = True
    for _ in range(args.samples):
        xs = [
            GrothElement(m.sample(rng, 4), m.sample(rng, 4))
            for _ in range(3)
        ]
        x, y, z = xs
        sxy = order.compare(x, y)
        if sxy != -order.compare(y, x):
            total = False
        if sxy == 0 and not group.eq(x, y):
            total = False
        if sxy < 0:
            if order.compare(group.add(x, z), group.add(y, z)) >= 0:
                compatible = False
            if order.compare(y, z) < 0 and order.compare(x, z) >= 0:
                transitive = False
    checks = {
        "sampled_compatible": compatible,
        "sampled_total": total,
        "sampled_transitive": transitive,
    }
    return {"results": results, "checks": checks}, all(checks.values())


def _cmd_mring_nzd(args):
    ring = ring_from_dict(_load_json_arg(args.ring))
    m = _load_monoid_file(args, "monoid")
    mring = MonoidRing(ring, m)
    if args.degree is not None:
        deg = _deg_from_json(_load_json_arg(args.degree))
        flag = monomial_is_nonzerodivisor(mring, deg)
        return {
            "results": {"degree": _deg_to_json(mring.monoid.validate(deg)),
                        "nonzerodivisor": flag},
            "checks": {},
        }, True
    witness = [
        _deg_to_json(d)
        for d in mring.monoid.elements()
        if not monomial_is_nonzerodivisor(mring, d)
    ]
    all_nzd = not witness
    checks = {"matches_cancellativity": all_nzd == m.cancellative()}
    return {
        "results": {"all_nonzerodivisors": all_nzd, "zerodivisor_degrees": witness},
        "checks": checks,
    }, all(checks.values())


def _cmd_localize_decompose(args):
    ring = ring_from_dict(_load_json_arg(args.ring))
    m = _load_monoid_file(args, "monoid")
    mring = MonoidRing(ring, m)
    sgens = [mring.from_list(g) for g in _load_sgens(args.sgens)]
    sset = MultiplicativeSet(mring, sgens)
    loc = LocalizedRing(mring, sset)
    fr = _load_json_arg(args.fraction)
    if not isinstance(fr, dict) or "num" not in fr:
        raise InvalidInputError('fraction JSON needs "num" and "den_witness"')
    num = mring.from_list(fr["num"])
    witness = fr.get("den_witness", [])
    if not isinstance(witness, list):
        raise InvalidInputError("den_witness must be a list of generator indices")
    for i in witness:
        if type(i) is not int or not 0 <= i < len(sgens):
            raise InvalidInputError(f"witness index {i!r} out of range")
    f = loc.from_witness(num, tuple(witness))
    parts = decompose_fraction(loc, f)
    ordered = sorted(parts.items(), key=lambda kv: json.dumps(_groth_key_json(kv[0])))
    rank_one = isinstance(m, FreeCommutativeMonoid) and m.rank == 1
    components = {}
    for key, part in ordered:
        entry = {"num": mring.to_list(part.num), "den": mring.to_list(part.den)}
        if rank_one:
            # integer reading of the class [m, n] for a single free direction
            entry["degree"] = key.first[0] - key.second[0]
        components[json.dumps(_groth_key_json(key), separators=(",", ":"))] = entry
    back = sum_components(loc, [part for _, part in ordered])
    group = loc.groth_group
    distinct = len({group.key(key) for key, _ in ordered}) == len(ordered)
    idempotent = all(
        len(decompose_fraction(loc, part)) <= 1 for _, part in ordered
    )
    checks = {
        "sum_back": loc.eq(back, f),
        "keys_pairwise_distinct": distinct,
        "idempotent": idempotent,
    }
    return {
        "results": {"component_count": len(components), "components": components},
        "checks": checks,
    }, all(checks.values())


def _cmd_localize_units(args):
    ring = ring_from_dict(_load_json_arg(args.ring))
    if not isinstance(ring, ModRing):
        raise InvalidInputError("localize units needs a Z/n ring")
    sset = MultiplicativeSet(ring, _load_sgens(args.sgens))
    loc = LocalizedRing(ring, sset)
    emb = groth_units_embedding(sset, loc)
    iso = groth_units_iso(sset, loc)
    results = {
        "closure_size": len(sset.closure),
        "saturation_size": len(iso.saturation.elements),
        "units": iso.unit_order,
        "groth_order": iso.groth_order,
        "iso": iso.iso,
    }
    checks = {
        "embedding_morphism": emb.morphism_ok,
        "embedding_injective": emb.injective,
        "iso_ok": iso.iso,
    }
    return {"results": results, "checks": checks}, all(checks.values())


def _iso_context(ring, m, sgens: list) -> HMapContext:
    """The context ``iso verify`` and ``iso_verify`` corpus entries check.

    Over Z the generators must be nonzero; S then holds only
    non-zero-divisors, so fractions compare by cross-multiplication.
    """
    if isinstance(ring, IntegerRing) and any(ring.is_zero(ring.validate(g)) for g in sgens):
        raise InvalidInputError("zero generator over Z is not supported")
    return HMapContext(ring, m, sgens)


def _cmd_iso_verify(args):
    ring = ring_from_dict(_load_json_arg(args.ring))
    m = _load_monoid_file(args, "monoid")
    ctx = _iso_context(ring, m, _load_sgens(args.sgens))
    report = verify_isomorphism(ctx, samples=args.samples, seed=args.seed)
    ok = report.pop("all_ok")
    report["roundtrip_ok"] = report["roundtrip_back_ok"] and report["roundtrip_forth_ok"]
    report["injective_ok"] = report["kernel_trivial_ok"]
    return {"results": report, "checks": {"all_ok": ok}}, ok


def _cmd_iso_laurent(args):
    ring = ring_from_dict(_load_json_arg(args.ring))
    report = laurent_iso(ring, args.rank, samples=args.samples, seed=args.seed)
    ok = report.pop("all_ok")
    return {"results": report, "checks": {"all_ok": ok}}, ok


# ---------------------------------------------------------------------------
# corpus


# the corpus shipped inside the package, found next to this module; os is
# loaded by every interpreter at start, importlib.resources is not
_CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


# the fields each corpus entry kind reads unconditionally
_CORPUS_FIELDS = {
    "monoid": ("monoid",),
    "groth": ("monoid",),
    "localize_units": ("ring", "sgens"),
    "one_plus_ideal": ("ring", "ideal_gens"),
    "kx": (),
    "iso_verify": ("ring", "monoid"),
    "iso_laurent": ("ring", "rank"),
}


def _run_corpus_entry(entry: dict, seed: int) -> dict:
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _CORPUS_FIELDS:
        raise InvalidInputError(f"unknown corpus entry kind {kind!r}")
    missing = [f for f in _CORPUS_FIELDS[kind] if f not in entry]
    if missing:
        raise InvalidInputError(
            f"corpus entry {entry['name']!r} of kind {kind!r} lacks {missing}"
        )
    bad = [f"{f} must be a list" for f in ("sgens", "ideal_gens")
           if not isinstance(entry.get(f, []), list)]
    bad += [f"{f} must be an integer" for f in ("samples", "modulus", "rank")
            if type(entry.get(f, 0)) is not int]
    if not bad and entry.get("samples", 0) < 0:
        bad.append("samples must be nonnegative")
    if bad:
        raise InvalidInputError(f"corpus entry {entry['name']!r}: " + "; ".join(bad))
    actual = None
    if kind == "monoid":
        actual = _monoid_facts(monoid_from_dict(entry["monoid"]))
    elif kind == "groth":
        m = monoid_from_dict(entry["monoid"])
        actual = {"structure": _structure_json(monoid_groth_structure(m))}
    elif kind == "localize_units":
        ring = ring_from_dict(entry["ring"])
        sset = MultiplicativeSet(ring, entry["sgens"])
        loc = LocalizedRing(ring, sset)
        iso = groth_units_iso(sset, loc)
        actual = {
            "unit_count": iso.unit_order,
            "groth_order": iso.groth_order,
            "iso": iso.iso,
        }
    elif kind == "one_plus_ideal":
        ring = ring_from_dict(entry["ring"])
        rep = one_plus_ideal_check(ring, entry["ideal_gens"])
    elif kind == "kx":
        rep = kx_counterexample_check(
            entry.get("modulus", 5), samples=entry.get("samples", 30), seed=seed
        )
    elif kind == "iso_verify":
        ring = ring_from_dict(entry["ring"])
        m = monoid_from_dict(entry["monoid"])
        ctx = _iso_context(ring, m, entry.get("sgens", []))
        rep = verify_isomorphism(ctx, samples=entry.get("samples", 60), seed=seed)
    else:  # iso_laurent
        ring = ring_from_dict(entry["ring"])
        rep = laurent_iso(
            ring, entry["rank"], samples=entry.get("samples", 60), seed=seed
        )
    expected = entry["expected"]
    if actual is None:
        # a key the report lacks fails the subset test below
        actual = {k: rep[k] for k in expected if k in rep}
    ok = all(actual.get(k) == v for k, v in expected.items()) and set(
        expected
    ) <= set(actual)
    return {
        "name": entry["name"],
        "provenance": entry.get("provenance", ""),
        "expected": expected,
        "actual": actual,
        "ok": ok,
    }


def _cmd_corpus_run(args):
    if args.dir is not None:
        specs = _read_file_arg(args, "dir")
    else:
        with open(os.path.join(_CORPUS_DIR, "corpus.json"), encoding="utf-8") as fh:
            specs = json.load(fh)
    entries = specs.get("entries") if isinstance(specs, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and {"kind", "name", "expected"} <= e.keys()
        and isinstance(e["name"], str) and isinstance(e["expected"], dict)
        for e in entries
    ):
        raise InvalidInputError(
            'corpus needs an "entries" list of objects with "kind", '
            'a string "name" and an "expected" object'
        )
    rows = [
        _run_corpus_entry(entry, args.seed)
        for entry in sorted(entries, key=lambda e: e["name"])
    ]
    passed = sum(r["ok"] for r in rows)
    results = {
        "entries": rows,
        "total": len(rows),
        "passed": passed,
    }
    return {"results": results, "checks": {"all_ok": passed == len(rows)}}, (
        passed == len(rows)
    )


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="grothloc")
    top = parser.add_subparsers(dest="group_cmd", required=True)

    monoid = top.add_parser("monoid").add_subparsers(dest="sub", required=True)
    check = monoid.add_parser("check")
    check.add_argument("file")
    _common(check)
    check.set_defaults(func=_cmd_monoid_check)

    groth = top.add_parser("groth").add_subparsers(dest="sub", required=True)
    compute = groth.add_parser("compute")
    compute.add_argument("--monoid", required=True)
    _common(compute)
    compute.set_defaults(func=_cmd_groth_compute)
    order = groth.add_parser("order")
    order.add_argument("--monoid", required=True)
    _common(order)
    order.set_defaults(func=_cmd_groth_order)

    mring = top.add_parser("mring").add_subparsers(dest="sub", required=True)
    nzd = mring.add_parser("nzd")
    nzd.add_argument("--ring", required=True)
    nzd.add_argument("--monoid", required=True)
    nzd.add_argument("--degree", default=None)
    _common(nzd)
    nzd.set_defaults(func=_cmd_mring_nzd)

    localize = top.add_parser("localize").add_subparsers(dest="sub", required=True)
    decompose = localize.add_parser("decompose")
    decompose.add_argument("--ring", required=True)
    decompose.add_argument("--monoid", required=True)
    decompose.add_argument("--sgens", required=True)
    decompose.add_argument("--fraction", required=True)
    _common(decompose)
    decompose.set_defaults(func=_cmd_localize_decompose)
    units = localize.add_parser("units")
    units.add_argument("--ring", required=True)
    units.add_argument("--sgens", required=True)
    _common(units)
    units.set_defaults(func=_cmd_localize_units)

    iso = top.add_parser("iso").add_subparsers(dest="sub", required=True)
    verify = iso.add_parser("verify")
    verify.add_argument("--ring", required=True)
    verify.add_argument("--monoid", required=True)
    verify.add_argument("--sgens", required=True)
    _common(verify)
    verify.set_defaults(func=_cmd_iso_verify)
    laurent = iso.add_parser("laurent")
    laurent.add_argument("--ring", required=True)
    laurent.add_argument("--rank", type=int, required=True)
    _common(laurent)
    laurent.set_defaults(func=_cmd_iso_laurent)

    corpus = top.add_parser("corpus").add_subparsers(dest="sub", required=True)
    run = corpus.add_parser("run")
    run.add_argument("--dir", default=None)
    _common(run)
    run.set_defaults(func=_cmd_corpus_run)

    return parser


# file arguments, digested by their parsed JSON content rather than their path
_FILE_ARGS = {"file": "{}", "monoid": "{}", "dir": "{}/corpus.json"}


def _inputs_digest(args) -> str:
    skip = {"func", "out", "group_cmd", "sub", "parsed"}
    inputs = {
        k: args.parsed[k] if k in _FILE_ARGS else v
        for k, v in vars(args).items()
        if k not in skip and v is not None and isinstance(v, (str, int, bool))
    }
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _error_payload(command: str, exc: GrothlocError) -> dict:
    return {"command": command, "error": type(exc).__name__, "detail": str(exc)}


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    args.parsed = {}
    started = time.monotonic()
    command = f"{args.group_cmd} {args.sub}" if args.sub else args.group_cmd
    try:
        for name in ("samples", "depth"):
            value = getattr(args, name)
            if value < 0:
                raise InvalidInputError(f"--{name} must be nonnegative, got {value}")
        body, ok = args.func(args)
        digest = _inputs_digest(args)
    except AxiomViolationError as exc:
        payload, code = {
            "command": command,
            "error": "axiom-violation",
            "law": exc.law,
            "witness": list(exc.witness),
        }, 3
    except GrothlocError as exc:
        payload, code = _error_payload(command, exc), 2
    except Exception as exc:  # a fault in grothloc, not in the input
        payload, code = {
            "command": command,
            "error": "internal",
            "detail": f"{type(exc).__name__}: {exc}",
        }, 70
    else:
        payload = {
            "command": command,
            "seed": getattr(args, "seed", 0),
            "inputs_sha256": digest,
        }
        payload.update(body)
        payload.setdefault("checks", {})
        payload["ok"] = ok
        code = 0 if ok else 1
    try:
        _emit(payload, args.out)
    except OSError as exc:
        err = InvalidInputError(f"cannot write {args.out}: {exc}")
        _emit(_error_payload(command, err), None)
        return 2
    if code < 2:
        # the command ran to its report
        elapsed = int((time.monotonic() - started) * 1000)
        print(f"elapsed_ms={elapsed}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
