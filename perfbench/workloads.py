"""The four workloads: generated specs turned into checked calls into grothloc.

Workload.call(spec, rec) runs one op and returns True when every answer
matched the oracle carried in its spec.  rec is the tracer of a traced pass
(or a no-op recorder); only the cli ops use it, to report per-process
timings.
Library functions are looked up on the grothloc package at call time, so
the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import grothloc as gl

import gen
from oracles import convolve, det, matmul, vecmat


class NullRecorder:
    def sample(self, name, value):
        pass

    def run(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _poly(terms) -> dict:
    return {tuple(e): c for c, e in terms}


def _words(relations) -> tuple:
    return tuple((tuple(u), tuple(v)) for u, v in relations)


def _structure_ok(s, expect) -> bool:
    return s.free_rank == expect["free_rank"] and list(s.torsion_invariants) == expect["torsion"]


# ---------------------------------------------------------------------------
# structure: group completions only


def _presentation(spec):
    p = gl.MonoidPresentation(spec["generators"], _words(spec["relations"]))
    ok = _structure_ok(gl.monoid_groth_structure(p), spec["expect"])
    group = gl.GrothendieckGroup(p)
    for a, b, c, d, want in spec["pairs"]:
        x = group.element(tuple(a), tuple(b))
        y = group.element(tuple(c), tuple(d))
        ok &= group.eq(x, y) == want
    return ok


def _order(spec):
    k = spec["generators"]
    p = gl.MonoidPresentation(k, _words(spec["relations"]))
    snf = gl.smith_normal_form(gl.presentation_matrix(p), ncols=k)
    s = gl.structure_from_snf(snf)
    r = spec["expect"]["free_rank"]
    if s.free_rank != r or s.torsion_invariants:
        return False
    order = gl.build_total_order(s, snf)
    zero = (0,) * k
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    cmat = [list(order.coords(gl.GrothElement(e, zero))) for e in basis]
    # rows of R: the first k - r span the relation lattice, the rest a
    # complement, so coordinates must kill the first and be unimodular on
    # the rest
    rc = matmul(spec["right"], cmat)
    ok = not any(any(row) for row in rc[: k - r]) and abs(det(rc[k - r:])) == 1
    for a, b in spec["samples"]:
        got = order.coords(gl.GrothElement(tuple(a), tuple(b)))
        ok &= list(got) == vecmat([x - y for x, y in zip(a, b)], cmat)
    return ok


def _snf_cayley(spec):
    p = gl.MonoidPresentation(spec["n"], _words(spec["relations"]))
    return _structure_ok(gl.monoid_groth_structure(p), spec["expect"])


def _groth_finite(spec):
    m = gl.DirectSumMonoid(gl.CayleyMonoid(t, identity=e) for t, e in spec["components"])
    return _structure_ok(gl.monoid_groth_structure(m), spec["expect"])


# ---------------------------------------------------------------------------
# graded: shared localized monoid rings over cancellative bases


@dataclass
class GradedContext:
    mod: int | None
    mring: object
    loc: object
    hmap: object


def build_graded(shared) -> list:
    out = []
    for spec in shared:
        ring = gl.ModRing(spec["mod"]) if spec["mod"] else gl.IntegerRing()
        monoid = gl.FreeCommutativeMonoid(spec["rank"])
        mring = gl.MonoidRing(ring, monoid)
        gens = [mring.scalar(c) for c in spec["const"]] + [mring.epsilon(tuple(e)) for e in spec["mono"]]
        sset = gl.MultiplicativeSet(mring, gens, nzd=True)
        loc = gl.LocalizedRing(mring, sset)
        hmap = gl.HMapContext(ring, monoid, list(spec["const"]), nzd=True)
        out.append(GradedContext(spec["mod"], mring, loc, hmap))
    return out


def _decompose(spec, ctxs):
    c = ctxs[spec["ctx"]]
    loc, mring = c.loc, c.mring
    ok = True
    for pair in spec["pairs"]:
        f = loc.from_witness(mring.element(_poly(pair["f"])), tuple(pair["f_wit"]))
        g = loc.from_witness(mring.element(_poly(pair["g"])), tuple(pair["g_wit"]))
        parts = gl.decompose_fraction(loc, loc.mul(f, g))
        want = _poly(pair["product"])
        den_coeff, den_exp = pair["den"][0], tuple(pair["den"][1])
        ok &= len(parts) == len(want)
        for key, part in parts.items():
            m = key.first
            ok &= (
                key.second == den_exp
                and m in want
                and part.num.coeffs == {m: want[m]}
                and part.den.coeffs == {den_exp: den_coeff}
            )
    return ok


def _iso(spec, ctxs):
    c = ctxs[spec["ctx"]]
    h = c.hmap
    ok = gl.verify_isomorphism(h, samples=spec["samples"], seed=spec["seed"])["all_ok"] is True
    for fr in spec["fracs"]:
        num, n, s = _poly(fr["num"]), tuple(fr["n"]), fr["s"]
        f = h.monomial_fraction(h.mring.element(num), s, n)
        u = gl.h_forward(h, f)
        ok &= len(u.terms) == len(num)
        for key, coeff in u.terms:
            ok &= key.second == n and num.get(key.first) == coeff.num and coeff.den == s
        back = gl.h_inverse(h, u)
        # equal fractions over a domain: cross products agree
        ok &= convolve(back.num.coeffs, f.den.coeffs, c.mod) == convolve(f.num.coeffs, back.den.coeffs, c.mod)
    return ok


def _laurent(spec):
    ring = gl.ModRing(spec["mod"]) if spec["mod"] else gl.IntegerRing()
    rep = gl.laurent_iso(ring, spec["rank"], samples=spec["samples"], seed=spec["seed"])
    lring = gl.MonoidRing(ring, gl.IntegerLatticeMonoid(spec["rank"]))
    prod = lring.element(_poly(spec["u"])) * lring.element(_poly(spec["v"]))
    return rep["all_ok"] is True and prod.coeffs == _poly(spec["uv"])


# ---------------------------------------------------------------------------
# finite: exhaustive sweeps with a fresh structure per op


def _units(spec):
    ring = gl.ModRing(spec["n"])
    sset = gl.MultiplicativeSet(ring, spec["gens"])
    rep = gl.groth_units_iso(sset, gl.LocalizedRing(ring, sset))
    want = spec["expect"]
    return (
        rep.iso
        and rep.unit_order == want["units"]
        and rep.groth_order == want["units"]
        and len(rep.saturation.elements) == want["saturation"]
    )


def _one_plus(spec):
    out = gl.one_plus_ideal_check(gl.ModRing(spec["n"]), spec["gens"])
    want = spec["expect"]
    return (
        out["iso_ok"] is True
        and out["saturation_equals_t"] is True
        and out["unit_count"] == out["groth_order"] == want["units"]
        and out["s_size"] == want["s_size"]
    )


def _fourway(spec):
    m = gl.CayleyMonoid(spec["table"], identity=spec["identity"])
    group = gl.GrothendieckGroup(m)
    mring = gl.MonoidRing(gl.ModRing(spec["q"]), m)
    nzd = spec["expect"]["nzd"]
    cancellative = all(nzd)
    ok = gl.canonical_map_injective(group) == cancellative
    ok &= [gl.monomial_is_nonzerodivisor(mring, x) for x in range(len(nzd))] == nzd
    ok &= gl.group_ring_map_injective(mring, group) == cancellative
    return ok


def _iso_finite(spec):
    p = spec["p"]
    m = gl.CayleyMonoid(spec["table"], identity=spec["identity"])
    h = gl.HMapContext(gl.ModRing(p), m, [])
    ok = gl.verify_isomorphism(h, samples=spec["samples"], seed=spec["seed"])["all_ok"] is True
    # G(M) is trivial for both monoids, so the image of a fraction is its
    # coefficient sum at the single class
    for fr in spec["fracs"]:
        num = {d: c for d, c in fr["num"]}
        u = gl.h_forward(h, h.monomial_fraction(h.mring.element(num), 1, fr["n"]))
        total = sum(num.values()) % p
        if total == 0:
            ok &= not u.terms
        else:
            ok &= len(u.terms) == 1 and (u.terms[0][1].num - total * u.terms[0][1].den) % p == 0
    return ok


# ---------------------------------------------------------------------------
# cli: python -m grothloc as a child process, one at a time


def child_env(root) -> dict:
    """Environment for a child interpreter that imports grothloc from root/src.

    Bytecode caches are written whatever the caller's environment says, so
    the untimed import that run.py starts first leaves the caches that every
    timed child then reads: the same state on every run.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# `python -m grothloc argv...`: runpy runs the package's __main__ as -m does.
# Around it the child measures its own host speed (hostspeed.py), at start
# and at exit, and prints it to stderr; the parent's speed does not follow
# a child's.
CLI_MAIN = (
    "import atexit, runpy, sys; sys.path.insert(0, {here!r}); from hostspeed import host_speed; "
    "sys.path.pop(0); before = host_speed(); "
    "atexit.register(lambda: print('host_speed=%r' % ((before + host_speed()) / 2), file=sys.stderr)); "
    "runpy.run_module('grothloc', run_name='__main__', alter_sys=True)"
).format(here=os.path.dirname(os.path.abspath(__file__)))


@dataclass
class CliState:
    root: str
    env: dict
    corpus_bytes: dict = field(default_factory=dict)
    # host speed the last child reported, None if it reported none
    speed: float | None = None


def _cli(spec, state, rec):
    argv = spec["argv"]
    state.speed = None
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *argv],
        cwd=state.root, env=state.env, capture_output=True, timeout=150,
    )
    proc_ms = (perf_counter() - t0) * 1000
    rec.sample("cli.proc_ms", proc_ms)
    rec.sample("cli.report_bytes", len(proc.stdout))
    for line in proc.stderr.decode().splitlines():
        key, _, value = line.partition("=")
        if key == "elapsed_ms":
            inproc = float(value)
            rec.sample("cli.inproc_ms", inproc)
            rec.sample("cli.startup_ms", proc_ms - inproc)
        elif key == "host_speed":
            state.speed = float(value)
    if proc.returncode != 0:
        return False
    report = json.loads(proc.stdout)
    results = report["results"]
    ok = report["ok"] is True
    for key, want in spec["expect"].items():
        ok &= results.get(key) == want
    if spec["kind"] == "corpus run":
        ok &= results["passed"] == results["total"]
        seed = argv[-1]
        ok &= state.corpus_bytes.setdefault(seed, proc.stdout) == proc.stdout
    return ok


# ---------------------------------------------------------------------------


OPS = {
    "presentation": _presentation,
    "order": _order,
    "snf_cayley": _snf_cayley,
    "groth_finite": _groth_finite,
    "laurent": _laurent,
    "units": _units,
    "one_plus": _one_plus,
    "fourway": _fourway,
    "iso_finite": _iso_finite,
}
SHARED_OPS = {"decompose": _decompose, "iso": _iso}


class Workload:
    """Generated inputs of one run plus whatever its ops share."""

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.root = root
        self.inputs = gen.generate(name, seed, root)
        self.state = None
        self.build()

    def build(self):
        """(Re)build the structures that this workload's ops share."""
        if self.name == "graded":
            self.state = build_graded(self.inputs["shared"])
        elif self.name == "cli":
            self.state = CliState(self.root, child_env(self.root))

    @property
    def decks(self):
        return self.inputs["decks"]

    def call(self, spec, rec) -> bool:
        kind = spec["kind"]
        if self.name == "cli":
            return _cli(spec, self.state, rec)
        if kind in SHARED_OPS:
            return SHARED_OPS[kind](spec, self.state)
        return OPS[kind](spec)

    def child_speed(self):
        """Host speed of the child process that ran the last op, if any did."""
        return self.state.speed if self.name == "cli" else None

    def sizes(self) -> dict:
        out = dict(self.inputs["sizes"])
        if self.name == "graded":
            out["closure_sizes"] = [len(c.loc.sset.closure) for c in self.state]
            out["t_closure_sizes"] = [len(c.hmap.tset.closure) for c in self.state]
        return out
