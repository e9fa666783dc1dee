"""Seeded inputs for the four workloads, as plain JSON-able data.

Every workload is a list of decks.  A deck holds the same op kinds at the
same problem sizes in every deck and for every seed; the seed only chooses
the contents (relabelings, unimodular transforms, coefficients, generator
choices).  So the cost profile of a deck, and with it the latency
percentiles, stays put from seed to seed while the inputs differ.  Expected
answers come from oracles.py and travel with each op.
"""
from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

from oracles import (
    closure_size,
    convolve,
    coprime_part,
    cyclic_sum_torsion,
    in_row_lattice,
    one_plus_ideal,
    phi,
    saturation_size,
    translations_injective,
    vecmat,
)

DECKS = 8
PRIMES = (5, 7, 11, 13)


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"grothloc-perfbench/{workload}/{seed}/{part}")


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# tables


def relabel(table, identity, rng):
    """The same monoid with its elements renamed by a random permutation."""
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = pi[table[i][j]]
    return out, pi[identity]


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def mult_mod(n):
    return [[(i * j) % n for j in range(n)] for i in range(n)]


def join_chain(n):
    return [[max(i, j) for j in range(n)] for i in range(n)]


def product_table(a, b):
    """Direct sum of two tables, element (x, y) stored as x * len(b) + y."""
    nb = len(b)
    n = len(a) * nb
    return [
        [a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(n)]
        for i in range(n)
    ]


def group_table(size, rng):
    """A finite abelian group of the given order (cancellative)."""
    splits = [(a, size // a) for a in range(2, size) if size % a == 0 and gcd(a, size // a) > 1]
    if splits and rng.random() < 0.5:
        a, b = rng.choice(splits)
        return product_table(cyclic(a), cyclic(b)), 0
    return cyclic(size), 0


def noncancellative_table(size, rng):
    """A finite commutative monoid of the given order that is not cancellative."""
    options = [(join_chain(size), 0), (mult_mod(size), 1)]
    if size % 2 == 0:
        options.append((product_table(join_chain(2), cyclic(size // 2)), 0))
    return rng.choice(options)


# ---------------------------------------------------------------------------
# presentations with known invariant factors


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# largest entry a row operation may leave in a unimodular factor
UNIMODULAR_CAP = 12
# largest exponent of a generator in a random word
WORD_MAX = 4


def unimodular(rng, n, steps):
    """A random unimodular matrix and its inverse, built from row operations."""
    r, rinv = _identity(n), _identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            r[i], r[j] = r[j], r[i]
            for row in rinv:
                row[i], row[j] = row[j], row[i]
            continue
        q = rng.choice((-2, -1, 1, 2))
        new = [x + q * y for x, y in zip(r[i], r[j])]
        if max(abs(x) for x in new) > UNIMODULAR_CAP:
            continue
        r[i] = new
        for row in rinv:
            row[j] -= q * row[i]
    return r, rinv


def known_presentation(rng, k, m, diag):
    """Relations whose matrix is L * D * R, so the answer is read off D.

    Returns the relation words plus R^-1, from which lattice membership of
    any word difference follows (oracles.in_row_lattice).
    """
    left, _ = unimodular(rng, m, 2 * m)
    right, rinv = unimodular(rng, k, 3 * k)
    dr = [[d * x for x in right[i]] for i, d in enumerate(diag)]
    dr += [[0] * k for _ in range(m - len(diag))]
    rows = [vecmat(lrow, dr) for lrow in left]
    rels = [
        [[max(x, 0) for x in row], [max(-x, 0) for x in row]] for row in rows
    ]
    return rels, right, rinv


def _chain(rng, t):
    out, d = [], 1
    for _ in range(t):
        d *= rng.choice((1, 1, 2, 3))
        out.append(d)
    return out


def _word(rng, k):
    return [rng.randint(0, WORD_MAX) for _ in range(k)]


def _eq_pairs(rng, k, right, rinv, diag, count):
    """Class pairs ([a,b], [c,d]) with the oracle's verdict on their equality."""
    pairs = []
    for i in range(count):
        b, c, d = _word(rng, k), _word(rng, k), _word(rng, k)
        if i % 2 == 0:
            z = [rng.randint(-2, 2) * diag[j] if j < len(diag) else 0 for j in range(k)]
            w = vecmat(z, right)
            a = [wi + bi + ci - di for wi, bi, ci, di in zip(w, b, c, d)]
            shift = max(0, -min(a))
            a = [x + shift for x in a]
            b = [x + shift for x in b]
        else:
            a = _word(rng, k)
        w = [ai + di - bi - ci for ai, bi, ci, di in zip(a, b, c, d)]
        pairs.append([a, b, c, d, in_row_lattice(w, rinv, diag)])
    return pairs


def _cayley_relations(table, rng):
    """One relation e_a + e_b = e_(a*b) per unordered pair, shuffled."""
    n = len(table)
    rels = []
    for a in range(n):
        for b in range(a, n):
            u = [0] * n
            u[a] += 1
            u[b] += 1
            v = [0] * n
            v[table[a][b]] += 1
            rels.append([u, v] if rng.random() < 0.5 else [v, u])
    rng.shuffle(rels)
    return rels


# ---------------------------------------------------------------------------
# structure


# smith_normal_form's entries explode on some presentations with 7 or more
# generators and long torsion chains (about 1 in 100 such inputs ran for
# minutes without finishing), so presentations stay at 6 generators or fewer
# and every run completes.
STRUCTURE_PRESENTATIONS = (4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6)
STRUCTURE_ORDERS = ((3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4))
# Sorted by cost a deck is 22 light presentation and order ops, 8 medium
# ops, five SNFs of the 210x20 Cayley matrix around the 90th percentile and
# two heavy ops on top (T2+Z2+Z6 and the 465x30 matrix), so the median and
# the 90th percentile each fall inside a cluster of like ops.
STRUCTURE_CAYLEY = (12, 13, 14, 15, 16, 18, 20, 20, 20, 20, 20, 30)
STRUCTURE_FINITE = ((2, 3), (2, 3), (2, 6))


def _structure_deck(rng):
    ops = []
    for k in STRUCTURE_PRESENTATIONS:
        t = rng.randint(k // 2, k)
        diag = _chain(rng, t)
        rels, right, rinv = known_presentation(rng, k, t + 2, diag)
        ops.append({
            "kind": "presentation", "generators": k, "relations": rels,
            "pairs": _eq_pairs(rng, k, right, rinv, diag, 8),
            "expect": {"free_rank": k - len(diag), "torsion": [d for d in diag if d > 1]},
        })
    for k, r in STRUCTURE_ORDERS:
        rels, right, rinv = known_presentation(rng, k, k - r + 1, [1] * (k - r))
        ops.append({
            "kind": "order", "generators": k, "relations": rels, "right": right,
            "samples": [[_word(rng, k), _word(rng, k)] for _ in range(30)],
            "expect": {"free_rank": r},
        })
    for n in STRUCTURE_CAYLEY:
        table, _ = relabel(mult_mod(n), 1, rng)
        ops.append({
            "kind": "snf_cayley", "n": n, "relations": _cayley_relations(table, rng),
            "expect": {"free_rank": 0, "torsion": []},
        })
    for ab in STRUCTURE_FINITE:
        a, b = rng.sample(ab, 2)
        parts = [relabel(join_chain(2), 0, rng), relabel(cyclic(a), 0, rng), relabel(cyclic(b), 0, rng)]
        rng.shuffle(parts)
        ops.append({
            "kind": "groth_finite", "components": [[t, e] for t, e in parts],
            "expect": {"free_rank": 0, "torsion": cyclic_sum_torsion(a, b)},
        })
    rng.shuffle(ops)
    return ops


def _structure_sizes(decks):
    ops = [op for deck in decks for op in deck]
    return {
        "snf_shapes": sorted({
            f"{len(op['relations'])}x{op['generators'] if 'generators' in op else op['n']}"
            for op in ops if "relations" in op
        }, key=lambda s: [int(x) for x in s.split("x")]),
        "cayley_n": sorted(set(STRUCTURE_CAYLEY)),
        "finite_monoid_sizes": [2 * a * b for a, b in STRUCTURE_FINITE],
    }


# ---------------------------------------------------------------------------
# graded


def _coeff(rng, mod):
    if mod:
        return rng.randint(1, mod - 1)
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _poly(rng, mod, rank, terms, lo, hi):
    terms = min(terms, (hi - lo + 1) ** rank)
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(lo, hi) for _ in range(rank)))
    return {e: _coeff(rng, mod) for e in sorted(exps)}


def _as_list(poly):
    return [[c, list(e)] for e, c in sorted(poly.items())]


def graded_contexts(rng):
    """The shared localized rings: (Z/p or Z, free rank, denominators)."""
    p1, p2 = rng.choice(PRIMES), rng.choice(PRIMES)
    consts = rng.sample((2, 3, 5, 7), 2)

    def mono(rank):
        while True:
            e = [rng.randint(0, 2) for _ in range(rank)]
            if any(e):
                return e

    return [
        {"mod": p1, "rank": 1, "const": [], "mono": []},
        {"mod": None, "rank": 2, "const": consts, "mono": []},
        {"mod": p1, "rank": 2, "const": [], "mono": [mono(2), mono(2)]},
        {"mod": p2, "rank": 3, "const": [rng.randint(2, p2 - 1)], "mono": []},
        {"mod": None, "rank": 3, "const": [], "mono": [mono(3)]},
    ]


GRADED_DECOMPOSE = {1: (12, 0, 14), 2: (12, 0, 5), 3: (10, 0, 3)}


def _den(ctx, witness):
    """Denominator of a witness: (exponent vector, coefficient)."""
    exp, coeff = [0] * ctx["rank"], 1
    gens = ctx["const"] or ctx["mono"]
    for i in witness:
        if ctx["const"]:
            coeff *= gens[i]
        else:
            exp = [x + y for x, y in zip(exp, gens[i])]
    if ctx["mod"]:
        coeff %= ctx["mod"]
    return exp, coeff


def _graded_deck(rng, contexts):
    ops = []
    for ci, ctx in enumerate(contexts * 2):
        ci %= len(contexts)
        mod, rank = ctx["mod"], ctx["rank"]
        terms, lo, hi = GRADED_DECOMPOSE[rank]
        ngens = len(ctx["const"] or ctx["mono"])
        pairs = []
        for _ in range(3):
            f, g = (_poly(rng, mod, rank, terms, lo, hi) for _ in range(2))
            wf, wg = ([rng.randrange(ngens) for _ in range(rng.randint(0, 2))] if ngens else [] for _ in range(2))
            den_exp, den_coeff = _den(ctx, wf + wg)
            pairs.append({
                "f": _as_list(f), "f_wit": wf, "g": _as_list(g), "g_wit": wg,
                "product": _as_list(convolve(f, g, mod)),
                "den": [den_coeff, den_exp],
            })
        ops.append({"kind": "decompose", "ctx": ci, "pairs": pairs})
    for ci, ctx in enumerate(contexts):
        mod, rank = ctx["mod"], ctx["rank"]
        fracs = []
        for _ in range(3):
            num = _poly(rng, mod, rank, 4, 0, 4)
            wit = [rng.randrange(len(ctx["const"])) for _ in range(rng.randint(0, 2))] if ctx["const"] else []
            fracs.append({
                "num": _as_list(num), "s": _den(ctx, wit)[1] if ctx["const"] else 1,
                "n": [rng.randint(0, 4) for _ in range(rank)],
            })
        ops.append({
            "kind": "iso", "ctx": ci, "samples": 30, "seed": rng.randrange(1 << 30),
            "fracs": fracs,
        })
    for mod, rank in ((PRIMES[rng.randrange(4)], 1), (None, 2), (PRIMES[rng.randrange(4)], 3), (None, 1), (PRIMES[rng.randrange(4)], 2)):
        u = _poly(rng, mod, rank, 6, -3, 3)
        v = _poly(rng, mod, rank, 6, -3, 3)
        ops.append({
            "kind": "laurent", "mod": mod, "rank": rank, "samples": 30,
            "seed": rng.randrange(1 << 30), "u": _as_list(u), "v": _as_list(v),
            "uv": _as_list(convolve(u, v, mod)),
        })
    rng.shuffle(ops)
    return ops


def _graded_sizes(decks, contexts):
    ops = [op for deck in decks for op in deck]
    supports = [len(p["product"]) for op in ops if op["kind"] == "decompose" for p in op["pairs"]]
    return {
        "contexts": [
            {"ring": f"Z/{c['mod']}" if c["mod"] else "Z", "rank": c["rank"],
             "S": "constants" if c["const"] else "monomials" if c["mono"] else "empty"}
            for c in contexts
        ],
        "factor_supports": {str(r): v[0] for r, v in GRADED_DECOMPOSE.items()},
        "product_support_min": min(supports),
        "product_support_max": max(supports),
    }


# ---------------------------------------------------------------------------
# finite


# A deck sorts into clusters of like cost: six light ops, six around the
# median (the isomorphism checks and the Z/6 sweeps over groups of order
# 4), four medium, three Z/72 unit correspondences around the 90th
# percentile and Z/120 on top.  Each percentile then falls inside a cluster,
# not on the edge between two.
# (n, prime dividing every generator or 1, generators, size of their
# multiplicative closure).  The closure size sets the cost of the
# exhaustive equality, so it is fixed per slot and only the generators vary.
FINITE_UNITS = ((24, 2, 1, 4), (24, 2, 1, 4), (48, 3, 2, 5), (60, 1, 2, 8),
                (72, 2, 1, 5), (72, 2, 1, 5), (72, 2, 1, 5), (120, 2, 1, 6))
FINITE_ONE_PLUS = ((24, 4),)
FINITE_FOURWAY = ((2, "group", 6), (2, "noncanc", 8), (2, "group", 8), (2, "noncanc", 6),
                  (6, "group", 4), (6, "group", 4), (6, "noncanc", 5))
FINITE_ISO = ("t2", "mult6", "t2", "mult6")


def _unit_mod(rng, n):
    while True:
        u = rng.randrange(1, n)
        if gcd(u, n) == 1:
            return u


def _finite_deck(rng):
    ops = []
    for n, prime, count, size in FINITE_UNITS:
        while True:
            gens = [_unit_mod(rng, n) * prime ** rng.randint(1, 2) % n for _ in range(count)]
            if closure_size(n, gens) == size:
                break
        m = coprime_part(n, gens)
        ops.append({
            "kind": "units", "n": n, "gens": gens,
            "expect": {"units": phi(m), "saturation": saturation_size(n, gens)},
        })
    for n, d in FINITE_ONE_PLUS:
        g = d * _unit_mod(rng, n) % n
        s = one_plus_ideal(n, g)
        ops.append({
            "kind": "one_plus", "n": n, "gens": [g],
            "expect": {"units": phi(coprime_part(n, s)), "s_size": len(s)},
        })
    for q, family, size in FINITE_FOURWAY:
        table, ident = (group_table if family == "group" else noncancellative_table)(size, rng)
        table, ident = relabel(table, ident, rng)
        ops.append({
            "kind": "fourway", "q": q, "table": table, "identity": ident,
            "expect": {"nzd": translations_injective(table)},
        })
    for name in FINITE_ISO:
        table, ident = relabel(join_chain(2) if name == "t2" else mult_mod(6), 0 if name == "t2" else 1, rng)
        p = rng.choice((2, 3))
        fracs = []
        for _ in range(3):
            num = {m: rng.randint(1, p - 1) for m in rng.sample(range(len(table)), rng.randint(1, len(table)))}
            fracs.append({"num": sorted(num.items()), "n": rng.randrange(len(table))})
        ops.append({
            "kind": "iso_finite", "table": table, "identity": ident, "p": p,
            "samples": 40, "seed": rng.randrange(1 << 30), "fracs": fracs,
        })
    rng.shuffle(ops)
    return ops


def _finite_sizes(decks):
    return {
        "units_n": [n for n, _, _, _ in FINITE_UNITS],
        "units_closure_sizes": [size for _, _, _, size in FINITE_UNITS],
        "units_saturation_sizes": sorted({
            op["expect"]["saturation"] for deck in decks for op in deck if op["kind"] == "units"
        }),
        "one_plus_n": [n for n, _ in FINITE_ONE_PLUS],
        "fourway": [f"|M|={s} Z/{q} {f}" for q, f, s in FINITE_FOURWAY],
        "nzd_candidates_max": max(q ** s for q, _, s in FINITE_FOURWAY),
        "iso_monoids": list(FINITE_ISO),
    }


# ---------------------------------------------------------------------------
# cli


FIXTURES = ("t2", "z4", "z6_mult", "free2", "numsg_2_3")
# Group completions of the packaged fixtures, from the mathematics: N^2 and
# the numerical semigroup <2,3> complete to Z^2 and Z, Z/4 is a group, and a
# join semilattice or a monoid with an absorbing zero completes to 0.
FIXTURE_GROTH = {
    "t2": [0, []], "z4": [0, [4]], "z6_mult": [0, []], "free2": [2, []], "numsg_2_3": [1, []],
}


def fixture_path(name):
    return f"src/grothloc/corpus/{name}.json"


def _cli_deck(rng, root, corpus_seed):
    tables = {
        name: json.loads((Path(root) / fixture_path(name)).read_text())["table"]
        for name in ("t2", "z4", "z6_mult")
    }

    def op(label, argv, **expect):
        return {"kind": label, "argv": argv, "expect": expect}

    def sd():
        return ["--seed", str(rng.randrange(1 << 20))]

    ops = []
    for name in tables:
        ops.append(op("monoid check", ["monoid", "check", fixture_path(name)] + sd(),
                      cancellative=all(translations_injective(tables[name]))))
    for name in rng.sample(FIXTURES, 3):
        free, torsion = FIXTURE_GROTH[name]
        ops.append(op("groth compute", ["groth", "compute", "--monoid", fixture_path(name)],
                      free_rank=free, torsion=torsion))
    for name in ("numsg_2_3", "free2"):
        ops.append(op("groth order", ["groth", "order", "--monoid", fixture_path(name),
                                      "--samples", str(rng.randint(100, 200))] + sd(),
                      orderable=True))
    for name in rng.sample(sorted(tables), 2):
        q = rng.choice((2, 3))
        argv = ["mring", "nzd", "--ring", json.dumps({"kind": "Zmod", "n": q}),
                "--monoid", fixture_path(name)]
        if rng.random() < 0.5:
            deg = rng.randrange(len(tables[name]))
            ops.append(op("mring nzd", argv + ["--degree", str(deg)],
                          nonzerodivisor=translations_injective(tables[name])[deg]))
        else:
            ops.append(op("mring nzd", argv,
                          all_nonzerodivisors=all(translations_injective(tables[name]))))
    for _ in range(3):
        p = rng.choice(PRIMES)
        num = _poly(rng, p, 2, rng.randint(4, 8), 0, 4)
        gen = [rng.randint(0, 2), rng.randint(1, 2)]
        frac = {"num": _as_list(num), "den_witness": [0] * rng.randint(0, 3)}
        ops.append(op("localize decompose", [
            "localize", "decompose", "--ring", json.dumps({"kind": "Zmod", "n": p}),
            "--monoid", fixture_path("free2"), "--sgens", json.dumps([[[1, gen]]]),
            "--fraction", json.dumps(frac)], component_count=len(num)))
    for _ in range(2):
        n = rng.choice((12, 18, 20, 24, 28))
        gens = [rng.randrange(1, n)]
        m = coprime_part(n, gens)
        ops.append(op("localize units", [
            "localize", "units", "--ring", json.dumps({"kind": "Zmod", "n": n}),
            "--sgens", json.dumps(gens)], units=phi(m), groth_order=phi(m),
            saturation_size=saturation_size(n, gens)))
    for _ in range(2):
        p = rng.choice(PRIMES)
        sg = [rng.randint(2, p - 1)] if rng.random() < 0.5 else []
        ops.append(op("iso verify", [
            "iso", "verify", "--ring", json.dumps({"kind": "Zmod", "n": p}),
            "--monoid", fixture_path("free2"), "--sgens", json.dumps(sg),
            "--samples", str(rng.randint(40, 60))] + sd()))
    for _ in range(2):
        ring = {"kind": "Zmod", "n": rng.choice(PRIMES)} if rng.random() < 0.5 else {"kind": "Z"}
        ops.append(op("iso laurent", [
            "iso", "laurent", "--ring", json.dumps(ring), "--rank", str(rng.randint(1, 2)),
            "--samples", str(rng.randint(40, 60))] + sd()))
    ops.append(op("corpus run", ["corpus", "run", "--seed", str(corpus_seed)]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, root: str) -> dict:
    """All inputs of one run: decks, shared-context specs and size facts."""
    shared = None
    if workload == "structure":
        decks = [_structure_deck(_rng(workload, seed, i)) for i in range(DECKS)]
        sizes = _structure_sizes(decks)
    elif workload == "graded":
        shared = graded_contexts(_rng(workload, seed, "contexts"))
        decks = [_graded_deck(_rng(workload, seed, i), shared) for i in range(DECKS)]
        sizes = _graded_sizes(decks, shared)
    elif workload == "finite":
        decks = [_finite_deck(_rng(workload, seed, i)) for i in range(DECKS)]
        sizes = _finite_sizes(decks)
    elif workload == "cli":
        corpus_seed = _rng(workload, seed, "corpus").randrange(1 << 20)
        decks = [_cli_deck(_rng(workload, seed, i), root, corpus_seed) for i in range(DECKS)]
        sizes = {"fixtures": list(FIXTURES), "corpus_seed": corpus_seed}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sizes["ops_per_deck"] = len(decks[0])
    sizes["decks"] = len(decks)
    return {
        "decks": decks,
        "shared": shared,
        "sizes": sizes,
        "digest": digest({"decks": decks, "shared": shared}),
    }
