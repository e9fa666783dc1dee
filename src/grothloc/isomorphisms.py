"""The graded isomorphism between T^-1(R[M]) and (S^-1 R)[G(M)].

T is the multiplicative set {s * eps_m : s in S, m in M} inside R[M].  The
forward map sends a fraction with denominator s * eps_n to the group-ring
element whose [m, n]-term has coefficient r_m / s; the inverse sends each
term (r / s) at [m, n] to r eps_m / (s eps_n) and takes the sum of these in
T^-1(R[M]) over their common monomial denominator.  No gcd reduction is
attempted anywhere; equalities are semantic.
"""
from __future__ import annotations

from .errors import MalformedDenominatorError
from .grothendieck import GrothElement, GrothendieckGroup
from .localization import Fraction, LocalizedRing, MultiplicativeSet
from .monoid import FreeCommutativeMonoid, IntegerLatticeMonoid
from .ring import GroupRing, GroupRingElement, MonoidRing, MRElement
from .rng import Lcg64


class HMapContext:
    """Everything both directions of the map need, built once.

    T generators are the lifted S generators followed by the eps's of the
    monoid's ``t_generators()``, so denominator witnesses compose
    positionally; ``MonoidRing`` decides whether each is a non-zero-divisor.
    """

    def __init__(self, ring, monoid, sgens, *, nzd: bool | None = None):
        self.ring = ring
        self.monoid = monoid
        self.sset = MultiplicativeSet(ring, sgens, nzd=nzd)
        self.loc = LocalizedRing(ring, self.sset)
        self.mring = MonoidRing(ring, self.monoid)
        self.group = GrothendieckGroup(self.monoid)
        self.group_ring = GroupRing(self.group, self.loc)

        lifted = [self.mring.scalar(g) for g in self.sset.generators]
        self._mono_offset = len(lifted)
        mono_gens = [self.mring.epsilon(m) for m in self.monoid.t_generators()]
        self.tset = MultiplicativeSet(self.mring, lifted + mono_gens)
        self.tloc = LocalizedRing(self.mring, self.tset)

    # -- witness plumbing (lifted S generators keep their indices inside T)

    def monomial_witness(self, n) -> tuple:
        return self.monoid.monomial_witness(n, self._mono_offset)

    def monomial_fraction(self, num: MRElement, s, n) -> Fraction:
        """num over the denominator s * eps_n; s must be in the S closure.
        The public entry: s, n and num are checked here, once."""
        s = self.ring.validate(s)
        if not self.sset.contains(s):
            raise MalformedDenominatorError(f"{s!r} is not a recognized S element")
        n = self.monoid.validate(n)
        num = self.mring.validate(num)
        return self._witnessed_fraction(num, self.sset.witness(s), n)

    def _witnessed_fraction(self, num: MRElement, s_wit: tuple, n) -> Fraction:
        """num over s * eps_n, where s is the product of the S generators
        s_wit; num and n are already valid, so nothing is checked again."""
        den = self.mring._reduced({n: self.sset.product_of(s_wit)})
        return Fraction(num, den, s_wit + self.monomial_witness(n))


def h_forward(ctx: HMapContext, f: Fraction):
    """T^-1(R[M]) -> (S^-1 R)[G]: split the numerator by degree.

    The denominator must be a monomial s * eps_n; the part r_m of the
    numerator in degree m lies in the class [m, n], so the image has one
    coefficient per class x, (sum of the r_m with [m, n] = x) / s.  The
    witness of s is the S part of the fraction's own witness (the indices
    below the monomial generators), so products of fractions need not lie
    in the depth-bounded S closure.

    Degrees are walked in sorted order and each is keyed once; a class
    shows its first-seen representative, its numerators are summed in R,
    and a class whose coefficient is zero in S^-1 R is dropped.  A zero
    denominator whose S part multiplies to 0 means 0 is in S and in T: both
    rings are zero, and the image is 0.
    """
    den = f.den
    offset = ctx._mono_offset
    if offset:
        s_wit = tuple(i for i in f.den_witness if i < offset)
        s = ctx.sset.product_of(s_wit)
    else:
        s_wit, s = (), ctx.ring.one
    if den.is_zero() and ctx.ring.is_zero(s):
        return ctx.group_ring.zero()
    if len(den.coeffs) != 1:
        raise MalformedDenominatorError(
            f"denominator support has {len(den.coeffs)} degrees; need exactly 1"
        )
    ((n, c),) = den.coeffs.items()
    if not ctx.ring.eq(s, c):
        raise MalformedDenominatorError(
            f"denominator coefficient {c!r} is not a recognized S element"
        )
    group_key, add = ctx.group.key, ctx.ring.add
    num = f.num.coeffs
    acc = {}
    for m in sorted(num):
        x = GrothElement(m, n)
        k = group_key(x)
        slot = acc.get(k)
        acc[k] = (x, num[m]) if slot is None else (slot[0], add(slot[1], num[m]))
    is_zero = ctx.loc.is_zero
    terms, keys = [], []
    for k, (x, r) in acc.items():
        c = Fraction(r, s, s_wit)
        if not is_zero(c):
            terms.append((x, c))
            keys.append(k)
    return GroupRingElement(ctx.group_ring, terms, keys)


def h_inverse(ctx: HMapContext, u) -> Fraction:
    """(S^-1 R)[G] -> T^-1(R[M]): the sum of r_i eps_{m_i} / (s_i eps_{n_i}).

    T holds only monomials, so the terms have the common denominator
    prod s_i * eps_{n_1 + ... + n_k}, whose witness is each s_i's followed
    by eps_{n_i}'s, term by term.  Term i contributes
    r_i * prod_{j != i} s_j at degree m_i + sum_{j != i} n_j, read off
    prefix and suffix products, so no convolution runs; this is the
    fraction that adding the terms one by one in T^-1(R[M]) gives.  No
    reduction is performed.
    """
    terms = u.terms
    if not terms:
        return ctx.tloc.zero
    mul, op = ctx.ring.mul, ctx.monoid.op
    # after[i]: the product of the s_j and the sum of the n_j over j > i,
    # None for the last term; before is the same over j < i
    after = [None] * len(terms)
    for i in range(len(terms) - 2, -1, -1):
        x, c = terms[i + 1]
        s, n = c.den, x.second
        if after[i + 1] is not None:
            s, n = mul(s, after[i + 1][0]), op(n, after[i + 1][1])
        after[i] = (s, n)
    num, wit, before = {}, (), None
    for (x, c), rest in zip(terms, after):
        r, d = c.num, x.first
        if before is not None:
            r, d = mul(r, before[0]), op(d, before[1])
        if rest is not None:
            r, d = mul(r, rest[0]), op(d, rest[1])
        num[d] = num.get(d, 0) + r
        s, n = c.den, x.second
        if before is not None:
            s, n = mul(before[0], s), op(before[1], n)
        before = (s, n)
        wit += c.den_witness + ctx.monomial_witness(x.second)
    s, n = before
    mring = ctx.mring
    return Fraction(mring._reduced(num), mring._reduced({n: s}), wit)


# ---------------------------------------------------------------------------
# sampling


def _sample_s(ctx: HMapContext, rng: Lcg64, max_powers: int = 2) -> tuple:
    """Witness of a random product of at most max_powers S generators
    (empty when S has none)."""
    gens = ctx.sset.generators
    if not gens:
        return ()
    k = rng.below(max_powers + 1)
    return tuple(rng.below(len(gens)) for _ in range(k))


def sample_t_fraction(ctx: HMapContext, rng: Lcg64, max_support: int = 3,
                      exp_bound: int = 4, coeff_bound: int = 9,
                      max_s_powers: int = 2) -> Fraction:
    """Random numerator over a random monomial denominator s * eps_n."""
    num = ctx.mring.sample(
        rng, max_support=max_support, exp_bound=exp_bound, coeff_bound=coeff_bound
    )
    s_wit = _sample_s(ctx, rng, max_s_powers)
    n = ctx.monoid.sample(rng, exp_bound)
    return ctx._witnessed_fraction(num, s_wit, n)


def sample_group_ring_element(ctx: HMapContext, rng: Lcg64, max_terms: int = 3,
                              exp_bound: int = 4, coeff_bound: int = 9,
                              max_s_powers: int = 2):
    terms = []
    for _ in range(rng.below(max_terms + 1)):
        a = ctx.monoid.sample(rng, exp_bound)
        b = ctx.monoid.sample(rng, exp_bound)
        r = ctx.ring.sample_nonzero(rng, coeff_bound)
        s_wit = _sample_s(ctx, rng, max_s_powers)
        coeff = Fraction(r, ctx.sset.product_of(s_wit), s_wit)
        terms.append((GrothElement(a, b), coeff))
    return ctx.group_ring.from_terms(terms)


# ---------------------------------------------------------------------------
# verification batteries (each returns a plain report dict)


def verify_isomorphism(ctx: HMapContext, samples: int = 200, seed: int = 0,
                       kernel_samples: int | None = None) -> dict:
    """Homomorphism law, both round-trips, and homogeneous kernel triviality."""
    rng = Lcg64(seed)
    gr = ctx.group_ring
    hom_ok = True
    for _ in range(samples):
        f = sample_t_fraction(ctx, rng)
        g = sample_t_fraction(ctx, rng)
        hf, hg = h_forward(ctx, f), h_forward(ctx, g)
        add_match = gr.eq(h_forward(ctx, ctx.tloc.add(f, g)), gr.add(hf, hg))
        mul_match = gr.eq(h_forward(ctx, ctx.tloc.mul(f, g)), gr.mul(hf, hg))
        if not (add_match and mul_match):
            hom_ok = False
    back_ok = True
    for _ in range(samples):
        f = sample_t_fraction(ctx, rng)
        if not ctx.tloc.eq(h_inverse(ctx, h_forward(ctx, f)), f):
            back_ok = False
    forth_ok = True
    for _ in range(samples):
        u = sample_group_ring_element(ctx, rng)
        if not gr.eq(h_forward(ctx, h_inverse(ctx, u)), u):
            forth_ok = False
    if kernel_samples is None:
        kernel_samples = samples
    kernel_ok = True
    zero_hits = 0
    for _ in range(kernel_samples):
        m = ctx.monoid.sample(rng)
        n = ctx.monoid.sample(rng)
        r = ctx.ring.sample(rng)
        s_wit = _sample_s(ctx, rng)
        f = ctx._witnessed_fraction(ctx.mring._reduced({m: r}), s_wit, n)
        if gr.is_zero(h_forward(ctx, f)):
            zero_hits += 1
            if not ctx.tloc.is_zero(f):
                kernel_ok = False
    return {
        "samples": samples,
        "hom_ok": hom_ok,
        "roundtrip_back_ok": back_ok,
        "roundtrip_forth_ok": forth_ok,
        "kernel_samples": kernel_samples,
        "kernel_zero_hits": zero_hits,
        "kernel_trivial_ok": kernel_ok,
        "all_ok": hom_ok and back_ok and forth_ok and kernel_ok,
    }


def laurent_iso(ring, rank: int, samples: int = 200, seed: int = 0,
                exp_bound: int = 4) -> dict:
    """R[Z^k] as the monomial localization of R[N^k], round-tripped exactly.

    A Laurent element embeds by clearing negative exponents with one common
    eps_d; its image must be the group-ring element with the matching keys,
    and products must carry over.
    """
    lat = IntegerLatticeMonoid(rank)
    lring = MonoidRing(ring, lat)
    ctx = HMapContext(ring, FreeCommutativeMonoid(rank), [])
    rng = Lcg64(seed)

    def embed(u: MRElement) -> Fraction:
        if u.coeffs:
            shift = tuple(
                max(0, max(-d[i] for d in u.coeffs)) for i in range(rank)
            )
        else:
            shift = (0,) * rank
        num = ctx.mring._reduced(
            {
                tuple(x + s for x, s in zip(d, shift)): c
                for d, c in u.coeffs.items()
            }
        )
        return ctx._witnessed_fraction(num, (), shift)

    def expected(u: MRElement):
        terms = []
        for d, c in u.coeffs.items():
            pos = tuple(max(x, 0) for x in d)
            neg = tuple(max(-x, 0) for x in d)
            terms.append((GrothElement(pos, neg), Fraction(c, ctx.ring.one, ())))
        return ctx.group_ring.from_terms(terms)

    roundtrip_ok = True
    key_match_ok = True
    product_ok = True
    for _ in range(samples):
        u = lring.sample(rng, max_support=4, exp_bound=exp_bound)
        f = embed(u)
        image = h_forward(ctx, f)
        if not ctx.group_ring.eq(image, expected(u)):
            key_match_ok = False
        if not ctx.tloc.eq(h_inverse(ctx, image), f):
            roundtrip_ok = False
        v = lring.sample(rng, max_support=3, exp_bound=exp_bound)
        lhs = h_forward(ctx, embed(u * v))
        rhs = ctx.group_ring.mul(image, h_forward(ctx, embed(v)))
        if not ctx.group_ring.eq(lhs, rhs):
            product_ok = False
    return {
        "rank": rank,
        "samples": samples,
        "roundtrip_ok": roundtrip_ok,
        "key_match_ok": key_match_ok,
        "product_ok": product_ok,
        "all_ok": roundtrip_ok and key_match_ok and product_ok,
    }
