"""The localization-to-group-ring dictionary, checked in both directions."""
import inspect

import pytest

from grothloc import (
    BaseMismatchError,
    Fraction,
    GroupRingElement,
    CayleyMonoid,
    FreeCommutativeMonoid,
    GrothElement,
    HMapContext,
    IntegerRing,
    Lcg64,
    MalformedDenominatorError,
    MalformedElementError,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    h_forward,
    h_inverse,
    laurent_iso,
    sample_group_ring_element,
    sample_t_fraction,
    verify_isomorphism,
)
from grothloc.isomorphisms import _sample_s

import zoo
from oracles import common_denominator_h_inverse, fold_h_inverse


@pytest.fixture
def line_ctx():
    """(Z/5)[x] with nothing inverted beyond the monomials."""
    return HMapContext(ModRing(5), FreeCommutativeMonoid(1), [])


class TestContextLayout:
    def test_t_generators(self, line_ctx):
        # no lifted S generators, one monomial generator eps_x
        assert line_ctx.sset.generators == []
        assert len(line_ctx.tset.generators) == 1
        assert line_ctx.tset.generators[0] == line_ctx.mring.epsilon((1,))

    def test_lifted_generators_come_first(self):
        ctx = HMapContext(IntegerRing(), FreeCommutativeMonoid(1), [2])
        assert ctx.tset.generators[0] == ctx.mring.scalar(2)
        assert ctx.tset.generators[1] == ctx.mring.epsilon((1,))

    def test_monomial_fraction_checks_s_membership(self, line_ctx):
        with pytest.raises(MalformedDenominatorError):
            line_ctx.monomial_fraction(line_ctx.mring.one, 3, (0,))

    @pytest.mark.parametrize("num, s, n, error, message", [
        ("one", 1, (1, -1), MalformedElementError, "negative exponent in (1, -1)"),
        ("one", 1, (1,), MalformedElementError, "expected 2-tuple, got (1,)"),
        ("one", 1, [0, 0], MalformedElementError, "expected 2-tuple, got [0, 0]"),
        ("other", 1, (0, 0), BaseMismatchError, "element belongs to a different monoid ring"),
        (5, 1, (0, 0), MalformedElementError, "expected monoid-ring element, got 5"),
        ("one", 0, (0, 0), MalformedDenominatorError, "0 is not a recognized S element"),
        ("one", "x", (0, 0), MalformedElementError, "expected integer, got 'x'"),
        ("one", True, (0, 0), MalformedElementError, "expected integer, got True"),
        ("other", 1, (1, -1), MalformedElementError, "negative exponent in (1, -1)"),
        ("other", 0, (1, -1), MalformedDenominatorError, "0 is not a recognized S element"),
    ])
    def test_monomial_fraction_checks_its_inputs_once(self, num, s, n, error, message):
        """The public entry checks s, then n, then num, with the messages the
        checks inside the fraction builder gave."""
        ctx = HMapContext(ModRing(7), FreeCommutativeMonoid(2), [3])
        num = {"one": ctx.mring.one,
               "other": MonoidRing(ModRing(5), FreeCommutativeMonoid(2)).one}.get(num, num)
        with pytest.raises(error) as exc:
            ctx.monomial_fraction(num, s, n)
        assert str(exc.value) == message


class TestForwardMap:
    def test_hand_computed_image(self, line_ctx):
        """(3x^2 + x) / x maps to 3 at [2,1] plus 1 at [1,1]."""
        ctx = line_ctx
        num = ctx.mring.element({(2,): 3, (1,): 1})
        f = ctx.monomial_fraction(num, 1, (1,))
        u = h_forward(ctx, f)
        group = ctx.group
        assert len(u.terms) == 2
        got = {(key.first, key.second): c.num for key, c in u.terms}
        assert got == {((2,), (1,)): 3, ((1,), (1,)): 1}
        # [2,1] and [1,1] really are the classes of x and 1
        by_first = {key.first: key for key, _ in u.terms}
        assert group.eq(by_first[(2,)], group.canonical((1,)))
        assert group.eq(by_first[(1,)], group.canonical((0,)))

    def test_rejects_non_monomial_denominator(self, line_ctx):
        from grothloc import Fraction
        ctx = line_ctx
        den = ctx.mring.one + ctx.mring.epsilon((1,))
        bad = Fraction(ctx.mring.one, den, ())
        with pytest.raises(MalformedDenominatorError):
            h_forward(ctx, bad)

    def test_coefficient_outside_s_rejected(self):
        """3*x over Z at S = <2>: no S part of any witness multiplies to 3."""
        from grothloc import Fraction
        ctx = HMapContext(IntegerRing(), FreeCommutativeMonoid(1), [2])
        den = ctx.mring.element({(1,): 3})
        for wit in [(1,), (0, 1)]:
            with pytest.raises(MalformedDenominatorError):
                h_forward(ctx, Fraction(ctx.mring.one, den, wit))

    def test_products_beyond_the_closure_depth(self):
        """The S closure over Z stops at 2^8, but 2^10 = 2^5 * 2^5 keeps its witness."""
        ctx = HMapContext(IntegerRing(), FreeCommutativeMonoid(1), [2])
        assert ctx.sset.contains(2 ** 5) and not ctx.sset.contains(2 ** 10)
        f = ctx.monomial_fraction(ctx.mring.element({(2,): 1}), 2 ** 5, (1,))
        u = h_forward(ctx, ctx.tloc.mul(f, f))
        ((_, c),) = u.terms
        assert (c.den, c.den_witness) == (2 ** 10, (0,) * 10)
        assert ctx.group_ring.eq(u, ctx.group_ring.mul(h_forward(ctx, f), h_forward(ctx, f)))

    def test_zero_in_s_maps_everything_to_zero(self):
        """Over Z/4 at S = <2>, 2*2 = 0: a denominator whose S part multiplies
        to 0 leaves the zero ring, where every image is 0."""
        from grothloc import Fraction
        ctx = HMapContext(ModRing(4), zoo.t2(), [2])
        num = ctx.mring.element({0: 1, 1: 3})
        assert h_forward(ctx, Fraction(num, ctx.mring.zero, (0, 0))).is_zero()
        assert h_forward(ctx, Fraction(num, ctx.mring.zero, (0, 0, 1))).is_zero()
        assert verify_isomorphism(ctx, samples=20, seed=3)["all_ok"]

    def test_zero_denominator_outside_s_rejected(self):
        """A zero denominator whose S part multiplies to 2, not 0."""
        from grothloc import Fraction
        ctx = HMapContext(ModRing(4), zoo.t2(), [2])
        with pytest.raises(MalformedDenominatorError, match="0 degrees"):
            h_forward(ctx, Fraction(ctx.mring.one, ctx.mring.zero, (0, 1)))

    def test_zero_maps_to_zero(self, line_ctx):
        ctx = line_ctx
        z = ctx.monomial_fraction(ctx.mring.zero, 1, (2,))
        assert h_forward(ctx, z).is_zero()


class TestRoundTrips:
    def test_forward_then_back(self, line_ctx):
        ctx = line_ctx
        rng = Lcg64(31)
        for _ in range(60):
            f = sample_t_fraction(ctx, rng)
            back = h_inverse(ctx, h_forward(ctx, f))
            assert ctx.tloc.eq(back, f)

    def test_back_then_forward(self, line_ctx):
        ctx = line_ctx
        rng = Lcg64(32)
        gr = ctx.group_ring
        for _ in range(60):
            u = sample_group_ring_element(ctx, rng)
            again = h_forward(ctx, h_inverse(ctx, u))
            assert gr.eq(again, u)


# contexts for the differential test of h_inverse: free monoids over Z with
# S = <2, 3> and over Z/p, a cancellative and a non-cancellative Cayley monoid
DIFFERENTIAL_CONTEXTS = {
    "Z[N]_at_2_3": lambda: HMapContext(IntegerRing(), FreeCommutativeMonoid(1), [2, 3]),
    "Z[N^2]_at_2_3": lambda: HMapContext(IntegerRing(), FreeCommutativeMonoid(2), [2, 3]),
    "Z/7[N]": lambda: HMapContext(ModRing(7), FreeCommutativeMonoid(1), []),
    "Z/7[N^3]": lambda: HMapContext(ModRing(7), FreeCommutativeMonoid(3), []),
    "Z/11[N^2]_at_2": lambda: HMapContext(ModRing(11), FreeCommutativeMonoid(2), [2]),
    "Z/5[Z/4]_at_2": lambda: HMapContext(ModRing(5), zoo.z4(), [2]),
    "Z/6[T2+Z/2]_at_2": lambda: HMapContext(ModRing(6), zoo.t2_z2_table(), [2]),
    # 2 * 2 = 0 in Z/4, so 0 is in S and most products of the s_i vanish
    "Z/4[Z/6 mult]_at_2": lambda: HMapContext(ModRing(4), zoo.z6_mult(), [2]),
}


class TestInverseAgainstCommonDenominator:
    """h_inverse sums the terms in T^-1(R[M]) over their common monomial
    denominator; it must give the numerator, denominator and witness that
    clearing every coefficient over one common denominator gives, and that
    adding the terms one by one from the first gives."""

    @staticmethod
    def assert_same(ctx, u):
        got = h_inverse(ctx, u)
        for want in (common_denominator_h_inverse(ctx, u), fold_h_inverse(ctx, u)):
            assert (got.num, got.den, got.den_witness) == (want.num, want.den, want.den_witness)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONTEXTS))
    def test_seeded_elements(self, name):
        ctx = DIFFERENTIAL_CONTEXTS[name]()
        rng = Lcg64(1100)
        for _ in range(150):
            u = sample_group_ring_element(ctx, rng, max_terms=4)
            self.assert_same(ctx, u)

    @staticmethod
    def unmerged(ctx, rng, k):
        """k sampled terms kept apart even when they share a class, as a
        term list h_inverse reads as it stands."""
        terms = []
        for _ in range(k):
            x = GrothElement(ctx.monoid.sample(rng, 4), ctx.monoid.sample(rng, 4))
            s_wit = _sample_s(ctx, rng)
            r = ctx.ring.sample_nonzero(rng, 9)
            terms.append((x, Fraction(r, ctx.sset.product_of(s_wit), s_wit)))
        return GroupRingElement(ctx.group_ring, terms, [ctx.group.key(x) for x, _ in terms])

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONTEXTS))
    def test_seeded_elements_with_up_to_eight_terms(self, name):
        ctx = DIFFERENTIAL_CONTEXTS[name]()
        rng = Lcg64(1101)
        for _ in range(60):
            self.assert_same(ctx, sample_group_ring_element(ctx, rng, max_terms=8))
        for k in range(1, 9):
            for _ in range(8):
                self.assert_same(ctx, self.unmerged(ctx, rng, k))

    def test_zero_in_s_sends_the_common_denominator_to_zero(self):
        """Over Z/4 at 2 the product of the s_i is 0 once two of them are 2
        or one is 2^2: the denominator is the zero element, and the
        numerator keeps only the terms whose other s_j multiply to a unit."""
        ctx = DIFFERENTIAL_CONTEXTS["Z/4[Z/6 mult]_at_2"]()
        rng = Lcg64(1102)
        zero_dens = nonzero_nums = 0
        for _ in range(200):
            u = self.unmerged(ctx, rng, 1 + rng.below(8))
            self.assert_same(ctx, u)
            f = h_inverse(ctx, u)
            if f.den.is_zero():
                zero_dens += 1
                nonzero_nums += not f.num.is_zero()
        assert zero_dens > 100 and nonzero_nums > 0

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONTEXTS))
    def test_empty_element(self, name):
        ctx = DIFFERENTIAL_CONTEXTS[name]()
        self.assert_same(ctx, ctx.group_ring.from_terms([]))


class TestBatteries:
    def test_degree_law_with_trivial_s(self):
        """S = {1}: T^-1(R[M]) against R[G(M)], and h_forward of r eps_m / eps_n
        is the single term at [m, n]."""
        ctx = HMapContext(ModRing(5), FreeCommutativeMonoid(1), [])
        assert verify_isomorphism(ctx, samples=60)["all_ok"]
        rng = Lcg64(1)
        for _ in range(60):
            m = ctx.monoid.sample(rng)
            n = ctx.monoid.sample(rng)
            r = ctx.ring.sample_nonzero(rng)
            u = h_forward(ctx, ctx.monomial_fraction(ctx.mring.element({m: r}), 1, n))
            assert len(u.terms) == 1
            assert ctx.group.eq(u.terms[0][0], GrothElement(m, n))

    def test_battery_validates_no_degree_after_the_context(self, monkeypatch):
        """Every degree the battery samples or builds is the library's own,
        so once the context exists no monoid ``validate`` call is made."""
        ctx = HMapContext(ModRing(7), FreeCommutativeMonoid(2), [3])
        calls = []
        validate = FreeCommutativeMonoid.validate

        def spy(self, a):
            calls.append(a)
            return validate(self, a)

        monkeypatch.setattr(FreeCommutativeMonoid, "validate", spy)
        assert verify_isomorphism(ctx, samples=40)["all_ok"]
        assert calls == []

    def test_plane_over_integers_at_powers_of_two(self):
        ctx = HMapContext(IntegerRing(), FreeCommutativeMonoid(2), [2])
        report = verify_isomorphism(ctx, samples=60, kernel_samples=40)
        assert report["all_ok"]
        assert report["hom_ok"]
        assert report["roundtrip_back_ok"] and report["roundtrip_forth_ok"]

    def test_collapsing_base_keeps_kernel_trivial(self):
        """(Z/2)[T2]: the grading group is trivial and many fractions map to
        zero, but each one is itself zero in the localization."""
        ctx = HMapContext(ModRing(2), zoo.t2(), [])
        report = verify_isomorphism(ctx, samples=60, kernel_samples=60)
        assert report["all_ok"]
        assert report["kernel_zero_hits"] > 0
        assert report["kernel_trivial_ok"]

    def test_finite_group_monoid(self):
        """(Z/3)[Z/2] localized at every monomial."""
        ctx = HMapContext(ModRing(3), zoo.z2(), [])
        report = verify_isomorphism(ctx, samples=60, kernel_samples=40)
        assert report["all_ok"]

    @pytest.mark.parametrize("build", [
        zoo.z6_mult, lambda: CayleyMonoid(zoo.mult_mod_table(100), identity=1),
    ], ids=["z6_mult", "mult_mod_100"])
    def test_battery_builds_no_t_closure(self, build):
        """Over a non-cancellative M, fractions of T^-1(R[M]) compare through
        e, read off the T generators, so no closure of T (|S| * |M|
        elements, each times every generator) is built."""
        ctx = HMapContext(ModRing(5), build(), [2])
        assert ctx.tloc.strategy == "exhaustive-witness"
        assert verify_isomorphism(ctx, samples=40)["all_ok"]
        assert "closure" not in ctx.tset.__dict__


class TestLaurent:
    def test_rank_one(self):
        report = laurent_iso(ModRing(5), 1, samples=60)
        assert report["all_ok"]
        assert report["rank"] == 1

    def test_rank_two(self):
        report = laurent_iso(ModRing(5), 2, samples=60)
        assert report["all_ok"]
        assert report["roundtrip_ok"]
        assert report["key_match_ok"]
        assert report["product_ok"]

    def test_over_the_integers(self):
        report = laurent_iso(IntegerRing(), 1, samples=40)
        assert report["all_ok"]

    def test_takes_no_closure_depth(self):
        """T's fractions compare by cross-multiplication, which reads no
        closure, so a closure depth would have nothing to bound."""
        assert "depth" not in inspect.signature(laurent_iso).parameters


def test_no_constructor_takes_a_closure_depth():
    """The closure over an infinite ring has one bound, a module constant:
    neither S nor the graded context takes a depth."""
    for cls in (MultiplicativeSet, HMapContext):
        assert "depth" not in inspect.signature(cls).parameters
