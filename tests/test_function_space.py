import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir import linalg
from agpir.curve import INFINITY, AffinePoint, EllipticCurve, PointAtInfinity
from agpir.errors import (
    DuplicateAlpha,
    InfinityUnsupported,
    NegativeOrder,
    PoleAtPoint,
    TwoTorsionPoint,
    UnsupportedDivisor,
    WrongCurveKind,
    ZeroScalar,
)
from agpir.field import PrimeField
from agpir.function_space import (
    Divisor,
    QuadraticPlace,
    RationalFunction,
    Y_ZEROS,
    basis_poles_at_infinity,
    interp_basis_g0,
    interp_basis_g1,
    noise_basis_g1,
    place_degree,
    place_key,
    rr_dim,
)
from conftest import valuation_reference


def fragment_pairs(curve, count):
    """First `count` conjugate pairs with nonzero y, ascending x."""
    pairs = []
    for x in range(curve.field.p):
        fiber = curve.fiber(x)
        if len(fiber) == 2:
            pairs.append((fiber[0], fiber[1]))
            if len(pairs) == count:
                return pairs
    raise AssertionError("not enough split fibers")


def admissible_points(curve, exclude_x=()):
    return [
        pt
        for pt in curve.enumerate_points()
        if not isinstance(pt, PointAtInfinity) and pt.y != 0 and pt.x not in exclude_x
    ]


def eval_rank(functions, points, p):
    rows = [[f.eval_at(pt) for pt in points] for f in functions]
    return linalg.rank(rows, p)


# -- evaluation ------------------------------------------------------------------


def test_eval_simple_reciprocal(curve43):
    f = RationalFunction.x_minus(curve43, 2, -1)
    pt = curve43.fiber(3)[0]
    assert f.eval_at(pt) == 1  # 1/(3 - 2)


def test_eval_y_at_two_torsion():
    f5 = PrimeField(5)
    curve = EllipticCurve(f5, 0, 1)
    y = RationalFunction.make(curve, y_exp=1)
    assert y.eval_at(AffinePoint(4, 0)) == 0


def test_eval_pole_raises(curve43):
    f = RationalFunction.x_minus(curve43, 2, -1)
    for pt in curve43.fiber(2):
        with pytest.raises(PoleAtPoint):
            f.eval_at(pt)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eval_at_poles_and_zeros_follow_the_valuation(line43, curve43, curve127, data):
    # eval_at decides a pole from the reduced denominator alone; this is the
    # valuation rule it must agree with, also at curve127's two-torsion point.
    curve = data.draw(st.sampled_from([line43, curve43, curve127]))
    p = curve.field.p
    torsion_x = [pt.x for pt in curve.zeros_of_y()] if curve.genus else []
    alpha = st.integers(0, p - 1)
    if torsion_x:
        alpha = st.sampled_from(torsion_x) | alpha
    x_factors = data.draw(st.lists(st.tuples(alpha, st.integers(-3, 3)), max_size=4))
    y_exp = data.draw(st.integers(-3, 3)) if curve.genus else 0
    f = RationalFunction.make(curve, data.draw(st.integers(1, p - 1)), x_factors, y_exp)
    for pt in curve.enumerate_points()[1:]:
        val = valuation_reference(f, pt)
        if val < 0:
            with pytest.raises(PoleAtPoint):
                f.eval_at(pt)
        else:
            assert (f.eval_at(pt) == 0) == (val > 0)


def test_eval_at_infinity_unsupported(curve43):
    with pytest.raises(InfinityUnsupported):
        RationalFunction.one(curve43).eval_at(INFINITY)


def test_eval_cancels_shared_zero():
    # y^2 / (x - r) at a two-torsion point (r, 0) has valuation 0: it is the
    # product of x - r' over the two other roots r', so its value is
    # prod (r - r'). On y^2 = x^3 - x over F_43 all three roots are rational.
    curve = EllipticCurve(PrimeField(43), -1, 0)
    roots = [pt.x for pt in curve.zeros_of_y()]
    assert roots == [0, 1, 42]
    for r in roots:
        f = RationalFunction.make(curve, x_factors={r: -1}, y_exp=2)
        pt = AffinePoint(r, 0)
        assert valuation_reference(f, pt) == 0
        expected = 1
        for other in roots:
            if other != r:
                expected = expected * (r - other) % 43
        assert f.eval_at(pt) == expected


def test_fn_mul_y_squared_is_cubic(curve43):
    y = RationalFunction.make(curve43, y_exp=1)
    y2 = y * y
    for pt in admissible_points(curve43)[:10]:
        assert y2.eval_at(pt) == curve43.rhs(pt.x)


def test_fn_mul_identity_and_inverse(curve43):
    f = RationalFunction.make(curve43, scalar=3, x_factors={5: 2, 7: -1}, y_exp=1)
    assert f * RationalFunction.one(curve43) == f
    assert f * f.inverse() == RationalFunction.one(curve43)
    g = RationalFunction.x_minus(curve43, 5)
    assert RationalFunction.x_minus(curve43, 5, -1) * g == RationalFunction.one(curve43)


def test_zero_scalar_is_refused(curve43):
    with pytest.raises(ZeroScalar):
        RationalFunction.make(curve43, scalar=43)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 12), st.integers(-2, 2), max_size=3),
    st.dictionaries(st.integers(0, 12), st.integers(-2, 2), max_size=3),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_eval_is_ring_homomorphism(xf1, xf2, ye1, ye2, s1, s2):
    # y^2 = x^3 - x splits over F_13, so every affine point includes the
    # three two-torsion points (0, 0), (1, 0) and (12, 0).
    curve = EllipticCurve(PrimeField(13), -1, 0)
    assert len(curve.zeros_of_y()) == 3
    f = RationalFunction.make(curve, s1, xf1, ye1)
    g = RationalFunction.make(curve, s2, xf2, ye2)
    prod = f * g
    p = 13
    for pt in curve.enumerate_points()[1:]:
        if valuation_reference(f, pt) < 0 or valuation_reference(g, pt) < 0:
            continue
        assert prod.eval_at(pt) == f.eval_at(pt) * g.eval_at(pt) % p


# -- valuation and divisors --------------------------------------------------------


def test_valuation_examples(curve43, line43):
    h = RationalFunction.x_minus(line43, 3, -1)
    assert valuation_reference(h, INFINITY) == 1
    assert valuation_reference(h, AffinePoint(3)) == -1
    h1 = RationalFunction.x_minus(curve43, 1, -1)  # x = 1 splits on y^2 = x^3 + 9
    assert valuation_reference(h1, INFINITY) == 2
    y = RationalFunction.make(curve43, y_exp=1)
    assert valuation_reference(y, INFINITY) == -3
    assert valuation_reference(y, Y_ZEROS) == 1


def test_valuation_off_the_affine_points_is_the_divisor_coefficient(curve43, line43):
    inert = next(x for x in range(43) if not curve43.fiber(x))
    split = next(x for x in range(43) if len(curve43.fiber(x)) == 2)
    f = RationalFunction.make(curve43, 5, {split: -2, inert: 3}, y_exp=-1)
    d = f.divisor()
    for place in (INFINITY, Y_ZEROS, QuadraticPlace(inert)):
        assert valuation_reference(f, place) == d.coeff(place)
    assert valuation_reference(f, INFINITY) == 1
    assert valuation_reference(f, QuadraticPlace(inert)) == 3
    # A fiber with rational points carries no quadratic place.
    assert valuation_reference(f, QuadraticPlace(split)) == 0
    g = RationalFunction.x_minus(line43, 3, -1)
    for place in (Y_ZEROS, QuadraticPlace(inert)):
        with pytest.raises(WrongCurveKind):
            valuation_reference(g, place)
    with pytest.raises(TypeError, match="not a place"):
        valuation_reference(f, "infinity")


def test_divisor_of_line_reciprocal(line43):
    h = RationalFunction.x_minus(line43, 3, -1)
    d = h.divisor()
    assert d.coeff(INFINITY) == 1
    assert d.coeff(AffinePoint(3)) == -1
    assert d.degree == 0


def test_divisor_of_constant_is_zero(curve43):
    assert RationalFunction.make(curve43, scalar=7).divisor().is_zero


def test_divisor_of_y(curve43):
    d = RationalFunction.make(curve43, y_exp=1).divisor()
    assert d.coeff(Y_ZEROS) == 1
    assert d.coeff(INFINITY) == -3
    assert d.degree == 0


def test_divisor_inert_fiber(curve43):
    # find an x whose cubic value is a non-residue
    inert = next(x for x in range(43) if not curve43.fiber(x))
    d = RationalFunction.x_minus(curve43, inert).divisor()
    assert d.coeff(QuadraticPlace(inert)) == 1
    assert d.coeff(INFINITY) == -2
    assert d.degree == 0
    assert place_degree(QuadraticPlace(inert)) == 2


def test_divisor_ramified_fiber():
    f127 = PrimeField(127)
    curve = EllipticCurve(f127, 1, 33)
    r = curve.zeros_of_y()[0].x
    d = RationalFunction.x_minus(curve, r).divisor()
    assert d.coeff(AffinePoint(r, 0)) == 2
    assert d.coeff(INFINITY) == -2
    assert d.degree == 0


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(0, 12), st.integers(-3, 3), max_size=4),
    st.integers(-3, 3),
    st.integers(1, 12),
)
def test_divisor_degree_always_zero(xf, ye, s):
    f13 = PrimeField(13)
    curve = EllipticCurve(f13, 2, 1)
    assert RationalFunction.make(curve, s, xf, ye).divisor().degree == 0


def test_divisor_partial_order(curve43):
    two_inf = Divisor.of(curve43, {INFINITY: 2})
    bound = Divisor.of(curve43, {INFINITY: 2, Y_ZEROS: 1})
    assert two_inf <= bound
    assert not bound <= two_inf


def divisor_places(curve):
    """A few places of every kind the curve has."""
    if curve.genus == 0:
        return [INFINITY] + [AffinePoint(x) for x in range(5)]
    split = [pt for x in range(curve.field.p) for pt in curve.fiber(x)][:4]
    inert = [QuadraticPlace(x) for x in range(curve.field.p) if not curve.fiber(x)][:2]
    return [INFINITY, Y_ZEROS, *split, *inert]


def nonzero(coeffs):
    return {pl: n for pl, n in coeffs.items() if n != 0}


@pytest.mark.parametrize("name", ["line43", "curve43"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divisor_operations_agree_with_coefficientwise_definitions(name, request, data):
    curve = request.getfixturevalue(name)
    coeff_maps = st.dictionaries(st.sampled_from(divisor_places(curve)), st.integers(-3, 3))
    maps = data.draw(st.lists(coeff_maps, min_size=1, max_size=4), label="family")
    a, b = maps[0], maps[-1]
    da, db = Divisor.of(curve, a), Divisor.of(curve, b)
    both = a.keys() | b.keys()
    expected = {
        "negation": (-da, {pl: -n for pl, n in a.items()}),
        "sum": (da + db, {pl: a.get(pl, 0) + b.get(pl, 0) for pl in both}),
        "difference": (da - db, {pl: a.get(pl, 0) - b.get(pl, 0) for pl in both}),
        "family minimum": (
            Divisor.family_min([Divisor.of(curve, m) for m in maps]),
            {pl: min(m.get(pl, 0) for m in maps) for pl in set().union(*maps)},
        ),
    }
    for op, (got, coeffs) in expected.items():
        # The same coefficients, in the canonical form `Divisor.of` gives.
        assert dict(got.items) == nonzero(coeffs), op
        assert got == Divisor.of(curve, coeffs), op
    assert da.is_effective == all(n >= 0 for n in a.values())
    assert (da <= db) == all(a.get(pl, 0) <= b.get(pl, 0) for pl in both)


@pytest.mark.parametrize("name", ["line43", "curve43"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_divisor_sum_equals_the_sorted_sum(name, request, data):
    # In half the draws b's places all lie in a's support, so coefficients
    # may cancel; b may be zero. The support is sorted by `place_key` so that
    # what Hypothesis draws does not depend on the set's hash order.
    curve = request.getfixturevalue(name)
    a = data.draw(st.dictionaries(st.sampled_from(divisor_places(curve)), st.integers(-3, 3)))
    da = Divisor.of(curve, a)
    support = sorted(da.as_dict(), key=place_key)
    places = support if data.draw(st.booleans()) else divisor_places(curve)
    b = data.draw(st.dictionaries(st.sampled_from(places), st.integers(-3, 3))) if places else {}
    db = Divisor.of(curve, b)
    coeffs = {pl: a.get(pl, 0) + b.get(pl, 0) for pl in a.keys() | b.keys()}
    assert da + db == Divisor.of(curve, coeffs)
    assert da - db == Divisor.of(curve, {pl: a.get(pl, 0) - b.get(pl, 0) for pl in coeffs})


@pytest.mark.parametrize("name", ["line43", "curve43"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divisor_of_is_independent_of_insertion_order(name, request, data):
    curve = request.getfixturevalue(name)
    coeffs = data.draw(st.dictionaries(st.sampled_from(divisor_places(curve)), st.integers(-3, 3)))
    shuffled = dict(data.draw(st.permutations(list(coeffs.items())), label="order"))
    d, e = Divisor.of(curve, coeffs), Divisor.of(curve, shuffled)
    assert d == e and hash(d) == hash(e)
    ordered = sorted(nonzero(coeffs).items(), key=lambda kv: place_key(kv[0]))
    assert repr(d) == repr(e) == (" + ".join(f"{n}*{pl!r}" for pl, n in ordered) or "0")


@pytest.mark.parametrize("name", ["line43", "curve43"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_divisor_order_is_effectiveness_of_the_difference(name, request, data):
    # Half the draws raise a by a non-negative map, so that a <= b holds often.
    curve = request.getfixturevalue(name)
    places = st.sampled_from(divisor_places(curve))
    a = data.draw(st.dictionaries(places, st.integers(-3, 3)), label="a")
    raise_by = data.draw(st.dictionaries(places, st.integers(0, 2)), label="raise")
    if data.draw(st.booleans(), label="raised"):
        b = {pl: a.get(pl, 0) + raise_by.get(pl, 0) for pl in a.keys() | raise_by.keys()}
    else:
        b = data.draw(st.dictionaries(places, st.integers(-3, 3)), label="b")
    da, db = Divisor.of(curve, a), Divisor.of(curve, b)
    assert (da <= db) == (db - da).is_effective
    assert (db <= da) == (da - db).is_effective


def test_divisor_order_forms_no_divisor(curve43, monkeypatch):
    # `<=` reads both supports; it never builds and sorts the difference.
    split = [pt for x in range(43) for pt in curve43.fiber(x)][:2]
    small = Divisor.of(curve43, {INFINITY: 2, split[0]: -1})
    large = Divisor.of(curve43, {INFINITY: 3, Y_ZEROS: 1, split[1]: 0})

    def refused(*args, **kwargs):
        raise AssertionError("a divisor was formed")

    monkeypatch.setattr(Divisor, "of", refused)
    monkeypatch.setattr(Divisor, "__add__", refused)
    assert small <= large and not large <= small
    assert small <= small and Divisor.zero(curve43) <= large


def test_divisor_operations_refuse_mixed_curves_and_an_empty_family(curve43, line43):
    on_curve, on_line = Divisor.of(curve43, {INFINITY: 1}), Divisor.of(line43, {INFINITY: 1})
    for op in (on_curve.__add__, on_curve.__sub__, on_curve.__le__):
        with pytest.raises(ValueError, match="different curves"):
            op(on_line)
    for family in ([on_curve, on_line], []):
        with pytest.raises(ValueError, match="non-empty family on one curve"):
            Divisor.family_min(family)


# -- Riemann-Roch dimensions --------------------------------------------------------


def test_rr_dim_cases(curve43, line43):
    t = 16
    assert rr_dim(Divisor.of(curve43, {INFINITY: t + 1})) == t + 1
    x = 16
    assert rr_dim(Divisor.of(line43, {INFINITY: x + t - 1})) == x + t
    # full divisor, genus 1: degree L + X + T + 8
    pairs = fragment_pairs(curve43, 4)
    full = Divisor.of(curve43, {INFINITY: x + t + 4, Y_ZEROS: 1})
    for pt, conj in pairs:
        full = full + Divisor.of(curve43, {pt: 1, conj: 1})
    assert full.degree == 7 + x + t + 8
    assert rr_dim(full) == 7 + x + t + 8
    assert rr_dim(Divisor.of(curve43, {INFINITY: -1})) == 0
    assert rr_dim(Divisor.zero(curve43)) == 1
    assert rr_dim(Divisor.zero(line43)) == 1
    with pytest.raises(UnsupportedDivisor):
        pt, conj = pairs[0]
        rr_dim(Divisor.of(curve43, {pt: 1, conj: 1, INFINITY: -2}))


# -- bases ---------------------------------------------------------------------------


def test_basis_poles_at_infinity_g1_m5(curve43):
    basis = basis_poles_at_infinity(curve43, 5)
    assert [repr(f) for f in basis] == ["1", "x", "x^2", "y", "y * x"]


def test_basis_poles_at_infinity_sizes(curve43, line43):
    assert len(basis_poles_at_infinity(line43, 15)) == 16  # dim of degree-15 bound, genus 0
    for m in range(0, 12):
        got = basis_poles_at_infinity(curve43, m)
        assert len(got) == rr_dim(Divisor.of(curve43, {INFINITY: m}))
    assert [repr(f) for f in basis_poles_at_infinity(curve43, 0)] == ["1"]
    with pytest.raises(NegativeOrder):
        basis_poles_at_infinity(curve43, -1)


def test_interp_basis_g0(line43):
    basis = interp_basis_g0(line43, range(5))
    assert len(basis) == 5
    for ell, f in enumerate(basis):
        d = f.divisor()
        assert d.coeff(INFINITY) == 1
        assert d.coeff(AffinePoint(ell)) == -1
    assert len(interp_basis_g0(line43, [0])) == 1
    with pytest.raises(DuplicateAlpha):
        interp_basis_g0(line43, [1, 1])


def test_interp_basis_g1_l5_shape(curve43):
    pairs = fragment_pairs(curve43, 3)
    basis = interp_basis_g1(curve43, pairs)
    assert len(basis) == 5
    alphas = [pt.x for pt, _ in pairs]
    for j in range(3):
        assert basis[j] == RationalFunction.x_minus(curve43, alphas[j], -1)
    for j in range(2):
        assert basis[3 + j] == RationalFunction.make(
            curve43, x_factors={alphas[j]: -1, alphas[2]: -1}, y_exp=1
        )


def test_interp_basis_g1_divisors_match_design(curve43):
    pairs = fragment_pairs(curve43, 3)
    basis = interp_basis_g1(curve43, pairs)
    bound = Divisor.of(curve43, {INFINITY: 2, Y_ZEROS: 1})
    for j in range(3):
        d = basis[j].divisor()
        pt, conj = pairs[j]
        assert d.coeff(INFINITY) == 2 and d.coeff(pt) == -1 and d.coeff(conj) == -1
        assert d.degree == 0
    for j in range(2):
        d = basis[3 + j].divisor()
        pt, conj = pairs[j]
        last, last_conj = pairs[2]
        assert d.coeff(INFINITY) == 1 and d.coeff(Y_ZEROS) == 1
        for q in (pt, conj, last, last_conj):
            assert d.coeff(q) == -1
    for f in basis:
        assert f.divisor() <= bound


def test_interp_basis_g1_single_pair(curve43):
    pairs = fragment_pairs(curve43, 1)
    basis = interp_basis_g1(curve43, pairs)
    assert len(basis) == 1
    assert basis[0] == RationalFunction.x_minus(curve43, pairs[0][0].x, -1)


def test_interp_basis_g1_rejects_bad_input():
    f127 = PrimeField(127)
    curve = EllipticCurve(f127, 1, 33)
    torsion = curve.zeros_of_y()[0]
    with pytest.raises(TwoTorsionPoint):
        interp_basis_g1(curve, [(torsion, torsion)])
    pairs = fragment_pairs(curve, 2)
    with pytest.raises(DuplicateAlpha):
        interp_basis_g1(curve, [pairs[0], pairs[0]])
    with pytest.raises(ValueError):
        interp_basis_g1(curve, [(pairs[0][0], pairs[1][1])])


def test_noise_basis_g1_m0(curve43):
    basis = noise_basis_g1(curve43, 0)
    assert [repr(f) for f in basis] == ["1", "y^-1", "y^-1 * x"]
    pts = admissible_points(curve43)
    assert eval_rank(basis, pts[:4], 43) == 3


def test_noise_basis_g1_size_and_containment(curve43):
    x, t = 16, 16
    m = x + t + 4
    basis = noise_basis_g1(curve43, m)
    assert len(basis) == x + t + 7
    bound = Divisor.of(curve43, {INFINITY: m, Y_ZEROS: 1})
    zero = Divisor.zero(curve43)
    for f in basis:
        assert zero <= f.divisor() + bound
    with pytest.raises(NegativeOrder):
        noise_basis_g1(curve43, -1)


def test_noise_basis_g1_full_rank(curve43):
    for m in (0, 3, 6):
        basis = noise_basis_g1(curve43, m)
        pts = admissible_points(curve43)[: m + 4]
        assert eval_rank(basis, pts, 43) == m + 3


def test_interp_bases_full_rank(curve43, line43):
    basis0 = interp_basis_g0(line43, range(5))
    pts0 = [AffinePoint(x) for x in range(5, 11)]
    assert eval_rank(basis0, pts0, 43) == 5
    pairs = fragment_pairs(curve43, 3)
    basis1 = interp_basis_g1(curve43, pairs)
    pts1 = admissible_points(curve43, exclude_x={pt.x for pt, _ in pairs})[:6]
    assert eval_rank(basis1, pts1, 43) == 5


def test_multiplication_by_unit_preserves_rank(curve43):
    # multiplying a basis by a fixed unit is an isomorphism of spaces
    pairs = fragment_pairs(curve43, 2)
    h = RationalFunction.x_minus(curve43, pairs[0][0].x, -1)
    basis = basis_poles_at_infinity(curve43, 5)
    shifted = [h * f for f in basis]
    pts = admissible_points(curve43, exclude_x={pairs[0][0].x})[:12]
    assert eval_rank(shifted, pts, 43) == eval_rank(basis, pts, 43) == 5


def test_product_space_dimension_matches_divisor_sum(curve43):
    # products of bases of L(2*Inf) and L(3*Inf) span L(5*Inf) exactly
    b1 = basis_poles_at_infinity(curve43, 2)
    b2 = basis_poles_at_infinity(curve43, 3)
    products = [f * g for f in b1 for g in b2]
    pts = admissible_points(curve43)[:10]
    target = rr_dim(Divisor.of(curve43, {INFINITY: 5}))
    assert eval_rank(products, pts, 43) == target == 5


def test_product_containment_in_divisor_sum(curve43):
    b1 = basis_poles_at_infinity(curve43, 2)
    b2 = basis_poles_at_infinity(curve43, 3)
    bound = Divisor.of(curve43, {INFINITY: 5})
    zero = Divisor.zero(curve43)
    for f in b1:
        for g in b2:
            assert zero <= (f * g).divisor() + bound


def test_y_exp_forbidden_on_line(line43):
    with pytest.raises(WrongCurveKind):
        RationalFunction.make(line43, y_exp=1)
