"""The atom path of evaluation: shared atom rows, batch inversion, merged products."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir import field, function_space, pir_scheme
from agpir.agcode import evaluation_code
from agpir.curve import AffinePoint, EllipticCurve, PointAtInfinity, ProjectiveLine
from agpir.errors import PoleAtEvaluationPoint, PoleAtPoint
from agpir.field import PrimeField, inverses
from agpir.function_space import RationalFunction, basis_poles_at_infinity, evaluate_rows
from agpir.pir_scheme import Database, SchemeParams, build_scheme, store
from conftest import values_at_reference

BUILDS = {
    "g0_q13": SchemeParams(p=13, genus=0, x=2, t=2, l=3),
    "g0_q43": SchemeParams(p=43, genus=0, x=16, t=16, l=5),
    "g0_q43_xt": SchemeParams(p=43, genus=0, x=12, t=16, l=5),
    "g1_q13": SchemeParams(p=13, genus=1, x=1, t=1, l=1),
    "g1_q43": SchemeParams(p=43, genus=1, x=16, t=16, l=7, curve=(0, 9)),
    "g1_q127": SchemeParams(p=127, genus=1, x=30, t=30, l=33, curve=(1, 33)),
}
WIDE = {
    "g0_p31": SchemeParams(p=2**31 - 1, genus=0, x=3, t=3, l=4),
    "g0_p61": SchemeParams(p=2**61 - 1, genus=0, x=3, t=3, l=4),
    "g1_p1e9": SchemeParams(p=1_000_000_007, genus=1, x=2, t=2, l=3, curve=(1, 1)),
}


def reference_rows(functions, points):
    return [values_at_reference(f, points) for f in functions]


def affine_points(curve):
    return [pt for pt in curve.enumerate_points() if not isinstance(pt, PointAtInfinity)]


@pytest.fixture
def table_calls(monkeypatch):
    """The primes `field.inverses` builds a table for, recorded as it asks for each."""
    calls = []
    real = field.inverse_table

    def recorded(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(field, "inverse_table", recorded)
    return calls


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_atom_rows_equal_the_reference_for_every_build_basis(name):
    # The build's one evaluation: info, noise, privacy and security bases at
    # the kept points, row by row against one `pow` per entry and atom.
    inst = build_scheme(BUILDS[name])
    basis = inst.info_basis + inst.noise_basis + inst.priv_basis + inst.sec_basis
    points = inst.eval_points
    expected = reference_rows(basis, points)
    assert evaluate_rows(basis, points) == expected
    assert [evaluate_rows((f,), points)[0] for f in basis] == expected
    assert list(inst.info_rows + inst.noise_rows) == expected[: len(inst.decode_rows)]


@pytest.mark.parametrize("name", ["line43", "curve43", "curve127"])
def test_pole_free_bases_at_every_affine_point(name, request):
    # Functions with poles only at infinity are finite everywhere: every
    # affine point, two-torsion points included, with scaled and repeated
    # members sharing their atoms.
    curve = request.getfixturevalue(name)
    basis = list(basis_poles_at_infinity(curve, 11))
    basis += [RationalFunction.make(curve, 5) * f for f in basis]
    points = affine_points(curve)
    assert evaluate_rows(basis, points) == reference_rows(basis, points)


def test_two_torsion_reads_each_atom_zero_as_one(curve127):
    # At (r, 0), (x - r)^e y^(-2e) has order 0 and value (3 r^2 + a)^(-e):
    # the atoms (x - r)^e and y^(-2e) read 1 there, and the order rule
    # supplies the value. Exponents repeat and go negative.
    (r,) = [pt.x for pt in curve127.zeros_of_y()]
    p, a = 127, curve127.a
    torsion = AffinePoint(r, 0)
    points = [pt for pt in affine_points(curve127) if pt.x != r or pt.y == 0]
    unit = (3 * r * r + a) % p
    functions = [
        RationalFunction.make(curve127, 1, {r: 1}, -2),
        RationalFunction.make(curve127, 3, {r: 2, 5: -1}, -4),
        RationalFunction.make(curve127, 1, {r: -1}, 2),
        RationalFunction.make(curve127, 2, {r: 3}, -5),  # order 1: a zero
        RationalFunction.make(curve127, 1, {r: 2}, -4),
    ]
    points = [pt for pt in points if pt.x != 5]
    rows = evaluate_rows(functions, points)
    assert rows == reference_rows(functions, points)
    at = points.index(torsion)
    assert rows[0][at] == pow(unit, -1, p)
    assert rows[2][at] == unit
    assert rows[3][at] == 0
    assert rows[4][at] == pow(unit, -2, p)


def test_a_pole_names_the_first_function_and_its_first_point(curve43):
    # The first function with a pole raises, at the first point in order
    # where it has one, with the message of the per-entry rule.
    a, b, c = [x for x in range(43) if len(curve43.fiber(x)) == 2][:3]
    points = [pt for x in (c, b, a) for pt in curve43.fiber(x)]
    basis = [
        RationalFunction.x_power(curve43, 2),
        RationalFunction.make(curve43, 1, {b: -1, c: -2}, 1),
        RationalFunction.x_minus(curve43, a, -1),
    ]
    with pytest.raises(PoleAtPoint) as expected:
        reference_rows(basis, points)
    assert f"{basis[1]!r} has a pole at {points[0]!r}" == str(expected.value)
    with pytest.raises(PoleAtPoint) as raised:
        evaluate_rows(basis, points)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(PoleAtEvaluationPoint) as code_raised:
        evaluation_code(basis, points)
    assert str(code_raised.value) == str(expected.value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_atoms_follow_the_per_entry_rule(line43, curve43, curve127, data):
    # A family whose members share alphas and exponents, repeated and
    # negative, y-atoms at genus 1 and points over the alphas and at
    # two-torsion: the rows, or the first pole's message, match the reference.
    curve = data.draw(st.sampled_from([line43, curve43, curve127]))
    p = curve.field.p
    affine = affine_points(curve)
    points = data.draw(st.lists(st.sampled_from(affine), min_size=1, max_size=12, unique=True))
    torsion = [pt for pt in affine if pt.y == 0]
    if torsion and data.draw(st.booleans()):
        points += [pt for pt in torsion if pt not in points]
    alphas = sorted({pt.x for pt in points}) + [data.draw(st.integers(0, p - 1))]
    factor = st.tuples(st.sampled_from(alphas), st.integers(-4, 4))
    function = st.builds(
        RationalFunction.make,
        st.just(curve),
        st.integers(1, p - 1),
        st.lists(factor, max_size=3),
        st.integers(-4, 4) if curve.genus else st.just(0),
    )
    functions = data.draw(st.lists(function, min_size=1, max_size=6))
    functions += data.draw(st.lists(st.sampled_from(functions), max_size=2))
    try:
        expected = reference_rows(functions, points)
    except PoleAtPoint as exc:
        with pytest.raises(PoleAtPoint) as raised:
            evaluate_rows(functions, points)
        assert str(raised.value) == str(exc)
    else:
        assert evaluate_rows(functions, points) == expected


# -- one batch inversion ---------------------------------------------------------


@pytest.fixture
def pow_calls(monkeypatch):
    """The (base, exponent, modulus) of every `pow` that `field` makes, recorded."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(field, "pow", recorded, raising=False)
    return calls


@pytest.mark.parametrize("p", [5, 7, 11, 13, 43, 127, 257, 2003])
def test_inverses_equal_pow_for_every_residue(p, pow_calls):
    assert inverses(range(1, p), p) == [pow(m, -1, p) for m in range(1, p)]
    assert len(pow_calls) == 1


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 1_000_000_007])
def test_inverses_at_wide_primes_take_one_pow(p, pow_calls):
    rng = random.Random(p)
    values = [rng.randrange(1, p) for _ in range(300)] + [1, p - 1, 2 * p + 5, -3]
    assert inverses(values, p) == [pow(v, -1, p) for v in values]
    assert len(pow_calls) == 1


def test_inverses_read_values_mod_p_and_refuse_zero(pow_calls):
    assert inverses([3, 10, 15, -2], 7) == [5, 5, 1, 3]
    assert inverses([4], 7) == [2]
    assert inverses([], 7) == []
    for values in ([1, 14, 2], [0], [7, 3]):
        with pytest.raises(ValueError, match="not invertible"):
            inverses(values, 7)


def test_evaluation_inverts_each_divisor_atom_row_once(line43, monkeypatch):
    # Two divisor atoms, one of them cubed and one repeated across functions:
    # two batches, each over the 22 points.
    batches = []

    def recorded(values, p):
        batches.append(len(values))
        return inverses(values, p)

    monkeypatch.setattr(function_space, "inverses", recorded)
    basis = [
        RationalFunction.x_minus(line43, 0, -1),
        RationalFunction.x_minus(line43, 1, -3),
        RationalFunction.make(line43, 2, {0: -2, 1: -1}),
        RationalFunction.x_power(line43, 7),
    ]
    points = [AffinePoint(x) for x in range(2, 24)]
    assert evaluate_rows(basis, points) == reference_rows(basis, points)
    assert batches == [22, 22]


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_primes_build_and_store_through_the_batch(name):
    # p = 2^31 - 1, 2^61 - 1 and 10^9 + 7: the rows equal the per-entry
    # reference, `sec_units` holds the inverses of the info rows, and `store`
    # reads them.
    inst = build_scheme(WIDE[name])
    basis = inst.info_basis + inst.noise_basis
    assert list(inst.info_rows + inst.noise_rows) == reference_rows(basis, inst.eval_points)
    p = inst.p
    for (units, _), values in zip(inst.sec_units, inst.info_rows):
        assert all(u * v % p == 1 for u, v in zip(units, values, strict=True))
    db = Database.random(p, 2, inst.l, random.Random(3))
    assert len(store(inst, db, random.Random(4))) == inst.l


@pytest.mark.parametrize("params", [WIDE["g0_p31"], SchemeParams(p=257, genus=0, x=40, t=40, l=88)])
def test_the_closed_form_certificate_inverts_once(params, monkeypatch, pow_calls):
    # The genus-0 certificate takes 1/m for m < L + N as one batch, so one
    # `pow` at every p, and the build's rows and `sec_units` are the
    # per-entry inverses.
    batches = []

    def recorded(values, p):
        batches.append(list(values))
        return inverses(values, p)

    monkeypatch.setattr(pir_scheme, "inverses", recorded)
    inst = build_scheme(params)
    top = inst.l + inst.n - 1
    assert batches == [list(range(1, top + 1))]
    assert inst.parity_checks == ()
    p = inst.p
    assert inst.info_rows == tuple(
        tuple(pow(pt.x - alpha, -1, p) for pt in inst.eval_points) for alpha in range(inst.l)
    )
    assert [units for units, _ in inst.sec_units] == [
        tuple(pow(v, -1, p) for v in row) for row in inst.info_rows
    ]


# -- products by one merge -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_merges_to_make_of_the_concatenated_factors(line43, curve43, data):
    curve = data.draw(st.sampled_from([line43, curve43]))
    p = curve.field.p
    factor = st.tuples(st.integers(-3 * p, 3 * p), st.integers(-3, 3))
    function = st.builds(
        RationalFunction.make,
        st.just(curve),
        st.integers(1, p - 1),
        st.lists(factor, max_size=5),
        st.integers(-3, 3) if curve.genus else st.just(0),
    )
    f, g = data.draw(function), data.draw(function)
    product = f * g
    assert product == RationalFunction.make(
        curve, f.scalar * g.scalar, f.x_factors + g.x_factors, f.y_exp + g.y_exp
    )
    assert 0 <= product.scalar < p
    assert all(e for _, e in product.x_factors)


def test_product_refuses_functions_on_two_curves(curve43, line43):
    with pytest.raises(ValueError, match="different curves"):
        RationalFunction.one(curve43) * RationalFunction.one(line43)
    other = EllipticCurve(PrimeField(43), 0, 9)  # equal, not identical: one curve
    assert (RationalFunction.one(curve43) * RationalFunction.one(other)).curve == curve43


@pytest.mark.parametrize(
    "factors",
    [((5, 1), (2, 1)), ((2, 1), (2, 1)), ((2, 0),), ((13, 1),), ((-1, 1),)],
    ids=["unsorted", "repeated", "zero-exponent", "alpha-p", "alpha-negative"],
)
def test_the_constructor_refuses_factors_make_would_not_form(factors):
    line = ProjectiveLine(PrimeField(13))
    with pytest.raises(ValueError, match="build with RationalFunction.make"):
        RationalFunction(line, 1, factors)


def test_a_product_of_make_forms_equals_make_of_the_concatenation():
    # The unsorted factors (5, 1), (2, 1) reach a product only through
    # `make`, which sorts them; the product then cancels (2, 1) as `make` does.
    line = ProjectiveLine(PrimeField(13))
    f = RationalFunction.make(line, 1, ((5, 1), (2, 1)))
    assert (f * RationalFunction.x_minus(line, 2, -1)).x_factors == ((5, 1),)
