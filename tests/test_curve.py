from itertools import product

import pytest

from agpir.curve import (
    INFINITY,
    AffinePoint,
    EllipticCurve,
    PointAtInfinity,
    ProjectiveLine,
    admissible_traces,
    attained_traces,
    find_curve,
    hasse_window,
    point_key,
    _point_counts,
)
from agpir.errors import FieldTooLarge, NoSuchCurve, SingularCurve
from agpir.field import PrimeField, is_prime
from conftest import point_counts_reference


def brute_force_points(p, a, b):
    """Independent double-loop oracle for the affine points of y^2 = x^3 + ax + b."""
    return {(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0}


def test_tiny_curve_point_count_oracle():
    f5 = PrimeField(5)
    curve = EllipticCurve(f5, 0, 1)
    pts = curve.enumerate_points()
    assert len(pts) == 6
    affine = {(pt.x, pt.y) for pt in pts if not isinstance(pt, PointAtInfinity)}
    assert affine == brute_force_points(5, 0, 1)


def test_reference_curves_q43_q127(curve43, curve127):
    assert len(curve43.enumerate_points()) == 57
    assert curve43.point_count() == 57
    assert len(curve127.enumerate_points()) == 150
    assert curve127.point_count() == 150


def test_zeros_of_y(curve43, curve127):
    assert curve43.zeros_of_y() == ()
    assert len(curve127.zeros_of_y()) == 1
    f5 = PrimeField(5)
    assert EllipticCurve(f5, 0, 1).zeros_of_y() == (AffinePoint(4, 0),)  # 4^3 + 1 = 65 = 0 mod 5
    split = EllipticCurve(PrimeField(43), -1, 0)  # x^3 - x = x (x - 1) (x + 1)
    assert split.zeros_of_y() == (AffinePoint(0, 0), AffinePoint(1, 0), AffinePoint(42, 0))


def test_contains_needs_canonical_coordinates(curve43):
    pt = curve43.fiber(1)[0]
    assert curve43.contains(pt)
    assert not curve43.contains(AffinePoint(pt.x + 43, pt.y))
    assert not curve43.contains(AffinePoint(pt.x, pt.y - 43))


def test_singular_curve_rejected(f43):
    with pytest.raises(SingularCurve):
        EllipticCurve(f43, 0, 0)
    f5 = PrimeField(5)
    with pytest.raises(SingularCurve):
        EllipticCurve(f5, 2, 3)  # 4*8 + 27*9 = 275 = 0 mod 5


@pytest.mark.parametrize(
    "q,window",
    [(43, (31, 57)), (127, (106, 150)), (5, (2, 10))],
)
def test_hasse_window(q, window):
    assert hasse_window(q) == window


def test_enumeration_is_canonical(curve43):
    pts = curve43.enumerate_points()
    assert pts[0] is INFINITY
    assert sum(isinstance(pt, PointAtInfinity) for pt in pts) == 1
    assert list(pts) == sorted(pts, key=point_key)
    for pt in pts[1:]:
        assert pt.y * pt.y % 43 == (pt.x**3 + 9) % 43  # independent recheck
    assert set(pts) == set(curve43.enumerate_points())


def test_point_count_in_hasse_window():
    f13 = PrimeField(13)
    lo, hi = hasse_window(13)
    for a in range(13):
        for b in range(13):
            if (4 * a**3 + 27 * b**2) % 13 == 0:
                continue
            assert lo <= len(EllipticCurve(f13, a, b).enumerate_points()) <= hi


def test_projective_line_count(f43):
    pts = ProjectiveLine(f43).enumerate_points()
    assert len(pts) == 44
    assert pts[0] is INFINITY


def primes_in(lo, hi):
    return [q for q in range(lo, hi) if is_prime(q)]


@pytest.mark.parametrize("q", primes_in(5, 62))
def test_point_count_rows_equal_the_character_sums(q):
    pairs = list(product(range(q), repeat=2))
    assert list(_point_counts(q, pairs)) == list(point_counts_reference(q, pairs))


def test_point_count_rows_take_any_order_and_unreduced_coefficients():
    pairs = [(-1, 0), (44, 9), (0, 9), (1, -3), (0, 0), (44, 10), (1, 40)]
    assert list(_point_counts(43, pairs)) == list(point_counts_reference(43, pairs))


@pytest.mark.parametrize("q", primes_in(5, 44))
def test_find_curve_is_the_first_reference_hit_for_every_need(q):
    counts = list(point_counts_reference(q, product(range(q), repeat=2)))
    lo, hi = hasse_window(q)
    for need in range(lo, hi + 1):
        a, b = next((a, b) for a, b, count in counts if count >= need)
        curve = find_curve(PrimeField(q), need)
        assert (curve.a, curve.b) == (a, b)


@pytest.mark.parametrize("q", primes_in(5, 200))
def test_find_curve_is_the_first_reference_maximal_curve(q):
    need = hasse_window(q)[1]
    hits = point_counts_reference(q, product(range(q), repeat=2))
    a, b = next((a, b) for a, b, count in hits if count >= need)
    curve = find_curve(PrimeField(q), need)
    assert (curve.a, curve.b) == (a, b)


@pytest.mark.parametrize("q", primes_in(5, 62))
def test_attained_traces_match_existence_criterion(q):
    assert attained_traces(q) == admissible_traces(q)


def test_attained_traces_within_hasse_window():
    lo, hi = hasse_window(7)
    counts = {7 + 1 - a for a in attained_traces(7)}
    assert counts <= set(range(lo, hi + 1))
    assert max(counts) == 13  # 7 + 1 + 5


def test_attained_traces_rejects_large_field():
    with pytest.raises(FieldTooLarge):
        attained_traces(521)


def test_find_curve_examples(f43, f127):
    c = find_curve(f43, 57)
    assert c.point_count() == 57
    assert find_curve(f43, 57) == c  # deterministic
    c127 = find_curve(f127, 150)
    assert c127.point_count() == 150
    with pytest.raises(NoSuchCurve):
        find_curve(f43, 58)
    with pytest.raises(NoSuchCurve):
        find_curve(f43, 60)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_find_curve_is_the_first_smooth_curve_by_brute_force(q):
    # Singular (a, b), such as y^2 = x^3, have about q + 1 points too, so
    # every threshold in the Hasse window tests that they are skipped.
    counts = [
        ((a, b), len(brute_force_points(q, a, b)) + 1)
        for a in range(q)
        for b in range(q)
        if (4 * a**3 + 27 * b**2) % q
    ]
    lo, hi = hasse_window(q)
    for need in range(lo, hi + 1):
        a, b = next(ab for ab, count in counts if count >= need)
        curve = find_curve(PrimeField(q), need)
        assert (curve.a, curve.b) == (a, b)
        assert EllipticCurve(PrimeField(q), a, b).point_count() == dict(counts)[a, b]


def test_fiber_shapes(curve127):
    # one ramified fiber (the single zero of y), the rest split or inert
    zero_x = curve127.zeros_of_y()[0].x
    assert curve127.fiber(zero_x) == (AffinePoint(zero_x, 0),)
    sizes = {len(curve127.fiber(x)) for x in range(127)}
    assert sizes == {0, 1, 2}
