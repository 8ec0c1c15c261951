import os
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir.agcode import (
    LinearCode,
    _sampled_subsets,
    divided_rows,
    evaluation_code,
    information_set,
    is_grs,
    min_distance,
    subset_rank_check,
)
from agpir.curve import INFINITY, AffinePoint
from agpir.errors import (
    BadEnvironment,
    DuplicatePoint,
    InfinityUnsupported,
    LengthMismatch,
    PoleAtEvaluationPoint,
    TooLarge,
)
from agpir.function_space import RationalFunction, basis_poles_at_infinity
from conftest import evaluation_code_reference, rank_column_pivot, subset_rank_check_reference


def line_points(rng):
    return [AffinePoint(x) for x in rng]


def repetition_code(line, n):
    return evaluation_code([RationalFunction.one(line)], line_points(range(n)))


def test_repetition_code(line43):
    rep = repetition_code(line43, 6)
    assert rep.rows == ((1,) * 6,)
    assert (rep.n, rep.k) == (6, 1)
    assert min_distance(rep) == 6


def test_grs_code_from_scaled_monomials(line43):
    # genus-0 evaluation of h * {1, x, x^2} is a GRS code with nu = h(alpha)
    h = RationalFunction.x_minus(line43, 42, -1)
    basis = [h * f for f in basis_poles_at_infinity(line43, 2)]
    pts = line_points(range(8))
    code = evaluation_code(basis, pts)
    assert code.k == 3
    nus = [h.eval_at(pt) for pt in pts]
    assert is_grs(code, [pt.x for pt in pts], nus)
    assert min_distance(code) == code.n - code.k + 1  # MDS


def test_rep_is_grs_with_unit_multipliers(line43):
    rep = repetition_code(line43, 5)
    assert is_grs(rep, [0, 1, 2, 3, 4], [1] * 5)


def test_is_grs_length_mismatch(line43):
    rep = repetition_code(line43, 5)
    with pytest.raises(LengthMismatch):
        is_grs(rep, [0, 1], [1, 1])


def test_empty_basis_is_refused():
    with pytest.raises(ValueError, match="non-empty basis"):
        evaluation_code([], line_points(range(4)))


def test_evaluation_code_rejects_bad_points(line43):
    one = [RationalFunction.one(line43)]
    with pytest.raises(DuplicatePoint):
        evaluation_code(one, [AffinePoint(1), AffinePoint(1)])
    with pytest.raises(InfinityUnsupported):
        evaluation_code(one, [INFINITY, AffinePoint(1)])
    pole = [RationalFunction.x_minus(line43, 1, -1)]
    with pytest.raises(PoleAtEvaluationPoint, match=re.escape("(x-1)^-1 has a pole at (1)")):
        evaluation_code(pole, [AffinePoint(1)])


def test_min_distance_cap(line43, monkeypatch):
    # 43^2 - 1 = 1848 nonzero codewords: a cap one below refuses, the cap itself runs.
    code = evaluation_code(basis_poles_at_infinity(line43, 1), line_points(range(12)))
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "1847")
    with pytest.raises(TooLarge, match="1848 codewords"):
        min_distance(code)
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "1848")
    assert min_distance(code) == 11


@pytest.mark.parametrize("value", ["1e6", "lots", "10.5"])
def test_non_integer_bruteforce_cap_raises_a_typed_error(line43, monkeypatch, value):
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", value)
    code = evaluation_code(basis_poles_at_infinity(line43, 1), line_points(range(6)))
    with pytest.raises(BadEnvironment, match=rf"PIR_AG_MAX_BRUTEFORCE .*'{value}'"):
        min_distance(code)
    with pytest.raises(BadEnvironment, match="PIR_AG_MAX_BRUTEFORCE"):
        subset_rank_check(code, 2)


def test_integer_bruteforce_cap_from_the_environment(line43, monkeypatch):
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "100")
    code = evaluation_code(basis_poles_at_infinity(line43, 5), line_points(range(12)))
    with pytest.raises(TooLarge, match="cap 100"):
        min_distance(code)


def test_singleton_bound_on_genus0_codes(line43):
    for k in (1, 2, 3):
        code = evaluation_code(basis_poles_at_infinity(line43, k - 1), line_points(range(9)))
        d = min_distance(code)
        assert code.k + d == code.n + 1


def test_subset_rank_check_mds(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(8)))
    report = subset_rank_check(code, 3, mode="all")
    assert report.passed and report.mode == "all"
    assert report.checked == report.total


def test_subset_rank_check_detects_dependence():
    code = LinearCode(5, 3, ((1, 0, 1), (0, 1, 0)))
    report = subset_rank_check(code, 2, mode="all")
    assert not report.passed
    assert (0, 2) in report.failures


def test_subset_rank_check_sample_fallback(line43, monkeypatch):
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "1000")
    code = evaluation_code(basis_poles_at_infinity(line43, 9), line_points(range(30)))
    report = subset_rank_check(code, 10, mode="all", sample_count=50, seed=7)
    assert report.mode == "sample"
    assert report.checked == 50 and report.passed


@pytest.mark.parametrize("count", [0, -5])
def test_subset_rank_check_rejects_an_empty_sample(line43, monkeypatch, count):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(8)))
    with pytest.raises(ValueError, match="sample_count >= 1"):
        subset_rank_check(code, 3, mode="sample", sample_count=count)
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "1")
    with pytest.raises(ValueError, match="sample_count >= 1"):  # exhaustive mode over its cap
        subset_rank_check(code, 3, mode="all", sample_count=count)


def test_subset_rank_check_rejects_t_above_k(line43):
    rep = repetition_code(line43, 4)
    with pytest.raises(ValueError):
        subset_rank_check(rep, 2)


def test_find_independent_columns(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(8)))
    assert information_set(code.rows, 43, 3) == ((0, 1, 2), 3)
    assert information_set(code.rows, 43, 4).achieved == 3  # no 4 independent columns


def test_information_set_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cols, achieved = information_set(eye, 5, want=3)
    assert cols == (0, 1, 2) and achieved == 3


def test_information_set_rank_deficient():
    rows = [[1, 2, 3], [2, 4, 6]]
    cols, achieved = information_set(rows, 7, want=2)
    assert achieved == 1 and cols == (0,)


def assert_both_modes_match_the_reference(code, t, count, seed):
    """Sampled and exhaustive checks equal the reference's, exhaustive ones capped at 200 000.

    The cap is above C(20, 10), so every code of 20 columns or fewer is still
    checked in full; above it both fall back to sampling, which bounds the
    cost of an independent code of 40 columns.
    """
    with mock.patch.dict(os.environ, {"PIR_AG_MAX_BRUTEFORCE": "200000"}):
        for mode in ("all", "sample"):
            expected = subset_rank_check_reference(code, t, mode, sample_count=count, seed=seed)
            assert subset_rank_check(code, t, mode, sample_count=count, seed=seed) == expected


@st.composite
def codes_with_dependent_columns(draw):
    """(code, t): a k x n code G = A @ B with inner dimension r, so its rank is at most r.

    Entries favour 0 and 1, and some columns of B repeat or vanish, so that
    many column subsets are dependent even at p = 257. Lengths reach 40, so
    samples of up to 5 columns of 22 or more take `Random.sample`'s set branch.
    """
    p = draw(st.sampled_from((2, 3, 5, 257)))
    k, r, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 40))
    entry = st.one_of(st.sampled_from((0, 1)), st.integers(0, p - 1))
    a = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=k, max_size=k))
    b_cols = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=1, max_size=n))
    b_cols = [b_cols[draw(st.integers(0, len(b_cols) - 1))] for _ in range(n)]
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in b_cols) for row in a
    )
    code = LinearCode(p, n, rows)
    return code, draw(st.integers(0, code.k))


@settings(max_examples=300, deadline=None)
@given(case=codes_with_dependent_columns(), count=st.integers(1, 20), seed=st.integers(0, 99))
def test_subset_rank_check_matches_the_per_subset_reference(case, count, seed):
    code, t = case
    assert_both_modes_match_the_reference(code, t, count, seed)


@st.composite
def codes_of_either_height(draw):
    """(code, t): G = A @ B as above, at most 16 rows or more, entries shifted by multiples of p.

    A code of at most 16 rows has columns of at most 16 entries, which the
    check packs in slots of 8 bytes or more; taller codes get 4-byte slots
    at small p. Inner dimension r and repeated columns of B make dependent
    subsets common, so many draws stop after five failures. Half the draws
    take t = rank, the largest subsets and the most clears per subset.
    """
    p = draw(st.sampled_from((2, 5, 43, 257, 2**31 - 1, 2**61 - 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = rng.randint(17, 24) if draw(st.booleans()) else rng.randint(1, 16)
    r, n = rng.randint(1, 12), rng.randint(1, 40)

    def entries(count):
        return [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(count)]

    a = [entries(r) for _ in range(k)]
    b_cols = [entries(r) for _ in range(rng.randint(min(r, n), n))]
    b_cols = [rng.choice(b_cols) for _ in range(n)]
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p + p * rng.randint(-2, 2) for col in b_cols)
        for row in a
    )
    code = LinearCode(p, n, rows)
    return code, code.k if draw(st.booleans()) else rng.randint(0, code.k)


@settings(max_examples=200, deadline=None)
@given(case=codes_of_either_height(), count=st.integers(1, 40), seed=st.integers(0, 99))
def test_subset_rank_check_matches_the_reference_at_either_slot_width(case, count, seed):
    code, t = case
    assert_both_modes_match_the_reference(code, t, count, seed)


@st.composite
def codes_with_repeated_pivot_columns(draw):
    """(code, t): dependent rows whose pivot columns repeat later or sit beside zero columns.

    The check ranks a subset on the code's systematic form: its columns on
    the pivots are unit vectors, and only the rest are eliminated. Here r
    independent columns come first among zero columns, and every later
    column is zero, a multiple of one of them, or a random combination, so
    subsets often hold a pivot column and its copy (dependent with one
    column left to rank), only pivot columns, or a zero column. The rows are
    those r columns' coordinates and combinations of them: rank r < len(rows).
    """
    p = draw(st.sampled_from((2, 3, 5, 43, 257)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = rng.randint(1, 6)
    height = rng.randint(r + 1, r + 4)
    n = rng.randint(2 * r, 40)
    unit = [[int(i == j) for i in range(r)] for j in range(r)]
    cols = []
    for col in unit:
        cols += [[0] * r] * rng.randint(0, 1) + [col]
    while len(cols) < n:
        kind = rng.randrange(3)
        if kind == 0:
            cols.append([0] * r)
        elif kind == 1:
            scale = rng.randrange(1, p)
            cols.append([scale * v % p for v in rng.choice(unit)])
        else:
            cols.append([rng.choice((0, 1, rng.randrange(p))) for _ in range(r)])
    a = unit + [[rng.randrange(p) for _ in range(r)] for _ in range(height - r)]
    rng.shuffle(a)
    rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)
    code = LinearCode(p, n, rows)
    return code, code.k if draw(st.booleans()) else rng.randint(0, code.k)


@settings(max_examples=200, deadline=None)
@given(case=codes_with_repeated_pivot_columns(), count=st.integers(1, 40), seed=st.integers(0, 99))
def test_subset_rank_check_matches_the_reference_on_repeated_pivot_columns(case, count, seed):
    code, t = case
    assert code.k < len(code.rows)
    assert_both_modes_match_the_reference(code, t, count, seed)


def sample_draws(seed, n, t, count):
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(n), t))) for _ in range(count)]


@settings(max_examples=500, deadline=None)
@given(data=st.data(), seed=st.integers(), count=st.integers(1, 10))
def test_sampled_subsets_are_the_draws_of_random_sample(data, seed, count):
    # Pinned to the library call on every interpreter the suite runs on, so a
    # change to `Random.sample` fails here instead of changing the draws.
    n = data.draw(st.integers(0, 120), label="n")
    t = data.draw(st.integers(0, min(n, 24)), label="t")
    assert list(_sampled_subsets(seed, n, t, count)) == sample_draws(seed, n, t, count)


@pytest.mark.parametrize(
    "n, t",
    [
        (0, 0), (5, 5), (21, 5), (85, 6), (85, 21), (277, 22), (120, 24),  # a pool of indices
        (22, 5), (22, 1), (40, 3), (86, 6), (120, 21), (278, 22), (500, 24),  # a set of picks
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_sampled_subsets_follow_both_branches_of_random_sample(n, t, seed):
    # `sample` keeps a pool when n <= 21 + 4**ceil(log4(3t)) (21 for t <= 5), else a set.
    assert list(_sampled_subsets(seed, n, t, 30)) == sample_draws(seed, n, t, 30)


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@pytest.mark.parametrize("mode", ["all", "sample"])
def test_subset_rank_check_with_t_equal_to_n(p, mode):
    # The only subset is every column: independent for an invertible square
    # code, dependent once a column repeats.
    square = LinearCode(p, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    report = subset_rank_check(square, 3, mode, sample_count=4, seed=1)
    assert report == subset_rank_check_reference(square, 3, mode, sample_count=4, seed=1)
    assert report.passed and report.total == 1
    repeated = LinearCode(p, 3, ((1, 1, 0), (0, 0, 1)))
    report = subset_rank_check(repeated, 2, mode, sample_count=4, seed=1)
    assert report == subset_rank_check_reference(repeated, 2, mode, sample_count=4, seed=1)
    assert not report.passed and (0, 1) in report.failures


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@pytest.mark.parametrize("mode", ["all", "sample"])
def test_subset_rank_check_stops_after_five_failures(p, mode):
    # A zero column makes every subset that holds it dependent: 7 of the
    # C(8, 2) = 28 pairs in exhaustive order, and most samples.
    rows = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 1, 1, 1, 1, 1, 1))
    code = LinearCode(p, 8, tuple(tuple(v % p for v in row) for row in rows))
    report = subset_rank_check(code, 2, mode, sample_count=200, seed=3)
    assert report == subset_rank_check_reference(code, 2, mode, sample_count=200, seed=3)
    assert len(report.failures) == 5 and not report.passed
    # Only the subsets ranked up to the fifth failure count as checked.
    assert 5 <= report.checked < 200
    if mode == "all":
        assert report.failures == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
        assert report.checked == 5 and report.total == 28


def test_subset_report_passes_exactly_when_it_holds_no_failure():
    square = LinearCode(5, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    rep = subset_rank_check(square, 2, mode="all")
    assert rep.passed and rep.failures == ()
    assert not rep._replace(failures=((0, 1),)).passed


def test_removing_column_breaks_non_mds():
    # negative control: a non-MDS code has some k dependent columns
    code = LinearCode(5, 4, ((1, 0, 0, 1), (0, 1, 1, 0)))
    report = subset_rank_check(code, 2, mode="all")
    assert not report.passed


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(0, 12), min_size=5, max_size=5),
        min_size=2,
        max_size=4,
    )
)
def test_rank_agreement_on_code_rows(rows):
    code = LinearCode(13, 5, tuple(tuple(r) for r in rows))
    assert code.k == rank_column_pivot(rows, 13)


def test_genus1_scheme_codes_structure():
    from agpir.pir_scheme import SchemeParams, build_scheme

    inst = build_scheme(SchemeParams(p=43, genus=1, x=3, t=3, l=7, curve=(0, 9)))
    priv = inst.priv_code
    # privacy code has dimension T + 1, so some T+1 server sets stay private
    witness = information_set(priv.rows, inst.p, inst.t + 1)
    assert witness.achieved == len(witness.columns) == inst.t + 1
    # recorded outcome: with a y-term in the basis this code is not a GRS code
    # for the natural evaluation-point/multiplier candidates
    alphas = [pt.x for pt in inst.eval_points]
    ys = [pt.y for pt in inst.eval_points]
    assert not is_grs(priv, alphas, [1] * priv.n)
    assert not is_grs(priv, alphas, ys)
    for code in inst.sec_codes:
        assert code.k == inst.x + 1
        assert information_set(code.rows, inst.p, inst.x + 1).achieved == inst.x + 1


def test_divided_rows_scales_each_column_by_an_inverse():
    rows = ((1, 2, 3), (0, 4, 6))
    assert divided_rows(rows, (1, 2, 3), 7) == [[1, 1, 1], [0, 2, 2]]
    assert divided_rows(rows, (8, 9, 10), 7) == [[1, 1, 1], [0, 2, 2]]  # scales read mod p


def test_divided_rows_rejects_a_zero_scale():
    rows = ((1, 2, 3),)
    with pytest.raises(PoleAtEvaluationPoint, match="column 1"):
        divided_rows(rows, (1, 0, 3), 7)
    with pytest.raises(PoleAtEvaluationPoint, match="column 1"):
        divided_rows(rows, (1, 7, 3), 7)
    with pytest.raises(PoleAtEvaluationPoint, match="column 2"):
        divided_rows(rows, (1, 2, 14), 7)  # 14 = 0 mod 7
    with pytest.raises(LengthMismatch):
        divided_rows(rows, (1, 2), 7)


def off_curve_points(curve):
    """Affine points that are not on the curve (on the line: a point with a y, or x = p)."""
    p = curve.field.p
    if curve.genus == 0:
        return st.sampled_from([AffinePoint(0, 0), AffinePoint(p)])
    pairs = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    return pairs.filter(lambda xy: xy[1] * xy[1] % p != curve.rhs(xy[0])).map(
        lambda xy: AffinePoint(*xy)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluation_code_rows_follow_the_per_entry_value_rule(line43, curve43, curve127, data):
    # One `evaluate_rows` pass over the basis must give the rows of one
    # `eval_at` per entry: the same values, the same first pole, and
    # off-curve points refused. curve127 has a rational two-torsion point,
    # where the order rule and the value take their other branch.
    curve = data.draw(st.sampled_from([line43, curve43, curve127]))
    p = curve.field.p
    affine = curve.enumerate_points()[1:]
    points = data.draw(st.lists(st.sampled_from(affine), min_size=1, max_size=10, unique=True))
    torsion = curve.zeros_of_y() if curve.genus else ()
    if torsion and torsion[0] not in points and data.draw(st.booleans()):
        points.insert(data.draw(st.integers(0, len(points))), torsion[0])
    # Factors at the points' own x make poles and zeros likely.
    alpha = st.sampled_from(sorted({pt.x for pt in points})) | st.integers(0, p - 1)
    function = st.builds(
        RationalFunction.make,
        st.just(curve),
        st.integers(1, p - 1),
        st.lists(st.tuples(alpha, st.integers(-3, 3)), max_size=4),
        st.integers(-3, 3) if curve.genus else st.just(0),
    )
    basis = data.draw(st.lists(function, min_size=1, max_size=4))
    try:
        expected = evaluation_code_reference(basis, points)
    except PoleAtEvaluationPoint as exc:
        with pytest.raises(PoleAtEvaluationPoint) as raised:
            evaluation_code(basis, points)
        assert str(raised.value) == str(exc)
    else:
        assert evaluation_code(basis, points) == expected
        assert tuple(tuple(f.eval_at(pt) for pt in points) for f in basis) == expected.rows
    # Points are checked before any function is evaluated, poles or not.
    off = data.draw(off_curve_points(curve))
    at = data.draw(st.integers(0, len(points)))
    with pytest.raises(ValueError, match="is not on"):
        evaluation_code(basis, points[:at] + [off] + points[at:])
    with pytest.raises(ValueError, match="is not on"):
        basis[0].eval_at(off)


def test_evaluation_code_refuses_a_basis_on_two_curves(line43, curve43):
    basis = [RationalFunction.one(curve43), RationalFunction.one(line43)]
    with pytest.raises(ValueError, match="different curves"):
        evaluation_code(basis, curve43.fiber(1))
