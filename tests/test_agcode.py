import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir import linalg
from agpir.agcode import (
    LinearCode,
    divide_columns,
    dual,
    evaluation_code,
    find_independent_columns,
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
from conftest import rank_column_pivot


def line_points(rng):
    return [AffinePoint(x) for x in rng]


def repetition_code(line, n):
    return evaluation_code([RationalFunction.one(line)], line_points(range(n)))


def test_repetition_code(line43):
    rep = repetition_code(line43, 6)
    assert rep.rows == ((1,) * 6,)
    assert (rep.n, rep.k) == (6, 1)
    assert min_distance(rep) == 6


def test_repetition_dual_is_parity(line43):
    rep = repetition_code(line43, 5)
    d = dual(rep)
    assert (d.n, d.k) == (5, 4)
    # parity code: generated by differences of unit vectors
    parity = [[1, 42, 0, 0, 0], [0, 1, 42, 0, 0], [0, 0, 1, 42, 0], [0, 0, 0, 1, 42]]
    assert linalg.row_space_equal(d.rows, parity, 43)
    # G H^T = 0 exactly
    for g in rep.rows:
        for h in d.rows:
            assert sum(a * b for a, b in zip(g, h)) % 43 == 0


def test_dual_is_involution(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(7)))
    dd = dual(dual(code))
    assert linalg.row_space_equal(code.rows, dd.rows, 43)


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


def test_empty_basis_gives_zero_dimensional_code(line43):
    code = evaluation_code([], line_points(range(4)), p=43)
    assert (code.n, code.k) == (4, 0)
    assert dual(code).k == 4
    with pytest.raises(ValueError):
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


def test_min_distance_cap(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 5), line_points(range(12)))
    with pytest.raises(TooLarge):
        min_distance(code, cap=100)


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


def test_subset_rank_check_sample_fallback(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 9), line_points(range(30)))
    report = subset_rank_check(code, 10, mode="all", cap=1000, sample_count=50, seed=7)
    assert report.mode == "sample" and report.requested_mode == "all"
    assert report.checked == 50 and report.passed


@pytest.mark.parametrize("count", [0, -5])
def test_subset_rank_check_rejects_an_empty_sample(line43, count):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(8)))
    with pytest.raises(ValueError, match="sample_count >= 1"):
        subset_rank_check(code, 3, mode="sample", sample_count=count)
    with pytest.raises(ValueError, match="sample_count >= 1"):  # exhaustive mode over its cap
        subset_rank_check(code, 3, mode="all", cap=1, sample_count=count)


def test_subset_rank_check_rejects_t_above_k(line43):
    rep = repetition_code(line43, 4)
    with pytest.raises(ValueError):
        subset_rank_check(rep, 2)


def test_find_independent_columns(line43):
    code = evaluation_code(basis_poles_at_infinity(line43, 2), line_points(range(8)))
    assert find_independent_columns(code, 3) == (0, 1, 2)
    assert find_independent_columns(code, 4) is None


def test_information_set_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cols, achieved = information_set(eye, 5, want=3)
    assert cols == (0, 1, 2) and achieved == 3


def test_information_set_rank_deficient():
    rows = [[1, 2, 3], [2, 4, 6]]
    cols, achieved = information_set(rows, 7, want=2)
    assert achieved == 1 and cols == (0,)


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
    d = dual(code)
    assert d.k == 5 - code.k


def test_genus1_scheme_codes_structure():
    from agpir.pir_scheme import SchemeParams, build_scheme

    inst = build_scheme(SchemeParams(p=43, genus=1, x=3, t=3, l=7, curve=(0, 9)))
    priv = inst.priv_code
    # privacy code has dimension T + 1, so some T+1 server sets stay private
    witness = find_independent_columns(priv, inst.t + 1)
    assert witness is not None and len(witness) == inst.t + 1
    # recorded outcome: with a y-term in the basis this code is not a GRS code
    # for the natural evaluation-point/multiplier candidates
    alphas = [pt.x for pt in inst.eval_points]
    ys = [pt.y for pt in inst.eval_points]
    assert not is_grs(priv, alphas, [1] * priv.n)
    assert not is_grs(priv, alphas, ys)
    for code in inst.sec_codes:
        assert code.k == inst.x + 1
        assert find_independent_columns(code, inst.x + 1) is not None


def test_divide_columns_scales_each_column_by_an_inverse():
    code = LinearCode(7, 3, ((1, 2, 3), (0, 4, 6)))
    scaled = divide_columns(code, (1, 2, 3))
    assert scaled.rows == ((1, 1, 1), (0, 2, 2))
    assert (scaled.p, scaled.n) == (7, 3)


def test_divide_columns_rejects_a_zero_scale():
    code = LinearCode(7, 3, ((1, 2, 3),))
    with pytest.raises(PoleAtEvaluationPoint, match="column 1"):
        divide_columns(code, (1, 0, 3))
    with pytest.raises(PoleAtEvaluationPoint, match="column 2"):
        divide_columns(code, (1, 2, 14))  # 14 = 0 mod 7
    with pytest.raises(LengthMismatch):
        divide_columns(code, (1, 2))
