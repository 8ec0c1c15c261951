import dataclasses
from fractions import Fraction

import pytest

from agpir import curve as curve_module
from agpir.curve import EllipticCurve, resolve_curve
from agpir.errors import BadParams, FieldTooLarge, Infeasible
from agpir.field import is_prime
from agpir.pir_scheme import SchemeParams, build_scheme, verify_scheme
from agpir.rates import CSV_HEADER, max_rate_g0, max_rate_g1, rows_to_csv, sweep


def test_max_rate_g0_example_q43():
    row = max_rate_g0(43, 16, 16)
    assert (row.l, row.n, row.rate) == (5, 37, Fraction(5, 37))


def test_max_rate_g0_q127():
    row = max_rate_g0(127, 26, 26)
    assert (row.l, row.n, row.rate) == (37, 89, Fraction(37, 89))
    assert not max_rate_g0(127, 64, 64).feasible


@pytest.mark.parametrize("x, t", [(-3, 1), (0, 0), (1, 0), (0, 5)])
def test_max_rates_refuse_levels_below_one(x, t, monkeypatch):
    monkeypatch.setattr(curve_module, "find_curve", lambda *_: pytest.fail("find_curve reached"))
    message = f"levels must both be >= 1, got X = {x}, T = {t}"
    with pytest.raises(BadParams, match=message):
        max_rate_g0(43, x, t)
    with pytest.raises(BadParams, match=message):
        max_rate_g1(43, x, t)


def test_max_rate_g1_example_q43():
    row = max_rate_g1(43, 16, 16, curve=(0, 9))
    assert (row.l, row.n, row.rate) == (7, 47, Fraction(7, 47))
    assert (row.points, row.z) == (57, 0)


def test_max_rate_g1_q127_crossover_rows():
    win = max_rate_g1(127, 26, 26, curve=(1, 33))
    assert (win.l, win.n, win.rate) == (43, 103, Fraction(43, 103))
    assert win.rate > max_rate_g0(127, 26, 26).rate
    lose = max_rate_g1(127, 25, 25, curve=(1, 33))
    assert lose.rate == Fraction(43, 101)
    assert lose.rate < max_rate_g0(127, 25, 25).rate


def test_l_best_is_maximal():
    g0 = max_rate_g0(43, 16, 16)
    assert 2 * (g0.l + 1) + 16 + 16 + 1 > 43 + 1
    g1 = max_rate_g1(43, 16, 16, curve=(0, 9))
    assert 2 * (g1.l + 2) + 16 + 16 + 11 + g1.z > g1.points  # next odd L fails


def test_resolve_curve_precedence(f127, f43):
    assert (resolve_curve(f127, None).a, resolve_curve(f127, None).b) == (1, 33)  # first maximal
    assert (resolve_curve(f127, (2, 5)).a, resolve_curve(f127, (2, 5)).b) == (2, 5)
    found = resolve_curve(f43, None)  # maximal-curve search
    assert found.point_count() == 57


def test_sweep_q127():
    result = sweep(127, 1, 70)
    assert result.crossover_xt == 26
    assert result.g0_max_feasible_xt == 62
    assert result.g1_max_feasible_xt == 68
    by_key = {(r.genus, r.x): r for r in result.rows}
    assert by_key[0, 26].rate < by_key[1, 26].rate
    assert by_key[0, 25].rate > by_key[1, 25].rate
    for xt in range(1, 26):
        if by_key[1, xt].feasible:
            assert by_key[0, xt].rate >= by_key[1, xt].rate
    gap = [xt for xt in range(1, 71) if not by_key[0, xt].feasible and by_key[1, xt].feasible]
    assert gap == list(range(63, 69))


def test_sweep_q43_matches_example():
    result = sweep(43, 16, 16)
    by_genus = {r.genus: r for r in result.rows}
    assert (by_genus[0].l, by_genus[0].n) == (5, 37)
    assert (by_genus[1].l, by_genus[1].n) == (7, 47)


def test_genus0_beats_genus1_at_equal_n():
    # same N forced: the genus-1 rate is smaller since it loses 8 more symbols
    for n in (30, 50):
        for xt in (5, 9):
            assert 1 - Fraction(2 * xt, n) >= 1 - Fraction(2 * xt + 8, n)


def test_csv_output():
    result = sweep(43, 15, 17)
    text = rows_to_csv(result.rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6
    assert text == rows_to_csv(result.rows)  # deterministic
    genus_col = [int(line.split(",")[1]) for line in lines[1:]]
    assert genus_col == sorted(genus_col)
    g0_16 = lines[2].split(",")
    assert g0_16[:6] == ["43", "0", "16", "16", "5", "37"]
    assert g0_16[8] == f"{5 / 37:.4f}"
    assert g0_16[9:13] == ["", "", "", ""]  # no curve columns at genus 0


def test_infeasible_rows_have_empty_cells():
    text = rows_to_csv((max_rate_g0(127, 64, 64),))
    row = text.strip().split("\n")[1].split(",")
    assert row[4:9] == ["", "", "", "", ""]
    assert row[-1] == "false"


@pytest.mark.parametrize("xt", [1, 5, 10, 16, 20])
def test_feasible_rows_round_trip_q43(xt):
    result = sweep(43, xt, xt)
    for row in result.rows:
        if not row.feasible:
            continue
        curve = None if row.genus == 0 else (row.curve_a, row.curve_b)
        params = SchemeParams(p=row.q, genus=row.genus, x=row.x, t=row.t, l=row.l, curve=curve)
        inst = build_scheme(params)
        assert inst.n == row.n and inst.rate == row.rate
        assert verify_scheme(inst, subsets="sample", sample_count=40).passed


def test_sweep_counts_its_curve_once(monkeypatch):
    calls = []
    count = EllipticCurve.point_count
    monkeypatch.setattr(EllipticCurve, "point_count", lambda self: calls.append(1) or count(self))
    result = sweep(127, 1, 70)
    assert len(calls) == 1
    assert {(r.points, r.z) for r in result.rows if r.genus == 1} == {(150, 1)}


def test_max_rate_g1_refuses_to_count_a_large_field():
    with pytest.raises(FieldTooLarge):
        max_rate_g1(1_000_000_007, 2, 2, (1, 1))


def test_sweep_validates_range():
    with pytest.raises(ValueError):
        sweep(43, 0, 5)
    with pytest.raises(ValueError):
        sweep(43, 6, 5)


def test_rates_require_prime_q():
    from agpir.errors import NotPrime

    with pytest.raises(NotPrime):
        max_rate_g0(44, 1, 1)


@pytest.mark.parametrize("genus", [0, 1])
def test_build_feasibility_matches_max_rate(genus):
    # One L past the best (two at genus 1, where L is odd) must not build;
    # below q = 50 the best L itself is built, on the row's N.
    for q in filter(is_prime, range(5, 200)):
        for x, t in [(1, 1), (2, 5), (q // 3, q // 3), (q // 2, 1)]:
            row = max_rate_g0(q, x, t) if genus == 0 else max_rate_g1(q, x, t)
            curve = None if genus == 0 else (row.curve_a, row.curve_b)
            params = SchemeParams(p=q, genus=genus, x=x, t=t, l=1, curve=curve)
            over = row.l + 1 + genus if row.feasible else 1
            if row.feasible:  # the paper's point bounds, stated here independently
                points = q + 1 if genus == 0 else row.points
                z = 0 if genus == 0 else row.z
                assert 2 * row.l + x + t + 1 + genus * (10 + z) <= points
                assert 2 * over + x + t + 1 + genus * (10 + z) > points
            with pytest.raises(Infeasible):
                build_scheme(dataclasses.replace(params, l=over))
            if row.feasible and q < 50:
                assert build_scheme(dataclasses.replace(params, l=row.l)).n == row.n
