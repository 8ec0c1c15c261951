"""Rates per genus, and the genus-0 vs genus-1 sweep.

At genus 1 with no curve given, the rates are taken on the first maximal
curve in (a, b) order (`curve.resolve_curve`). That is not always the
best genus-1 rate, which needs the largest #E - Z, not the largest #E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import sizes
from .curve import EllipticCurve, resolve_curve
from .errors import BadParams
from .field import PrimeField


@dataclass(frozen=True)
class SweepRow:
    """One (genus, X = T) data point of the rate comparison."""

    q: int
    genus: int
    x: int
    t: int
    feasible: bool
    l: int | None = None
    n: int | None = None
    rate: Fraction | None = None
    curve_a: int | None = None
    curve_b: int | None = None
    points: int | None = None
    z: int | None = None


def max_rate_g0(q: int, x: int, t: int) -> SweepRow:
    """Largest L with q + 1 >= 2L + X + T + 1; N = L + X + T."""
    sizes.check_levels(x, t)
    PrimeField(q)
    return _best_row(q, 0, x, t, sizes.max_fragments(0, q + 1, x, t))


def max_rate_g1(q: int, x: int, t: int, curve: tuple[int, int] | None = None) -> SweepRow:
    """Largest odd L with #points >= 2L + X + T + 11 + Z; N = L + X + T + 8."""
    sizes.check_levels(x, t)
    model = resolve_curve(PrimeField(q), curve)
    return _g1_row(model, model.point_count(), len(model.zeros_of_y()), x, t)


def _g1_row(model: EllipticCurve, points: int, z: int, x: int, t: int) -> SweepRow:
    """The genus-1 row on a curve with the given point count and Z."""
    best = sizes.max_fragments(1, points, x, t, z)
    return _best_row(
        model.field.p, 1, x, t, best, curve_a=model.a, curve_b=model.b, points=points, z=z
    )


def _best_row(q: int, genus: int, x: int, t: int, best: int, **info) -> SweepRow:
    """The row for the largest feasible fragment count `best` (below 1 when none is).

    `info` holds the curve columns of a genus-1 row.
    """
    if best < 1:
        return SweepRow(q=q, genus=genus, x=x, t=t, feasible=False, **info)
    n = sizes.num_servers(genus, best, x, t)
    return SweepRow(
        q=q, genus=genus, x=x, t=t, feasible=True, l=best, n=n, rate=Fraction(best, n), **info
    )


@dataclass(frozen=True)
class SweepResult:
    q: int
    curve: EllipticCurve
    rows: tuple[SweepRow, ...]
    crossover_xt: int | None
    g0_max_feasible_xt: int | None
    g1_max_feasible_xt: int | None


def sweep(q: int, xt_min: int, xt_max: int) -> SweepResult:
    """Both genera across X = T in [xt_min, xt_max], plus the crossover summary.

    The genus-1 rows use the first maximal curve, counted once. The
    crossover is the smallest X = T where the genus-1 rate strictly beats
    genus 0 (an infeasible genus-0 row counts as beaten).
    """
    if xt_min < 1 or xt_max < xt_min:
        raise BadParams(f"need 1 <= xt_min <= xt_max, got {xt_min} and {xt_max}")
    model = resolve_curve(PrimeField(q), None)
    points, z = model.point_count(), len(model.zeros_of_y())
    g0_rows = [max_rate_g0(q, xt, xt) for xt in range(xt_min, xt_max + 1)]
    g1_rows = [_g1_row(model, points, z, xt, xt) for xt in range(xt_min, xt_max + 1)]
    crossover = None
    for r0, r1 in zip(g0_rows, g1_rows):
        if r1.feasible and (not r0.feasible or r1.rate > r0.rate):
            crossover = r1.x
            break
    g0_max = max((r.x for r in g0_rows if r.feasible), default=None)
    g1_max = max((r.x for r in g1_rows if r.feasible), default=None)
    return SweepResult(
        q=q,
        curve=model,
        rows=tuple(g0_rows) + tuple(g1_rows),
        crossover_xt=crossover,
        g0_max_feasible_xt=g0_max,
        g1_max_feasible_xt=g1_max,
    )


CSV_HEADER = "q,genus,X,T,L,N,rate_num,rate_den,rate,curve_a,curve_b,points,Z,feasible"


def rows_to_csv(rows: tuple[SweepRow, ...]) -> str:
    """Deterministic CSV sorted by (genus, X); empty cells where not applicable."""
    out = [CSV_HEADER]
    for r in sorted(rows, key=lambda row: (row.genus, row.x)):
        cell = lambda v: "" if v is None else str(v)
        rate = "" if r.rate is None else f"{float(r.rate):.4f}"
        rate_num = "" if r.rate is None else str(r.rate.numerator)
        rate_den = "" if r.rate is None else str(r.rate.denominator)
        out.append(
            ",".join(
                [
                    str(r.q),
                    str(r.genus),
                    str(r.x),
                    str(r.t),
                    cell(r.l),
                    cell(r.n),
                    rate_num,
                    rate_den,
                    rate,
                    cell(r.curve_a),
                    cell(r.curve_b),
                    cell(r.points),
                    cell(r.z),
                    str(r.feasible).lower(),
                ]
            )
        )
    return "\n".join(out) + "\n"
