import copy
import dataclasses
import hashlib
import itertools
import json
import operator
import random
import time
from math import comb

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from agpir import curve as curve_module
from agpir import linalg, pir_scheme, sizes
from agpir.agcode import (
    LinearCode,
    divided_rows,
    evaluation_code,
    information_set,
    subset_rank_check,
)
from agpir.cli import PACKAGE_ERRORS
from agpir.curve import (
    AffinePoint,
    EllipticCurve,
    PointAtInfinity,
    _point_counts,
    find_curve,
    hasse_window,
)
from agpir.errors import (
    BadIndex,
    BadL,
    BadParams,
    BadTheta,
    CurveTooSmall,
    DescriptorMismatch,
    Infeasible,
    InconsistentSystem,
    PoleAtEvaluationPoint,
    ShapeMismatch,
    UncertifiedRows,
)
from agpir.field import PrimeField, is_prime
from agpir.function_space import (
    Divisor,
    RationalFunction,
    interp_basis_g0,
    interp_basis_g1,
    place_key,
)
from agpir.pir_scheme import (
    Database,
    SchemeParams,
    ServerView,
    Table,
    build_scheme,
    check_noise_containment,
    decode,
    make_queries,
    noise_products,
    scheme_descriptor,
    scheme_from_descriptor,
    server_respond,
    server_view,
    store,
    verify_scheme,
)
from agpir.rates import max_rate_g1
from conftest import (
    ZeroRng,
    decode_reference,
    masked_reference,
    server_view_reference,
    solve_augmented,
    solve_decode_reference,
)

G0_Q43 = SchemeParams(p=43, genus=0, x=16, t=16, l=5)
G1_Q43 = SchemeParams(p=43, genus=1, x=16, t=16, l=7, curve=(0, 9))
G0_TINY = SchemeParams(p=13, genus=0, x=2, t=2, l=3)
G1_TINY = SchemeParams(p=13, genus=1, x=1, t=1, l=1)
# Large primes put the packed kernel on its 8-byte and wide slots.
G0_P31 = SchemeParams(p=2**31 - 1, genus=0, x=3, t=3, l=4)
G0_P61 = SchemeParams(p=2**61 - 1, genus=0, x=3, t=3, l=4)
# The serve instance of the benchmark.
G0_Q257 = SchemeParams(p=257, genus=0, x=40, t=40, l=88)
# The genus-1 crossover instance at q = 127 (curve y^2 = x^3 + x + 33).
G1_Q127 = SchemeParams(p=127, genus=1, x=30, t=30, l=33, curve=(1, 33))
# Genus 1 with X + T odd: the last candidate is half a fiber, and its partner
# completes the whole fibers the closed form reads.
G1_Q43_ODD = SchemeParams(p=43, genus=1, x=16, t=15, l=7, curve=(0, 9))
# X + T even, but Delta = sum_j ell(alpha_j) / (Pi'(alpha_j) R(alpha_j)) = 0
# on the first 2F candidates, so they are dependent and the spare is one of
# them. (0, 1) is the first such curve in (a, b) order at these parameters.
G1_Q67_ZERO = SchemeParams(p=67, genus=1, x=10, t=8, l=9, curve=(0, 1))
# X + T odd, with the first N candidates dependent: the build keeps candidate
# 20, drops 19, and candidate 18 is the spare.
G1_Q29_DROP = SchemeParams(p=29, genus=1, x=4, t=3, l=5, curve=(15, 3))
# X + T odd at L = 991 (N = 1002), where the build used to eliminate for seconds.
G1_P2003 = SchemeParams(p=2003, genus=1, x=2, t=1, l=991, curve=(1, 1))

# Instances on which the derived security codes and the single decode
# elimination are checked against the direct per-fragment computations.
ORACLE_INSTANCES = ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43", "g1_q127"]

# sha256 of json.dumps(scheme_descriptor(inst)), recorded from builds that
# evaluated every fragment's security basis function by function.
DESCRIPTOR_SHA256 = {
    "g0_tiny": "00091bb11c578a5007aeea184255bba6cbb9c466ce61b844c9ad7135bdf0ddbb",
    "g1_tiny": "88ff1d1c03ffc99ec1030e580da63cc27b65bc36ef8a19b4c9d77902daba6196",
    "g0_q43": "744c4ba746892080d6eb68ed48a26584d559fe5b3c7686d3def6cc92e443c963",
    "g1_q43": "9c5be40b40cb02a35a141cd0eb523869cab82e689e3c7b77de623399978c4a9c",
    "g1_q127": "35636d5f01eeec47fbf8976710511ec6fa9ec75779d4a876b00f7b863e3ead24",
}


@pytest.fixture(scope="module")
def g0_q43():
    return build_scheme(G0_Q43)


@pytest.fixture(scope="module")
def g1_q43():
    return build_scheme(G1_Q43)


@pytest.fixture(scope="module")
def g0_tiny():
    return build_scheme(G0_TINY)


@pytest.fixture(scope="module")
def g1_tiny():
    return build_scheme(G1_TINY)


@pytest.fixture(scope="module")
def g0_p31():
    return build_scheme(G0_P31)


@pytest.fixture(scope="module")
def g0_p61():
    return build_scheme(G0_P61)


@pytest.fixture(scope="module")
def g0_q257():
    return build_scheme(G0_Q257)


@pytest.fixture(scope="module")
def g1_q127():
    return build_scheme(G1_Q127)


def reference_store(inst, db, rng):
    """Per-symbol share formula: fragment plus security noise, one sum per server."""
    p = inst.p
    shares = []
    for ell in range(inst.l):
        sec_rows = inst.sec_codes[ell].rows
        per_file = []
        for file in db.files:
            coeffs = [rng.randrange(p) for _ in range(inst.sec_dim)]
            enc = file[ell]
            per_file.append(
                tuple(
                    (enc + sum(c * row[n] for c, row in zip(coeffs, sec_rows))) % p
                    for n in range(inst.n)
                )
            )
        shares.append(tuple(per_file))
    return tuple(shares)


def reference_make_queries(inst, theta, num_files, rng):
    """Per-symbol query formula: fragment basis row for file theta plus privacy noise."""
    p = inst.p
    priv_rows = inst.priv_code.rows
    queries = []
    for ell in range(inst.l):
        base = inst.info_rows[ell]
        per_file = []
        for m in range(num_files):
            coeffs = [rng.randrange(p) for _ in range(inst.priv_dim)]
            wanted = 1 if m == theta - 1 else 0
            per_file.append(
                tuple(
                    (wanted * base[n] + sum(c * row[n] for c, row in zip(coeffs, priv_rows))) % p
                    for n in range(inst.n)
                )
            )
        queries.append(tuple(per_file))
    return tuple(queries)


def run_round(inst, db, theta, seed):
    rng = random.Random(seed)
    shares = store(inst, db, rng)
    queries = make_queries(inst, theta, len(db), rng)
    responses = [
        server_respond(server_view(shares, n), server_view(queries, n), inst.p)
        for n in range(inst.n)
    ]
    return shares, queries, responses, decode(inst, responses)


def test_genus0_example_dimensions(g0_q43):
    assert g0_q43.n == 37
    assert g0_q43.rate.numerator == 5 and g0_q43.rate.denominator == 37
    assert [pt.x for pt in g0_q43.fragment_points] == [0, 1, 2, 3, 4]
    assert [pt.x for pt in g0_q43.eval_points] == list(range(5, 42))
    assert len(g0_q43.decode_rows) == 37  # square decode matrix


def test_genus1_example_dimensions(g1_q43):
    assert g1_q43.n == 47
    assert g1_q43.rate.numerator == 7 and g1_q43.rate.denominator == 47
    assert len(g1_q43.fragment_points) == 8  # 2J = L + 1
    assert len(g1_q43.noise_basis) == 16 + 16 + 7
    assert len(g1_q43.decode_rows) == 7 + 16 + 16 + 7


def test_rate_identity(g0_q43, g1_q43):
    from fractions import Fraction

    assert g0_q43.rate == 1 - Fraction(g0_q43.x + g0_q43.t, g0_q43.n)
    assert g1_q43.rate == 1 - Fraction(g1_q43.x + g1_q43.t + 8, g1_q43.n)


def test_eval_points_disjoint_from_special_points(g1_q43):
    special = set(g1_q43.fragment_points) | set(g1_q43.curve.zeros_of_y())
    for pt in g1_q43.eval_points:
        assert not isinstance(pt, PointAtInfinity)
        assert pt not in special
        assert pt.y != 0


def test_genus0_infeasible():
    with pytest.raises(Infeasible, match="44 < 45"):
        build_scheme(SchemeParams(p=43, genus=0, x=16, t=16, l=6))


def test_genus1_curve_too_small():
    with pytest.raises(CurveTooSmall):
        build_scheme(SchemeParams(p=13, genus=1, x=4, t=4, l=3))


def test_degenerate_levels_rejected():
    with pytest.raises(BadParams):
        SchemeParams(p=43, genus=0, x=0, t=16, l=5)
    with pytest.raises(BadParams):
        SchemeParams(p=43, genus=0, x=16, t=0, l=5)
    with pytest.raises(BadL):
        SchemeParams(p=43, genus=1, x=16, t=16, l=6)


def test_genus1_auto_curve_search():
    inst = build_scheme(SchemeParams(p=13, genus=1, x=1, t=1, l=1))
    assert inst.curve.point_count() == 21  # maximal over F_13


def test_verify_scheme_passes(g0_q43, g1_q43, g0_tiny, g1_tiny):
    for inst in (g0_tiny, g1_tiny):
        report = verify_scheme(inst, subsets="all")
        assert report.passed, report.lines()
    for inst in (g0_q43, g1_q43):
        report = verify_scheme(inst, subsets="sample", sample_count=50)
        assert report.passed, report.lines()


def test_noise_containment(g0_q43, g1_q43, g0_tiny, g1_tiny):
    for inst in (g0_q43, g1_q43, g0_tiny, g1_tiny):
        results = check_noise_containment(inst)
        assert results and all(ok for _, ok in results)


def test_code_dimensions_match_divisor_dimensions(g0_q43, g1_q43):
    # k = dim L(D) for the privacy and per-fragment security codes
    for inst in (g0_q43, g1_q43):
        assert inst.priv_code.k == inst.priv_dim
        assert {code.k for code in inst.sec_codes} == {inst.sec_dim}
    assert g0_q43.priv_dim == g0_q43.t and g0_q43.sec_dim == g0_q43.x
    assert g1_q43.priv_dim == g1_q43.t + 1 and g1_q43.sec_dim == g1_q43.x + 1


def test_store_shapes_and_determinism(g0_tiny):
    db = Database(13, ((1, 2, 3), (4, 5, 6)))
    s1 = store(g0_tiny, db, random.Random(5))
    s2 = store(g0_tiny, db, random.Random(5))
    assert s1 == s2
    assert len(s1) == 3 and len(s1[0]) == 2 and len(s1[0][0]) == g0_tiny.n
    # A Table is the plain nested tuple to every reader of the transcript.
    plain = tuple(tuple(tuple(cell) for cell in row) for row in s1)
    assert type(s1) is pir_scheme.Table and type(plain) is tuple
    assert s1 == plain and plain == s1
    assert json.dumps(s1) == json.dumps(plain)
    # A fresh instance stores on the one shared security code, scaled by
    # nothing but the column inverses of `sec_units`.
    inst = build_scheme(G0_TINY)
    assert store(inst, db, random.Random(5)) == s1
    assert "sec_codes" not in inst.__dict__
    assert isinstance(inst.__dict__["packed_sec"], linalg.PackedRows)


def test_store_rejects_bad_shapes(g0_tiny):
    with pytest.raises(ShapeMismatch):
        store(g0_tiny, Database(13, ((1, 2),)), random.Random(0))
    with pytest.raises(ShapeMismatch):
        store(g0_tiny, Database(11, ((1, 2, 3),)), random.Random(0))


def test_zero_database_zero_noise_gives_zero_shares(g0_tiny):
    db = Database(13, ((0, 0, 0),))
    shares = store(g0_tiny, db, ZeroRng())
    assert all(v == 0 for row in shares for per_file in row for v in per_file)


def test_query_without_noise_is_fragment_basis(g1_tiny):
    queries = make_queries(g1_tiny, 1, 1, ZeroRng())
    expected = g1_tiny.info_rows[0]
    assert queries[0][0] == expected


def test_make_queries_determinism_and_theta(g0_tiny):
    q1 = make_queries(g0_tiny, 2, 3, random.Random(9))
    q2 = make_queries(g0_tiny, 2, 3, random.Random(9))
    assert q1 == q2
    with pytest.raises(BadTheta):
        make_queries(g0_tiny, 0, 3, random.Random(0))
    with pytest.raises(BadTheta):
        make_queries(g0_tiny, 4, 3, random.Random(0))


def test_server_respond_zero_queries(g0_tiny):
    zeros = tuple((0,) * 2 for _ in range(3))
    shares = tuple((7, 9) for _ in range(3))
    assert server_respond(view_of_rows(shares), view_of_rows(zeros), 13) == 0
    with pytest.raises(ShapeMismatch):
        server_respond(view_of_rows(shares), view_of_rows(zeros[:2]), 13)
    # Nested rows are not views: they reach `server_respond` through a `Table`.
    with pytest.raises(TypeError, match="reads two ServerViews"):
        server_respond(shares, zeros, 13)


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_genus0(g0_tiny, seed):
    rng = random.Random(1000 + seed)
    db = Database.random(13, 3, 3, rng)
    theta = 1 + seed % 3
    *_, decoded = run_round(g0_tiny, db, theta, seed)
    assert decoded == db.files[theta - 1]


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_genus1(g1_tiny, seed):
    rng = random.Random(2000 + seed)
    db = Database.random(13, 2, 1, rng)
    theta = 1 + seed % 2
    *_, decoded = run_round(g1_tiny, db, theta, seed)
    assert decoded == db.files[theta - 1]


def test_round_trip_reference_instances(g0_q43, g1_q43):
    for inst, seed in ((g0_q43, 3), (g1_q43, 4)):
        db = Database.random(43, 3, inst.l, random.Random(seed))
        *_, decoded = run_round(inst, db, 2, seed)
        assert decoded == db.files[1]


def test_response_matches_symbolic_function(g0_tiny):
    """Oracle: assemble r = sum s*q in the function field, then evaluate it."""
    p, inst = 13, g0_tiny
    db = Database(13, ((3, 1, 4), (1, 5, 9)))
    theta, seed = 2, 77
    one = RationalFunction.one(inst.curve)

    rng = random.Random(seed)
    s_terms = {}
    for ell in range(inst.l):
        for m in range(len(db)):
            coeffs = [rng.randrange(p) for _ in range(inst.sec_dim)]
            terms = [(db.files[m][ell], one)]
            terms += [(c, b) for c, b in zip(coeffs, inst.sec_bases[ell]) if c]
            s_terms[ell, m] = terms
    q_terms = {}
    for ell in range(inst.l):
        for m in range(len(db)):
            coeffs = [rng.randrange(p) for _ in range(inst.priv_dim)]
            terms = [(1, inst.info_basis[ell])] if m == theta - 1 else []
            terms += [(c, b) for c, b in zip(coeffs, inst.priv_basis) if c]
            q_terms[ell, m] = terms
    r_terms = [
        ((cs * cq) % p, fs * fq)
        for cell in s_terms
        for cs, fs in s_terms[cell]
        for cq, fq in q_terms[cell]
    ]

    _, _, responses, decoded = run_round(inst, db, theta, seed)
    for n, pt in enumerate(inst.eval_points):
        symbolic = sum(c * f.eval_at(pt) for c, f in r_terms) % p
        assert responses[n] == symbolic
    assert decoded == db.files[theta - 1]


@pytest.mark.parametrize(
    "name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43", "g0_p31", "g0_p61", "g1_q127"]
)
def test_store_and_queries_match_reference_formulas(name, request):
    inst = request.getfixturevalue(name)
    for seed in range(3):
        db = Database.random(inst.p, 3, inst.l, random.Random(seed))
        theta = 1 + seed
        rng, ref_rng = random.Random(seed), random.Random(seed)
        shares = store(inst, db, rng)
        assert shares == reference_store(inst, db, ref_rng)
        queries = make_queries(inst, theta, len(db), rng)
        assert queries == reference_make_queries(inst, theta, len(db), ref_rng)
        responses = [
            server_respond(server_view(shares, n), server_view(queries, n), inst.p)
            for n in range(inst.n)
        ]
        assert decode(inst, responses) == db.files[theta - 1]


@pytest.mark.parametrize("p", [2, 127, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("big_l, m", [(1, 1), (1, 3), (3, 1), (3, 3)])
def test_masked_rows_match_the_per_cell_loop(p, big_l, m):
    # One `combine` call per fragment row, on its slice of the one draw, gives
    # the cells of the per-cell loop and leaves the generator in the same state.
    rng = random.Random(f"masked:{p}:{big_l}:{m}")
    dim, n = 4, 6
    code = linalg.PackedRows.of([[rng.randrange(p) for _ in range(n)] for _ in range(dim)], p)
    bases = [code.pack([rng.randrange(p) for _ in range(n)]) for _ in range(big_l)]
    # Extras as `store` and `make_queries` give them: a residue times a packed row, or 0.
    extras = [[rng.choice((0, 1, p - 1, rng.randrange(p))) * b for _ in range(m)] for b in bases]
    scales = [[rng.randrange(1, p) for _ in range(n)] for _ in range(big_l)]
    for row_scales in (None, scales):
        seed = rng.randrange(2**32)
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = pir_scheme._masked(code, extras, p, got_rng, row_scales)
        assert isinstance(got, Table)
        assert got == masked_reference(code, extras, p, ref_rng, row_scales)
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43", "g0_p61"])
def test_decode_reads_responses_shifted_by_multiples_of_p(name, request):
    # `decode` reduces its responses before the parity checks and the packed
    # combination, so a response off by a multiple of p decodes the same.
    inst = request.getfixturevalue(name)
    p = inst.p
    db = Database.random(p, 3, inst.l, random.Random(5))
    *_, responses, decoded = run_round(inst, db, 2, 5)
    assert decoded == db.files[1]
    shifts = random.Random(6)
    for shifted in (
        [r + p for r in responses],
        [r - p for r in responses],
        [r + shifts.choice((-1, 1)) * shifts.randrange(1, p**2) * p for r in responses],
    ):
        assert decode(inst, shifted) == decoded


def test_corrupted_response_detected_or_wrong(g1_tiny, g0_tiny):
    for inst in (g1_tiny, g0_tiny):
        db = Database.random(13, 2, inst.l, random.Random(0))
        *_, responses, _ = run_round(inst, db, 1, 0)
        bad = list(responses)
        bad[0] = (bad[0] + 1) % 13
        if inst.genus == 0:
            # Square decode matrix: no spare symbol, so the error goes undetected.
            assert decode(inst, bad) != db.files[0]
            continue
        # On this instance the one spare symbol's parity is nonzero at every
        # server, so it detects a change to any one response. That is not so
        # on every genus-1 instance: see the next test.
        for n in range(inst.n):
            for delta in range(1, 13):
                bad = list(responses)
                bad[n] = (bad[n] + delta) % 13
                with pytest.raises(InconsistentSystem, match="outside the decode row space"):
                    decode(inst, bad)


def decode_parity(inst):
    """The null vector of `decode_rows`: responses in their row space are orthogonal to it."""
    reduced, pivots = linalg.rref(inst.decode_rows, inst.p)
    (free,) = set(range(inst.n)) - set(pivots)
    parity = [0] * inst.n
    parity[free] = 1
    for row, col in zip(reduced, pivots):
        parity[col] = -row[free] % inst.p
    return parity


@pytest.mark.parametrize(
    "name, uncovered",
    [("g1_tiny", {}), ("g1_q43", {2: (12, 19)}), ("g1_q127", {22: (45, 12)})],
)
def test_genus1_spare_symbol_detects_errors_only_on_the_parity_support(name, uncovered, request):
    # At genus 1, N exceeds the decode dimension by one, so one parity check
    # guards the responses. A change to response n leaves the decode row
    # space exactly when the parity is nonzero at n; elsewhere it decodes
    # silently to wrong fragments.
    inst = request.getfixturevalue(name)
    parity = decode_parity(inst)
    assert len(inst.decode_rows) == inst.n - 1
    assert all(sum(a * c for a, c in zip(row, parity)) % inst.p == 0 for row in inst.decode_rows)
    points = inst.eval_points
    assert {n: (points[n].x, points[n].y) for n, c in enumerate(parity) if c == 0} == uncovered
    db = Database.random(inst.p, 2, inst.l, random.Random(0))
    *_, responses, _ = run_round(inst, db, 1, 0)
    for n in range(inst.n):
        bad = list(responses)
        bad[n] = (bad[n] + 1) % inst.p
        if parity[n]:
            with pytest.raises(InconsistentSystem, match="outside the decode row space"):
                decode(inst, bad)
        else:
            assert decode(inst, bad) != db.files[0]


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 127, 257, 65537, 2**31 - 1, 2**61 - 1]),
    seed=st.integers(0, 2**64),
    count=st.integers(0, 2000),
)
def test_draw_matches_randrange_and_leaves_the_same_state(p, seed, count):
    rng, ref = random.Random(seed), random.Random(seed)
    assert pir_scheme._draw(rng, p, count) == [ref.randrange(p) for _ in range(count)]
    assert rng.random() == ref.random()


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"])
def test_server_view_and_decode_match_references(name, request):
    inst = request.getfixturevalue(name)
    p = inst.p
    rng = random.Random(11)
    db = Database.random(p, 3, inst.l, rng)
    shares = store(inst, db, rng)
    queries = make_queries(inst, 2, len(db), rng)
    for n in range(inst.n):
        assert server_view(shares, n) == flat_view_reference(shares, n)
        assert server_view(queries, n) == flat_view_reference(queries, n)
        # The views are built once per table and handed out from then on.
        assert server_view(shares, n) is server_view(shares, n)
    # Nested lists, as a transcript loads them, give the same views once
    # wrapped as a `Table`; unwrapped, they are refused.
    loaded = json.loads(json.dumps(shares))
    for n in range(inst.n):
        assert server_view(Table(loaded), n) == flat_view_reference(shares, n)
    with pytest.raises(TypeError, match="reads a Table"):
        server_view(loaded, 0)
    for n in (inst.n, -inst.n - 1):
        with pytest.raises(BadIndex, match=f"server index {n} outside 0..{inst.n - 1}$"):
            server_view(shares, n)
    # Responses inside the decode row space, then arbitrary ones, which at
    # genus 1 fall outside it and must be refused alike.
    for _ in range(20):
        coeffs = [rng.randrange(p) for _ in inst.decode_rows]
        responses = in_decode_row_space(inst, coeffs)
        assert decode(inst, responses) == decode_reference(inst, responses) == tuple(
            coeffs[: inst.l]
        )
    for _ in range(20):
        responses = [rng.randrange(-p, 2 * p) for _ in range(inst.n)]
        assert_decode_matches_reference(inst, responses)


def flat_view_reference(table, server):
    """`server_view_reference` as a view's (cells, shape): fragment-major, then file-major."""
    ref = server_view_reference(table, server)
    return tuple(itertools.chain.from_iterable(ref)), (len(ref), len(ref[0]))


def view_of_rows(rows):
    """The one server's view of nested [fragment][file] rows, made through a `Table`."""
    return server_view(Table([[(c,) for c in row] for row in rows]), 0)


def in_decode_row_space(inst, coeffs):
    """The responses sum(coeffs[i] * decode_rows[i]), one column sum per server."""
    return [sum(map(operator.mul, coeffs, col)) % inst.p for col in zip(*inst.decode_rows)]


def assert_decode_matches_reference(inst, responses):
    """`decode` returns what `decode_reference` returns, or raises its error word for word.

    Returns whether the responses were refused.
    """
    try:
        expected = decode_reference(inst, responses)
    except InconsistentSystem as exc:
        with pytest.raises(InconsistentSystem) as refused:
            decode(inst, responses)
        assert str(refused.value) == str(exc)
        return True
    assert decode(inst, responses) == expected
    return False


def test_server_view_rejects_a_ragged_table():
    table = Table((((1, 2), (3, 4)), ((5, 6),)))
    with pytest.raises(ShapeMismatch, match="different numbers of files"):
        server_view(table, 0)


@pytest.mark.parametrize("cells", [(((1, 2, 3), (4, 5)),), (((1, 2),), ((3, 4, 5),))])
def test_server_view_rejects_cells_with_different_server_counts(cells):
    # zip would cut every view to the shortest cell and hand out wrong views.
    with pytest.raises(ShapeMismatch, match="different numbers of servers"):
        server_view(Table(cells), 0)


def test_server_view_refuses_a_server_outside_the_table(g0_tiny):
    # -1 would read server N - 1's view and N would fall off the end.
    db = Database(13, ((1, 2, 3), (4, 5, 6)))
    shares = store(g0_tiny, db, random.Random(0))
    for n in (-1, g0_tiny.n):
        with pytest.raises(BadIndex, match=f"server index {n} outside 0..{g0_tiny.n - 1}$"):
            server_view(shares, n)


def test_server_view_of_a_database_without_files(g0_tiny):
    # `store` refuses M = 0, and a table without cells, made by hand, has no views.
    with pytest.raises(ShapeMismatch, match="^a database holds at least one file$"):
        store(g0_tiny, Database(13, ()), random.Random(0))
    # A table of cells that hold no servers (L = M = 1, N = 0) has no views either.
    for empty in (Table(((),) * g0_tiny.l), Table((((),),))):
        assert empty.views == ()
        for n in (-1, 0, g0_tiny.n - 1, g0_tiny.n):
            message = rf"^server index {n}: the table has no servers \(no cells, or empty cells\)$"
            with pytest.raises(BadIndex, match=message):
                server_view(empty, n)


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43"])
def test_server_views_differing_in_one_cell_are_unequal(name, request):
    inst = request.getfixturevalue(name)
    rng = random.Random(5)
    shares = store(inst, Database.random(inst.p, 3, inst.l, rng), rng)
    ref = server_view_reference(shares, 0)
    other = ((ref[0][0] + 1,) + ref[0][1:],) + ref[1:]
    assert view_of_rows(ref) == server_view(shares, 0)
    assert view_of_rows(other) != server_view(shares, 0)


def test_server_respond_mixed_arguments_and_equal_totals(g0_q43):
    rng = random.Random(3)
    shares = store(g0_q43, Database.random(g0_q43.p, 3, g0_q43.l, rng), rng)
    queries = make_queries(g0_q43, 2, 3, rng)
    for n in range(g0_q43.n):
        s, q = server_view(shares, n), server_view(queries, n)
        plain_s, plain_q = server_view_reference(shares, n), server_view_reference(queries, n)
        expected = server_respond(s, q, g0_q43.p)
        # Hand-made rows answer alike once wrapped as a `Table`, and are refused bare.
        assert server_respond(view_of_rows(plain_s), view_of_rows(plain_q), g0_q43.p) == expected
        for a, b in [(s, plain_q), (plain_s, q), (list(map(list, plain_s)), q), (tuple(s), q)]:
            with pytest.raises(TypeError, match="reads two ServerViews"):
                server_respond(a, b, g0_q43.p)
    # Equal cell counts, different shapes: a view against its own cells
    # regrouped, and two views of 2 x 6 and 3 x 4 cells.
    view = server_view(shares, 0)
    regrouped = view_of_rows(zip(*[iter(view.cells)] * 5))
    assert regrouped.shape == (g0_q43.l * 3 // 5, 5) and regrouped.cells == view.cells
    two_by_six, three_by_four = view_of_rows(((1,) * 6,) * 2), view_of_rows(((1,) * 4,) * 3)
    for a, b in [
        (view, regrouped),
        (regrouped, view),
        (two_by_six, three_by_four),
        (three_by_four, two_by_six),
    ]:
        with pytest.raises(ShapeMismatch):
            server_respond(a, b, 13)
    # Rows of different lengths are not views, and a table of them has none.
    ragged = ((1, 2), (3,))
    with pytest.raises(TypeError, match="reads two ServerViews"):
        server_respond(ragged, ragged, 13)
    with pytest.raises(ShapeMismatch, match="different numbers of files"):
        view_of_rows(ragged)


def test_server_respond_refuses_views_whose_cells_miss_their_shape():
    # Shape (1, 2) holds 2 cells; `map` over 3 and 2 cells would stop at the
    # shorter and answer 1*1 + 2*2 = 5.
    long, right = ServerView((1, 2, 3), (1, 2)), ServerView((1, 2), (1, 2))
    for a, b in [(long, right), (right, long), (long, long)]:
        with pytest.raises(ShapeMismatch, match=r"views of shape \(1, 2\) hold 2 cells"):
            server_respond(a, b, 13)
    assert server_respond(right, right, 13) == 5


@st.composite
def small_tables(draw):
    p = draw(st.sampled_from([13, 43, 127]))
    l, m, n = (draw(st.integers(1, 6)) for _ in range(3))
    cell = st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n).map(tuple)
    table = st.lists(st.lists(cell, min_size=m, max_size=m).map(tuple), min_size=l, max_size=l)
    return p, n, Table(draw(table)), Table(draw(table))


@settings(max_examples=150, deadline=None)
@given(tables=small_tables())
def test_server_respond_is_the_inner_product_of_the_reference_views(tables):
    p, servers, shares, queries = tables
    loaded = [Table(json.loads(json.dumps(t))) for t in (shares, queries)]
    for s, q in [(shares, queries), loaded]:
        for n in range(servers):
            expected = sum(
                map(
                    operator.mul,
                    itertools.chain.from_iterable(server_view_reference(s, n)),
                    itertools.chain.from_iterable(server_view_reference(q, n)),
                )
            ) % p
            assert server_respond(server_view(s, n), server_view(q, n), p) == expected


def test_decode_rejects_wrong_length(g0_tiny):
    with pytest.raises(ShapeMismatch):
        decode(g0_tiny, [0] * (g0_tiny.n + 1))


def test_decode_zero_response_is_zero(g0_tiny):
    assert decode(g0_tiny, [0] * g0_tiny.n) == (0,) * g0_tiny.l


@pytest.mark.parametrize("params", [G0_TINY, G1_TINY], ids=["g0_tiny", "g1_tiny"])
def test_a_retrieval_round_reads_no_decode_rows(params):
    # `decode` combines N packed columns of L slots and runs the parity
    # checks: it solves on no information set and re-encodes nothing.
    inst = build_scheme(params)
    db = Database.random(inst.p, 2, inst.l, random.Random(0))
    assert run_round(inst, db, 2, 0)[-1] == db.files[1]
    assert "decode_rows" not in inst.__dict__
    packed = inst.__dict__["packed_fragments"]
    assert (len(packed.rows), packed.n) == (inst.n, inst.l)


def test_descriptor_round_trip(g1_q43, g0_q43):
    for inst in (g1_q43, g0_q43):
        d = scheme_descriptor(inst)
        blob = json.dumps(d)
        assert json.dumps(scheme_descriptor(build_scheme(inst.params))) == blob
        rebuilt = scheme_from_descriptor(json.loads(blob))
        assert rebuilt.eval_points == inst.eval_points
    tampered = scheme_descriptor(g0_q43)
    tampered["n"] = 99
    with pytest.raises(ValueError):
        scheme_from_descriptor(tampered)


def test_genus1_descriptor_without_a_curve_is_refused_before_any_search(g1_q43, monkeypatch):
    def no_search(*_):
        raise AssertionError("find_curve reached")

    monkeypatch.setattr(curve_module, "find_curve", no_search)
    descriptor = scheme_descriptor(g1_q43)
    descriptor["curve"] = None
    with pytest.raises(DescriptorMismatch, match="a genus-1 descriptor names its curve"):
        scheme_from_descriptor(descriptor)


def test_inflated_descriptor_is_refused_before_the_rebuild(g0_q43, monkeypatch):
    def no_build(*_):
        raise AssertionError("build_scheme reached")

    monkeypatch.setattr(pir_scheme, "build_scheme", no_build)
    descriptor = scheme_descriptor(g0_q43)
    descriptor.update(p=1_000_000_007, l=5001)  # N would be 5033, with 37 points spelled out
    with pytest.raises(DescriptorMismatch, match="'n' entry 37"):
        scheme_from_descriptor(descriptor)
    descriptor = scheme_descriptor(g0_q43)
    descriptor["eval_points"].pop()
    with pytest.raises(DescriptorMismatch, match="'eval_points' entry is not a list of 37"):
        scheme_from_descriptor(descriptor)
    descriptor = scheme_descriptor(g0_q43)
    descriptor["fragment_points"] = None
    with pytest.raises(DescriptorMismatch, match="'fragment_points' entry is not a list of 5"):
        scheme_from_descriptor(descriptor)


def test_database_validates_residues():
    with pytest.raises(ValueError):
        Database(13, ((13, 0),))


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_derived_security_codes_match_symbolic_evaluation(name, request):
    inst = request.getfixturevalue(name)
    assert len(inst.sec_codes) == len(inst.sec_bases) == inst.l
    for basis, code in zip(inst.sec_bases, inst.sec_codes):
        assert code.rows == evaluation_code(basis, inst.eval_points).rows
    # `packed_sec` packs `sec_code` itself; each fragment's code is it with
    # columns scaled by the inverses in `sec_units`.
    assert inst.packed_sec == linalg.PackedRows.of(inst.sec_code.rows, inst.p)
    p = inst.p
    assert len(inst.sec_units) == inst.l
    for (inverses, info), values, code in zip(inst.sec_units, inst.info_rows, inst.sec_codes):
        assert info == inst.packed_sec.pack(values)
        assert all(v * u % p == 1 for v, u in zip(values, inverses, strict=True))
        rows = inst.sec_code.rows
        assert code.rows == tuple(tuple(a * u % p for a, u in zip(row, inverses)) for row in rows)


def test_sec_codes_are_the_shared_code_with_divided_columns(g0_tiny, g1_tiny):
    for inst in (g0_tiny, g1_tiny):
        assert len(inst.sec_codes) == inst.l
        for values, code in zip(inst.info_rows, inst.sec_codes):
            assert (code.p, code.n) == (inst.p, inst.n)
            assert code.rows == tuple(map(tuple, divided_rows(inst.sec_code.rows, values, inst.p)))


def assert_masking_codes_are_evaluation_codes(inst):
    """`priv_code` and `sec_code` against their bases evaluated afresh on the eval points.

    At genus 0 the masking functions are the first T and X noise functions,
    so the build reads their rows off `noise_rows`: the same tuples.
    """
    for basis, code in ((inst.priv_basis, inst.priv_code), (inst.sec_basis, inst.sec_code)):
        assert code == evaluation_code(basis, inst.eval_points)
    if inst.genus == 0:
        for code, level in ((inst.priv_code, inst.t), (inst.sec_code, inst.x)):
            assert code.rows == inst.noise_rows[:level]
            assert all(map(operator.is_, code.rows, inst.noise_rows[:level]))


@pytest.mark.parametrize("name", ORACLE_INSTANCES + ["g0_p31", "g0_p61"])
def test_masking_codes_are_read_off_the_one_evaluation(name, request):
    assert_masking_codes_are_evaluation_codes(request.getfixturevalue(name))


@pytest.mark.parametrize(
    "params",
    [G0_TINY, G0_Q43, G1_TINY, G1_Q43, G1_Q127, G1_Q43_ODD, G1_Q67_ZERO, G1_Q29_DROP],
    ids=[
        "g0_tiny",
        "g0_q43",
        "g1_tiny",
        "g1_q43",
        "g1_q127",
        "g1_q43_odd",
        "g1_q67_zero",
        "g1_q29_drop",
    ],
)
def test_build_evaluates_once_and_never_eliminates(params, monkeypatch):
    # The masking codes are read off the decode evaluation, and the decode
    # state is a closed form at either genus and in every genus-1 layout: no
    # second evaluation, and no elimination. At genus 1 the one evaluation
    # reads the first point of each of the G = (N + 2) // 2 fibers only.
    calls = []

    def evaluated(basis, points):
        calls.append(("evaluate", len(points)))
        return evaluation_code(basis, points)

    def eliminated(*args):
        calls.append("eliminate")
        return real_eliminate(*args)

    real_eliminate = linalg.eliminate_packed
    monkeypatch.setattr(pir_scheme, "evaluation_code", evaluated)
    monkeypatch.setattr(linalg, "eliminate_packed", eliminated)
    inst = build_scheme(params)
    assert calls == [("evaluate", inst.n if params.genus == 0 else (inst.n + 2) // 2)]
    assert_masking_codes_are_evaluation_codes(inst)


@pytest.mark.parametrize("params", [G0_TINY, G0_Q43, G0_Q257], ids=["g0_tiny", "g0_q43", "g0_q257"])
def test_genus0_build_uses_the_evaluated_rows_as_they_are(params, monkeypatch):
    # The closed form keeps every candidate, so no row is copied to the kept points.
    evaluated = []

    def recorded(basis, points):
        code = evaluation_code(basis, points)
        evaluated.append(code.rows)
        return code

    monkeypatch.setattr(pir_scheme, "evaluation_code", recorded)
    inst = build_scheme(params)
    (rows,) = evaluated
    assert len(rows) == len(inst.decode_rows)
    assert all(map(operator.is_, inst.decode_rows, rows))


@pytest.mark.parametrize("params", [G0_TINY, G1_Q127], ids=["g0_tiny", "g1_q127"])
def test_store_scales_security_codes_inside_the_pack(params):
    # The first store packs the one shared security code and scales each cell
    # as it unpacks it: no scaled `LinearCode` and no per-fragment pack.
    inst = build_scheme(params)
    db = Database.random(inst.p, 3, inst.l, random.Random(1))
    store(inst, db, random.Random(2))
    assert "sec_codes" not in inst.__dict__
    assert inst.__dict__["packed_sec"] == linalg.PackedRows.of(inst.sec_code.rows, inst.p)


def test_store_refuses_a_fragment_function_with_a_zero(g0_tiny):
    # A zero of h_l at an evaluation point is a pole of h_l^-1 there: the
    # column scaling of `divided_rows` refuses it before any share is drawn.
    rows = [list(row) for row in g0_tiny.info_rows]
    rows[1][2] = 0
    broken = dataclasses.replace(g0_tiny, info_rows=tuple(map(tuple, rows)))
    db = Database(13, ((1, 2, 3),))
    message = "column 2 has scale 0: the inverse has a pole there"
    with pytest.raises(PoleAtEvaluationPoint, match=f"^{message}$"):
        store(broken, db, random.Random(0))


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_single_elimination_matches_information_set_and_inverse(name, request):
    inst = request.getfixturevalue(name)
    p, rows = inst.p, inst.decode_rows
    cols, achieved = information_set(rows, p, want=len(rows))
    assert achieved == len(rows)
    sub_t = [[row[c] for row in rows] for c in cols]
    assert_decode_state(inst, cols, linalg.invert(sub_t, p))


def assert_closed_form_is_the_elimination(inst):
    """Genus-0 `fragment_rows` is the L columns `solve_augmented` appends, with no parity check.

    The elimination is the reference: it sees only `decode_rows`, finds all N
    columns as pivots, and appends the first L columns of the inverse.
    """
    pivots, reduced = solve_augmented(inst.decode_rows, inst.p, inst.l)
    assert pivots == tuple(range(inst.n))
    assert inst.fragment_rows == tuple(zip(*(row[inst.n :] for row in reduced)))
    assert inst.parity_checks == ()


@pytest.mark.parametrize("name", ["g0_tiny", "g0_q43", "g0_p31", "g0_p61", "g0_q257"])
def test_genus0_fragment_rows_are_the_closed_form_of_the_elimination(name, request):
    assert_closed_form_is_the_elimination(request.getfixturevalue(name))


@st.composite
def genus0_params(draw):
    """Genus-0 parameters with X and T drawn apart, and the largest L in half the draws."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 23, 31, 43, 61, 97, 131]))
    x = draw(st.integers(1, p - 3))
    t = draw(st.integers(1, p - 2 - x))
    top = sizes.max_fragments(0, p + 1, x, t)
    assert 2 * top + x + t in (p - 1, p)
    l = top if draw(st.booleans()) else draw(st.integers(1, top))
    return SchemeParams(p=p, genus=0, x=x, t=t, l=l)


@settings(max_examples=60, deadline=None)
@given(params=genus0_params())
def test_closed_form_equals_the_elimination(params):
    assert_closed_form_is_the_elimination(build_scheme(params))


def test_closed_form_certificate_reads_every_row(g0_tiny):
    # Each change to the points or the evaluated rows fails the certificate,
    # so the build would eliminate instead of trusting the closed form.
    fragments = pir_scheme._line_fragment_rows
    p, big_l = g0_tiny.p, g0_tiny.l
    points, info, noise = g0_tiny.eval_points, g0_tiny.info_rows, g0_tiny.noise_rows
    assert fragments(points, info, noise, p) == g0_tiny.fragment_rows

    def changed(rows, i, j):
        out = [list(row) for row in rows]
        out[i][j] = (out[i][j] + 1) % p
        return tuple(map(tuple, out))

    shifted = tuple(AffinePoint(pt.x + 1) for pt in points)
    assert fragments(shifted, info, noise, p) is None
    assert fragments(points, info, noise[:-1], p) is None
    assert fragments(points, changed(info, 0, 3), noise, p) is None
    assert fragments(points, changed(info, big_l - 1, 0), noise, p) is None
    assert fragments(points, info, changed(noise, 0, 3), p) is None
    assert fragments(points, info, changed(noise, len(noise) - 1, g0_tiny.n - 1), p) is None
    # The factorials must be units: L + N <= p.
    assert fragments(points, info, noise, big_l + g0_tiny.n - 1) is None


def test_a_failed_certificate_raises_instead_of_eliminating(monkeypatch):
    # 2 / x spans the same line as 1 / x, so the decode rows stay independent
    # and no build condition is broken, but info row 0 is no longer 1 / beta:
    # the build names the certificate that refused the rows.
    def scaled_basis(line, alphas):
        basis = interp_basis_g0(line, alphas)
        return (basis[0] * RationalFunction.make(line, 2),) + basis[1:]

    monkeypatch.setattr(pir_scheme, "interp_basis_g0", scaled_basis)
    message = "the decode rows fail the genus-0 Cauchy-Vandermonde certificate"
    with pytest.raises(UncertifiedRows, match=f"^{message}$"):
        build_scheme(G0_TINY)


def fiber_layout(params):
    """The genus-1 build's curve, alphas, candidates and decode functions (info, then noise)."""
    n = sizes.num_servers(1, params.l, params.x, params.t)
    field = PrimeField(params.p)
    curve, fragment, candidates, info, noise = pir_scheme._elliptic_geometry(params, field, n)
    return curve, [pt.x for pt in fragment[::2]], candidates, info + noise


def fiber_inputs(params):
    """What the genus-1 build hands `_fiber_decode`.

    The curve, the alphas, the candidates, the info and noise rows at the
    first point of each fiber, and each decode function's parity in y.
    """
    curve, alphas, candidates, basis = fiber_layout(params)
    rows = evaluation_code(basis, candidates[::2]).rows
    odd = [f.y_exp % 2 for f in basis]
    return curve, alphas, candidates, rows[: params.l], rows[params.l :], odd


def assert_fiber_decode_is_the_elimination(params):
    """`_fiber_decode` equals the reference elimination, parity row and dropped candidate too.

    The reference eliminates the decode rows evaluated at every candidate,
    the second point of each fiber too.
    """
    solved = pir_scheme._fiber_decode(*fiber_inputs(params))
    assert solved is not None
    _, _, candidates, basis = fiber_layout(params)
    rows = evaluation_code(basis, candidates).rows
    assert solved == solve_decode_reference(rows, params.p, params.l, len(candidates) - 1)
    return solved


def assert_rows_are_the_evaluation(inst):
    """Every kept row against its basis evaluated afresh on the eval points.

    The genus-1 build evaluates the first point of each fiber and reads the
    second by the function's parity in y: this holds that sign rule to the
    one value rule.
    """
    basis = inst.info_basis + inst.noise_basis
    assert inst.decode_rows == evaluation_code(basis, inst.eval_points).rows
    assert_masking_codes_are_evaluation_codes(inst)


GENUS1_LAYOUTS = {
    "g1_tiny": G1_TINY,
    "g1_q43": G1_Q43,
    "g1_q127": G1_Q127,
    "g1_q43_odd": G1_Q43_ODD,
    "g1_q67_zero": G1_Q67_ZERO,
    "g1_q29_drop": G1_Q29_DROP,
}


@pytest.mark.parametrize(
    "name, dropped, spare",
    [
        ("g1_tiny", 11, 10),
        ("g1_q43", 47, 46),
        ("g1_q127", 101, 100),
        ("g1_q43_odd", 46, 45),
        ("g1_q67_zero", 35, 33),
        ("g1_q29_drop", 19, 18),
    ],
)
def test_fiber_decode_equals_the_elimination(name, dropped, spare):
    params = GENUS1_LAYOUTS[name]
    solved = assert_fiber_decode_is_the_elimination(params)
    assert (solved[0], solved[2][0][0]) == (dropped, spare)
    inst = build_scheme(params)
    assert (inst.fragment_rows, inst.parity_checks) == solved[1:]
    candidates = genus1_candidates(inst)
    assert inst.eval_points == tuple(candidates[:dropped] + candidates[dropped + 1 :])


@pytest.mark.parametrize("name", sorted(GENUS1_LAYOUTS))
def test_genus1_rows_are_the_evaluation_at_every_kept_point(name):
    assert_rows_are_the_evaluation(build_scheme(GENUS1_LAYOUTS[name]))


def test_the_p2003_x_plus_t_odd_build_is_the_elimination():
    # The hashes were recorded from the elimination's build, which took
    # seconds at N = 1002: the points, the fragment rows and the parity check.
    inst = build_scheme(G1_P2003)
    state = [[[pt.x, pt.y] for pt in inst.eval_points], inst.fragment_rows, inst.parity_checks]
    assert inst.parity_checks[0][0] == inst.n - 1
    digest = hashlib.sha256(json.dumps(state).encode()).hexdigest()
    assert digest == "665d2f1e24755b9f59f1ee2153f0779c3173dffb21b054f8d48a1c4181e8703d"
    digest = hashlib.sha256(json.dumps(scheme_descriptor(inst)).encode()).hexdigest()
    assert digest == "03b0861e3fa4caa2871a9bfb3177c9c89a11e94b789f88df3ced8d05ff10d8ca"


class Unread(tuple):
    """A sequence whose length may be read, but not its entries."""

    def __getitem__(self, key):
        raise AssertionError("the layout test reads no entry")

    def __iter__(self):
        raise AssertionError("the layout test reads no entry")


def test_fiber_decode_refuses_a_wrong_layout_before_any_arithmetic():
    # The layout comes from the lengths alone: L = 2J - 1 and k + 2 candidates.
    curve, alphas, candidates, info, noise, odd = fiber_inputs(G1_Q43_ODD)
    for args in (
        (alphas, candidates[:-1], info, noise, odd),
        (alphas, candidates, info, noise[:-1], odd),
        (alphas, candidates, info[:-1], noise, odd),
        (alphas + [7], candidates, info, noise, odd),
    ):
        unread = [Unread(seq) for seq in args[1:]]
        assert pir_scheme._fiber_decode(curve, args[0], *unread) is None


@st.composite
def genus1_params(draw):
    """Feasible genus-1 parameters on a random smooth curve, q <= 127, the largest L in half."""
    p = draw(st.sampled_from([13, 17, 23, 29, 37, 43, 53, 67, 79, 97, 113, 127]))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b * b) % p)
    x, t = draw(st.integers(1, p // 8 + 1)), draw(st.integers(1, p // 8 + 1))
    elliptic = EllipticCurve(PrimeField(p), a, b)
    top = sizes.max_fragments(1, elliptic.point_count(), x, t, len(elliptic.zeros_of_y()))
    assume(top >= 1)
    l = top if draw(st.booleans()) else 2 * draw(st.integers(0, (top - 1) // 2)) + 1
    return SchemeParams(p=p, genus=1, x=x, t=t, l=l, curve=(a, b))


@settings(max_examples=150, deadline=None)
@given(params=genus1_params())
def test_fiber_decode_equals_the_elimination_on_every_layout(params):
    dropped, _, _ = assert_fiber_decode_is_the_elimination(params)
    assert_rows_are_the_evaluation(build_scheme(params))
    n = sizes.num_servers(1, params.l, params.x, params.t)
    parity = "odd" if (params.x + params.t) % 2 else "even"
    event(f"X + T {parity}, " + ("the last candidate dropped" if dropped == n else "another"))


def tampered(rows, i, j, value, p):
    """The rows with entry (i, j) set to value mod p."""
    out = [list(row) for row in rows]
    out[i][j] = value % p
    return tuple(map(tuple, out))


def test_fiber_certificate_reads_every_row_and_point():
    # Each change to the points, the evaluated rows or the parities fails the
    # certificate, so the build would refuse the rows instead of trusting the
    # closed form. The rows hold one column per fiber, its first point.
    curve, alphas, candidates, info, noise, odd = fiber_inputs(G1_Q43)
    decode = pir_scheme._fiber_decode
    assert decode(curve, alphas, candidates, info, noise, odd) is not None
    p, fibers, big_j = curve.field.p, len(info[0]), len(alphas)
    h = len(noise) + big_j - fibers  # the x-power noise rows come first

    def bumped(rows, i, f):
        return tampered(rows, i, f, rows[i][f] + 1, p)

    assert decode(curve, alphas, candidates, bumped(info, 0, 0), noise, odd) is None
    assert decode(curve, alphas, candidates, bumped(info, 0, 3), noise, odd) is None
    last = fibers - 1
    assert decode(curve, alphas, candidates, bumped(info, big_j - 1, last), noise, odd) is None
    assert decode(curve, alphas, candidates, bumped(info, big_j, 4), noise, odd) is None
    assert decode(curve, alphas, candidates, bumped(info, len(info) - 1, 0), noise, odd) is None
    assert decode(curve, alphas, candidates, info, bumped(noise, 0, 2), odd) is None
    assert decode(curve, alphas, candidates, info, bumped(noise, h - 1, 5), odd) is None
    assert decode(curve, alphas, candidates, info, bumped(noise, h, fibers - 1), odd) is None
    assert decode(curve, alphas, candidates, info, bumped(noise, len(noise) - 1, 1), odd) is None
    # One flipped parity per row kind: the even and the odd info functions,
    # the x-powers and the powers over y. The rows are unchanged, but the
    # build would read the second point of each fiber with the wrong sign.
    for i in (0, big_j, len(info), len(info) + h):
        flipped = odd[:i] + [1 - odd[i]] + odd[i + 1 :]
        assert decode(curve, alphas, candidates, info, noise, flipped) is None
    # Each chain of noise rows, scaled by 2, still satisfies its recurrence,
    # but no longer starts at 1 or at 1/y.
    twice = [tuple(2 * v % p for v in row) for row in noise]
    assert decode(curve, alphas, candidates, info, tuple(twice[:h]) + noise[h:], odd) is None
    assert decode(curve, alphas, candidates, info, noise[:h] + tuple(twice[h:]), odd) is None
    # A point that is read moved, an alpha moved.
    moved = [AffinePoint((candidates[2].x + 1) % p, candidates[2].y)] + list(candidates[3:])
    assert decode(curve, alphas, candidates[:2] + tuple(moved), info, noise, odd) is None
    assert decode(curve, [alphas[0] + 1] + alphas[1:], candidates, info, noise, odd) is None
    # The second point of the first or the last whole fiber is another curve
    # point, not the partner (x, -y): the rows never read it, the sign rule does.
    other = curve.fiber(alphas[0])[1]
    n = len(candidates) - 1
    assert decode(curve, alphas, (candidates[0], other) + candidates[2:], info, noise, odd) is None
    assert decode(curve, alphas, candidates[:n] + (other,), info, noise, odd) is None


def test_fiber_certificate_reads_the_lone_candidate_of_an_odd_layout():
    # With X + T odd the last candidate has no partner among the candidates:
    # its entries are read like the first point of every other fiber.
    curve, alphas, candidates, info, noise, odd = fiber_inputs(G1_Q43_ODD)
    decode = pir_scheme._fiber_decode
    assert decode(curve, alphas, candidates, info, noise, odd) is not None
    p, last = curve.field.p, len(candidates) - 1
    assert last % 2 == 0 and len(info[0]) == last // 2 + 1
    for i in (0, len(alphas), len(info) - 1):
        bumped = tampered(info, i, last // 2, info[i][last // 2] + 1, p)
        assert decode(curve, alphas, candidates, bumped, noise, odd) is None
    for i in (1, len(noise) - 1):
        bumped = tampered(noise, i, last // 2, noise[i][last // 2] + 1, p)
        assert decode(curve, alphas, candidates, info, bumped, odd) is None
    partner = AffinePoint(candidates[last].x, -candidates[last].y % p)
    assert decode(curve, alphas, candidates[:last] + (partner,), info, noise, odd) is None


def formula_rows(alphas, points, h, p):
    """The split's decode functions by their formulas, at any points (x, y) with y != 0."""
    last = alphas[-1]
    info = [[pow(x - a, -1, p) for x, _ in points] for a in alphas] + [
        [y * pow((x - a) * (x - last), -1, p) % p for x, y in points] for a in alphas[:-1]
    ]
    noise = [[pow(x, i, p) for x, _ in points] for i in range(h)] + [
        [pow(x, j, p) * pow(y, -1, p) % p for x, y in points] for j in range(h + 1)
    ]
    return tuple(map(tuple, info)), tuple(map(tuple, noise))


def test_fiber_certificate_refuses_points_off_the_curve():
    # Rows that are the formulas at points off the curve pass every row
    # check, but 1/y = y/R(x) no longer holds there, so the closed form must refuse.
    curve, alphas, candidates, info, noise, odd = fiber_inputs(G1_Q43)
    p, n = curve.field.p, len(candidates) - 1
    h = n // 2 - len(alphas)
    points = [(pt.x, pt.y) for pt in candidates]
    assert formula_rows(alphas, points[::2], h, p) == (info, noise)
    (x, y), off = points[2], (points[2][1] + 1) % p
    assert off and off * off % p != curve.rhs(x)
    points[2:4] = [(x, off), (x, -off % p)]
    moved = tuple(AffinePoint(*pt) for pt in points)
    rows = formula_rows(alphas, points[::2], h, p)
    assert pir_scheme._fiber_decode(curve, alphas, moved, *rows, odd) is None


def test_a_failed_genus1_certificate_raises_instead_of_eliminating(monkeypatch):
    # 2 / (x - alpha_0) spans the same line as 1 / (x - alpha_0), so the
    # decode rows stay independent, but info row 0 is no longer the closed
    # form's: the build names the certificate that refused the rows.
    def scaled_basis(curve, pairs):
        basis = interp_basis_g1(curve, pairs)
        return (basis[0] * RationalFunction.make(curve, 2),) + basis[1:]

    monkeypatch.setattr(pir_scheme, "interp_basis_g1", scaled_basis)
    message = "the decode rows fail the genus-1 whole-fiber certificate"
    with pytest.raises(UncertifiedRows, match=f"^{message}$"):
        build_scheme(G1_Q43)


def test_zero_denominator_build_keeps_another_spare():
    # Delta = 0: the first 2F candidates are dependent, so the spare symbol is
    # one of them, and the build and a retrieval still work.
    inst = build_scheme(G1_Q67_ZERO)
    (spare, _), = inst.parity_checks
    assert spare < inst.n - 1
    db = Database.random(67, 2, inst.l, random.Random(1))
    assert run_round(inst, db, 1, seed=2)[3] == db.files[0]
    assert verify_scheme(inst, subsets="sample", sample_count=20).passed


def assert_decode_state(inst, cols, inv_t):
    """`fragment_rows` and `parity_checks` against an information set and its inverse.

    `cols` is an information set of the decode rows R, and `inv_t` the
    transposed inverse of R's block B there. Fragment l is column l of B^-1 at the pivots and 0 at the spares, so
    `fragment_rows` * R^T = [I_L | 0]. Each spare n has one check, in
    ascending n: 1 at n, 0 at the other spares and -(B^-1 R)[j][n] at
    pivot j, so H * R^T = 0.
    """
    p, n, rows = inst.p, inst.n, inst.decode_rows
    pivot = {c: j for j, c in enumerate(cols)}
    assert inst.fragment_rows == tuple(
        tuple(inv_t[ell][pivot[m]] if m in pivot else 0 for m in range(n)) for ell in range(inst.l)
    )
    identity = [[int(i == ell) for i in range(len(rows))] for ell in range(inst.l)]
    assert [[dot(f, row, p) for row in rows] for f in inst.fragment_rows] == identity
    spares = [m for m in range(n) if m not in pivot]
    assert [m for m, _ in inst.parity_checks] == spares
    for m, h in inst.parity_checks:
        assert [h[s] for s in spares] == [int(s == m) for s in spares]
        for c, j in pivot.items():
            assert h[c] == -sum(inv_t[i][j] * row[m] for i, row in enumerate(rows)) % p
        assert [dot(h, row, p) for row in rows] == [0] * len(rows)


def dot(a, b, p):
    return sum(map(operator.mul, a, b)) % p


@pytest.mark.parametrize("mode", ["all", "sample"])
@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_verify_security_equals_per_code_checks(name, mode, request):
    inst = request.getfixturevalue(name)
    # "all" falls back to sampling where C(N, X) exceeds the subset cap.
    report = verify_scheme(inst, subsets=mode, sample_count=10, sample_seed=7)
    assert report.fragments == len(inst.sec_codes) == inst.l
    for code in inst.sec_codes:
        rep = subset_rank_check(code, inst.x, mode=mode, sample_count=10, seed=7)
        assert report.security == rep


@pytest.mark.parametrize(
    "params, calls",
    [
        (G0_TINY, 1),
        (G1_TINY, 1),
        (G0_Q43, 1),
        (G1_Q43, 1),
        (SchemeParams(p=43, genus=0, x=12, t=16, l=5), 2),
        (SchemeParams(p=43, genus=0, x=16, t=12, l=5), 2),
        (SchemeParams(p=43, genus=1, x=3, t=5, l=7, curve=(0, 9)), 2),
    ],
)
@pytest.mark.parametrize("mode", ["all", "sample"])
def test_verify_checks_a_shared_privacy_and_security_code_once(params, calls, mode, monkeypatch):
    # At X = T the shared security code is the privacy code, so one subset
    # check is both reports; otherwise each code has its own check.
    inst = build_scheme(params)
    assert (inst.sec_code.rows == inst.priv_code.rows) == (calls == 1)
    privacy = subset_rank_check(inst.priv_code, inst.t, mode=mode, sample_count=10, seed=7)
    security = subset_rank_check(inst.sec_code, inst.x, mode=mode, sample_count=10, seed=7)
    seen = []
    monkeypatch.setattr(
        pir_scheme,
        "subset_rank_check",
        lambda code, t, **kw: seen.append((code, t)) or subset_rank_check(code, t, **kw),
    )
    report = verify_scheme(inst, subsets=mode, sample_count=10, sample_seed=7)
    assert len(seen) == calls
    assert report.privacy == privacy
    assert report.security == security
    assert report.passed


def test_verify_checks_a_broken_security_code_on_its_own(g0_tiny, monkeypatch):
    # Equal levels alone do not share the check: a security code that differs
    # from the privacy code is checked, and its failure reported, by itself.
    rows = tuple((row[0], row[0]) + row[2:] for row in g0_tiny.sec_code.rows)
    broken = dataclasses.replace(g0_tiny, sec_code=LinearCode(13, g0_tiny.n, rows))
    assert broken.x == broken.t
    seen = []
    monkeypatch.setattr(
        pir_scheme,
        "subset_rank_check",
        lambda code, t, **kw: seen.append(code) or subset_rank_check(code, t, **kw),
    )
    report = verify_scheme(broken, subsets="all")
    assert seen == [broken.priv_code, broken.sec_code]
    assert report.privacy.passed and not report.security.passed


def test_verify_security_failures_carry_over_to_every_fragment(g0_tiny):
    # Repeat column 0 in column 1: the pair is dependent in every scaled copy too.
    rows = tuple((row[0], row[0]) + row[2:] for row in g0_tiny.sec_code.rows)
    broken = dataclasses.replace(g0_tiny, sec_code=LinearCode(13, g0_tiny.n, rows))
    report = verify_scheme(broken, subsets="all")
    assert not report.passed and report.security.failures == ((0, 1),)
    for code in broken.sec_codes:
        assert report.security == subset_rank_check(code, broken.x, mode="all")
    # The one shared report gives each of the L fragments its own FAIL line.
    total = comb(broken.n, broken.x)
    failed = [line for line in report.lines() if line.startswith("FAIL")]
    assert failed == [
        f"FAIL  security fragment {ell}: {broken.x}-subsets independent (all, {total}/{total})"
        for ell in range(1, broken.l + 1)
    ]


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_descriptor_bytes_unchanged(name, request):
    blob = json.dumps(scheme_descriptor(request.getfixturevalue(name))).encode()
    assert hashlib.sha256(blob).hexdigest() == DESCRIPTOR_SHA256[name]


@st.composite
def small_feasible_params(draw):
    """Small parameters that build: genus 0 on the line, genus 1 on a random smooth curve."""
    genus = draw(st.sampled_from([0, 1]))
    x, t = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if genus == 0:
        p = draw(st.sampled_from([7, 13, 17, 23, 29, 43]))
        top, curve = sizes.max_fragments(0, p + 1, x, t), None
    else:
        p = draw(st.sampled_from([29, 31, 37, 43]))
        a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        assume((4 * a**3 + 27 * b * b) % p)
        elliptic = EllipticCurve(PrimeField(p), a, b)
        z = len(elliptic.zeros_of_y())
        top, curve = sizes.max_fragments(1, elliptic.point_count(), x, t, z), (a, b)
    assume(top >= 1)
    if genus == 0:
        l = draw(st.integers(1, top))
    else:
        l = 2 * draw(st.integers(0, (min(top, 9) - 1) // 2)) + 1  # odd, at most 9
    return SchemeParams(p=p, genus=genus, x=x, t=t, l=l, curve=curve)


@settings(max_examples=40, deadline=None)
@given(params=small_feasible_params())
def test_descriptor_round_trips_through_json(params):
    # The descriptor of a rebuilt instance serializes to the same bytes, so
    # the security bases it spells out are those the rebuild derives.
    text = json.dumps(scheme_descriptor(build_scheme(params)))
    rebuilt = scheme_from_descriptor(json.loads(text))
    assert json.dumps(scheme_descriptor(rebuilt)) == text


@settings(max_examples=40, deadline=None)
@given(params=small_feasible_params())
def test_built_masking_codes_are_the_evaluation_codes_of_their_bases(params):
    assert_masking_codes_are_evaluation_codes(build_scheme(params))


@settings(max_examples=60, deadline=None)
@given(params=small_feasible_params(), data=st.data())
def test_decode_refuses_exactly_the_tampers_outside_the_decode_row_space(params, data):
    # Honest responses lie in the decode row space; a tamper vector delta
    # moves them out of it exactly when delta is not in it. Only then may
    # decode refuse, and it names the first symbol the full re-encode of
    # `decode_reference` names. Sparse tampers reach the servers outside a
    # genus-1 parity's support, where a change stays inside the row space.
    inst = build_scheme(params)
    p, n, rows = inst.p, inst.n, inst.decode_rows
    residues = st.integers(0, p - 1)
    coeffs = data.draw(st.lists(residues, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):
        delta = data.draw(st.lists(residues, min_size=n, max_size=n))
    else:
        changed = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        delta = [data.draw(st.integers(1, p - 1)) if k in changed else 0 for k in range(n)]
    wraps = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    responses = [
        r + d + w * p for r, d, w in zip(in_decode_row_space(inst, coeffs), delta, wraps)
    ]
    outside = linalg.rank(list(rows) + [delta], p) > linalg.rank(rows, p)
    assert assert_decode_matches_reference(inst, responses) == outside


# Top-level entries, plus one point of either list and one entry of one basis function.
MUTABLE_FIELDS = (
    "p", "genus", "x", "t", "l", "n", "seed", "curve", "eval_points", "fragment_points", "basis"
)
JSON_INTS = st.one_of(st.integers(-5, 200), st.sampled_from([2**31 - 1, 10**9 + 7, 2**61 - 1]))
JSON_VALUES = st.one_of(
    JSON_INTS,
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=False),
    st.lists(JSON_INTS, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "x", "y"]), JSON_INTS, max_size=2),
)


def _mutate_one_field(descriptor, field, data):
    """A copy of the descriptor with one field replaced by a different value.

    Returns the copy and the new value.
    """
    d = copy.deepcopy(descriptor)
    if field in ("eval_points", "fragment_points", "basis"):
        if field == "basis":
            kind = data.draw(st.sampled_from(["info", "noise", "privacy", "security"]))
            entries = d["basis_descriptors"][kind]
            if kind == "security":
                entries = entries[data.draw(st.integers(0, len(entries) - 1))]
            entry = entries[data.draw(st.integers(0, len(entries) - 1))]
            holder, key = entry, data.draw(st.sampled_from(["scalar", "y_exp", "x_factors"]))
        else:
            holder, key = d[field], data.draw(st.integers(0, len(d[field]) - 1))
    else:
        holder, key = d, field
    old = holder[key]
    holder[key] = data.draw(JSON_VALUES.filter(lambda v: v != old))
    return d, holder[key]


@settings(max_examples=50, deadline=None)
@given(params=small_feasible_params(), field=st.sampled_from(MUTABLE_FIELDS), data=st.data())
def test_a_descriptor_with_one_field_changed_is_refused_quickly(params, field, data):
    # A changed descriptor is refused with a package error, quickly, unless it
    # is the deterministic descriptor of its own parameters. A new integer
    # seed always is, since the build reads no seed. So can a new prime: a
    # descriptor spells out residues, not their modulus, and every genus-0
    # basis scalar is 1.
    descriptor = json.loads(json.dumps(scheme_descriptor(build_scheme(params))))
    mutated, value = _mutate_one_field(descriptor, field, data)
    start = time.perf_counter()
    try:
        rebuilt = scheme_from_descriptor(mutated)
    except PACKAGE_ERRORS:
        assert not (field == "seed" and type(value) is int)
    else:
        assert field == "seed" or (field == "p" and params.genus == 0)
        assert type(value) is int
        assert scheme_descriptor(rebuilt) == mutated
    assert time.perf_counter() - start < 1.0


def test_units_ok_flags_a_zero_fragment_value(g0_tiny):
    assert verify_scheme(g0_tiny).units_ok
    rows = [list(row) for row in g0_tiny.info_rows]
    rows[1][2] = 0
    broken = dataclasses.replace(g0_tiny, info_rows=tuple(map(tuple, rows)))
    report = verify_scheme(broken)
    assert not report.units_ok and not report.passed
    assert report.lines()[0] == "FAIL  fragment basis functions are units"


@pytest.mark.parametrize(
    "change, failing",
    [
        ({"info_rank": -1}, [1, 2]),
        ({"info_rank": -1, "noise_rank": 1}, [1]),
        ({"noise_rank": 1}, [2]),
        ({"noise_rank": -1}, [2]),
        ({"combined_rank": -1}, [2, 3]),
        ({"combined_rank": 1}, [2, 3]),
        ({"num_decode_rows": 1}, [3]),
    ],
)
def test_a_changed_rank_fails_exactly_the_lines_that_compare_it(g0_tiny, change, failing):
    # The report keeps ranks, not verdicts: line 1 compares the information
    # rank with L, line 2 the combined rank with the sum, line 3 with the
    # number of decode rows. `passed` reads the same verdicts as the lines.
    report = verify_scheme(g0_tiny)
    assert report.passed and not any(line.startswith("FAIL") for line in report.lines())
    changed = dataclasses.replace(
        report, **{name: getattr(report, name) + delta for name, delta in change.items()}
    )
    lines = changed.lines()
    assert len(lines) == len(report.lines())
    assert [i for i, line in enumerate(lines) if line.startswith("FAIL")] == failing
    assert not changed.passed


def test_fragment_function_vanishing_at_an_evaluation_point_is_rejected(monkeypatch):
    # G0_TINY evaluates at x = 3..9; (x - 5) / (x - 1) vanishes at x = 5.
    def vanishing_basis(line, alphas):
        basis = list(interp_basis_g0(line, alphas))
        basis[1] = basis[1] * RationalFunction.x_minus(line, 5)
        return tuple(basis)

    monkeypatch.setattr(pir_scheme, "interp_basis_g0", vanishing_basis)
    with pytest.raises(PoleAtEvaluationPoint, match=r"has a pole at \(5\)$"):
        build_scheme(G0_TINY)


@pytest.mark.parametrize(
    "replace, message",
    [
        (lambda line, basis: (basis[0], basis[0], basis[2]), "fragment basis rank 2 != L = 3"),
        (
            lambda line, basis: (RationalFunction.one(line),) + basis[1:],
            "information and noise row spaces intersect",
        ),
    ],
)
def test_dependent_decode_rows_name_the_broken_condition(monkeypatch, replace, message):
    monkeypatch.setattr(
        pir_scheme,
        "interp_basis_g0",
        lambda line, alphas: replace(line, interp_basis_g0(line, alphas)),
    )
    with pytest.raises(RuntimeError, match=message):
        build_scheme(G0_TINY)


@pytest.mark.parametrize(
    "target, replace, message",
    [
        (
            "interp_basis_g1",
            lambda curve, basis: basis[:1] + basis[:1] + basis[2:],
            "fragment basis rank 6 != L = 7",
        ),
        (
            "interp_basis_g1",
            lambda curve, basis: (RationalFunction.one(curve),) + basis[1:],
            "information and noise row spaces intersect",
        ),
        (
            "noise_basis_g1",
            lambda curve, basis: basis[:1] + basis[:1] + basis[2:],
            "noise spanning set is dependent: rank 12 of 13",
        ),
    ],
)
def test_genus1_dependent_decode_rows_name_the_broken_condition(
    monkeypatch, target, replace, message
):
    real = getattr(pir_scheme, target)
    monkeypatch.setattr(pir_scheme, target, lambda curve, arg: replace(curve, real(curve, arg)))
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        build_scheme(SchemeParams(p=43, genus=1, x=3, t=3, l=7, curve=(0, 9)))


def reference_containment(inst):
    """The symbolic check: build every noise product and take its divisor."""
    bound = inst.noise_divisor()
    zero = Divisor.zero(inst.curve)
    return [(label, zero <= f.divisor() + bound) for label, f in noise_products(inst)]


def assert_containment_matches_reference(inst):
    """The containment list equals the symbolic one, and the L*X products h_l^-1 * w_i
    were never formed: `check_noise_containment` did not read `sec_bases`."""
    fresh = dataclasses.replace(inst)
    got = check_noise_containment(fresh)
    assert "sec_bases" not in fresh.__dict__
    assert got == reference_containment(fresh)
    return got


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_containment_by_divisor_sums_matches_symbolic_products(name, request):
    got = assert_containment_matches_reference(request.getfixturevalue(name))
    assert all(ok for _, ok in got)


def sorted_divisor_sum(self, other):
    """`Divisor.__add__` by its coefficientwise definition over the sorted union of supports."""
    mine, theirs = self.as_dict(), other.as_dict()
    union = sorted(mine.keys() | theirs.keys(), key=place_key)
    return Divisor.of(self.curve, {pl: mine.get(pl, 0) + theirs.get(pl, 0) for pl in union})


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
@pytest.mark.parametrize("tamper", ["none", "privacy pole", "fragment zero"])
def test_containment_lists_are_those_of_the_sorted_sum(name, tamper, request, monkeypatch):
    # The merged sum gives the verdicts of the coefficientwise one, built
    # instances and failing ones alike.
    inst = request.getfixturevalue(name)
    if tamper == "privacy pole":
        extra = RationalFunction.x_power(inst.curve, inst.x + inst.t + 3)
        inst = dataclasses.replace(inst, priv_basis=inst.priv_basis + (extra,))
    elif tamper == "fragment zero":
        h = inst.info_basis[-1] * RationalFunction.x_power(inst.curve, -1)
        inst = dataclasses.replace(inst, info_basis=inst.info_basis[:-1] + (h,))
    got = check_noise_containment(dataclasses.replace(inst))
    monkeypatch.setattr(Divisor, "__add__", sorted_divisor_sum)
    assert got == check_noise_containment(dataclasses.replace(inst))
    assert all(ok for _, ok in got) == (tamper == "none")


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"])
def test_containment_flags_a_privacy_function_with_too_many_poles(name, request):
    inst = request.getfixturevalue(name)
    # Pole order X + T + 3 (genus 0) or 2(X + T + 3) (genus 1) at infinity
    # exceeds the noise bound's X + T - 1 or X + T + 4 on its own.
    extra = RationalFunction.x_power(inst.curve, inst.x + inst.t + 3)
    broken = dataclasses.replace(inst, priv_basis=inst.priv_basis + (extra,))
    got = check_noise_containment(broken)
    assert got == reference_containment(broken)
    flagged = [label for label, ok in got if not ok]
    assert f"enc * priv[{inst.priv_dim}]" in flagged
    assert all(label.endswith(f"priv[{inst.priv_dim}]") for label in flagged)


# Every built instance passes the per-fragment floor test, so the tampered
# instances below are what drive the branch that enumerates a fragment's pairs.


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"])
@pytest.mark.parametrize("pole", ["at infinity", "at an affine point"])
def test_containment_flags_a_shared_security_function_with_too_many_poles(name, pole, request):
    inst = request.getfixturevalue(name)
    if pole == "at infinity":
        extra = RationalFunction.x_power(inst.curve, inst.x + inst.t + 3)
    else:
        # The bound has no affine place, and no h_l has a zero to cancel this pole.
        used = {alpha for h in inst.info_basis for alpha, _ in h.x_factors}
        alpha = next(a for a in range(inst.p) if a not in used)
        extra = RationalFunction.x_minus(inst.curve, alpha, -1)
    broken = dataclasses.replace(inst, sec_basis=inst.sec_basis + (extra,))
    got = assert_containment_matches_reference(broken)
    flagged = {label for label, ok in got if not ok}
    i = inst.sec_dim
    # The function alone exceeds the bound, so every product with it fails:
    # its query product in every fragment and every pair it forms.
    assert {f"sec[{ell}][{i}] * query[{ell}]" for ell in range(inst.l)} <= flagged
    assert {
        f"sec[{ell}][{i}] * priv[{j}]" for ell in range(inst.l) for j in range(inst.priv_dim)
    } <= flagged
    assert all(f"][{i}] * " in label for label in flagged)


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"])
@pytest.mark.parametrize("factor", ["zero at an affine point", "zero at infinity"])
def test_containment_flags_only_the_fragment_whose_function_changed(name, factor, request):
    inst = request.getfixturevalue(name)
    ell = inst.l - 1
    h = inst.info_basis[ell]
    # A zero of h_l is a pole of h_l^-1, so of every security function of
    # fragment l: at an affine point the bound never covers it, at infinity
    # it pushes the top pole orders past the bound.
    if factor == "zero at an affine point":
        alpha = next(a for a in range(inst.p) if a not in dict(h.x_factors))
        changed = h * RationalFunction.x_minus(inst.curve, alpha)
    else:
        changed = h * RationalFunction.x_power(inst.curve, -1)
    info = inst.info_basis[:ell] + (changed,) + inst.info_basis[ell + 1 :]
    got = assert_containment_matches_reference(dataclasses.replace(inst, info_basis=info))
    flagged = [label for label, ok in got if not ok]
    assert flagged
    # sec[l][i] * query[l] is w_i whatever h_l is, and enc * priv[j] has no h_l.
    assert all(label.startswith(f"sec[{ell}][") and "priv" in label for label in flagged)


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"])
def test_containment_flags_the_top_pairs_under_a_shrunken_bound(name, request, monkeypatch):
    inst = request.getfixturevalue(name)
    real = pir_scheme.SchemeInstance.noise_divisor

    def shrunken(self):
        bound = real(self).as_dict()
        bound[curve_module.INFINITY] -= 1
        return Divisor.of(self.curve, bound)

    monkeypatch.setattr(pir_scheme.SchemeInstance, "noise_divisor", shrunken)
    got = assert_containment_matches_reference(inst)
    flagged = [label for label, ok in got if not ok]
    # One pole fewer at infinity than the construction needs: the pairs of the
    # largest pole orders fall outside in the fragments whose h_l has the
    # largest zero at infinity (all of them at genus 0, the first (L+1)/2 at
    # genus 1), and nothing else does.
    zeros = [h.divisor().coeff(curve_module.INFINITY) for h in inst.info_basis]
    worst = {f"sec[{ell}" for ell, n in enumerate(zeros) if n == max(zeros)}
    assert {label.split("]")[0] for label in flagged} == worst
    assert all("priv" in label and not label.startswith("enc") for label in flagged)


@st.composite
def small_functions(draw, curve):
    """A factored function with at most two x-atoms of small exponent, and y^k at genus 1."""
    p = curve.field.p
    atoms = draw(
        st.lists(st.tuples(st.integers(0, p - 1), st.integers(-3, 3)), min_size=0, max_size=2)
    )
    y_exp = draw(st.integers(-2, 2)) if curve.genus == 1 else 0
    return RationalFunction.make(curve, draw(st.integers(1, p - 1)), atoms, y_exp)


@pytest.mark.parametrize("name", ["g0_tiny", "g1_tiny"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_containment_matches_the_symbolic_check_with_extra_basis_functions(name, request, data):
    inst = request.getfixturevalue(name)
    field = data.draw(st.sampled_from(["priv_basis", "sec_basis"]))
    extra = data.draw(st.lists(small_functions(inst.curve), min_size=1, max_size=3))
    broken = dataclasses.replace(inst, **{field: getattr(inst, field) + tuple(extra)})
    assert_containment_matches_reference(broken)


def reference_genus1_selection(curve, l, n):
    """The genus-1 point selection by enumerate and filter, a reference for the
    fiber walk: fragments on the first (L+1)/2 full fibers, candidates the first
    N + 1 points with y != 0 off those fibers."""
    points = curve.enumerate_points()
    pairs = []
    for pt in points:
        if isinstance(pt, PointAtInfinity) or pt.y == 0:
            continue
        if pairs and pairs[-1][0].x == pt.x:
            continue
        fiber = curve.fiber(pt.x)
        if len(fiber) == 2:
            pairs.append(fiber)
        if len(pairs) == (l + 1) // 2:
            break
    fragment = tuple(pt for pair in pairs for pt in pair)
    fragment_x = {pt.x for pt in fragment}
    candidates = tuple(
        pt
        for pt in points
        if not isinstance(pt, PointAtInfinity) and pt.y != 0 and pt.x not in fragment_x
    )[: n + 1]
    return fragment, candidates


def genus1_candidates(inst):
    """The L+X+T+9 points the genus-1 build picks its evaluation points from."""
    return list(reference_genus1_selection(inst.curve, inst.l, inst.l + inst.x + inst.t + 8)[1])


def test_fiber_walk_matches_enumerate_and_filter():
    # On the first maximal curve, at the best and the smallest feasible L.
    for q in filter(is_prime, range(5, 200)):
        field = PrimeField(q)
        curve = find_curve(field, hasse_window(q)[1])
        for x, t in [(1, 1), (2, 5)]:
            row = max_rate_g1(q, x, t, (curve.a, curve.b))
            if not row.feasible:
                continue
            for l in sorted({1, row.l}):
                n = sizes.num_servers(1, l, x, t)
                params = SchemeParams(p=q, genus=1, x=x, t=t, l=l, curve=(curve.a, curve.b))
                _, fragment, candidates, _, _ = pir_scheme._elliptic_geometry(params, field, n)
                assert (fragment, candidates) == reference_genus1_selection(curve, l, n)


def test_short_curve_with_two_torsion_is_counted_below_the_hasse_bound():
    # Curves whose count lies less than Z above the Hasse lower bound: a need
    # of count + 1 is at most that bound for Z = 0 but not for the real Z, so
    # the build must count and refuse, and build one point lower.
    seen = 0
    for q in filter(is_prime, range(5, 80)):
        lo = hasse_window(q)[0]
        for a, b, count in _point_counts(q, itertools.product(range(q), repeat=2)):
            if count - lo >= 3:  # the case below needs count - lo < Z <= 3
                continue
            z = len(EllipticCurve(PrimeField(q), a, b).zeros_of_y())
            t = count - 13 - z  # 2L + X + T + 11 + Z = count + 1 at L = X = 1
            if count - lo < z and t >= 1:
                params = SchemeParams(p=q, genus=1, x=1, t=t, l=1, curve=(a, b))
                with pytest.raises(CurveTooSmall):
                    build_scheme(params)
                assert build_scheme(dataclasses.replace(params, t=t - 1)).n == t + 9
                seen += 1
                break
    assert seen == 10


def test_genus1_build_at_a_billion_reads_only_the_fibers_it_uses(monkeypatch):
    def refuse(self):
        raise AssertionError("the build must not count or enumerate the curve")

    for name in ("enumerate_points", "point_count", "zeros_of_y"):
        monkeypatch.setattr(EllipticCurve, name, refuse)
    inst = build_scheme(SchemeParams(p=1_000_000_007, genus=1, x=2, t=2, l=3, curve=(1, 1)))
    assert inst.n == 15
    assert all(inst.curve.contains(pt) for pt in inst.fragment_points + inst.eval_points)


def evaluate(basis, points, alias):
    """Each basis function's values at the points, each point read as its alias if it has one."""
    return tuple(tuple(f.eval_at(alias.get(pt, pt)) for pt in points) for f in basis)


def two_step_genus1_reduction(inst, alias):
    """The genus-1 point reduction as first built: an information set of the
    decode rows on the candidates, then a second evaluation and elimination
    on the kept points."""
    p, n = inst.p, inst.n
    candidates = genus1_candidates(inst)
    basis = inst.info_basis + inst.noise_basis
    cols, achieved = information_set(evaluate(basis, candidates, alias), p, len(basis))
    assert achieved == len(basis)
    chosen = set(cols)
    for idx in range(len(candidates)):
        if len(chosen) == n:
            break
        chosen.add(idx)
    eval_points = tuple(candidates[idx] for idx in sorted(chosen))
    rows = evaluate(basis, eval_points, alias)
    cols, reduced = solve_augmented(rows, p, len(rows))
    return eval_points, rows, cols, list(zip(*(row[n:] for row in reduced)))


def assert_matches_two_step_reduction(inst, alias):
    eval_points, rows, cols, inv_t = two_step_genus1_reduction(inst, alias)
    assert inst.eval_points == eval_points
    assert inst.decode_rows == rows
    assert_decode_state(inst, cols, inv_t)


@pytest.mark.parametrize("name", ["g1_tiny", "g1_q43", "g1_q127"])
def test_genus1_build_matches_two_step_reduction(name, request):
    inst = request.getfixturevalue(name)
    assert_matches_two_step_reduction(inst, {})
    blob = json.dumps(scheme_descriptor(inst)).encode()
    assert hashlib.sha256(blob).hexdigest() == DESCRIPTOR_SHA256[name]


def test_genus1_build_reindexes_pivots_past_a_dropped_point(monkeypatch):
    # At q = 29 the build drops candidate 19 and keeps 20, which moves the
    # last pivot one place left among the kept points.
    inst = build_scheme(G1_Q29_DROP)
    candidates = genus1_candidates(inst)
    assert candidates[19] not in inst.eval_points and inst.eval_points[-1] == candidates[20]
    assert [n for n, _ in inst.parity_checks] == [18]
    assert_matches_two_step_reduction(inst, {})
    # Rows that read candidates 1 and 2 as copies of candidate 0 are still
    # independent, but they are not the curve's rows: the build refuses them.
    plain = build_scheme(G1_Q43)
    candidates = genus1_candidates(plain)
    alias = {candidates[1]: candidates[0], candidates[2]: candidates[0]}
    monkeypatch.setattr(
        pir_scheme,
        "evaluation_code",
        lambda basis, points: LinearCode(43, len(points), evaluate(basis, points, alias)),
    )
    with pytest.raises(UncertifiedRows, match="genus-1 whole-fiber certificate"):
        build_scheme(G1_Q43)
    assert_matches_two_step_reduction(inst, alias)
