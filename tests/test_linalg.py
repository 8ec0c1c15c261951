import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agpir
from agpir import linalg
from conftest import eliminate_reference, rank_column_pivot

# One prime per slot-width regime of the packed kernels: 4-byte slots at 5 and 257,
# 8-byte slots at 2**31 - 1 with one row, wide slots beyond that and at 2**61 - 1.
KERNEL_PRIMES = (5, 257, 2**31 - 1, 2**61 - 1)


def matrices(p=13, max_dim=6):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, p - 1), min_size=d[1], max_size=d[1]),
            min_size=d[0],
            max_size=d[0],
        )
    )


def test_rref_identity():
    m, pivots = linalg.rref([[1, 0], [0, 1]], 5)
    assert pivots == (0, 1)
    assert m == [[1, 0], [0, 1]]


def test_rank_simple():
    assert linalg.rank([[1, 2, 3], [2, 4, 6]], 7) == 1
    assert linalg.rank([[1, 2], [3, 4]], 7) == 2


def products(p=13, max_dim=7):
    """k x n matrices A @ B with A k x r and B r x n, so rank <= r; any dimension may be 0.

    Entries of A and B favour 0, 1 and p - 1, so that even at large p some
    products are sparse or have repeated rows and columns.
    """

    def rows(count, length):
        entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
        row = st.lists(entry, min_size=length, max_size=length)
        return st.lists(row, min_size=count, max_size=count)

    def multiply(ab, n):
        a, b = ab
        return [[sum(x * y[j] for x, y in zip(ai, b)) % p for j in range(n)] for ai in a]

    dims = st.tuples(*[st.integers(0, max_dim)] * 3)
    return dims.flatmap(
        lambda d: st.tuples(rows(d[0], d[1]), rows(d[1], d[2])).map(
            lambda ab: (multiply(ab, d[2]), d[1])
        )
    )


@settings(max_examples=300)
@given(st.one_of(matrices().map(lambda rows: (rows, len(rows))), products()))
def test_two_eliminations_agree(case):
    """Forward-elimination rank against the reduced form and a right-to-left oracle.

    Covers wide, tall, square, empty and rank-deficient (inner dimension r
    below both sides) matrices.
    """
    rows, inner = case
    r = linalg.rank(rows, 13)
    assert r == len(linalg.rref(rows, 13)[1]) == rank_column_pivot(rows, 13)
    assert r <= min(inner, len(rows), len(rows[0]) if rows else 0)


@st.composite
def kernel_cases(draw):
    """(rows, p) at a kernel prime: products of any shape, each entry shifted by a multiple of p."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, _ = draw(products(p, max_dim=8))
    rng = draw(st.randoms(use_true_random=False))
    return [[v + p * rng.randint(-2, 2) for v in row] for row in rows], p


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_packed_elimination_matches_the_reference(case):
    """rref, rank and invert against the list elimination of conftest.

    Wide, tall, square, empty, single-column and rank-deficient matrices,
    with entries below 0 and at or above p, at one prime per slot regime.
    invert refuses every matrix that is not square, and a square one whose
    rank is short; otherwise it is the right half of the reduced [A | I].
    """
    rows, p = case
    reduced, pivots = eliminate_reference(rows, p, full=True)
    assert linalg.rref(rows, p) == (reduced, pivots)
    assert linalg.rank(rows, p) == len(eliminate_reference(rows, p, full=False)[1]) == len(pivots)
    k, n = len(rows), len(rows[0]) if rows else 0
    if k != n:
        with pytest.raises(ValueError, match="^matrix is not square$"):
            linalg.invert(rows, p)
    elif len(pivots) < k:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            linalg.invert(rows, p)
    else:
        aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
        inverse = [row[k:] for row in eliminate_reference(aug, p, full=True)[0]]
        assert linalg.invert(rows, p) == inverse


def test_packed_elimination_at_the_slot_bound():
    """Every row takes an update at every pivot with f = 1, the largest multiplier p - 1.

    Pivot c normalises to lead_c: 1 at column c, 2**(d - 1 - c) at each later
    pivot column d, and p - 1 in the last columns; row c of the matrix is
    lead_0 + ... + lead_c, and one more row repeats row k - 1. Then at each
    pivot every other row reads 1 there, and its update (p - 1) * lead_c adds
    (p - 1)**2 to each last slot. The repeated row is never normalised and
    takes all k updates: its last slots exceed 2**128, so slots sized from
    one update's (p - 1)**2 instead of min(rows, cols) of them would carry.
    """
    p, k, extra = 2**61 - 1, 65, 3
    leads = [
        [0] * c + [1] + [pow(2, d - 1 - c, p) for d in range(c + 1, k)] + [p - 1] * extra
        for c in range(k)
    ]
    rows = [[sum(column) % p for column in zip(*leads[: c + 1])] for c in range(k)]
    rows.append(rows[-1])
    packed, slot, pivots = linalg._eliminate(rows, p, full=True)
    assert slot == 17 and pivots == tuple(range(k))
    # Pivot row c takes the k - 1 - c updates after its normalisation.
    tops = [(p - 1) + (k - 1 - c) * (p - 1) ** 2 for c in range(k)]
    tops.append(rows[k][k] + k * (p - 1) ** 2)
    assert tops[-1] >> 128 == 1
    for value, top in zip(packed, tops):
        assert list(linalg._unpack(value, k + extra, slot)[k:]) == [top] * extra
    assert linalg.rref(rows, p) == eliminate_reference(rows, p, full=True)
    assert linalg.rank(rows, p) == k


def staircase(p, k, extra, repeat):
    """Rows i < k of [1] * (i + 1) + [0] * (k - 1 - i) + [p - 1] * extra, and row k - 1 again.

    Forward elimination pivots on columns 0..k-1. At each pivot every row
    below reads 1, as the pivot row does, so the multiplier is p - 1 and
    clearing with the pivot row as it stands multiplies the last `extra`
    slots of every row below by p: after j such clears they hold
    (p - 1) * p**j, the rank-only slot bound exactly. A normalised pivot row
    reads 0 mod p in those slots and leaves them as they are.
    """
    rows = [[1] * (i + 1) + [0] * (k - 1 - i) + [p - 1] * extra for i in range(k)]
    return rows + rows[-1:] if repeat else rows


def guard_clear(p, slot, pivots):
    """The first clear at which the bound times p reaches the limit, 1-based."""
    limit = (1 << (8 * slot)) - pivots * (p - 1) ** 2
    j = 1
    while (p - 1) * p**j < limit:
        j += 1
    return j


def leading_one(row, p):
    """The row over F_p divided by its first nonzero entry."""
    row = [v % p for v in row]
    lead = next((v for v in row if v), 1)
    inv = pow(lead, -1, p)
    return [v * inv % p for v in row]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("short", [True, False], ids=["16 entries or fewer", "over 16 entries"])
@pytest.mark.parametrize("repeat", [False, True], ids=["full rank", "rank deficient"])
def test_rank_only_elimination_normalises_first_at_the_guard(p, short, repeat, monkeypatch):
    """A rank-only elimination clears with unnormalised pivot rows until the slot
    bound times p would pass the limit, and normalises the pivot row there.

    The staircase has just enough pivots for its last clear to be the first
    one at the guard, with 16 entries or fewer (8-byte slots or wider) or
    more (4-byte slots at small p). The rows below reach the bound exactly,
    so a guard that allowed one more factor of p would carry out of their
    last slots. At p = 5 on 16 entries no staircase reaches the guard: 16
    pivots multiply the slots by 5**15 at most, far below 2**64.
    """
    k = 1
    while True:
        extra = 2 if short else max(2, 17 - k)
        rows = staircase(p, k, extra, repeat)
        n, clears = k + extra, k if repeat else k - 1
        packed, slot = linalg.pack_for_elimination(rows, p, min(len(rows), n))
        guard = guard_clear(p, slot, min(len(rows), n))
        if clears >= guard or (short and n == 16):
            break
        k += 1
    assert (n <= 16) == short and slot >= (8 if short else 4)
    normalised = []
    real_pack = linalg._pack
    monkeypatch.setattr(linalg, "_pack", lambda *a: normalised.append(1) or real_pack(*a))
    pivots = linalg.eliminate_packed(packed, n, p, slot, full=False)
    reduced, want = eliminate_reference(rows, p, full=False)
    assert pivots == want == tuple(range(k))
    values = [list(linalg._unpack(row, n, slot)) for row in packed]
    assert [leading_one(row, p) for row in values] == reduced
    if clears < guard:
        assert p == 5 and short and not normalised
        assert values[-1][k:] == [(p - 1) * p**clears] * extra
        return
    assert clears == guard and len(normalised) == 1
    # The rows below the guard's pivot hold the bound that stopped it.
    bound = (p - 1) * p ** (guard - 1)
    assert values[-1][k:] == [bound] * extra
    assert bound * p >= (1 << (8 * slot)) - min(len(rows), n) * (p - 1) ** 2
    assert linalg.rank(rows, p) == k


def test_rank_only_elimination_keeps_room_for_the_normalised_clears():
    """Clearing unnormalised is refused while the normalised clears after it could carry.

    Row i is lead_0 + ... + lead_i with lead_c = e_c and p - 1 in the two
    last columns, so every clear has multiplier p - 1 and every normalised
    pivot row holds p - 1 in those slots. At p = 1609 with 56 pivots the
    slots are 4 bytes: (p - 1) * p**2 fits in them, but after two
    unnormalised clears the 53 normalised ones would add (p - 1)**2 each and
    carry. The limit keeps room for all of them, so only the first clear is
    unnormalised.
    """
    p, k = 1609, 56
    rows = [[int(j <= i) for j in range(k)] + [(i + 1) * (p - 1) % p] * 2 for i in range(k)]
    packed, slot = linalg.pack_for_elimination(rows, p, k)
    assert slot == 4 and (p - 1) * p**2 < 1 << 32
    assert (p - 1) * p**2 + (k - 3) * (p - 1) ** 2 >= 1 << 32
    assert linalg.eliminate_packed(packed, k + 2, p, slot, full=False) == tuple(range(k))
    values = [list(linalg._unpack(row, k + 2, slot)) for row in packed]
    assert [leading_one(row, p) for row in values] == eliminate_reference(rows, p, full=False)[0]


@pytest.mark.parametrize("entry", [linalg.rref, linalg.rank])
@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 0, 0], [0, 1]]])
def test_ragged_rows_are_refused(entry, rows):
    with pytest.raises(ValueError, match="different lengths"):
        entry(rows, 7)


def test_rank_of_empty_matrices():
    for rows in ([], [[]], [[], []]):
        assert linalg.rank(rows, 7) == 0 == len(linalg.rref(rows, 7)[1])


def test_invert_round_trip():
    p = 43
    m = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    inv = linalg.invert(m, p)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(3)) % p for j in range(3)] for i in range(3)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        linalg.invert([[1, 2], [2, 4]], 5)


def test_row_space_equal():
    assert linalg.row_space_equal([[1, 1, 0]], [[2, 2, 0]], 5)
    assert not linalg.row_space_equal([[1, 0, 0]], [[0, 1, 0]], 5)
    assert linalg.row_space_equal([[1, 0], [0, 1]], [[1, 1], [1, 2]], 5)


def naive_combination(coeffs, rows, p, scale=0, extra_row=None, columns=None):
    """sum(coeffs[i] * rows[i]) + scale * extra_row, column j times columns[j], mod p."""
    n = len(rows[0])
    extra = extra_row or [0] * n
    columns = columns or [1] * n
    return tuple(
        (sum(c * row[j] for c, row in zip(coeffs, rows)) + scale * extra[j]) * columns[j] % p
        for j in range(n)
    )


@pytest.mark.parametrize(
    "p, dim, slot",
    [(5, 41, 4), (257, 41, 4), (257, 168, 4), (65537, 41, 8), (2**31 - 1, 1, 8),
     (2**31 - 1, 4, 9), (2**61 - 1, 3, 16)],
)
def test_packed_slot_width(p, dim, slot):
    packed = linalg.PackedRows.of([[0, 1]] * dim, p)
    assert packed.slot == slot
    assert (dim + 1) * (p - 1) ** 2 < 1 << (8 * slot)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("dim, n", [(1, 1), (4, 1), (1, 9), (4, 17), (41, 168)])
def test_packed_combine_matches_naive(p, dim, n):
    rng = random.Random(f"{p}:{dim}:{n}")
    # Rows are deliberately non-canonical: packing reduces them mod p.
    rows = [[rng.randrange(-2 * p, 3 * p) for _ in range(n)] for _ in range(dim)]
    extra_row = [rng.randrange(-p, 2 * p) for _ in range(n)]
    packed = linalg.PackedRows.of(rows, p)
    assert packed.n == n and len(packed.rows) == dim
    extra = packed.pack(extra_row)
    # Column scales are residues: zero, one, p - 1 and random ones.
    columns = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
    for coeffs in ([0] * dim, [p - 1] * dim, [rng.randrange(p) for _ in range(dim)]):
        for scale in (0, 1, p - 1, rng.randrange(p)):
            got = packed.combine(coeffs, scale * extra)
            assert got == naive_combination(coeffs, rows, p, scale, extra_row)
            got = packed.combine(coeffs, scale * extra, columns)
            assert got == naive_combination(coeffs, rows, p, scale, extra_row, columns)
        assert packed.combine(coeffs) == naive_combination(coeffs, rows, p)
        assert packed.combine(coeffs, scale=columns) == naive_combination(
            coeffs, rows, p, columns=columns
        )
    with pytest.raises(ValueError):
        packed.combine([0] * dim, scale=columns + [1])


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_combine_at_the_slot_bound(p):
    # Every product and the extra term at their largest: each slot reaches (dim+1)(p-1)^2.
    dim, n = 5, 7
    packed = linalg.PackedRows.of([[p - 1] * n] * dim, p)
    extra = (p - 1) * packed.pack([-1] * n)
    assert packed.combine([p - 1] * dim, extra) == ((dim + 1) * (p - 1) ** 2 % p,) * n


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_combine_scales_columns_at_the_slot_bound(p):
    # Each slot at its largest, (dim+1)(p-1)^2, is scaled before it is reduced:
    # column j's scale reaches column j alone, whatever the other columns hold.
    dim, n = 5, 7
    packed = linalg.PackedRows.of([[p - 1] * n] * dim, p)
    extra = (p - 1) * packed.pack([-1] * n)
    columns = [0, 1, p - 1, 2 % p, (p + 1) // 2, p - 2, 1]
    top = (dim + 1) * (p - 1) ** 2
    want = tuple(top * s % p for s in columns)
    assert packed.combine([p - 1] * dim, extra, columns) == want
    assert packed.combine([p - 1] * dim, extra, [1] * n) == packed.combine([p - 1] * dim, extra)


def test_packed_combine_reduces_coefficients():
    p = 257
    packed = linalg.PackedRows.of([[1, 2, 3], [4, 5, 6]], p)
    # Unreduced, these would carry across slots and make the packed sum negative.
    assert packed.combine([1 + p**4, -1]) == packed.combine([1, p - 1]) == (p - 3,) * 3


def test_packed_rows_reject_bad_shapes():
    packed = linalg.PackedRows.of([[1, 2, 3], [4, 5, 6]], 13)
    with pytest.raises(ValueError):
        packed.combine([1])
    with pytest.raises(ValueError):
        packed.pack([1, 2])
    with pytest.raises(ValueError):
        linalg.PackedRows.of([[1, 2, 3], [4, 5]], 13)


def test_int_byte_conversions_pass_length_and_byteorder():
    """int.to_bytes/from_bytes calls must not rely on the defaults added in Python 3.11."""
    calls = []
    for path in Path(agpir.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("to_bytes", "from_bytes"):
                    calls.append((path.name, node.lineno, node))
    assert any(name == "linalg.py" for name, _, _ in calls)
    for name, line, node in calls:
        keywords = {k.arg for k in node.keywords}
        explicit = len(node.args) >= 2 or (len(node.args) == 1 and "byteorder" in keywords)
        explicit = explicit or {"length", "byteorder"} <= keywords
        assert explicit, f"{name}:{line} omits the length or byteorder argument"
