"""Dense exact linear algebra over F_p.

Matrices are sequences of rows of ints. All routines copy their input and
reduce mod p as they go; nothing here mutates caller data. Rows must all
have the same length; ragged input raises ValueError.

Rows are packed by Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009): a row of length n becomes one Python int with n fixed-width
little-endian slots (residue j at byte offset j * slot). A linear
combination of packed rows is then a few native big-int multiply-adds with
no reduction per slot. Slots never carry into each other because the width
is chosen from the largest value a slot can reach. Both packed uses share
this one layout and its helpers:

- `PackedRows.combine` evaluates K combinations sum(c_i * row_i) + extra
  of one fixed set of `dim` rows in one call: K packed sums, whose bytes
  are joined into one buffer, read once and reduced mod p in one pass.
  With coefficients in [0, p), which it checks, and room for one extra
  packed term, a slot reaches (dim + 1) * (p - 1)**2. A combination can
  scale column j by s_j in that reduction: one product per symbol, and no
  scaled copy of the rows.
- `eliminate_packed`, the one elimination loop behind `rref` (and so
  `invert`), `rank` and `agcode.subset_rank_check`, holds each row of the
  matrix as one packed int and clears a pivot column with one update
  m_i += g * lead per row. An entry is read by shift, mask and % p, and a
  row takes at most one update per pivot. The loop takes rows already
  packed (`pack_for_elimination`), in slots that hold
  min(rows, cols) * (p - 1)**2 + p, so a caller that ranks many subsets of
  one set of rows packs them once. The slot bound depends on the mode:
  - Full (`rref`): lead is the normalised pivot row, by one
    unpack, scale and repack of its slots from the pivot column on, and
    g = p - f for the row's entry f. The lead is canonical, so an update
    adds at most (p - 1)**2 to a slot, and a slot stays below
    min(rows, cols) * (p - 1)**2 + p. `rref` unpacks every row once at the
    end.
  - Rank-only (`rank`, the subset check): one bound holds for every slot
    of every row, p - 1 at the start since packed rows are reduced. While
    bound * p stays below the slot's capacity less (p - 1)**2 for each
    possible pivot, lead is the pivot row as it stands, g is
    (p - f) / lead's entry mod p, and the bound becomes bound * p: no
    unpack, no repack. Otherwise the pivot row is normalised as in the full
    mode and the bound grows by (p - 1)**2, which the room kept back covers
    at every later pivot. On rows of at most 16 entries, whose slots are
    at least 8 bytes, a rank never normalises at p < 89 with at most 10
    rows, or at p = 257 with at most 7.

Slots of 4 or 8 bytes are written with `array` and read with
`memoryview.cast` in native formats; wider slots, needed only once p
approaches 2**32 / sqrt(rows), go through `int.to_bytes`/`int.from_bytes`
on fixed-width slices.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int]]

# Slot widths that `array` writes and memoryview.cast reads directly: native
# unsigned formats, usable only where native order matches the little-endian
# slot layout.
_CAST_FORMATS = {array(f).itemsize: f for f in "IQ"} if sys.byteorder == "little" else {}


def _width(rows: Matrix) -> int:
    """The common length of the rows, 0 when there are none."""
    lengths = set(map(len, rows))
    if len(lengths) > 1:
        raise ValueError("rows have different lengths")
    return lengths.pop() if lengths else 0


def _slot_bytes(largest: int) -> int:
    """Bytes per slot for slot values up to `largest`; 4 or 8 when they suffice."""
    if largest < 1 << 32:
        return 4
    if largest < 1 << 64:
        return 8
    return (largest.bit_length() + 7) // 8


def _pack(residues: list[int], slot: int) -> int:
    """Residues, each below 2**(8 * slot), as one packed int."""
    fmt = _CAST_FORMATS.get(slot)
    if fmt is not None:
        return int.from_bytes(array(fmt, residues), "little")
    return int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in residues), "little")


def _slots(raw: bytes, slot: int) -> Sequence[int]:
    """The values of the consecutive little-endian slots of `raw`, unreduced."""
    fmt = _CAST_FORMATS.get(slot)
    if fmt is not None:
        return memoryview(raw).cast(fmt)
    return [int.from_bytes(raw[i : i + slot], "little") for i in range(0, len(raw), slot)]


def _unpack(value: int, n: int, slot: int) -> Sequence[int]:
    """The n slot values of a packed int, unreduced."""
    return _slots(value.to_bytes(n * slot, "little"), slot)


def pack_for_elimination(rows: Matrix, p: int, pivots: int) -> tuple[list[int], int]:
    """The rows packed for `eliminate_packed`, and their slot width in bytes.

    The slots hold pivots * (p - 1)**2 + p, enough for an elimination that
    finds at most `pivots` pivots and normalises every pivot row. Any subset
    of the packed rows, up to `pivots` of them, can be eliminated in these
    slots without packing again. Rows of at most 16 entries get slots of at
    least 8 bytes: the wider slot costs little on so short a row, and leaves
    a rank-only elimination room to clear many pivots without normalising.
    """
    slot = _slot_bytes(pivots * (p - 1) ** 2 + p)
    if rows and len(rows[0]) <= 16:
        slot = max(slot, 8)
    return [_pack([v % p for v in row], slot) for row in rows], slot


def eliminate_packed(
    m: list[int], ncols: int, p: int, slot: int, full: bool
) -> tuple[int, ...]:
    """Gaussian elimination with leftmost pivoting on packed rows, in place.

    `m` holds rows of length `ncols` from `pack_for_elimination`, in slots
    sized for at least min(len(m), ncols) pivots. Returns the pivot columns.
    With `full` set, each pivot row is normalised and its column cleared
    above and below it, which gives the reduced row echelon form. Without
    it the column is cleared below the pivot only, and the pivot row is
    normalised only when the slot bound leaves no room to clear with it as
    it stands: the result is an echelon form, enough to count pivots.
    Slot values are left unreduced: read them with `_unpack` and % p.
    """
    nrows = len(m)
    bits = 8 * slot
    mask = (1 << bits) - 1
    # The rank-only bound on every slot of every row; the full mode normalises
    # every pivot row and never reads it. A normalised clear adds at most
    # (p - 1)**2 to a slot, and the limit keeps room for one at every pivot.
    bound = p - 1
    limit = (1 << bits) - min(nrows, ncols) * (p - 1) ** 2
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        shift = c * bits
        for pr in range(r, nrows):
            if (m[pr] >> shift & mask) % p:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivots.append(c)
        if not full and r + 1 == nrows:
            break  # no row left to clear
        if not full and bound * p < limit:
            # The pivot row as it stands: an update adds it times
            # (p - f) / its entry mod p, so a slot reaches at most bound * p.
            lead = m[r]
            scale = pow((lead >> shift & mask) % p, -1, p)
            for i in range(r + 1, nrows):
                f = (m[i] >> shift & mask) % p
                if f:
                    m[i] += (p - f) * scale % p * lead
            bound *= p
            r += 1
            continue
        # Row r comes from rows r.. and so reads 0 mod p left of c: only its
        # slots from c on are read, normalised and packed back in place.
        row = _unpack(m[r] >> shift, ncols - c, slot)
        inv = pow(row[0], -1, p)
        lead = m[r] = _pack([v * inv % p for v in row], slot) << shift
        bound += (p - 1) ** 2
        for i in range(0 if full else r + 1, nrows):
            if i != r:
                f = (m[i] >> shift & mask) % p
                if f:
                    m[i] += (p - f) * lead
        r += 1
    return tuple(pivots)


def _eliminate(rows: Matrix, p: int, full: bool) -> tuple[list[int], int, tuple[int, ...]]:
    """Pack the rows and eliminate them: (packed rows, slot width, pivot columns)."""
    ncols = _width(rows)
    m, slot = pack_for_elimination(rows, p, min(len(rows), ncols))
    return m, slot, eliminate_packed(m, ncols, p, slot, full)


def rref(rows: Matrix, p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form with leftmost pivoting; returns (R, pivot columns)."""
    packed, slot, pivots = _eliminate(rows, p, full=True)
    n = len(rows[0]) if rows else 0
    return [[v % p for v in _unpack(row, n, slot)] for row in packed], pivots


def rank(rows: Matrix, p: int) -> int:
    """Number of pivots, by forward elimination only."""
    return len(_eliminate(rows, p, full=False)[2])


def invert(rows: Matrix, p: int) -> list[list[int]]:
    """Inverse of a square nonsingular matrix A, by one `rref` of [A | I].

    A is nonsingular exactly when the leftmost pivots are its n columns; the
    row operations that turn A into I then turn I into A^-1.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented, p)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_vec(rows: Matrix, vec: Sequence[int], p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def row_space_equal(a: Matrix, b: Matrix, p: int) -> bool:
    ra, rb = rank(a, p), rank(b, p)
    if ra != rb:
        return False
    return rank(list(a) + list(b), p) == ra


@dataclass(frozen=True)
class PackedRows:
    """Rows of length n over F_p packed into ints of n fixed-width slots each."""

    p: int
    n: int
    slot: int  # bytes per slot
    rows: tuple[int, ...]

    @classmethod
    def of(cls, rows: Matrix, p: int) -> PackedRows:
        """Pack a matrix, with slots wide enough for one extra packed term."""
        slot = _slot_bytes((len(rows) + 1) * (p - 1) ** 2)
        return cls(p, _width(rows), slot, tuple(_pack([v % p for v in row], slot) for row in rows))

    def pack(self, row: Sequence[int]) -> int:
        """One row of length n as a packed int, entries reduced to [0, p)."""
        if len(row) != self.n:
            raise ValueError(f"row has length {len(row)}, expected {self.n}")
        return _pack([v % self.p for v in row], self.slot)

    def combine(
        self,
        coeffs: Sequence[int],
        extras: Sequence[int],
        scales: Sequence[Sequence[int]] | None = None,
    ) -> tuple[tuple[int, ...], ...]:
        """K = len(extras) combinations, each as a tuple of n residues mod p.

        Combination k is sum(coeffs[k * dim + i] * rows[i]) + extras[k]: the
        coefficients are K * dim residues in [0, p), combination-major, and
        each extra is 0 or one packed row (from `pack`) times a residue in
        [0, p). `scales`, None or K sequences of n residues, multiplies
        column j of combination k by scales[k][j] as it is reduced. The K
        packed sums are read from one joined buffer and reduced in one pass.
        """
        p, n, slot, rows = self.p, self.n, self.slot, self.rows
        dim, k = len(rows), len(extras)
        if len(coeffs) != k * dim:
            raise ValueError(f"{len(coeffs)} coefficients for {k} combinations of {dim} rows")
        # An out-of-range coefficient would carry between slots or make a sum negative.
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= p):
            raise ValueError(f"coefficients must be residues in [0, {p})")
        if scales is not None and (len(scales) != k or any(len(s) != n for s in scales)):
            raise ValueError(f"column scales must be {k} sequences of {n} residues")
        width = n * slot
        raw = b"".join([
            sum(map(mul, coeffs[i * dim : (i + 1) * dim], rows), extra).to_bytes(width, "little")
            for i, extra in enumerate(extras)
        ])
        if scales is None:
            flat = [v % p for v in _slots(raw, slot)]
        else:
            flat = [v * s % p for v, s in zip(_slots(raw, slot), chain.from_iterable(scales))]
        return tuple(zip(*[iter(flat)] * n))
