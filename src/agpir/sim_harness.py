"""In-process multi-server simulation: transcripts and distribution oracles.

The exhaustive oracles enumerate every noise draw at tiny parameters and
compare the resulting view distributions as multisets, independently of the
algebraic subset-rank criteria. Both checks must agree wherever both apply.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from . import sizes
from .agcode import bruteforce_cap
from .errors import BadIndex, DecodeMismatch, ShapeMismatch, TooLarge
from .pir_scheme import (
    Database,
    SchemeInstance,
    Table,
    decode,
    make_queries,
    scheme_descriptor,
    server_respond,
    server_view,
    store,
)

DEFAULT_ORACLE_CAP = 10**7


@dataclass
class Transcript:
    """One full retrieval round; replaying (scheme, db, theta, seed) reproduces it."""

    scheme: dict
    theta: int
    seed: int
    shares: Table
    queries: Table
    responses: tuple[int, ...]
    decoded: tuple[int, ...]

    def to_json(self) -> str:
        """Byte-stable JSON."""
        payload = {
            "scheme": self.scheme,
            "theta": self.theta,
            "seed": self.seed,
            "shares": self.shares,
            "queries": self.queries,
            "responses": self.responses,
            "decoded": self.decoded,
        }
        return json.dumps(payload)


def run_retrieval(inst: SchemeInstance, db: Database, theta: int, seed: int) -> Transcript:
    """Store, query, collect responses, decode; asserts the round decodes correctly."""
    rng = random.Random(seed)
    shares = store(inst, db, rng)
    queries = make_queries(inst, theta, len(db), rng)
    responses = tuple(
        server_respond(server_view(shares, n), server_view(queries, n), inst.p)
        for n in range(inst.n)
    )
    decoded = decode(inst, responses)
    if decoded != db.files[theta - 1]:
        raise DecodeMismatch(
            f"decoded {decoded} but file {theta} is {db.files[theta - 1]}"
        )
    return Transcript(
        scheme=scheme_descriptor(inst),
        theta=theta,
        seed=seed,
        shares=shares,
        queries=queries,
        responses=responses,
        decoded=decoded,
    )


def _validated(servers: Sequence[int], n: int) -> tuple[int, ...]:
    cols = tuple(sorted(set(servers)))
    for c in cols:
        if not 0 <= c < n:
            raise BadIndex(f"server index {c} outside 0..{n - 1}")
    return cols


def _noise_value_table(rows: Sequence[Sequence[int]], cols: Sequence[int], p: int):
    """View values of every coefficient combination of the given noise rows."""
    restricted = [[row[c] for c in cols] for row in rows]
    return [
        tuple(sum(c * col[j] for c, col in zip(combo, restricted)) % p for j in range(len(cols)))
        for combo in product(range(p), repeat=len(rows))
    ]


def _view_distribution(cells: Sequence[tuple[tuple[int, ...], list]], p: int) -> Counter:
    """Multiset of restricted views over every choice of one codeword per cell.

    Each cell is (base, table): its view is `base` plus one entry of `table`,
    a `_noise_value_table`, the mirror of the protocol's masking rule.
    """
    bases = [base for base, _ in cells]
    return Counter(
        tuple(tuple((b + v) % p for b, v in zip(base, vals)) for base, vals in zip(bases, choice))
        for choice in product(*(table for _, table in cells))
    )


def _check_cap(p: int, dim: int, cells: int) -> int:
    total = p ** (dim * cells)
    cap = bruteforce_cap(DEFAULT_ORACLE_CAP)
    if total > cap:
        raise TooLarge(f"{total} noise assignments exceeds the enumeration cap {cap}")
    return total


def exhaustive_privacy_oracle(
    inst: SchemeInstance,
    servers: Sequence[int],
    theta_a: int,
    theta_b: int,
    num_files: int,
) -> bool:
    """Whether the colluders' query view distribution is identical for both files.

    Enumerates every privacy-noise assignment for each requested index and
    compares the multisets of restricted query tables. Both indices must lie
    in 1..num_files (`sizes.check_theta`): outside it both views are pure
    noise and would compare equal.
    """
    sizes.check_theta(theta_a, num_files)
    sizes.check_theta(theta_b, num_files)
    cols = _validated(servers, inst.n)
    p = inst.p
    _check_cap(p, inst.priv_dim, inst.l * num_files)
    noise = _noise_value_table(inst.priv_code.rows, cols, p)
    info = [tuple(row[c] for c in cols) for row in inst.info_rows]
    zeros = (0,) * len(cols)

    def distribution(theta: int) -> Counter:
        cells = [(b if m == theta - 1 else zeros, noise) for b in info for m in range(num_files)]
        return _view_distribution(cells, p)

    return distribution(theta_a) == distribution(theta_b)


def exhaustive_security_oracle(
    inst: SchemeInstance, servers: Sequence[int], db_a: Database, db_b: Database
) -> bool:
    """Whether the colluders' share view distribution is identical for both databases."""
    if len(db_a) != len(db_b):
        raise ShapeMismatch("databases must have the same number of files")
    cols = _validated(servers, inst.n)
    p = inst.p
    _check_cap(p, inst.sec_dim, inst.l * len(db_a))
    noise = [_noise_value_table(code.rows, cols, p) for code in inst.sec_codes]

    def distribution(db: Database) -> Counter:
        cells = [
            ((file[ell],) * len(cols), tab) for ell, tab in enumerate(noise) for file in db.files
        ]
        return _view_distribution(cells, p)

    return distribution(db_a) == distribution(db_b)
