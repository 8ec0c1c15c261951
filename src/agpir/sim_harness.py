"""In-process multi-server simulation: transcripts and distribution oracles.

The exhaustive oracles enumerate every noise codeword at tiny parameters and
compare view distributions as multisets cell by cell, independently of
`linalg` and of the subset-rank criteria. Both must agree wherever both apply.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Sequence

from . import sizes
from .agcode import bruteforce_cap, divided_rows
from .errors import BadIndex, DecodeMismatch, ShapeMismatch, TooLarge
from .pir_scheme import (
    Database,
    SchemeInstance,
    Table,
    check_database,
    decode,
    make_queries,
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
    """Store, query, collect responses, decode; asserts the round decodes correctly.

    Every transcript of `inst` shares one read-only descriptor, `inst.descriptor`.
    """
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
        scheme=inst.descriptor,
        theta=theta,
        seed=seed,
        shares=shares,
        queries=queries,
        responses=responses,
        decoded=decoded,
    )


def _restricted(rows: Sequence[Sequence[int]], servers: Sequence[int], n: int) -> list[list[int]]:
    """The rows' columns at the given servers, in server order, each one in 0..n-1."""
    cols = sorted(set(servers))
    for c in cols:
        if not 0 <= c < n:
            raise BadIndex(f"server index {c} outside 0..{n - 1}")
    return [[row[c] for c in cols] for row in rows]


def _noise_value_table(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Per column of the noise rows, its value under every codeword, in one codeword order."""
    combos = list(product(range(p), repeat=len(rows)))
    return [[sum(map(mul, combo, col)) % p for combo in combos] for col in zip(*rows)]


def check_oracle_work(inst: SchemeInstance, dim: int, num_files: int, calls: int = 1) -> None:
    """Refuse `calls` oracle calls of L * M * p^dim noise assignments each above the cap.

    dim is the masking code's dimension: `priv_dim` for privacy, `sec_dim` for security.
    """
    work = calls * inst.l * num_files * inst.p**dim
    cap = bruteforce_cap(DEFAULT_ORACLE_CAP)
    if work > cap:
        raise TooLarge(f"{work} noise assignments exceeds the enumeration cap {cap}")


def _cells_agree(codes: Sequence, bases_a: Sequence, bases_b: Sequence, p: int) -> bool:
    """Whether every cell's multiset of views is the same under both bases.

    Cell [l][m] is bases[l][m] plus one codeword of the rows codes[l], as
    `pir_scheme._masked` masks it; all are restricted to the colluders. The
    cells draw independent codewords, so the joint view is the product of the
    cells' views, and two products of distributions are equal exactly when
    each pair of factors is. So each code's codewords are enumerated once and
    compared cell by cell, within `check_oracle_work`, which the oracles call first.
    """

    def views(base: Sequence[int], table) -> Counter:
        return Counter(zip(*[[(b + v) % p for v in col] for b, col in zip(base, table)]))

    table, table_rows = None, None
    for rows, row_a, row_b in zip(codes, bases_a, bases_b, strict=True):
        if row_a != row_b:
            if rows is not table_rows:  # the privacy oracle passes one code L times
                table, table_rows = _noise_value_table(rows, p), rows
            if any(a != b and views(a, table) != views(b, table) for a, b in zip(row_a, row_b)):
                return False
    return True


def exhaustive_privacy_oracle(
    inst: SchemeInstance,
    servers: Sequence[int],
    theta_a: int,
    theta_b: int,
    num_files: int,
) -> bool:
    """Whether the colluders' query view distribution is identical for both files.

    Both indices must lie in 1..num_files (`sizes.check_theta`): outside it
    both views are pure noise and would compare equal.
    """
    sizes.check_theta(theta_a, num_files)
    sizes.check_theta(theta_b, num_files)
    check_oracle_work(inst, inst.priv_dim, num_files)
    info = _restricted(inst.info_rows, servers, inst.n)
    noise = _restricted(inst.priv_code.rows, servers, inst.n)
    a, b = (
        [[h if m == theta - 1 else [0] * len(h) for m in range(num_files)] for h in info]
        for theta in (theta_a, theta_b)
    )
    return _cells_agree([noise] * inst.l, a, b, inst.p)


def exhaustive_security_oracle(
    inst: SchemeInstance, servers: Sequence[int], db_a: Database, db_b: Database
) -> bool:
    """Whether the colluders' share view distribution is identical for both databases.

    Fragment l's noise is the shared `sec_code` on the servers, each column
    divided by `info_rows[l]` there (`agcode.divided_rows`). Both databases
    follow `store`'s rule, `pir_scheme.check_database`.
    """
    check_database(inst, db_a)
    check_database(inst, db_b)
    if len(db_a) != len(db_b):
        raise ShapeMismatch("databases must have the same number of files")
    check_oracle_work(inst, inst.sec_dim, len(db_a))
    info = _restricted(inst.info_rows, servers, inst.n)
    shared = _restricted(inst.sec_code.rows, servers, inst.n)
    a, b = (
        [[[f[ell]] * len(h) for f in db.files] for ell, h in enumerate(info)]
        for db in (db_a, db_b)
    )
    return _cells_agree([divided_rows(shared, h, inst.p) for h in info], a, b, inst.p)
