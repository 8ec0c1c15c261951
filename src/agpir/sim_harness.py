"""In-process multi-server simulation: transcripts, collusion views, oracles.

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


@dataclass(frozen=True)
class CollusionView:
    """The share/query columns a set of colluding servers observes."""

    servers: tuple[int, ...]
    shares: tuple
    queries: tuple


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


def collusion_view(transcript: Transcript, servers: Sequence[int]) -> CollusionView:
    n = len(transcript.responses)
    cols = _validated(servers, n)
    restrict = lambda table: tuple(
        tuple(tuple(per_file[c] for c in cols) for per_file in row) for row in table
    )
    return CollusionView(
        servers=cols, shares=restrict(transcript.shares), queries=restrict(transcript.queries)
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
    compares the multisets of restricted query tables.
    """
    cols = _validated(servers, inst.n)
    p, big_l = inst.p, inst.l
    _check_cap(p, inst.priv_dim, big_l * num_files)
    noise = _noise_value_table(inst.priv_code.rows, cols, p)

    def distribution(theta: int) -> Counter:
        bases = []
        for ell in range(big_l):
            info = tuple(inst.info_rows[ell][c] for c in cols)
            for m in range(num_files):
                bases.append(info if m == theta - 1 else (0,) * len(cols))
        counter: Counter = Counter()
        for choice in product(range(len(noise)), repeat=len(bases)):
            key = tuple(
                tuple((b + v) % p for b, v in zip(base, noise[idx]))
                for base, idx in zip(bases, choice)
            )
            counter[key] += 1
        return counter

    return distribution(theta_a) == distribution(theta_b)


def exhaustive_security_oracle(
    inst: SchemeInstance, servers: Sequence[int], db_a: Database, db_b: Database
) -> bool:
    """Whether the colluders' share view distribution is identical for both databases."""
    if len(db_a) != len(db_b):
        raise ShapeMismatch("databases must have the same number of files")
    cols = _validated(servers, inst.n)
    p, big_l = inst.p, inst.l
    _check_cap(p, inst.sec_dim, big_l * len(db_a))
    noise_per_fragment = [
        _noise_value_table(inst.sec_codes[ell].rows, cols, p) for ell in range(big_l)
    ]

    def distribution(db: Database) -> Counter:
        cells = [(ell, m) for ell in range(big_l) for m in range(len(db))]
        tables = [noise_per_fragment[ell] for ell, _ in cells]
        values = [db.files[m][ell] for ell, m in cells]
        counter: Counter = Counter()
        for choice in product(range(len(tables[0])), repeat=len(cells)):
            key = tuple(
                tuple((value + v) % p for v in table[idx])
                for value, table, idx in zip(values, tables, choice)
            )
            counter[key] += 1
        return counter

    return distribution(db_a) == distribution(db_b)
