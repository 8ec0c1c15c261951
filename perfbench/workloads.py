"""The benchmark's three closed-loop workloads.

Each workload is built from the workload seed alone and hands the library
only inputs it generated from that seed. It splits one operation into:

* `draw(i)`: generate the inputs of operation i (not timed);
* `run(inputs)`: the library calls a user waits for (timed);
* `check(inputs, output)`: verify the output and return the bytes whose
  hash pins the determinism contract (not timed). It raises `CheckFailed`
  when the output is wrong.

`setup()` is timed as `setup_s` and may run several times; every run of it
must produce the same state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from agpir import pir_scheme, rates, sim_harness
from agpir.field import is_prime
from agpir.pir_scheme import Database, SchemeParams


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _stream(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{purpose}")


class Serve:
    """Online read path: queries, responses and decoding against one stored database."""

    name = "serve-g0-q257"
    params = SchemeParams(p=257, genus=0, x=40, t=40, l=88)
    files = 4
    expected_n = 168

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = _stream(self.name, seed, "ops")

    def setup(self, inst=None) -> bytes:
        inst = inst if inst is not None else pir_scheme.build_scheme(self.params)
        if inst.n != self.expected_n:
            raise CheckFailed(f"N = {inst.n}, expected {self.expected_n}")
        rng = _stream(self.name, self.seed, "store")
        self.inst = inst
        self.descriptor = pir_scheme.scheme_descriptor(inst)
        self.db = Database.random(inst.p, self.files, inst.l, rng)
        self.shares = pir_scheme.store(inst, self.db, rng)
        return json.dumps([self.descriptor, self.db.files, self.shares]).encode()

    def draw(self, i: int):
        return self.ops.randint(1, self.files), self.ops.randrange(2**31)

    def run(self, inputs):
        theta, op_seed = inputs
        inst, shares = self.inst, self.shares
        queries = pir_scheme.make_queries(inst, theta, self.files, random.Random(op_seed))
        responses = tuple(
            pir_scheme.server_respond(
                pir_scheme.server_view(shares, n), pir_scheme.server_view(queries, n), inst.p
            )
            for n in range(inst.n)
        )
        return queries, responses, pir_scheme.decode(inst, responses)

    def check(self, inputs, output) -> bytes:
        theta, op_seed = inputs
        queries, responses, decoded = output
        if decoded != self.db.files[theta - 1]:
            raise CheckFailed(f"decoded {decoded} is not file {theta}")
        transcript = sim_harness.Transcript(
            self.descriptor, theta, op_seed, self.shares, queries, responses, decoded
        )
        return transcript.to_json().encode()

    def rate(self, inputs, output) -> tuple[int, int]:
        return self.params.l, self.expected_n


class Ingest:
    """Write path beside the read path: a fresh database stored and read per operation."""

    name = "ingest-g1-q127"
    params = SchemeParams(p=127, genus=1, x=30, t=30, l=33, curve=(1, 33))
    files = 16
    expected_n = 101

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = _stream(self.name, seed, "ops")

    def setup(self, inst=None) -> bytes:
        inst = inst if inst is not None else pir_scheme.build_scheme(self.params)
        if inst.n != self.expected_n:
            raise CheckFailed(f"N = {inst.n}, expected {self.expected_n}")
        self.inst = inst
        return json.dumps(pir_scheme.scheme_descriptor(inst)).encode()

    def draw(self, i: int):
        db = Database.random(self.params.p, self.files, self.params.l, self.ops)
        return db, self.ops.randint(1, self.files), self.ops.randrange(2**31)

    def run(self, inputs):
        db, theta, op_seed = inputs
        return sim_harness.run_retrieval(self.inst, db, theta, op_seed)

    def check(self, inputs, transcript) -> bytes:
        db, theta, op_seed = inputs
        if transcript.decoded != db.files[theta - 1]:
            raise CheckFailed(f"decoded {transcript.decoded} is not file {theta}")
        if len(transcript.responses) != self.inst.n:
            raise CheckFailed(f"{len(transcript.responses)} responses for N = {self.inst.n}")
        return transcript.to_json().encode()

    def rate(self, inputs, output) -> tuple[int, int]:
        return self.params.l, self.expected_n


@dataclass(frozen=True)
class AuditDraw:
    q: int
    genus: int
    x: int
    t: int
    sample_seed: int


class Audit:
    """Offline path: pick the best L, build, verify on sampled subsets, check containment.

    Draws are stratified, because operation cost depends mostly on q, the
    genus and X, and a run holds only a few dozen operations:

    * each block of `block_ops` operations visits every prime once in a
      seeded order, genus 0 and 1 alternating along the sorted primes from a
      seeded phase; the next block takes the other genus, so two blocks cover
      every (q, genus) pair;
    * X and T each fall in a low, middle or high third of [4, 12]; each prime
      cycles through the thirds in its own seeded order, so three blocks give
      every prime one low, one middle and one high X (and T); the value
      within a third is drawn per operation.

    No (q, genus, X, T) repeats within a run (a repeat is redrawn from the
    whole range), so a cache keyed on the scheme parameters cannot stand in
    for the work.
    """

    name = "audit-mixed"
    primes = tuple(q for q in range(29, 80) if is_prime(q))
    levels = range(4, 13)
    sample_count = 100
    block_ops = len(primes)
    # Warm-up audit in set-up, outside the drawn range of q.
    warmup = ((23, 0, 4, 4), (23, 1, 2, 2))

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = _stream(self.name, seed, "ops")
        self.block: list[tuple[int, int]] = []
        self.blocks = self.ops.randint(0, 1)  # seeded phase of the genus alternation
        self.thirds = {q: [self.ops.sample(range(3), 3) for _ in "xt"] for q in self.primes}
        self.visits = dict.fromkeys(self.primes, 0)
        self.used: set[tuple[int, int, int, int]] = set()

    def setup(self, inst=None) -> bytes:
        reports = []
        for q, genus, x, t in self.warmup:
            draw = AuditDraw(q, genus, x, t, 0)
            reports.append(self.check(draw, self.run(draw)))
        return b"".join(reports)

    def draw(self, i: int) -> AuditDraw:
        if not self.block:
            self.blocks += 1
            self.block = [(q, (k + self.blocks) % 2) for k, q in enumerate(self.primes)]
            self.ops.shuffle(self.block)
        q, genus = self.block.pop()
        visit = self.visits[q]
        self.visits[q] += 1
        x, t = (self.levels[3 * order[visit % 3] + self.ops.randrange(3)]
                for order in self.thirds[q])
        while (q, genus, x, t) in self.used:
            x, t = self.ops.choice(self.levels), self.ops.choice(self.levels)
        self.used.add((q, genus, x, t))
        return AuditDraw(q, genus, x, t, self.ops.randrange(2**31))

    def run(self, d: AuditDraw):
        best = rates.max_rate_g0 if d.genus == 0 else rates.max_rate_g1
        row = best(d.q, d.x, d.t)
        inst = pir_scheme.build_scheme(SchemeParams(d.q, d.genus, d.x, d.t, row.l))
        report = pir_scheme.verify_scheme(
            inst, subsets="sample", sample_count=self.sample_count, sample_seed=d.sample_seed
        )
        return row, inst, report, pir_scheme.check_noise_containment(inst)

    def check(self, d: AuditDraw, output) -> bytes:
        row, inst, report, contained = output
        if (inst.l, inst.n) != (row.l, row.n):
            raise CheckFailed(f"built L={inst.l} N={inst.n}, rate table says {row.l}/{row.n}")
        if not report.passed:
            raise CheckFailed("verify_scheme failed:\n" + "\n".join(report.lines()))
        outside = [label for label, ok in contained if not ok]
        if outside:
            raise CheckFailed(f"noise products outside the bound: {outside[:3]}")
        return json.dumps(
            [pir_scheme.scheme_descriptor(inst), report.lines(), contained]
        ).encode()

    def rate(self, d: AuditDraw, output) -> tuple[int, int]:
        return output[1].l, output[1].n


WORKLOADS = {w.name: w for w in (Serve, Ingest, Audit)}


def rate_of(pairs: list[tuple[int, int]]) -> Fraction:
    """Sum of L over sum of N."""
    return Fraction(sum(l for l, _ in pairs), sum(n for _, n in pairs))
