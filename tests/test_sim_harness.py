import dataclasses
import hashlib
import json
import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir import pir_scheme
from agpir.errors import BadIndex, BadTheta, ShapeMismatch, TooLarge
from agpir.pir_scheme import (
    Database,
    SchemeParams,
    build_scheme,
    scheme_descriptor,
    scheme_from_descriptor,
)
from agpir.sim_harness import (
    exhaustive_privacy_oracle,
    exhaustive_security_oracle,
    run_retrieval,
)
from conftest import joint_oracle_reference

G0_Q5 = SchemeParams(p=5, genus=0, x=1, t=1, l=1)
G1_Q13 = SchemeParams(p=13, genus=1, x=1, t=1, l=1)


@pytest.fixture(scope="module")
def g0_q5():
    return build_scheme(G0_Q5)


@pytest.fixture(scope="module")
def g0_q7():
    return build_scheme(SchemeParams(p=7, genus=0, x=1, t=1, l=1))


@pytest.fixture(scope="module")
def g1_q13():
    return build_scheme(G1_Q13)


def test_run_retrieval_tiny(g0_q7):
    assert g0_q7.n == 3
    db = Database(7, ((3,), (5,)))
    for theta in (1, 2):
        transcript = run_retrieval(g0_q7, db, theta, seed=11)
        assert transcript.decoded == db.files[theta - 1]


def test_run_retrieval_q43_instance():
    inst = build_scheme(SchemeParams(p=43, genus=1, x=16, t=16, l=7, curve=(0, 9)))
    db = Database.random(43, 2, 7, random.Random(1))
    transcript = run_retrieval(inst, db, 2, seed=5)
    assert transcript.decoded == db.files[1]
    assert len(transcript.decoded) == 7


def test_transcript_replay_is_byte_identical(g0_q7):
    db = Database(7, ((1,), (2,)))
    a = run_retrieval(g0_q7, db, 1, seed=3)
    b = run_retrieval(g0_q7, db, 1, seed=3)
    assert a.to_json() == b.to_json()
    c = run_retrieval(g0_q7, db, 1, seed=4)
    assert a.to_json() != c.to_json()


def test_transcripts_of_one_instance_share_one_descriptor(g0_q7):
    # The descriptor is built once per instance; `scheme_descriptor` still
    # returns a new dict that its caller may edit.
    db = Database(7, ((1,), (2,)))
    a, b = run_retrieval(g0_q7, db, 1, seed=3), run_retrieval(g0_q7, db, 2, seed=4)
    assert a.scheme is b.scheme is g0_q7.descriptor
    fresh = scheme_descriptor(g0_q7)
    assert fresh == a.scheme and fresh is not a.scheme
    assert dataclasses.replace(a, scheme=fresh).to_json() == a.to_json()
    # sha256 of the two transcripts, recorded when each call built its own descriptor.
    assert [hashlib.sha256(t.to_json().encode()).hexdigest() for t in (a, b)] == [
        "012b05d73714eef24a935447584896ed1c9b515ba6afca99d6a369d025250b99",
        "0f3e11587ed447432a545aa379172b1b2b9aa42c77b0cb928744eb054368d574",
    ]


def test_a_loaded_descriptor_is_built_once(g0_q7, monkeypatch):
    # Loading compares the rebuild's cached descriptor, which the
    # transcripts then share: one `scheme_descriptor` call in all.
    blob = json.loads(json.dumps(scheme_descriptor(g0_q7)))
    calls = []
    monkeypatch.setattr(
        pir_scheme, "scheme_descriptor", lambda inst: calls.append(inst) or scheme_descriptor(inst)
    )
    inst = scheme_from_descriptor(blob)
    transcript = run_retrieval(inst, Database(7, ((1,), (2,))), 1, seed=3)
    assert calls == [inst] and transcript.scheme is inst.descriptor == blob


def test_fuzz_thousand_rounds_never_mismatch(g0_q7):
    for seed in range(1000):
        rng = random.Random(seed)
        db = Database.random(7, 2, 1, rng)
        run_retrieval(g0_q7, db, 1 + seed % 2, seed)


def test_privacy_oracle_single_servers_true(g0_q5):
    for n in range(g0_q5.n):
        assert exhaustive_privacy_oracle(g0_q5, [n], 1, 2, num_files=2)


def test_privacy_oracle_negative_control(g0_q5):
    # T + 1 = 2 colluding servers break a T = 1 dimensional privacy code
    for pair in combinations(range(g0_q5.n), 2):
        assert not exhaustive_privacy_oracle(g0_q5, pair, 1, 2, num_files=2)


def test_privacy_oracle_relabeling_invariance(g0_q5):
    assert exhaustive_privacy_oracle(g0_q5, [2, 0, 2], 1, 2, 2) == exhaustive_privacy_oracle(
        g0_q5, [0, 2], 1, 2, 2
    )


def test_privacy_oracle_genus1(g1_q13):
    assert exhaustive_privacy_oracle(g1_q13, [0], 1, 2, num_files=2)
    assert exhaustive_privacy_oracle(g1_q13, [g1_q13.n - 1], 1, 2, num_files=2)


def test_security_oracle(g0_q5):
    db_a = Database(5, ((1,), (2,)))
    db_b = Database(5, ((3,), (0,)))
    for n in range(g0_q5.n):
        assert exhaustive_security_oracle(g0_q5, [n], db_a, db_b)
    assert exhaustive_security_oracle(g0_q5, [0], db_a, db_a)
    # all servers together can decode, so the distributions must differ
    assert not exhaustive_security_oracle(g0_q5, range(g0_q5.n), db_a, db_b)


def test_security_oracle_genus1(g1_q13):
    db_a = Database(13, ((7,),))
    db_b = Database(13, ((11,),))
    assert exhaustive_security_oracle(g1_q13, [3], db_a, db_b)


def test_security_oracle_shape_check(g0_q5):
    with pytest.raises(ShapeMismatch):
        exhaustive_security_oracle(g0_q5, [0], Database(5, ((1,),)), Database(5, ((1,), (2,))))


@pytest.mark.parametrize(
    "db_a, db_b, message",
    [
        # One-fragment files on an L = 3 instance.
        (Database(13, ((1,), (2,))), Database(13, ((3,), (4,))), "exactly L = 3 fragments"),
        # A database over another field, with L fragments per file.
        (Database(7, ((2, 3, 4),)), Database(13, ((1, 2, 3),)), "over F_7, scheme over F_13"),
    ],
)
def test_security_oracle_refuses_a_database_that_store_refuses(db_a, db_b, message):
    inst = build_scheme(SchemeParams(p=13, genus=0, x=2, t=2, l=3))
    with pytest.raises(ShapeMismatch, match=message):
        exhaustive_security_oracle(inst, (0, 1), db_a, db_b)
    with pytest.raises(ShapeMismatch, match=message):
        exhaustive_security_oracle(inst, (0, 1), db_b, db_a)


def test_oracles_reject_a_server_index_out_of_range(g0_q5):
    db = Database(5, ((1,), (2,)))
    with pytest.raises(BadIndex, match=f"server index {g0_q5.n} outside"):
        exhaustive_privacy_oracle(g0_q5, [0, g0_q5.n], 1, 2, num_files=2)
    with pytest.raises(BadIndex, match=f"server index {g0_q5.n} outside"):
        exhaustive_security_oracle(g0_q5, [g0_q5.n], db, db)


@pytest.mark.parametrize("theta_a, theta_b", [(0, 7), (1, 3), (0, 1), (2, -1)])
def test_privacy_oracle_refuses_a_file_index_outside_the_files(theta_a, theta_b):
    # Outside 1..M both query views are pure noise, so they would compare equal.
    inst = build_scheme(SchemeParams(p=13, genus=0, x=1, t=1, l=1))
    with pytest.raises(BadTheta, match="theta must be in 1..2"):
        exhaustive_privacy_oracle(inst, (0,), theta_a, theta_b, num_files=2)


def test_oracle_cap(g0_q5, monkeypatch):
    # The call enumerates 5 privacy codewords for each of its 2 cells: 10 > 9.
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "9")
    with pytest.raises(TooLarge):
        exhaustive_privacy_oracle(g0_q5, [0], 1, 2, num_files=2)


def test_full_scale_oracle_refused():
    inst = build_scheme(SchemeParams(p=43, genus=0, x=16, t=16, l=5))
    with pytest.raises(TooLarge):
        exhaustive_privacy_oracle(inst, [0], 1, 2, num_files=2)


def joint_privacy(inst, servers, theta_a, theta_b, num_files):
    """The joint reference on the privacy oracle's cells, read from `priv_code`."""
    cols = sorted(set(servers))
    rows = [[row[c] for c in cols] for row in inst.priv_code.rows]
    info = [tuple(row[c] for c in cols) for row in inst.info_rows]
    zeros = (0,) * len(cols)
    a, b = (
        [[i if m == theta - 1 else zeros for m in range(num_files)] for i in info]
        for theta in (theta_a, theta_b)
    )
    return joint_oracle_reference([rows] * inst.l, a, b, inst.p)


def joint_security(inst, servers, db_a, db_b):
    """The joint reference on the security oracle's cells, read from the L `sec_codes`."""
    cols = sorted(set(servers))
    codes = [[[row[c] for c in cols] for row in code.rows] for code in inst.sec_codes]
    a, b = (
        [[(f[ell],) * len(cols) for f in db.files] for ell in range(inst.l)]
        for db in (db_a, db_b)
    )
    return joint_oracle_reference(codes, a, b, inst.p)


@pytest.mark.parametrize(
    "params, files_a, files_b, privacy_sizes",
    [
        # Criterion 6's calls; at genus 0 T + 1 colluders are its negative control.
        (G0_Q5, ((1,), (2,)), ((4,), (0,)), (1, 2)),
        (G1_Q13, ((7,), (0,)), ((1,), (5,)), (1,)),
    ],
)
def test_per_cell_oracles_match_the_joint_reference_on_criterion_6(
    params, files_a, files_b, privacy_sizes
):
    inst = build_scheme(params)
    db_a, db_b = Database(inst.p, files_a), Database(inst.p, files_b)
    verdicts = set()
    for size in privacy_sizes:
        for servers in combinations(range(inst.n), size):
            verdict = exhaustive_privacy_oracle(inst, servers, 1, 2, num_files=2)
            assert verdict == joint_privacy(inst, servers, 1, 2, 2)
            verdicts.add((size, verdict))
    assert verdicts == {(size, size == inst.t) for size in privacy_sizes}
    for servers in combinations(range(inst.n), inst.x):
        assert exhaustive_security_oracle(inst, servers, db_a, db_b)
        assert joint_security(inst, servers, db_a, db_b)


@cache
def _built(params):
    return build_scheme(params)


# Largest joint enumeration p^(dim*L*M) per distribution that a drawn case may need.
JOINT_CAP = 30_000


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from([G0_Q5, G1_Q13]), data=st.data())
def test_per_cell_oracles_match_the_joint_reference(params, data):
    inst = _built(params)
    p, dim = inst.p, max(inst.priv_dim, inst.sec_dim)
    most = max(m for m in range(1, 10) if p ** (dim * inst.l * m) <= JOINT_CAP)
    m = data.draw(st.integers(1, most), label="files")
    servers = data.draw(st.permutations(range(inst.n)))[: data.draw(st.integers(0, inst.n))]
    theta_a, theta_b = data.draw(st.integers(1, m)), data.draw(st.integers(1, m))
    files = st.tuples(*[st.tuples(*[st.integers(0, p - 1)] * inst.l)] * m)
    db_a, db_b = Database(p, data.draw(files)), Database(p, data.draw(files))
    assert exhaustive_privacy_oracle(inst, servers, theta_a, theta_b, m) == joint_privacy(
        inst, servers, theta_a, theta_b, m
    )
    assert exhaustive_security_oracle(inst, servers, db_a, db_b) == joint_security(
        inst, servers, db_a, db_b
    )
