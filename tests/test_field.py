import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agpir.errors import CharTooSmall, NotPrime
from agpir.field import PrimeField, is_prime

PRIMES = [5, 7, 11, 13, 43, 127]


def test_field_new_accepts_43():
    assert PrimeField(43).p == 43


@pytest.mark.parametrize("bad", [4, 6, 9, 100, 1, 0, -7])
def test_field_new_rejects_composites(bad):
    with pytest.raises(NotPrime):
        PrimeField(bad)


@pytest.mark.parametrize("bad", [2, 3])
def test_field_new_rejects_small_characteristic(bad):
    with pytest.raises(CharTooSmall):
        PrimeField(bad)


def test_is_prime_small_values():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_arith_examples(f43):
    assert f43.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f43.inv(0)


@settings(max_examples=200)
@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=10**6))
def test_inverse_property(p, raw):
    field = PrimeField(p)
    a = raw % p
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            field.inv(a)
    else:
        assert a * field.inv(a) % p == 1


def test_sqrt_examples(f43):
    assert f43.sqrt(4) == (2, 41)
    assert f43.sqrt(0) == (0,)
    # exhaustive-squaring oracle over F_5: squares are {0, 1, 4}
    f5 = PrimeField(5)
    assert {x * x % 5 for x in range(5)} == {0, 1, 4}
    assert f5.sqrt(2) == ()
    assert f5.sqrt(3) == ()


# p = 1 mod 8 takes the Tonelli-Shanks loop with s >= 3: s = 4, 3, 8 here.
EXHAUSTIVE_SQRT_PRIMES = PRIMES + [17, 41, 257]
# s = 16, 23 and 1 (2^61 - 1 = 7 mod 8).
LARGE_PRIMES = [65_537, 998_244_353, 2**61 - 1]


@settings(max_examples=300)
@given(
    st.sampled_from(EXHAUSTIVE_SQRT_PRIMES + LARGE_PRIMES),
    st.integers(min_value=0, max_value=2**64),
)
def test_sqrt_iff_euler_criterion(p, raw):
    field = PrimeField(p)
    a = raw % p
    roots = field.sqrt(a)
    euler = pow(a, (p - 1) // 2, p)
    assert bool(roots) == (euler in (0, 1))
    assert list(roots) == sorted(roots)
    for r in roots:
        assert r * r % p == a


@pytest.mark.parametrize("p", EXHAUSTIVE_SQRT_PRIMES)
def test_sqrt_matches_brute_force_squaring(p):
    field = PrimeField(p)
    roots = {a: [] for a in range(p)}
    for v in range(p):  # ascending, so each list comes out sorted
        roots[v * v % p].append(v)
    assert all(field.sqrt(a) == tuple(roots[a]) for a in range(p))
