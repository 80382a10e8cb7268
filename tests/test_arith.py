import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chessfock.arith import INFINITY, is_prime, tri_count, vp


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(Fraction(3, 8), 2) == -3
    assert vp(0, 2) is INFINITY
    assert vp(Fraction(9, 5), 3) == 2
    assert vp(7, 5) == 0


@pytest.mark.parametrize("bad", [1, 0, -2, 4, 9, 15])
def test_vp_rejects_nonprime(bad):
    with pytest.raises(ValueError):
        vp(6, bad)


def test_infinity_is_absorbing():
    assert INFINITY + 5 is INFINITY
    assert 5 + INFINITY is INFINITY
    assert INFINITY - 3 is INFINITY
    assert 5 < INFINITY
    assert not (INFINITY < 5)
    assert INFINITY >= 10 ** 9
    assert min(3, INFINITY) == 3
    assert min(INFINITY, 3) == 3
    assert INFINITY == INFINITY
    assert INFINITY != 5


def test_infinity_is_at_most_only_itself():
    assert not (INFINITY <= 5)
    assert INFINITY <= INFINITY


def test_infinity_survives_pickling_and_copying():
    # valuations are compared with `is INFINITY`, so a copy must be the singleton
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INFINITY, protocol)) is INFINITY
    assert copy.copy(INFINITY) is INFINITY
    assert copy.deepcopy([INFINITY])[0] is INFINITY


def test_tri_count_examples():
    assert tri_count(1) == 1
    assert tri_count(10) == 4
    assert tri_count(11) == 4
    with pytest.raises(ValueError):
        tri_count(0)


def test_tri_count_staircase():
    # nondecreasing, and exact on the triangular numbers themselves
    prev = 0
    for n in range(1, 5051):
        cur = tri_count(n)
        assert cur >= prev
        prev = cur
    for m in range(1, 101):
        assert tri_count(m * (m + 1) // 2) == m
        if m > 1:
            assert tri_count(m * (m + 1) // 2 - 1) == m - 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_trial_division_below_10_5():
    sieve = [False, False] + [True] * (10**5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [is_prime(n) for n in range(10**5)] == sieve


def test_is_prime_large():
    # strong pseudoprimes to the first 4, 11 and 12 prime bases; 101 | 10^18 + 1
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              10**18 + 1):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # psi_13 passes all 13 bases, so the test stops below it
    with pytest.raises(ValueError, match="only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(rationals, rationals, st.sampled_from([2, 3, 5]))
def test_vp_axioms(q, r, p):
    if q and r:
        assert vp(q * r, p) == vp(q, p) + vp(r, p)
    assert vp(q + r, p) >= min(vp(q, p), vp(r, p))
