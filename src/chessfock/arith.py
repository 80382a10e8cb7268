"""Exact arithmetic helpers: p-adic valuations and the two counting
functions that appear in the divisibility bounds.

Only integers and ``fractions.Fraction`` values ever enter these
functions; there is no floating point anywhere in the package.
"""

from fractions import Fraction
from math import isqrt


class _Infinity:
    """The valuation of zero: an absorbing maximum under + and comparisons."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__
    __sub__ = __add__

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        # Unpickle to the module's singleton, which callers compare by identity.
        return "INFINITY"


INFINITY = _Infinity()

#: A p-adic valuation: an integer, or INFINITY for the zero element.
Valuation = int | _Infinity


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: is_prime decides exactly the integers below this bound (Sorenson and
#: Webster, 2017).
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality below psi_13 = 3,317,044,064,679,887,385,
    961,981, the least composite that passes Miller-Rabin to all 13 prime
    bases 2..41 used here; raises ValueError for p >= psi_13."""
    if p >= PSI_13:
        raise ValueError(f"primality is decided only below {PSI_13}, got {p}")
    if p < 2:
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1
    for b in _BASES:
        if p % b == 0:
            return p == b
        x = pow(b, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    return True


def vp(q: Fraction | int, p: int) -> Valuation:
    """The p-adic valuation of a rational number, an int or a Fraction.

    vp(q, p) is the exponent of p in q, negative when p divides the
    denominator, and INFINITY for q = 0.  Raises ValueError if p is not
    prime.
    """
    if not is_prime(p):
        raise ValueError(f"valuations need a prime, got p={p}")
    if q == 0:
        return INFINITY
    num = q.numerator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def tri_count(n: int) -> int:
    """The largest m with m*(m+1)/2 <= n, for n >= 1.

    This is the number of triangular numbers in 1..n, the quantity
    subtracted from n in every divisibility bound below.
    """
    if n < 1:
        raise ValueError(f"tri_count needs n >= 1, got {n}")
    return (isqrt(8 * n + 1) - 1) // 2

