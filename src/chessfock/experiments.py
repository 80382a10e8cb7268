"""Headline tables and exhaustive scans.

Everything here is about concrete integers: the alternating-word table
and its factorizations, the factorial sanity column, the observational
scans at other moduli (``_row`` claims a bound only at e = p = 2), and
the seeded randomized property checks.  The two word suites, the
Gram-matrix bound check and the cross-model comparison
(``bound_reports``, ``cross_model_reports``), are each one
``tableaux.check_levels`` walk over the distinct binary word images with
its per-length check (``exhaustive_bound_check``, ``cross_model_check``).
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import factorial, gcd, isqrt, prod
from typing import Iterable, Iterator, NamedTuple

from .arith import INFINITY, PSI_13, is_prime, tri_count, vp
from .delta import ValuationReport
from .fock import (apply_e, apply_f, basis, cyclic_sums, gram_rows, half_step,
                   half_weight, inner, pair_sum, random_vector, read_slots)
from .partitions import enumerate_partitions
from .polyrep import (GENERATORS, IMAGE_ONE, MAX_DEGREE, Column,
                      adjoint_monomial, apply_letter, inner_poly, mul_monomial,
                      op_a, op_generator, op_series, poly_add, random_poly,
                      top_degree, z_key)
from .tableaux import ResidueWord, check_levels, hook_count

#: Trial division gives up above this bound and leaves a flagged cofactor.
#: It is even, so FACTOR_LIMIT + 1 is the first odd divisor past it.
FACTOR_LIMIT = 1_000_000

#: Odd primes per block in _prime_blocks, and the last prime of the first
#: block (the 64th odd prime), the last divisor factorize tries one by one.
_BLOCK = 64
_FIRST_BLOCK_END = 313

#: Steps _rho takes on one composite before it gives up (less time than
#: one _prime_blocks build).
_RHO_STEPS = 1 << 13


def _odd_primes(limit: int) -> Iterator[int]:
    """The odd primes <= limit in increasing order.

    One odd-only bytearray sieve, one byte per odd number (about 500 KB at
    FACTOR_LIMIT), whose primes are read in C with ``compress``, with no
    Python frame per prime.  That is enough: only a ``factorize`` fallback
    asks for the primes to FACTOR_LIMIT, once per process, and
    ``general_e_scan`` has dropped its Fock vector by then.
    """
    odds = range(3, limit + 1, 2)    # odds[i] == 2 * i + 3
    flags = bytearray(b"\x01") * len(odds)
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p // 2 - 1]:
            at = p * p // 2 - 1
            flags[at::p] = bytes(len(range(at, len(flags), p)))
    return compress(odds, flags)


@lru_cache(maxsize=1)
def _prime_blocks() -> tuple[tuple[int, int, int], ...]:
    """(first prime, last prime, product) for each run of _BLOCK
    consecutive odd primes <= FACTOR_LIMIT, in increasing order; the last
    run holds the primes that are left and may be shorter."""
    primes = _odd_primes(FACTOR_LIMIT)
    blocks = []
    while block := tuple(islice(primes, _BLOCK)):
        blocks.append((block[0], block[-1], prod(block)))
    return tuple(blocks)


def _divide(rest: int, factors: list, divisors: Iterable[int]) -> int:
    """Divide rest by each d of divisors, in order, while d * d <= rest,
    appending (d, exponent) to factors; returns what is left of rest."""
    for d in divisors:
        if d * d > rest:
            break
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
    return rest


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard's rho (BIT 15,
    1975) with Floyd's cycle finding: x takes one step of y -> y * y + c
    and y two, from 2, with one gcd of x - y and n per step, for c = 1, 2,
    3 in turn (a gcd of n drops c); None once _RHO_STEPS steps are spent."""
    budget = _RHO_STEPS
    for c in (1, 2, 3):
        x = y = 2
        g = 1
        while g == 1:
            if not budget:
                return None
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g
    return None


def _split(n: int, primes: list) -> bool:
    """Append the prime factors of 1 <= n < psi_13, odd or 2, to primes;
    False, with some perhaps appended, if ``_rho`` gives up on a piece."""
    if n == 1 or is_prime(n):
        primes += [n] * (n > 1)
        return True
    d = _rho(n)
    return d is not None and _split(d, primes) and _split(n // d, primes)


def factorize(value: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The trial division of value >= 1 by 2 and every odd d <= FACTOR_LIMIT
    with d * d <= the remainder: returns (factors, cofactor).

    cofactor == 1 means the factorization is complete; otherwise it is the
    unfactored remainder (all of whose prime factors exceed FACTOR_LIMIT).
    After one pass over 2 and the odd divisors to _FIRST_BLOCK_END,
    ``_split`` breaks the remainder into primes, by Pollard's rho with
    Floyd's cycle finding (``_rho``), and those <= FACTOR_LIMIT are divided
    out.  A remainder >= psi_13, or one ``_rho`` gives up on, is instead
    divided by each of the ``_prime_blocks`` that one gcd shows shares a
    factor with it.  Either way the remainder R is prime exactly when
    1 < R < (FACTOR_LIMIT + 1) ** 2, the least product of two primes past
    the limit.
    """
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    factors = []
    rest = _divide(value, factors, (2, *range(3, _FIRST_BLOCK_END + 1, 2)))
    primes = []
    if rest < PSI_13 and _split(rest, primes):
        for p in sorted(set(primes)):
            if p <= FACTOR_LIMIT:
                factors.append((p, primes.count(p)))
                rest //= p ** primes.count(p)
    else:
        for lo, hi, product in _prime_blocks():
            if lo * lo > rest:
                break
            if gcd(rest, product) != 1:
                rest = _divide(rest, factors, range(lo, hi + 1, 2))
    if 1 < rest < (FACTOR_LIMIT + 1) ** 2:
        factors.append((rest, 1))
        rest = 1
    return tuple(factors), rest


class FactorizationRow(NamedTuple):
    """One line of a value table: the pair sum at size n, its valuation at
    the scan prime, the proved bound (None for observational rows), and a
    trial factorization."""

    n: int
    value: int
    v2: int
    bound: int | None
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def verdict(self) -> str:
        if self.bound is None:
            return "OBS"
        return "PASS" if self.v2 >= self.bound else "FAIL"

    def factorization(self) -> str:
        pieces = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1:
            pieces.append(f"[{self.cofactor}]")
        return "*".join(pieces) if pieces else "1"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "v2": self.v2,
            "bound": self.bound,
            "factorization": self.factorization(),
            "factors": [list(f) for f in self.factors],
            "cofactor": self.cofactor,
            "verdict": self.verdict,
        }


CSV_HEADER = "n,value,v2,bound,factorization,verdict"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        bound = "" if row.bound is None else str(row.bound)
        lines.append(f"{row.n},{row.value},{row.v2},{bound},"
                     f"{row.factorization()},{row.verdict}")
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows) -> str:
    return "".join(json.dumps(row.to_json(), sort_keys=True) + "\n" for row in rows)


def _row(n: int, value: int, e: int, p: int) -> FactorizationRow:
    """The table row of a pair sum at size n, modulus e and prime p; the
    bound n - tri_count(n) is claimed only at e = p = 2."""
    if value == 0:
        raise ValueError("the pair sum is 0; nothing to factor")
    bound = n - tri_count(n) if (e == 2 and p == 2) else None
    factors, cofactor = factorize(value)
    return FactorizationRow(n=n, value=value, v2=vp(value, p), bound=bound,
                            factors=factors, cofactor=cofactor)


def chess_table(n_max: int) -> list[FactorizationRow]:
    """Rows n = 1..n_max of the alternating-word table: the sum of squared
    chess-tableau counts, its 2-adic valuation, and the bound n - tri_count(n).

    This is the e = 2, p = 2 case of ``general_e_scan``.
    """
    return general_e_scan(n_max, 2, 2)


def _word_text(letters) -> str:
    return ",".join(str(a) for a in letters)


def _pair_text(v, w) -> str:
    return f"v={_word_text(v)} w={_word_text(w)}"


def bound_reports(n_max: int) -> Iterator[ValuationReport]:
    """Yield ``exhaustive_bound_check(n, level)`` for n = 1..n_max from one
    ``check_levels`` pass over the distinct Fock images of the words as
    half vectors (see ``fock``), stepped one by one by ``half_step``."""
    return check_levels(n_max, lambda xs, i: [half_step(x, i) for x in xs],
                        basis(()), exhaustive_bound_check)


def exhaustive_bound_check(n: int, level: list) -> ValuationReport:
    """Pair the nonzero length-n word images and check that each nonzero
    pairing is divisible by 2^(n - tri_count(n)), with the exponent
    attained by some pair.

    ``level`` is the length-n level of ``check_levels`` over the half
    vectors of the Fock images, as (least word, image, words) triples;
    equal images give equal pairings, so each distinct image is paired
    once, under its least word.  An image's partitions, and their
    conjugates, have as many residue-1 cells as its word has 1s, so images
    of different letter content pair to 0: only equal contents are paired,
    one ``fock.gram_rows`` matrix each, weighted by ``fock.half_weight``.
    A row is tested whole, ``ones`` holding bit 0 of each slot: a pairing
    below the bound sets a bit of ``low``, the low ``required`` bits of
    each slot (only such a row is read slot by slot); one attaining it
    sets bit ``required``; a nonzero one carries into its slot's top bit
    when ``below`` is added to the bits under the top (|pairing| <
    2^(bits - 2), so a negative slot has such bits set).  The witnesses
    are those of a row-major walk over the whole level: every failing
    pair, then the first pair attaining the bound.
    """
    required = n - tri_count(n)
    groups: dict[int, list[int]] = {}
    for a, (word, _, _) in enumerate(level):
        groups.setdefault(sum(word), []).append(a)
    observed = INFINITY
    failures = []
    attained = None
    pairings = 0
    for group in groups.values():
        bits, rows = gram_rows([level[a][1] for a in group], half_weight)
        ones = ((1 << bits * len(group)) - 1) // ((1 << bits) - 1)
        below = (ones << bits - 1) - ones     # all bits under each slot's top
        low = ones * ((1 << min(required, bits)) - 1)
        for i, (a, row) in enumerate(zip(group, rows)):
            if row & low:           # read the row to name what fails
                for b, s in zip(group[i:],
                                read_slots(row, len(group) - i, bits)):
                    if s:
                        pairings += 1
                        val = (s & -s).bit_length() - 1
                        observed = min(observed, val)
                        if val < required:
                            failures.append((a, b, val))
                        elif val == required:
                            attained = min(attained or (a, b), (a, b))
            elif row:
                pairings += ((row & below) + below & ~below).bit_count()
                val = required
                while val < observed and not row & ones << val:
                    val += 1
                observed = min(observed, val)
                if hit := row & ones << required:
                    b = group[i + ((hit & -hit).bit_length() - 1) // bits]
                    attained = min(attained or (a, b), (a, b))
    pairs = sorted(failures) + ([(*attained, required)] if attained else [])
    witnesses = tuple((_pair_text(level[a][0], level[b][0]), val)
                      for a, b, val in pairs)
    return ValuationReport(
        claim=f"bound[n={n}]",
        degree_bound=n,
        required=required,
        observed_min=observed,
        require_tight=True,
        witnesses=witnesses + (("distinct nonzero images", len(level)),
                               ("nonzero pairings", pairings)),
    )


def factorial_check(n: int) -> bool:
    """True iff the squared tableau counts over all shapes of n sum to n!,
    the 2-adic valuation of n! is n - n.bit_count(), and the modulus-1 word
    (every cell has residue 0) reproduces the same sum."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = sum(hook_count(lam) ** 2 for lam in enumerate_partitions(n))
    value = factorial(n)
    if total != value:
        return False
    if n >= 1 and vp(value, 2) != n - n.bit_count():
        return False
    word = ResidueWord(1, (0,) * n)
    return pair_sum(word, word) == value


def general_e_scan(n_max: int, e: int, p: int) -> list[FactorizationRow]:
    """The cyclic-word table at an arbitrary modulus e and prime p.

    For e = 2, p = 2 this reproduces chess_table (bounds and all); for any
    other modulus the rows are purely observational -- the bound column is
    empty and the verdict is OBS, because no divisibility is claimed there.
    All the sums are computed before any is factored, so the prime blocks
    of a ``factorize`` fallback never sit beside the largest Fock vector.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")
    if not is_prime(p):
        raise ValueError(f"scan prime must be prime, got {p}")
    return [_row(n, value, e, p)
            for n, value in enumerate(cyclic_sums(n_max, e), start=1)]


def scan_row(v: ResidueWord, w: ResidueWord, p: int) -> FactorizationRow:
    """A single observational row for an explicit word pair."""
    if not is_prime(p):
        raise ValueError(f"scan prime must be prime, got {p}")
    return _row(len(v), pair_sum(v, w), v.e, p)


def _both_models(states: list[tuple[dict, Column]], letter: int) -> list:
    """One letter applied to a level of pairs; None where both images vanish."""
    ys = [apply_f(x, letter, 2) for x, _ in states]
    gs = apply_letter([f for _, f in states], letter)
    return [(y, g) if y or g else None for y, g in zip(ys, gs)]


def _both_keys(state: tuple[dict, Column]) -> tuple:
    return tuple(sorted(state[0].items())), state[1]


def cross_model_reports(n_max: int) -> Iterator[dict]:
    """Yield ``cross_model_check(n, level)`` for n = 1..n_max from one
    ``check_levels`` pass over the (Fock image, packed polynomial image)
    pairs of the words.  An n_max above MAX_DEGREE raises at once."""
    if n_max > MAX_DEGREE:
        raise ValueError(f"degree {MAX_DEGREE + 1} is above {MAX_DEGREE}")
    return check_levels(n_max, _both_models, (basis(()), IMAGE_ONE),
                        cross_model_check, key=_both_keys)


def cross_model_check(n: int, level: list) -> dict:
    """Compare the two models on every pair of length-n words.

    The partition-basis pairing of add-cell images must equal the
    z-weighted pairing of the polynomial images, pair by pair.  Words with
    zero image must vanish in both models (then all their pairings are 0),
    so it is enough that no word is zero in just one model and that every
    pair of surviving images agrees.

    ``level`` is the length-n level of ``check_levels`` over the pairs
    (Fock image, packed polynomial image), as (least word, pair, words)
    triples.  Each word pairing is a pairing of two distinct pairs, so only
    those are compared, in integers: one ``gram_rows`` matrix per model,
    the polynomial one on the numerators, weighted by z, and the Fock one
    on each image scaled by its polynomial image's denominator, so that
    the models agree exactly when their slot widths and rows are equal
    integers; a row is read slot by slot only where they differ.  That is
    as strong as comparing every word: two pairs that share a Fock image
    but not a polynomial image p, p' agree on all three pairings only if
    (p - p', p - p') = 0, and the polynomial pairing is positive definite.
    ``pairs`` still counts the W(W + 1)/2 word pairs of the W nonzero
    words.  A passing summary is the one a word-by-word comparison gives;
    a failing one names the least words of the offending distinct pairs.
    """
    lopsided = [word for word, (x, f), _ in level if not (x and f)]
    words = sum(count for _, (x, _), count in level if x)
    summary = {
        "n": n,
        "nonzero_words": words,
        "pairs": 0,
        "support_match": not lopsided,
        "mismatches": [f"support:{_word_text(w)}" for w in lopsided[:5]],
        "ok": False,
    }
    if lopsided:
        return summary
    mismatches = summary["mismatches"]
    dens = [f[0] for _, (_, f), _ in level]
    lhs_bits, lhs_rows = gram_rows([{k: d * c for k, c in x.items()}
                                    for d, (_, (x, _), _) in zip(dens, level)])
    rhs_bits, rhs_rows = gram_rows([dict(f[1]) for _, (_, f), _ in level],
                                   z_key)
    for a, (lhs_row, rhs_row) in enumerate(zip(lhs_rows, rhs_rows)):
        if lhs_bits == rhs_bits and lhs_row == rhs_row:
            continue
        count = len(level) - a
        for b, lhs, num in zip(range(a, len(level)),
                               read_slots(lhs_row, count, lhs_bits),
                               read_slots(rhs_row, count, rhs_bits)):
            den = dens[a] * dens[b]
            if lhs != num and len(mismatches) < 5:
                mismatches.append(f"{_pair_text(level[a][0], level[b][0])}: "
                                  f"{lhs // den} != {Fraction(num, den)}")
    summary["pairs"] = words * (words + 1) // 2
    summary["ok"] = not mismatches
    return summary


def property_checks(seed: int) -> list[tuple[str, bool, dict]]:
    """The seeded randomized identities, as (name, ok, detail) triples;
    exact arithmetic on random inputs."""
    rng = random.Random(seed)
    results = []

    ok = True
    for _ in range(25):
        e = rng.choice((2, 3))
        x = random_vector(rng, 8)
        y = random_vector(rng, 8)
        i = rng.randrange(e)
        lhs = inner(apply_f(x, i, e), y)
        rhs = inner(x, apply_e(y, i, e))
        ok = ok and lhs == rhs
    results.append(("adjointness-fock", ok, {"trials": 25}))

    ok = True
    for _ in range(25):
        f = random_poly(rng, 9)
        g = random_poly(rng, 9)
        keys = [(1,), (3,), (1, 1), (3, 1), (5,), (3, 3)]
        mu = keys[rng.randrange(len(keys))]
        lhs = inner_poly(mul_monomial(f, mu), g)
        rhs = inner_poly(f, adjoint_monomial(g, mu))
        ok = ok and lhs == rhs
    results.append(("adjointness-poly", ok, {"trials": 25}))

    ok = True
    for _ in range(10):
        f = random_poly(rng, 8)
        fsum = poly_add(op_generator("f0", f), op_generator("f1", f))
        esum = poly_add(op_generator("e0", f), op_generator("e1", f))
        ok = ok and fsum == mul_monomial(f, (1,))
        ok = ok and esum == adjoint_monomial(f, (1,))
    results.append(("generator-sums", ok, {"trials": 10}))

    ok = True
    for _ in range(10):
        f = random_poly(rng, 6)
        g = random_poly(rng, 6)
        j = rng.randint(-3, 3)
        lhs = inner_poly(op_a(j, f), g)
        sign = -1 if j % 2 else 1
        rhs = sign * inner_poly(f, op_a(-j, g))
        ok = ok and lhs == rhs
    results.append(("vertex-contravariance", ok, {"trials": 10}))

    ok = True
    for _ in range(10):
        f = random_poly(rng, 8)
        deep = 2 * max(top_degree(f), 0) + 4
        for gen in GENERATORS:
            ok = ok and op_generator(gen, f) == op_series(gen, f, deep)
    results.append(("series-truncation", ok, {"trials": 10}))

    ok = True
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        qq = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        rr = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        if qq and rr:
            ok = ok and vp(qq * rr, p) == vp(qq, p) + vp(rr, p)
        ok = ok and vp(qq + rr, p) >= min(vp(qq, p), vp(rr, p))
    results.append(("valuation-axioms", ok, {"trials": 40}))
    return results
