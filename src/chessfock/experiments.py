"""Headline tables and exhaustive scans.

Everything here is about concrete integers: the alternating-word table
and its factorizations, the exhaustive Gram-matrix bound check over all
words of a given length, the factorial sanity column, and the
observational scans at other moduli (which assert nothing -- no
divisibility pattern is claimed away from e = 2).
"""

import json
from dataclasses import dataclass
from math import factorial

from .arith import INFINITY, bin_ones, is_prime, tri_count, vp
from .delta import ValuationReport
from .fock import apply_f, basis, inner, pair_sum, word_images
from .partitions import enumerate_partitions
from .polyrep import inner_poly, poly_word_images
from .tableaux import OracleLimitError, ResidueWord, hook_count

#: Trial division gives up above this bound and leaves a flagged cofactor.
FACTOR_LIMIT = 1_000_000

#: Default cap on exhaustive 2^n scans.
DEFAULT_SCAN_LIMIT = 10


def factorize(value: int, limit: int = FACTOR_LIMIT) -> tuple[tuple[tuple[int, int], ...], int]:
    """Trial-divide value >= 1; returns (factors, cofactor).

    cofactor == 1 means the factorization is complete; otherwise it is the
    unfactored remainder (all of whose prime factors exceed the limit).
    """
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    factors = []
    rest = value
    d = 2
    while d <= limit and d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1 and d * d > rest:
        factors.append((rest, 1))
        rest = 1
    return tuple(factors), rest


@dataclass(frozen=True)
class FactorizationRow:
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
        pieces = []
        for p, e in self.factors:
            pieces.append(f"{p}^{e}" if e > 1 else str(p))
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


def _row(n: int, value: int, p: int, bound: int | None) -> FactorizationRow:
    v = vp(value, p)
    if v is INFINITY:
        raise ArithmeticError(f"pair sum vanished at n={n}; nothing to factor")
    factors, cofactor = factorize(value)
    return FactorizationRow(n=n, value=value, v2=v, bound=bound,
                            factors=factors, cofactor=cofactor)


def chess_table(n_max: int) -> list[FactorizationRow]:
    """Rows n = 1..n_max of the alternating-word table: the sum of squared
    chess-tableau counts, its 2-adic valuation, and the bound n - tri_count(n).

    This is the e = 2, p = 2 case of ``general_e_scan``.
    """
    return general_e_scan(n_max, 2, 2)


def _word_text(letters) -> str:
    return ",".join(str(a) for a in letters)


def exhaustive_bound_check(n: int, limit: int = DEFAULT_SCAN_LIMIT) -> ValuationReport:
    """Pair every nonzero length-n word image with every other (the full
    Gram matrix) and check that each nonzero pairing is divisible by
    2^(n - tri_count(n)), with the exponent attained by some pair.

    Distinct words often produce identical images, so images are
    deduplicated first; that changes nothing about which pairing values
    occur.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise OracleLimitError(
            f"refusing a 2^{n} scan (limit {limit}); raise the limit to force it"
        )
    required = n - tri_count(n)
    seen: dict[tuple, tuple[tuple[int, ...], dict]] = {}
    for letters, image in word_images(n, 2):
        seen.setdefault(tuple(sorted(image.items())), (letters, image))
    reps = list(seen.values())

    observed = INFINITY
    failures = []
    attained = None
    pairings = 0
    for a, (wa, xa) in enumerate(reps):
        for wb, xb in reps[a:]:
            s = inner(xa, xb)
            if s == 0:
                continue
            pairings += 1
            val = (s & -s).bit_length() - 1
            if val < observed:
                observed = val
            desc = f"v={_word_text(wa)} w={_word_text(wb)}"
            if val < required:
                failures.append((desc, val))
            elif val == required and attained is None:
                attained = (desc, val)
    witnesses = tuple(failures + ([attained] if attained else []))
    return ValuationReport(
        claim=f"bound[n={n}]",
        degree_bound=n,
        required=required,
        observed_min=observed,
        require_tight=True,
        witnesses=witnesses + (("distinct nonzero images", len(reps)),
                               ("nonzero pairings", pairings)),
    )


def factorial_check(n: int) -> bool:
    """True iff the squared tableau counts over all shapes of n sum to n!,
    the 2-adic valuation of n! is n - bin_ones(n), and the modulus-1 word
    (every cell has residue 0) reproduces the same sum."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = sum(hook_count(lam) ** 2 for lam in enumerate_partitions(n))
    value = factorial(n)
    if total != value:
        return False
    if n >= 1 and vp(value, 2) != n - bin_ones(n):
        return False
    word = ResidueWord(1, (0,) * n)
    return pair_sum(word, word) == value


def general_e_scan(n_max: int, e: int, p: int) -> list[FactorizationRow]:
    """The cyclic-word table at an arbitrary modulus e and prime p.

    For e = 2, p = 2 this reproduces chess_table (bounds and all); for any
    other modulus the rows are purely observational -- the bound column is
    empty and the verdict is OBS, because no divisibility is claimed there.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")
    if not is_prime(p):
        raise ValueError(f"scan prime must be prime, got {p}")
    claimed = (e == 2 and p == 2)
    rows = []
    x = basis(())
    for n in range(1, n_max + 1):
        x = apply_f(x, (n - 1) % e, e)
        bound = n - tri_count(n) if claimed else None
        rows.append(_row(n, inner(x, x), p, bound))
    return rows


def scan_row(v: ResidueWord, w: ResidueWord, p: int) -> FactorizationRow:
    """A single observational row for an explicit word pair."""
    if not is_prime(p):
        raise ValueError(f"scan prime must be prime, got {p}")
    value = pair_sum(v, w)
    if value == 0:
        raise ArithmeticError("the pair sum is 0; nothing to factor")
    bound = len(v) - tri_count(len(v)) if (v.e == 2 and p == 2) else None
    return _row(len(v), value, p, bound)


def cross_model_check(n: int) -> dict:
    """Compare the two models on every pair of length-n words.

    The partition-basis pairing of add-cell images must equal the
    z-weighted pairing of the polynomial images, pair by pair.  Words with
    zero image must vanish in both models (then all their pairings are 0),
    so it is enough that the nonzero supports coincide and that every pair
    of surviving images agrees.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    fock_imgs = dict(word_images(n, 2))
    poly_imgs = dict(poly_word_images(n))
    summary = {
        "n": n,
        "nonzero_words": len(fock_imgs),
        "pairs": 0,
        "support_match": set(fock_imgs) == set(poly_imgs),
        "mismatches": [],
        "ok": False,
    }
    if not summary["support_match"]:
        diff = sorted(set(fock_imgs) ^ set(poly_imgs))[:5]
        summary["mismatches"] = [f"support:{_word_text(w)}" for w in diff]
        return summary
    words = sorted(fock_imgs)
    mismatches = []
    pairs = 0
    for a, va in enumerate(words):
        for wb in words[a:]:
            pairs += 1
            lhs = inner(fock_imgs[va], fock_imgs[wb])
            rhs = inner_poly(poly_imgs[va], poly_imgs[wb])
            if lhs != rhs and len(mismatches) < 5:
                mismatches.append(
                    f"v={_word_text(va)} w={_word_text(wb)}: {lhs} != {rhs}"
                )
    summary["pairs"] = pairs
    summary["mismatches"] = mismatches
    summary["ok"] = not mismatches
    return summary
