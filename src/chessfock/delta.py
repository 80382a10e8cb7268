"""The odd-denominator lattice spanned by 2^((|mu| - len(mu))/2) * p_mu,
its valuation, and the machine verifiers built on it.

A polynomial lies in 2^t times the lattice exactly when its
``delta_valuation`` is >= t, so each verifier reduces a containment claim
to a minimum of integer valuations over a finite set of inputs and reports
the outcome with witnesses.  The verifiers read it off packed integer
images (``_lattice_v2``), q-image and stability (on the columns
``polyrep._column``) in one basis scan (``_basis_scan``).  The generation
suite is one ``tableaux.check_levels`` walk over the distinct images of
the binary words, with the per-length check ``verify_generation``.
"""

from functools import lru_cache
from typing import Iterator, NamedTuple

from .arith import INFINITY, Valuation, tri_count, vp
from .partitions import (Partition, check_odd_partition, enumerate_partitions,
                         format_partition, z_mu)
from .polyrep import (GENERATORS, IMAGE_ONE, Column, OddPoly, _column,
                      _pack, _q_star, _q_times, _unpack, apply_letter,
                      check_degree)
from .tableaux import check_levels


def _shift(mu: Partition) -> int:
    """(|mu| - len(mu))/2, the exponent of 2 in the lattice basis monomial
    on p_mu: an integer because every part of mu is odd."""
    return (sum(mu) - len(mu)) // 2


@lru_cache(maxsize=None)
def _key_shift(key: int) -> int:
    """``_shift`` of the monomial with packed key ``key``."""
    return _shift(_unpack(key))


def delta_valuation(f: OddPoly) -> Valuation:
    """min over monomials of v2(coeff) - _shift(mu); INFINITY for 0."""
    return min((vp(c, 2) - _shift(check_odd_partition(mu))
                for mu, c in f.items()), default=INFINITY)


def _basis_desc(mu: Partition) -> str:
    shift = _shift(mu)
    prefix = f"2^{shift}*" if shift else ""
    return f"{prefix}p{format_partition(mu)}"


class ValuationReport(NamedTuple):
    """Outcome of one verifier run.

    ``observed_min`` is compared against ``required``; when the claim also
    asserts tightness (``require_tight``), PASS additionally demands that
    the minimum is attained exactly.  ``witnesses`` carries (description,
    value) pairs: every violating input, and the first inputs attaining
    the bound.
    """

    claim: str
    degree_bound: int
    required: int
    observed_min: Valuation
    require_tight: bool = False
    witnesses: tuple[tuple[str, int], ...] = ()

    @property
    def tight(self) -> bool:
        return self.observed_min == self.required

    @property
    def verdict(self) -> str:
        ok = self.observed_min >= self.required
        if ok and self.require_tight:
            ok = self.tight
        return "PASS" if ok else "FAIL"

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "degree_bound": self.degree_bound,
            "required": self.required,
            "observed_min": ("INFINITY" if self.observed_min is INFINITY
                             else self.observed_min),
            "require_tight": self.require_tight,
            "tight": self.tight,
            "verdict": self.verdict,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _scan_report(claim, degree_bound, required, require_tight, observations):
    """Fold (description, valuation) observations into a ValuationReport."""
    observed: Valuation = INFINITY
    failures = []
    attained = []
    for desc, val in observations:
        if val is INFINITY:
            continue
        if val < observed:
            observed = val
        if val < required:
            failures.append((desc, val))
        elif val == required and len(attained) < 3:
            attained.append((desc, val))
    return ValuationReport(
        claim=claim,
        degree_bound=degree_bound,
        required=required,
        observed_min=observed,
        require_tight=require_tight,
        witnesses=tuple(failures + attained),
    )


def _lattice_v2(image: Column) -> dict[int, int]:
    """{key: v} over the nonzero (key, num) of an image, unreduced and in
    any order: v = v2(num) - v2(den) - _key_shift(key) is the 2-adic
    valuation of the term's coordinate on the lattice basis, and no common
    factor changes it, so no gcd is needed."""
    low = vp(image[0], 2)
    return {key: (num & -num).bit_length() - 1 - low - _key_shift(key)
            for key, num in image[1] if num}


def _basis_scan(degree_bound: int, reach: int, images):
    """(description, valuation) of the named images of each basis monomial
    2^_shift(mu) p_mu of degree <= degree_bound: ``images(key)`` yields
    (name, ``_lattice_v2`` of the image of p_key), whose least value plus
    ``_shift(mu)`` is the valuation.  Raises at once if ``reach`` more
    degrees would overflow a packed key."""
    check_degree(degree_bound + reach)
    for d in range(degree_bound + 1):
        for mu in enumerate_partitions(d, "odd"):
            desc, shift = _basis_desc(mu), _shift(mu)
            for name, v in images(_pack(mu)):
                v = min(v.values(), default=INFINITY)
                yield f"{name} {desc}", v + shift


def verify_q_image(n: int, degree_bound: int, side: str) -> ValuationReport:
    """Check one instance of the q_n image bounds on the lattice.

    side="multiply": q_n * f stays in 2^(-(n + eps - 4)/2) times the
    lattice; side="adjoint": q_n^* f stays in 2^((n - eps + 2)/2) times it,
    where eps = n mod 2.  Exercised on every lattice basis monomial of
    degree <= degree_bound (enough, since both maps are linear over the
    odd-denominator integers), each image packed.  A product above degree
    255 raises at once (``check_degree``).
    """
    if n < 1:
        raise ValueError(f"q-image check needs n >= 1, got {n}")
    eps = n % 2
    if side == "multiply":
        required, reach, image = -(n + eps - 4) // 2, n, _q_times
    elif side == "adjoint":
        required, reach, image = (n - eps + 2) // 2, 0, _q_star
    else:
        raise ValueError(f"side must be 'multiply' or 'adjoint', got {side!r}")
    name = f"q{n} {side}"
    images = lambda key: ((name, _lattice_v2(image(n, (1, ((key, 1),))))),)
    return _scan_report(f"q-image[{side},n={n}]", degree_bound, required,
                        False, _basis_scan(degree_bound, reach, images))


def verify_stability(degree_bound: int) -> ValuationReport:
    """Check that all four generator operators preserve the lattice, on
    every basis monomial of degree <= degree_bound, each image read off
    its column.  A degree bound >= 255 raises at once."""
    images = lambda k: ((g, _lattice_v2(_column(g, k))) for g in GENERATORS)
    return _scan_report("stability", degree_bound, 0, False,
                        _basis_scan(degree_bound, 1, images))


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit-packed rows (each int is one row)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            b = row.bit_length() - 1
            if b in pivots:
                row ^= pivots[b]
            else:
                pivots[b] = row
                rank += 1
                break
    return rank


def generation_reports(n_max: int) -> Iterator[ValuationReport]:
    """Yield ``verify_generation(n, level)`` for n = 1..n_max from one
    ``check_levels`` pass over the distinct packed images of the words."""
    check_degree(n_max)
    return check_levels(n_max, apply_letter, IMAGE_ONE, verify_generation)


def verify_generation(n: int, level: list) -> ValuationReport:
    """Check that the 2^n length-n f-word images of 1 span the degree-n
    slice of the lattice over the odd-denominator integers.

    ``level`` is the length-n level of ``check_levels`` over the packed
    images (den, ((key, numerator), ...)), as (least word, image, words)
    triples.  ``_lattice_v2`` reads each image's lattice-basis coordinates
    (integral by stability: a negative valuation raises); those of
    valuation 0 are its mod-2 bit row, and the distinct rows, one per
    distinct image, are eliminated over GF(2).  Full rank lifts to
    spanning, so ``required`` is the slice dimension and ``observed_min``
    the achieved rank.
    """
    bits = {_pack(mu): 1 << idx
            for idx, mu in enumerate(enumerate_partitions(n, "odd"))}
    rows: set[int] = set()
    for _, image, _ in level:
        row = 0
        for key, v in _lattice_v2(image).items():
            if v < 0:
                nu, shift = _unpack(key), _key_shift(key)
                raise ArithmeticError(f"word image escapes the lattice at "
                                      f"{nu} (v2={v + shift} < {shift})")
            if v == 0:
                row |= bits[key]
        if row:
            rows.add(row)
    return ValuationReport(
        claim=f"generation[n={n}]",
        degree_bound=n,
        required=len(bits),
        observed_min=gf2_rank(sorted(rows)),
        require_tight=True,
        witnesses=(("nonzero word images", sum(words for _, _, words in level)),
                   ("distinct mod-2 rows", len(rows))),
    )


def verify_pairing(n: int) -> ValuationReport:
    """Check the pairing bound on the degree-n lattice slice: every pairing
    of basis monomials has 2-adic valuation >= n - tri_count(n), and the
    bound is attained (tightness).

    Distinct monomials are orthogonal, so only the diagonal pairings are
    nonzero and only they are read, straight from z_mu; no key is packed,
    so no degree limit applies.
    """
    if n < 1:
        raise ValueError(f"pairing check needs n >= 1, got {n}")
    required = n - tri_count(n)

    def observations():
        for mu in enumerate_partitions(n, "odd"):
            desc = _basis_desc(mu)
            # (2^s p_mu, 2^s p_mu) = 4^s z_mu, with s = _shift(mu)
            yield f"({desc}, {desc})", 2 * _shift(mu) + vp(z_mu(mu), 2)

    return _scan_report(f"pairing[n={n}]", n, required, True, observations())
