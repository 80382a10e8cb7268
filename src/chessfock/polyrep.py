"""The polynomial model of the vacuum representation.

The ambient ring is generated by the odd-indexed variables p1, p3, p5, ...
A polynomial is a dict mapping an odd-part partition (the multiset of
variable indices) to a Fraction coefficient: ``{(): 1}`` is the constant 1
and ``{(3, 1, 1): Fraction(2, 3)}`` is (2/3) * p3 * p1^2.  The pairing
makes the monomials orthogonal with squared norm z_mu, which is the same
as saying that the adjoint of multiplication by p_k is k * d/dp_k.

On top of the ring sit the expansion coefficients

    q_n = sum over odd-part mu of n of (2^len(mu) / z_mu) * p_mu,   q_0 = 1,

and the four generator operators assembled from two series:

    S_f = sum_{n>=1} (-1)^(n+1) q_{n+1} q_n^*,    f1 = S_f / 4,   f0 = p1   - S_f / 4
    S_e = sum_{n>=1} (-1)^(n+1) q_n q_{n+1}^*,    e1 = S_e / 4,   e0 = p1^* - S_e / 4

The series act locally in degree, so on any given input only finitely
many terms survive and the truncated sum below is exactly the operator.
``op_series`` evaluates them through the vertex operator components A_-1
and A_1 of ``op_a``; it is the definition and the public reference that
``op_generator`` is checked against, and its ``terms`` argument pushes the
truncation further to show that the cut is exact.  ``op_a`` sums in
integers on packed forms: q_n^* p_tau over the sub-multisets of tau of
degree n (``_sub_monomials``), q_n * over q_n's one table ``_q_column``,
which ``_a_state`` and ``random_poly`` read too.

Each generator is linear, so ``op_generator`` steps a whole level of
images at once, in big-int sums over the images of single monomials
(columns).  A column comes from the commutation rule of the vertex
operator, [q_m^*, p_k] = 2 q_(m-k)^*, which peels one part k at a time:

    A_j(p_k g) = p_k A_j(g) + 2 A_(j-k)(g),   A_j(1) = (1/2) (-1)^j q_(-j),

with q_n = 0 for n < 0, so A_j(1) = 0 for j > 0.  One state per
(j, monomial) gives both generators of a pair: a column is the state over
a den that carries the generator's sign, plus the term p1 p_mu or p1^* p_mu.

A key packs an odd monomial into one int (``_pack``): the multiplicity of
the part k fills the 8-bit slot at bit 4 * (k - 1), so a product of
monomials is a sum of keys and p_(mu minus nu) a difference.  A slot could
overflow above degree 255, which ``check_degree`` refuses, for the packing
kernels and for each suite before it starts.  ``op_generator`` maps OddPolys
to OddPolys, decoding keys with the cached ``_unpack``, and packed images
(den, ((key, int), ...)), and lists of them, to the same: the word walks
step levels from ``IMAGE_ONE`` (numerators pair in ``fock.gram_rows``, by
``z_key``).  A column (``_column``) is built per call from the one shared
memo of the states 2 A_j p_mu (``_a_state``, which peels the largest part
first), which ``op_generator`` and ``delta.verify_stability`` both read;
nothing is built at import time.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, perm

from .fock import _nonzero, pack_columns, read_slots
from .partitions import (Partition, check_odd_partition, enumerate_partitions,
                         z_mu)
from .tableaux import ResidueWord

OddPoly = dict[Partition, Fraction]

GENERATORS = ("f0", "f1", "e0", "e1")

#: A polynomial as (den, ((key, numerator), ...)), items in any iterable: the
#: sum of numerator / den * p_key over packed keys, with no zero numerator.
Column = tuple[int, tuple[tuple[int, int], ...]]

MAX_DEGREE = 255  # no 8-bit slot of a packed key overflows up to it
IMAGE_ONE: Column = (1, ((0, 1),))  # the constant 1, where word walks start


def check_degree(degree: int) -> None:
    """Refuse, naming it, a degree at which a packed key could overflow."""
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} is above {MAX_DEGREE}")


def _pack(mu: Partition) -> int:
    """The packed key of an odd-part partition (see the module docstring)."""
    check_degree(sum(mu))
    return sum(1 << 4 * k - 4 for k in mu)


@lru_cache(maxsize=None)
def _unpack(key: int) -> Partition:
    slots = key.to_bytes((key.bit_length() + 7) // 8, "little")
    return tuple(2 * i + 1 for i in reversed(range(len(slots)))
                 for _ in range(slots[i]))


def top_degree(f: OddPoly) -> int:
    """Largest total degree sum(mu) with a nonzero coefficient; -1 for 0."""
    return max((sum(mu) for mu in f), default=-1)


def poly_add(f: OddPoly, g: OddPoly) -> OddPoly:
    """f + g, dropping zeros."""
    out = dict(f)
    for mu, c in g.items():
        out[mu] = out.get(mu, 0) + c
    return {mu: c for mu, c in out.items() if c}


def poly_scale(f: OddPoly, c: Fraction) -> OddPoly:
    if not c:
        return {}
    return {mu: c * v for mu, v in f.items()}


def mul_monomial(f: OddPoly, mu) -> OddPoly:
    """Multiply f by the monomial p_mu (merge the part multisets)."""
    mu = check_odd_partition(mu)
    return {tuple(sorted(tau + mu, reverse=True)): c for tau, c in f.items()}


def adjoint_monomial(f: OddPoly, mu) -> OddPoly:
    """Apply the adjoint of multiplication by p_mu.

    Each part k of mu acts as k * d/dp_k, once per multiplicity, so a
    monomial of f survives only if it contains mu, and its coefficient
    picks up k^(m_k) times a falling factorial of the multiplicities.  Each
    run of m equal parts k goes at once, as (k, m, k**m); the keys of f
    are partitions, so removing whole runs leaves them sorted, and
    distinct, so no terms add up.
    """
    mu = check_odd_partition(mu)
    runs = [(k, mu.count(k), k ** mu.count(k)) for k in dict.fromkeys(mu)]
    out: OddPoly = {}
    for tau, c in f.items():
        rest = list(tau)
        factor = 1
        for k, m, power in runs:
            t = rest.count(k)
            if t < m:
                break
            i = rest.index(k)
            del rest[i:i + m]
            factor *= power * perm(t, m)
        else:
            out[tuple(rest)] = c * factor
    return out


@lru_cache(maxsize=None)
def _q_column(n: int) -> Column:
    """q_n in integers, (Z_n, ((key, weight), ...)) in enumeration order:
    Z_n the lcm of the reduced denominators of the 2^len(mu) / z_mu."""
    terms = [(mu, z_mu(mu)) for mu in enumerate_partitions(n, "odd")]
    den = lcm(*(z // gcd(z, 1 << len(mu)) for mu, z in terms))
    return den, tuple((_pack(mu), (den << len(mu)) // z) for mu, z in terms)


@lru_cache(maxsize=None)
def _sub_monomials(key: int, n: int) -> tuple[tuple[int, int], ...]:
    """q_n^* p_tau as ((key of tau minus nu, weight), ...) over the
    sub-multisets nu of degree n of tau = ``_unpack(key)``, built part by
    part with every partial degree above n pruned: 2^len(nu) / z_nu times
    prod_k k^m perm(t, m) is the integer 2^len(nu) prod_k C(t, m), where the
    part k is m times in nu and t times in tau."""
    subs = [(0, 0, 1)]  # (|nu|, key of nu, weight) over the parts so far
    for i, t in enumerate(key.to_bytes((key.bit_length() + 7) // 8, "little")):
        subs = [(d + (2 * i + 1) * m, nu + (m << 8 * i), w * comb(t, m) << m)
                for d, nu, w in subs
                for m in range(min(t, (n - d) // (2 * i + 1)) + 1)]
    return tuple((key - nu, w) for d, nu, w in subs if d == n)


def _q_star(n: int, f: Column) -> Column:
    """q_n^* f, the adjoint of q_n *, on a packed form (den, items)."""
    den, items = f
    acc: dict[int, int] = {}
    for key, num in items:
        for rest, w in _sub_monomials(key, n):
            acc[rest] = acc.get(rest, 0) + w * num
    return den, [(key, v) for key, v in acc.items() if v]


def _q_times(n: int, f: Column) -> Column:
    """q_n * f on a packed form (den, items), over den * Z_n; the caller
    keeps the product's degree within MAX_DEGREE."""
    den, items = f
    q_den, q_items = _q_column(n)
    acc: dict[int, int] = {}
    for key, num in items:
        for mu, w in q_items:
            acc[key + mu] = acc.get(key + mu, 0) + w * num
    return den * q_den, [(key, v) for key, v in acc.items() if v]


def _ints(f: OddPoly, reach: int = 0) -> Column:
    """f packed over the lcm of its denominators; refused if ``reach`` more
    degrees would overflow a slot (``check_degree``)."""
    check_degree(top_degree(f) + reach)
    den = lcm(*(c.denominator for c in f.values()))
    return den, [(_pack(mu), c.numerator * (den // c.denominator))
                 for mu, c in f.items()]


def _poly(den: int, items) -> OddPoly:
    """The OddPoly of packed items over den, nonzero numerators only."""
    return {_unpack(key): Fraction(v, den) for key, v in items if v}


_z = lru_cache(maxsize=None)(z_mu)  # validated on the first call per key


def inner_poly(f: OddPoly, g: OddPoly) -> Fraction:
    """The pairing with (p_mu, p_mu) = z_mu and distinct monomials
    orthogonal."""
    return sum((c * g[mu] * _z(mu) for mu, c in f.items() if mu in g),
               Fraction(0))


def z_key(key: int) -> int:
    """z_mu of the monomial with packed key ``key``: the weight with which
    ``fock.gram_rows`` pairs the numerators of packed images."""
    return _z(_unpack(key))


def op_series(gen: str, f: OddPoly, terms: int | None = None) -> OddPoly:
    """Apply the generator ``gen`` (one of GENERATORS) to f by its series:
    f1, f0 = (p1 f +- A_-1 f) / 2 and e0, e1 = (p1^* f +- A_1 f) / 2, with
    A_j from ``op_a``.  ``terms`` is the last n kept in S_f and S_e (the
    last a of A_-1 is one more), so the checks can push the cut further.
    """
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    if gen[0] == "f":
        base = mul_monomial(f, (1,))
        a = op_a(-1, f, None if terms is None else terms + 1)
    else:
        base = adjoint_monomial(f, (1,))
        a = op_a(1, f, terms)
    sign = Fraction(1 if gen in ("f1", "e0") else -1, 2)
    return poly_add(poly_scale(base, Fraction(1, 2)), poly_scale(a, sign))


@lru_cache(maxsize=None)
def _a_state(j: int, key: int) -> tuple[int, dict[int, int]]:
    """2 A_j p_key for the monomial with packed key ``key``, by the
    commutation rule of the module docstring: peel the largest part k,
    shift the state (j, rest) by p_k and add twice the state (j - k, rest).
    The numerators are over the lcm of the denominators of the q_m that the
    base cases reach; the memo shares the dict, so callers do not change it."""
    if not key:
        if j > 0:
            return 1, {}
        den, items = _q_column(-j)
        sign = -1 if j % 2 else 1
        return den, {k: sign * w for k, w in items}
    i = (key.bit_length() - 1) // 8  # slot i holds the largest part, 2i + 1
    part = 1 << 8 * i
    rest = key - part
    low_den, low = _a_state(j, rest)
    high_den, high = _a_state(j - 2 * i - 1, rest)
    den = lcm(low_den, high_den)
    acc = {k + part: v * (den // low_den) for k, v in low.items()}
    scale = 2 * (den // high_den)
    for k, v in high.items():
        acc[k] = acc.get(k, 0) + scale * v
    # only the sums above can be zero, and seldom are (44 of 4,161 states
    # to degree 26), so acc is copied only when one is
    return den, _nonzero(acc)


def _column(gen: str, key: int) -> Column:
    """gen p_key as a packed image (den, items), unreduced.  With j = -1 for
    f and 1 for e, f0, f1 (e0, e1) are (base + j A_j) / 2 and
    (base - j A_j) / 2, base being p1 p_mu or p1^* p_mu: the items are the
    read-only state dict of ``_a_state``, copied only to add a nonzero base
    term (dropped if it cancels), and the den carries the sign, negative for
    f0 and e1.  By the truncation argument of ``op_a``, the other monomials
    of an input do not change a column.
    """
    j = -1 if gen[0] == "f" else 1
    check_degree(sum(_unpack(key)) - j)
    den, state = _a_state(j, key)
    sign = j if gen[1] == "0" else -j
    # p1 * p_mu, or p1^* p_mu = m_1(mu) * p_(mu minus 1)
    base, c = (key + 1, 1) if j < 0 else (key - 1, key & 255)
    if c:
        state = {**state, base: state.get(base, 0) + sign * 2 * c * den}
        if not state[base]:
            del state[base]
    return sign * 4 * den, state.items()


def op_generator(gen: str, f):
    """Apply one of the generator operators f0, f1, e0, e1 to f, an OddPoly,
    a packed image or a level (a list of packed images, () the zero one),
    equal to ``op_series`` by linearity and of the same form as f.

    One pass steps a level, and the other forms as a level of one: the
    columns ``fock.pack_columns`` of the input monomials' numerators, over
    the lcm ``step`` (positive) of their signed ``_column`` dens, give each
    output monomial as one big-int sum, slot a over image a's den * step.
    No slot value exceeds the bound that sizes the slots: the largest
    column coefficient (the reach) times the largest l1 norm of an image's
    numerators.  A packed result is canonical: the gcd is divided out, the
    items are sorted by key, the zero image ().
    """
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    poly = isinstance(f, dict)
    level = [image or (1, ()) for image in (
        f if isinstance(f, list) else [_ints(f) if poly else f])]
    nums = [items for _, items in level]
    cols = {key: _column(gen, key) for key in {k for x in nums for k, _ in x}}
    step = lcm(*(den for den, _ in cols.values()))
    reach = max((step // abs(den) * max((abs(v) for _, v in items), default=0)
                 for den, items in cols.values()), default=0)
    largest = max((sum(abs(v) for _, v in x) for x in nums), default=0)
    bits, bias, packed = pack_columns(nums, max(reach, 1) * largest)
    acc: dict[int, int] = {}
    for key, (den, items) in cols.items():
        scale = step // den * packed[key]
        for k, v in items:
            acc[k] = acc.get(k, 0) + v * scale
    keys = sorted(k for k, row in acc.items() if row)
    m = len(level)
    rows = zip(*(read_slots(acc[k] + bias ^ bias, m, bits) for k in keys))
    out = []
    for (den, _), row in zip(level, rows if keys else [()] * m):
        g = gcd(den * step, *row)
        items = tuple((k, v // g) for k, v in zip(keys, row) if v)
        out.append((den * step // g, items) if items else ())
    if poly:
        return _poly(*out[0]) if out[0] else {}
    return out if isinstance(f, list) else out[0]


def op_a(j: int, f: OddPoly, terms: int | None = None) -> OddPoly:
    """The degree-j component of the odd vertex operator:

        A_j = (1/2) sum_a (-1)^a q_a q_{a+j}^*,   both subscripts >= 0.

    A_{-1} and A_1 are the differences f1 - f0 and e0 - e1; general j is
    exposed for the contravariance self-checks.  The sum stops at a = d - j
    on input of top degree d, and that is exact: the later terms annihilate
    f, as their adjoint factor lowers degree by more than d; so do terms
    with q_{a+j}^* f = 0, which are skipped.  ``terms`` overrides the last
    a, so the checks can confirm that pushing the sum further never changes
    the result.
    """
    lo = max(0, -j)
    hi = top_degree(f) - j if terms is None else terms
    packed = _ints(f, lo)
    stars = [(a, star) for a in range(lo, hi + 1)
             if (star := _q_star(a + j, packed))[1]]
    step = lcm(*(_q_column(a)[0] for a, _ in stars))
    acc: dict[int, int] = {}
    for a, star in stars:
        den, items = _q_times(a, star)
        scale = step * packed[0] // den * (-1) ** a
        for key, v in items:
            acc[key] = acc.get(key, 0) + scale * v
    return _poly(2 * packed[0] * step, acc.items())


def apply_letter(f, letter: int):
    """Apply f0 or f1, named by a residue mod 2, to an OddPoly, a packed
    image or a level (a list of packed images), as ``op_generator`` does."""
    return op_generator(("f0", "f1")[letter], f)


def apply_word_poly(word: ResidueWord) -> OddPoly:
    """Image of 1 under the f-generators named by the word, left to right,
    stepped on packed images and decoded once at the end.  Only the
    modulus-2 model has a polynomial realization here."""
    if word.e != 2:
        raise ValueError(f"polynomial model needs e = 2, got e = {word.e}")
    f = IMAGE_ONE
    for letter in word.letters:
        f = apply_letter(f, letter)
        if not f:
            return {}
    return _poly(*f)


def random_poly(rng, max_degree: int) -> OddPoly:
    """A sparse polynomial of six terms with small rational coefficients,
    drawn from ``rng``; companion to fock.random_vector for the self-checks."""
    out: OddPoly = {}
    for _ in range(6):
        n = rng.randrange(max_degree + 1)
        items = _q_column(n)[1]
        mu = _unpack(items[rng.randrange(len(items))][0])
        coeff = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
        out[mu] = out.get(mu, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}
