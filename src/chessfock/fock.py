"""The partition-basis model: vectors supported on partitions, with the
add-cell and remove-cell operators indexed by residues mod e.

A vector is a dict mapping the bead int of each partition
(``partitions.to_beads``) to a nonzero integer coefficient (the zero
vector is the empty dict), and the partition basis is orthonormal for
``inner``.  Keys are decoded to partition tuples only at the edges:
``basis`` encodes, ``decode`` turns a vector back into tuples.  Applying
the length-n word v to the vacuum gives the generating vector whose
coefficient on each shape counts the standard tableaux of that shape with
residue sequence v; pairing two such vectors sums those counts multiplied
shape by shape.  ``apply_word`` gives one word's image; the suites that
need every word's walk the distinct images with ``tableaux.check_levels``
and pair them with ``gram_rows``.  The operators and the pairing are
linear and never divide, so they accept rational coefficients as well.
A step takes the masks of its residue from ``partitions`` once, one per
class of shapes with the same number of rows mod e, and passes over each
shape once, masking it with its class's mask.

At e = 2 the residue (i - j) mod 2 does not change under transposition,
so f_0 and f_1 commute with conjugation and every binary word's image of
the vacuum is conjugation-invariant.  ``cyclic_sums`` grows the
alternating image, and the word walks of ``experiments`` every binary
word's, as a half vector: the vector restricted to the shapes with lam_1
>= len(lam), the bead ints with ``s.bit_length() >= 2 * s.bit_count()``.
The table keeps it as four dicts (``_classes``): rows mod 2, times strict
(lam_1 > len(lam)) or diagonal (lam_1 = len(lam)).  Its step, ``_class_f``,
masks each class with one constant mask, and its norm is twice the strict
squares plus the diagonal ones.  The word walks carry it as a sorted
item tuple (``HalfImage``), step by ``half_step``, which reads each
shape's class step from a memo, and pair by ``half_weight``.  The half
vector serves only such conjugation-invariant e = 2 walks from the empty
partition; everything else uses full vectors.
"""

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .partitions import (Partition, addable_cells, check_residue,
                         conjugate_beads, enumerate_partitions, from_beads,
                         to_beads)
from .tableaux import ResidueWord

FockVector = dict[int, int]
#: A half vector as its (bead int, coefficient) pairs, sorted by bead int,
#: with no zero coefficient; () is the zero image.
HalfImage = tuple[tuple[int, int], ...]
HALF_VACUUM: HalfImage = ((0, 1),)  # the empty partition, where walks start


def basis(lam) -> FockVector:
    """The basis vector supported on one partition."""
    return {to_beads(lam): 1}


def decode(x: FockVector) -> dict[Partition, int]:
    """x keyed by partition tuples."""
    return {from_beads(s): c for s, c in x.items()}


def apply_f(x: FockVector, i: int, e: int) -> FockVector:
    """Add one cell of residue i in every possible way."""
    check_residue(i, e)
    out: FockVector = {}
    get = out.get
    masks = addable_cells(i, e, max(x, default=0).bit_length())
    for s, c in x.items():
        rows = s.bit_count() % e
        free = s & ~(s >> 1) & masks[rows]
        while free:
            low = free & -free
            grown = s + low
            out[grown] = get(grown, 0) + c
            free ^= low
        if rows == i:
            grown = (s << 1) | 2
            out[grown] = get(grown, 0) + c
    return _nonzero(out)


def apply_e(x: FockVector, i: int, e: int) -> FockVector:
    """Remove one cell of residue i in every possible way."""
    check_residue(i, e)
    out: FockVector = {}
    get = out.get
    # a bead at p removes a cell of residue one more than the one it adds
    masks = addable_cells((i - 1) % e, e, max(x, default=0).bit_length())
    for s, c in x.items():
        free = s & ~(s << 1) & masks[s.bit_count() % e]
        while free:
            low = free & -free
            shrunk = s - (low >> 1)
            if shrunk & 1:
                shrunk >>= 1
            out[shrunk] = get(shrunk, 0) + c
            free ^= low
    return _nonzero(out)


def _nonzero(out: FockVector) -> FockVector:
    """out without its zero terms; out itself when it has none."""
    return {k: v for k, v in out.items() if v} if 0 in out.values() else out


def _classes(x: FockVector) -> list[FockVector]:
    """A half vector split into its four classes: entry b + 2d holds the
    shapes with b rows mod 2, strict (lam_1 > len(lam)) for d = 0 and
    diagonal (lam_1 = len(lam)) for d = 1."""
    out: list[FockVector] = [{}, {}, {}, {}]
    for s, c in x.items():
        rows = s.bit_count()
        out[rows % 2 + 2 * (s.bit_length() == 2 * rows)][s] = c
    return out


def _class_f(x: list[FockVector], i: int) -> list[FockVector]:
    """f_i at e = 2 on the classes (``_classes``) of the half vector of a
    conjugation-invariant vector whose coefficients are positive.

    Each class steps with its one mask.  A bead move keeps the row count
    and lam_1 >= len(lam), so every one is kept in its parity; it leaves a
    diagonal shape only when it moves the top bead, which lengthens row 1.
    A new row lowers lam_1 - len(lam) by one, so it stays in the half only
    from a strict shape or from the empty one, and is diagonal from a shape
    with lam_1 - len(lam) = 1.  The one term that enters the half from a
    dropped conjugate is the transpose of that diagonal new row, cell (1,
    len(lam) + 1) of lam', so it is added here as well.
    """
    width = max(max(part, default=0) for part in x).bit_length()
    masks = addable_cells(i, 2, width)
    out: list[FockVector] = [{}, {}, {}, {}]
    for b in (0, 1):
        strict, diagonal, mask = out[b], out[2 + b], masks[b]
        get = strict.get
        for s, c in x[b].items():
            free = s & ~(s >> 1) & mask
            while free:
                low = free & -free
                grown = s + low
                strict[grown] = get(grown, 0) + c
                free ^= low
        for s, c in x[2 + b].items():
            free = s & ~(s >> 1) & mask
            while free:
                low = free & -free
                grown = s + low
                into = strict if low << 1 > s else diagonal
                into[grown] = into.get(grown, 0) + c
                free ^= low
    strict, diagonal = out[1 - i], out[3 - i]
    get, get_diagonal = strict.get, diagonal.get
    for s, c in x[i].items():
        grown = (s << 1) | 2
        if s.bit_length() > 2 * s.bit_count() + 1:
            strict[grown] = get(grown, 0) + c
        else:
            for grown in grown, conjugate_beads(grown):
                diagonal[grown] = get_diagonal(grown, 0) + c
    if not i and 0 in x[2]:
        diagonal[2] = x[2][0]                   # () gains the row (1)
    return out


def half_step(x: HalfImage, i: int) -> HalfImage:
    """f_i at e = 2 on a half vector, canonical in and out (``HalfImage``),
    through a memo of each shape's class step, for walks that meet a shape
    many times (562 entries to n = 15).  ``cyclic_sums`` meets each shape
    once, so it keeps the class step: at n = 40 a memo there took over 3x
    the time and 26 MiB for its 58,095 entries."""
    out: FockVector = {}
    get = out.get
    for s, c in x:
        for grown, k in _half_moves(s, i):
            out[grown] = get(grown, 0) + c * k
    return tuple(sorted(_nonzero(out).items()))


@lru_cache(maxsize=None)
def _half_moves(s: int, i: int) -> tuple[tuple[int, int], ...]:
    """The class step of {s: 1} as (shape, multiplicity) pairs; (2) and
    (1, 1) both go to (2, 1) under f_1, so it holds 2."""
    return tuple(move for part in _class_f(_classes({s: 1}), i)
                 for move in part.items())


def half_weight(s: int) -> int:
    """Shape s's weight in a half vector's pairing: 2 when lam_1 > len(lam),
    as s stands for its dropped conjugate too, and 1 otherwise."""
    return 2 if s.bit_length() > 2 * s.bit_count() else 1


def cyclic_sums(n_max: int, e: int) -> list[int]:
    """The pair sums <x, x> of the images x of the cyclic words 0, 1, ...,
    (n - 1) mod e for n = 1..n_max, from one growing vector: at e = 2 the
    classes of a half vector, whose norm weighs the strict ones 2,
    otherwise the full image, stepped by ``apply_f``, whose norm is its sum
    of squared coefficients."""
    sums = []
    x = _classes(basis(())) if e == 2 else basis(())
    for n in range(1, n_max + 1):
        if e == 2:
            x = _class_f(x, (n - 1) % 2)
            squares = [sum(c * c for c in part.values()) for part in x]
            sums.append(2 * (squares[0] + squares[1]) + squares[2] + squares[3])
        else:
            x = apply_f(x, (n - 1) % e, e)
            sums.append(sum(c * c for c in x.values()))
    return sums


def apply_word(word: ResidueWord) -> FockVector:
    """Image of the vacuum under the add-cell operators, read left to right."""
    x = basis(())
    for letter in word.letters:
        x = apply_f(x, letter, word.e)
        if not x:
            break
    return x


def inner(x: FockVector, y: FockVector) -> int:
    """The pairing making the partition basis orthonormal."""
    if len(y) < len(x):
        x, y = y, x
    total = 0
    for lam, c in x.items():
        d = y.get(lam)
        if d is not None:
            total += c * d
    return total


def gram_rows(vectors: Sequence[Iterable[tuple[int, int]]],
              weight: Callable[[int], int]) -> tuple[int, Iterator[int]]:
    """The slot width in bits, and row a of the Gram matrix from the
    diagonal on as one integer: slot b - a holds sum_k weight(k) * x_a[k] *
    x_b[k] for x_a = vectors[a], b >= a, in two's complement (read back by
    ``read_slots``), for integer coefficients of either sign and a positive
    weight; a vector is its (key, coefficient) pairs, keys distinct, in any
    order.  Over the columns col_k of ``pack_columns``, the sum of
    weight(k) * x_a[k] * col_k holds the pairing of x_a and x_b in slot b;
    by Cauchy-Schwarz no coefficient or pairing exceeds the largest
    weighted norm, which is the bound that sizes the slots.  The row plus
    the bias, xor the bias, is the row in two's complement.
    """
    weights = {k: weight(k) for k in {k for x in vectors for k, _ in x}}
    largest = max((sum(weights[k] * c * c for k, c in x) for x in vectors),
                  default=0)
    bits, bias, cols = pack_columns(vectors, largest)
    return bits, ((sum(c * weights[k] * cols[k] for k, c in x)
                   + bias >> a * bits) ^ (bias >> a * bits)
                  for a, x in enumerate(vectors))


def pack_columns(vectors: Sequence[Iterable[tuple[int, int]]],
                 bound: int) -> tuple[int, int, dict]:
    """The slot width bits, two over the bit length of ``bound`` in whole
    bytes; the bias, 2^(bits-1) in each slot; and per key k of the vectors
    (pairs, as in ``gram_rows``) the column sum_b x_b[k] * 2^(b*bits), for
    |x_b[k]| <= bound: the bytes of x_b[k] + 2^(bits-1), slot by slot, less
    the bias.  A sum of columns with every slot at most bound in absolute
    value, plus the bias, is nonnegative in each slot: no borrow crosses."""
    width = (bound.bit_length() + 9) // 8       # bytes per slot
    half = 1 << 8 * width - 1
    slots = half.to_bytes(width, "little") * len(vectors)
    bias = int.from_bytes(slots, "little")
    packed = {k: bytearray(slots) for k in {k for x in vectors for k, _ in x}}
    for at, x in zip(range(0, len(slots), width), vectors):
        for k, c in x:
            packed[k][at:at + width] = (c + half).to_bytes(width, "little")
    return 8 * width, bias, {k: int.from_bytes(b, "little") - bias
                             for k, b in packed.items()}


def read_slots(row: int, count: int, bits: int) -> list[int]:
    """The first count slots of a ``gram_rows`` row, as signed integers."""
    width = bits // 8
    data = row.to_bytes(count * width, "little")
    return [int.from_bytes(data[at:at + width], "little", signed=True)
            for at in range(0, len(data), width)]


def pair_sum(v: ResidueWord, w: ResidueWord) -> int:
    """Sum over all shapes of (tableaux with word v) * (tableaux with word w).

    Computed as the pairing of the two word images.
    """
    if v.e != w.e:
        raise ValueError(f"words use different moduli: {v.e} vs {w.e}")
    if len(v) != len(w):
        raise ValueError(f"words differ in length: {len(v)} vs {len(w)}")
    return inner(apply_word(v), apply_word(w))


def random_vector(rng, max_degree: int) -> FockVector:
    """A sparse vector of six random terms with small integer coefficients.

    Used by the randomized self-checks (adjointness, gradedness), which are
    linear, so integer inputs test them fully; the randomness is only in
    which entries appear.
    """
    out: FockVector = {}
    for _ in range(6):
        shapes = _shapes(rng.randrange(max_degree + 1))
        s = shapes[rng.randrange(len(shapes))]
        out[s] = out.get(s, 0) + rng.randint(-9, 9)
    return _nonzero(out)


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[int, ...]:
    """The bead ints of ``enumerate_partitions(n)``, in its order."""
    return tuple(map(to_beads, enumerate_partitions(n)))
