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

At e = 2 the residue (i - j) mod 2 does not change under transposition,
so f_0 and f_1 commute with conjugation and every binary word's image of
the vacuum is conjugation-invariant.  ``cyclic_sums`` grows the
alternating image as a half vector: the same dict restricted to the
shapes with lam_1 >= len(lam), the bead ints with ``s.bit_length() >= 2 *
s.bit_count()``.  Its norm weights a shape 2 when lam_1 > len(lam), for
the shape and its dropped conjugate, and 1 when lam_1 = len(lam), where
both are kept.  The half vector serves only such conjugation-invariant
e = 2 walks from the empty partition; everything else uses full vectors.
"""

from typing import Iterator

from .partitions import (Partition, addable_cells, check_residue,
                         conjugate_beads, enumerate_partitions, from_beads,
                         removable_cells, to_beads)
from .tableaux import ResidueWord

FockVector = dict[int, int]


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
    for (s, c), free in zip(x.items(), addable_cells(x, i, e)):
        while free:
            low = free & -free
            grown = s ^ (low * 3)
            out[grown] = get(grown, 0) + c
            free ^= low
        if s.bit_count() % e == i:
            grown = (s << 1) | 2
            out[grown] = get(grown, 0) + c
    return _nonzero(out)


def apply_e(x: FockVector, i: int, e: int) -> FockVector:
    """Remove one cell of residue i in every possible way."""
    check_residue(i, e)
    out: FockVector = {}
    get = out.get
    for (s, c), free in zip(x.items(), removable_cells(x, i, e)):
        while free:
            low = free & -free
            shrunk = s ^ (low | low >> 1)
            if shrunk & 1:
                shrunk >>= 1
            out[shrunk] = get(shrunk, 0) + c
            free ^= low
    return _nonzero(out)


def _nonzero(out: FockVector) -> FockVector:
    """out without its zero terms; out itself when it has none."""
    return {k: v for k, v in out.items() if v} if 0 in out.values() else out


def _half_f(x: FockVector, i: int) -> FockVector:
    """f_i at e = 2 on the half vector of a conjugation-invariant vector
    whose coefficients are positive.

    A bead move keeps lam_1 >= len(lam), so every one is kept.  A new row
    stays in the half only from a strictly wide shape (wide = lam_1 -
    len(lam) >= 1) or from the empty one.  The one term that enters the
    half from a dropped conjugate is the transpose of that new row, cell
    (1, len(lam) + 1) of lam' for wide = 1, so it is added here as well.
    """
    out: FockVector = {}
    get = out.get
    for (s, c), free in zip(x.items(), addable_cells(x, i, 2)):
        while free:
            low = free & -free
            grown = s ^ (low * 3)
            out[grown] = get(grown, 0) + c
            free ^= low
        rows = s.bit_count()
        if rows & 1 == i:
            wide = s.bit_length() - 2 * rows
            if wide >= 1 or not s:
                grown = (s << 1) | 2
                out[grown] = get(grown, 0) + c
                if wide == 1:
                    grown = conjugate_beads(grown)
                    out[grown] = get(grown, 0) + c
    return out


def cyclic_sums(n_max: int, e: int) -> list[int]:
    """The pair sums <x, x> of the images x of the cyclic words 0, 1, ...,
    (n - 1) mod e for n = 1..n_max, from one growing vector: at e = 2 a
    half vector with its weighted norm, otherwise the full image, stepped
    by ``apply_f`` and paired by ``inner``."""
    sums = []
    x = basis(())
    for n in range(1, n_max + 1):
        if e == 2:
            x = _half_f(x, (n - 1) % 2)
            sums.append(sum(c * c << (s.bit_length() > 2 * s.bit_count())
                            for s, c in x.items()))
        else:
            x = apply_f(x, (n - 1) % e, e)
            sums.append(inner(x, x))
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


def gram_rows(vectors: list[FockVector]) -> Iterator[list[int]]:
    """Yield row a of the Gram matrix from the diagonal on:
    ``[inner(vectors[a], vectors[b]) for b in range(a, len(vectors))]``.

    Each partition's column of coefficients is packed into one integer,
    col_lam = sum_b c_{b,lam} * 2^(b*w), so row a is the single big-int
    sum  sum_lam c_{a,lam} * col_lam, whose slot b holds the pairing of
    vectors a and b.  Reading the slots off is exact when no slot carries
    into the next.  That holds for nonnegative coefficients, which tableau
    counts are: every partial sum in a slot then lies between 0 and the
    slot's final pairing, and by Cauchy-Schwarz that pairing is at most
    the largest squared norm, which a slot one bit wider than that norm
    holds.  A negative coefficient raises ArithmeticError.
    """
    largest = 0
    for x in vectors:
        if any(c < 0 for c in x.values()):
            raise ArithmeticError("gram_rows needs nonnegative coefficients")
        largest = max(largest, inner(x, x))
    width = largest.bit_length() // 8 + 1        # bytes per slot
    bits = 8 * width
    m = len(vectors)
    packed: dict[int, bytearray] = {}
    for b, x in enumerate(vectors):
        at = b * width
        for lam, c in x.items():
            col = packed.get(lam)
            if col is None:
                col = packed[lam] = bytearray(m * width)
            col[at:at + width] = c.to_bytes(width, "little")
    cols = {lam: int.from_bytes(col, "little") for lam, col in packed.items()}
    del packed
    mask = (1 << bits) - 1
    for a, x in enumerate(vectors):
        row = sum(c * cols[lam] for lam, c in x.items()) >> (a * bits)
        yield [(row >> shift) & mask for shift in range(0, (m - a) * bits, bits)]


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
        n = rng.randrange(max_degree + 1)
        shapes = enumerate_partitions(n)
        s = to_beads(shapes[rng.randrange(len(shapes))])
        out[s] = out.get(s, 0) + rng.randint(-9, 9)
    return _nonzero(out)
