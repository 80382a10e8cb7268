"""Integer partitions, diagram cells and residues, and the multiplicity
bijection between odd-part and distinct-part partitions.

A partition is a plain tuple of weakly decreasing positive ints, e.g.
``(6, 4, 1)``; the empty partition is ``()``.  A cell of the diagram is a
1-based ``(row, column)`` pair.

The Fock layer keys its vectors by the bead int of a partition instead
(its Maya diagram or beta-set: Macdonald, Symmetric Functions and Hall
Polynomials, I.1 Ex. 8): row r of lam is a bead at bit lam_r - r +
len(lam).  Adding a cell moves one bead up one position and removing one
moves a bead down.  The residue of the cell that a bead at position p
adds or removes depends only on p and on the number of beads mod e, so
``addable_cells`` gives one constant mask per class of shapes with the
same bead count mod e, and a step masks each shape with its class's mask
(a bead removes a cell of residue one more than the cell it adds).
Transposing a shape reverses its complement (``conjugate_beads``).
``to_beads``/``from_beads`` convert at the edges.

Residue convention
------------------
The e-residue of the cell in row i, column j is ``(i - j) mod e``.  Much
of the literature uses ``j - i`` instead; the two conventions agree for
e = 2 and differ by relabelling i -> e - i otherwise.  Everything in this
package, including the CLI, uses ``i - j``.
"""

from collections import Counter
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]
Cell = tuple[int, int]


def check_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    t = tuple(parts)
    for i, part in enumerate(t):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"parts must be positive integers: {t!r}")
        if i and t[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing: {t!r}")
    return t


def sort_key(p: Partition):
    """Total order on partitions: by size, then lexicographically by parts
    in the same descending order used by enumerate_partitions."""
    return (sum(p), tuple(-part for part in p))


def format_partition(p: Partition) -> str:
    """Render as ``[6,4,1]`` (the empty partition is ``[]``)."""
    return "[" + ",".join(str(part) for part in p) + "]"


def check_odd_partition(mu) -> Partition:
    """Validate a partition whose parts are all odd (an index of the
    polynomial basis) and return it as a canonical tuple."""
    mu = check_partition(mu)
    if any(part % 2 == 0 for part in mu):
        raise ValueError(f"expected odd parts, got {mu!r}")
    return mu


def _parts(n, cap, odd):
    """The partitions of n with parts <= cap, descending lexicographically;
    with ``odd`` every part is odd."""
    if n == 0:
        yield ()
        return
    first = min(cap, n)
    if odd and first % 2 == 0:
        first -= 1
    for f in range(first, 0, -2 if odd else -1):
        for rest in _parts(n - f, f, odd):
            yield (f,) + rest


def enumerate_partitions(n: int, parts: str = "all") -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    ``parts`` is "all", or "odd" for the odd-part partitions that index
    the polynomial basis.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if parts not in ("all", "odd"):
        raise ValueError(f"unknown filter {parts!r}")
    return list(_parts(n, n, parts == "odd"))


def cell_residue(cell: Cell, e: int) -> int:
    """The e-residue (i - j) mod e of a 1-based cell (i, j)."""
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")
    i, j = cell
    return (i - j) % e


def _addable_corners(lam: Partition) -> list[Cell]:
    return [(r + 1, row + 1) for r, row in enumerate(lam)
            if r == 0 or lam[r - 1] > row] + [(len(lam) + 1, 1)]


def _removable_corners(lam: Partition) -> list[Cell]:
    return [(r + 1, row) for r, row in enumerate(lam)
            if r + 1 == len(lam) or lam[r + 1] < row]


def check_residue(i: int, e: int) -> None:
    """Raise ValueError unless e >= 1 and i is a residue mod e."""
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")
    if not 0 <= i < e:
        raise ValueError(f"residue {i} is not in 0..{e - 1}")


def to_beads(lam) -> int:
    """The bead int of a partition: bit lam_r - r + len(lam) is set for
    each row r = 1..len(lam).  Validates lam; () is 0."""
    lam = check_partition(lam)
    s = 0
    for r, part in enumerate(lam, start=1):
        s |= 1 << (part - r + len(lam))
    return s


def from_beads(s: int) -> Partition:
    """Inverse of to_beads: each bead is a part, as long as the number of
    empty positions below it."""
    if s < 0 or s & 1:
        raise ValueError(f"not a bead int: {s}")
    parts = []
    holes = 0
    while s:
        if s & 1:
            parts.append(holes)
        else:
            holes += 1
        s >>= 1
    return tuple(reversed(parts))


@lru_cache(maxsize=None)
def _residue_mask(e: int, r: int, width: int) -> int:
    """The bead positions p < width with p ≡ r (mod e)."""
    return sum(1 << p for p in range(r, width, e))


def addable_cells(i: int, e: int, width: int) -> list[int]:
    """The masks of the beads that can move up one position by adding a
    cell of residue i, entry b for the shapes with b beads mod e: a shape
    whose bead int s is below 2^width moves the beads of ``s & ~(s >> 1) &
    masks[s.bit_count() % e]``, and moving the bead at p to the empty
    position p + 1 gives ``s + (1 << p)``.

    The bead at p sits in row r = (beads at or above p), so the added cell
    (r, lam_r + 1) has residue (len(lam) - 1 - p) mod e, the same at p for
    every shape with as many beads mod e.  A new row, cell (len(lam) + 1,
    1), is not a bead move: it has residue len(lam) mod e and gives ``(s <<
    1) | 2``.  The width is rounded up to 64k - 1 bits, so that a few
    cached masks serve every call, and a shape has no more beads than bits,
    so the entries past b = width, never read, are not built, however large
    e is.  The caller validates i and e (``check_residue``);
    ``_addable_corners`` is the slow reference.
    """
    width |= 63
    return [_residue_mask(e, (b - 1 - i) % e, width)
            for b in range(min(e, width + 1))]


def conjugate_beads(s: int) -> int:
    """The bead int of the conjugate partition: the holes of s below its
    top bead, read from the top down, are the beads of the transpose."""
    width = s.bit_length()
    return int(f"{s ^ ((1 << width) - 1):0{width}b}"[::-1], 2) if s else 0


def z_mu(mu: Partition) -> int:
    """prod_k k^m_k * m_k! over the part multiplicities m_k of mu.

    This is the squared norm of the power-sum monomial indexed by mu; only
    odd-part mu occur in this package, and even parts are rejected so that
    mixed-parity bugs surface early.
    """
    out = 1
    for k, m in Counter(check_odd_partition(mu)).items():
        out *= k ** m * factorial(m)
    return out


def glaisher_odd_to_distinct(mu: Partition) -> Partition:
    """Glaisher's bijection: expand each multiplicity in binary.

    A part k occurring m = 2^(r1) + 2^(r2) + ... times (distinct powers)
    becomes the distinct parts 2^(r1)*k, 2^(r2)*k, ...
    """
    parts = []
    for k, m in Counter(check_odd_partition(mu)).items():
        r = 0
        while m:
            if m & 1:
                parts.append(k << r)
            m >>= 1
            r += 1
    return tuple(sorted(parts, reverse=True))


def glaisher_distinct_to_odd(nu: Partition) -> Partition:
    """Inverse of glaisher_odd_to_distinct: split each part as 2^r * k with
    k odd and give the part k multiplicity 2^r."""
    nu = check_partition(nu)
    if len(set(nu)) != len(nu):
        raise ValueError(f"expected distinct parts, got {nu!r}")
    counts: Counter = Counter()
    for part in nu:
        r = (part & -part).bit_length() - 1
        counts[part >> r] += 1 << r
    return tuple(sorted(counts.elements(), reverse=True))
