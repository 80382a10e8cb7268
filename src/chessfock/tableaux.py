"""Residue words, brute-force standard-tableau oracles, and
``check_levels``, the one level walk over the distinct images of the
binary words that every word suite runs on: it hands each level to a
per-length check.

The oracles enumerate explicitly: tableaux are built cell by cell as
growth chains of partitions.  That is deliberately naive -- these counts
are the ground truth that the operator models elsewhere in the package are
checked against -- so every oracle is capped at ``ORACLE_LIMIT`` cells.
"""

from math import factorial
from typing import Callable, Iterator

from .partitions import Partition, cell_residue, check_partition

#: A filled diagram: one tuple of entries per row, e.g. ((1, 2), (3,)).
Tableau = tuple[tuple[int, ...], ...]

#: The most cells a brute-force enumeration will accept.
ORACLE_LIMIT = 14


class OracleLimitError(RuntimeError):
    """A brute-force enumeration was asked for more than ORACLE_LIMIT cells."""


class ResidueWord:
    """A word over Z/eZ: the residues of the cells that received 1, 2, ...

    in a growing tableau.  ``ResidueWord(2, (0, 1, 0))`` is the length-3
    alternating word.  Immutable, equal and hashed by (e, letters); not a
    dataclass, the largest module the CLI's import would otherwise load.
    """

    __slots__ = ("e", "letters")

    def __init__(self, e: int, letters):
        if e < 1:
            raise ValueError(f"modulus must be >= 1, got {e}")
        letters = tuple(letters)
        for a in letters:
            if not (isinstance(a, int) and 0 <= a < e):
                raise ValueError(f"letter {a!r} is not a residue mod {e}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ResidueWord is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ResidueWord, (self.e, self.letters)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.e, self.letters) == (other.e, other.letters)

    def __hash__(self):
        return hash((self.e, self.letters))

    def __repr__(self):
        return f"ResidueWord(e={self.e!r}, letters={self.letters!r})"

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return ",".join(str(a) for a in self.letters)


def alternating_word(n: int) -> ResidueWord:
    """The length-n word 0,1,0,1,... over Z/2Z (the chess condition)."""
    return ResidueWord(2, tuple(k % 2 for k in range(n)))


def check_levels(n_max: int, step: Callable, start,
                 check: Callable) -> Iterator:
    """Yield ``check(n, level)`` for n = 1..n_max, where ``level`` lists
    the distinct nonzero images of the length-n binary words as (least
    word, image, words) triples, ordered by least word; ``words`` counts
    the length-n words that reach the image.  This is the one walk of the
    three word suites.  n_max < 1 raises on the first ``next``.

    Words act on ``start`` a level at a time: ``step(images, letter)``
    lists the images of the images, and a falsy one is the zero image.
    Every image is canonical and hashable (a sorted item tuple, a packed
    polynomial image, or a pair of them), so equal images are equal keys.
    Level n + 1 applies letters 0 and 1 in turn to each image of level n,
    in order, and keeps the first word that reaches each new image.  The
    least word reaching an image y is min over the images x and letters i
    that take x to y of (least word of x) + (i,), and that is the order of
    the visits, so the kept word is the least one.  The walk visits images,
    not words: words with equal images share all their extensions, and
    their counts add up.
    """
    if n_max < 1:
        raise ValueError(f"need n >= 1, got {n_max}")
    level = [((), start, 1)]
    for n in range(1, n_max + 1):
        seen: dict = {}
        images = [x for _, x, _ in level]
        for (letters, _, words), ys in zip(level, zip(step(images, 0),
                                                      step(images, 1))):
            for i, y in enumerate(ys):
                if y:
                    seen.setdefault(y, [letters + (i,), y, 0])[2] += words
        level = [tuple(state) for state in seen.values()]
        del seen                    # dead weight during the check
        yield check(n, level)


def _check_size(n: int) -> None:
    if n > ORACLE_LIMIT:
        raise OracleLimitError(
            f"refusing brute force on {n} cells (limit {ORACLE_LIMIT})")


def enumerate_syt(shape) -> list[Tableau]:
    """All standard tableaux of the given shape, by backtracking.

    Entries 1..n are placed in order; a cell is available when its row is
    still short of the shape and the cell above (if any) is already filled,
    so rows and columns increase automatically.
    """
    shape = check_partition(shape)
    n = sum(shape)
    _check_size(n)
    rows: list[list[int]] = [[] for _ in shape]
    out: list[Tableau] = []

    def place(k: int) -> None:
        if k > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for r, row in enumerate(rows):
            c = len(row)
            if c < shape[r] and (r == 0 or len(rows[r - 1]) > c):
                row.append(k)
                place(k + 1)
                row.pop()

    place(1)
    return out


def _entry_cells(tableau: Tableau) -> dict[int, tuple[int, int]]:
    pos = {}
    for r, row in enumerate(tableau, start=1):
        for c, entry in enumerate(row, start=1):
            pos[entry] = (r, c)
    n = len(pos)
    if sorted(pos) != list(range(1, n + 1)):
        raise ValueError("tableau entries must be exactly 1..n")
    return pos


def residue_word(tableau: Tableau, e: int) -> ResidueWord:
    """The e-residues of the cells holding 1, 2, ..., n."""
    pos = _entry_cells(tableau)
    return ResidueWord(e, tuple(cell_residue(pos[k], e) for k in range(1, len(pos) + 1)))


def is_chess(tableau: Tableau) -> bool:
    """Chessboard parity: the entry in row i, column j has the parity of
    i + j + 1, so the cell holding 1 is "grey" and colours alternate.

    Equivalent to the 2-residue word being alternating (tested both ways).
    """
    for r, row in enumerate(tableau, start=1):
        for c, entry in enumerate(row, start=1):
            if (entry - (r + c + 1)) % 2 != 0:
                return False
    return True


def count_by_residue(word: ResidueWord, shape) -> int:
    """The number of standard tableaux of the given shape whose e-residue
    sequence equals ``word``.

    Counted by growth-chain backtracking, pruned at the first letter that
    cannot be matched; equivalent to filtering enumerate_syt, and faster.
    """
    shape = check_partition(shape)
    if sum(shape) != len(word):
        raise ValueError(
            f"shape size {sum(shape)} differs from word length {len(word)}"
        )
    _check_size(len(word))
    e = word.e
    filled = [0] * len(shape)

    def grow(k: int) -> int:
        if k == len(word.letters):
            return 1
        target = word.letters[k]
        total = 0
        for r in range(len(shape)):
            c = filled[r]
            if c < shape[r] and (r == 0 or filled[r - 1] > c) \
                    and (r - c) % e == target:
                filled[r] += 1
                total += grow(k + 1)
                filled[r] -= 1
        return total

    return grow(0)


def _conjugate(shape: Partition) -> Partition:
    if not shape:
        return ()
    return tuple(sum(1 for row in shape if row > c) for c in range(shape[0]))


def hook_count(shape) -> int:
    """The number of standard tableaux of the shape, by the hook-length
    formula (exact integer division)."""
    shape = check_partition(shape)
    n = sum(shape)
    conj = _conjugate(shape)
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            hooks *= (row_len - c) + (conj[c] - r) - 1
    return factorial(n) // hooks
