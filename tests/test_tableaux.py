import copy
import pickle
from collections import Counter
from itertools import product

import pytest

from chessfock.partitions import enumerate_partitions
from chessfock.tableaux import (ORACLE_LIMIT, OracleLimitError,
                                ResidueWord, Tableau, alternating_word,
                                check_levels, count_by_residue, enumerate_syt,
                                hook_count, is_chess, residue_word)

# the (6,4,1) chess filling used as the running example
CHESS_11: Tableau = ((1, 2, 3, 6, 7, 10), (4, 5, 8, 9), (11,))


def involution_count(n):
    """Oracle: I(n) = I(n-1) + (n-1) I(n-2); total SYT over shapes of n."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b if n else 1


def is_standard(t: Tableau) -> bool:
    entries = [x for row in t for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(1, len(t)):
        if len(t[r]) > len(t[r - 1]):
            return False
        if any(t[r - 1][c] >= t[r][c] for c in range(len(t[r]))):
            return False
    return True


def test_residue_word_validation():
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        ResidueWord(0, ())
    with pytest.raises(ValueError, match=r"^letter 2 is not a residue mod 2$"):
        ResidueWord(2, (0, 2))
    with pytest.raises(ValueError, match=r"^letter '0' is not a residue mod 3$"):
        ResidueWord(3, ["0"])
    with pytest.raises(ValueError, match=r"^letter -1 is not a residue mod 3$"):
        ResidueWord(3, (-1,))
    w = ResidueWord(2, [0, 1])  # coerced to a tuple
    assert w.letters == (0, 1)
    assert len(w) == 2
    assert str(w) == "0,1"


def test_residue_word_is_a_frozen_value():
    w = ResidueWord(2, [0, 1])
    assert w == ResidueWord(2, (0, 1)) and hash(w) == hash(ResidueWord(2, (0, 1)))
    assert w != ResidueWord(3, (0, 1)) and w != ResidueWord(2, (1, 0))
    assert w != (2, (0, 1))
    assert len({w, ResidueWord(2, (0, 1)), ResidueWord(2, ())}) == 2
    assert repr(w) == "ResidueWord(e=2, letters=(0, 1))"
    assert repr(ResidueWord(1, ())) == "ResidueWord(e=1, letters=())"
    for name, value in (("e", 3), ("letters", (1, 1)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    with pytest.raises(AttributeError):
        del w.e
    assert w.e == 2 and w.letters == (0, 1)
    assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w


def test_word_helpers():
    assert alternating_word(4).letters == (0, 1, 0, 1)
    assert alternating_word(0).letters == ()


def test_enumerate_syt_small():
    assert enumerate_syt(()) == [()]
    assert enumerate_syt((1,)) == [((1,),)]
    two_one = enumerate_syt((2, 1))
    assert len(two_one) == 2
    assert ((1, 2), (3,)) in two_one and ((1, 3), (2,)) in two_one
    assert len(enumerate_syt((2, 2))) == 2
    for t in enumerate_syt((3, 2, 1)):
        assert is_standard(t)


def test_enumerate_syt_respects_limit():
    # both oracles accept ORACLE_LIMIT = 14 cells and refuse 15
    assert len(enumerate_syt((14,))) == 1
    assert count_by_residue(alternating_word(14), (14,)) == 1
    with pytest.raises(OracleLimitError):
        enumerate_syt((8, 7))
    with pytest.raises(OracleLimitError):
        count_by_residue(alternating_word(15), (15,))


def test_hook_count_matches_enumeration():
    assert hook_count(()) == 1
    assert hook_count((5,)) == 1
    assert hook_count((2, 1)) == 2
    assert hook_count((2, 2)) == 2
    # hooks of (6,4,1): 8,6,5,4,2,1 / 5,3,2,1 / 1 -> 11!/57600
    assert hook_count((6, 4, 1)) == 693
    assert len(enumerate_syt((6, 4, 1))) == 693
    for n in range(11):
        total = 0
        for lam in enumerate_partitions(n):
            count = hook_count(lam)
            assert count == len(enumerate_syt(lam))
            total += count
        assert total == involution_count(n)


def test_residue_word_examples():
    assert residue_word(((1, 2, 3),), 3).letters == (0, 2, 1)
    assert residue_word(((1,), (2,), (3,)), 2).letters == (0, 1, 0)
    assert residue_word(CHESS_11, 2) == alternating_word(11)
    with pytest.raises(ValueError):
        residue_word(((1, 3),), 2)  # entries not 1..n


def test_is_chess_examples():
    assert is_chess(CHESS_11)
    assert is_chess(((1,),))
    assert is_chess(())
    # entry 3 sits on the wrong colour at (1,2)
    assert not is_chess(((1, 3), (2, 4)))
    # the 2x2 square has no chess filling at all: (1,1) and (2,2) share a
    # colour, so both entries must be odd, yet they always hold 1 and 4
    assert not is_chess(((1, 2), (3, 4)))
    assert is_chess(((1, 2, 3), (4,)))


def test_chess_iff_alternating_word():
    for n in range(9):
        for lam in enumerate_partitions(n):
            for t in enumerate_syt(lam):
                assert is_chess(t) == (residue_word(t, 2) == alternating_word(n))


def test_chess_counts_small():
    # no chess filling of (2,1): both SYT put an odd entry on a white cell
    assert count_by_residue(alternating_word(3), (2, 1)) == 0
    assert sum(is_chess(t) for t in enumerate_syt((2, 1))) == 0
    # ... but the n=3 hook shapes each have one
    assert count_by_residue(alternating_word(3), (3,)) == 1
    assert count_by_residue(alternating_word(3), (1, 1, 1)) == 1
    assert count_by_residue(alternating_word(11), (6, 4, 1)) >= 1


def test_count_by_residue_examples():
    assert count_by_residue(ResidueWord(2, (0,)), (1,)) == 1
    assert count_by_residue(ResidueWord(2, (1,)), (1,)) == 0
    with pytest.raises(ValueError):
        count_by_residue(ResidueWord(2, (0, 1)), (1,))


def test_count_by_residue_equals_filtering():
    for n in range(8):
        for lam in enumerate_partitions(n):
            tableaux = enumerate_syt(lam)
            by_word = Counter(residue_word(t, 2).letters for t in tableaux)
            for letters in product(range(2), repeat=n):
                expected = by_word.get(letters, 0)
                assert count_by_residue(ResidueWord(2, letters), lam) == expected
            # and for a coarser modulus
            by_word3 = Counter(residue_word(t, 3).letters for t in tableaux)
            for letters, count in by_word3.items():
                assert count_by_residue(ResidueWord(3, letters), lam) == count


def test_counts_sum_to_hook_count():
    # summing C_e(v, lam) over all words recovers the tableau count
    for lam in [(3, 2), (4, 2, 1), (2, 2, 2), (5, 3, 1, 1)]:
        n = sum(lam)
        for e in (1, 2):
            total = sum(count_by_residue(ResidueWord(e, w), lam)
                        for w in product(range(e), repeat=n))
            assert total == hook_count(lam)


def test_default_limit_is_fourteen():
    assert ORACLE_LIMIT == 14


def test_check_levels_walks_once_in_word_order():
    calls = []

    def check(n, level):
        calls.append(n)
        return n, level

    # with the image the word itself, each level is every word, in order
    reports = check_levels(3, lambda xs, i: [x + (i,) for x in xs], (),
                           check, key=lambda y: y)
    assert calls == []
    assert next(reports) == (1, [((0,), (0,), 1), ((1,), (1,), 1)])
    assert [level for _, level in reports] == [
        [(w, w, 1) for w in product(range(2), repeat=n)] for n in (2, 3)]
    assert calls == [1, 2, 3]
    for bad in (0, -1):
        reports = check_levels(bad, lambda xs, i: [x + (i,) for x in xs], (),
                               check)
        with pytest.raises(ValueError, match=f"need n >= 1, got {bad}"):
            next(reports)
