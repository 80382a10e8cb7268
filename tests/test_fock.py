import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from chessfock.fock import (_class_f, _classes, apply_e, apply_f, apply_word,
                            basis, cyclic_sums, decode, gram_rows, half_step,
                            half_weight, inner, pack_columns, pair_sum,
                            random_vector, read_slots)
from chessfock.partitions import (_addable_corners, _removable_corners,
                                  cell_residue, enumerate_partitions, to_beads)
from chessfock.polyrep import _pack, z_key
from chessfock.tableaux import (ResidueWord, _conjugate, alternating_word,
                                check_levels)

ONE = Fraction(1)


def encoded(shapes):
    """A vector given on partition tuples, keyed by bead ints."""
    return {to_beads(lam): c for lam, c in shapes.items()}


def test_apply_f_single_cells():
    assert decode(apply_f(basis(()), 0, 2)) == {(1,): ONE}
    assert apply_f(basis(()), 1, 2) == {}
    assert decode(apply_f(basis((1,)), 1, 2)) == {(2,): ONE, (1, 1): ONE}
    assert apply_f(basis((1,)), 0, 2) == {}
    # all three corners of (2,1) have residue 0: (1,3), (2,2) and (3,1)
    assert decode(apply_f(basis((2, 1)), 0, 2)) == {
        (3, 1): ONE, (2, 2): ONE, (2, 1, 1): ONE}
    assert apply_f(basis((2, 1)), 1, 2) == {}


def test_apply_e_single_cells():
    assert decode(apply_e(basis((1,)), 0, 2)) == {(): ONE}
    assert apply_e(basis((1,)), 1, 2) == {}
    assert decode(apply_e(basis((2, 1)), 1, 2)) == {(1, 1): ONE, (2,): ONE}
    assert apply_e(basis(()), 0, 2) == {}


def test_linearity_and_cancellation():
    x = encoded({(1,): Fraction(2)})
    assert decode(apply_f(x, 1, 2)) == {(2,): Fraction(2), (1, 1): Fraction(2)}
    # coefficients that cancel must not leave explicit zeros behind
    y = encoded({(2,): ONE, (1, 1): -ONE})
    assert apply_e(y, 1, 2) == {}
    # (2) and (1,1) both reach (2,1) under f_1 and (1) under e_1
    x = encoded({(2,): 1, (1, 1): -1, (3,): 1})
    assert decode(apply_f(x, 1, 2)) == {(4,): 1, (3, 1): 1}
    assert apply_f(encoded({(2,): 1, (1, 1): -1}), 1, 2) == {}
    y = encoded({(2,): 1, (1, 1): -1, (2, 1): 1})
    assert decode(apply_e(y, 1, 2)) == {(2,): 1, (1, 1): 1}


def test_apply_word():
    assert decode(apply_word(ResidueWord(2, (0,)))) == {(1,): ONE}
    assert apply_word(ResidueWord(2, (1, 0))) == {}
    assert decode(apply_word(ResidueWord(2, (0, 1)))) == {(2,): ONE, (1, 1): ONE}
    # (2,2) supports no chess filling; the other four shapes have one each
    image = decode(apply_word(alternating_word(4)))
    assert image == {(4,): ONE, (3, 1): ONE, (2, 1, 1): ONE,
                     (1, 1, 1, 1): ONE}


def test_inner():
    x = {(2,): Fraction(3), (1, 1): ONE}
    y = {(2,): Fraction(1, 3)}
    assert inner(x, y) == 1
    assert inner(x, x) == 10
    assert inner({}, x) == 0


def test_pair_sum_examples():
    assert pair_sum(alternating_word(4), alternating_word(4)) == 4
    assert pair_sum(alternating_word(7), alternating_word(7)) == 48
    assert pair_sum(alternating_word(10), alternating_word(10)) == 2048
    assert pair_sum(ResidueWord(2, (0,)), ResidueWord(2, (1,))) == 0
    v = ResidueWord(2, (0, 1, 0))
    w = ResidueWord(2, (0, 1, 1))
    assert pair_sum(v, w) == 0
    assert pair_sum(w, w) == 4


def test_pair_sum_validation():
    with pytest.raises(ValueError):
        pair_sum(ResidueWord(2, (0,)), ResidueWord(2, (0, 1)))
    with pytest.raises(ValueError):
        pair_sum(ResidueWord(2, (0,)), ResidueWord(3, (0,)))


def test_modulus_one_gives_factorials():
    for n in range(11):
        w = ResidueWord(1, (0,) * n)
        assert pair_sum(w, w) == factorial(n)


def items(x):
    """The canonical image of a vector: its items, sorted by bead int."""
    return tuple(sorted(x.items()))


def fock_levels(n_max):
    """The word walk on full vectors, stepped by ``apply_f`` as item
    tuples; each level's images come back as dicts."""
    return check_levels(
        n_max, lambda xs, i: [items(apply_f(dict(x), i, 2)) for x in xs],
        items(basis(())), lambda n, level: [(w, dict(x), c) for w, x, c in level])


def test_word_images_agree_with_apply_word():
    levels = list(fock_levels(6))
    for n in (3, 6):
        # every word's own image, deduplicated in word order
        expected = {}
        for letters in itertools.product(range(2), repeat=n):
            image = apply_word(ResidueWord(2, letters))
            if image:
                key = tuple(sorted(image.items()))
                expected.setdefault(key, [letters, image, 0])[2] += 1
        assert levels[n - 1] == [tuple(state) for state in expected.values()]
        for _, image, _ in levels[n - 1]:
            assert all(c.denominator == 1 and c > 0 for c in image.values())
            assert all(sum(lam) == n for lam in decode(image))


def test_coefficients_are_ints():
    images = [apply_word(alternating_word(9))]
    images += [apply_word(ResidueWord(3, letters))
               for letters in itertools.product(range(3), repeat=7)]
    rng = random.Random(3)
    images += [random_vector(rng, 8) for _ in range(20)]
    assert all(type(c) is int for image in images for c in image.values())
    assert type(pair_sum(alternating_word(9), alternating_word(9))) is int


def test_grading():
    rng = random.Random(11)
    for _ in range(20):
        x = random_vector(rng, 7)
        for e in (2, 3):
            for i in range(e):
                up = decode(apply_f(x, i, e))
                down = decode(apply_e(x, i, e))
                degrees = {sum(lam) for lam in decode(x)}
                assert all(sum(lam) - 1 in degrees for lam in up)
                assert all(sum(lam) + 1 in degrees for lam in down)


def test_adjointness_randomized():
    rng = random.Random(7)
    for _ in range(40):
        e = rng.choice((1, 2, 3, 4, 5))
        i = rng.randrange(e)
        x = random_vector(rng, 9)
        y = random_vector(rng, 9)
        assert all(type(s) is int for s in (*x, *y))
        assert inner(apply_f(x, i, e), y) == inner(x, apply_e(y, i, e))


def moved(lam, cell, step):
    """lam with the corner cell added (step 1) or removed (step -1)."""
    rows = list(lam) + [0]
    rows[cell[0] - 1] += step
    return tuple(part for part in rows if part)


def test_operators_match_the_tuple_reference():
    # conjugation swaps residues i and -i and keeps every norm, so a
    # residue-sign slip would not show in the tables; compare vectors
    for n in range(13):
        for lam in enumerate_partitions(n):
            for e in range(1, 5):
                for i in range(e):
                    up = {moved(lam, c, 1): 1 for c in _addable_corners(lam)
                          if cell_residue(c, e) == i}
                    down = {moved(lam, c, -1): 1 for c in _removable_corners(lam)
                            if cell_residue(c, e) == i}
                    assert decode(apply_f(basis(lam), i, e)) == up
                    assert decode(apply_e(basis(lam), i, e)) == down


def test_operators_and_basis_validate():
    with pytest.raises(ValueError):
        basis([3, 5])
    with pytest.raises(ValueError):
        basis((2, 0))
    for bad_i, bad_e in ((2, 2), (-1, 3), (0, 0)):
        with pytest.raises(ValueError):
            apply_f(basis((1,)), bad_i, bad_e)
        with pytest.raises(ValueError):
            apply_e(basis((1,)), bad_i, bad_e)


def test_check_levels_keeps_the_least_word():
    # the level walk against a dedup of every word, in word order
    for n, level in enumerate(fock_levels(12), start=1):
        seen = {}
        for letters in itertools.product(range(2), repeat=n):
            image = apply_word(ResidueWord(2, letters))
            if image:
                key = tuple(sorted(image.items()))
                seen.setdefault(key, [letters, image, 0])[2] += 1
        assert level == [tuple(state) for state in seen.values()]


def conjugated(x):
    """x with every shape transposed, keyed by partition tuples."""
    return {_conjugate(lam): c for lam, c in decode(x).items()}


def test_binary_word_images_are_conjugation_invariant():
    # at e = 2 the residue (i - j) mod 2 is symmetric in i and j, so f_0
    # and f_1 commute with transposing every shape
    for level in fock_levels(12):
        for _, image, _ in level:
            assert conjugated(image) == decode(image)
    x = basis(())
    for n in range(1, 31):
        x = apply_f(x, (n - 1) % 2, 2)
        assert conjugated(x) == decode(x)


def halved(x):
    """x restricted to the shapes with lam_1 >= len(lam)."""
    return {s: c for s, c in x.items() if s.bit_length() >= 2 * s.bit_count()}


def test_half_walk_matches_the_full_walk():
    # the class step keeps every shape of the half in its class: rows mod
    # 2, strict or diagonal
    sums = cyclic_sums(30, 2)
    x, classes = basis(()), _classes(basis(()))
    for n in range(1, 31):
        x = apply_f(x, (n - 1) % 2, 2)
        classes = _class_f(classes, (n - 1) % 2)
        assert classes == _classes(halved(x))
        assert sums[n - 1] == inner(x, x)
    # the bound and cross-model suites step every binary word's image, not
    # only the alternating one's, with either letter, by half_step
    for level in fock_levels(12):
        for _, image, _ in level:
            for i in range(2):
                step = halved(apply_f(image, i, 2))
                assert _class_f(_classes(halved(image)), i) == _classes(step)
                assert half_step(items(halved(image)), i) == items(step)


def test_classes_split_the_half_by_row_parity_and_diagonal():
    shapes = [(), (1,), (2,), (2, 1), (3, 1), (2, 2), (3, 1, 1), (4, 1, 1)]
    x = {to_beads(lam): k for k, lam in enumerate(shapes, start=1)}
    assert [sorted(decode(part)) for part in _classes(x)] == [
        [(3, 1)], [(2,), (4, 1, 1)], [(), (2, 1), (2, 2)], [(1,), (3, 1, 1)]]


def test_half_step_matches_the_direct_step():
    for level in fock_levels(12):
        for _, image, _ in level:
            for i in range(2):
                direct = _class_f(_classes(halved(image)), i)
                assert half_step(items(halved(image)), i) == items(
                    {s: c for part in direct for s, c in part.items()})
    # letter 1 takes (2) and its dropped conjugate (1, 1) both to (2, 1)
    assert half_step(((to_beads((2,)), 3),), 1) == ((to_beads((2, 1)), 6),)
    assert half_step((), 0) == ()


def unit(key):
    """The weight of the plain pairing ``inner``."""
    return 1


def slot_rows(vectors, weight):
    """gram_rows of dict vectors, each packed row read back as its list
    of slots."""
    bits, rows = gram_rows([x.items() for x in vectors], weight)
    return [read_slots(row, len(vectors) - a, bits)
            for a, row in enumerate(rows)]


def test_gram_rows_match_inner():
    for level in fock_levels(10):
        vectors = [image for _, image, _ in level]
        rows = slot_rows(vectors, unit)
        assert len(rows) == len(vectors)
        for a, row in enumerate(rows):
            assert row == [inner(vectors[a], y) for y in vectors[a:]]
    # slots wide enough for a large norm, and an empty support
    big = [{(1,): 2 ** 40}, {(1,): 3, (2,): 2 ** 39}, {}]
    assert slot_rows(big, unit) == [
        [2 ** 80, 3 * 2 ** 40, 0], [9 + 2 ** 78, 0], [0]]
    assert slot_rows([], unit) == []


def test_gram_rows_and_columns_take_the_pairs_in_any_form():
    # one level's images as dict items, as sorted item tuples and as
    # reversed lists of pairs give the same rows and the same columns
    for level in fock_levels(10):
        vectors = [image for _, image, _ in level]
        bound = max(abs(c) for x in vectors for c in x.values())
        results = []
        for form in ([x.items() for x in vectors], [items(x) for x in vectors],
                     [list(items(x))[::-1] for x in vectors]):
            bits, rows = gram_rows(form, half_weight)
            results.append((bits, list(rows), pack_columns(form, bound)))
        assert results[0] == results[1] == results[2]


def test_gram_rows_pack_twos_complement_slots():
    # a norm of 3 * 2^12 takes two-byte slots, and its negative pairing
    # -3 * 2^12 is near -2^(bits - 2); a zero vector gives an all-zero row
    x = ((to_beads((1,)), 64), (to_beads((2,)), 64))
    bits, rows = gram_rows([x, tuple((k, -c) for k, c in x), ()], half_weight)
    assert bits == 16
    assert list(rows) == [3 << 12 | (2 ** 16 - (3 << 12)) << 16,
                          3 << 12, 0]
    assert read_slots(3 << 12 | (2 ** 16 - (3 << 12)) << 16, 3, 16) == [
        3 << 12, -(3 << 12), 0]
    # a multiple of 256 leaves the low byte of its slot zero
    bits, rows = gram_rows([((1, 16),), ((1, 1),)], unit)
    assert bits == 16 and list(rows) == [256 | 16 << 16, 1]


def test_pack_columns_size_slots_two_bits_over_the_bound():
    # two bits over the bound's bit length, in whole bytes
    for length, bits in ((1, 8), (6, 8), (7, 16), (14, 16), (15, 24),
                         (22, 24), (23, 32)):
        bound = (1 << length) - 1
        assert pack_columns([], bound)[0] == bits
        assert pack_columns([], 1 << length - 1)[0] == bits
    assert pack_columns([], 0)[0] == 8
    # a sum of columns reaching exactly +-bound in a slot reads back exactly,
    # at every width, and so does every coefficient
    for bound in (63, 64, 2 ** 14 - 1, 2 ** 14, 3 ** 30):
        vectors = [((1, bound),), ((1, -bound), (2, bound)), ((2, -bound),),
                   ((1, 1), (2, -1))]
        bits, bias, cols = pack_columns(vectors, bound)
        assert bias == sum(1 << bits * b + bits - 1 for b in range(4))
        assert read_slots(cols[1] + bias ^ bias, 4, bits) == [
            bound, -bound, 0, 1]
        assert read_slots(cols[1] + cols[2] + bias ^ bias, 4, bits) == [
            bound, 0, -bound, 0]
        assert read_slots(-cols[1] - cols[2] + bias ^ bias, 4, bits) == [
            -bound, 0, bound, 0]


def weighted_inner(x, y, weight):
    return sum(weight(k) * c * y[k] for k, c in x.items() if k in y)


def test_gram_rows_are_signed_and_weighted():
    rng = random.Random(3)
    fock_vectors = [random_vector(rng, 7) for _ in range(20)]
    odd_keys = [_pack(mu) for n in range(8)
                for mu in enumerate_partitions(n, "odd")]
    poly_vectors = [{rng.choice(odd_keys): rng.randint(-9, 9) or 1
                     for _ in range(5)} for _ in range(20)]
    # a norm above 2^64, with entries of both signs
    big = {to_beads((2,)): -(2 ** 40), to_beads((1, 1)): 3 * 2 ** 39}
    for vectors, weight in ((fock_vectors, lambda k: 1),
                            (fock_vectors + [big, {}], half_weight),
                            (poly_vectors, z_key)):
        assert any(c < 0 for x in vectors for c in x.values())
        rows = slot_rows(vectors, weight)
        assert len(rows) == len(vectors)
        for a, row in enumerate(rows):
            assert row == [weighted_inner(vectors[a], y, weight)
                           for y in vectors[a:]]
    assert slot_rows([big, {}], half_weight) == [
        [2 * 2 ** 80 + 9 * 2 ** 78, 0], [0]]
