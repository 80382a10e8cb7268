import pytest
from hypothesis import given
from hypothesis import strategies as st

from chessfock.arith import tri_count, vp
from chessfock.partitions import (addable_cells, cell_residue,
                                  check_partition, check_residue,
                                  conjugate_beads,
                                  enumerate_partitions, format_partition,
                                  from_beads, glaisher_distinct_to_odd,
                                  glaisher_odd_to_distinct,
                                  sort_key, to_beads, z_mu,
                                  _addable_corners, _removable_corners,
                                  _residue_mask)
from chessfock.tableaux import _conjugate


def partition_count(n):
    """Oracle: p(n) by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p[n]


def distinct_parts(n):
    """Oracle: the partitions of n into distinct parts, filtered from all
    of them in enumeration order."""
    return [nu for nu in enumerate_partitions(n) if len(set(nu)) == len(nu)]


def test_counts_match_pentagonal_recurrence():
    for n in range(31):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_enumeration_rejects_a_negative_size():
    with pytest.raises(ValueError, match="cannot partition -1"):
        enumerate_partitions(-1)


def test_enumeration_order_is_descending_lex():
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0) == [()]
    for n in range(12):
        shapes = enumerate_partitions(n)
        assert shapes == sorted(shapes, reverse=True)
        assert len(set(shapes)) == len(shapes)


def test_filters():
    assert enumerate_partitions(5, "odd") == [(5,), (3, 1, 1), (1, 1, 1, 1, 1)]
    assert distinct_parts(5) == [(5,), (4, 1), (3, 2)]
    for n in range(31):
        shapes = enumerate_partitions(n)
        odd = enumerate_partitions(n, "odd")
        # the filter is the matching sublist of all partitions, in order
        assert odd == [mu for mu in shapes if all(part % 2 for part in mu)]
        # Euler: equinumerous (also forced by the Glaisher round trip below)
        assert len(odd) == len(distinct_parts(n))
    for bad in ("prime", "distinct"):
        with pytest.raises(ValueError, match="unknown filter"):
            enumerate_partitions(4, bad)


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    for bad in [(1, 2), (0,), (-1,), (2.5,)]:
        with pytest.raises(ValueError):
            check_partition(bad)


def test_format_parse_round_trip():
    assert format_partition((6, 4, 1)) == "[6,4,1]"
    assert format_partition(()) == "[]"


def test_sort_key_orders_by_size_then_enumeration():
    everything = []
    for n in range(8):
        everything.extend(enumerate_partitions(n))
    assert sorted(everything, key=sort_key) == everything


def test_cell_residue():
    assert cell_residue((1, 1), 2) == 0
    assert cell_residue((1, 2), 2) == 1
    assert cell_residue((2, 1), 2) == 1
    assert cell_residue((1, 3), 3) == 1  # (1-3) mod 3
    assert cell_residue((4, 2), 3) == 2
    assert cell_residue((5, 3), 1) == 0
    with pytest.raises(ValueError):
        cell_residue((1, 1), 0)


def bead_cells(s, beads, column_shift):
    """The cells, top row first, whose addition (column_shift 1) or
    removal (column_shift 0) moves each bead of the mask ``beads``."""
    lam = from_beads(s)
    return [(r, part + column_shift) for r, part in enumerate(lam, start=1)
            if beads >> (part - r + len(lam)) & 1]


def up(s, i, e):
    """The beads of s that adding a cell of residue i moves, read off the
    mask of its class."""
    return s & ~(s >> 1) & addable_cells(i, e, s.bit_length())[s.bit_count() % e]


def down(s, i, e):
    """The beads of s that removing a cell of residue i moves: a bead at p
    removes a cell of residue one more than the one it adds."""
    masks = addable_cells((i - 1) % e, e, s.bit_length())
    return s & ~(s << 1) & masks[s.bit_count() % e]


def added_cells(lam, i, e):
    """Every addable cell of residue i, read off the bead masks."""
    s = to_beads(lam)
    new_row = [(len(lam) + 1, 1)] if len(lam) % e == i else []
    return bead_cells(s, up(s, i, e), 1) + new_row


def removed_cells(lam, i, e):
    s = to_beads(lam)
    return bead_cells(s, down(s, i, e), 0)


def test_beads_round_trip():
    assert to_beads(()) == 0
    assert to_beads((1,)) == 0b10
    assert to_beads((3, 1)) == 0b10010
    assert to_beads((2, 2)) == 0b1100
    for n in range(21):
        for lam in enumerate_partitions(n):
            s = to_beads(lam)
            assert s & 1 == 0 and s.bit_count() == len(lam)
            assert from_beads(s) == lam
    for bad in ([3, 5], [2, 0], [-1]):
        with pytest.raises(ValueError):
            to_beads(bad)
    for bad in (-2, 1, 0b111):
        with pytest.raises(ValueError):
            from_beads(bad)


def test_boundary_cells_examples():
    assert up(to_beads(()), 0, 2) == 0                 # only the new row
    assert added_cells((), 0, 2) == [(1, 1)]
    assert added_cells((), 1, 2) == []
    assert added_cells((1,), 0, 2) == []
    assert up(to_beads((1,)), 1, 2) == 0b10
    assert added_cells((1,), 1, 2) == [(1, 2), (2, 1)]
    assert down(to_beads((2, 1)), 1, 2) == 0b1010
    # at e = 2 residue 1 is added at the odd positions of an even number of
    # beads and at the even ones of an odd number, and removed the other
    # way round
    odd, even = _residue_mask(2, 1, 63), _residue_mask(2, 0, 63)
    assert addable_cells(1, 2, 5) == [even, odd]
    assert addable_cells(0, 2, 5) == [odd, even]
    assert removed_cells((2, 1), 1, 2) == [(1, 2), (2, 1)]
    assert removed_cells((2, 1), 0, 2) == []
    with pytest.raises(ValueError):
        check_residue(2, 2)
    with pytest.raises(ValueError):
        check_residue(0, 0)


def test_boundary_residues_partition_the_corners():
    for n in range(10):
        for lam in enumerate_partitions(n):
            for e in (1, 2, 3):
                add = [c for i in range(e) for c in added_cells(lam, i, e)]
                rem = [c for i in range(e) for c in removed_cells(lam, i, e)]
                assert sorted(add) == sorted(_addable_corners(lam))
                assert sorted(rem) == sorted(_removable_corners(lam))


def test_addable_cells_match_the_corner_filter():
    cases = [(n, e, range(e)) for n in range(21) for e in range(1, 5)]
    # moduli far past any shape's width, where most residues have no cell
    cases += [(n, e, (0, 1, e - 1)) for n in range(13) for e in (10**6, 10**18)]
    for n, e, residues in cases:
        for lam in enumerate_partitions(n):
            for i in residues:
                assert added_cells(lam, i, e) == [
                    c for c in _addable_corners(lam) if cell_residue(c, e) == i]
                assert removed_cells(lam, i, e) == [
                    c for c in _removable_corners(lam) if cell_residue(c, e) == i]


def test_a_large_modulus_builds_masks_only_for_bead_counts_that_occur():
    # a shape has at most width beads, so a call needs at most width + 1
    # masks, not one per residue class mod e
    width = 63                      # the masks of small shapes
    before = _residue_mask.cache_info().currsize
    masks = addable_cells(1, 10**5, to_beads((5, 3, 1)).bit_length())
    assert len(masks) == width + 1
    assert _residue_mask.cache_info().currsize - before <= width + 1


def test_add_remove_are_inverse():
    for n in range(10):
        for lam in enumerate_partitions(n):
            s = to_beads(lam)
            for e in (2, 3):
                for i in range(e):
                    free = up(s, i, e)
                    for p in range(s.bit_length()):
                        if not free >> p & 1:
                            continue
                        bigger = s ^ (3 << p)
                        assert bigger == s + (1 << p)
                        assert sum(from_beads(bigger)) == n + 1
                        assert down(bigger, i, e) >> (p + 1) & 1
                        assert bigger ^ (3 << p) == s


def test_one_mask_list_serves_shapes_of_every_width():
    # the masks built for the widest shape, past the 63-bit masks, give
    # every narrower shape the cells of the corner filter
    shapes = [lam for n in range(9) for lam in enumerate_partitions(n)]
    shapes += [(70,), (1,) * 70, (40, 30, 3, 1), (64,)]
    width = max(map(to_beads, shapes)).bit_length()
    for e in (1, 2, 3, 4):
        for i in range(e):
            masks = (addable_cells(i, e, width),
                     addable_cells((i - 1) % e, e, width))
            assert len(masks[0]) == len(masks[1]) == e
            for lam in shapes:
                s = to_beads(lam)
                mask_up, mask_down = (m[s.bit_count() % e] for m in masks)
                assert bead_cells(s, s & ~(s >> 1) & mask_up, 1) == [
                    c for c in _addable_corners(lam)[:-1]
                    if cell_residue(c, e) == i]
                assert bead_cells(s, s & ~(s << 1) & mask_down, 0) == [
                    c for c in _removable_corners(lam) if cell_residue(c, e) == i]
    # the empty vector's step still indexes the class of no beads
    assert len(addable_cells(0, 2, 0)) == len(addable_cells(1, 2, 0)) == 2


def test_conjugate_beads():
    assert conjugate_beads(0) == 0
    assert conjugate_beads(to_beads((3, 1))) == to_beads((2, 1, 1))
    for n in range(17):
        for lam in enumerate_partitions(n):
            s = to_beads(lam)
            assert from_beads(conjugate_beads(s)) == _conjugate(lam)
            assert conjugate_beads(conjugate_beads(s)) == s


def test_z_mu():
    assert z_mu(()) == 1
    assert z_mu((1, 1)) == 2
    assert z_mu((3, 1, 1)) == 6
    assert z_mu((3, 3)) == 18
    assert z_mu((5, 3, 1, 1, 1)) == 5 * 3 * 6
    with pytest.raises(ValueError):
        z_mu((2,))
    with pytest.raises(ValueError):
        z_mu((4, 1))


def test_glaisher_examples():
    assert glaisher_odd_to_distinct((1, 1, 1)) == (2, 1)
    assert glaisher_odd_to_distinct((5,)) == (5,)
    assert glaisher_odd_to_distinct((3, 3, 1)) == (6, 1)
    assert glaisher_distinct_to_odd((6, 1)) == (3, 3, 1)
    assert glaisher_distinct_to_odd((4,)) == (1, 1, 1, 1)
    assert glaisher_odd_to_distinct(()) == ()
    with pytest.raises(ValueError):
        glaisher_odd_to_distinct((2, 1))
    with pytest.raises(ValueError):
        glaisher_distinct_to_odd((3, 3))


def test_glaisher_round_trip_and_key_identity():
    # round trip, size preservation, and len(mu) - v2(z_mu) = len(image) <= a(n)
    for n in range(1, 31):
        odd = enumerate_partitions(n, "odd")
        images = set()
        for mu in odd:
            nu = glaisher_odd_to_distinct(mu)
            assert sum(nu) == n
            assert len(set(nu)) == len(nu)
            assert glaisher_distinct_to_odd(nu) == mu
            images.add(nu)
            assert len(mu) - vp(z_mu(mu), 2) == len(nu)
            assert len(nu) <= tri_count(n)
        assert images == set(distinct_parts(n))


@given(st.integers(min_value=0, max_value=24), st.data())
def test_glaisher_round_trips_from_either_side(n, data):
    nu = data.draw(st.sampled_from(distinct_parts(n)))
    assert glaisher_odd_to_distinct(glaisher_distinct_to_odd(nu)) == nu
