import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, lcm, perm, prod
from pathlib import Path

import pytest

from chessfock import delta, experiments, fock, polyrep
from chessfock.fock import (apply_f, apply_word, basis, inner, pack_columns,
                            pair_sum)
from chessfock.delta import delta_valuation
from chessfock.partitions import (enumerate_partitions,
                                  glaisher_odd_to_distinct, z_mu)
from chessfock.polyrep import (GENERATORS, IMAGE_ONE, _a_state, _column,
                               _ints, _pack, _poly, _q_column, _q_star,
                               _q_times, _sub_monomials, _unpack,
                               adjoint_monomial, apply_letter, apply_word_poly,
                               check_degree, inner_poly, mul_monomial, op_a,
                               op_generator, op_series, poly_add, poly_scale,
                               random_poly, top_degree)
from chessfock.tableaux import ResidueWord, alternating_word, check_levels

F = Fraction
ONE = {(): F(1)}
P1 = {(1,): F(1)}


def test_poly_helpers():
    assert top_degree({}) == -1
    assert top_degree(ONE) == 0
    assert top_degree({(3, 1): F(1), (1,): F(5)}) == 4
    assert poly_add(P1, poly_scale(P1, F(-1))) == {}


def test_scaling_by_zero_gives_the_zero_poly():
    assert poly_scale({(3, 1): F(2), (1,): F(5)}, F(0)) == {}


def test_mul_monomial():
    assert mul_monomial(ONE, (1,)) == P1
    assert mul_monomial({(3, 1): F(2)}, (5, 1)) == {(5, 3, 1, 1): F(2)}
    with pytest.raises(ValueError):
        mul_monomial(ONE, (2,))


def test_adjoint_monomial():
    # p1* = d/dp1, p3* = 3 d/dp3
    assert adjoint_monomial(P1, (1,)) == ONE
    assert adjoint_monomial({(3,): F(1)}, (3,)) == {(): F(3)}
    assert adjoint_monomial({(1, 1): F(1)}, (1,)) == {(1,): F(2)}
    assert adjoint_monomial({(3, 3): F(1)}, (3, 3)) == {(): F(18)}
    assert adjoint_monomial(P1, (3,)) == {}
    # multiplicity bookkeeping: p_{(3,1)}* (p_{(3,3,1,1)}) = 3*2 * 1*2 * p_{(3,1)}
    assert adjoint_monomial({(3, 3, 1, 1): F(1)}, (3, 1)) == {(3, 1): F(12)}


def test_odd_part_checks_reject_even_parts():
    for bad in [(2,), (4, 1), (1, 3), (2, 2)]:
        for check in (z_mu, glaisher_odd_to_distinct,
                      lambda mu: mul_monomial(ONE, mu),
                      lambda mu: adjoint_monomial(ONE, mu),
                      lambda mu: delta_valuation({mu: F(1)})):
            with pytest.raises(ValueError):
                check(bad)


def test_q_small():
    # q_n's one table: its terms 2^len(mu) / z_mu, in enumeration order,
    # over the lcm of their reduced denominators
    p1, p3 = _pack((1,)), _pack((3,))
    assert _q_column(0) == (1, ((0, 1),))
    assert _q_column(1) == (1, ((p1, 2),))
    assert _q_column(2) == (1, ((2 * p1, 2),))
    assert _q_column(3) == (3, ((p3, 2), (3 * p1, 4)))
    for n in range(21):
        den, items = _q_column(n)
        q = {mu: F(2 ** len(mu), z_mu(mu))
             for mu in enumerate_partitions(n, "odd")}
        assert [_unpack(key) for key, _ in items] == list(q)
        assert _poly(den, items) == q
        assert den == lcm(*(c.denominator for c in q.values()))


def test_random_poly_draws_are_pinned():
    # each monomial is drawn from q_n's table, in its enumeration order
    draws = {
        (0, 9): {(1,): F(8, 5), (1, 1): F(-6), (1,) * 6: F(-4),
                 (3, 3, 1): F(9), (3, 3, 1, 1): F(3, 2)},
        (1, 9): {(1, 1): F(-1), (1,) * 6: F(-3), (3,): F(6), (3, 1): F(9),
                 (3, 1, 1, 1, 1): F(2), (5,): F(-9)},
        (2, 9): {(): F(-17, 6), (1, 1): F(-1, 5), (1,) * 6: F(7, 2),
                 (3,): F(9), (3, 3, 1, 1): F(7, 2)},
        (5, 0): {(): F(12)},
        (5, 12): {(): F(-2), (1, 1): F(2, 3), (1, 1, 1): F(8),
                  (3, 1, 1, 1): F(-4, 3), (3, 3, 3): F(2, 5),
                  (5, 1, 1, 1, 1): F(-9)},
    }
    for (seed, max_degree), f in draws.items():
        assert random_poly(random.Random(seed), max_degree) == f


def test_inner_poly():
    assert inner_poly(ONE, ONE) == 1
    assert inner_poly(P1, P1) == 1
    assert inner_poly({(1, 1): F(1)}, {(1, 1): F(1)}) == 2
    assert inner_poly({(3,): F(1)}, {(3,): F(1)}) == 3
    assert inner_poly({(3,): F(1)}, {(1, 1, 1): F(1)}) == 0
    # distinct monomials are orthogonal (delta.verify_pairing relies on it)
    for n in range(9):
        for mu in enumerate_partitions(n, "odd"):
            for nu in enumerate_partitions(n, "odd"):
                expected = z_mu(mu) if mu == nu else 0
                assert inner_poly({mu: F(1)}, {nu: F(1)}) == expected


def test_inner_poly_matches_a_fraction_sum():
    rng = random.Random(29)
    for _ in range(60):
        f = poly_add(random_poly(rng, 7), random_poly(rng, 7))
        g = poly_add(random_poly(rng, 7), random_poly(rng, 7))
        expected = sum((c * g[mu] * z_mu(mu) for mu, c in f.items() if mu in g),
                       F(0))
        value = inner_poly(f, g)
        assert isinstance(value, F) and value == expected
    assert isinstance(inner_poly({}, P1), F) and inner_poly({}, P1) == 0


def test_generators_on_constants():
    assert op_generator("f0", ONE) == P1
    assert op_generator("f1", ONE) == {}
    assert op_generator("e0", ONE) == {}
    assert op_generator("e1", ONE) == {}
    assert op_generator("f0", {}) == {}
    for apply in (op_generator, op_series):
        for gen in ("f2", "zz"):
            with pytest.raises(ValueError, match="unknown generator"):
                apply(gen, ONE)


def test_generators_degree_one():
    # f0 kills p1 (no residue-0 cell can be added to a single box)
    assert op_generator("f0", P1) == {}
    assert op_generator("f1", P1) == {(1, 1): F(1)}
    assert op_generator("e0", P1) == ONE
    assert op_generator("e1", P1) == {}


def test_generator_sums_are_p1_operators():
    rng = random.Random(3)
    for _ in range(15):
        f = random_poly(rng, 9)
        fsum = poly_add(op_generator("f0", f), op_generator("f1", f))
        esum = poly_add(op_generator("e0", f), op_generator("e1", f))
        assert fsum == mul_monomial(f, (1,))
        assert esum == adjoint_monomial(f, (1,))


def test_generators_shift_degree_by_one():
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(rng, 8)
        for gen in GENERATORS:
            image = op_generator(gen, f)
            shift = 1 if gen.startswith("f") else -1
            degrees = {sum(mu) for mu in f}
            assert all(sum(mu) - shift in degrees for mu in image)


def test_adjointness_randomized():
    rng = random.Random(13)
    keys = [(1,), (3,), (1, 1), (3, 1), (5,), (3, 3), (5, 1, 1)]
    for _ in range(40):
        f = random_poly(rng, 10)
        g = random_poly(rng, 10)
        mu = keys[rng.randrange(len(keys))]
        assert inner_poly(mul_monomial(f, mu), g) == \
            inner_poly(f, adjoint_monomial(g, mu))


def test_op_a_examples():
    assert op_a(-1, ONE) == {(1,): F(-1)}
    assert op_a(1, ONE) == {}
    assert op_a(1, P1) == ONE
    # the zero polynomial leaves the range of a empty, or sums zero terms
    for j in range(-3, 4):
        assert op_a(j, {}) == {} and op_a(j, {}, terms=4) == {}
    # A_{-1} = f1 - f0 and A_1 = e0 - e1, on random inputs
    rng = random.Random(17)
    for _ in range(10):
        f = random_poly(rng, 8)
        assert op_a(-1, f) == poly_add(op_generator("f1", f),
                                       poly_scale(op_generator("f0", f), -1))
        assert op_a(1, f) == poly_add(op_generator("e0", f),
                                      poly_scale(op_generator("e1", f), -1))


def test_op_a_contravariance():
    # <A_j f, g> = (-1)^j <f, A_{-j} g>; the sign is - for odd j, + for even
    rng = random.Random(19)
    for _ in range(12):
        f = random_poly(rng, 6)
        g = random_poly(rng, 6)
        for j in range(-3, 4):
            sign = -1 if j % 2 else 1  # (-1) ** j would be a float for j < 0
            lhs = inner_poly(op_a(j, f), g)
            rhs = sign * inner_poly(f, op_a(-j, g))
            assert lhs == rhs


def test_series_truncation_is_exact():
    rng = random.Random(23)
    for _ in range(10):
        f = random_poly(rng, 9)
        deep = 2 * max(top_degree(f), 0) + 5
        for gen in GENERATORS:
            assert op_generator(gen, f) == op_series(gen, f, deep)
        for j in (-2, -1, 0, 1, 2):
            assert op_a(j, f) == op_a(j, f, terms=top_degree(f) + abs(j) + 4)


def test_cancelled_terms_are_dropped_not_kept_as_zero():
    # q_3 = 2/3 p3 + 4/3 p1^3, so q_3^* sends p3 to 2 and p1^3 to 8
    p3, p111 = _pack((3,)), _pack((1, 1, 1))
    assert _q_star(3, (5, ((p3, 4), (p111, -1)))) == (5, [])
    den, items = _q_times(3, (1, ((p111, 2), (p3, -1))))
    assert den == 3 and sorted(items) == [(2 * p111, 8), (2 * p3, -2)]
    assert op_a(3, {(1, 1, 1): F(1), (3,): F(-4)}) == {}   # (1/2) q_3^* f


def _q_oracle(n, f, op):
    """sum over the terms c_mu p_mu of q_n of c_mu * op(f, mu): q_n^* from
    adjoint_monomial, or q_n * from mul_monomial, by the definition."""
    out = {}
    for mu in enumerate_partitions(n, "odd"):
        out = poly_add(out, poly_scale(op(f, mu), F(2 ** len(mu), z_mu(mu))))
    return out


def test_q_kernels_match_the_monomial_definitions():
    # every odd monomial to degree 12, against every q_n to n = 14, n above
    # the degree included (q_n^* is then 0); then random Fraction inputs;
    # each packed once and the result decoded
    inputs = [{mu: F(-3, 2 * deg + 1)} for deg in range(13)
              for mu in enumerate_partitions(deg, "odd")]
    rng = random.Random(17)
    inputs += [random_poly(rng, 10) for _ in range(12)]
    for f in inputs:
        packed = _ints(f)
        for n in range(15):
            star, times = _q_star(n, packed), _q_times(n, packed)
            assert _poly(*star) == _q_oracle(n, f, adjoint_monomial)
            assert _poly(*times) == _q_oracle(n, f, mul_monomial)
        assert _q_star(top_degree(f) + 1, packed) == (packed[0], [])


def test_q_image_reads_the_valuation_of_each_image(scanned):
    # q-image's packed read-off against delta_valuation of the image of
    # each basis monomial 2^_shift(mu) p_mu by the definition
    for n in range(1, 9):
        for side, op in (("multiply", mul_monomial),
                         ("adjoint", adjoint_monomial)):
            delta.verify_q_image(n, 10, side)
            assert scanned.pop() == [
                (f"q{n} {side} {delta._basis_desc(mu)}", delta_valuation(
                    _q_oracle(n, {mu: F(2 ** delta._shift(mu))}, op)))
                for d in range(11) for mu in enumerate_partitions(d, "odd")]


def test_op_a_and_q_image_refuse_a_product_above_degree_255():
    # the packed kernels take what their callers guard: op_a packs its
    # input with room for q_lo, and q-image refuses before its first image
    f = {(1,) * 250: F(1)}
    assert _poly(*_q_star(5, _ints(f))) == {
        (1,) * 245: F(2 ** 5 * comb(250, 5))}
    with pytest.raises(ValueError, match="degree 256 is above 255"):
        op_a(-6, f)
    before = _q_column.cache_info(), _sub_monomials.cache_info()
    for n, degree, side in ((1, 255, "multiply"), (6, 250, "multiply"),
                            (1, 256, "adjoint")):
        with pytest.raises(ValueError, match="degree 256 is above 255"):
            delta.verify_q_image(n, degree, side)
    assert (_q_column.cache_info(), _sub_monomials.cache_info()) == before


def test_sub_monomials_are_the_sub_multisets_of_one_degree(fresh_memos):
    # against the definition on every sub-multiset nu of tau, for every
    # degree n to one past |tau|: the weight 2^len(nu) / z_nu times prod_k
    # k^m perm(t, m); one entry per (key, n) asked for
    for deg in range(11):
        for tau in enumerate_partitions(deg, "odd"):
            runs = [(k, tau.count(k)) for k in dict.fromkeys(tau)]
            subs = {}
            for ms in product(*(range(t + 1) for _, t in runs)):
                nu = tuple(k for (k, _), m in zip(runs, ms) for _ in range(m))
                weight = F(2 ** len(nu), z_mu(nu)) * prod(
                    k ** m * perm(t, m) for (k, t), m in zip(runs, ms))
                subs.setdefault(sum(nu), []).append(
                    (_pack(tau) - _pack(nu), weight))
            for n in range(deg + 2):
                assert sorted(_sub_monomials(_pack(tau), n)) == sorted(
                    subs.get(n, []))
    assert _sub_monomials.cache_info().currsize == sum(
        (deg + 2) * len(enumerate_partitions(deg, "odd")) for deg in range(11))


def _without_binomials(monkeypatch):
    monkeypatch.setattr(polyrep, "comb", lambda t, m: 1)


def _without_powers_of_two(monkeypatch):
    subs = polyrep._sub_monomials
    monkeypatch.setattr(polyrep, "_sub_monomials", lambda key, n: [
        (rest, w >> len(_unpack(key - rest))) for rest, w in subs(key, n)])


@pytest.mark.parametrize("defect, q_image", [(_without_binomials, "PASS"),
                                             (_without_powers_of_two, "FAIL")])
def test_a_wrong_sub_monomial_weight_fails_properties(fresh_memos, monkeypatch,
                                                      defect, q_image):
    """q_n^* p_tau with its weights 2^len(nu) * prod_k C(t_k, m_k) losing
    the binomials or the power of 2: the reference series no longer
    matches the columns (``series-truncation``) and A_j is no longer
    contravariant; the checks of the columns alone still pass.  ``q-image``
    fails only on the lost power of 2: without the binomials, every
    valuation it bounds stays at or above its bound."""
    defect(monkeypatch)
    for seed in range(3):
        failed = {name for name, ok, _ in experiments.property_checks(seed)
                  if not ok}
        assert failed == {"series-truncation", "vertex-contravariance"}
    assert delta.verify_q_image(3, 8, "adjoint").verdict == q_image


def test_state_memo_is_the_vertex_operator_component():
    # 2 A_j p_mu by the commutation rule against op_a, the definition: the
    # deep states (j <= -2) and j = 0 as well as the columns' j = -1 and 1
    for deg in range(13):
        for mu in enumerate_partitions(deg, "odd"):
            for j in range(-4, 3):
                den, state = _a_state(j, _pack(mu))
                got = {_unpack(key): F(v, 2 * den) for key, v in state.items()}
                assert got == op_a(j, {mu: F(1)})


def test_packed_keys_round_trip_and_add_as_multisets():
    odd = [mu for d in range(21) for mu in enumerate_partitions(d, "odd")]
    assert len({_pack(mu) for mu in odd}) == len(odd)
    for mu in odd:
        assert _unpack(_pack(mu)) == mu
    rng = random.Random(5)
    for mu, nu in zip(odd, rng.sample(odd, len(odd))):
        union = tuple(sorted(mu + nu, reverse=True))
        assert _unpack(_pack(mu) + _pack(nu)) == union
    assert _unpack(_pack((1,) * 255)) == (1,) * 255


def test_packed_keys_refuse_degrees_above_255():
    # (1,) * 256 would carry slot 0 into the slot of p3
    with pytest.raises(ValueError, match="degree 256 is above 255"):
        _pack((1,) * 256)
    # the input is refused before any column is looked up
    before = _column.cache_info(), _a_state.cache_info()
    for gen, mu in (("f0", (1,) * 256), ("e0", (257,))):
        with pytest.raises(ValueError, match="degree 25[67] is above 255"):
            op_generator(gen, {mu: F(1)})
        assert (_column.cache_info(), _a_state.cache_info()) == before
    # f raises the degree, so degree 255 has no f column: the column refuses
    # before it reads a state, and lru_cache stores no raise
    for _ in range(2):
        with pytest.raises(ValueError, match="degree 256 is above 255"):
            op_generator("f1", {(1,) * 255: F(1)})
        assert _column.cache_info().currsize == before[0].currsize
        assert _a_state.cache_info() == before[1]


def test_check_degree_guards_every_packing_site_before_any_work(monkeypatch):
    assert check_degree(255) is None
    for degree in (256, 301):
        with pytest.raises(ValueError, match=f"^degree {degree} is above 255$"):
            check_degree(degree)

    def work(*args):
        raise AssertionError(f"work before the degree check: {args}")

    # each site names its own degree, and none builds a state, q_n,
    # sub-monomial or half step first
    for module, name in ((polyrep, "_a_state"), (polyrep, "_q_column"),
                         (polyrep, "_sub_monomials"), (fock, "_half_moves")):
        monkeypatch.setattr(module, name, work)
    for site, degree in (
            (lambda: _pack((1,) * 256), 256),
            (lambda: _ints({(1,) * 255: F(1)}, 1), 256),
            (lambda: _ints({(255,): F(1), (1,): F(1)}, 2), 257),
            (lambda: _column("f1", _pack((255,))), 256),
            (lambda: delta.verify_stability(255), 256),
            (lambda: delta.verify_q_image(1, 255, "multiply"), 256),
            (lambda: delta.generation_reports(256), 256),
            (lambda: experiments.cross_model_reports(256), 256)):
        with pytest.raises(ValueError, match=f"^degree {degree} is above 255$"):
            site()


def test_cached_columns_match_the_series():
    # the mat-vec over cached columns against the series, monomial by monomial
    for deg in range(13):
        for mu in enumerate_partitions(deg, "odd"):
            c = F(-3, 2 * deg + 1)
            f = {mu: c}
            for gen in GENERATORS:
                fast = op_generator(gen, f)
                assert fast == op_series(gen, f)
                assert fast == op_series(gen, f, deg + 6)
                assert all(isinstance(v, F) and v for v in fast.values())


def _series_step(f, letter):
    return op_series("f0" if letter == 0 else "f1", f)


def series_walk(n, f=ONE, prefix=(), step=_series_step):
    """The length-n words with nonzero image, by a recursive walk of its
    own; by default on the polynomial generators' series."""
    if len(prefix) == n:
        yield prefix, f
        return
    for letter in range(2):
        g = step(f, letter)
        if g:
            yield from series_walk(n, g, prefix + (letter,), step)


def dict_levels(n_max, step, start):
    """The ``check_levels`` walk from the dict image start, stepped image by
    image by step(image, letter) and carried as sorted item tuples; each
    level's images come back as dicts."""
    def canonical(f):
        return tuple(sorted(f.items()))

    return list(check_levels(
        n_max, lambda images, i: [canonical(step(dict(f), i)) for f in images],
        canonical(start), lambda n, level: [(w, dict(y), c) for w, y, c in level]))


def deduplicated(words):
    """(least word, image, words) per distinct image of a word-order walk."""
    seen = {}
    for letters, image in words:
        seen.setdefault(tuple(sorted(image.items())), [letters, image, 0])[2] += 1
    return [tuple(state) for state in seen.values()]


def test_word_images_match_a_walk_on_the_series():
    # the cached-column generators against the series, along every word
    levels = dict_levels(9, apply_letter, ONE)
    assert len(levels) == 9
    for n, level in enumerate(levels, start=1):
        assert level == deduplicated(series_walk(n))
    # s_(3) + s_(1,1,1) = (p1^3 + 2 p3) / 3, the image of 0,1,0
    assert levels[2] == [((0, 1, 0), {(1, 1, 1): F(1, 3), (3,): F(2, 3)}, 1),
                         ((0, 1, 1), {(1, 1, 1): F(2, 3), (3,): F(-2, 3)}, 1)]


def test_packed_walk_matches_the_fraction_walk():
    # generation's walk on canonical packed images, level by level, against
    # the same walk on OddPolys
    def decode(image):
        den, items = image
        return {_unpack(key): F(num, den) for key, num in items}

    ints = list(check_levels(10, apply_letter, IMAGE_ONE,
                             lambda n, level: level))
    fracs = dict_levels(10, apply_letter, ONE)
    assert len(ints) == len(fracs) == 10
    for a, b in zip(ints, fracs):
        assert [(w, decode(y), c) for w, y, c in a] == b
    # a packed result is canonical: the input's item order does not show
    for _, (den, items), _ in ints[7]:
        for letter in range(2):
            assert apply_letter((den, items[::-1]), letter) == \
                apply_letter((den, items), letter)


def packed(f):
    """The canonical packed image of an OddPoly: numerators over the lcm of
    the (reduced) denominators, so their gcd with it is 1; () for 0."""
    den, items = _ints(f)
    return (den, tuple(sorted(items))) if items else ()


def test_a_level_steps_like_the_series_image_by_image():
    # every generation level to n = 10, stepped whole by f0 and f1, against
    # the series on each image; and a level of one is the image itself
    levels = list(check_levels(10, apply_letter, IMAGE_ONE,
                               lambda n, level: [y for _, y, _ in level]))
    for level in levels:
        for gen in ("f0", "f1"):
            images = op_generator(gen, level)
            assert images == [packed(op_series(gen, _poly(*x))) for x in level]
            assert [op_generator(gen, [x])[0] for x in level] == images
            assert [op_generator(gen, x) for x in level] == images
    assert [len(level) for level in levels] == [1, 1, 2, 2, 3, 5, 7, 11, 17, 29]


def test_a_mixed_level_fits_its_slots():
    """A level of images of degrees 3 and 4, over coprime denominators, of
    both signs, with the zero image () and a numerator above 2^200.  A slot
    is at least two bits wider than the largest l1 norm of an image's numerators
    times the largest column coefficient, the bound on every numerator and
    every output; the big numerator's image sits beside small ones, so a
    borrow or an overflow between slots would show in its neighbours."""
    big = (1 << 203) + 12345
    p111, p3, p31, p1111 = (_pack(mu) for mu in ((1, 1, 1), (3,), (3, 1),
                                                 (1, 1, 1, 1)))
    level = [(3, ((p111, -1), (p3, 2))),
             (),
             (5 ** 7, ((p111, big), (p3, -big - 1))),
             (7, ((p31, -5), (p1111, 3))),
             (1, ((p31, 1),)),
             (2 ** 9, ((p1111, -big),))]
    for gen in GENERATORS:
        images = op_generator(gen, level)
        assert images == [packed(op_series(gen, _poly(*x) if x else {}))
                          for x in level]
        assert images[1] == ()
        assert [op_generator(gen, x) for x in level] == images
    assert op_generator("f0", []) == []
    assert op_generator("f1", [(), ()]) == [(), ()]


def test_a_level_at_the_edge_of_a_slot():
    """Five degree-12 monomials whose f1 columns each take their largest
    coefficient at p13, all of one sign, summed with equal numerators N.
    N is scaled so that reach * N, reach the largest column coefficient,
    just fits 8k + 6 bits: a slot sized from N alone would have 8k + 8
    bits, and the p13 sum needs all of them, so it would spill into the
    next image.  A slot sized from the l1 norm 5N has a byte more."""
    mus = [(9, 1, 1, 1), (7, 3, 1, 1), (7, 1, 1, 1, 1, 1),
           (5, 3, 1, 1, 1, 1), (3, 3, 3, 1, 1, 1)]
    keys = [_pack(mu) for mu in mus]
    views = [_column("f1", key) for key in keys]
    step = lcm(*(den for den, *_ in views))
    reach = max(step // den * (max(map(abs, state.values())) + extra)
                for den, _, state, _, extra in views)
    p13 = _pack((13,))
    n = ((1 << 8 * 25 + 6) - 1) // reach
    top = sum(n * step // den * sign * state[p13]
              for den, sign, state, _, _ in views)
    single = pack_columns([], reach * n)[0]       # bits, from n alone
    assert all(max(map(abs, state.values())) == abs(state[p13])
               for _, _, state, _, _ in views)
    assert abs(top) >= 1 << single - 1
    small = (3, ((keys[0], 1),))
    level = [(1, tuple((key, n) for key in keys)), small,
             (1, tuple((key, -n) for key in keys)), small]
    images = op_generator("f1", level)
    assert images == [packed(op_series("f1", _poly(*x))) for x in level]


def test_check_levels_is_every_depth_of_the_per_model_walks():
    # levels, least words and word counts against every word of each length
    fock_step = lambda x, i: apply_f(x, i, 2)
    fock_levels = dict_levels(12, fock_step, basis(()))
    assert len(fock_levels) == 12
    for n, level in enumerate(fock_levels, start=1):
        assert level == deduplicated(series_walk(n, basis(()), step=fock_step))
    for n, level in enumerate(dict_levels(8, _series_step, ONE), start=1):
        assert level == deduplicated(series_walk(n))
        # each level is in the order of its least words
        assert [letters for letters, _, _ in level] == \
            sorted(letters for letters, _, _ in level)


def transpose_mismatches(d_max):
    """(d, i, mu, nu) wherever [f_i p_mu]_nu * z_nu != [e_i p_nu]_mu * z_mu,
    for odd mu of d - 1, odd nu of d, d <= d_max and i in {0, 1}, each
    column through ``op_generator``; and the number of comparisons."""
    out, count = [], 0
    for d, i in product(range(1, d_max + 1), (0, 1)):
        lower = enumerate_partitions(d - 1, "odd")
        upper = enumerate_partitions(d, "odd")
        e_cols = {nu: op_generator(f"e{i}", {nu: F(1)}) for nu in upper}
        for mu in lower:
            f_col = op_generator(f"f{i}", {mu: F(1)})
            for nu in upper:
                count += 1
                lhs = f_col.get(nu, 0) * z_mu(nu)
                if lhs != e_cols[nu].get(mu, 0) * z_mu(mu):
                    out.append((d, i, mu, nu))
    return out, count


def test_e_columns_are_the_z_weighted_transpose_of_the_f_columns():
    # <f_i p_mu, p_nu> = <p_mu, e_i p_nu>: the third per-degree check of
    # the model equivalence, on every column to degree 14
    assert transpose_mismatches(14) == ([], 2340)


def test_the_transpose_check_fails_with_e1_acting_as_e0(fresh_memos,
                                                         monkeypatch):
    """With the sign of every e1 view flipped, e1 is e0, and f1 is no
    longer its transpose: at d = 5 every one of the 6 pairs mismatches."""
    column = polyrep._column

    def flipped(gen, key):
        den, sign, state, base, extra = column(gen, key)
        return den, -sign if gen == "e1" else sign, state, base, extra

    monkeypatch.setattr(polyrep, "_column", flipped)
    mismatches, _ = transpose_mismatches(5)
    assert mismatches and {i for _, i, _, _ in mismatches} == {1}
    assert len([m for m in mismatches if m[0] == 5]) == 6


def test_columns_share_the_state_memo():
    # a column is a view of its state: the memo's own dict, not a copy
    for deg in range(11):
        for mu in enumerate_partitions(deg, "odd"):
            key = _pack(mu)
            for gen in GENERATORS:
                j = -1 if gen[0] == "f" else 1
                assert _column(gen, key)[2] is _a_state(j, key)[1]


def test_import_builds_no_cache():
    # a fresh process, so that no other test has filled the caches
    code = ("import chessfock.cli\n"
            "from chessfock import delta, polyrep\n"
            "caches = (polyrep._column, polyrep._a_state, polyrep._q_column,\n"
            "          polyrep._sub_monomials, polyrep._unpack, polyrep._z,\n"
            "          delta._key_shift)\n"
            "print([c.cache_info().currsize for c in caches])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout == "[0, 0, 0, 0, 0, 0, 0]\n"


def test_apply_word_poly():
    assert apply_word_poly(ResidueWord(2, (0,))) == P1
    assert apply_word_poly(ResidueWord(2, (1,))) == {}
    assert apply_word_poly(ResidueWord(2, (0, 1))) == {(1, 1): F(1)}
    with pytest.raises(ValueError):
        apply_word_poly(ResidueWord(3, (0,)))
    # the packed walk, decoded once at the end, against the OddPoly walk
    for n in range(1, 9):
        for letters in product(range(2), repeat=n):
            f = ONE
            for letter in letters:
                f = op_generator(("f0", "f1")[letter], f)
            assert apply_word_poly(ResidueWord(2, letters)) == f


def test_models_agree_on_small_words():
    for n in range(1, 7):
        words = [ResidueWord(2, letters) for letters in product(range(2), repeat=n)]
        images = [(apply_word(w), apply_word_poly(w)) for w in words]
        assert all(bool(x) == bool(f) for x, f in images)
        images = [pair for pair in images if pair[0]]
        for a, (x, f) in enumerate(images):
            for y, g in images[a:]:
                assert inner_poly(f, g) == inner(x, y)


def test_pair_sum_via_polynomials_matches_table_values():
    for n, expected in [(4, 4), (7, 48)]:
        image = apply_word_poly(alternating_word(n))
        assert inner_poly(image, image) == expected
        assert pair_sum(alternating_word(n), alternating_word(n)) == expected
