import json
import random
from fractions import Fraction
from itertools import product

import pytest

from chessfock import delta, experiments, polyrep
from chessfock.arith import INFINITY, tri_count, vp
from chessfock.delta import (ValuationReport, _basis_desc, _basis_scan,
                             _column_v2, _lattice_v2, _scan_report, _shift,
                             delta_valuation, generation_reports, gf2_rank,
                             verify_generation, verify_pairing,
                             verify_q_image, verify_stability)
from chessfock.partitions import enumerate_partitions, glaisher_odd_to_distinct
from chessfock.polyrep import (GENERATORS, _pack, _poly, _q_column, _unpack,
                               apply_word_poly, inner_poly, op_series,
                               poly_scale, random_poly)
from chessfock.tableaux import ResidueWord

F = Fraction


def test_delta_valuation_basics():
    assert delta_valuation({}) is INFINITY
    assert delta_valuation({(1,): F(1)}) == 0
    assert delta_valuation({(3,): F(1)}) == -1
    assert delta_valuation({(3,): F(2)}) == 0
    assert delta_valuation({(5,): F(1)}) == -2
    assert delta_valuation(_poly(*_q_column(3))) == 0
    assert delta_valuation({(3, 1, 1): F(6)}) == 0
    with pytest.raises(ValueError):
        delta_valuation({(2,): F(1)})


def test_delta_valuation_scaling_and_min():
    rng = random.Random(29)
    for _ in range(20):
        f = random_poly(rng, 9)
        if not f:
            continue
        v = delta_valuation(f)
        assert delta_valuation(poly_scale(f, F(4))) == v + 2
        assert delta_valuation(poly_scale(f, F(1, 2))) == v - 1
        # the valuation is the min over the monomial pieces
        assert v == min(delta_valuation({mu: c}) for mu, c in f.items())


def _itself(key):
    """p_key read as its own image under the identity."""
    return (("b", _lattice_v2((1, ((key, 1),)))),)


def test_basis_scan_reads_each_basis_monomial_as_itself():
    # degree by degree, in enumeration order, each at valuation 0
    assert list(_basis_scan(3, 0, _itself)) == [
        ("b p[]", 0), ("b p[1]", 0), ("b p[1,1]", 0), ("b 2^1*p[3]", 0),
        ("b p[1,1,1]", 0)]
    descs = [f"b {_basis_desc(mu)}" for d in range(11)
             for mu in enumerate_partitions(d, "odd")]
    assert list(_basis_scan(10, 0, _itself)) == [(d, 0) for d in descs]
    # the zero image reads INFINITY, and each name is one observation
    two = lambda key: (("x", {}), ("y", {key: -1}))
    assert list(_basis_scan(1, 0, two)) == [
        ("x p[]", INFINITY), ("y p[]", -1), ("x p[1]", INFINITY),
        ("y p[1]", -1)]


def test_basis_scan_and_pairing_reject_sizes_out_of_range():
    # the scan refuses a reach past the packed degree before any image
    for degree, reach in ((256, 0), (255, 1), (250, 6)):
        with pytest.raises(ValueError, match="degree 256 is above 255"):
            next(_basis_scan(degree, reach, None))
    assert list(_basis_scan(-1, 0, None)) == []
    with pytest.raises(ValueError, match="needs n >= 1, got 0"):
        verify_pairing(0)


def test_basis_diagonal_valuations_follow_glaisher(scanned):
    # v2 of the self-pairing of a basis monomial is n - len(glaisher(mu)):
    # verify_pairing's reading off z_mu against inner_poly, monomial by
    # monomial
    for n in range(1, 17):
        verify_pairing(n)
        expected = []
        for mu in enumerate_partitions(n, "odd"):
            b = {mu: F(2 ** _shift(mu))}
            val = vp(inner_poly(b, b), 2)
            assert val == n - len(glaisher_odd_to_distinct(mu))
            expected.append((f"({_basis_desc(mu)}, {_basis_desc(mu)})", val))
        assert scanned.pop() == expected


def test_report_verdicts():
    base = dict(claim="c", degree_bound=3, required=2)
    assert ValuationReport(**base, observed_min=3).verdict == "PASS"
    assert ValuationReport(**base, observed_min=1).verdict == "FAIL"
    assert ValuationReport(**base, observed_min=INFINITY).verdict == "PASS"
    tight = ValuationReport(**base, observed_min=2, require_tight=True)
    assert tight.verdict == "PASS" and tight.tight
    slack = ValuationReport(**base, observed_min=3, require_tight=True)
    assert slack.verdict == "FAIL"


def test_report_defaults_equality_and_immutability():
    r = ValuationReport("c", 3, 2, 1)
    assert r.require_tight is False and r.witnesses == ()
    assert r == ValuationReport(claim="c", degree_bound=3, required=2,
                                observed_min=1, require_tight=False,
                                witnesses=())
    assert hash(r) == hash(ValuationReport("c", 3, 2, 1))
    assert r != ValuationReport("c", 3, 2, 1, require_tight=True)
    assert r != ValuationReport("c", 3, 2, 1, witnesses=(("w", 1),))
    assert repr(r) == ("ValuationReport(claim='c', degree_bound=3, required=2, "
                       "observed_min=1, require_tight=False, witnesses=())")
    for name in ("claim", "observed_min", "witnesses", "verdict", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    assert r.observed_min == 1 and r.verdict == "FAIL"


def test_scan_report_lists_failures_first_in_order():
    observations = [("a", 3), ("b", 1), ("c", INFINITY), ("d", 2),
                    ("e", 0), ("f", 2), ("g", 2), ("h", 2), ("i", -1)]
    r = _scan_report("c", 5, 2, False, iter(observations))
    assert r.observed_min == -1 and r.verdict == "FAIL"
    assert r.witnesses == (("b", 1), ("e", 0), ("i", -1),
                           ("d", 2), ("f", 2), ("g", 2))


def test_report_json_round_trip():
    r = ValuationReport(claim="c", degree_bound=2, required=1,
                        observed_min=INFINITY, witnesses=(("w", 1),))
    payload = json.loads(json.dumps(r.to_json(), sort_keys=True))
    assert payload["observed_min"] == "INFINITY"
    assert payload["verdict"] == "PASS"
    assert payload["witnesses"] == [["w", 1]]


def test_verify_q_image_small():
    r = verify_q_image(1, 8, "multiply")
    assert r.verdict == "PASS" and r.required == 1
    r = verify_q_image(2, 8, "adjoint")
    assert r.verdict == "PASS" and r.required == 2
    # on the constant alone, q1's image is 2*p1 with valuation exactly 1
    r = verify_q_image(1, 0, "multiply")
    assert r.verdict == "PASS" and r.observed_min == 1 and r.tight
    with pytest.raises(ValueError):
        verify_q_image(0, 4, "multiply")
    with pytest.raises(ValueError):
        verify_q_image(1, 4, "sideways")


def test_verify_q_image_required_shifts():
    for n, side, expected in [(1, "multiply", 1), (2, "multiply", 1),
                              (3, "multiply", 0), (4, "multiply", 0),
                              (5, "multiply", -1), (6, "multiply", -1),
                              (1, "adjoint", 1), (2, "adjoint", 2),
                              (3, "adjoint", 2), (4, "adjoint", 3)]:
        assert verify_q_image(n, 6, side).required == expected


def test_verify_q_image_rejects_degree_up_to_ten():
    for n in range(1, 7):
        for side in ("multiply", "adjoint"):
            assert verify_q_image(n, 10, side).verdict == "PASS"


def test_verify_stability_small():
    r = verify_stability(9)
    assert r.verdict == "PASS"
    assert r.required == 0
    assert r.observed_min == 0  # f0 on 1 already gives valuation 0


def test_verify_stability_matches_a_fold_of_the_series():
    # the integer columns against the Fraction series, witnesses and all
    observations = []
    for d in range(13):
        basis = [(mu, {mu: F(2 ** _shift(mu))})
                 for mu in enumerate_partitions(d, "odd")]
        observations += [(f"{gen} {_basis_desc(mu)}",
                          delta_valuation(op_series(gen, b)))
                         for mu, b in basis for gen in GENERATORS]
        expected = _scan_report("stability", d, 0, False, observations)
        assert verify_stability(d).to_json() == expected.to_json()


def test_verify_stability_raises_above_the_packed_degree_at_once():
    with pytest.raises(ValueError, match="degree 256 is above 255"):
        verify_stability(255)


def test_column_v2_reads_each_coordinate_of_a_column():
    # v = v2(c) - (|nu| - len(nu))/2 on each nonzero coefficient c of gen p_mu
    for d in range(13):
        for mu in enumerate_partitions(d, "odd"):
            for gen in GENERATORS:
                assert _column_v2(gen, _pack(mu)) == {
                    _pack(nu): vp(c, 2) - (sum(nu) - len(nu)) // 2
                    for nu, c in op_series(gen, {mu: F(1)}).items()}
    # degree-255 keys: the one-term image p_nu reads minus the basis exponent
    for nu in [(1,) * 255, (255,), (3,) * 85, (5, 3) + (1,) * 247]:
        key = _pack(nu)
        assert _lattice_v2((1, ((key, 1),))) == {key: -((255 - len(nu)) // 2)}
    # a zero numerator is no term; an even den lowers every v
    p3, p111 = _pack((3,)), _pack((1, 1, 1))
    assert _lattice_v2((3, ((p3, 0), (p111, 12)))) == {p111: 2}
    assert _lattice_v2((12, ((p3, 2), (p111, 12)))) == {p3: -2, p111: 0}
    assert _lattice_v2((5, ())) == {}


def test_stability_fails_without_the_base_term(fresh_memos, monkeypatch):
    """A column that loses its base term p1 p_mu or p1^* p_mu (``extra``
    set to 0) leaves f0 1 = -p1/2 off the lattice: ``stability`` catches
    it, with the witness f0 on the constant."""
    column = polyrep._column
    monkeypatch.setattr(delta, "_column",
                        lambda gen, key: column(gen, key)[:4] + (0,))
    r = verify_stability(4)
    assert r.verdict == "FAIL" and r.witnesses[0] == ("f0 p[]", -1)


def test_a_sign_swap_passes_stability_and_fails_properties(fresh_memos,
                                                            monkeypatch):
    """A sign error in a column is invisible to a valuation claim: with the
    sign of f1 and e1 swapped they become f0 and e0, which keep the lattice,
    so ``stability`` stays at PASS.  The ``properties`` suite's comparison
    with the series (``series-truncation``) catches it."""
    column = polyrep._column

    def swapped(gen, key):
        den, sign, state, base, extra = column(gen, key)
        return den, -sign if gen[1] == "1" else sign, state, base, extra

    for module in (delta, polyrep):
        monkeypatch.setattr(module, "_column", swapped)
    assert verify_stability(8).verdict == "PASS"
    checks = {name: ok for name, ok, _ in experiments.property_checks(0)}
    assert checks["series-truncation"] is False


def _q_without_powers_of_two(monkeypatch):
    """q_n with the weights 1 / z_mu in place of 2^len(mu) / z_mu."""
    q_column = polyrep._q_column

    def dropped(n):
        den, items = q_column(n)
        top = max(len(_unpack(key)) for key, _ in items)
        return den << top, tuple((key, w << top - len(_unpack(key)))
                                 for key, w in items)

    monkeypatch.setattr(polyrep, "_q_column", dropped)


def _columns_over_twice_their_denominator(monkeypatch):
    column = polyrep._column
    for module in (delta, polyrep):
        monkeypatch.setattr(module, "_column", lambda gen, key: (
            2 * column(gen, key)[0],) + column(gen, key)[1:])


def _pairing_without_z(monkeypatch):
    monkeypatch.setattr(delta, "z_mu", lambda mu: 1)


@pytest.mark.parametrize("defect, failed", [
    (_q_without_powers_of_two,
     {f"q-image[multiply,n={n}]" for n in range(1, 9)} | {"stability"}),
    (_columns_over_twice_their_denominator, {"stability"}),
    (_pairing_without_z, {f"pairing[n={n}]" for n in range(2, 13)}),
])
def test_each_lattice_suite_fails_under_the_defect_it_covers(
        fresh_memos, monkeypatch, defect, failed):
    """Which of q-image, stability and pairing (at degree 8, n <= 8, and
    n <= 12) sees which injected defect.  q_n losing the 2^len(mu) of its
    weights fails q-image on the multiply side, where q_n's table is read,
    and stability, whose columns start from q_n (``_a_state``); the
    adjoint side reads ``_sub_monomials``, which is right.  A column over
    twice its denominator is seen by stability alone, the one suite that
    reads the columns.  Pairing alone reads z_mu, and z = 1 leaves it
    short of tight at every n >= 2 (at n = 1, z = 1 is right).  Each
    failing report names its witnesses below the bound."""
    defect(monkeypatch)
    reports = [verify_q_image(n, 8, side) for n in range(1, 9)
               for side in ("multiply", "adjoint")]
    reports.append(verify_stability(8))
    reports += [verify_pairing(n) for n in range(1, 13)]
    assert {r.claim for r in reports if r.verdict == "FAIL"} == failed
    for r in reports:
        if r.claim in failed:
            assert r.witnesses and r.witnesses[0][1] < r.required


def test_the_word_walk_suites_fail_without_the_p1_term_of_f1(fresh_memos,
                                                             monkeypatch):
    """With the p1 term of every f1 column negated (``_column``'s extra),
    f1 1 = -p1 and the images of the length-2 words cancel: ``generation``
    passes at n = 1 and fails at n = 2..6 with no image left, and
    ``cross-model`` fails at every n <= 6 on a word that is zero in the
    polynomial model alone.  Both walks step levels through
    ``op_generator``."""
    column = polyrep._column

    def negated(gen, key):
        den, sign, state, base, extra = column(gen, key)
        return den, sign, state, base, -extra if gen == "f1" else extra

    monkeypatch.setattr(polyrep, "_column", negated)
    verdicts = [r.verdict for r in generation_reports(6)]
    assert verdicts == ["PASS"] + ["FAIL"] * 5
    for summary in experiments.cross_model_reports(6):
        assert not summary["ok"] and not summary["support_match"]
        assert summary["mismatches"][0].startswith("support:")


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([0b110, 0b011, 0b101]) == 2  # third is the xor
    assert gf2_rank([0, 0]) == 0
    rng = random.Random(31)
    for _ in range(20):
        rows = [rng.getrandbits(6) for _ in range(8)]
        rank = gf2_rank(rows)
        # oracle: size of any maximal independent subset found greedily
        # over all orderings is the same; check via span size instead
        span = {0}
        for row in rows:
            span |= {row ^ s for s in span}
        assert 2 ** rank == len(span)


def test_verify_generation_small():
    for n, dim in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 4)]:
        *_, r = generation_reports(n)
        assert r.verdict == "PASS"
        assert r.required == dim
        assert r.observed_min == dim
    with pytest.raises(ValueError):
        next(generation_reports(0))


def test_generation_reports_from_one_walk():
    reports = list(generation_reports(7))
    assert [r.claim for r in reports] == [f"generation[n={n}]" for n in range(1, 8)]
    for n, r in enumerate(reports, start=1):
        *_, last = generation_reports(n)
        assert r == last
        assert dict(r.witnesses)["nonzero word images"] == \
            sum(1 for letters in product(range(2), repeat=n)
                if apply_word_poly(ResidueWord(2, letters)))
    with pytest.raises(ValueError):
        next(generation_reports(0))


def test_verify_generation_reads_v2_off_each_coefficient():
    # n = 3: the basis is 2*p3 and p1^3; 2/3*p3 sits on the first, 4*p1^3
    # is 0 mod 2, and a zero coefficient is no coefficient
    p3, p111 = _pack((3,)), _pack((1, 1, 1))
    level = [((0, 1, 0), (3, ((p3, 2), (p111, 12))), 1),
             ((1, 0, 0), (7, ((p3, 0), (p111, 5))), 2)]
    r = verify_generation(3, level)
    assert r.observed_min == r.required == 2
    assert dict(r.witnesses) == {"nonzero word images": 3,
                                 "distinct mod-2 rows": 2}


def test_verify_generation_raises_when_an_image_escapes_the_lattice():
    with pytest.raises(ArithmeticError,
                       match=r"escapes the lattice at \(1,\) \(v2=-1 < 0\)"):
        verify_generation(1, [((0,), (2, ((_pack((1,)), 1),)), 1)])
    with pytest.raises(ArithmeticError,
                       match=r"escapes the lattice at \(3,\) \(v2=0 < 1\)"):
        verify_generation(3, [((0, 1, 0), (5, ((_pack((3,)), 3),)), 1)])


def test_verify_pairing_small():
    for n in range(1, 11):
        r = verify_pairing(n)
        assert r.verdict == "PASS", r.to_json()
        assert r.required == n - tri_count(n)
        assert r.tight
        assert r.witnesses  # a tight witness is always recorded


def test_pairing_minimum_sits_on_the_diagonal():
    # off-diagonal pairings vanish, so the minimum comes from a diagonal
    # entry: min over mu of n - len(glaisher(mu)) = n - a(n), because the
    # longest distinct-part partition of n is the staircase
    for n in range(1, 13):
        best = min(n - len(glaisher_odd_to_distinct(mu))
                   for mu in enumerate_partitions(n, "odd"))
        assert best == n - tri_count(n)
