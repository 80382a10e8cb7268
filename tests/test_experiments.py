import inspect
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chessfock import delta, experiments, fock, partitions, polyrep
from chessfock.arith import INFINITY, PSI_13, is_prime, tri_count, vp
from chessfock.delta import ValuationReport
from chessfock.experiments import (_BLOCK, _FIRST_BLOCK_END, FactorizationRow,
                                   _both_models, _odd_primes,
                                   _prime_blocks, _rho, _row, _split,
                                   bound_reports,
                                   chess_table, cross_model_check,
                                   cross_model_reports, exhaustive_bound_check,
                                   factorial_check, factorize, general_e_scan,
                                   rows_to_csv, rows_to_jsonl, scan_row)
from chessfock.fock import (HALF_VACUUM, apply_f, apply_word, basis,
                            gram_rows, half_step, half_weight, inner,
                            pair_sum, read_slots)
from chessfock.partitions import conjugate_beads, to_beads
from chessfock.polyrep import (IMAGE_ONE, _pack, _unpack, apply_letter,
                               apply_word_poly, inner_poly, z_key)
from chessfock.tableaux import ResidueWord, alternating_word, check_levels

# The first 18 alternating-word pair sums, written as they factor:
#   1, 2, 2, 2^2, 2^3, 2^4, 2^4*3, 2^5*5, 2^6*7, 2^11, 2^8*5^2, 2^9*61,
#   2^10*3*41, 2^11*5*59, 2^11*1523, 2^13*23*83, 2^13*11411, 2^15*103*163
CHESS_VALUES = [
    1,
    2,
    2,
    2 ** 2,
    2 ** 3,
    2 ** 4,
    2 ** 4 * 3,
    2 ** 5 * 5,
    2 ** 6 * 7,
    2 ** 11,
    2 ** 8 * 5 ** 2,
    2 ** 9 * 61,
    2 ** 10 * 3 * 41,
    2 ** 11 * 5 * 59,
    2 ** 11 * 1523,
    2 ** 13 * 23 * 83,
    2 ** 13 * 11411,
    2 ** 15 * 103 * 163,
]


def test_factorize():
    assert factorize(1) == ((), 1)
    assert factorize(48) == (((2, 4), (3, 1)), 1)
    assert factorize(550141952) == (((2, 15), (103, 1), (163, 1)), 1)
    # primes above the trial bound stay in the cofactor, flagged
    big = 1_000_003 * 1_000_033
    factors, cofactor = factorize(2 * big)
    assert factors == ((2, 1),)
    assert cofactor == big
    with pytest.raises(ValueError):
        factorize(0)


def reference_factorize(value, limit=1_000_000):
    """The trial division by 2 and every odd number that ``factorize``
    replaced, kept verbatim as its reference."""
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    factors = []
    rest = value
    d = 2
    while d <= limit and d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1 and d * d > rest:
        factors.append((rest, 1))
        rest = 1
    return tuple(factors), rest


def test_factorize_matches_trial_division_by_every_odd_number():
    for value in range(1, 20_000):
        assert factorize(value) == reference_factorize(value)
    # the table values: chess-table and the e = 3 scan up to n = 40
    for e in (2, 3):
        x = basis(())
        for n in range(1, 41):
            x = apply_f(x, (n - 1) % e, e)
            value = inner(x, x)
            assert factorize(value) == reference_factorize(value)


def test_factorize_matches_trial_division_at_block_edges():
    primes = list(_odd_primes(1_000_000))
    assert len(primes) == 78_497 and primes[-1] == 999_983
    blocks = _prime_blocks()
    assert [lo for lo, _, _ in blocks] == primes[::_BLOCK]
    assert [hi for _, hi, _ in blocks] == primes[_BLOCK - 1::_BLOCK] + [999_983]
    assert blocks[0][1] == _FIRST_BLOCK_END
    last = len(blocks) - 2    # the last full block; the one after is short
    # also the first block whose first prime is its predecessor's last + 2
    twin = next(k for k in range(1, last)
                if primes[_BLOCK * k] == primes[_BLOCK * k - 1] + 2)
    edges = [primes[_BLOCK * k + j]
             for k in (0, 1, 2, twin, last) for j in (0, _BLOCK - 1)]
    edges += [primes[_BLOCK * (last + 1)], 999_983, 1_000_003]
    values = [p * q for p, q in combinations_with_replacement(edges, 2)]
    values += [2 * v for v in values[:10]] + edges
    for value in values:
        assert factorize(value) == reference_factorize(value)


def test_factorize_matches_trial_division_at_the_cofactor_edges():
    # the remainder is reported prime exactly below stop ** 2, where stop
    # is the first divisor past the limit
    stop = 1_000_001
    values = [stop ** 2 - 2, stop ** 2 - 1, stop ** 2, stop ** 2 + 1,
              stop * (stop + 2), (stop + 2) ** 2,
              1_000_003 ** 2, 999_983 * 1_000_003, 999_979 * 999_983]
    for value in values:
        assert factorize(value) == reference_factorize(value)


def test_factorize_falls_back_to_the_prime_blocks(monkeypatch):
    # a remainder _rho gives up on, below psi_13, and one at or above it;
    # both are trial-divided by the blocks and match the reference
    calls = []
    monkeypatch.setattr(experiments, "_prime_blocks",
                        lambda: calls.append(1) or _prime_blocks())
    gives_up = 999_999_999_989 * 1_000_000_000_039
    above = 7 * 999_983 * 1_000_003 ** 4
    assert _rho(gives_up) is None
    assert gives_up < PSI_13 <= above // 7
    for value in (3 * gives_up, above):
        assert factorize(value) == reference_factorize(value)
    assert len(calls) == 2


def test_split_appends_primes_whose_product_is_its_input():
    for p, q in [(999_983, 1_000_003), (1_000_003, 999_999_937),
                 (999_983, 999_983), (317, 999_999_937)]:
        primes = []
        assert _split(p * q, primes)
        assert sorted(primes) == [p, q]
    # two primes near 10^9 are past the step budget: nothing is appended
    primes = []
    assert not _split(999_999_937 * 1_000_000_007, primes)
    assert primes == []
    primes = []
    assert _split(3 * 5 ** 2 * 1_000_003 ** 3, primes)
    assert sorted(primes) == [3, 5, 5] + [1_000_003] * 3
    assert all(is_prime(p) for p in primes)


@settings(deadline=None)
@given(st.integers(1, 10 ** 30 - 1))
def test_factorize_matches_trial_division_property(value):
    assert factorize(value) == reference_factorize(value)


def test_odd_primes_match_a_naive_filter():
    top = 2 * 2 ** 15 + 5
    naive = [p for p in range(3, top + 1, 2)
             if all(p % d for d in range(3, isqrt(p) + 1, 2))]
    for limit in [*range(201), *range(top - 8, top + 1)]:
        assert list(_odd_primes(limit)) == [p for p in naive if p <= limit]


def test_small_values_build_no_prime_blocks():
    # a fresh process, so that no other test has filled the cache; every
    # row of the chess table to n = 46 and of the e = 3, 4, 5 scans to
    # n = 40 is split without the blocks
    code = ("import chessfock.cli\n"
            "from chessfock.experiments import (_prime_blocks, chess_table,\n"
            "                                   factorize, general_e_scan)\n"
            "factorize(48)\n"
            "chess_table(46)\n"
            "for e, p in (3, 3), (4, 2), (5, 5):\n"
            "    general_e_scan(40, e, p)\n"
            "print(_prime_blocks.cache_info().currsize)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout == "0\n"


def test_row_rendering():
    row = FactorizationRow(n=7, value=48, v2=4, bound=4,
                           factors=((2, 4), (3, 1)))
    assert row.factorization() == "2^4*3"
    assert row.verdict == "PASS"
    obs = FactorizationRow(n=3, value=6, v2=1, bound=None,
                           factors=((2, 1), (3, 1)))
    assert obs.verdict == "OBS"
    flagged = FactorizationRow(n=1, value=14, v2=1, bound=0,
                               factors=((2, 1),), cofactor=7)
    assert flagged.factorization() == "2*[7]"
    one = FactorizationRow(n=1, value=1, v2=0, bound=0, factors=())
    assert one.factorization() == "1"
    assert one.cofactor == 1
    assert one == FactorizationRow(1, 1, 0, 0, (), 1)
    assert repr(one) == ("FactorizationRow(n=1, value=1, v2=0, bound=0, "
                         "factors=(), cofactor=1)")
    with pytest.raises(AttributeError):
        one.cofactor = 3


def test_chess_table_values():
    rows = chess_table(18)
    assert [row.value for row in rows] == CHESS_VALUES
    for row in rows:
        assert row.bound == row.n - tri_count(row.n)
        assert row.verdict == "PASS"
        assert row.cofactor == 1
        rebuilt = 1
        for p, e in row.factors:
            rebuilt *= p ** e
        assert rebuilt == row.value
    # the n = 10 row is the striking one: value 2^11, far above bound 6
    ten = rows[9]
    assert ten.v2 == 11 and ten.bound == 6


def test_chess_table_matches_pair_sum():
    rows = chess_table(6)
    for row in rows:
        w = alternating_word(row.n)
        assert row.value == pair_sum(w, w)


def counting(monkeypatch, originals):
    """Counters of the calls to each function of ``originals`` (key ->
    function), bound in every chessfock module that holds it, as the
    benchmark's tracer binds its wrappers."""
    calls = Counter()

    def wrap(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "chessfock"]
    for key, original in originals.items():
        wrapper = wrap(key, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_table_commands_keep_the_layers_the_benchmark_traces(monkeypatch):
    """The benchmark's table workload (chess-table and the e = 3 scan) must
    reach the traced ``fock.apply_f`` and ``partitions.addable_cells``, and
    no polyrep or delta function, or its layer self-check marks every traced
    run incorrect."""
    originals = {"fock.apply_f": fock.apply_f,
                 "partitions.addable_cells": partitions.addable_cells}
    for module in (polyrep, delta):
        for name, value in vars(module).items():
            if (callable(value) and not inspect.isclass(value)
                    and getattr(value, "__module__", None) == module.__name__):
                originals[f"{module.__name__}.{name}"] = value
    calls = counting(monkeypatch, originals)
    assert general_e_scan(8, 3, 3)
    assert calls["fock.apply_f"] == 8
    assert calls["partitions.addable_cells"] == 8
    calls.clear()
    # the e = 2 table grows its class vector, whose step takes its masks
    # from addable_cells once per row
    assert chess_table(8)
    assert calls == {"partitions.addable_cells": 8}


def test_chess_table_fails_without_the_dropped_conjugate(fresh_memos,
                                                         monkeypatch):
    """A class step that drops the transpose of a diagonal new row (from
    lam_1 - len(lam) = 1) loses a term the full vector has: the table no
    longer matches the published values or the full-vector pair sums."""
    step = fock._class_f

    def dropped(x, i):
        out = step(x, i)
        for s, c in x[i].items():
            if s.bit_length() == 2 * s.bit_count() + 1:
                out[3 - i][conjugate_beads((s << 1) | 2)] -= c
        return out

    monkeypatch.setattr(fock, "_class_f", dropped)
    values = [row.value for row in chess_table(10)]
    assert values != CHESS_VALUES[:10]
    assert values != [pair_sum(w, w) for w in map(alternating_word, range(1, 11))]


def test_the_bound_suite_fails_with_one_class_step_coefficient_off_by_one(
        fresh_memos, monkeypatch):
    """With the first coefficient of every nonzero class step one too large,
    every shape's ``half_step`` (through the ``_half_moves`` memo) is off,
    and ``bound`` fails at every n <= 8: no pairing attains the bound.
    ``cross-model`` steps its Fock side by the same ``half_step``, and no
    length's pairings match the polynomial model's."""
    step = fock._class_f

    def off_by_one(x, i):
        out = step(x, i)
        for part in filter(None, out):
            part[next(iter(part))] += 1
            break
        return out

    monkeypatch.setattr(fock, "_class_f", off_by_one)
    reports = list(bound_reports(8))
    assert [r.verdict for r in reports] == ["FAIL"] * 8
    assert all(r.observed_min > r.required for r in reports)
    summaries = list(cross_model_reports(8))
    assert [s["ok"] for s in summaries] == [False] * 8
    assert all(s["support_match"] and s["mismatches"] for s in summaries)


def test_csv_and_jsonl_golden():
    rows = chess_table(3)
    assert rows_to_csv(rows) == (
        "n,value,v2,bound,factorization,verdict\n"
        "1,1,0,0,1,PASS\n"
        "2,2,1,1,2,PASS\n"
        "3,2,1,1,2,PASS\n"
    )
    lines = rows_to_jsonl(rows).strip().split("\n")
    payload = json.loads(lines[2])
    assert payload == {"n": 3, "value": 2, "v2": 1, "bound": 1,
                       "factorization": "2", "factors": [[2, 1]],
                       "cofactor": 1, "verdict": "PASS"}


def test_exhaustive_bound_check_small():
    for n in range(1, 9):
        *_, report = bound_reports(n)
        assert report.verdict == "PASS", report.to_json()
        assert report.required == n - tri_count(n)
        assert report.tight


def test_bound_reports_from_one_pass():
    reports = list(bound_reports(9))
    assert [r.claim for r in reports] == [f"bound[n={n}]" for n in range(1, 10)]
    for n in range(1, 10):
        *_, last = bound_reports(n)
        assert last == reports[n - 1]
    assert list(bound_reports(12))[:9] == reports
    with pytest.raises(ValueError):
        next(bound_reports(0))


def test_exhaustive_bound_check_names_a_failing_pair():
    # n = 3 needs v2 >= 1; in half vectors (3) stands for (3) + (1,1,1),
    # with self-pairing 2, and the square (2,1) for itself, with 1
    level = [((0, 1, 0), ((to_beads((3,)), 1),), 1),
             ((1, 1, 0), ((to_beads((2, 1)), 1),), 1)]
    report = exhaustive_bound_check(3, level)
    assert report.verdict == "FAIL" and report.observed_min == 0
    assert report.witnesses == (("v=1,1,0 w=1,1,0", 0),
                                ("v=0,1,0 w=0,1,0", 1),
                                ("distinct nonzero images", 2),
                                ("nonzero pairings", 2))


def full(half):
    """The conjugation-invariant vector whose half vector is ``half``."""
    return {**dict(half), **{conjugate_beads(s): c for s, c in half}}


def naive_bound_report(n, level):
    """exhaustive_bound_check's report, folded over every pair of the
    level's images in row-major order with fock.inner on full vectors."""
    required = n - tri_count(n)
    images = [full(image) for _, image, _ in level]
    vals = [(a, b, vp(s, 2)) for a in range(len(level))
            for b in range(a, len(level))
            if (s := inner(images[a], images[b]))]

    def text(a, b):
        return f"v={','.join(map(str, level[a][0]))} " \
               f"w={','.join(map(str, level[b][0]))}"

    failures = [(text(a, b), v) for a, b, v in vals if v < required]
    attained = [(text(a, b), v) for a, b, v in vals if v == required][:1]
    return ValuationReport(
        claim=f"bound[n={n}]", degree_bound=n, required=required,
        observed_min=min((v for *_, v in vals), default=INFINITY),
        require_tight=True,
        witnesses=tuple(failures + attained) + (
            ("distinct nonzero images", len(level)),
            ("nonzero pairings", len(vals))))


def test_grouped_bound_check_matches_a_naive_fold():
    # claimed at its own n the check passes; claimed at n + 3 the same
    # level fails on pairs from several letter contents
    levels = check_levels(12, lambda xs, i: [half_step(x, i) for x in xs],
                          HALF_VACUUM, lambda n, level: (n, level))
    for n, level in levels:
        for claimed in (n, n + 3):
            report = exhaustive_bound_check(claimed, level)
            assert report.to_json() == naive_bound_report(claimed, level).to_json()
    assert report.verdict == "FAIL"
    assert len({w.split()[0].count("1") for w, _ in report.witnesses[:-2]}) > 1
    # the least pair attaining the bound is in the second content group,
    # which the grouped check visits after the first group's own
    # (half vectors: (2) and (3) weigh 2, the squares (2,1) and (2,2) 1)
    level = [((0, 0, 1), ((to_beads((1,)), 2),), 1),
             ((0, 1, 1), ((to_beads((2, 1)), 1), (to_beads((2, 2)), 1)), 1),
             ((1, 0, 0), ((to_beads((2,)), 1),), 1),
             ((1, 0, 1), ((to_beads((2, 2)), 2), (to_beads((3,)), 1)), 1)]
    report = exhaustive_bound_check(3, level)
    assert report.to_json() == naive_bound_report(3, level).to_json()
    assert report.witnesses[0] == ("v=0,1,1 w=0,1,1", 1)


def test_bound_check_reads_packed_rows_like_a_naive_fold():
    # rows the mask tests must read right: a nonzero pairing of 256, whose
    # two-byte slot has a zero low byte; negative pairings near
    # -2^(bits - 2) in two's complement; an all-zero row; claims whose
    # bound pass, fail, or reach past the slot width of 16 bits
    one, two = to_beads((1,)), to_beads((2,))      # half weights 1 and 2
    x = ((one, 64), (two, 64))
    minus_x = tuple((k, -c) for k, c in x)
    levels = [[((0, 1), ((one, 16),), 1), ((1, 0), ((one, 2),), 1)],
              [((0, 1, 1), x, 1), ((1, 0, 1), minus_x, 1), ((1, 1, 0), (), 1)]]
    for level in levels:
        for claimed in (3, 6, 8, 16, 17, 19, 25):
            report = exhaustive_bound_check(claimed, level)
            assert report.to_json() == naive_bound_report(claimed, level).to_json()
    assert dict(exhaustive_bound_check(8, levels[0]).witnesses)[
        "nonzero pairings"] == 3
    assert exhaustive_bound_check(17, levels[1]).verdict == "PASS"


def test_factorial_check():
    for n in range(9):
        assert factorial_check(n)


def test_general_e_scan_modulus_one():
    for row in general_e_scan(7, 1, 2):
        assert row.value == factorial(row.n)
        assert row.verdict == "OBS"
        assert row.bound is None


def test_general_e_scan_modulus_two_matches_chess_table():
    scan = general_e_scan(9, 2, 2)
    chess = chess_table(9)
    for left, right in zip(scan, chess):
        assert (left.n, left.value, left.v2, left.bound) == \
            (right.n, right.value, right.v2, right.bound)
        assert left.verdict == "PASS"


def test_general_e_scan_on_the_half_vector_matches_full_sums():
    # e = 2 with p = 3: the half walk without the claimed bound
    x = basis(())
    rows = []
    for n in range(1, 41):
        x = apply_f(x, (n - 1) % 2, 2)
        rows.append(_row(n, inner(x, x), 2, 3))
    assert general_e_scan(40, 2, 3) == rows


def test_general_e_scan_other_modulus_is_observational():
    rows = general_e_scan(8, 3, 3)
    assert all(row.verdict == "OBS" for row in rows)
    assert all(row.bound is None for row in rows)
    # by hand: the images are |1>, |11>, then |21> + |111>
    assert [row.value for row in rows][:3] == [1, 1, 2]
    with pytest.raises(ValueError):
        general_e_scan(5, 3, 4)


def test_scan_row_explicit_words():
    row = scan_row(alternating_word(7), alternating_word(7), 2)
    assert row.value == 48 and row.v2 == 4 and row.bound == 4
    row = scan_row(alternating_word(7), alternating_word(7), 3)
    assert row.bound is None and row.v2 == 1
    with pytest.raises(ValueError, match="the pair sum is 0"):
        scan_row(ResidueWord(2, (0, 0)), ResidueWord(2, (0, 0)), 2)


def test_tables_reject_out_of_range_arguments():
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        factorial_check(-1)
    with pytest.raises(ValueError, match="need n_max >= 1, got 0"):
        general_e_scan(0, 2, 2)
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        general_e_scan(5, 0, 2)
    with pytest.raises(ValueError, match="scan prime must be prime, got 4"):
        scan_row(alternating_word(3), alternating_word(3), 4)


def test_cross_model_check_small():
    for n in range(1, 7):
        *_, summary = cross_model_reports(n)
        assert summary["ok"], summary
        assert summary["support_match"]
        m = summary["nonzero_words"]
        assert summary["pairs"] == m * (m + 1) // 2


def per_word_check(n):
    """The cross-model summary by pairing every pair of nonzero words."""
    fock_imgs, poly_imgs = {}, {}
    for letters in product(range(2), repeat=n):
        word = ResidueWord(2, letters)
        if x := apply_word(word):
            fock_imgs[letters] = x
        if f := apply_word_poly(word):
            poly_imgs[letters] = f
    assert set(fock_imgs) == set(poly_imgs)
    words = sorted(fock_imgs)
    mismatches = []
    for a, v in enumerate(words):
        for w in words[a:]:
            lhs = inner(fock_imgs[v], fock_imgs[w])
            rhs = inner_poly(poly_imgs[v], poly_imgs[w])
            if lhs != rhs:
                mismatches.append(f"v={v} w={w}: {lhs} != {rhs}")
    m = len(words)
    return {"n": n, "nonzero_words": m, "pairs": m * (m + 1) // 2,
            "support_match": True, "mismatches": mismatches,
            "ok": not mismatches}


def test_cross_model_reports_match_per_length_walks():
    reports = list(cross_model_reports(8))
    assert [r["n"] for r in reports] == list(range(1, 9))
    for n, summary in enumerate(reports, start=1):
        assert summary == per_word_check(n)
        assert summary["ok"]
    assert list(cross_model_reports(5)) == reports[:5]
    with pytest.raises(ValueError):
        next(cross_model_reports(0))


def both_levels(n_max):
    return list(check_levels(n_max, _both_models, (HALF_VACUUM, IMAGE_ONE),
                             lambda n, level: level))


def test_word_walks_carry_canonical_fock_images():
    # every level of the bound and cross-model walks to n = 10 holds half
    # vectors as item tuples: strictly increasing bead ints of the half,
    # no zero coefficient, no image twice; and its word counts sum to the
    # nonzero words of a per-word walk
    bound_levels = check_levels(10, lambda xs, i: [half_step(x, i) for x in xs],
                                HALF_VACUUM, lambda n, level: level)
    for n, (bound, cross) in enumerate(zip(bound_levels, both_levels(10)),
                                       start=1):
        nonzero = sum(1 for letters in product(range(2), repeat=n)
                      if apply_word(ResidueWord(2, letters)))
        for images, counts in (([x for _, x, _ in bound],
                                 [c for *_, c in bound]),
                                ([x for _, (x, _), _ in cross],
                                 [c for *_, c in cross])):
            assert sum(counts) == nonzero
            assert len(set(images)) == len(images)
            for x in images:
                assert type(x) is tuple and x
                assert all(a < b for (a, _), (b, _) in zip(x, x[1:]))
                assert all(c and s.bit_length() >= 2 * s.bit_count()
                           for s, c in x)


def test_gram_rows_pair_packed_images_like_inner_poly():
    # the z-weighted Gram rows of the numerators of packed images against
    # inner_poly of the decoded images, on every pair of each cross-model
    # level; the numerators take both signs
    def decode(image):
        den, items = image
        return {_unpack(key): Fraction(num, den) for key, num in items}

    for level in both_levels(10):
        images = [f for _, (_, f), _ in level]
        bits, rows = gram_rows([items for _, items in images], z_key)
        for a, (f, row) in enumerate(zip(images, rows)):
            for g, num in zip(images[a:],
                              read_slots(row, len(images) - a, bits)):
                assert Fraction(num, f[0] * g[0]) == inner_poly(decode(f),
                                                                decode(g))
    assert any(num < 0 for _, items in images for _, num in items)


def test_cross_model_check_reports_a_one_sided_zero():
    level = both_levels(7)[-1]
    word, (x, _), count = level[1]
    level[1] = (word, (x, ()), count)
    summary = cross_model_check(7, level)
    assert not summary["support_match"] and not summary["ok"]
    assert summary["mismatches"] == [f"support:{','.join(map(str, word))}"]
    assert summary["pairs"] == 0
    # the walk steps a one-sided zero on, so the next level reports it too,
    # beside the pairs it is stepped with
    y, f = level[0][1]
    assert _both_models([(x, ()), (y, f)], 0) == [
        (half_step(x, 0), ()), (half_step(y, 0), apply_letter(f, 0))]


def half_norm(x):
    """The full vector's norm from its half vector x."""
    return sum(half_weight(s) * c * c for s, c in x)


def test_cross_model_check_reports_a_scaled_image():
    level = both_levels(7)[-1]
    word, (x, (den, items)), count = level[2]
    level[2] = (word, (x, (den, tuple((k, 2 * v) for k, v in items))), count)
    summary = cross_model_check(7, level)
    assert summary["support_match"] and not summary["ok"]
    text = ",".join(map(str, word))
    square = half_norm(x)
    assert f"v={text} w={text}: {square} != {4 * square}" in summary["mismatches"]


def test_cross_model_check_reports_two_images_on_one_fock_image():
    # two distinct pairs with one Fock image but different polynomial
    # images cannot agree on all three of their pairings; with -f in place
    # of f the two diagonal ones agree, so only the cross pairing shows it
    level = both_levels(7)[-1]
    (first, (x, (den, items)), _), (word, _, count) = level[0], level[1]
    level[1] = (word, (x, (den, tuple((k, -v) for k, v in items))), count)
    summary = cross_model_check(7, level)
    assert summary["support_match"] and not summary["ok"]
    v, w = (",".join(map(str, u)) for u in (first, word))
    square = half_norm(x)
    assert f"v={v} w={w}: {square} != {-square}" in summary["mismatches"]


def test_cross_model_check_compares_slot_widths():
    # equal Fock images against polynomial images with norms 257 and 1 and
    # pairing 0: the rows pack to the same integers, 257 and 1, in slots
    # of one byte and of two
    s = to_beads((1,))
    level = [((0,), (((s, 1),), (1, ((_pack((1,)), 15), (_pack((1, 1)), 4)))),
              1),
             ((1,), (((s, 1),), (1, ((0, 1),))), 1)]
    summary = cross_model_check(1, level)
    assert summary["support_match"] and not summary["ok"]
    assert summary["mismatches"] == ["v=0 w=0: 1 != 257", "v=0 w=1: 1 != 0"]
