"""The acceptance gate: one test and one printed PASS/FAIL line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they happen (plain ``pytest`` captures them unless a test fails).

Each criterion is exact -- integer equalities and verifier verdicts, no
tolerances -- with a generous wall-clock ceiling taken from the design
budgets.
"""

import time
from itertools import product
from math import factorial

from chessfock import delta, experiments, fock, polyrep, tableaux
from chessfock.arith import tri_count, vp
from chessfock.partitions import (enumerate_partitions,
                                  glaisher_distinct_to_odd,
                                  glaisher_odd_to_distinct, to_beads, z_mu)
from chessfock.tableaux import ResidueWord

from test_experiments import CHESS_VALUES


class Criterion:
    """Prints the one-line verdict whether the body passed or raised."""

    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[criterion {self.number}] {self.name}: {verdict} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its budget: {elapsed:.1f}s")
        return False


def test_criterion_1_chess_table_matches_published_values():
    with Criterion(1, "alternating-word table n<=18", 5):
        rows = experiments.chess_table(18)
        assert [row.value for row in rows] == CHESS_VALUES
        assert all(row.verdict == "PASS" for row in rows)


def test_criterion_2_exhaustive_bound_with_tightness():
    with Criterion(2, "exhaustive 2^n bound scan n<=10, tight", 120):
        for n, report in enumerate(experiments.bound_reports(10), start=1):
            assert report.verdict == "PASS", report.to_json()
            assert report.required == n - tri_count(n)
            assert report.observed_min == report.required  # tightness


def test_criterion_3_model_equivalence_up_to_length_8():
    with Criterion(3, "fock/polynomial pairings agree, words n<=8", 120):
        for summary in experiments.cross_model_reports(8):
            # support_match certifies the zero images coincide, so pairs
            # involving a vanished word agree trivially; every surviving
            # pair was compared exactly
            assert summary["support_match"], summary
            assert summary["ok"], summary


def test_criterion_4_q_image_and_stability_at_degree_12():
    with Criterion(4, "q-image lemma n<=8 and lattice stability, degree 12", 300):
        for n in range(1, 9):
            for side in ("multiply", "adjoint"):
                report = delta.verify_q_image(n, 12, side)
                assert report.verdict == "PASS", report.to_json()
        report = delta.verify_stability(12)
        assert report.verdict == "PASS", report.to_json()


def test_criterion_5_generation_up_to_10():
    with Criterion(5, "mod-2 spanning of word images n<=10", 120):
        for n, report in enumerate(delta.generation_reports(10), start=1):
            assert report.verdict == "PASS", report.to_json()
            assert report.observed_min == len(enumerate_partitions(n, "odd"))


def test_criterion_6_pairing_bound_tight_up_to_16():
    with Criterion(6, "lattice pairing bound n<=16, tight", 60):
        for n in range(1, 17):
            report = delta.verify_pairing(n)
            assert report.verdict == "PASS", report.to_json()
            assert report.tight


def test_criterion_7_oracle_equivalence_and_factorials():
    with Criterion(7, "tableau oracle vs operator model; factorial checks", 300):
        for n in range(1, 9):
            shapes = enumerate_partitions(n)
            for letters in product(range(2), repeat=n):
                image = fock.apply_word(ResidueWord(2, letters))
                for lam in shapes:
                    count = tableaux.count_by_residue(
                        ResidueWord(2, letters), lam)
                    assert count == image.get(to_beads(lam), 0)
        for n in range(1, 13):
            assert experiments.factorial_check(n)
            assert vp(factorial(n), 2) == n - n.bit_count()


def test_criterion_8_property_suites_fixed_seed():
    with Criterion(8, "property suites under a fixed seed", 120):
        for name, ok, detail in experiments.property_checks(seed=0):
            assert ok, f"property suite {name} failed: {detail}"
        # Glaisher round trip plus the factored-out key identity, n <= 30
        for n in range(1, 31):
            for mu in enumerate_partitions(n, "odd"):
                nu = glaisher_odd_to_distinct(mu)
                assert glaisher_distinct_to_odd(nu) == mu
                assert len(mu) - vp(z_mu(mu), 2) == len(nu)
                assert len(nu) <= tri_count(n)
        # series truncation stability on the images the theorems use
        for n in range(1, 7):
            for letters in product(range(2), repeat=n):
                f = polyrep.apply_word_poly(ResidueWord(2, letters))
                for gen in polyrep.GENERATORS:
                    assert polyrep.op_generator(gen, f) == \
                        polyrep.op_series(gen, f, n + 6)
