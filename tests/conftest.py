import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest
from hypothesis import settings

from chessfock import delta, fock, polyrep

settings.register_profile("fixed", derandomize=True, max_examples=60)
settings.load_profile("fixed")


@pytest.fixture
def fresh_memos():
    """Empty sub-monomial, q_n, column, state and half-step memos around a
    case, so that nothing built under an injected defect reaches another
    test."""
    caches = (polyrep._sub_monomials, polyrep._q_column, polyrep._column,
              polyrep._a_state, fock._half_moves)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def scanned(monkeypatch):
    """The (description, valuation) observations that each verifier run
    folds in ``delta._scan_report``, one list per run, in run order."""
    runs = []
    fold = delta._scan_report

    def keep(claim, degree_bound, required, require_tight, observations):
        runs.append(list(observations))
        return fold(claim, degree_bound, required, require_tight, runs[-1])

    monkeypatch.setattr(delta, "_scan_report", keep)
    return runs
