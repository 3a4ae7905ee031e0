import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import poolblend.simplex as simplex
from poolblend import build_pq, generate_instance, GenSpec
from poolblend.instances import adhya4_fragment, haverly

# tiny seeded instances for oracle-vs-solver comparisons; sizes keep the
# grid oracle tractable (pools carry 2-3 feed inputs)
TINY_SPECS = [
    GenSpec("sparse_haverly", ni=3, nl=1, nj=2, nk=1, na=8, seed=s) for s in (1, 2, 4, 6)
] + [
    GenSpec("sparse_haverly", ni=4, nl=1, nj=3, nk=2, na=9, seed=s) for s in (3, 6, 8)
] + [
    GenSpec("sparse_haverly", ni=4, nl=2, nj=3, nk=2, na=12, seed=s) for s in (8, 9, 10)
]


@pytest.fixture
def h1():
    return haverly()


@pytest.fixture
def h1_pq(h1):
    return build_pq(h1)


@pytest.fixture
def fragment():
    return adhya4_fragment()


@pytest.fixture(scope="session")
def tiny_nets():
    return [(spec, generate_instance(spec)) for spec in TINY_SPECS]


@pytest.fixture
def warm_outcomes(monkeypatch):
    """What each warm-start attempt returned, in order (None: fell back to cold)."""
    outcomes = []
    run_warm = simplex._Simplex.run_warm

    def recording_run_warm(self):
        outcomes.append(run_warm(self))
        return outcomes[-1]

    monkeypatch.setattr(simplex._Simplex, "run_warm", recording_run_warm)
    return outcomes
