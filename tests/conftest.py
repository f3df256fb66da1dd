import os

import pytest
from hypothesis import settings

from grushin3d.solver import Domain, solve_ground_state
from grid_reference import resample

ALPHAS = (0.5, 1.0, 2.0)

# CI selects "ci" (HYPOTHESIS_PROFILE=ci): a fixed example sequence and no
# per-example deadline, so property tests cannot flake on a slow host
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def fast_m():
    return 128


@pytest.fixture(scope="session")
def ground_states():
    """Ground states of the q = 4, alpha = 1 cube problem, warm-started up
    the resolution ladder and cached for the whole session."""
    cache = {}
    alpha = 1.0

    def get(n, tol=1e-6):
        if n in cache:
            return cache[n]
        domain = Domain.cube(1.0, n)
        initial = None
        smaller = [m for m in cache if m < n]
        if smaller:
            src = cache[max(smaller)]
            initial = resample(src.u, (n, n, n), domain.bbox).values
        cache[n] = solve_ground_state(domain, 4.0, alpha, tol, initial=initial)
        return cache[n]

    return get
