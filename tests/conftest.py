"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths they cross-check:
window integrals are summed piece by piece per window, and the window-end
search scans a dense grid augmented with the kink candidates.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import configuration

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Send hypothesis's cache of source constants to a temporary directory.

    Hypothesis writes it under ``.hypothesis/`` in the working directory
    while collecting property tests; they keep no example database.
    """
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="ipss-hypothesis-")
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


_WINDOW_CHUNK = 4096


def brute_force_avg_power(u, rho, T, step=1e-3):
    """Dense-grid brute force for the moving-average power norm.

    Window ends scan a regular grid of the given step augmented with the
    breakpoints and breakpoint+T kinks (the windowed integral is piecewise
    affine, so the supremum sits at a kink).  Each window integral is summed
    directly from the signal pieces, in piece order, as the sum of
    ``rho(|u|)`` times the overlap of each piece with the window; a chunk of
    window ends is summed at once.
    """
    bps = list(u.breakpoints) + [u.horizon]
    t_max = u.horizon + T
    candidates = set(np.arange(0.0, t_max + step, step).tolist())
    for b in bps:
        candidates.add(float(b))
        candidates.add(float(b) + T)
    ends = np.array(sorted(candidates))
    pieces = [(start, end, float(rho.eval(float(np.linalg.norm(val)))))
              for start, end, val in u.pieces()]
    best = 0.0
    for i in range(0, ends.size, _WINDOW_CHUNK):
        hi = ends[i:i + _WINDOW_CHUNK]
        lo = np.maximum(hi - T, 0.0)
        total = np.zeros_like(hi)
        for start, end, r in pieces:
            total += r * np.maximum(np.minimum(end, hi) - np.maximum(start, lo), 0.0)
        best = max(best, float(np.max(total)))
    return best / T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
