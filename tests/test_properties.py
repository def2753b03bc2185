"""Property-based checks of the exact measures, signal algebra and table specs.

Every test runs a fixed, derandomized set of examples with no example
database, so the suite stays deterministic (``conftest.py`` also keeps
hypothesis's cache of source constants out of the working tree).
"""

import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from conftest import brute_force_avg_power
from hypothesis import given, settings
from hypothesis import strategies as st

from ipss_lab.comparison_functions import (
    KLBound,
    MonotoneFn,
    apply_inverse,
    klbound_from_spec,
    klbound_to_spec,
    make_power_fn,
    make_table_fn,
    monotone_from_spec,
    monotone_to_spec,
)
from ipss_lab.lyapunov_tools import build_kappa
from ipss_lab.signals import (
    avg_power_norm,
    make_signal,
    restrict,
    rho_energy,
    signal_from_json,
    sup_norm,
)

PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)


# breakpoints and levels on a quarter grid keep every window integral exact
TICK = 0.25


@st.composite
def signals(draw, max_ticks=24):
    ticks = draw(st.lists(st.integers(1, max_ticks - 1), max_size=6, unique=True))
    bps = [0.0] + [TICK * k for k in sorted(ticks)]
    vals = draw(st.lists(st.integers(-8, 8), min_size=len(bps), max_size=len(bps)))
    horizon = TICK * draw(st.integers(max(ticks, default=0) + 1, max_ticks))
    return make_signal([(t, [TICK * v]) for t, v in zip(bps, vals)], horizon=horizon)


def probe_times(*signals_and_times):
    """Every breakpoint, horizon and given time, plus the midpoints between them."""
    ts = set()
    for item in signals_and_times:
        if isinstance(item, float):
            ts.add(item)
        else:
            ts.update(float(b) for b in item.breakpoints)
            ts.add(float(item.horizon))
    ts = sorted(ts)
    return ts + [0.5 * (a + b) for a, b in zip(ts, ts[1:])] + [ts[-1] + 1.0]


@PROPERTY
@given(u=signals(), T=st.sampled_from([0.5, 1.0, 1.75]), p=st.sampled_from([1.0, 2.0]),
       a=st.integers(0, 28), b=st.integers(0, 28))
def test_avg_power_norm_matches_brute_force(u, T, p, a, b):
    """Also over an interval: the measures there are those of the restriction."""
    rho = make_power_fn(1.0, p)
    expected = brute_force_avg_power(u, rho, T, step=0.05)
    assert np.isclose(avg_power_norm(u, rho, T).value, expected, rtol=1e-12, atol=1e-12)
    a, b = TICK * min(a, b), TICK * max(a, b)
    r = restrict(u, a, b)
    power = avg_power_norm(u, rho, T, (a, b))
    assert power == avg_power_norm(r, rho, T)
    expected = brute_force_avg_power(r, rho, T, step=0.05)
    assert np.isclose(power.value, expected, rtol=1e-12, atol=1e-12)
    assert sup_norm(u, (a, b)).value == sup_norm(r).value
    assert rho_energy(u, rho, (a, b)).value == rho_energy(r, rho).value


@PROPERTY
@given(u=signals(), p=st.floats(0.25, 4.0))
def test_measures_equal_the_per_piece_loop(u, p):
    """The array pass adds the piece energies left to right, as a loop does."""
    rho = make_power_fn(1.0, p)
    total, best = 0.0, 0.0
    for start, end, val in u.pieces():
        mag = float(np.linalg.norm(val))
        total += rho.eval(mag) * (end - start)
        best = max(best, mag)
    assert rho_energy(u, rho).value == total
    assert sup_norm(u).value == best


@pytest.mark.parametrize("part", ["eval", "derivative", "inverse"])
@PROPERTY
@given(c=st.floats(0.1, 10.0), p=st.floats(0.25, 4.0),
       s=st.lists(st.floats(0.0, 50.0, exclude_min=True), min_size=1, max_size=16))
def test_power_fn_scalar_call_equals_array_element(part, c, p, s):
    fn = getattr(make_power_fn(c, p), part)
    out = fn(np.asarray(s))
    for x, y in zip(s, out):
        assert type(fn(x)) is float and fn(x) == y


@PROPERTY
@given(u=signals(), a=st.integers(0, 24), b=st.integers(0, 24))
def test_restrict_agrees_inside_and_vanishes_outside(u, a, b):
    a, b = TICK * min(a, b), TICK * max(a, b)
    r = restrict(u, a, b)
    for t in probe_times(u, a, b):
        expected = u.eval(t) if a <= t < b else np.zeros(1)
        assert np.array_equal(r.eval(t), expected)


@PROPERTY
@given(u=signals())
def test_json_pieces_rebuild_the_signal(u):
    """The CLI's ``input.kind = "signal"`` form of a signal reads back to that signal."""
    v = signal_from_json({"dim": u.dim, "horizon": u.horizon, "pieces": [
        {"t": float(t), "v": val.tolist()} for t, val in zip(u.breakpoints, u.values)]})
    assert np.array_equal(v.breakpoints, u.breakpoints) and np.array_equal(v.values, u.values)
    assert (v.horizon, v.dim) == (u.horizon, u.dim)


@PROPERTY
@given(steps=st.lists(st.integers(0, 8), min_size=1, max_size=8), last=st.integers(1, 8),
       y=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
def test_table_inverse_never_undershoots(steps, last, y):
    """f(f^{-1}(y)) >= y, and f^{-1}(y) is the largest preimage of y.

    A flat level inverts to its run's right edge, the loose choice that keeps
    a state bound ``alpha^{-1}(V)`` safe; every other y, also one on the rise
    before a flat run, inverts to its one preimage.  Only y = 0 inverts to 0,
    even after a leading flat run.
    """
    ys = np.cumsum([0.0] + [TICK * k for k in steps] + [TICK * last])
    f = make_table_fn(np.arange(ys.size, dtype=float), ys)
    for target in y:
        x = apply_inverse(f, target)
        back = f.eval(x)
        assert back >= target * (1.0 - 1e-12) - 1e-12
        assert np.isclose(back, target, rtol=1e-12, atol=1e-12)  # a preimage
        if target > 0.0:  # and no larger x is one
            assert f.eval(x + 1e-9 * (1.0 + x)) > target


@lru_cache(maxsize=None)
def kappa_bundle(p: float):
    return build_kappa(make_power_fn(1.0, p), (1e-3, 1e3), 1e-10)


@PROPERTY
@given(p=st.sampled_from([1.0, 2.0]), frac=st.floats(0.0, 1.0))
def test_kappa_inverse_round_trip_on_table_range(p, frac):
    """Checked from the first table node where ``kappa`` is a normal float.

    Below it ``kappa`` underflows to 0 (``ln kappa(1e-3)`` is about -6280
    for the identity gauge), and ``kappa_inv(0)`` is 0.
    """
    bundle = kappa_bundle(p)
    q_lo = float(bundle.qs[np.argmax(bundle.ln_kappa > math.log(sys.float_info.min))])
    q = min(q_lo * (bundle.q_max / q_lo) ** frac, bundle.q_max)
    assert np.isclose(bundle.kappa_inv(bundle.kappa.eval(q)), q, rtol=1e-9, atol=0.0)


grids = st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=6, unique=True)


@PROPERTY
@given(c=st.floats(0.1, 10.0), p=st.floats(0.25, 4.0), grid=grids)
def test_sampled_monotone_spec_reproduces_nodes(c, p, grid):
    power = make_power_fn(c, p)
    f = MonotoneFn(eval=power.eval, class_tag="Kinf")  # no closed-form spec
    clone = monotone_from_spec(monotone_to_spec(f, sample_grid=grid))
    for x in [0.0] + grid:
        assert clone.eval(x) == f.eval(x)


@PROPERTY
@given(K=st.floats(1.0, 5.0), lam=st.floats(0.1, 3.0), s_grid=grids, t_grid=grids)
def test_table2d_spec_reproduces_nodes(K, lam, s_grid, t_grid):
    exact = KLBound(kind="exponential", K=K, lam=lam)
    b = KLBound(kind="general", eval2=exact.eval)
    s_grid, t_grid = sorted({0.0, *s_grid}), sorted({0.0, *t_grid})
    clone = klbound_from_spec(klbound_to_spec(b, s_grid=s_grid, t_grid=t_grid))
    for s in s_grid:
        for t in t_grid:
            assert clone.eval(s, t) == float(b.eval(s, t))
