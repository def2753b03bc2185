"""Dini derivatives, Lyapunov-form checking, and power-gain synthesis.

The centerpiece is the construction of a smooth rescaling ``kappa`` from a
decay gauge ``sigma``:

    a(tau)   = (2/pi) * integral_0^tau min(s, sigma(s)) / (1 + s^2) ds
    kappa(q) = exp(2 * integral_1^q dtau / a(tau))

``kappa`` is strictly increasing and convex with ``kappa(1) = 1`` and
``kappa'(s) * sigma(s) >= 2 * kappa(s)``; those three facts are what the
moving-average power bound needs.  Because ``2/a`` is non-integrable at 0,
``kappa`` is tabulated on ``[q_min, q_max]`` in log-log space and extended
below ``q_min`` by log-linear extrapolation limited to one decade.  ``a`` comes
from adaptive Gauss-Legendre quadrature, ``ln kappa`` from exact cell integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .comparison_functions import (
    KLBound,
    MonotoneFn,
    apply_inverse,
    identity_fn,
)
from .errors import (
    CandidateError,
    NumericsError,
    ParameterError,
    PlanError,
    RangeError,
)
from .simulator import SystemDef

__all__ = [
    "LyapunovCandidate",
    "DissipationSpec",
    "KappaBundle",
    "SamplingPlan",
    "ViolationReport",
    "dini_derivative",
    "make_plan",
    "check_derivative_bound",
    "check_implication_form",
    "build_kappa",
    "ipss_gains_from_dissipation",
    "abs_candidate",
    "kappa_bundle_to_json",
    "kappa_bundle_from_json",
]


@dataclass(frozen=True)
class LyapunovCandidate:
    """A locally Lipschitz candidate ``V(t, x)`` with sandwich bounds.

    ``alpha1(|x|) <= eval(t, x) <= alpha2(|x|)`` is the declared sandwich;
    it is an obligation checked by sampling, not enforced here.
    """

    eval: Callable
    alpha1: MonotoneFn
    alpha2: MonotoneFn
    name: str = ""


@dataclass(frozen=True)
class DissipationSpec:
    """Gain pair of a dissipation-form derivative bound.

    The bound reads ``D+ V <= -alpha4(|x|) + chi4(|u|)`` everywhere; both
    gains are class K-infinity.
    """

    alpha4: MonotoneFn
    chi4: MonotoneFn

    def __post_init__(self):
        for name, f in (("alpha4", self.alpha4), ("chi4", self.chi4)):
            if f.class_tag != "Kinf":
                raise ParameterError(f"{name} must be class Kinf, got {f.class_tag}")


def dini_derivative(V: LyapunovCandidate, sys: SystemDef, t: float, xi, mu,
                    h0: float = 1e-3, levels: int = 8) -> float:
    """Upper Dini derivative of ``V`` along the field at ``(t, xi, mu)``.

    Evaluates the forward difference quotient at ``h0 * 2**-j`` for
    ``j = 0..levels-1`` and returns the maximum over the last half of the
    schedule, a consistent upper-envelope surrogate for the limsup when
    ``V`` is locally Lipschitz.
    """
    if h0 <= 0:
        raise ParameterError(f"h0 must be positive, got {h0}")
    if levels < 3:
        raise ParameterError(f"need at least 3 levels, got {levels}")
    xi = np.asarray(xi, dtype=float).reshape(sys.n)
    mu = np.asarray(mu, dtype=float).reshape(sys.m)
    fval = np.asarray(sys.rhs(t, xi, mu), dtype=float)
    v0 = float(V.eval(t, xi))
    if not math.isfinite(v0):
        raise CandidateError(f"candidate evaluation is nonfinite at ({t}, {xi})")
    quotients = []
    for j in range(levels):
        h = h0 * (2.0 ** (-j))
        v1 = float(V.eval(t + h, xi + h * fval))
        if not math.isfinite(v1):
            raise CandidateError(f"candidate evaluation is nonfinite at ({t + h}, {xi + h * fval})")
        quotients.append((v1 - v0) / h)
    tail = math.ceil(levels / 2)
    return max(quotients[levels - tail:])


# ---------------------------------------------------------------------------
# sampled inequality checks


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic (t, x, u) sample set for derivative-bound checks."""

    times: tuple
    states: tuple          # tuple of n-vectors (as tuples)
    inputs: tuple          # tuple of m-vectors (as tuples)
    seed: int
    h0: float = 1e-3
    levels: int = 8


def make_plan(n: int, m: int, times: Sequence[float], radii: Sequence[float],
              dirs_per_radius: int, mu_radii: Sequence[float],
              mu_dirs_per_radius: int, seed: int,
              h0: float = 1e-3, levels: int = 8) -> SamplingPlan:
    """Log-radii-times-random-directions sampling plan with explicit seed."""
    rng = np.random.default_rng(seed)
    states = []
    for r in radii:
        for _ in range(dirs_per_radius):
            v = rng.standard_normal(n)
            nv = np.linalg.norm(v)
            v = v / nv if nv > 0 else np.eye(n)[0]
            states.append(tuple(float(x) for x in (r * v)))
    inputs = [tuple(0.0 for _ in range(m))]
    for r in mu_radii:
        for _ in range(mu_dirs_per_radius):
            v = rng.standard_normal(m)
            nv = np.linalg.norm(v)
            v = v / nv if nv > 0 else np.eye(m)[0]
            inputs.append(tuple(float(x) for x in (r * v)))
    return SamplingPlan(
        times=tuple(float(t) for t in times),
        states=tuple(states),
        inputs=tuple(inputs),
        seed=seed,
        h0=h0,
        levels=levels,
    )


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a sampled derivative-bound check; empty entries = pass."""

    entries: tuple   # of dicts {t, xi, mu, lhs, rhs, gap}
    n_checked: int

    @property
    def passed(self) -> bool:
        return len(self.entries) == 0

    def to_json(self) -> list:
        return [dict(e) for e in self.entries]


def _margin_at(margin, lhs: float) -> float:
    if margin is not None:
        return float(margin)
    return 1e-3 * (1.0 + abs(lhs))


def _run_check(V, sys, plan, rhs_bound, margin, condition=None) -> ViolationReport:
    disc = set(float(d) for d in sys.discontinuity_times)
    for t in plan.times:
        if float(t) in disc:
            raise PlanError(f"plan time {t} is a declared discontinuity time")
    violations = []
    checked = 0
    for t in plan.times:
        for xi in plan.states:
            for mu in plan.inputs:
                xi_a = np.asarray(xi)
                mu_a = np.asarray(mu)
                if condition is not None and not condition(xi_a, mu_a):
                    continue
                checked += 1
                lhs = dini_derivative(V, sys, t, xi_a, mu_a, plan.h0, plan.levels)
                rhs = rhs_bound(xi_a, mu_a)
                gap = lhs - rhs
                if gap > _margin_at(margin, lhs):
                    violations.append({
                        "t": float(t),
                        "xi": [float(v) for v in xi],
                        "mu": [float(v) for v in mu],
                        "lhs": float(lhs),
                        "rhs": float(rhs),
                        "gap": float(gap),
                    })
    return ViolationReport(entries=tuple(violations), n_checked=checked)


def check_derivative_bound(V: LyapunovCandidate, sys: SystemDef, alpha: MonotoneFn,
                           chi: MonotoneFn, plan: SamplingPlan,
                           margin: Optional[float] = None) -> ViolationReport:
    """Check ``D+ V <= -alpha(|x|) + chi(|u|)`` over the sampling plan.

    Serves the dissipation form (``alpha`` class Kinf) and the integral
    form (``alpha`` merely positive definite) alike.
    ``margin=None`` uses the adaptive default ``1e-3 * (1 + |D+ V|)`` that
    swallows the finite-difference bias of the Dini estimate.
    """

    def rhs_bound(xi, mu):
        return -float(alpha.eval(float(np.linalg.norm(xi)))) \
            + float(chi.eval(float(np.linalg.norm(mu))))

    return _run_check(V, sys, plan, rhs_bound, margin)


def check_implication_form(V: LyapunovCandidate, sys: SystemDef, alpha3: MonotoneFn,
                           chi3: MonotoneFn, plan: SamplingPlan,
                           margin: Optional[float] = None) -> ViolationReport:
    """Check ``D+ V <= -alpha3(|x|)`` wherever ``|x| >= chi3(|u|)``."""

    def rhs_bound(xi, mu):
        return -float(alpha3.eval(float(np.linalg.norm(xi))))

    def condition(xi, mu):
        return float(np.linalg.norm(xi)) >= float(chi3.eval(float(np.linalg.norm(mu))))

    return _run_check(V, sys, plan, rhs_bound, margin, condition)


# ---------------------------------------------------------------------------
# kappa construction


class _LogLog:
    """Tabulated ``ln v`` over ``ln x``: linear per cell, and past each end with its end slope."""

    def __init__(self, ln_x, ln_v, lo_slope=None, hi_slope=None):
        self.ln_x = ln_x
        self.ln_v = ln_v
        self.cell_slopes = np.diff(ln_v) / np.diff(ln_x)
        self.lo_slope = self.cell_slopes[0] if lo_slope is None else lo_slope
        self.hi_slope = self.cell_slopes[-1] if hi_slope is None else hi_slope

    def __call__(self, lx):
        x, v = self.ln_x, self.ln_v
        not_below = np.where(lx > x[-1], v[-1] + self.hi_slope * (lx - x[-1]), np.interp(lx, x, v))
        return np.where(lx < x[0], v[0] + self.lo_slope * (lx - x[0]), not_below)


@dataclass(frozen=True, eq=False)
class KappaBundle:
    """Tabulated ``kappa`` rescaling built from a decay gauge ``sigma``.

    The bundle is its tables: ``a`` and ``ln kappa`` on the log grid ``qs``.
    ``a_fn``, ``kappa`` (with ``kappa.derivative``), :meth:`ln_kappa_at` and
    the inverse all read them through one log-log interpolant, so a bundle
    round-trips exactly through JSON.  ``kappa`` evaluates to 0 below the
    one-decade extrapolation floor ``q_min/10``; every other query outside
    the covered range raises :class:`RangeError` naming the range to
    rebuild with.
    """

    qs: np.ndarray = field(repr=False)
    a_vals: np.ndarray = field(repr=False)
    ln_kappa: np.ndarray = field(repr=False)
    q_min: float
    q_max: float
    quadrature_tol: float
    sigma: Optional[MonotoneFn] = None
    a_fn: MonotoneFn = field(init=False, repr=False)
    kappa: MonotoneFn = field(init=False, repr=False)
    _ln_a: _LogLog = field(init=False, repr=False)
    _ln_k: _LogLog = field(init=False, repr=False)

    def __post_init__(self):
        ln_q = np.log(self.qs)
        # d ln(kappa) / d ln(q) = 2 q / a continues ln kappa past both table ends
        ends = 2.0 * self.qs[[0, -1]] / self.a_vals[[0, -1]]
        object.__setattr__(self, "_ln_a", _LogLog(ln_q, np.log(self.a_vals)))
        object.__setattr__(self, "_ln_k", _LogLog(ln_q, self.ln_kappa, *ends))
        object.__setattr__(self, "a_fn", MonotoneFn(eval=self._a_eval, class_tag="Kinf"))
        object.__setattr__(self, "kappa", MonotoneFn(eval=self._kappa_eval, class_tag="Kinf",
                                                     derivative=self._kappa_prime))

    def _a_eval(self, q):
        q_arr = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):  # a(0) = exp(-inf) = 0
            out = np.exp(self._ln_a(np.log(q_arr)))
        return float(out) if np.ndim(q) == 0 else out

    def _ln_kappa(self, q_arr):
        """The table's ``ln kappa`` at ``q_arr``, behind the one ``q_max`` check."""
        if np.any(q_arr > self.qs[-1] * (1.0 + 1e-12)):
            bad = float(np.max(q_arr))
            raise RangeError(
                f"kappa evaluated at {bad:.6e} beyond q_max={self.q_max:.3e}; "
                f"rebuild the bundle with q_max >= {bad:.3e}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._ln_k(np.log(q_arr))

    def _kappa_eval(self, q):
        q_arr = np.asarray(q, dtype=float)
        out = np.exp(self._ln_kappa(q_arr))
        out = np.where(q_arr < self.q_min / 10.0, 0.0, out)  # below the extrapolation decade
        return float(out) if np.ndim(q) == 0 else out

    def _kappa_prime(self, q):
        kappa = np.asarray(self._kappa_eval(q))  # 0 at q = 0, where a is 0 too
        out = np.divide(2.0 * kappa, self._a_eval(q), out=np.zeros_like(kappa), where=kappa > 0)
        return float(out) if np.ndim(q) == 0 else out

    def ln_kappa_at(self, q):
        """``ln kappa(q)`` straight from the tables; immune to underflow.

        Defined on ``[q_min/10, q_max]`` like ``kappa.eval`` but without the
        conversion through ``exp``; ``ln kappa(0)`` is ``-inf``, and a
        positive ``q`` below ``q_min/10`` raises :class:`RangeError`.
        """
        q_arr = np.asarray(q, dtype=float)
        if np.any(q_arr < 0):
            raise ParameterError("ln kappa needs nonnegative arguments")
        out = self._ln_kappa(q_arr)
        low = (q_arr > 0) & (q_arr < self.q_min / 10.0)
        if np.any(low):
            bad = float(np.min(q_arr[low]))
            raise RangeError(
                f"ln kappa at {bad:.6e} is below the extrapolation floor "
                f"q_min/10={self.q_min / 10:.3e}; rebuild the bundle with q_min <= {bad:.3e}"
            )
        return float(out) if np.ndim(q) == 0 else out

    def kappa_inv(self, y):
        """Exact inverse of the tabulated ``kappa``: :meth:`kappa_inv_ln` at ``ln y``."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < 0):
            raise ParameterError(f"cannot invert kappa at negative value {float(np.min(y_arr))}")
        with np.errstate(divide="ignore"):
            return self.kappa_inv_ln(np.log(y_arr))

    def kappa_inv_ln(self, ln_y):
        """``kappa^{-1}(e^{ln_y})`` for any array shape, closed form per table cell.

        Works from ``ln y``, so values far below the smallest float invert
        without underflow; ``ln_y = -inf`` gives 0.
        """
        ln_y = np.asarray(ln_y, dtype=float)
        ln_qs, ln_k = self._ln_k.ln_x, self.ln_kappa
        if np.any(ln_y > ln_k[-1]):
            bad = float(np.max(ln_y))
            raise RangeError(
                f"kappa inverse at ln y={bad:.6g} exceeds ln kappa(q_max)={ln_k[-1]:.6g}; "
                f"rebuild the bundle with a larger q_max than {self.q_max:.3e}"
            )
        j = np.clip(np.searchsorted(ln_k, ln_y, side="right") - 1, 0, ln_k.size - 2)
        ln_q = np.where(ln_y < ln_k[0],
                        ln_qs[0] + (ln_y - ln_k[0]) / self._ln_k.lo_slope,
                        ln_qs[j] + (ln_y - ln_k[j]) / self._ln_k.cell_slopes[j])
        low = (ln_q < ln_qs[0] - math.log(10.0) - 1e-12) & (ln_y > -np.inf)
        if np.any(low):
            bad = float(np.min(ln_q[low]))
            raise RangeError(
                f"kappa inverse at ln y={float(np.min(ln_y[low])):.6g} needs q below "
                f"{self.q_min / 10:.3e}; rebuild the bundle with q_min <= {math.exp(bad):.3e}"
            )
        out = np.exp(ln_q)
        return float(out) if out.ndim == 0 else out


def _log_grid(q_min: float, q_max: float, per_decade: int) -> np.ndarray:
    """Log-spaced grid on [q_min, q_max] containing 1.0 exactly, for q_min < 1 < q_max."""
    down = int(math.ceil(per_decade * math.log10(1.0 / q_min)))
    up = int(math.ceil(per_decade * math.log10(q_max)))
    # linspace ends exactly at 0.0 and starts there, so both halves meet at exp(0) = 1
    grid = np.exp(np.concatenate([np.linspace(math.log(q_min), 0.0, down + 1),
                                  np.linspace(0.0, math.log(q_max), up + 1)[1:]]))
    grid[0] = q_min
    grid[-1] = q_max
    return grid


_GL8_NODES = np.array([
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975363,
])
_GL8_WEIGHTS = np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763,
])


def _cell_integrals(f, lo, hi, tol: float) -> np.ndarray:
    """Adaptive 8-point Gauss-Legendre integrals of ``f`` over the cells ``[lo[i], hi[i]]``.

    A piece is accepted when its halves agree with it within its length's share of ``tol``
    times its cell's first estimate, else halved; 48 halvings or a miss at rounding level raise.
    """

    def gl8(x0, x1):
        half = 0.5 * (x1 - x0)
        return half * (f(0.5 * (x0 + x1)[:, None] + half[:, None] * _GL8_NODES) @ _GL8_WEIGHTS)

    cell = np.arange(lo.size)
    whole = gl8(lo, hi)
    budget = tol * np.abs(whole)
    out = np.zeros(lo.size)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        left, right = gl8(lo, mid), gl8(mid, hi)
        err = np.abs(left + right - whole)
        bad = err > budget  # nan passes here and fails the a-table check, never doubling
        out += np.bincount(cell[~bad], weights=(left + right)[~bad], minlength=out.size)
        if not bad.any():
            return out
        lo, mid, hi = lo[bad], mid[bad], hi[bad]
        if np.any(err[bad] <= 1e-14 * np.abs(whole[bad])):  # halving cannot beat rounding
            break
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        whole = np.concatenate([left[bad], right[bad]])
        budget = np.tile(0.5 * budget[bad], 2)
        cell = np.tile(cell[bad], 2)
    raise NumericsError(f"quadrature stalled on [{lo[0]}, {hi[0]}] at tolerance {tol:g}")


def build_kappa(sigma: MonotoneFn, q_range: tuple, quadrature_tol: float = 1e-10,
                points_per_decade: int = 160) -> KappaBundle:
    """Tabulate ``a`` and ``kappa`` for a class-Kinf gauge ``sigma``.

    ``a`` accumulates adaptive Gauss-Legendre cell integrals of
    ``(2/pi) * min(s, sigma(s)) / (1 + s^2)`` on a log grid; ``kappa``
    accumulates the exact cell integrals of ``2/a`` outward from 1 in
    both directions, stored as ``ln kappa`` so deep attenuation never
    underflows.  ``kappa(1) = 1`` holds exactly.
    """
    if sigma.class_tag != "Kinf":
        raise ParameterError(f"sigma must be class Kinf, got tag {sigma.class_tag}")
    q_min, q_max = float(q_range[0]), float(q_range[1])
    if not (0.0 < q_min < 1.0 < q_max):
        raise ParameterError(f"need 0 < q_min < 1 < q_max, got [{q_min}, {q_max}]")
    if quadrature_tol <= 0:
        raise ParameterError("quadrature tolerance must be positive")

    def w(s):
        return (2.0 / math.pi) * np.minimum(s, sigma.eval(s)) / (1.0 + s * s)

    qs = _log_grid(q_min, q_max, points_per_decade)
    a_vals = np.cumsum(_cell_integrals(w, np.concatenate([[0.0], qs[:-1]]), qs, quadrature_tol))
    if not np.all(a_vals > 0):  # nan included
        raise NumericsError("a(tau) table has nonpositive or nan values; sigma may not be Kinf")

    # with a = a_i (q / q_i)^m on cell i of width h in ln q, the cell's
    # integral of 2/a dq is 2 q_i / a_i * h * expm1(x) / x, x = (1 - m) h
    h = np.diff(np.log(qs))
    x = h - np.diff(np.log(a_vals))
    growth = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    cells = 2.0 * qs[:-1] / a_vals[:-1] * h * growth
    one_idx = int(np.argmin(np.abs(qs - 1.0)))
    ln_kappa = np.concatenate([-np.cumsum(cells[:one_idx][::-1])[::-1], [0.0],
                               np.cumsum(cells[one_idx:])])
    return KappaBundle(qs=qs, a_vals=a_vals, ln_kappa=ln_kappa, q_min=q_min, q_max=q_max,
                       quadrature_tol=float(quadrature_tol), sigma=sigma)


def kappa_bundle_to_json(bundle: KappaBundle) -> dict:
    return {
        "qs": bundle.qs.tolist(),
        "a": bundle.a_vals.tolist(),
        "kappa": np.exp(bundle.ln_kappa).tolist(),
        "ln_kappa": bundle.ln_kappa.tolist(),
        "kappa_prime": (2.0 * np.exp(bundle.ln_kappa) / bundle.a_vals).tolist(),
        "q_min": bundle.q_min,
        "q_max": bundle.q_max,
        "quadrature_tol": bundle.quadrature_tol,
    }


def kappa_bundle_from_json(d: dict) -> KappaBundle:
    qs, a_vals, ln_kappa = (np.asarray(d[k], dtype=float) for k in ("qs", "a", "ln_kappa"))
    return KappaBundle(qs=qs, a_vals=a_vals, ln_kappa=ln_kappa, q_min=float(d["q_min"]),
                       q_max=float(d["q_max"]), quadrature_tol=float(d["quadrature_tol"]))


# ---------------------------------------------------------------------------
# gain synthesis


def ipss_gains_from_dissipation(alpha1: MonotoneFn, alpha2: MonotoneFn,
                                spec: DissipationSpec, T: float,
                                bundle: KappaBundle):
    """Synthesize the decay/gain triple certified by a dissipation pair.

    The bundle must be built from ``sigma = alpha4 o alpha2^{-1}``.  Returns
    ``(beta, gamma, rho)`` with

        beta(s, t) = alpha1^{-1}(kappa^{-1}(2 e^{-t} kappa(alpha2(s))))
        gamma(s)   = alpha1^{-1}(kappa^{-1}(2 e^T T s / (1 - e^{-T})))
        rho(s)     = kappa'(sigma^{-1}(2 chi4(s))) * chi4(s)

    ``rho`` is the power gauge to use in the moving-average norm of the
    resulting certificate.  ``beta`` is formed in log space, so it stays
    sound where ``kappa(alpha2(s))`` underflows; a query with
    ``alpha2(s)`` below ``q_min/10`` raises :class:`RangeError`.
    """
    if T <= 0:
        raise ParameterError(f"window length must be positive, got {T}")
    if bundle.sigma is None:
        raise ParameterError("bundle was reloaded without sigma; rebuild to synthesize gains")
    sigma = bundle.sigma
    gamma_scale = 2.0 * math.exp(T) * T / (1.0 - math.exp(-T))

    def beta_eval(s, t):
        # ln(2 e^{-t} kappa(alpha2(s))), never exponentiated: kappa underflows
        ln_y = math.log(2.0) - np.asarray(t, dtype=float) + bundle.ln_kappa_at(alpha2.eval(s))
        out = apply_inverse(alpha1, bundle.kappa_inv_ln(ln_y))
        return float(out) if np.ndim(out) == 0 else out

    def gamma_eval(s):
        s_arr = np.asarray(s, dtype=float)
        q = bundle.kappa_inv(gamma_scale * s_arr)
        out = apply_inverse(alpha1, q)
        return float(out) if (np.ndim(s) == 0 and np.ndim(out) == 0) else out

    def rho_eval(s):
        chi = np.asarray(spec.chi4.eval(np.asarray(s, dtype=float)), dtype=float)
        out = np.asarray(bundle.kappa.derivative(apply_inverse(sigma, 2.0 * chi))) * chi
        return float(out) if np.ndim(s) == 0 else out

    beta = KLBound(kind="general", eval2=beta_eval)
    gamma = MonotoneFn(eval=gamma_eval, class_tag="Kinf")
    rho = MonotoneFn(eval=rho_eval, class_tag="Kinf")
    return beta, gamma, rho


def abs_candidate() -> LyapunovCandidate:
    """The scalar candidate ``V(t, x) = |x|`` with identity sandwich bounds."""
    return LyapunovCandidate(
        eval=lambda t, x: float(np.linalg.norm(x)),
        alpha1=identity_fn(),
        alpha2=identity_fn(),
        name="abs",
    )
