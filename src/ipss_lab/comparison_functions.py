"""Algebra of scalar comparison functions.

Comparison functions are the nonnegative, zero-at-zero scalar maps used
throughout stability analysis: class P (positive definite), class K
(additionally strictly increasing) and class K-infinity (additionally
unbounded).  This module provides constructors, composition, inversion
through the analytic inverse a function carries, JSON specs, and the
exponential Sontag factorization used by the converse construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError, RangeError

__all__ = [
    "MonotoneFn",
    "KLBound",
    "identity_fn",
    "make_power_fn",
    "make_table_fn",
    "scale_fn",
    "compose",
    "apply_inverse",
    "inverse_fn",
    "sontag_factorize_exponential",
    "monotone_to_spec",
    "monotone_from_spec",
    "klbound_to_spec",
    "klbound_from_spec",
]

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class MonotoneFn:
    """A scalar comparison function on the nonnegative reals.

    ``eval`` maps nonnegative reals to nonnegative reals and should accept
    numpy arrays as well as scalars.  ``derivative`` and ``inverse`` are
    optional analytic companions; only a function that carries ``inverse``
    can be inverted.
    ``class_tag`` is one of ``"P"``, ``"K"`` or ``"Kinf"``.
    """

    eval: Callable
    class_tag: str = "K"
    derivative: Optional[Callable] = None
    inverse: Optional[Callable] = None
    spec: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        if self.class_tag not in ("P", "K", "Kinf"):
            raise ParameterError(f"unknown class tag {self.class_tag!r}")
        if self.class_tag in ("K", "Kinf"):
            v0 = float(self.eval(0.0))
            if abs(v0) > _ZERO_TOL:
                raise ParameterError(
                    f"class-{self.class_tag} function must vanish at 0, got {v0!r}"
                )

    def __call__(self, s):
        return self.eval(s)


@dataclass(frozen=True)
class KLBound:
    """A two-argument decay bound: class K in ``s``, decreasing to 0 in ``t``.

    The exponential variant ``K*s*exp(-lam*t)`` is the only one that the
    exact window-bound transformer accepts; everything else is handled
    opaquely through ``eval2``.
    """

    kind: str  # "exponential" | "general"
    K: Optional[float] = None
    lam: Optional[float] = None
    eval2: Optional[Callable] = None

    def __post_init__(self):
        if self.kind == "exponential":
            if self.K is None or self.lam is None:
                raise ParameterError("exponential KL bound needs K and lam")
            if self.K < 1.0:
                raise ParameterError(f"exponential KL bound requires K >= 1, got {self.K}")
            if self.lam <= 0.0:
                raise ParameterError(f"exponential KL bound requires lam > 0, got {self.lam}")
        elif self.kind == "general":
            if self.eval2 is None:
                raise ParameterError("general KL bound needs eval2")
        else:
            raise ParameterError(f"unknown KL bound kind {self.kind!r}")

    def eval(self, s, t):
        if self.kind == "exponential":
            return self.K * np.asarray(s, dtype=float) * np.exp(-self.lam * np.asarray(t, dtype=float))
        return self.eval2(s, t)


def identity_fn() -> MonotoneFn:
    """The identity map, the simplest K-infinity function."""
    return make_power_fn(1.0, 1.0)


def make_power_fn(c: float, p: float) -> MonotoneFn:
    """Build ``s -> c * s**p`` with analytic derivative and inverse.

    Both ``c`` and ``p`` must be positive; the result carries a ``Kinf`` tag.
    """
    if not (c > 0.0):
        raise ParameterError(f"power function needs c > 0, got {c}")
    if not (p > 0.0):
        raise ParameterError(f"power function needs p > 0, got {p}")
    c = float(c)
    p = float(p)

    # one np.power path for scalars and arrays, so a scalar call gives the
    # same float as the matching element of an array call
    def _eval(s, _c=c, _p=p):
        out = _c * np.power(s, _p)
        return float(out) if np.ndim(s) == 0 else out

    def _deriv(s, _c=c, _p=p):
        out = _c * _p * np.power(s, _p - 1.0)
        return float(out) if np.ndim(s) == 0 else out

    def _inv(y, _c=c, _p=p):
        out = np.power(np.asarray(y, dtype=float) / _c, 1.0 / _p)
        return float(out) if np.ndim(y) == 0 else out

    return MonotoneFn(
        eval=_eval,
        class_tag="Kinf",
        derivative=_deriv,
        inverse=_inv,
        spec={"kind": "power", "c": c, "p": p},
    )


def make_table_fn(xs: Sequence[float], ys: Sequence[float], class_tag: str = "Kinf") -> MonotoneFn:
    """Monotone piecewise-linear function through ``(xs, ys)``.

    Beyond the last node the final segment slope is continued, so Kinf
    tables stay unbounded.  Nodes must start at ``x=0`` with ``y=0`` for
    K/Kinf tags, be finite, and be strictly increasing in ``x``,
    nondecreasing in ``y``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ParameterError("table function needs matching 1-D xs/ys with >= 2 nodes")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ParameterError("table xs and ys must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ParameterError("table xs must be strictly increasing")
    if np.any(np.diff(ys) < 0):
        raise ParameterError("table ys must be nondecreasing")
    end_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def _eval(s, _xs=xs, _ys=ys, _m=end_slope):
        s_arr = np.asarray(s, dtype=float)
        out = np.interp(s_arr, _xs, _ys)
        out = np.where(s_arr > _xs[-1], _ys[-1] + _m * (s_arr - _xs[-1]), out)
        return float(out) if np.ndim(s) == 0 else out

    # the inverse interpolates the nodes with x and y swapped: np.interp takes
    # the segment with ys[j] <= y < ys[j + 1], so y off a flat run gets its one
    # preimage and a flat level its rightmost x (the loose, safe choice for a
    # lower bound inverted in a state bound); y <= 0 gives 0 even after a
    # leading flat run: [0, 1, 2, 3] -> [0, 0, 1, 2] inverts 0 to 0, 1e-12 to ~1
    def _inv(y, _xs=xs, _ys=ys, _m=end_slope):
        y_arr = np.asarray(y, dtype=float)
        out = np.interp(y_arr, _ys, _xs)
        out = np.where(y_arr <= 0.0, 0.0, out)
        if _m > 0:
            out = np.where(y_arr > _ys[-1], _xs[-1] + (y_arr - _ys[-1]) / _m, out)
        return float(out) if np.ndim(y) == 0 else out

    inv = _inv if end_slope > 0 else None
    spec = {"kind": "table", "xs": xs.tolist(), "ys": ys.tolist()}
    if class_tag != "Kinf":  # the spec reader's default
        spec["class_tag"] = class_tag
    return MonotoneFn(eval=_eval, class_tag=class_tag, inverse=inv, spec=spec)


def _power_spec(f: MonotoneFn) -> bool:
    return f.spec is not None and f.spec.get("kind") == "power"


def scale_fn(f: MonotoneFn, c: float) -> MonotoneFn:
    """Output scaling ``s -> c * f(s)`` preserving the class tag (c > 0).

    A power function stays one, with its spec: ``c * (c' s^p) = (c c') s^p``.
    """
    if not (c > 0.0):
        raise ParameterError(f"scale factor must be positive, got {c}")
    if _power_spec(f):
        return make_power_fn(c * f.spec["c"], f.spec["p"])
    deriv = (lambda s, _f=f, _c=c: _c * _f.derivative(s)) if f.derivative else None
    inv = (lambda y, _f=f, _c=c: _f.inverse(np.asarray(y) / _c if np.ndim(y) else y / _c)) if f.inverse else None
    return MonotoneFn(
        eval=lambda s, _f=f, _c=c: _c * _f.eval(s),
        class_tag=f.class_tag,
        derivative=deriv,
        inverse=inv,
    )


def compose(outer: MonotoneFn, inner: MonotoneFn) -> MonotoneFn:
    """Composition ``s -> outer(inner(s))``.

    The result is Kinf exactly when both factors are; otherwise the weaker
    of the two tags is kept.  Two power functions collapse into one,
    ``c1 (c2 s^p2)^p1 = c1 c2^p1 s^(p1 p2)``, which keeps its spec.
    """
    if _power_spec(outer) and _power_spec(inner):
        c1, p1 = outer.spec["c"], outer.spec["p"]
        return make_power_fn(c1 * inner.spec["c"] ** p1, p1 * inner.spec["p"])
    if outer.class_tag == "Kinf" and inner.class_tag == "Kinf":
        tag = "Kinf"
    elif "P" in (outer.class_tag, inner.class_tag):
        tag = "P"
    else:
        tag = "K"
    deriv = None
    if outer.derivative is not None and inner.derivative is not None:
        def deriv(s, _o=outer, _i=inner):
            return _o.derivative(_i.eval(s)) * _i.derivative(s)
    inv = None
    if outer.inverse is not None and inner.inverse is not None:
        def inv(y, _o=outer, _i=inner):
            return _i.inverse(_o.inverse(y))
    return MonotoneFn(
        eval=lambda s, _o=outer, _i=inner: _o.eval(_i.eval(s)),
        class_tag=tag,
        derivative=deriv,
        inverse=inv,
    )


_NO_INVERSE = "function carries no inverse; a table carries one only when its last segment rises"


def apply_inverse(f: MonotoneFn, y):
    """Evaluate ``f^{-1}(y)`` with the analytic inverse that ``f`` carries.

    Accepts arrays when that inverse does; raises :class:`ParameterError`
    when ``f`` carries none.
    """
    if f.inverse is None:
        raise ParameterError(_NO_INVERSE)
    return f.inverse(y)


def inverse_fn(f: MonotoneFn) -> MonotoneFn:
    """Wrap ``f^{-1}`` as a MonotoneFn (same class tag as ``f``, inverse ``f``).

    Raises :class:`ParameterError` when ``f`` carries no inverse.
    """
    if f.inverse is None:
        raise ParameterError(_NO_INVERSE)
    return MonotoneFn(eval=lambda y, _f=f: apply_inverse(_f, y), class_tag=f.class_tag,
                      inverse=f.eval)


def sontag_factorize_exponential(K: float, lam: float) -> tuple[MonotoneFn, MonotoneFn]:
    """Factor the exponential decay bound ``K*s*exp(-lam*t)`` into two Kinf maps.

    Returns ``(theta1, theta2)`` with ``theta1(s) = s**(1/lam)`` and
    ``theta2(r) = K * r**lam`` so that
    ``theta2^{-1}(K * s * exp(-lam*t)) == theta1(s) * exp(-t)`` exactly.
    """
    if K < 1.0:
        raise ParameterError(f"exponential decay bound requires K >= 1, got {K}")
    if lam <= 0.0:
        raise ParameterError(f"decay rate must be positive, got {lam}")
    theta1 = make_power_fn(1.0, 1.0 / lam)
    theta2 = make_power_fn(float(K), float(lam))
    return theta1, theta2


# ---------------------------------------------------------------------------
# JSON specs


def monotone_to_spec(f: MonotoneFn, sample_grid: Optional[Sequence[float]] = None) -> dict:
    """JSON-serializable spec for ``f``.

    Functions without a closed-form spec are sampled on ``sample_grid``
    into table form with their class tag; omitting the grid in that case
    is an error.
    """
    if f.spec is not None:
        return dict(f.spec)
    if sample_grid is None:
        raise ParameterError("function has no closed-form spec; supply a sample grid")
    xs = np.asarray(sorted(set(float(x) for x in sample_grid)), dtype=float)
    if xs[0] != 0.0:
        xs = np.concatenate([[0.0], xs])
    try:
        ys = np.asarray(f.eval(xs), dtype=float)
    except (TypeError, ValueError):  # an evaluator that takes scalars only
        ys = np.array([float(f.eval(x)) for x in xs])
    ys = np.maximum.accumulate(ys)  # guard against sub-tolerance numeric dips
    return make_table_fn(xs, ys, f.class_tag).spec


def monotone_from_spec(spec: dict) -> MonotoneFn:
    """Rebuild a MonotoneFn from its JSON spec (power or table form)."""
    kind = spec.get("kind")
    if kind == "power":
        return make_power_fn(float(spec["c"]), float(spec["p"]))
    if kind == "table":
        return make_table_fn(spec["xs"], spec["ys"], class_tag=spec.get("class_tag", "Kinf"))
    raise ParameterError(f"unknown monotone function spec kind {kind!r}")


def klbound_to_spec(b: KLBound, s_grid=None, t_grid=None) -> dict:
    """JSON spec for a KL bound; a general one is sampled in one array call on the grids."""
    if b.kind == "exponential":
        return {"kind": "exponential", "K": b.K, "lambda": b.lam}
    if s_grid is None or t_grid is None:
        raise ParameterError("general KL bound export needs s and t sample grids")
    s = np.asarray(s_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    vals = np.asarray(b.eval(np.repeat(s, t.size), np.tile(t, s.size)), dtype=float)
    return {"kind": "table2d", "s": s.tolist(), "t": t.tolist(),
            "values": vals.reshape(s.size, t.size).tolist()}


def _bilinear(a_grid: np.ndarray, b_grid: np.ndarray, values: np.ndarray, a, b):
    """Bilinear interpolation of ``values[i, j]`` at ``(a, b)``, clamped at the grid edges."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    i = np.clip(np.searchsorted(a_grid, a) - 1, 0, a_grid.size - 2)
    j = np.clip(np.searchsorted(b_grid, b) - 1, 0, b_grid.size - 2)
    wa = np.clip((a - a_grid[i]) / (a_grid[i + 1] - a_grid[i]), 0.0, 1.0)
    wb = np.clip((b - b_grid[j]) / (b_grid[j + 1] - b_grid[j]), 0.0, 1.0)
    return (values[i, j] * (1 - wa) * (1 - wb) + values[i + 1, j] * wa * (1 - wb)
            + values[i, j + 1] * (1 - wa) * wb + values[i + 1, j + 1] * wa * wb)


def klbound_from_spec(spec: dict) -> KLBound:
    """Rebuild a KL bound from its spec.

    A ``table2d`` bound raises :class:`RangeError` beyond its ``s`` grid and
    clamps in ``t``, which is conservative since it decreases in ``t``.
    """
    kind = spec.get("kind")
    if kind == "exponential":
        return KLBound(kind="exponential", K=float(spec["K"]), lam=float(spec["lambda"]))
    if kind == "table2d":
        s_grid = np.asarray(spec["s"], dtype=float)
        t_grid = np.asarray(spec["t"], dtype=float)
        vals = np.asarray(spec["values"], dtype=float)

        def _eval2(s, t, _s=s_grid, _t=t_grid, _v=vals):
            s_max = float(np.max(s))
            if s_max > _s[-1]:
                raise RangeError(
                    f"table2d KL bound queried at s={s_max:.6g} beyond its s grid "
                    f"[{_s[0]:.6g}, {_s[-1]:.6g}]; re-export with an s grid reaching {s_max:.6g}"
                )
            out = _bilinear(_s, _t, _v, s, t)
            return float(out) if out.ndim == 0 else out

        return KLBound(kind="general", eval2=_eval2)
    raise ParameterError(f"unknown KL bound spec kind {kind!r}")
