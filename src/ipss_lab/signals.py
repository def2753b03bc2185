"""Piecewise-constant input signals and the three input measures.

A signal is a vector-valued, right-open piecewise-constant function on a
finite horizon, identically zero beyond it.  That representation makes all
three input measures exact: the supremum norm, the energy integral of a
gauge applied to the amplitude, and the moving-average power norm (the
supremum over fixed-length windows of the windowed energy divided by the
window length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .comparison_functions import MonotoneFn
from .errors import ParameterError

__all__ = [
    "Signal",
    "NormValue",
    "make_signal",
    "constant_signal",
    "zero_signal",
    "restrict",
    "sup_norm",
    "rho_energy",
    "avg_power_norm",
    "pulse_train",
    "cumulative_energy",
    "signal_from_json",
]

_CSV_BLOCK = 4096  # rows formatted at once by the CSV writers


@dataclass(frozen=True)
class Signal:
    """Right-open piecewise-constant input on ``[0, horizon)``, zero beyond.

    ``breakpoints[i]`` starts the piece holding ``values[i]``; the first
    breakpoint is 0 and the last is below the horizon.  Evaluation at any
    ``t >= horizon`` gives the zero vector.
    """

    breakpoints: np.ndarray  # shape (k,)
    values: np.ndarray       # shape (k, dim)
    horizon: float
    dim: int

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if bps.ndim != 1 or bps.size == 0:
            raise ParameterError("signal needs at least one breakpoint")
        if bps[0] != 0.0:
            raise ParameterError("first breakpoint must be 0")
        if np.any(np.diff(bps) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        if vals.shape != (bps.size, self.dim):
            raise ParameterError(
                f"values shape {vals.shape} does not match {bps.size} pieces of dim {self.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("signal values must be finite")
        if self.horizon < bps[-1]:
            raise ParameterError("horizon must not precede the last breakpoint")

    def eval(self, t: float) -> np.ndarray:
        """Value at time ``t`` (zero vector for ``t >= horizon``)."""
        if t < 0:
            raise ParameterError(f"signal evaluated at negative time {t}")
        if t >= self.horizon:
            return np.zeros(self.dim)
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return self.values[idx].copy()

    def pieces(self):
        """Yield ``(start, end, value)`` for every piece, ending at the horizon."""
        ends = np.append(self.breakpoints[1:], self.horizon)
        for start, end, val in zip(self.breakpoints, ends, self.values):
            if end > start:
                yield float(start), float(end), val


def _prechecked_signal(breakpoints: np.ndarray, values: np.ndarray, horizon: float,
                       dim: int) -> Signal:
    """A Signal of float arrays already checked as :class:`Signal` checks them."""
    u = object.__new__(Signal)
    u.__dict__.update(breakpoints=breakpoints, values=values, horizon=horizon, dim=dim)
    return u


def _normalize_pieces(times, values, dim: int, horizon: float) -> Signal:
    """Assemble a Signal from piece starts and their values, in one array pass.

    The pieces are stably sorted by start; at an exact tie the later value
    wins, starts at or past a positive horizon are dropped, a zero piece
    starts at 0 when none does, and a piece equal to its predecessor merges into it.
    """
    t = np.array(times, dtype=float).reshape(-1)
    v = np.array(values, dtype=float).reshape(t.size, dim)
    if not (t[1:] > t[:-1]).all():  # unsorted or tied starts
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        new = t[1:] != t[:-1]
        t, v = t[np.append(True, new)], v[np.append(new, True)]
    if t.size and not t[-1] < horizon:  # sorted, the kept starts are a prefix
        cut = np.searchsorted(t, horizon) if horizon > 0 else np.searchsorted(t, 0.0, "right")
        t, v = t[:cut], v[:cut]
    if t.size == 0 or t[0] != 0.0:
        t, v = np.append(0.0, t), np.concatenate((np.zeros((1, dim)), v))
    changed = np.append(True, (v[1:] != v[:-1]).any(axis=1))
    if not changed.all():
        t, v = t[changed], v[changed]
    return Signal(breakpoints=t, values=v, horizon=float(horizon), dim=dim)


def make_signal(pieces: Sequence[tuple], horizon: float, dim: Optional[int] = None) -> Signal:
    """Build a signal from ``(t, vector)`` pairs; scalars are wrapped to dim 1."""
    if not pieces:
        return zero_signal(dim or 1, horizon)
    first_v = np.atleast_1d(np.asarray(pieces[0][1], dtype=float))
    dim = dim or first_v.size
    return _normalize_pieces([float(t) for t, _ in pieces],
                             [np.atleast_1d(np.asarray(v, dtype=float)) for _, v in pieces],
                             dim, horizon)


def constant_signal(value, horizon: float) -> Signal:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return Signal(
        breakpoints=np.array([0.0]),
        values=v.reshape(1, -1),
        horizon=float(horizon),
        dim=v.size,
    )


def zero_signal(dim: int, horizon: float = 0.0) -> Signal:
    return Signal(
        breakpoints=np.array([0.0]),
        values=np.zeros((1, dim)),
        horizon=float(max(horizon, 0.0)),
        dim=dim,
    )


@dataclass(frozen=True)
class NormValue:
    """A computed input measure; infinity is carried as an explicit flag."""

    value: float
    diverged: bool = False
    witness: Optional[tuple] = None

    def __post_init__(self):
        if self.diverged != math.isinf(self.value):
            raise ParameterError("diverged flag must match infinite value")


def restrict(u: Signal, a: float, b: float) -> Signal:
    """The signal coinciding with ``u`` on ``[a, b)`` and zero elsewhere."""
    if not (0 <= a <= b):
        raise ParameterError(f"invalid restriction interval [{a}, {b}]")
    pieces = [(0.0, np.zeros(u.dim))]
    for start, end, val in u.pieces():
        lo, hi = max(start, a), min(end, b)
        if hi > lo:
            pieces.append((lo, val))
            pieces.append((hi, np.zeros(u.dim)))
    horizon = min(b, u.horizon)
    return _normalize_pieces(*zip(*pieces), u.dim, max(horizon, 0.0))


def _interval(u: Signal, interval: Optional[tuple]) -> tuple:
    a, b = interval if interval is not None else (0.0, u.horizon)
    if a > b:
        raise ParameterError(f"interval start {a} exceeds end {b}")
    return a, b


def _piece_table(u: Signal, a: float, b: float):
    """Start, end and magnitude of each piece overlapping ``[a, b]``, clipped to it."""
    starts = np.maximum(u.breakpoints, a)
    ends = np.minimum(np.append(u.breakpoints[1:], u.horizon), b)
    keep = ends > starts
    return starts[keep], ends[keep], np.linalg.norm(u.values[keep], axis=1)


def _energy_table(u: Signal, rho: Optional[MonotoneFn], a: float, b: float):
    """Knots and cumulative ``rho(|u|)`` energy of ``u`` clipped to ``[a, b]``."""
    starts, ends, mags = _piece_table(u, a, b)
    rates = mags if rho is None else np.asarray(rho.eval(mags), dtype=float)
    knots = np.concatenate(([max(a, 0.0)], ends))
    cum = np.concatenate(([0.0], np.cumsum(rates * (ends - starts))))
    return knots, cum


def sup_norm(u: Signal, interval: Optional[tuple] = None) -> NormValue:
    """Essential supremum of ``|u|`` (Euclidean) over ``[a, b]``.

    Exact for piecewise-constant signals: the maximum over pieces with
    positive-measure overlap, so a degenerate interval gives 0.  Beyond the
    horizon the signal is zero.  The witness is the first attaining piece.
    """
    starts, ends, mags = _piece_table(u, *_interval(u, interval))
    if not np.any(mags > 0.0):
        return NormValue(value=0.0)
    i = int(np.argmax(mags))
    best = float(mags[i])
    return NormValue(value=best, diverged=math.isinf(best),
                     witness=(float(starts[i]), float(ends[i])))


def rho_energy(u: Signal, rho: MonotoneFn, interval: Optional[tuple] = None) -> NormValue:
    """Energy integral of ``rho(|u|)`` over the interval; exact by piece sums."""
    a, b = _interval(u, interval)
    total = float(_energy_table(u, rho, a, b)[1][-1])
    return NormValue(value=total, diverged=math.isinf(total), witness=(a, b))


def cumulative_energy(u: Signal, rho: Optional[MonotoneFn] = None):
    """Knots and cumulative values of ``t -> integral_0^t rho(|u|)``.

    The cumulative integral is piecewise linear with knots at the signal
    breakpoints and the horizon, so ``np.interp`` on the returned arrays
    evaluates it exactly at any time.
    """
    return _energy_table(u, rho, 0.0, u.horizon)


def avg_power_norm(u: Signal, rho: MonotoneFn, T: float,
                   interval: Optional[tuple] = None) -> NormValue:
    """Moving-average power norm: sup over length-``T`` windows of energy / T.

    Taken of ``u`` restricted to ``interval`` (default: the whole signal).
    The windowed integral is piecewise affine in the window end time, so the
    supremum is attained at a window end in ``{knots} union {knots + T}``;
    all candidates are evaluated in one pass, and the witness is the first
    attaining window.  An infinite energy gives an infinite power.
    """
    if not (T > 0):
        raise ParameterError(f"window length must be positive, got {T}")
    knots, cum = _energy_table(u, rho, *_interval(u, interval))
    if math.isinf(cum[-1]):
        t_end = float(knots[np.argmax(np.isinf(cum))])
        return NormValue(value=math.inf, diverged=True, witness=(max(t_end - T, 0.0), t_end))
    t_ends = np.sort(np.concatenate((knots, knots + T)))
    t_ends = t_ends[np.concatenate(([True], t_ends[1:] != t_ends[:-1]))]
    windowed = np.interp(t_ends, knots, cum) - np.interp(np.maximum(t_ends - T, 0.0), knots, cum)
    i = int(np.argmax(windowed))
    if not windowed[i] > 0.0:
        return NormValue(value=0.0, witness=(0.0, 0.0))
    t_end = float(t_ends[i])
    return NormValue(value=float(windowed[i]) / T, witness=(max(t_end - T, 0.0), t_end))


def pulse_train(tau: float, count: int) -> Signal:
    """Scalar pulse train: value ``k**2`` on ``[k*tau, k*tau + 1/k)``.

    Pulses shrink in duration while growing quadratically in amplitude, so
    the sup norm and energy diverge with ``count`` while the square-root
    moving-average power stays bounded.  Horizon is ``count*tau + 1``.
    """
    if tau < 1.0:
        raise ParameterError(f"pulse spacing must be >= 1, got {tau}")
    if count < 1:
        raise ParameterError(f"pulse count must be >= 1, got {count}")
    k = np.arange(1, count + 1)
    times = np.zeros(2 * count + 1)  # 0, then each pulse's start and end
    times[1::2] = k * tau
    times[2::2] = k * tau + 1.0 / k
    values = np.zeros(2 * count + 1)
    values[1::2] = k * k
    return _normalize_pieces(times, values, 1, count * tau + 1.0)


# ---------------------------------------------------------------------------
# serialization


def signal_from_json(d: dict) -> Signal:
    pieces = d["pieces"]
    return _normalize_pieces([float(p["t"]) for p in pieces], [p["v"] for p in pieces],
                             int(d["dim"]), float(d["horizon"]))


def _write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and the rows of the equal-length 1-D ``columns`` as ``csv.writer`` does.

    Each cell is the ``repr`` of a Python int or float, so floats keep full
    precision; rows are formatted by columns, ``_CSV_BLOCK`` at a time.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [map(repr, col[a:a + _CSV_BLOCK].tolist()) for col in columns]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))
