"""Output checks computed outside ipss_lab.

Every check takes ``outputs``, the loaded artifacts of one experiment
(see :func:`load_outputs`), plus the parameters the benchmark generated,
and returns a list of failure messages; an empty list is a pass.  The
checks read artifacts by key and CSV columns by name, so added keys and
columns are tolerated.  Nothing here imports ipss_lab: every expected
value is a closed form or an enumeration written in this file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# loading


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    cols = {}
    for j, name in enumerate(header):
        cols[name] = np.array([float(r[j]) for r in rows])
    return cols


def load_outputs(artifacts, prefix: str) -> dict:
    """Artifacts keyed by file name without the ``<prefix>_`` part.

    JSON files load as dicts and CSV files as column-name -> array maps.
    ``status`` holds the exit status and ``summary`` the returned summary.
    """
    outputs = {"status": artifacts.exit_status, "summary": artifacts.summary}
    for p in artifacts.paths:
        path = Path(p)
        key = path.name[len(prefix) + 1:] if path.name.startswith(prefix + "_") else path.name
        if path.suffix == ".json":
            outputs[key] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            outputs[key] = _read_csv(path)
    return outputs


# ---------------------------------------------------------------------------
# helpers


def _rel_close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return abs(float(a) - float(b)) <= atol + rtol * abs(float(b))


def _get(outputs: dict, key: str, fails: list):
    if key not in outputs:
        fails.append(f"missing artifact {key!r}")
        return None
    return outputs[key]


def eval_spec(spec: dict, s):
    """Evaluate a power or table function spec as its JSON defines it."""
    s = np.asarray(s, dtype=float)
    if spec["kind"] == "power":
        return float(spec["c"]) * s ** float(spec["p"])
    xs = np.asarray(spec["xs"], dtype=float)
    ys = np.asarray(spec["ys"], dtype=float)
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return np.where(s > xs[-1], ys[-1] + slope * (s - xs[-1]), np.interp(s, xs, ys))


def _nondecreasing_from_zero(spec: dict, name: str, fails: list) -> None:
    if spec["kind"] == "power":
        if not (float(spec["c"]) > 0 and float(spec["p"]) > 0):
            fails.append(f"{name}: power spec needs c, p > 0, got {spec}")
        return
    xs = np.asarray(spec["xs"], dtype=float)
    ys = np.asarray(spec["ys"], dtype=float)
    if xs[0] != 0.0 or abs(ys[0]) > 1e-12:
        fails.append(f"{name}: does not vanish at 0 (xs[0]={xs[0]}, ys[0]={ys[0]})")
    if np.any(np.diff(ys) < 0):
        j = int(np.argmin(np.diff(ys)))
        fails.append(f"{name}: decreases between s={xs[j]} and s={xs[j + 1]}")


def _envelope_rows_ok(env: dict, tol: float, fails: list) -> None:
    bound, x_norm, margin = env["bound"], env["x_norm"], env["margin"]
    if bound.size == 0:
        fails.append("envelope CSV has no rows")
        return
    if np.max(np.abs(margin - (bound - x_norm))) > 1e-9 * (1.0 + np.max(np.abs(bound))):
        fails.append("envelope CSV: margin column is not bound - x_norm")
    if float(np.min(margin)) < -tol:
        fails.append(f"envelope CSV: margin {float(np.min(margin)):.3e} below -{tol}")


# ---------------------------------------------------------------------------
# converse


def converse_candidate(outputs: dict, K: float, lam: float) -> list:
    """Exported candidate table: V(t,0)=0, V>=0, even, autonomous, monotone, V<=theta1."""
    fails = []
    report = _get(outputs, "converse.json", fails)
    table = _get(outputs, "candidate.json", fails)
    if fails:
        return fails
    if report.get("all_ok") is not True:
        fails.append("converse report: all_ok is not true")
    t = np.asarray(table["t_grid"], dtype=float)
    x = np.asarray(table["x_grid"], dtype=float)
    V = np.asarray(table["values"], dtype=float)
    if V.shape != (t.size, x.size):
        return fails + [f"candidate values shape {V.shape} != ({t.size}, {x.size})"]
    scale = max(1.0, float(np.max(np.abs(V))))
    tol = 1e-9 * scale
    if float(np.min(V)) < -tol:
        fails.append(f"V takes negative value {float(np.min(V)):.3e}")
    zero = np.flatnonzero(x == 0.0)
    if zero.size and float(np.max(np.abs(V[:, zero]))) > tol:
        fails.append("V(t, 0) != 0")
    for j, xj in enumerate(x):
        mirror = np.flatnonzero(np.abs(x + xj) <= 1e-12 * max(1.0, abs(xj)))
        if mirror.size and float(np.max(np.abs(V[:, j] - V[:, mirror[0]]))) > tol:
            fails.append(f"V(t, -x) != V(t, x) at x={xj}")
            break
    if float(np.max(np.abs(V - V[0]))) > 1e-6 * scale:
        fails.append("V depends on t for an autonomous system")
    order = np.argsort(np.abs(x), kind="stable")
    if np.any(np.diff(V[:, order], axis=1) < -tol):
        fails.append("V is not nondecreasing in |x|")
    theta1 = np.abs(x) ** (1.0 / lam)
    if np.any(V > theta1[None, :] + tol):
        j = int(np.argmax(np.max(V - theta1[None, :], axis=0)))
        fails.append(f"V exceeds theta1(|x|) = |x|^(1/lam) at x={x[j]}")
    return fails


def export_sandwich(outputs: dict) -> list:
    """The exported table lies between its declared alpha1 and alpha2."""
    fails = []
    table = _get(outputs, "candidate.json", fails)
    if fails:
        return fails
    x = np.abs(np.asarray(table["x_grid"], dtype=float))
    V = np.asarray(table["values"], dtype=float)
    lo = eval_spec(table["alpha1"], x)
    hi = eval_spec(table["alpha2"], x)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(V))))
    below = V < lo[None, :] - tol
    above = V > hi[None, :] + tol
    if np.any(below):
        i, j = np.argwhere(below)[0]
        fails.append(f"V({table['t_grid'][i]}, {table['x_grid'][j]}) = {V[i, j]:.4g} "
                     f"< declared alpha1 = {lo[j]:.4g}")
    if np.any(above):
        i, j = np.argwhere(above)[0]
        fails.append(f"V({table['t_grid'][i]}, {table['x_grid'][j]}) = {V[i, j]:.4g} "
                     f"> declared alpha2 = {hi[j]:.4g}")
    return fails


# ---------------------------------------------------------------------------
# certify


def window_constants(K: float, lam: float, T: float) -> tuple:
    """lambda_tilde = lam - ln(max(1,K))/T and (1 + K(1-e^{-lam T}))/(1 - K e^{-lam T})."""
    e = math.exp(-lam * T)
    return lam - math.log(max(1.0, K)) / T, (1.0 + K * (1.0 - e)) / (1.0 - K * e)


def synth_gains(outputs: dict, tol: float) -> list:
    """Reloaded certificate: beta nonincreasing in t, gains monotone from 0, envelope holds."""
    fails = []
    summary = _get(outputs, "summary.json", fails)
    cert = _get(outputs, "certificate.json", fails)
    env = _get(outputs, "envelope.csv", fails)
    if fails:
        return fails
    if summary.get("passed") is not True or float(summary["min_margin"]) < -tol:
        fails.append(f"synth-gains summary: passed={summary.get('passed')}, "
                     f"min_margin={summary.get('min_margin')}")
    beta = cert["beta"]
    if beta["kind"] == "table2d":
        vals = np.asarray(beta["values"], dtype=float)
        if np.any(np.diff(vals, axis=1) > 1e-12 * (1.0 + np.abs(vals[:, 1:]))):
            fails.append("beta increases in t")
    for name in ("gamma", "rho"):
        _nondecreasing_from_zero(cert[name], name, fails)
    _envelope_rows_ok(env, tol, fails)
    return fails


def beta_dominates_identity(outputs: dict) -> list:
    """Reloaded certificate: beta(s, 0) >= s on its s-grid.

    Left out of the workload rounds: the synthesized beta underflows to 0
    for s below about 0.0084 on every seed (see CHANGES.md), and only one
    always-failing operation may be counted.  ``selftest.py`` exercises it.
    """
    fails = []
    cert = _get(outputs, "certificate.json", fails)
    if fails:
        return fails
    beta = cert["beta"]
    if beta["kind"] == "table2d":
        s = np.asarray(beta["s"], dtype=float)
        vals = np.asarray(beta["values"], dtype=float)
        if np.any(vals[:, 0] < s * (1.0 - 1e-12) - 1e-12):
            j = int(np.argmax(s * (vals[:, 0] < s)))
            fails.append(f"beta(s, 0) = {vals[j, 0]:.6g} < s = {s[j]:.6g}")
    elif float(beta["K"]) < 1.0:
        fails.append(f"exponential beta with K={beta['K']} < 1 gives beta(s, 0) < s")
    return fails


def transform(outputs: dict, K: float, lam: float, T: float, c: float, p: float,
              rho: dict, tol: float) -> list:
    """exp-iISS -> IPSS: recomputed window constants and gamma = amp*c*(T s)^p."""
    fails = []
    summary = _get(outputs, "summary.json", fails)
    cert = _get(outputs, "ipss_certificate.json", fails)
    env = _get(outputs, "envelope.csv", fails)
    if fails:
        return fails
    lt, amp = window_constants(K, lam, T)
    if not (_rel_close(summary["lambda_tilde"], lt, 1e-12)
            and _rel_close(summary["amplification"], amp, 1e-12)):
        fails.append(f"window constants ({summary['lambda_tilde']}, {summary['amplification']}) "
                     f"!= recomputed ({lt}, {amp})")
    beta = cert["beta"]
    if beta.get("kind") != "exponential" or not (
            _rel_close(beta["K"], K, 1e-12) and _rel_close(beta["lambda"], lt, 1e-12)):
        fails.append(f"IPSS beta {beta} != exponential(K={K}, lambda={lt})")
    gamma = cert["gamma"]
    probe = np.array([0.0, 0.5, 1.0, 3.0])
    if not np.allclose(eval_spec(gamma, probe), amp * c * (T * probe) ** p, rtol=1e-12, atol=0.0):
        fails.append(f"IPSS gamma {gamma} != {amp} * {c} * ({T} s)^{p}")
    if not np.allclose(eval_spec(cert["rho"], probe), eval_spec(rho, probe), rtol=1e-12, atol=0.0):
        fails.append("IPSS rho differs from the input rho")
    if not _rel_close(cert["T"], T, 1e-15):
        fails.append(f"IPSS T={cert['T']} != {T}")
    if summary.get("passed") is not True or float(summary["min_margin"]) < -tol:
        fails.append(f"validation: passed={summary.get('passed')}, "
                     f"min_margin={summary.get('min_margin')}")
    _envelope_rows_ok(env, tol, fails)
    return fails


def late_pulse_peak_lower_bound(amp: float, t0: float, duration: float) -> float:
    """Comparison bound for xdot = -x + (1+t) max(u-|x|, 0) from x(t0) = 0.

    While 0 <= x <= amp, xdot >= (1+t0) amp - (2+t0) x, so at the pulse end
    x >= amp (1+t0)/(2+t0) (1 - exp(-(2+t0) duration)).
    """
    return amp * (1.0 + t0) / (2.0 + t0) * (1.0 - math.exp(-(2.0 + t0) * duration))


def falsify(outputs: dict, amp: float, t0s, duration_scale: float, K: float,
            gamma: dict, rho: dict) -> list:
    """Every late pulse violates: peak > K|xi| + gamma(rho(amp) * duration)."""
    fails = []
    report = _get(outputs, "falsification.json", fails)
    if fails:
        return fails
    violations = report.get("violations") or []
    if int(report["n_evaluated"]) != len(t0s):
        fails.append(f"falsifier evaluated {report['n_evaluated']} candidates, expected {len(t0s)}")
    seen = sorted(float(v["t0"]) for v in violations)
    if seen != sorted(float(t) for t in t0s):
        fails.append(f"violations at t0={seen}, expected one at each of {sorted(t0s)}")
    for v in violations:
        t0 = float(v["t0"])
        duration = duration_scale / (1.0 + t0)
        energy = float(eval_spec(rho, amp)) * duration
        xi = float(np.linalg.norm(v["xi"]))
        bound = K * xi + float(eval_spec(gamma, energy))
        peak = float(v["peak_state_norm"])
        if not peak > bound:
            fails.append(f"t0={t0}: peak {peak:.6g} does not exceed K|xi| + gamma(energy) = {bound:.6g}")
        if xi == 0.0 and peak < late_pulse_peak_lower_bound(amp, t0, duration) - 1e-6:
            fails.append(f"t0={t0}: peak {peak:.6g} below the comparison lower bound")
        if not float(v["margin"]) < 0.0:
            fails.append(f"t0={t0}: reported violation has margin {v['margin']} >= 0")
    return fails


def linear_exact(lam: float, xi: float, bps, vals, times) -> np.ndarray:
    """Exact solution of xdot = -lam x + u for piecewise-constant u on ``bps``."""
    bps = np.asarray(bps, dtype=float)
    vals = np.asarray(vals, dtype=float)
    starts = np.empty(bps.size)
    x = xi
    for j in range(bps.size):
        starts[j] = x
        if j + 1 < bps.size:
            e = math.exp(-lam * (bps[j + 1] - bps[j]))
            x = e * x + vals[j] / lam * (1.0 - e)
    idx = np.clip(np.searchsorted(bps, times, side="right") - 1, 0, bps.size - 1)
    e = np.exp(-lam * (times - bps[idx]))
    return e * starts[idx] + vals[idx] / lam * (1.0 - e)


def simulate_linear(outputs: dict, lam: float, xi: float, bps, vals, t_end: float) -> list:
    """Trajectory matches the closed form within 1e-9 (1 + max|x|)."""
    fails = []
    traj = _get(outputs, "trajectory.csv", fails)
    summary = _get(outputs, "summary.json", fails)
    if fails:
        return fails
    t, x = traj["t"], traj["x_1"]
    if t.size < 2 or t[0] != 0.0 or t[-1] != t_end:
        return [f"trajectory grid [{t[0] if t.size else None}, {t[-1] if t.size else None}] "
                f"does not span [0, {t_end}]"]
    exact = linear_exact(lam, xi, bps, vals, t)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(exact))))
    err = np.abs(x - exact)
    if float(np.max(err)) > tol:
        j = int(np.argmax(err))
        fails.append(f"x({t[j]}) = {x[j]!r} differs from the closed form {exact[j]!r} "
                     f"by {err[j]:.3e} > {tol:.1e}")
    if int(summary["n_points"]) != t.size or summary["final_state"][0] != x[-1]:
        fails.append("summary n_points / final_state disagree with the trajectory CSV")
    if summary.get("blown_up"):
        fails.append("linear trajectory reported as blown up")
    return fails


# ---------------------------------------------------------------------------
# measures


def pulse_train_norms(outputs: dict, count: int) -> list:
    """pulse_train(1, N), rho = sqrt, T = 2: sup N^2, energy N, power 4/3 on [4/3, 10/3]."""
    fails = []
    r = _get(outputs, "norms.json", fails)
    if fails:
        return fails
    if not _rel_close(r["sup_norm"], count ** 2, 1e-12):
        fails.append(f"sup_norm {r['sup_norm']} != N^2 = {count ** 2}")
    if not _rel_close(r["rho_energy"], count, 1e-6):
        fails.append(f"rho_energy {r['rho_energy']} != N = {count}")
    if not _rel_close(r["avg_power_norm"], 4.0 / 3.0, 1e-9):
        fails.append(f"avg_power_norm {r['avg_power_norm']} != 4/3")
    w = r["avg_power_witness"]
    if not (abs(w[0] - 4.0 / 3.0) <= 1e-9 and abs(w[1] - 10.0 / 3.0) <= 1e-9):
        fails.append(f"power witness {w} != [4/3, 10/3]")
    return fails


def _piece_table(bps, vals, horizon):
    bps = np.asarray(bps, dtype=float)
    ends = np.append(bps[1:], horizon)
    mags = np.sqrt(np.sum(np.asarray(vals, dtype=float) ** 2, axis=1))
    keep = ends > bps
    return bps[keep], ends[keep], mags[keep]


def window_energy(starts, ends, rates, lo, hi) -> np.ndarray:
    """Energy of each window [lo_i, hi_i], summed piece by piece (no prefix sums)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    out = np.empty(lo.size)
    for k in range(0, lo.size, 32):  # small chunks keep the check's memory low
        a = np.maximum(lo[k:k + 32, None], starts[None, :])
        b = np.minimum(hi[k:k + 32, None], ends[None, :])
        out[k:k + 32] = np.sum(rates[None, :] * np.maximum(b - a, 0.0), axis=1)
    return out


def exact_norms(bps, vals, horizon: float, c: float, p: float, T: float) -> tuple:
    """(sup, energy, power, pieces) of a piecewise-constant signal, rho(s) = c s^p.

    The windowed energy is piecewise affine in the window end, so its
    supremum is attained with a window end or start on a breakpoint; every
    such window is enumerated and its energy summed directly.
    """
    starts, ends, mags = _piece_table(bps, vals, horizon)
    rates = c * mags ** p
    sup = float(np.max(mags)) if mags.size else 0.0
    energy = float(np.sum(rates * (ends - starts)))
    knots = np.unique(np.concatenate([starts, ends]))
    cand = np.unique(np.concatenate([knots, knots + T]))
    power = float(np.max(window_energy(starts, ends, rates, np.maximum(cand - T, 0.0), cand))) / T
    return sup, energy, power, (starts, ends, rates)


def signal_norms(outputs: dict, bps, vals, horizon: float, c: float, p: float, T: float) -> list:
    """Generated signal: norms equal an exact enumeration; the witness attains the power."""
    fails = []
    r = _get(outputs, "norms.json", fails)
    if fails:
        return fails
    sup, energy, power, pieces = exact_norms(bps, vals, horizon, c, p, T)
    if not _rel_close(r["sup_norm"], sup, 1e-12):
        fails.append(f"sup_norm {r['sup_norm']!r} != enumerated {sup!r}")
    if not _rel_close(r["rho_energy"], energy, 1e-9):
        fails.append(f"rho_energy {r['rho_energy']!r} != enumerated {energy!r}")
    if not _rel_close(r["avg_power_norm"], power, 1e-9):
        fails.append(f"avg_power_norm {r['avg_power_norm']!r} != enumerated {power!r}")
    lo, hi = (float(v) for v in r["avg_power_witness"])
    if not (hi - lo <= T * (1.0 + 1e-12) and (abs(hi - lo - T) <= 1e-9 * (1.0 + hi) or lo == 0.0)):
        fails.append(f"power witness [{lo}, {hi}] is not a length-T window")
    attained = float(window_energy(*pieces, lo, hi)[0]) / T
    if not _rel_close(attained, r["avg_power_norm"], 1e-9):
        fails.append(f"witness window energy / T = {attained!r} != reported power norm")
    return fails


def lemma3(outputs: dict, K: float, lam: float, T: float, tol: float) -> list:
    """Window constants match the closed forms and the saturated bound holds."""
    fails = []
    r = _get(outputs, "oracle.json", fails)
    if fails:
        return fails
    lt, amp = window_constants(K, lam, T)
    if not _rel_close(r["lambda_tilde"], lt, 1e-12):
        fails.append(f"lambda_tilde {r['lambda_tilde']} != {lt}")
    if not _rel_close(r["amplification"], amp, 1e-12):
        fails.append(f"amplification {r['amplification']} != {amp}")
    if float(r["min_slack"]) < -tol:
        fails.append(f"min_slack {r['min_slack']} < -{tol} at {r.get('worst_pair')}")
    if r.get("passed") is not True:
        fails.append("oracle report: passed is not true")
    return fails


def lyap_pass(outputs: dict, n_expected: int) -> list:
    """A true derivative bound: no violation over exactly the expected samples."""
    fails = []
    r = _get(outputs, "violations.json", fails)
    if fails:
        return fails
    if r.get("passed") is not True or r.get("violations"):
        fails.append(f"{r.get('form')}: {len(r.get('violations') or [])} violations of a true bound")
    if int(r["n_checked"]) != n_expected:
        fails.append(f"{r.get('form')}: checked {r['n_checked']} samples, expected {n_expected}")
    return fails


def abs_dini(lam: float, xi, mu) -> float:
    """D+|x| along xdot = -lam x + u at x != 0: sign(x)(-lam x + u)."""
    x, u = float(xi[0]), float(mu[0])
    return math.copysign(1.0, x) * (-lam * x + u)


def lyap_false_pair(outputs: dict, lam: float, alpha4_c: float, n_zero_expected: int) -> list:
    """alpha4 = 2 lam id is false: every u = 0 sample violates, with exact lhs and rhs."""
    fails = []
    r = _get(outputs, "violations.json", fails)
    if fails:
        return fails
    violations = r.get("violations") or []
    if r.get("passed") is not False:
        fails.append("false dissipation pair reported as passed")
    at_zero = [v for v in violations if all(m == 0.0 for m in v["mu"])]
    if len(at_zero) != n_zero_expected:
        fails.append(f"{len(at_zero)} violations at u = 0, expected {n_zero_expected}")
    for v in violations:
        lhs = abs_dini(lam, v["xi"], v["mu"])
        rhs = -alpha4_c * abs(v["xi"][0]) + abs(v["mu"][0])
        if not (_rel_close(v["lhs"], lhs, 1e-6, 1e-6) and _rel_close(v["rhs"], rhs, 1e-12, 1e-12)):
            fails.append(f"violation at xi={v['xi']}, mu={v['mu']}: (lhs, rhs) = "
                         f"({v['lhs']}, {v['rhs']}) != closed form ({lhs}, {rhs})")
            break
        if not float(v["gap"]) > 0.0:
            fails.append(f"violation at xi={v['xi']} has gap {v['gap']} <= 0")
            break
    return fails
