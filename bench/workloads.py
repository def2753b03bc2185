"""Workloads: the experiments of one round, generated from the workload seed.

A run repeats whole rounds.  Round ``r`` of workload seed ``s`` gives its
experiment in slot ``j`` the seed ``derive_seed(s, r, j)``; that seed is
the config's ``seed`` field and also seeds every input the benchmark
draws for the experiment.  Sizes are fixed per workload, so the work of a
round does not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Operation:
    """A check on an experiment's outputs that counts as its own operation.

    ``known_fault`` marks a check that fails because of a fault in the
    program: its failure is counted in ``failed`` but leaves ``correct``
    true.
    """

    name: str
    check: Callable
    known_fault: bool = False


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call, the exit status it must return and its checks."""

    label: str
    config: dict
    expected_status: int
    check: Callable
    extra: tuple = ()

    @property
    def prefix(self) -> str:
        return self.config["output"]["prefix"]


def derive_seed(seed: int, rnd: int, slot: int) -> int:
    """Experiment seed for slot ``slot`` of round ``rnd`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed % 2 ** 64, rnd, slot]).generate_state(1)[0])


def _config(name: str, seed: int, operation: str, prefix: str, **sections) -> dict:
    return {"name": name, "seed": seed, "operation": operation,
            "output": {"prefix": prefix}, **sections}


def _power(c: float, p: float = 1.0) -> dict:
    return {"kind": "power", "c": float(c), "p": float(p)}


def _signal_json(bps, vals, horizon: float) -> dict:
    return {"dim": int(vals.shape[1]), "horizon": float(horizon),
            "pieces": [{"t": float(t), "v": [float(x) for x in v]} for t, v in zip(bps, vals)]}


# ---------------------------------------------------------------------------
# converse: claim (c)

CONVERSE_K = 1.0
CONVERSE_LAM = 0.5


def converse_round(seed: int, rnd: int) -> list:
    """``converse`` with ``export_candidate`` on ``perturbed_decay``, as ``converse_demo.json``."""
    s = derive_seed(seed, rnd, 0)
    cfg = _config(
        f"converse-r{rnd}", s, "converse", "converse",
        system={"name": "perturbed_decay"},
        options={"urgas_K": CONVERSE_K, "urgas_lambda": CONVERSE_LAM, "k_max": 4,
                 "disturbance_samples": 12, "pieces_per_horizon": 6,
                 "sim_step": 0.01, "probe_states": [0.5, 1.0, 3.0],
                 "decay_horizon": 4.0, "decay_eval_points": 3,
                 "lipschitz_pairs": 4, "slack": 0.1, "export_candidate": True},
    )
    return [Experiment(
        "converse", cfg, 0,
        partial(checks.converse_candidate, K=CONVERSE_K, lam=CONVERSE_LAM),
        extra=(Operation("converse-export-sandwich", checks.export_sandwich, known_fault=True),),
    )]


# ---------------------------------------------------------------------------
# certify: claims (a) and (b)

ENVELOPE_TOL = 1e-6
FALSIFY_T0 = (10.0, 100.0, 1000.0)
SIM_PIECES = 400
SIM_HORIZON = 100.0
SIM_STEP = 2e-3


def _synth_gains(seed: int, rnd: int) -> Experiment:
    s = derive_seed(seed, rnd, 0)
    lam = float(np.random.default_rng(s).uniform(1.0, 1.5))
    ident = _power(1.0)
    cfg = _config(
        f"synth-gains-r{rnd}", s, "synth-gains", "synth",
        system={"name": "linear", "params": {"lam": lam}},
        lyapunov={"alpha1": ident, "alpha2": ident, "alpha4": ident, "chi4": ident},
        options={"T": 1.0, "q_range": [0.001, 1000.0], "n_sims": 25, "horizon": 8.0,
                 "xi_range": 10.0, "u_range": 10.0, "step": 0.002,
                 "tolerance": ENVELOPE_TOL},
    )
    return Experiment("synth-gains", cfg, 0, partial(checks.synth_gains, tol=ENVELOPE_TOL))


def _transform(seed: int, rnd: int) -> Experiment:
    s = derive_seed(seed, rnd, 1)
    rng = np.random.default_rng(s)
    lam_sys = float(rng.uniform(1.0, 1.5))
    K = float(rng.uniform(1.0, 2.0))
    lam = float(rng.uniform(0.5, 1.0)) * lam_sys
    T = math.log(K) / lam + float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(1.0, 2.0))
    rho = _power(1.0)
    cfg = _config(
        f"transform-r{rnd}", s, "transform", "transform",
        certificate={"kind": "iISS", "beta": {"kind": "exponential", "K": K, "lambda": lam},
                     "gamma": _power(c), "rho": rho},
        options={"transform": "exp-iiss-to-ipss", "T": T,
                 "validate": {"system": {"name": "linear", "params": {"lam": lam_sys}},
                              "n_sims": 25, "horizon": 8.0, "xi_range": 5.0,
                              "u_range": 5.0, "step": 0.002, "tolerance": ENVELOPE_TOL}},
    )
    return Experiment("transform", cfg, 0, partial(
        checks.transform, K=K, lam=lam, T=T, c=c, p=1.0, rho=rho, tol=ENVELOPE_TOL))


def _falsify(seed: int, rnd: int) -> Experiment:
    s = derive_seed(seed, rnd, 2)
    amp = float(np.random.default_rng(s).uniform(0.4, 0.6))
    gain = _power(1.0)
    cfg = _config(
        f"falsify-r{rnd}", s, "falsify", "falsify",
        system={"name": "counterexample"},
        certificate={"kind": "iISS", "beta": {"kind": "exponential", "K": 1.0, "lambda": 1.0},
                     "gamma": gain, "rho": gain},
        input={"family": "late_pulses", "t0_values": list(FALSIFY_T0), "xi_values": [0.0],
               "amplitude": amp, "duration_scale": 1.0, "settle": 3.0},
        options={"budget": 10},
    )
    return Experiment("falsify", cfg, 2, partial(
        checks.falsify, amp=amp, t0s=FALSIFY_T0, duration_scale=1.0, K=1.0,
        gamma=gain, rho=gain))


def _simulate(seed: int, rnd: int) -> Experiment:
    s = derive_seed(seed, rnd, 3)
    rng = np.random.default_rng(s)
    lam = float(rng.uniform(0.5, 2.0))
    xi = float(rng.uniform(-5.0, 5.0))
    interior = np.sort(rng.choice(np.arange(1, int(SIM_HORIZON * 64)), SIM_PIECES - 1,
                                  replace=False)) / 64.0
    bps = np.concatenate([[0.0], interior])
    vals = rng.uniform(-5.0, 5.0, size=(SIM_PIECES, 1))
    cfg = _config(
        f"simulate-r{rnd}", s, "simulate", "simulate",
        system={"name": "linear", "params": {"lam": lam}},
        input={"kind": "signal", "signal": _signal_json(bps, vals, SIM_HORIZON)},
        options={"t0": 0.0, "xi": [xi], "t_end": SIM_HORIZON, "step": SIM_STEP},
    )
    return Experiment("simulate", cfg, 0, partial(
        checks.simulate_linear, lam=lam, xi=xi, bps=bps, vals=vals[:, 0], t_end=SIM_HORIZON))


def certify_round(seed: int, rnd: int) -> list:
    return [_synth_gains(seed, rnd), _transform(seed, rnd), _falsify(seed, rnd),
            _simulate(seed, rnd)]


# ---------------------------------------------------------------------------
# measures: the exact input measures, the windowing oracle, derivative bounds

PULSE_COUNTS = (20000, 8000)
SIGNAL_PIECES = 3000
SIGNAL_COUNT = 3
LEMMA3_STEP = 0.0025
LEMMA3_T_MAX = 20.0
LEMMA3_TOL = 1e-6
LYAP_MARGIN = 1e-3
LYAP_PLAN = {"times": [0.0, 1.0, 10.0], "radii": list(np.geomspace(1e-2, 10.0, 24)),
             "dirs_per_radius": 2, "mu_radii": list(np.geomspace(0.1, 5.0, 6)),
             "mu_dirs_per_radius": 2}


def _pulse_norms(seed: int, rnd: int, slot: int, count: int) -> Experiment:
    cfg = _config(
        f"pulse-train-{count}-r{rnd}", derive_seed(seed, rnd, slot), "norms", f"pulse{count}",
        input={"kind": "pulse_train", "tau": 1.0, "count": count},
        options={"rho": _power(1.0, 0.5), "T": 2.0},
    )
    return Experiment(f"norms-pulse-{count}", cfg, 0,
                      partial(checks.pulse_train_norms, count=count))


def _signal_norms(seed: int, rnd: int, slot: int, idx: int) -> Experiment:
    s = derive_seed(seed, rnd, slot)
    rng = np.random.default_rng(s)
    dim = int(rng.integers(1, 3))
    # dyadic piece lengths keep breakpoints exact; a fifth of the pieces are zero
    bps = np.concatenate([[0.0], np.cumsum(rng.integers(1, 64, SIGNAL_PIECES - 1) / 32.0)])
    vals = rng.uniform(-3.0, 3.0, size=(SIGNAL_PIECES, dim))
    vals[rng.uniform(size=SIGNAL_PIECES) < 0.2] = 0.0
    horizon = float(bps[-1]) + float(rng.integers(1, 64)) / 32.0
    c = float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(0.5, 2.0))
    T = float(rng.uniform(0.5, 5.0))
    cfg = _config(
        f"signal-{idx}-r{rnd}", s, "norms", f"signal{idx}",
        input={"kind": "signal", "signal": _signal_json(bps, vals, horizon)},
        options={"rho": _power(c, p), "T": T},
    )
    return Experiment(f"norms-signal-{idx}", cfg, 0, partial(
        checks.signal_norms, bps=bps, vals=vals, horizon=horizon, c=c, p=p, T=T))


def _lemma3(seed: int, rnd: int, slot: int) -> Experiment:
    s = derive_seed(seed, rnd, slot)
    rng = np.random.default_rng(s)
    K = float(rng.uniform(1.0, 3.0))
    lam = float(rng.uniform(0.5, 1.5))
    # T on the grid and past the contraction threshold ln(max(1,K))/lam
    T = LEMMA3_STEP * math.ceil((math.log(K) / lam + rng.uniform(0.2, 1.5)) / LEMMA3_STEP)
    n_pieces = 12
    ticks = np.sort(rng.choice(np.arange(1, int(18.0 / (4 * LEMMA3_STEP))), n_pieces - 1,
                               replace=False))
    bps = np.concatenate([[0.0], ticks * 4 * LEMMA3_STEP])
    vals = rng.uniform(0.0, 2.0, size=(n_pieces, 1))
    vals[::3] = 0.0
    cfg = _config(
        f"lemma3-r{rnd}", s, "lemma3", "lemma3",
        options={"K": K, "lambda": lam, "T": T,
                 "eta": _power(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                 "h_profile": _signal_json(bps, vals, 19.0),
                 "grid_step": LEMMA3_STEP, "t_max": LEMMA3_T_MAX, "tolerance": LEMMA3_TOL},
    )
    return Experiment("lemma3", cfg, 0, partial(checks.lemma3, K=K, lam=lam, T=T, tol=LEMMA3_TOL))


def _lyap_counts(lam: float) -> tuple:
    """Samples per form: (all, implication-admitted, at u = 0) for n = m = 1."""
    n_t = len(LYAP_PLAN["times"])
    dirs = LYAP_PLAN["dirs_per_radius"]
    mus = [0.0] + [r for r in LYAP_PLAN["mu_radii"] for _ in range(LYAP_PLAN["mu_dirs_per_radius"])]
    radii = LYAP_PLAN["radii"]
    total = n_t * len(radii) * dirs * len(mus)
    chi3 = 2.0 / lam
    admitted = n_t * dirs * sum(1 for r in radii for m in mus if r >= chi3 * m)
    return total, admitted, n_t * len(radii) * dirs


def _check_lyap(seed: int, rnd: int, slot: int, lam: float, form: str, gains: dict,
                expect_pass: bool, n_expected: int, label: str) -> Experiment:
    cfg = _config(
        f"{label}-r{rnd}", derive_seed(seed, rnd, slot), "check-lyap", label,
        system={"name": "linear", "params": {"lam": lam}},
        lyapunov={"V": {"kind": "abs"}, "form": form, **gains},
        options={"margin": LYAP_MARGIN, "plan": LYAP_PLAN},
    )
    if expect_pass:
        return Experiment(label, cfg, 0, partial(checks.lyap_pass, n_expected=n_expected))
    return Experiment(label, cfg, 2, partial(
        checks.lyap_false_pair, lam=lam, alpha4_c=gains["alpha4"]["c"],
        n_zero_expected=n_expected))


def measures_round(seed: int, rnd: int) -> list:
    exps = [_pulse_norms(seed, rnd, slot, n) for slot, n in enumerate(PULSE_COUNTS)]
    base = len(exps)
    exps += [_signal_norms(seed, rnd, base + i, i) for i in range(SIGNAL_COUNT)]
    exps.append(_lemma3(seed, rnd, base + SIGNAL_COUNT))
    slot = base + SIGNAL_COUNT + 1
    lam = float(np.random.default_rng(derive_seed(seed, rnd, slot)).uniform(0.5, 2.0))
    total, admitted, at_zero = _lyap_counts(lam)
    ident = _power(1.0)
    exps += [
        _check_lyap(seed, rnd, slot, lam, "dissipation",
                    {"alpha4": _power(lam), "chi4": ident}, True, total, "lyap-dissipation"),
        _check_lyap(seed, rnd, slot + 1, lam, "implication",
                    {"alpha3": _power(lam / 2.0), "chi3": _power(2.0 / lam)}, True, admitted,
                    "lyap-implication"),
        _check_lyap(seed, rnd, slot + 2, lam, "iiss",
                    {"alpha5": _power(lam), "chi5": ident}, True, total, "lyap-iiss"),
        _check_lyap(seed, rnd, slot + 3, lam, "dissipation",
                    {"alpha4": _power(2.0 * lam), "chi4": ident}, False, at_zero,
                    "lyap-false-pair"),
    ]
    return exps


WORKLOADS = {
    "converse": converse_round,
    "certify": certify_round,
    "measures": measures_round,
}
