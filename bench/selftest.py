#!/usr/bin/env python3
"""Show that no output check passes trivially.

    python3 bench/selftest.py

Runs round 0 of every workload once (about 12 s), then, for each check,
feeds it deliberately corrupted copies of the real outputs and requires
a rejection every time.  The real outputs must pass every check except
the known-fault ones; for those a repaired copy must pass and is the one
corrupted, so each check is seen both to pass and to fail.  Exits 1 if any corruption is accepted.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ipss_lab import cli_harness as cli  # noqa: E402


def _set(key, path, fn):
    """Corruption replacing ``outputs[key][path...]`` by ``fn(old)``."""
    def mutate(out):
        obj = out[key]
        for p in path[:-1]:
            obj = obj[p]
        obj[path[-1]] = fn(obj[path[-1]])
    return mutate


def _arr(key, path, fn):
    return _set(key, path, lambda v: fn(np.array(v, dtype=float)).tolist())


def _drop_violation(out):
    out["falsification.json"]["violations"] = out["falsification.json"]["violations"][1:]


def _drop_zero_violation(out):
    vs = out["violations.json"]["violations"]
    j = next(i for i, v in enumerate(vs) if all(m == 0.0 for m in v["mu"]))
    del vs[j]


def _fake_violation(out):
    out["violations.json"]["violations"].append(
        {"t": 0.0, "xi": [1.0], "mu": [0.0], "lhs": 0.0, "rhs": -1.0, "gap": 1.0})


def _col(key, col, fn):
    def mutate(out):
        out[key][col] = fn(out[key][col].copy())
    return mutate


def _bump(j, by):
    def fn(a):
        a[j] += by
        return a
    return fn


def _true_sandwich(out):
    tab = out["candidate.json"]
    ax = np.abs(np.asarray(tab["x_grid"]))
    xs, inv = np.unique(ax, return_inverse=True)
    lo = np.full(xs.size, np.inf)
    np.minimum.at(lo, inv, np.min(np.asarray(tab["values"]), axis=0))
    tab["alpha1"] = {"kind": "table", "xs": xs.tolist(), "ys": lo.tolist()}
    tab["alpha2"] = {"kind": "power", "c": 1.0, "p": 1.0 / workloads.CONVERSE_LAM}


CORRUPTIONS = {
    "converse": [
        ("asymmetric table", _arr("candidate.json", ["values"], lambda v: v * np.where(
            np.arange(v.shape[1]) == 0, 1.01, 1.0))),
        ("V(t, 0) != 0", _arr("candidate.json", ["values"], lambda v: v + 1e-3)),
        ("V depends on t", _arr("candidate.json", ["values"], lambda v: v * np.linspace(
            1.0, 1.01, v.shape[0])[:, None])),
        ("V above theta1 at |x| = max", _arr("candidate.json", ["values"], lambda v: np.where(
            np.arange(v.shape[1]) % (v.shape[1] - 1) == 0, 10.0, v))),
        ("V not monotone in |x|", _arr("candidate.json", ["values"],
                                       lambda v: v[:, [1, 0, *range(2, v.shape[1] - 2), -1, -2]])),
        ("all_ok false", _set("converse.json", ["all_ok"], lambda _: False)),
    ],
    "converse-export-sandwich": [
        ("alpha1 above V", _set("candidate.json", ["alpha1"],
                                lambda _: {"kind": "power", "c": 100.0, "p": 1.0})),
        ("alpha2 below V", lambda out: (_true_sandwich(out), out["candidate.json"].update(
            alpha2={"kind": "power", "c": 1e-3, "p": 1.0}))),
    ],
    "synth-gains": [
        ("beta increasing in t", _arr("certificate.json", ["beta", "values"], lambda v: np.hstack(
            [v[:, :1], v[:, :1] * 1.5, v[:, 2:]]))),
        ("gamma(0) != 0", _arr("certificate.json", ["gamma", "ys"], lambda y: y + 0.1)),
        ("rho decreasing", _arr("certificate.json", ["rho", "ys"], lambda y: y[::-1])),
        ("summary not passed", _set("summary.json", ["passed"], lambda _: False)),
        ("envelope margin negative", _col("envelope.csv", "margin", lambda m: m - 1.0)),
    ],
    "beta-dominates-identity": [
        ("beta(s, 0) < s", lambda out: out["certificate.json"]["beta"].update(values=(
            np.array(out["certificate.json"]["beta"]["values"])
            * np.where(np.arange(len(out["certificate.json"]["beta"]["t"])) == 0, 0.5, 1.0)
        ).tolist())),
    ],
    "transform": [
        ("gamma c perturbed", _set("ipss_certificate.json", ["gamma", "c"], lambda c: c * 1.001)),
        ("beta lambda perturbed", _set("ipss_certificate.json", ["beta", "lambda"],
                                       lambda v: v * 1.001)),
        ("amplification perturbed", _set("summary.json", ["amplification"], lambda v: v * 1.001)),
        ("validation failed", _set("summary.json", ["min_margin"], lambda _: -1.0)),
    ],
    "falsify": [
        ("report without its violation", _drop_violation),
        ("peak below energy bound", lambda out: [v.update(peak_state_norm=1e-6)
                                                 for v in out["falsification.json"]["violations"]]),
        ("candidate count", _set("falsification.json", ["n_evaluated"], lambda n: n + 1)),
    ],
    "simulate": [
        ("state perturbed by 1e-6", _col("trajectory.csv", "x_1", _bump(1000, 1e-6))),
        ("final state mismatch", _set("summary.json", ["final_state"], lambda v: [v[0] + 1e-3])),
    ],
    "norms-pulse": [
        ("power norm perturbed", _set("norms.json", ["avg_power_norm"], lambda v: v * (1 + 1e-6))),
        ("witness shifted", _set("norms.json", ["avg_power_witness"], lambda w: [w[0] + 0.1, w[1] + 0.1])),
        ("energy perturbed", _set("norms.json", ["rho_energy"], lambda v: v * (1 + 1e-4))),
        ("sup perturbed", _set("norms.json", ["sup_norm"], lambda v: v * (1 + 1e-9))),
    ],
    "norms-signal": [
        ("power norm perturbed", _set("norms.json", ["avg_power_norm"], lambda v: v * (1 + 1e-6))),
        ("witness past the horizon", _set("norms.json", ["avg_power_witness"],
                                          lambda w: [w[0] + 1e6, w[1] + 1e6])),
        ("witness too short", _set("norms.json", ["avg_power_witness"],
                                   lambda w: [w[0], 0.5 * (w[0] + w[1])])),
        ("energy perturbed", _set("norms.json", ["rho_energy"], lambda v: v * (1 + 1e-6))),
        ("sup perturbed", _set("norms.json", ["sup_norm"], lambda v: v * 0.999)),
    ],
    "lemma3": [
        ("amplification perturbed", _set("oracle.json", ["amplification"], lambda v: v * 1.001)),
        ("lambda_tilde perturbed", _set("oracle.json", ["lambda_tilde"], lambda v: v * 1.001)),
        ("negative slack", _set("oracle.json", ["min_slack"], lambda _: -1e-3)),
    ],
    "lyap-dissipation": [
        ("spurious violation", _fake_violation),
        ("sample count", _set("violations.json", ["n_checked"], lambda n: n - 1)),
    ],
    "lyap-implication": [("sample count", _set("violations.json", ["n_checked"], lambda n: n + 1))],
    "lyap-iiss": [("not passed", _set("violations.json", ["passed"], lambda _: False))],
    "lyap-false-pair": [
        ("u = 0 violation dropped", _drop_zero_violation),
        ("lhs perturbed", lambda out: out["violations.json"]["violations"][0].update(
            lhs=out["violations.json"]["violations"][0]["lhs"] + 1e-3)),
        ("reported passed", _set("violations.json", ["passed"], lambda _: True)),
    ],
}

def _beta_floor(out):
    beta = out["certificate.json"]["beta"]
    vals = np.array(beta["values"])
    vals[:, 0] = np.maximum(vals[:, 0], beta["s"])
    beta["values"] = vals.tolist()


# known-fault checks fail on the real outputs today; their corruptions are
# applied to a repaired copy, which must pass
REPAIRS = {"converse-export-sandwich": _true_sandwich, "beta-dominates-identity": _beta_floor}


def _cases(label: str):
    """Corruptions for a check; ``norms-pulse-<N>`` and ``norms-signal-<i>`` share theirs."""
    return CORRUPTIONS.get(label.rsplit("-", 1)[0] if label.startswith("norms-") else label, [])


def main() -> int:
    out_dir = ROOT / ".bench_out" / "selftest"
    bad, n = [], 0
    for name, round_fn in workloads.WORKLOADS.items():
        for exp in round_fn(0, 0):
            artifacts = cli.run_experiment(cli.ExperimentConfig(raw=exp.config), out_dir)
            outputs = checks.load_outputs(artifacts, exp.prefix)
            targets = [(exp.label, exp.check, False)]
            targets += [(op.name, op.check, op.known_fault) for op in exp.extra]
            if exp.label == "synth-gains":
                targets.append(("beta-dominates-identity", checks.beta_dominates_identity, True))
            for label, check, known_fault in targets:
                real = check(outputs)
                if real and not known_fault:
                    bad.append(f"{label}: real output rejected: {real}")
                base = outputs
                if label in REPAIRS:
                    base = copy.deepcopy(outputs)
                    REPAIRS[label](base)
                    if check(base):
                        bad.append(f"{label}: repaired output rejected: {check(base)}")
                for what, mutate in _cases(label):
                    corrupted = copy.deepcopy(base)
                    mutate(corrupted)
                    n += 1
                    if not check(corrupted):
                        bad.append(f"{label}: accepted corruption '{what}'")
                    else:
                        print(f"rejected  {label:26s} {what}")
    for msg in bad:
        print(f"FAIL {msg}")
    print(f"{n} corruptions, {len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
