"""Batch experiment runner: JSON configs in, CSV/JSON artifacts out.

Each config selects one operation (simulate | norms | check-lyap |
synth-gains | transform | falsify | lemma3 | converse), a system, inputs
and numeric options.  Runs are deterministic: the seed is a required
config field, every random draw flows from it, and float formatting uses
shortest round-trip representations, so identical config + seed produce
byte-identical artifacts.

Exit status: 0 on pass, 2 when a violation was found, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import comparison_functions as cf
from . import converse_construction as cc
from . import lyapunov_tools as lt
from . import signals as sig
from . import simulator as sm
from . import stability_certificates as sc
from .errors import ConfigError

__all__ = ["ExperimentConfig", "ArtifactSet", "run_experiment", "validate_config", "main"]

OPERATIONS = ("simulate", "norms", "check-lyap", "synth-gains", "transform",
              "falsify", "lemma3", "converse")

_REQUIRED = ("name", "seed", "operation", "output")
_SECTIONS = ("system", "input", "certificate", "lyapunov", "options", "output")
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    # JSON numbers with a zero fraction are integers; booleans are not numbers
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
# JSON type of each typed field, by key path: the top-level fields and output.prefix
_TYPES = {("name",): "string", ("seed",): "integer", ("output", "prefix"): "string",
          **{(key,): "object" for key in _SECTIONS}}


_OP_REQUIREMENTS = {
    "simulate": ("system", "input", "options"),
    "norms": ("input", "options"),
    "check-lyap": ("system", "lyapunov", "options"),
    "synth-gains": ("system", "lyapunov", "options"),
    "transform": ("certificate", "options"),
    "falsify": ("system", "certificate", "input", "options"),
    "lemma3": ("options",),
    "converse": ("system", "options"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (plain dict plus bookkeeping)."""

    raw: dict

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def operation(self) -> str:
        return self.raw["operation"]

    @property
    def prefix(self) -> str:
        return self.raw["output"]["prefix"]


@dataclass(frozen=True)
class ArtifactSet:
    """Paths written by a run plus its summary and exit status."""

    paths: tuple
    summary: dict
    exit_status: int


def _schema_errors(raw) -> list:
    """``(json_path, message)`` of every violation of the base schema, sorted by path."""
    if not isinstance(raw, dict):
        return [("$", f"{raw!r} is not of type 'object'")]
    errors = [("$", f"{key!r} is a required property") for key in _REQUIRED if key not in raw]
    if "operation" in raw and raw["operation"] not in OPERATIONS:
        errors.append(("$.operation", f"{raw['operation']!r} is not one of {list(OPERATIONS)!r}"))
    if isinstance(raw.get("output"), dict) and "prefix" not in raw["output"]:
        errors.append(("$.output", "'prefix' is a required property"))
    for path, kind in _TYPES.items():
        *head, key = path
        parent = raw.get(head[0]) if head else raw
        if isinstance(parent, dict) and key in parent and not _IS_TYPE[kind](parent[key]):
            errors.append(("$." + ".".join(path), f"{parent[key]!r} is not of type {kind!r}"))
    return sorted(errors, key=lambda err: err[0].split("."))


def validate_config(raw: dict) -> list:
    """Return a list of ``(json_path, message)`` schema violations."""
    errors = _schema_errors(raw)
    if errors:
        return errors
    op = raw["operation"]
    for field in _OP_REQUIREMENTS[op]:
        if field not in raw:
            errors.append((f"$.{field}", f"operation {op!r} requires this section"))
    return errors


# ---------------------------------------------------------------------------
# builders


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj) and not any(map(math.isinf, obj)):
            return list(obj)  # a row of finite floats, as a table's tolist gives
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):  # one tolist; walked only for the inf strings
        out = obj.tolist()
        plain = obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and not np.isinf(obj).any())
        return out if plain else _jsonable(out)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _build_system(spec: dict) -> sm.SystemDef:
    name = spec.get("name")
    if name not in sm.SYSTEM_REGISTRY:
        raise ConfigError(f"$.system.name: unknown system {name!r}; "
                          f"known: {sorted(sm.SYSTEM_REGISTRY)}")
    params = spec.get("params", {})
    return sm.SYSTEM_REGISTRY[name](**params)


def _build_input_signal(spec: dict) -> sig.Signal:
    kind = spec.get("kind")
    if kind == "signal":
        return sig.signal_from_json(spec["signal"])
    if kind == "constant":
        return sig.constant_signal(spec["value"], float(spec["horizon"]))
    if kind == "pulse_train":
        return sig.pulse_train(float(spec["tau"]), int(spec["count"]))
    raise ConfigError(f"$.input.kind: unknown input kind {kind!r}")


def _build_candidate(spec: dict) -> lt.LyapunovCandidate:
    kind = spec.get("kind", "abs")
    if kind == "abs":
        return lt.abs_candidate()
    if kind == "quadratic":
        c = float(spec.get("c", 1.0))
        return lt.LyapunovCandidate(  # row-wise, one formula for a state and for rows
            eval=lambda t, x, _c=c: _c * np.sum(np.square(np.atleast_1d(x)), axis=-1),
            alpha1=cf.make_power_fn(c, 2.0),
            alpha2=cf.make_power_fn(c, 2.0),
            name=f"quadratic(c={c})",
        )
    if kind == "table":
        return cc.candidate_table_from_json(spec["table"])
    raise ConfigError(f"$.lyapunov.V.kind: unknown candidate kind {kind!r}")


def _build_plan(options: dict, n: int, m: int, seed: int) -> lt.SamplingPlan:
    p = options.get("plan", {})
    return lt.make_plan(
        n, m,
        times=p.get("times", [0.0, 1.0, 10.0]),
        radii=p.get("radii", list(np.geomspace(1e-2, 10.0, 6))),
        dirs_per_radius=int(p.get("dirs_per_radius", 2)),
        mu_radii=p.get("mu_radii", list(np.geomspace(0.1, 5.0, 3))),
        mu_dirs_per_radius=int(p.get("mu_dirs_per_radius", 2)),
        seed=seed,
        h0=float(p.get("h0", 1e-3)),
        levels=int(p.get("levels", 8)),
    )


# ---------------------------------------------------------------------------
# operations


def _op_simulate(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    system = _build_system(raw["system"])
    u = _build_input_signal(raw["input"])
    opt = raw["options"]
    traj = sm.simulate(system, float(opt.get("t0", 0.0)), opt["xi"], u,
                       float(opt["t_end"]), float(opt.get("step", 1e-3)))
    traj_path = out / f"{cfg.prefix}_trajectory.csv"
    sm.trajectory_to_csv(traj, traj_path)
    summary = {
        "operation": "simulate",
        "blown_up": traj.blown_up,
        "blowup_time": traj.blowup_time,
        "final_state": [float(v) for v in traj.states[-1]],
        "peak_norm": float(np.max(traj.norms())),
        "n_points": int(traj.times.size),
    }
    sum_path = out / f"{cfg.prefix}_summary.json"
    _write_json(sum_path, summary)
    return ArtifactSet(paths=(str(traj_path), str(sum_path)), summary=summary,
                       exit_status=0)


def _op_norms(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    u = _build_input_signal(raw["input"])
    opt = raw["options"]
    rho = cf.monotone_from_spec(opt["rho"])
    T = float(opt["T"])
    sup = sig.sup_norm(u)
    energy = sig.rho_energy(u, rho)
    power = sig.avg_power_norm(u, rho, T)
    report = {
        "operation": "norms",
        "sup_norm": sup.value,
        "rho_energy": energy.value,
        "avg_power_norm": power.value,
        "avg_power_witness": list(power.witness),
        "T": T,
    }
    path = out / f"{cfg.prefix}_norms.json"
    _write_json(path, report)
    return ArtifactSet(paths=(str(path),), summary=report, exit_status=0)


# gain keys per check-lyap form: D+V <= -alpha + chi, or D+V <= -alpha where |x| >= chi
_LYAP_GAINS = {"dissipation": ("alpha4", "chi4"), "implication": ("alpha3", "chi3"),
               "iiss": ("alpha5", "chi5")}


def _op_check_lyap(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    system = _build_system(raw["system"])
    lyap = raw["lyapunov"]
    V = _build_candidate(lyap.get("V", {"kind": "abs"}))
    opt = raw["options"]
    plan = _build_plan(opt, system.n, system.m, cfg.seed)
    margin = opt.get("margin")
    form = lyap.get("form", "dissipation")
    if form not in _LYAP_GAINS:
        raise ConfigError(f"$.lyapunov.form: unknown form {form!r}")
    alpha, chi = (cf.monotone_from_spec(lyap[key]) for key in _LYAP_GAINS[form])
    if form == "dissipation":
        lt.DissipationSpec(alpha4=alpha, chi4=chi)  # rejects gains that are not Kinf
    check = lt.check_implication_form if form == "implication" else lt.check_derivative_bound
    report = check(V, system, alpha, chi, plan, margin)
    payload = {
        "operation": "check-lyap",
        "form": form,
        "passed": report.passed,
        "n_checked": report.n_checked,
        "violations": report.to_json(),
    }
    path = out / f"{cfg.prefix}_violations.json"
    _write_json(path, payload)
    return ArtifactSet(paths=(str(path),), summary=payload,
                       exit_status=0 if report.passed else 2)


def _draw_linear_scenarios(rng, n_sims: int, horizon: float, xi_range: float,
                           u_range: float):
    scenarios = []
    for _ in range(n_sims):
        xi = float(rng.uniform(-xi_range, xi_range))
        n_pieces = int(rng.integers(1, 12))
        starts = [0.0] + sorted(float(v) for v in rng.uniform(0, horizon, size=n_pieces - 1))
        vals = rng.uniform(-u_range, u_range, size=n_pieces)
        u = sig.make_signal([(t, [float(v)]) for t, v in zip(starts, vals)],
                            horizon=horizon)
        scenarios.append((xi, u))
    return scenarios


def _envelope_csv(path: Path, rows) -> None:
    columns = list(zip(*rows)) or [()] * 5
    sig._write_csv(path, ["candidate", "t", "x_norm", "bound", "margin"], columns)


def _run_envelope_sims(system, cert, scenarios, t0, step):
    """Envelope rows of every scenario; an early-stopped check gives its margin, no rows."""
    trajs = sm.simulate_batch(system, t0, [[xi] for xi, _ in scenarios], [u for _, u in scenarios],
                              [u.horizon for _, u in scenarios], step)
    rows = []
    min_margin = math.inf
    for idx, ((xi, u), traj) in enumerate(zip(scenarios, trajs)):
        rep = sc.check_envelope(traj, cert, u, abs(xi), t0)
        min_margin = min(min_margin, rep.margin)
        if rep.bounds is None:
            continue
        norms = traj.norms()
        stride = max(1, norms.size // 200)
        for j in range(0, norms.size, stride):
            rows.append((idx, float(traj.times[j]), float(norms[j]),
                         float(rep.bounds[j]), float(rep.margins[j])))
    return rows, min_margin


def _op_synth_gains(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    system = _build_system(raw["system"])
    lyap = raw["lyapunov"]
    opt = raw["options"]
    alpha1 = cf.monotone_from_spec(lyap["alpha1"])
    alpha2 = cf.monotone_from_spec(lyap["alpha2"])
    alpha4 = cf.monotone_from_spec(lyap["alpha4"])
    chi4 = cf.monotone_from_spec(lyap["chi4"])
    T = float(opt.get("T", 1.0))
    q_range = tuple(opt.get("q_range", (1e-3, 1e3)))
    sigma = cf.compose(alpha4, cf.inverse_fn(alpha2))
    bundle = lt.build_kappa(sigma, q_range, float(opt.get("quadrature_tol", 1e-10)))
    spec = lt.DissipationSpec(alpha4=alpha4, chi4=chi4)
    beta, gamma, rho = lt.ipss_gains_from_dissipation(alpha1, alpha2, spec, T, bundle)

    n_sims = int(opt.get("n_sims", 25))
    horizon = float(opt.get("horizon", 8.0))
    xi_range = float(opt.get("xi_range", 10.0))
    u_range = float(opt.get("u_range", 10.0))
    step = float(opt.get("step", 2e-3))
    rng = np.random.default_rng(cfg.seed)
    scenarios = _draw_linear_scenarios(rng, n_sims, horizon, xi_range, u_range)

    # canonicalize to table form so the exported certificate reproduces the
    # run exactly on reload
    u_max = max(float(sig.sup_norm(u).value) for _, u in scenarios) + 1.0
    rho_grid = np.concatenate([[0.0], np.geomspace(1e-6, u_max, 400)])
    s_max = xi_range * 1.1 + 1.0
    power_max = max(
        sig.avg_power_norm(u, rho, T).value
        for _, u in scenarios
    )
    gamma_grid = np.concatenate([[0.0], np.geomspace(1e-9, power_max * 1.1 + 1.0, 400)])
    cert_json = {
        "kind": "IPSS",
        "beta": cf.klbound_to_spec(beta,
                                   s_grid=np.concatenate([[0.0], np.geomspace(1e-3, s_max, 200)]),
                                   t_grid=np.linspace(0.0, horizon, 220)),
        "gamma": cf.monotone_to_spec(gamma, sample_grid=gamma_grid),
        "rho": cf.monotone_to_spec(rho, sample_grid=rho_grid),
        "T": T,
    }
    canonical = sc.certificate_from_json(cert_json)

    rows, min_margin = _run_envelope_sims(system, canonical,
                                          scenarios, 0.0, step)
    env_path = out / f"{cfg.prefix}_envelope.csv"
    _envelope_csv(env_path, rows)
    cert_path = out / f"{cfg.prefix}_certificate.json"
    _write_json(cert_path, cert_json)
    bundle_path = out / f"{cfg.prefix}_kappa.json"
    _write_json(bundle_path, lt.kappa_bundle_to_json(bundle))
    tol = float(opt.get("tolerance", 1e-6))
    summary = {
        "operation": "synth-gains",
        "min_margin": min_margin,
        "n_sims": n_sims,
        "passed": min_margin >= -tol,
    }
    sum_path = out / f"{cfg.prefix}_summary.json"
    _write_json(sum_path, summary)
    return ArtifactSet(
        paths=(str(env_path), str(cert_path), str(bundle_path), str(sum_path)),
        summary=summary,
        exit_status=0 if summary["passed"] else 2,
    )


def _op_transform(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    opt = raw["options"]
    kind = opt.get("transform", "exp-iiss-to-ipss")
    paths = []
    if kind == "exp-iiss-to-ipss":
        cert_spec = raw["certificate"]
        gamma = cf.monotone_from_spec(cert_spec["gamma"])
        rho = cf.monotone_from_spec(cert_spec["rho"])
        K = float(cert_spec["beta"]["K"])
        lam = float(cert_spec["beta"]["lambda"])
        T = float(opt["T"])
        ipss = sc.exp_iiss_to_ipss(K, lam, gamma, rho, T)
        lambda_tilde, amplification = sc.exponential_window_bound(K, lam, T)
        cert_json = sc.certificate_to_json(ipss)
        cert_path = out / f"{cfg.prefix}_ipss_certificate.json"
        _write_json(cert_path, cert_json)
        paths.append(str(cert_path))
        summary = {
            "operation": "transform",
            "transform": kind,
            "lambda_tilde": lambda_tilde,
            "amplification": amplification,
        }
        status = 0
        if "validate" in opt:
            v = opt["validate"]
            system = _build_system(v["system"])
            rng = np.random.default_rng(cfg.seed)
            scenarios = _draw_linear_scenarios(
                rng, int(v.get("n_sims", 25)), float(v.get("horizon", 8.0)),
                float(v.get("xi_range", 5.0)), float(v.get("u_range", 5.0)))
            canonical = sc.certificate_from_json(cert_json)
            rows, min_margin = _run_envelope_sims(system, canonical, scenarios,
                                                  0.0, float(v.get("step", 2e-3)))
            env_path = out / f"{cfg.prefix}_envelope.csv"
            _envelope_csv(env_path, rows)
            paths.append(str(env_path))
            summary["min_margin"] = min_margin
            summary["passed"] = min_margin >= -float(v.get("tolerance", 1e-6))
            status = 0 if summary["passed"] else 2
    elif kind == "ipss-to-iss-iiss":
        cert = sc.certificate_from_json(raw["certificate"])
        iss, iiss = sc.ipss_to_iss_iiss(cert)
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 300)])
        iss_path = out / f"{cfg.prefix}_iss_certificate.json"
        iiss_path = out / f"{cfg.prefix}_iiss_certificate.json"
        _write_json(iss_path, sc.certificate_to_json(iss, gain_grid=grid))
        _write_json(iiss_path, sc.certificate_to_json(iiss, gain_grid=grid))
        paths.extend([str(iss_path), str(iiss_path)])
        summary = {"operation": "transform", "transform": kind}
        status = 0
    else:
        raise ConfigError(f"$.options.transform: unknown transform {kind!r}")
    sum_path = out / f"{cfg.prefix}_summary.json"
    _write_json(sum_path, summary)
    paths.append(str(sum_path))
    return ArtifactSet(paths=tuple(paths), summary=summary, exit_status=status)


def _op_falsify(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    system = _build_system(raw["system"])
    cert = sc.certificate_from_json(raw["certificate"])
    fam_spec = raw["input"]
    defaults = {f.name: f.default for f in fields(sc.InputFamilySpec) if f.name != "family"}
    for key, value in fam_spec.items():
        if key != "family" and key not in defaults:
            raise ConfigError(f"$.input.{key}: unknown key for an input family; "
                              f"known: {sorted(defaults)}")
        if isinstance(defaults.get(key), tuple) and not isinstance(value, list):
            raise ConfigError(f"$.input.{key}: {value!r} is not a list")
    family = sc.InputFamilySpec(family=fam_spec["family"], **{
        key: type(default)(fam_spec[key]) for key, default in defaults.items() if key in fam_spec})
    opt = raw["options"]
    report = sc.falsify(system, cert, family, int(opt.get("budget", 100)),
                        step=float(opt.get("step", 1e-3)), tolerance=opt.get("tolerance"))
    payload = {"operation": "falsify", "seed": cfg.seed, **report.to_json()}
    path = out / f"{cfg.prefix}_falsification.json"
    _write_json(path, payload)
    return ArtifactSet(paths=(str(path),), summary=payload,
                       exit_status=2 if report.falsified else 0)


def _op_lemma3(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    opt = raw["options"]
    eta = cf.monotone_from_spec(opt["eta"])
    if "h_profile" in opt:
        h = sig.signal_from_json(opt["h_profile"])
    else:
        h = sig.zero_signal(1, 1.0)
    report = sc.lemma3_oracle(
        float(opt["K"]), float(opt["lambda"]), float(opt["T"]), eta, h,
        float(opt.get("grid_step", 0.01)), t_max=float(opt.get("t_max", 20.0)))
    tol = float(opt.get("tolerance", 1e-6))
    payload = {
        "operation": "lemma3",
        "min_slack": report.min_slack,
        "worst_pair": list(report.worst_pair),
        "lambda_tilde": report.lambda_tilde,
        "amplification": report.amplification,
        "passed": report.min_slack >= -tol,
    }
    path = out / f"{cfg.prefix}_oracle.json"
    _write_json(path, payload)
    return ArtifactSet(paths=(str(path),), summary=payload,
                       exit_status=0 if payload["passed"] else 2)


def _op_converse(cfg: ExperimentConfig, out: Path) -> ArtifactSet:
    raw = cfg.raw
    opt = raw["options"]
    base = _build_system(raw["system"])
    K = float(opt.get("urgas_K", 1.0))
    lam = float(opt.get("urgas_lambda", 0.5))
    theta1, theta2 = cf.sontag_factorize_exponential(K, lam)
    dsys = cc.DisturbedSystem(rhs_d=base.rhs, n=base.n, m=base.m,
                              urgas_beta=cf.KLBound(kind="exponential", K=K, lam=lam))
    conv_cfg = cc.ConverseConfig(
        k_max=int(opt.get("k_max", 5)),
        disturbance_samples=int(opt.get("disturbance_samples", 16)),
        pieces_per_horizon=int(opt.get("pieces_per_horizon", 6)),
        sim_step=float(opt.get("sim_step", 5e-3)),
        seed=cfg.seed,
    )
    plan = cc.ConverseProbePlan(
        states=tuple(opt.get("probe_states", (0.5, 1.0, 3.0))),
        decay_horizon=float(opt.get("decay_horizon", 4.0)),
        decay_eval_points=int(opt.get("decay_eval_points", 3)),
        lipschitz_pairs=int(opt.get("lipschitz_pairs", 4)),
        slack=float(opt.get("slack", 0.1)),
        seed=cfg.seed,
    )
    # one evaluator serves the checks and the export, so layers are computed once
    top = max(plan.states) * 4.0 + 1.0
    grid = np.concatenate([[0.0], np.geomspace(1e-3, top, 200)])
    ev = cc.ConverseEvaluator(dsys, theta1, cc.regularized_rho(theta2, grid), conv_cfg,
                              cc.build_mrk_table(dsys, theta1, conv_cfg))
    report = cc.check_converse_properties(ev, plan)
    payload = {"operation": "converse", "all_ok": report.all_ok, **report.to_json()}
    path = out / f"{cfg.prefix}_converse.json"
    _write_json(path, payload)
    paths = [str(path)]
    if opt.get("export_candidate", False):
        cand = ev.candidate(grid, "converse_export")
        t_grid = np.linspace(0.0, 2.0, int(opt.get("export_t_points", 3)))
        x_grid = np.linspace(-max(plan.states), max(plan.states),
                             int(opt.get("export_x_points", 9)))
        ev.wk_many([(t, [x]) for t in t_grid for x in x_grid])  # the table's states in one batch
        table = cc.candidate_table_to_json(cand, t_grid, x_grid)
        cand_path = out / f"{cfg.prefix}_candidate.json"
        _write_json(cand_path, table)
        paths.append(str(cand_path))
    return ArtifactSet(paths=tuple(paths), summary=payload,
                       exit_status=0 if report.all_ok else 2)


_OPS = {
    "simulate": _op_simulate,
    "norms": _op_norms,
    "check-lyap": _op_check_lyap,
    "synth-gains": _op_synth_gains,
    "transform": _op_transform,
    "falsify": _op_falsify,
    "lemma3": _op_lemma3,
    "converse": _op_converse,
}


def run_experiment(config: ExperimentConfig, out_dir) -> ArtifactSet:
    """Dispatch to the selected operation, writing artifacts under out_dir."""
    errors = validate_config(config.raw)
    if errors:
        raise ConfigError("; ".join(f"{p}: {m}" for p, m in errors))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _OPS[config.operation](config, out)


# ---------------------------------------------------------------------------
# CLI


def _load_config(path: str, seed_override=None) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = int(seed_override)
    return ExperimentConfig(raw=raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ipss-lab",
        description="Run stability-analysis experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default="out", help="artifact directory")
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")
    sub.add_parser("list-systems", help="list built-in system names")
    args = parser.parse_args(argv)

    if args.command == "list-systems":
        for name in sorted(sm.SYSTEM_REGISTRY):
            print(name)
        return 0

    if args.command == "validate":
        try:
            cfg = _load_config(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        errors = validate_config(cfg.raw)
        if errors:
            for path, msg in errors:
                print(f"schema violation at {path}: {msg}", file=sys.stderr)
            return 1
        print(f"{args.config}: OK")
        return 0

    try:
        cfg = _load_config(args.config, args.seed)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        artifacts = run_experiment(cfg, args.out)
    except ConfigError as exc:
        print(f"schema violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime errors propagate with module context
        print(f"error [{cfg.operation}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for p in artifacts.paths:
        print(f"wrote {p}")
    status = artifacts.exit_status
    verdict = {0: "pass", 2: "violation found"}.get(status, "error")
    print(f"{cfg.name}: {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
