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
import inspect
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from json.encoder import encode_basestring_ascii
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


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` on a line indented as ``pad``
    (a newline and spaces); a list of finite floats is one ``join`` of their reprs, which
    ``json``'s pure-Python indenting encoder writes float by float."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_json_text(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())) + pad + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else \
            "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    # other keys or values, as json gives them or rejects them; its newlines all indent
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(_jsonable(obj)) + "\n")


def _number(value, where: str, kind=float):
    """``value`` as ``kind``; one that is not a number (a bool is not), or for an ``int`` not
    integral, is a :class:`ConfigError` naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {value!r} is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: {value!r} is not an integer")
    return kind(value)


def _option(section: dict, key: str, where: str, default=..., kind=float):
    """:func:`_number` of ``section[key]`` at ``where.key``, or ``default`` if the key is absent;
    a key without a default is required."""
    if key in section:
        return _number(section[key], f"{where}.{key}", kind)
    if default is ...:
        raise ConfigError(f"{where}.{key}: a required number is missing")
    return default


def _build_system(spec: dict, where: str = "$.system") -> sm.SystemDef:
    name = spec.get("name")
    if name not in sm.SYSTEM_REGISTRY:
        raise ConfigError(f"{where}.name: unknown system {name!r}; "
                          f"known: {sorted(sm.SYSTEM_REGISTRY)}")
    make, params = sm.SYSTEM_REGISTRY[name], spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.params: {params!r} is not an object")
    signature = inspect.signature(make)
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ConfigError(f"{where}.params: {exc}; system {name!r} takes "
                          f"{list(signature.parameters)}") from None
    for key, value in params.items():  # checked, and passed as given
        _number(value, f"{where}.params.{key}")
    return make(**params)


def _build_input_signal(spec: dict) -> sig.Signal:
    kind = spec.get("kind")
    if kind == "signal":
        return sig.signal_from_json(spec["signal"])
    if kind == "constant":
        return sig.constant_signal(spec["value"], _option(spec, "horizon", "$.input"))
    if kind == "pulse_train":
        return sig.pulse_train(_option(spec, "tau", "$.input"),
                               _option(spec, "count", "$.input", kind=int))
    raise ConfigError(f"$.input.kind: unknown input kind {kind!r}")


def _build_candidate(spec: dict) -> lt.LyapunovCandidate:
    kind = spec.get("kind", "abs")
    if kind == "abs":
        return lt.abs_candidate()
    if kind == "quadratic":
        c = _option(spec, "c", "$.lyapunov.V", 1.0)
        return lt.LyapunovCandidate(  # row-wise, one formula for a state and for rows
            eval=lambda t, x, _c=c: _c * np.sum(np.square(np.atleast_1d(x)), axis=-1),
            alpha1=cf.make_power_fn(c, 2.0),
            alpha2=cf.make_power_fn(c, 2.0),
            name=f"quadratic(c={c})",
        )
    if kind == "table":
        return cc.candidate_table_from_json(spec["table"])
    raise ConfigError(f"$.lyapunov.V.kind: unknown candidate kind {kind!r}")


def _field_values(cls, section: dict, where: str, keys: dict) -> dict:
    """Keyword arguments of dataclass ``cls`` for the ``keys`` (config key: field) that
    ``section`` gives: a :func:`_number` of the type of its field's default, or for a
    tuple field a list of numbers, kept as given."""
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key, name in keys.items():
        if key in section:
            value, kind, at = section[key], type(defaults[name]), f"{where}.{key}"
            if kind is not tuple:
                values[name] = _number(value, at, kind)
                continue
            if not isinstance(value, list):
                raise ConfigError(f"{at}: {value!r} is not a list")
            for v in value:
                _number(v, at)
            values[name] = tuple(value)
    return values


def _build_plan(options: dict, n: int, m: int, seed: int) -> lt.SamplingPlan:
    p, where = options.get("plan", {}), "$.options.plan"
    return lt.make_plan(
        n, m,
        times=p.get("times", [0.0, 1.0, 10.0]),
        radii=p.get("radii", list(np.geomspace(1e-2, 10.0, 6))),
        dirs_per_radius=_option(p, "dirs_per_radius", where, 2, int),
        mu_radii=p.get("mu_radii", list(np.geomspace(0.1, 5.0, 3))),
        mu_dirs_per_radius=_option(p, "mu_dirs_per_radius", where, 2, int),
        seed=seed,
        h0=_option(p, "h0", where, 1e-3),
        levels=_option(p, "levels", where, 8, int),
    )


# ---------------------------------------------------------------------------
# operations


def _op_simulate(cfg: ExperimentConfig):
    raw = cfg.raw
    system = _build_system(raw["system"])
    u = _build_input_signal(raw["input"])
    opt = raw["options"]
    t0, t_end, step = (_option(opt, key, "$.options", default) for key, default in
                       (("t0", 0.0), ("t_end", ...), ("step", 1e-3)))
    traj = sm.simulate(system, t0, opt["xi"], u, t_end, step)
    summary = {
        "operation": "simulate",
        "blown_up": traj.blown_up,
        "blowup_time": traj.blowup_time,
        "final_state": [float(v) for v in traj.states[-1]],
        "peak_norm": float(np.max(traj.norms())),
        "n_points": int(traj.times.size),
    }
    return {"trajectory.csv": partial(sm.trajectory_to_csv, traj), "summary.json": summary}, \
        summary, 0


def _op_norms(cfg: ExperimentConfig):
    raw = cfg.raw
    u = _build_input_signal(raw["input"])
    opt = raw["options"]
    rho = cf.monotone_from_spec(opt["rho"])
    T = _option(opt, "T", "$.options")
    power = sig.avg_power_norm(u, rho, T)
    report = {
        "operation": "norms",
        "sup_norm": sig.sup_norm(u).value,
        "rho_energy": sig.rho_energy(u, rho).value,
        "avg_power_norm": power.value,
        "avg_power_witness": list(power.witness),
        "T": T,
    }
    return {"norms.json": report}, report, 0


# gain keys per check-lyap form: D+V <= -alpha + chi, or D+V <= -alpha where |x| >= chi
_LYAP_GAINS = {"dissipation": ("alpha4", "chi4"), "implication": ("alpha3", "chi3"),
               "iiss": ("alpha5", "chi5")}


def _op_check_lyap(cfg: ExperimentConfig):
    raw = cfg.raw
    system = _build_system(raw["system"])
    lyap = raw["lyapunov"]
    V = _build_candidate(lyap.get("V", {"kind": "abs"}))
    opt = raw["options"]
    plan = _build_plan(opt, system.n, system.m, cfg.seed)
    form = lyap.get("form", "dissipation")
    if form not in _LYAP_GAINS:
        raise ConfigError(f"$.lyapunov.form: unknown form {form!r}")
    alpha, chi = (cf.monotone_from_spec(lyap[key]) for key in _LYAP_GAINS[form])
    if form == "dissipation":
        lt.DissipationSpec(alpha4=alpha, chi4=chi)  # rejects gains that are not Kinf
    check = lt.check_implication_form if form == "implication" else lt.check_derivative_bound
    report = check(V, system, alpha, chi, plan, _option(opt, "margin", "$.options", None))
    payload = {
        "operation": "check-lyap",
        "form": form,
        "passed": report.passed,
        "n_checked": report.n_checked,
        "violations": report.to_json(),
    }
    return {"violations.json": payload}, payload, 0 if report.passed else 2


def _draw_linear_scenarios(rng, n_sims: int, horizon: float, xi_range: float, u_range: float):
    scenarios = []
    for _ in range(n_sims):
        xi = float(rng.uniform(-xi_range, xi_range))
        n_pieces = int(rng.integers(1, 12))
        starts = [0.0] + sorted(float(v) for v in rng.uniform(0, horizon, size=n_pieces - 1))
        vals = rng.uniform(-u_range, u_range, size=n_pieces)
        scenarios.append((xi, sig.make_signal([(t, [float(v)]) for t, v in zip(starts, vals)],
                                              horizon=horizon)))
    return scenarios


def _n_sims(v: dict, where: str) -> int:
    """The scenario count ``v["n_sims"]`` of an envelope validation configured at ``where``."""
    n_sims = _option(v, "n_sims", where, 25, int)
    if n_sims < 1:
        raise ConfigError(f"{where}.n_sims: {n_sims!r} is not a positive number of scenarios")
    return n_sims


def _validate_envelope(system, cert_json: dict, scenarios, v: dict, where: str = "$.options"):
    """Check the reloaded ``cert_json`` on the runs of all ``scenarios`` from time 0, one batch,
    with the step and tolerance of the validation configured at ``where``.

    Returns the writer of the envelope CSV, which takes its path, and ``min_margin`` and
    ``passed`` under ``v["tolerance"]``.  The CSV holds every ``max(1, n // 200)``-th of the
    ``n`` samples of each run whose check ran to its end; an early-stopped check gives its
    margin, no rows.
    """
    cert = sc.certificate_from_json(cert_json)
    trajs = sm.simulate_batch(system, 0.0, [[xi] for xi, _ in scenarios], [u for _, u in scenarios],
                              [u.horizon for _, u in scenarios], _option(v, "step", where, 2e-3))
    parts = []  # (candidate, t, x_norm, bound, margin) samples of each run
    min_margin = math.inf
    for idx, ((xi, u), traj) in enumerate(zip(scenarios, trajs)):
        rep = sc.check_envelope(traj, cert, u, abs(xi), 0.0)
        min_margin = min(min_margin, rep.margin)
        if rep.bounds is not None:
            take = np.arange(0, traj.times.size, max(1, traj.times.size // 200))
            t = traj.times[take]
            parts.append((np.full(t.size, idx), t, traj.norms()[take], rep.bounds[take],
                          rep.margins[take]))
    columns = [np.concatenate(col) for col in zip(*parts)] or [()] * 5
    writer = partial(sig._write_csv, header=["candidate", "t", "x_norm", "bound", "margin"],
                     columns=columns)
    return writer, {"min_margin": min_margin,
                    "passed": min_margin >= -_option(v, "tolerance", where, 1e-6)}


def _op_synth_gains(cfg: ExperimentConfig):
    raw = cfg.raw
    system = _build_system(raw["system"])
    lyap = raw["lyapunov"]
    opt = raw["options"]
    alpha1, alpha2, alpha4, chi4 = (cf.monotone_from_spec(lyap[key])
                                    for key in ("alpha1", "alpha2", "alpha4", "chi4"))
    T = _option(opt, "T", "$.options", 1.0)
    q_range = tuple(opt.get("q_range", (1e-3, 1e3)))
    sigma = cf.compose(alpha4, cf.inverse_fn(alpha2))
    bundle = lt.build_kappa(sigma, q_range, _option(opt, "quadrature_tol", "$.options", 1e-10))
    spec = lt.DissipationSpec(alpha4=alpha4, chi4=chi4)
    beta, gamma, rho = lt.ipss_gains_from_dissipation(alpha1, alpha2, spec, T, bundle)

    n_sims = _n_sims(opt, "$.options")
    horizon, xi_range, u_range = (_option(opt, key, "$.options", default) for key, default in
                                  (("horizon", 8.0), ("xi_range", 10.0), ("u_range", 10.0)))
    rng = np.random.default_rng(cfg.seed)
    scenarios = _draw_linear_scenarios(rng, n_sims, horizon, xi_range, u_range)

    # canonicalize to table form so the exported certificate reproduces the
    # run exactly on reload
    u_max = max(float(sig.sup_norm(u).value) for _, u in scenarios) + 1.0
    rho_grid = np.concatenate([[0.0], np.geomspace(1e-6, u_max, 400)])
    s_max = xi_range * 1.1 + 1.0
    power_max = max(sig.avg_power_norm(u, rho, T).value for _, u in scenarios)
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
    envelope, checked = _validate_envelope(system, cert_json, scenarios, opt)
    summary = {"operation": "synth-gains", "n_sims": n_sims, **checked}
    return {"envelope.csv": envelope, "certificate.json": cert_json,
            "kappa.json": lt.kappa_bundle_to_json(bundle), "summary.json": summary}, \
        summary, 0 if summary["passed"] else 2


def _op_transform(cfg: ExperimentConfig):
    raw = cfg.raw
    opt = raw["options"]
    kind = opt.get("transform", "exp-iiss-to-ipss")
    summary = {"operation": "transform", "transform": kind}
    if kind == "exp-iiss-to-ipss":
        cert_spec = raw["certificate"]
        gamma = cf.monotone_from_spec(cert_spec["gamma"])
        rho = cf.monotone_from_spec(cert_spec["rho"])
        K, lam = (_option(cert_spec["beta"], key, "$.certificate.beta") for key in ("K", "lambda"))
        T = _option(opt, "T", "$.options")
        lambda_tilde, amplification = sc.exponential_window_bound(K, lam, T)
        cert_json = sc.certificate_to_json(sc.exp_iiss_to_ipss(K, lam, gamma, rho, T))
        artifacts = {"ipss_certificate.json": cert_json}
        summary.update(lambda_tilde=lambda_tilde, amplification=amplification)
        if "validate" in opt:
            v, where = opt["validate"], "$.options.validate"
            system = _build_system(v["system"], f"{where}.system")
            scenarios = _draw_linear_scenarios(
                np.random.default_rng(cfg.seed), _n_sims(v, where),
                *(_option(v, key, where, default) for key, default in
                  (("horizon", 8.0), ("xi_range", 5.0), ("u_range", 5.0))))
            artifacts["envelope.csv"], checked = _validate_envelope(system, cert_json, scenarios, v,
                                                                    where)
            summary.update(checked)
    elif kind == "ipss-to-iss-iiss":
        cert = sc.certificate_from_json(raw["certificate"])
        iss, iiss = sc.ipss_to_iss_iiss(cert)
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 300)])
        artifacts = {"iss_certificate.json": sc.certificate_to_json(iss, gain_grid=grid),
                     "iiss_certificate.json": sc.certificate_to_json(iiss, gain_grid=grid)}
    else:
        raise ConfigError(f"$.options.transform: unknown transform {kind!r}")
    return {**artifacts, "summary.json": summary}, summary, \
        0 if summary.get("passed", True) else 2


def _op_falsify(cfg: ExperimentConfig):
    raw = cfg.raw
    system = _build_system(raw["system"])
    cert = sc.certificate_from_json(raw["certificate"])
    fam_spec = raw["input"]
    known = {f.name: f.name for f in fields(sc.InputFamilySpec) if f.name != "family"}
    for key in fam_spec:
        if key != "family" and key not in known:
            raise ConfigError(f"$.input.{key}: unknown key for an input family; "
                              f"known: {sorted(known)}")
    family = sc.InputFamilySpec(family=fam_spec["family"],
                                **_field_values(sc.InputFamilySpec, fam_spec, "$.input", known))
    opt = raw["options"]
    report = sc.falsify(system, cert, family, _option(opt, "budget", "$.options", 100, int),
                        step=_option(opt, "step", "$.options", 1e-3),
                        tolerance=_option(opt, "tolerance", "$.options", None))
    payload = {"operation": "falsify", "seed": cfg.seed, **report.to_json()}
    return {"falsification.json": payload}, payload, 2 if report.falsified else 0


def _op_lemma3(cfg: ExperimentConfig):
    raw = cfg.raw
    opt = raw["options"]
    eta = cf.monotone_from_spec(opt["eta"])
    h = sig.signal_from_json(opt["h_profile"]) if "h_profile" in opt else sig.zero_signal(1, 1.0)
    K, lam, T, grid_step, t_max = (_option(opt, key, "$.options", default) for key, default in (
        ("K", ...), ("lambda", ...), ("T", ...), ("grid_step", 0.01), ("t_max", 20.0)))
    report = sc.lemma3_oracle(K, lam, T, eta, h, grid_step, t_max=t_max)
    payload = {
        "operation": "lemma3",
        "min_slack": report.min_slack,
        "worst_pair": list(report.worst_pair),
        "lambda_tilde": report.lambda_tilde,
        "amplification": report.amplification,
        "passed": report.min_slack >= -_option(opt, "tolerance", "$.options", 1e-6),
    }
    return {"oracle.json": payload}, payload, 0 if payload["passed"] else 2


# config key: field of the converse construction and of its probe plan; the rest keep defaults
_CONVERSE_KEYS = {key: key for key in ("k_max", "disturbance_samples", "pieces_per_horizon",
                                       "sim_step")}
_PROBE_KEYS = {"probe_states": "states", **{key: key for key in (
    "decay_horizon", "decay_eval_points", "lipschitz_pairs", "slack")}}


def _op_converse(cfg: ExperimentConfig):
    raw = cfg.raw
    opt = raw["options"]
    base = _build_system(raw["system"])
    K = _option(opt, "urgas_K", "$.options", 1.0)
    lam = _option(opt, "urgas_lambda", "$.options", 0.5)
    theta1, theta2 = cf.sontag_factorize_exponential(K, lam)
    dsys = cc.DisturbedSystem(rhs_d=base.rhs, n=base.n, m=base.m,
                              urgas_beta=cf.KLBound(kind="exponential", K=K, lam=lam))
    conv_cfg = cc.ConverseConfig(
        seed=cfg.seed, **_field_values(cc.ConverseConfig, opt, "$.options", _CONVERSE_KEYS))
    plan = cc.ConverseProbePlan(
        seed=cfg.seed, **_field_values(cc.ConverseProbePlan, opt, "$.options", _PROBE_KEYS))
    if not plan.states:
        raise ConfigError("$.options.probe_states: [] is empty; the checks need a probe state")
    # one evaluator serves the checks and the export, so layers are computed once
    grid = np.concatenate([[0.0], np.geomspace(1e-3, max(plan.states) * 4.0 + 1.0, 200)])
    ev = cc.ConverseEvaluator(dsys, theta1, cc.regularized_rho(theta2, grid), conv_cfg,
                              cc.build_mrk_table(dsys, theta1, conv_cfg))
    report = cc.check_converse_properties(ev, plan)
    payload = {"operation": "converse", "all_ok": report.all_ok, **report.to_json()}
    artifacts = {"converse.json": payload}
    if opt.get("export_candidate", False):
        cand = ev.candidate(grid, "converse_export")
        t_grid = np.linspace(0.0, 2.0, _option(opt, "export_t_points", "$.options", 3, int))
        x_grid = np.linspace(-max(plan.states), max(plan.states),
                             _option(opt, "export_x_points", "$.options", 9, int))
        ev.wk_many([(t, [x]) for t in t_grid for x in x_grid])  # the table's states in one batch
        artifacts["candidate.json"] = cc.candidate_table_to_json(cand, t_grid, x_grid)
    return artifacts, payload, 0 if report.all_ok else 2


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
    """Run the selected operation, then write its artifacts under out_dir.

    Each operation returns its ``{suffix: content}`` map, summary and exit status; a JSON
    content is its payload and a CSV's is its writer, which takes the path.  The map is
    written as ``<prefix>_<suffix>`` in order, and only once the operation has returned, so
    a run that raises writes nothing.
    """
    errors = validate_config(config.raw)
    if errors:
        raise ConfigError("; ".join(f"{p}: {m}" for p, m in errors))
    artifacts, summary, exit_status = _OPS[config.operation](config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for suffix, content in artifacts.items():
        path = out / f"{config.prefix}_{suffix}"
        if callable(content):
            content(path)
        else:
            _write_json(path, content)
        paths.append(str(path))
    return ArtifactSet(paths=tuple(paths), summary=summary, exit_status=exit_status)


# ---------------------------------------------------------------------------
# CLI


def _load_config(path: str, seed_override=None) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if seed_override is not None:
        raw = dict(raw, seed=int(seed_override))
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

    try:
        cfg = _load_config(args.config, getattr(args, "seed", None))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        errors = validate_config(cfg.raw)
        if errors:
            for path, msg in errors:
                print(f"schema violation at {path}: {msg}", file=sys.stderr)
            return 1
        print(f"{args.config}: OK")
        return 0
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
