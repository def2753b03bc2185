"""Experiment runner: schema validation, artifacts, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import ipss_lab
from ipss_lab import comparison_functions as cf
from ipss_lab import signals as sig
from ipss_lab import simulator as sm
from ipss_lab import stability_certificates as sc
from ipss_lab.cli_harness import (
    ExperimentConfig,
    _draw_linear_scenarios,
    _jsonable,
    _validate_envelope,
    main,
    run_experiment,
    validate_config,
)
from ipss_lab.errors import ConfigError, RangeError

CONFIG_DIR = resources.files("ipss_lab") / "configs"


def load_bundled(name):
    return json.loads((CONFIG_DIR / name).read_text())


def run_config(raw, out_dir):
    return run_experiment(ExperimentConfig(raw=raw), out_dir)


class TestValidation:
    def test_missing_seed_rejected(self, tmp_path):
        raw = load_bundled("linear_simulate.json")
        del raw["seed"]
        errors = validate_config(raw)
        assert any("seed" in path or "seed" in msg for path, msg in errors)

    def test_missing_seed_exits_one(self, tmp_path):
        raw = load_bundled("linear_simulate.json")
        del raw["seed"]
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_validate_subcommand(self, tmp_path, capsys):
        raw = load_bundled("linear_simulate.json")
        cfg_path = tmp_path / "ok.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["validate", str(cfg_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_operation_flagged(self):
        raw = load_bundled("linear_simulate.json")
        raw["operation"] = "explode"
        assert validate_config(raw)

    @pytest.mark.parametrize("edit, expected", [
        (lambda raw: raw.pop("name"), [("$", "'name' is a required property")]),
        (lambda raw: raw.update(seed=1.5), [("$.seed", "1.5 is not of type 'integer'")]),
        (lambda raw: raw.update(seed=True), [("$.seed", "True is not of type 'integer'")]),
        (lambda raw: raw.update(seed="1"), [("$.seed", "'1' is not of type 'integer'")]),
        (lambda raw: raw.update(seed=1.0), []),
        (lambda raw: raw.update(operation="explode"), [(
            "$.operation", "'explode' is not one of ['simulate', 'norms', 'check-lyap', "
            "'synth-gains', 'transform', 'falsify', 'lemma3', 'converse']")]),
        (lambda raw: raw["output"].update(prefix=3),
         [("$.output.prefix", "3 is not of type 'string'")]),
        (lambda raw: raw.update(options=[]), [("$.options", "[] is not of type 'object'")]),
        (lambda raw: raw.update(seed="1", name=None, output={}), [
            ("$.name", "None is not of type 'string'"),
            ("$.output", "'prefix' is a required property"),
            ("$.seed", "'1' is not of type 'integer'")]),
    ])
    def test_schema_violations(self, edit, expected):
        raw = load_bundled("linear_simulate.json")
        edit(raw)
        assert validate_config(raw) == expected

    def test_top_level_must_be_an_object(self):
        assert validate_config([]) == [("$", "[] is not of type 'object'")]

    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out
        for name in ("linear", "counterexample", "perturbed_decay"):
            assert name in out


class TestOperations:
    def test_simulate_artifacts(self, tmp_path):
        arts = run_config(load_bundled("linear_simulate.json"), tmp_path)
        assert arts.exit_status == 0
        rows = list(csv.DictReader(open(arts.paths[0])))
        assert rows[0]["t"] == "0.0"
        assert abs(float(rows[-1]["x_1"]) - (1 - 2.718281828459045 ** -5)) < 1e-6

    def test_norm_trichotomy_artifact(self, tmp_path):
        arts = run_config(load_bundled("example1_norms.json"), tmp_path)
        report = json.load(open(arts.paths[0]))
        assert report["sup_norm"] == 2500.0
        assert report["rho_energy"] == pytest.approx(50.0)
        assert report["avg_power_norm"] == pytest.approx(4.0 / 3.0)

    def test_dissipation_check_passes(self, tmp_path):
        arts = run_config(load_bundled("linear_dissipation_check.json"), tmp_path)
        assert arts.exit_status == 0
        assert arts.summary["passed"]

    def test_lemma3_oracle_passes(self, tmp_path):
        arts = run_config(load_bundled("lemma3_oracle.json"), tmp_path)
        assert arts.exit_status == 0
        assert arts.summary["min_slack"] >= -1e-6

    def test_synth_gains_envelope_nonnegative(self, tmp_path):
        arts = run_config(load_bundled("linear_ipss.json"), tmp_path)
        assert arts.exit_status == 0
        env = [p for p in arts.paths if p.endswith("envelope.csv")][0]
        margins = [float(r["margin"]) for r in csv.DictReader(open(env))]
        assert min(margins) >= 0.0

    def test_falsify_finds_three_violations(self, tmp_path):
        arts = run_config(load_bundled("counterexample_falsify.json"), tmp_path)
        assert arts.exit_status == 2
        report = json.load(open(arts.paths[0]))
        assert len(report["violations"]) == 3
        assert sorted(v["t0"] for v in report["violations"]) == [10.0, 100.0, 1000.0]

    def test_falsify_round_off_is_no_violation(self, tmp_path):
        """The exact ISS bound of linear(1) under zero input misses by round-off only."""
        raw = dict(load_bundled("counterexample_falsify.json"),
                   system={"name": "linear", "params": {"lam": 1.0}},
                   certificate={"kind": "ISS",
                                "beta": {"kind": "exponential", "K": 1.0, "lambda": 1.0},
                                "gamma": {"kind": "power", "c": 1.0, "p": 1.0}},
                   input={"family": "constants", "levels": [0.0], "xi_values": [1.0, 2.0]})
        arts = run_config(raw, tmp_path)
        report = json.load(open(arts.paths[0]))
        assert report["n_evaluated"] == 2 and report["violations"] == []
        assert arts.exit_status == 0

    @staticmethod
    def _family_of(raw_input, tmp_path, monkeypatch):
        seen = []
        real = sc.falsify
        monkeypatch.setattr(sc, "falsify", lambda sys, cert, family, *a, **k: (
            seen.append(family) or real(sys, cert, family, *a, **k)))
        run_config(dict(load_bundled("counterexample_falsify.json"), input=raw_input,
                        options={"budget": 1}), tmp_path)
        return seen[0]

    def test_falsify_family_defaults_come_from_the_spec(self, tmp_path, monkeypatch):
        family = self._family_of({"family": "constants"}, tmp_path, monkeypatch)
        assert family == sc.InputFamilySpec(family="constants")

    def test_falsify_family_lists_become_tuples(self, tmp_path, monkeypatch):
        family = self._family_of({"family": "late_pulses", "t0_values": [10, 100.0],
                                  "xi_values": [0.0], "count": 3, "tau": 2},
                                 tmp_path, monkeypatch)
        assert family.t0_values == (10, 100.0) and family.xi_values == (0.0,)
        assert family.count == 3 and family.tau == 2.0
        assert isinstance(family.tau, float)

    @pytest.mark.parametrize("edit, message", [
        ({"amplitud": 9.0}, r"^\$\.input\.amplitud: unknown key for an input family; "
                            r"known: \['amplitude', 'count', "),
        ({"t0_values": 5.0}, r"^\$\.input\.t0_values: 5\.0 is not a list$"),
        ({"levels": "1.0"}, r"^\$\.input\.levels: '1\.0' is not a list$"),
    ])
    def test_falsify_input_errors_name_their_key(self, edit, message, tmp_path, capsys):
        """A typo in a family key ran with the default; a scalar for a list was a TypeError."""
        raw = load_bundled("counterexample_falsify.json")
        raw["input"].update(edit)
        with pytest.raises(ConfigError, match=message):
            run_config(raw, tmp_path)
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("schema violation: $.input.")
        assert not list(tmp_path.glob("*falsification.json"))

    def test_transform_constants_and_envelope(self, tmp_path):
        arts = run_config(load_bundled("prop2_transform.json"), tmp_path)
        assert arts.exit_status == 0
        assert arts.summary["lambda_tilde"] == 1.0
        assert arts.summary["amplification"] == pytest.approx(2.58198, abs=1e-4)
        assert arts.summary["min_margin"] >= -1e-6

    def test_converse_export_sandwich_holds(self, tmp_path):
        """The exported table lies between its declared alpha1 and alpha2."""
        import numpy as np

        from ipss_lab.comparison_functions import monotone_from_spec

        raw = load_bundled("converse_demo.json")
        raw["options"]["disturbance_samples"] = 8
        raw["options"]["k_max"] = 3
        arts = run_config(raw, tmp_path)
        cand_path = [p for p in arts.paths if p.endswith("_candidate.json")][0]
        table = json.loads(Path(cand_path).read_text())
        r = np.abs(np.asarray(table["x_grid"]))
        V = np.asarray(table["values"])
        lo = monotone_from_spec(table["alpha1"]).eval(r)
        hi = monotone_from_spec(table["alpha2"]).eval(r)
        assert np.max(V[:, r == 3.0]) > 0.1  # the check has something to bound
        assert np.all(lo <= V + 1e-12)
        assert np.all(V <= hi + 1e-12)

    def test_converse_computes_each_layer_once(self, tmp_path, monkeypatch):
        """The checks and the export share one evaluator: each probe state is
        simulated once, with one disturbance batch for all layers, and rho and
        the Lipschitz weights are built once per run."""
        from ipss_lab import converse_construction as cc

        states, calls = [], {"build_mrk_table": 0, "regularized_rho": 0,
                             "disturbance_batch": 0}
        wk_estimates = cc.wk_estimates

        def recording_wk(sys, points, *args):
            states.extend((float(t0), tuple(float(v) for v in np.atleast_1d(xi)))
                          for t0, xi in points)
            return wk_estimates(sys, points, *args)

        monkeypatch.setattr(cc, "wk_estimates", recording_wk)
        for name in calls:
            def counted(*args, _fn=getattr(cc, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cc, name, counted)

        raw = load_bundled("converse_demo.json")
        raw["options"]["disturbance_samples"] = 8
        raw["options"]["k_max"] = 3
        assert raw["options"]["export_candidate"]
        arts = run_config(raw, tmp_path)
        assert any(p.endswith("_candidate.json") for p in arts.paths)
        assert (0.0, (3.0,)) in states  # queried by the checks and the export
        assert len(states) == len(set(states))
        nonzero = sum(any(v != 0.0 for v in xi) for _, xi in states)
        assert calls == {"build_mrk_table": 1, "regularized_rho": 1,
                         "disturbance_batch": nonzero}

    def test_converse_probe_states_run_in_few_step_loops(self, tmp_path, monkeypatch):
        """Probe states of one check phase share lockstep batches: the reduced
        demo took 56 step loops with one batch per probe state."""
        loops = []
        rk4 = sm._rk4

        def counted(*args, **kwargs):
            loops.append(1)
            return rk4(*args, **kwargs)

        monkeypatch.setattr(sm, "_rk4", counted)
        raw = load_bundled("converse_demo.json")
        raw["options"]["disturbance_samples"] = 8
        raw["options"]["k_max"] = 3
        run_config(raw, tmp_path)
        assert 3 * len(loops) < 56


    def test_converse_without_decay_runs_passes(self, tmp_path):
        """A probe state where V is 0 gives the decay check no runs; the empty
        batch raised ``ValueError: need at least one array to stack``."""
        raw = load_bundled("converse_demo.json")
        raw["options"]["probe_states"] = [0.01]
        arts = run_config(raw, tmp_path)
        assert arts.exit_status == 0
        assert arts.summary["decay"] == {"ok": True, "rows": []}
        assert [row["value"] for row in arts.summary["sandwich"]["rows"]] == [0.0]

    def test_converse_omitted_keys_take_the_dataclass_defaults(self, tmp_path, monkeypatch):
        """The runner repeated every default and disagreed with three of them."""
        from ipss_lab import converse_construction as cc

        class Stop(Exception):
            pass

        seen = []

        def stop(ev, plan):
            seen.extend([ev.cfg, plan])
            raise Stop

        monkeypatch.setattr(cc, "check_converse_properties", stop)
        raw = load_bundled("converse_demo.json")
        opt = raw["options"] = {"k_max": 2, "disturbance_samples": 4}
        with pytest.raises(Stop):
            run_config(raw, tmp_path)
        assert seen == [cc.ConverseConfig(seed=raw["seed"], **opt),
                        cc.ConverseProbePlan(seed=raw["seed"])]
        assert (seen[0].pieces_per_horizon, seen[1].decay_eval_points,
                seen[1].lipschitz_pairs) == (6, 3, 4)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("config, keys, value", [
        ("linear_ipss.json", ("options", "n_sims"), 0),
        ("linear_ipss.json", ("options", "n_sims"), -3),
        ("prop2_transform.json", ("options", "validate", "n_sims"), 0),
        ("converse_demo.json", ("options", "probe_states"), []),
        ("converse_demo.json", ("options", "probe_states"), 0.5),
    ])
    def test_empty_scenarios_or_probes_name_their_key(self, config, keys, value, tmp_path,
                                                      capsys):
        """No scenario or no probe state was a bare ``ValueError`` from ``max`` or
        ``np.stack``; a scalar ``probe_states`` was a ``TypeError`` from ``tuple``."""
        raw = load_bundled(config)
        *parents, key = keys
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
        where = "$." + ".".join(keys)
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: "):
            run_config(raw, tmp_path)
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"schema violation: {where}: ")

    @pytest.mark.parametrize("config, keys, value", [
        ("converse_demo.json", ("options", "probe_states"), ["a"]),
        ("converse_demo.json", ("options", "probe_states"), [0.5, True]),
        ("counterexample_falsify.json", ("input", "t0_values"), ["a"]),
    ])
    def test_list_elements_that_are_not_numbers_name_their_key(self, config, keys, value,
                                                                tmp_path, capsys):
        """A string in a list of numbers was a bare ``TypeError`` from the arithmetic on it,
        and a bool was taken as 0 or 1."""
        raw = load_bundled(config)
        *parents, key = keys
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
        where = "$." + ".".join(keys)
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: .* is not a number$"):
            run_config(raw, tmp_path)
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"schema violation: {where}: ")

    def test_bad_validate_system_names_its_own_key(self, tmp_path, capsys):
        """The error named ``$.system.name``, a key the transform config does not have."""
        raw = load_bundled("prop2_transform.json")
        assert "system" not in raw
        raw["options"]["validate"]["system"] = {"name": "nope"}
        with pytest.raises(ConfigError, match=r"^\$\.options\.validate\.system\.name: "
                                              r"unknown system 'nope'; known: "):
            run_config(raw, tmp_path)
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "schema violation: $.options.validate.system.name: unknown system 'nope'")

    @pytest.mark.parametrize("key, value", [("n_sims", 0), ("system", {"name": "nope"})])
    def test_failing_run_writes_no_artifact(self, key, value, tmp_path):
        """A bad ``validate`` section exited 1 but left the IPSS certificate behind."""
        raw = load_bundled("prop2_transform.json")
        raw["options"]["validate"][key] = value
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert not list(tmp_path.glob("**/*_ipss_certificate.json"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, prefix, suffixes", [
        ("linear_simulate.json", "linear_simulate", ["trajectory.csv", "summary.json"]),
        ("example1_norms.json", "example1_norms", ["norms.json"]),
        ("linear_dissipation_check.json", "linear_dissipation", ["violations.json"]),
        ("linear_ipss.json", "linear_ipss",
         ["envelope.csv", "certificate.json", "kappa.json", "summary.json"]),
        ("prop2_transform.json", "prop2",
         ["ipss_certificate.json", "envelope.csv", "summary.json"]),
        ("counterexample_falsify.json", "counterexample_falsify", ["falsification.json"]),
        ("lemma3_oracle.json", "lemma3", ["oracle.json"]),
        ("converse_demo.json", "converse_demo", ["converse.json", "candidate.json"]),
    ])
    def test_bundled_config_writes_exactly_its_artifacts(self, name, prefix, suffixes, tmp_path):
        """The paths come in the operation's order and are the only files written."""
        raw = load_bundled(name)
        assert raw["output"]["prefix"] == prefix
        arts = run_config(raw, tmp_path)
        assert arts.paths == tuple(str(tmp_path / f"{prefix}_{s}") for s in suffixes)
        assert all(Path(p).is_file() for p in arts.paths)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(f"{prefix}_{s}" for s in suffixes)


class TestEnvelopeRows:
    """``_validate_envelope`` returns a CSV writer of what ``check_envelope`` computed."""

    CERT_JSON = {"kind": "ISS", "beta": {"kind": "exponential", "K": 1.0, "lambda": 1.0},
                 "gamma": {"kind": "power", "c": 1.0, "p": 1.0}}
    HEADER = ["candidate", "t", "x_norm", "bound", "margin"]

    @classmethod
    def lone_rows(cls, system, cert_json, scenarios, step):
        """CSV rows and margins of one lone ``simulate`` run per scenario."""
        cert = sc.certificate_from_json(cert_json)
        rows, margins = [], []
        for idx, (xi, u) in enumerate(scenarios):
            traj = sm.simulate(system, 0.0, [xi], u, u.horizon, step)
            rep = sc.check_envelope(traj, cert, u, abs(xi), 0.0)
            margins.append(rep.margin)
            if rep.bounds is None:
                continue
            norms = traj.norms()
            stride = max(1, norms.size // 200)
            rows += [[str(idx)] + [repr(float(v)) for v in
                                   (traj.times[j], norms[j], rep.bounds[j], rep.margins[j])]
                     for j in range(0, norms.size, stride)]
        return rows, margins

    @staticmethod
    def written_rows(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_rows_are_check_envelope_arrays_at_csv_stride(self, tmp_path):
        system = sm.linear_test_system(1.0)
        scenarios = [(1.5, sig.make_signal([(0.0, [1.0]), (2.0, [-0.5])], horizon=4.0)),
                     (-0.5, sig.constant_signal([0.25], 3.0))]
        writer, checked = _validate_envelope(system, self.CERT_JSON, scenarios, {"step": 1e-2})
        writer(tmp_path / "env.csv")
        # a stride of 2 on the first run's 401 samples
        expected, margins = self.lone_rows(system, self.CERT_JSON, scenarios, 1e-2)
        assert self.written_rows(tmp_path / "env.csv") == [self.HEADER] + expected
        assert checked == {"min_margin": min(margins), "passed": min(margins) >= -1e-6}

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        """The CSV writer the helper uses, on its int and float columns, is ``csv.writer``
        with ``repr`` cells; with no rows it writes the header alone."""
        rows = [(0, 0.0, 1.5, 2.0, 0.5), (1, -0.0, 1e-300, math.inf, -math.inf),
                (12, 2.5, math.nan, 3.0, math.nan)]
        columns = [np.array([r[0] for r in rows])] + [np.array(c) for c in list(zip(*rows))[1:]]
        sig._write_csv(tmp_path / "new.csv", self.HEADER, columns)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            for row in rows:
                writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        square = sm.SystemDef(rhs=lambda t, x, u: x ** 2, n=1, m=1)
        writer, checked = _validate_envelope(square, self.CERT_JSON,
                                             [(2.0, sig.zero_signal(1, 1.0))], {"step": 1e-3})
        writer(tmp_path / "empty.csv")
        assert checked == {"min_margin": -math.inf, "passed": False}
        assert (tmp_path / "empty.csv").read_bytes() == b"candidate,t,x_norm,bound,margin\r\n"

    def test_blown_up_scenario_gives_no_rows(self, tmp_path):
        """A blown-up run fails outright instead of writing gain-free bounds."""
        square = sm.SystemDef(rhs=lambda t, x, u: x ** 2, n=1, m=1)
        scenarios = [(2.0, sig.zero_signal(1, 1.0)), (0.1, sig.zero_signal(1, 1.0))]
        writer, checked = _validate_envelope(square, self.CERT_JSON, scenarios, {"step": 1e-3})
        writer(tmp_path / "env.csv")
        assert checked["min_margin"] == -math.inf
        rows = self.written_rows(tmp_path / "env.csv")[1:]
        assert rows and {r[0] for r in rows} == {"1"}
        assert rows == self.lone_rows(square, self.CERT_JSON, scenarios, 1e-3)[0]

    def test_batched_rows_equal_lone_simulate_rows(self, tmp_path, monkeypatch):
        """One batch over all horizons gives the rows of one lone run per scenario."""
        rng = np.random.default_rng(11)
        scenarios = _draw_linear_scenarios(rng, 25, 8.0, 10.0, 10.0)
        scenarios[20:] = _draw_linear_scenarios(rng, 5, 5.0, 10.0, 10.0)
        cert_json = sc.certificate_to_json(
            sc.exp_iiss_to_ipss(1.0, 1.0, cf.identity_fn(), cf.identity_fn(), 1.0))
        system = sm.linear_test_system(1.0)
        writer, batched = _validate_envelope(system, cert_json, scenarios, {})
        writer(tmp_path / "batched.csv")
        one = sm.simulate_batch

        def lone(sys, t0, xis, us, t_ends, *args):
            return [one(sys, t0, [xi], [u], t_end, *args)[0]
                    for xi, u, t_end in zip(xis, us, t_ends)]

        monkeypatch.setattr(sm, "simulate_batch", lone)
        writer, checked = _validate_envelope(system, cert_json, scenarios, {})
        writer(tmp_path / "lone.csv")
        assert checked == batched
        assert (tmp_path / "lone.csv").read_bytes() == (tmp_path / "batched.csv").read_bytes()


class TestSynthGainsCertificate:
    def test_reloaded_beta_dominates_identity_on_its_s_grid(self, tmp_path):
        """beta(s, 0) >= s; it underflowed to 0 on 46 of the 201 nodes."""
        arts = run_config(load_bundled("linear_ipss.json"), tmp_path)
        cert_path = [p for p in arts.paths if p.endswith("certificate.json")][0]
        spec = json.loads(Path(cert_path).read_text())
        beta = sc.certificate_from_json(spec).beta
        s = np.asarray(spec["beta"]["s"])
        assert np.all(np.asarray(beta.eval(s, np.zeros_like(s))) >= s)


class TestDeterminism:
    FAST_CONFIGS = (
        "linear_simulate.json",
        "example1_norms.json",
        "linear_dissipation_check.json",
        "lemma3_oracle.json",
        "counterexample_falsify.json",
        "prop2_transform.json",
        "linear_ipss.json",
        "converse_demo.json",
    )

    @pytest.mark.parametrize("name", FAST_CONFIGS)
    def test_bundled_config_byte_identical(self, name, tmp_path):
        raw = load_bundled(name)
        if name == "converse_demo.json":  # keep the double run affordable
            raw["options"]["disturbance_samples"] = 8
            raw["options"]["k_max"] = 3
            raw["options"]["export_candidate"] = False
        a = run_config(raw, tmp_path / "a")
        b = run_config(raw, tmp_path / "b")
        assert len(a.paths) == len(b.paths)
        for pa, pb in zip(a.paths, b.paths):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_certificate_reload_reproduces_report(self, tmp_path):
        """Round trip: the exported certificate reproduces margins exactly."""
        from ipss_lab import signals as sig
        from ipss_lab import simulator as sm
        from ipss_lab import stability_certificates as sc

        raw = load_bundled("linear_ipss.json")
        arts = run_config(raw, tmp_path)
        cert_path = [p for p in arts.paths if p.endswith("certificate.json")][0]
        cert = sc.certificate_from_json(json.load(open(cert_path)))
        cert2 = sc.certificate_from_json(json.load(open(cert_path)))
        system = sm.linear_test_system(1.0)
        u = sig.constant_signal([2.0], 8.0)
        traj = sm.simulate(system, 0.0, [1.0], u, 8.0, 2e-3)
        r1 = sc.check_envelope(traj, cert, u, 1.0, 0.0)
        r2 = sc.check_envelope(traj, cert2, u, 1.0, 0.0)
        assert abs(r1.margin - r2.margin) < 1e-12

    def test_reloaded_table_beta_refuses_s_beyond_grid(self, tmp_path):
        """Clamping s gave beta(20, 0) = beta(100, 0) = 12.55 < s on reload."""
        arts = run_config(load_bundled("linear_ipss.json"), tmp_path)
        cert_path = [p for p in arts.paths if p.endswith("certificate.json")][0]
        spec = json.loads(Path(cert_path).read_text())
        beta = sc.certificate_from_json(spec).beta
        assert beta.eval(spec["beta"]["s"][-1], 0.0) == spec["beta"]["values"][-1][0]
        for s in (20.0, 100.0):
            with pytest.raises(RangeError, match="beyond its s grid"):
                beta.eval(s, 0.0)

    def test_json_arrays_are_walked_only_for_infinities(self):
        """An array becomes one ``tolist``, and a row of floats is copied whole; only one
        holding +-inf is walked, so its infinities become strings, and nan is left to
        ``json.dumps``."""
        plain = np.array([[0.5, -1e300], [np.nan, 2.0]])
        infinite = np.array([[0.5, np.inf], [-np.inf, np.nan]])
        rows = [[0.5, 1.0], (2.0, -math.inf), [np.float64(1.5), 2], [0.25, np.float32(0.5)]]
        out = _jsonable({"a": plain, "b": [infinite, np.arange(3)], "c": np.array([True]),
                         "d": rows})
        assert json.dumps(out) == json.dumps({
            "a": [[0.5, -1e300], [math.nan, 2.0]], "b": [[[0.5, "inf"], ["-inf", math.nan]],
                                                        [0, 1, 2]], "c": [True],
            "d": [[0.5, 1.0], [2.0, "-inf"], [1.5, 2], [0.25, 0.5]]})
        assert [type(v) for row in out["d"] for v in row] \
            == [float, float, float, str, float, int, float, float]


def test_measure_configs_do_not_import_numpy_ma(tmp_path):
    """``np.unique`` imports ``numpy.ma`` on its first call: about 85 ms cold."""
    names = ["example1_norms.json", "linear_dissipation_check.json", "linear_ipss.json",
             "prop2_transform.json", "lemma3_oracle.json"]
    script = (
        "import json, sys\n"
        "from importlib import resources\n"
        "from pathlib import Path\n"
        "from ipss_lab.cli_harness import ExperimentConfig, run_experiment\n"
        "for name in sys.argv[2:]:\n"
        "    raw = json.loads((resources.files('ipss_lab') / 'configs' / name).read_text())\n"
        "    run_experiment(ExperimentConfig(raw=raw), Path(sys.argv[1]) / name)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(ipss_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path), *names], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
