import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import count_calls
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob.cli as cli
import sismob.mobility
import sismob.spectral
from sismob.config import (
    MAX_POPULATION,
    MAX_STEPS,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
)
from sismob.dynamics import ModelState, integrate
from sismob.equilibria import endemic_fixed_point
from sismob.errors import ConfigError, InputError, NumericalError, RegimeError
from sismob.mobility import make_graph
from sismob.output import parse_trajectory_csv
from sismob.spectral import Mobility, StabilityReport, analyze, jacobian, spectral_abscissa
from sismob.stochastic import ensemble_average, fixed_step_run, seed_population


def base_doc(**overrides):
    doc = {
        "schema": 1,
        "name": "toy",
        "mode": "deterministic",
        "graph": {"kind": "ring", "n": 4},
        "rates": {"uniform_out": {"nu": 0.2}},
        "beta": 0.3,
        "delta": 0.4,
        "p0": 0.1,
        "t_end": 5.0,
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_scenario(json.dumps(doc))


def explicit_rates_doc(rates):
    doc = base_doc(graph={"n": 2, "rates": rates})
    del doc["rates"]
    return doc


def mh_doc(target, **overrides):
    return base_doc(rates={"metropolis_hastings": {"target": target, "base_rate": 0.2}},
                    **overrides)


def analyze_doc(**overrides):
    """Analyze-mode document; an override of None deletes the key."""
    doc = base_doc(mode="analyze", **overrides)
    del doc["t_end"]
    del doc["p0"]
    return {key: val for key, val in doc.items() if val is not None}


class TestParseScenario:
    def test_minimal_deterministic(self):
        cfg = parse(base_doc())
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.generator.n == 4
        assert cfg.dt == 0.01
        assert cfg.sample_dt == 1.0

    def test_x0_defaults_to_stationary(self):
        # None: the run starts from the stationary distribution
        assert parse(base_doc()).x0 is None

    def test_explicit_x0(self):
        cfg = parse(base_doc(x0=[4.0, 3.0, 2.0, 1.0]))
        assert np.allclose(cfg.x0.x, [0.4, 0.3, 0.2, 0.1])

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(betas=[0.3]))
        assert "betas" in str(exc.value)

    def test_unknown_graph_key(self):
        doc = base_doc()
        doc["graph"]["m"] = 3
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert "graph" in str(exc.value) and "m" in str(exc.value)

    @pytest.mark.parametrize("old, new", [
        ('"beta": 0.3', '"beta": 0.5, "beta": 0.3'),
        ('"nu": 0.2', '"nu": -5.0, "nu": 0.2'),
    ])
    def test_repeated_key_is_rejected(self, old, new):
        text = json.dumps(base_doc())
        assert old in text
        with pytest.raises(ConfigError) as exc:
            parse_scenario(text.replace(old, new))
        key = old.split('"')[1]
        assert exc.value.field == "<document>" and f"key '{key}' is repeated" in str(exc.value)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(schema=2))
        assert "schema" in str(exc.value)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(mode="both"))
        assert "mode" in str(exc.value)

    @pytest.mark.parametrize("doc, key", [
        (base_doc(t_end=1e308, dt=1e-308), "dt"),
        (base_doc(t_end=2e8, dt=1.0), "dt"),
        (base_doc(mode="stochastic", t_end=1e4, dt=1e-4, sample_dt=1e-5, replicas=1,
                  population_per_node=10, seed=1), "sample_dt"),
        # 1e5 steps per run, 2e8 for the ensemble
        (base_doc(mode="stochastic", t_end=1e3, replicas=2 * 10**3, population_per_node=10,
                  seed=1), "replicas"),
    ])
    def test_steps_above_max_name_the_key(self, doc, key):
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert exc.value.field == key and f"{MAX_STEPS} steps" in str(exc.value)

    @pytest.mark.parametrize("doc, key", [
        (mh_doc(-1), "rates.metropolis_hastings.target"),
        (mh_doc([-1, -2, -1, -1]), "rates.metropolis_hastings.target"),
        (mh_doc(0), "rates.metropolis_hastings.target"),
        (mh_doc([0, 0, 0, 0]), "rates.metropolis_hastings.target"),
        (mh_doc([1e308] * 4), "rates.metropolis_hastings.target"),
        (base_doc(mode="stochastic", graph={"kind": "line", "n": 20}, replicas=1,
                  population_per_node=10**18, seed=1), "population_per_node"),
    ], ids=["target_negative", "target_negative_list", "target_zero", "target_zero_list",
            "target_sum_overflow", "population_overflow"])
    def test_bad_weights_and_population_name_the_key(self, doc, key):
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert exc.value.field == key

    def test_unbounded_horizons_pass(self):
        assert parse(base_doc(t_end=1e8, dt=1.0, sample_dt=1.0)).dt == 1.0
        # a deterministic run records at most one sample per step
        assert parse(base_doc(t_end=1e4, dt=1e-4, sample_dt=1e-9)).sample_dt == 1e-9
        # analyze mode runs no steps, so its horizon is not bounded
        assert parse(base_doc(mode="analyze", t_end=1e308, dt=1e-308)).t_end == 1e308

    def test_vector_length_error_names_field(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(delta=[0.4, 0.4]))
        assert "delta" in str(exc.value)

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(delta=-0.1))
        assert "delta" in str(exc.value)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(beta=0.0))
        assert "beta" in str(exc.value)

    def test_p0_range_enforced(self):
        with pytest.raises(ConfigError) as exc:
            parse(base_doc(p0=1.5))
        assert "p0" in str(exc.value)

    def test_explicit_edges_with_rates(self):
        doc = base_doc()
        doc["graph"] = {
            "n": 2,
            "rates": [[1, 2, 0.2], [2, 1, 0.1]],
        }
        del doc["rates"]
        cfg = parse(doc)
        assert np.allclose(cfg.generator.q, [[-0.2, 0.2], [0.1, -0.1]])

    def test_explicit_rates_conflict_with_rule(self):
        doc = base_doc()
        doc["graph"] = {
            "n": 2,
            "rates": [[1, 2, 0.2], [2, 1, 0.1]],
        }
        with pytest.raises(ConfigError):
            parse(doc)

    def test_stochastic_requires_seed_and_replicas(self):
        doc = base_doc(mode="stochastic", replicas=4, population_per_node=50)
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert "seed" in str(exc.value)

    def test_analyze_needs_no_horizon(self):
        doc = base_doc(mode="analyze")
        del doc["t_end"]
        del doc["p0"]
        cfg = parse(doc)
        assert cfg.mode == "analyze"

    def test_missing_t_end_rejected_outside_analyze(self):
        doc = base_doc()
        del doc["t_end"]
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert "t_end" in str(exc.value)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_scenario("{not json")

    @pytest.mark.parametrize("triple", [
        [0, 1, 0.5],    # node 0 would wrap to node n
        [1, 3, 0.5],
        [1, 1, 0.5],
        [1, 2, -0.5],
        [1, 2, 0.3],    # duplicates [1, 2, 0.2]
        [1, 2],
    ])
    def test_explicit_rates_are_validated(self, triple):
        with pytest.raises(ConfigError) as exc:
            parse(explicit_rates_doc([[1, 2, 0.2], [2, 1, 0.1], triple]))
        assert exc.value.field == "graph.rates"


def test_records_compare_by_identity():
    # each record holds arrays, so a field-by-field == would raise on them
    doc = base_doc(mode="stochastic", x0=[1.0, 2.0, 3.0, 4.0], beta=0.5, delta=0.2,
                   replicas=1, population_per_node=10, seed=1)

    def records():
        cfg = parse(doc)
        a = analyze(cfg.params, Mobility(cfg.generator))
        traj = integrate(ModelState(p=cfg.p0, x=cfg.x0), a.params, a.mobility.g, t_end=1.0, dt=0.5)
        pop = seed_population(cfg.n, 10, cfg.p0, x0=cfg.x0.x)
        run = fixed_step_run(pop, a.params, a.mobility.g, 1.0, 0.5, 1)
        return [cfg, make_graph("ring", 4), cfg.generator, cfg.params, cfg.x0, traj.final(),
                traj, a, endemic_fixed_point(a), pop, run, ensemble_average([run]),
                spectral_abscissa(jacobian(a.params, a.mobility.lstar))]

    for first, second in zip(records(), records()):
        assert first == first and first != second
        assert len({first, second}) == 2


class TestCliRun:
    def write_scenario(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_deterministic_run_artifacts(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_doc())
        code = cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "toy.csv").exists()
        assert (out / "toy_p.svg").exists()
        assert (out / "toy_x.svg").exists()
        assert (out / "toy_report.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_deterministic_csv_contents(self, tmp_path):
        path = self.write_scenario(tmp_path, base_doc(t_end=2.0, sample_dt=0.5))
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        times, p, x = parse_trajectory_csv((tmp_path / "toy.csv").read_text())
        assert times[0] == 0.0 and times[-1] == 2.0
        assert p.shape == (5, 4)
        assert np.allclose(x.sum(axis=1), 1.0, atol=1e-9)

    def test_sample_times_round_to_whole_steps(self, tmp_path):
        # a deterministic run records every round(sample_dt / dt) = 3 steps
        # and at t_end; a stochastic run records at multiples of sample_dt
        grid = {"dt": 0.03, "sample_dt": 0.1, "t_end": 1.0}
        stochastic = {"mode": "stochastic", "replicas": 2, "population_per_node": 10, "seed": 1}
        expected = {"det": [k * 0.03 for k in range(0, 34, 3)] + [1.0],
                    "sto": list(0.1 * np.arange(11))}
        for out, doc in (("det", base_doc(**grid)), ("sto", base_doc(**grid, **stochastic))):
            path = self.write_scenario(tmp_path, doc)
            assert cli.main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / out),
                             "--format", "csv"]) == 0
            times, _p, _x = parse_trajectory_csv((tmp_path / out / "toy.csv").read_text())
            assert times.tolist() == expected[out], out

    def test_csv_only_format(self, tmp_path):
        path = self.write_scenario(tmp_path, base_doc())
        assert cli.main(["run", "--scenario", str(path), "--out-dir",
                         str(tmp_path / "o"), "--format", "csv"]) == 0
        names = sorted(f.name for f in (tmp_path / "o").iterdir())
        assert names == ["toy.csv"]

    def test_analyze_report_values(self, tmp_path, capsys):
        doc = base_doc(mode="analyze")
        del doc["t_end"]
        del doc["p0"]
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "toy_report.json").read_text())
        # homogeneous rates: mu = beta - delta and R0 = beta/delta exactly
        assert report["mu"] == pytest.approx(-0.1, abs=1e-12)
        assert report["r0"] == pytest.approx(0.75, abs=1e-12)
        assert report["verdict"] == "DiseaseFreeStable"
        table = capsys.readouterr().out
        assert "verdict" in table and "DiseaseFreeStable" in table

    def test_analyze_endemic_writes_equilibrium(self, tmp_path):
        doc = base_doc(mode="analyze", beta=0.5, delta=0.2)
        del doc["t_end"]
        del doc["p0"]
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        eq = json.loads((tmp_path / "toy_endemic.json").read_text())
        assert eq["p_star"] == pytest.approx([0.6] * 4, abs=1e-10)

    def test_analyze_zero_curing_writes_all_ones(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, analyze_doc(beta=0.5, delta=0.0))
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        assert "note:" not in capsys.readouterr().out
        assert json.loads((tmp_path / "toy_report.json").read_text())["r0"] is None
        eq = json.loads((tmp_path / "toy_endemic.json").read_text())
        assert eq["p_star"] == pytest.approx([1.0] * 4, abs=1e-13)

    def test_stochastic_run_and_seed_reproducibility(self, tmp_path):
        doc = base_doc(mode="stochastic", t_end=5.0, sample_dt=1.0,
                       replicas=3, population_per_node=40, seed=99)
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path), "--out-dir",
                         str(tmp_path / "a"), "--format", "csv"]) == 0
        assert cli.main(["run", "--scenario", str(path), "--out-dir",
                         str(tmp_path / "b"), "--format", "csv"]) == 0
        first = (tmp_path / "a" / "toy.csv").read_bytes()
        second = (tmp_path / "b" / "toy.csv").read_bytes()
        assert first == second

    def test_seed_override_changes_output(self, tmp_path):
        doc = base_doc(mode="stochastic", t_end=5.0, sample_dt=1.0,
                       replicas=3, population_per_node=40, seed=99)
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path), "--out-dir",
                         str(tmp_path / "a"), "--format", "csv"]) == 0
        assert cli.main(["run", "--scenario", str(path), "--out-dir",
                         str(tmp_path / "b"), "--format", "csv",
                         "--seed", "100"]) == 0
        first = (tmp_path / "a" / "toy.csv").read_bytes()
        second = (tmp_path / "b" / "toy.csv").read_bytes()
        assert first != second

    def run_all_files(self, tmp_path, doc, out, *flags):
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / out),
                         *flags]) == 0
        return {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}

    def test_seed_flag_matches_scenario_seed(self, tmp_path):
        doc = base_doc(mode="stochastic", t_end=3.0, replicas=2, population_per_node=20,
                       seed=99)
        flagged = self.run_all_files(tmp_path, doc, "flag", "--seed", "100")
        doc["seed"] = 100
        assert flagged == self.run_all_files(tmp_path, doc, "key")
        assert sorted(flagged) == ["toy.csv", "toy_p.svg", "toy_report.json"]

    @pytest.mark.parametrize("mode", ["deterministic", "analyze"])
    def test_seed_flag_leaves_other_modes_alone(self, tmp_path, mode):
        doc = base_doc(mode=mode, beta=0.5, delta=0.2)
        plain = self.run_all_files(tmp_path, doc, "plain")
        assert plain == self.run_all_files(tmp_path, doc, "seeded", "--seed", "7")
        assert "toy_endemic.json" in plain

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_doc(schema=7))
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["run", "--scenario", str(tmp_path / "nope.json"),
                         "--out-dir", str(tmp_path)]) == 2

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a grossly oversized step on a strongly endemic instance blows the
        # state out of the box, which must surface as exit 3
        doc = base_doc(beta=3.0, delta=0.01, p0=0.9, t_end=100.0, dt=10.0)
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_regime_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(analysis):
            raise RegimeError("no endemic equilibrium: stability margin -0.05 is not positive")

        monkeypatch.setattr(cli, "endemic_fixed_point", explode)
        doc = base_doc(mode="analyze", beta=0.5, delta=0.2)
        del doc["t_end"]
        del doc["p0"]
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path)]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (InputError("generator row 1 sums to 0.5, expected 0"), 2),
        (ConfigError("beta", "entries must be strictly positive"), 2),
        (NumericalError("endemic Newton solve did not converge within 100 iterations"), 3),
        (RegimeError("no endemic equilibrium: stability margin -0.05 is not positive"), 4),
    ], ids=["input", "config", "numerical", "regime"])
    def test_error_family_sets_exit_code(self, tmp_path, capsys, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_scenario", fail)
        path = self.write_scenario(tmp_path, base_doc())
        assert cli.main(["run", "--scenario", str(path), "--out-dir", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
    def test_out_dir_on_a_file_exits_2_and_writes_nothing(self, tmp_path, capsys, sub):
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n", encoding="utf-8")
        out = blocker / sub
        assert cli.main(["reproduce", "--figure", "fig2_line", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write to {out}: ")
        assert "wrote" not in captured.out
        assert [p.name for p in tmp_path.rglob("*")] == ["afile"]
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_unwritable_assumption_note_exits_2(self, tmp_path, capsys):
        note = tmp_path / "fig2_line_assumptions.txt"
        note.mkdir()
        assert cli.main(["reproduce", "--figure", "fig2_line", "--out-dir", str(tmp_path),
                         "--format", "json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write to {note}: ")

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["reproduce", "--figure", "fig1a", "--seed", "-1",
                         "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed: must be at least 0, got -1\n"
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("text", [
        json.dumps(base_doc(beta=float("nan"))),
        json.dumps(base_doc(t_end=float("inf"))),
        json.dumps(base_doc(t_end="T")).replace('"T"', "1e999"),
        json.dumps(base_doc(t_end="T")).replace('"T"', "1" + "0" * 400),
        json.dumps(base_doc(rates={"uniform_out": 3})),
        json.dumps(base_doc(rates={"metropolis_hastings": 3})),
        json.dumps(base_doc(name="../escaped")),
        json.dumps(base_doc(name="sub/escaped")),
        json.dumps(explicit_rates_doc([[0, 1, 0.5], [1, 2, 0.2]])),
        json.dumps(explicit_rates_doc([[1, 2, 0.2], [1, 2, 0.3], [2, 1, 0.1]])),
        json.dumps(base_doc(beta=["nan", 0.3, 0.3, 0.3])),
        json.dumps(base_doc(rates={"uniform_out": {"nu": [True, 0.2, 0.2, 0.2]}})),
        json.dumps(base_doc(p0=["1e-2", 0.1, 0.1, 0.1])),
        json.dumps(base_doc(graph={"n": 3, "edges": [[1, 2.7], [2, 1], [2, 3], [3, 2]]})),
        json.dumps(base_doc(graph={"n": 2, "edges": [[True, 2], [2, 1]]})),
        json.dumps(explicit_rates_doc([[1, 2, "0.2"], [2, 1, 0.1]])),
        json.dumps(dict(explicit_rates_doc([]), graph={"kind": "line", "n": 3, "rates": [
            [1, 2, 0.2], [2, 1, 0.1], [2, 3, 0.2], [3, 2, 0.3], [1, 3, 0.2], [3, 1, 0.4],
        ]})),
        # rejected before any array of size n is built, so it fails at once
        json.dumps(base_doc(graph={"kind": "line", "n": 10**9})),
        # t_end / dt overflows to inf; a finite 1e300 steps would never end
        json.dumps(base_doc(t_end=1e308, dt=1e-308)),
        json.dumps(base_doc(t_end=1e300, dt=1.0, sample_dt=1e300)),
        json.dumps(base_doc(mode="stochastic", t_end=1e9, dt=1e9, sample_dt=1.0,
                            replicas=1, population_per_node=10, seed=1)),
        # the target is checked before it is normalized
        json.dumps(mh_doc(-1)),
        json.dumps(mh_doc([-1, -2, -1, -1])),
        json.dumps(mh_doc(0)),
        json.dumps(mh_doc([0, 0, 0, 0])),
        json.dumps(mh_doc([1e308] * 4)),
        # 2e19 individuals would wrap the sampler's int64 sums
        json.dumps(base_doc(mode="stochastic", graph={"kind": "line", "n": 20}, replicas=1,
                            population_per_node=10**18, seed=1)),
        # rejected before a list of 1e18 runs is allocated
        json.dumps(base_doc(mode="stochastic", graph={"kind": "line", "n": 2}, replicas=10**18,
                            population_per_node=10, seed=1)),
    ], ids=["nan", "infinity", "float_overflow", "int_overflow",
            "uniform_out_not_object", "mh_not_object", "name_parent_dir",
            "name_subdir", "rate_node_zero", "rate_duplicate", "vector_nan_string",
            "vector_bool", "vector_numeric_string", "edge_fractional", "edge_bool",
            "rate_string", "kind_with_rates", "n_above_max_nodes", "steps_overflow",
            "steps_above_max", "samples_above_max", "target_negative",
            "target_negative_list", "target_zero", "target_zero_list", "target_sum_overflow",
            "population_overflow", "replicas_above_max"])
    def test_bad_input_exits_2_and_writes_nothing(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(work / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json", "work"]

    def test_population_bound_is_inclusive(self, tmp_path):
        doc = base_doc(mode="stochastic", replicas=2, seed=1)
        over = self.write_scenario(tmp_path, dict(doc, population_per_node=MAX_POPULATION // 4 + 1))
        assert cli.main(["run", "--scenario", str(over), "--out-dir", str(tmp_path)]) == 2
        at = self.write_scenario(tmp_path, dict(doc, population_per_node=MAX_POPULATION // 4))
        assert cli.main(["run", "--scenario", str(at), "--out-dir", str(tmp_path),
                         "--format", "csv"]) == 0
        _times, _p, x = parse_trajectory_csv((tmp_path / "toy.csv").read_text())
        assert np.allclose(x[0], 0.25, rtol=0.0, atol=1e-12)
        assert np.allclose(x.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x0", [[0.19, 0.01] + [0.1] * 8, None],
                             ids=["x0_off_stationary", "x0_default"])
    def test_unstable_rk4_step_exits_3_and_writes_nothing(self, tmp_path, capsys, x0):
        # nu = 400 on a complete graph puts dt times Q^T's nonzero
        # eigenvalue at -4.4, outside RK4's stability interval; from the
        # default x0 = v the step amplifies v's roundoff until x goes negative
        doc = base_doc(graph={"kind": "complete", "n": 10},
                       rates={"uniform_out": {"nu": 400.0}}, dt=0.01, t_end=1.0)
        if x0 is not None:
            doc["x0"] = x0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 3
        assert "step size too large" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["scenario.json"]

    def test_overflowing_step_prints_one_error_line(self, tmp_path, capsys):
        # the step overflows p to NaN; the box check names it, and numpy
        # warns about nothing on the way
        doc = base_doc(graph={"kind": "line", "n": 3}, rates={"uniform_out": {"nu": 1e-300}},
                       beta=1.0, delta=0.5, p0=0.1, t_end=1e200, dt=1e200)
        path = self.write_scenario(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--scenario", str(path),
                             "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "step size too large" in err[0]

    def test_box_error_counts_nodes_from_1(self, tmp_path, capsys):
        # the third node, with p0 = 0.9, is driven below 0 by one step of 5
        doc = base_doc(graph={"kind": "line", "n": 3}, p0=[0.1, 0.1, 0.9], dt=5.0)
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: p at node 3 = -2.401754243993147 left [0, 1] at t = 5.0; "
            "step size too large\n")

    @pytest.mark.parametrize("doc", [
        analyze_doc(beta=1e308),
        analyze_doc(rates={"uniform_out": {"nu": 1e308}}),
        analyze_doc(graph={"n": 3, "rates": [[1, 2, 1e308], [2, 3, 1e308], [3, 1, 1e308]]},
                    rates=None),
    ], ids=["beta", "nu", "rates_cycle"])
    def test_overflowing_rates_exit_cleanly(self, tmp_path, capsys, doc):
        # finite rates near the float limit overflow inside the eigen-solves
        path = self.write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(path), "--out-dir", str(out)]) in (2, 3)
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert [p for p in tmp_path.rglob("*")
                if p.is_file() and out not in p.parents] == [path]

    @pytest.mark.parametrize("doc, code, message", [
        (base_doc(graph={"kind": "line", "n": 4},
                  rates={"uniform_out": {"nu": [1.0, 1.0, 1.0, 1e-308]}},
                  beta=[1.0, 1.0, 1e-308, 1.0], delta=1.0, p0=0.0),
         3, "eigen-solve for R0"),
        (base_doc(graph={"kind": "star", "n": 2}, beta=[2e-308, 1e-308], delta=1e-308,
                  p0=0.0),
         3, "is not finite and positive"),
        (base_doc(graph={"kind": "complete", "n": 5}, rates={"uniform_out": {"nu": 0.37}},
                  beta=[0.2 + 0.075 * k for k in range(5)], delta=1e-18),
         3, "is not finite and positive"),
        (base_doc(graph={"kind": "line", "n": 2}, rates={"uniform_out": {"nu": [1e308, 1.0]}},
                  delta=[1e308, 1.0], p0=0.0),
         3, "eigen-solve for mu"),
        (analyze_doc(graph={"n": 3, "rates": [[1, 2, 0.99999], [2, 1, 5e-301],
                                              [2, 3, 5e-301], [3, 2, 1e-300],
                                              [1, 3, 1e-300]]},
                     rates=None),
         3, "stationary solve singular"),
        (analyze_doc(graph={"n": 4, "rates": [
            [1, 2, 3.239555570315383e-29], [2, 1, 7.253328085587859e+173],
            [2, 3, 3.577704592499509e+252], [3, 2, 4.305269544486299e+241],
            [3, 4, 5.773994854996126e+182], [4, 3, 6.07293370327395e-107],
            [4, 1, 3.7826719437929046e+247], [1, 4, 1.0089379440452083e-208]]},
            rates=None),
         3, "stationary solve residual nan"),
        (base_doc(x0=[1e308, 1e308, 1.0, 1.0]), 2, "x0: entries must sum"),
        (base_doc(graph={"kind": "complete", "n": 4},
                  rates={"uniform_out": {"nu": [1e300, 1e12, 1e-12, 1e308]}},
                  beta=[1e300, 1e12, 1e-12, 1e308], delta=[1e300, 1e12, 1e-308, 1e308],
                  p0=[0.01, 0.0, 0.0, 0.0], dt=5e-309, t_end=5e-309),
         3, "endemic Newton solve"),
        (base_doc(mode="stochastic", graph={"kind": "ring", "n": 2},
                  rates={"uniform_out": {"nu": [1e308, 1e12]}}, beta=[1e308, 1e12],
                  delta=0.3, p0=0.01, dt=1e-309, t_end=6e-309, sample_dt=2e-309,
                  replicas=1, population_per_node=2, seed=1),
         3, "per-individual event probability"),
    ], ids=["r0_underflow", "r0_zero", "r0_negative", "jacobian_overflow",
            "singular_stationary", "stationary_residual", "x0_sum_overflow", "newton_overflow",
            "sampler_limit_overflow"])
    def test_extreme_rates_print_one_error_line(self, tmp_path, capsys, doc, code, message):
        # each of these once raised a traceback or printed numpy warnings
        path = self.write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--scenario", str(path), "--out-dir", str(out)]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert [p for p in tmp_path.rglob("*")
                if p.is_file() and out not in p.parents] == [path]

    @pytest.mark.parametrize("doc, mu, r0", [
        (base_doc(graph={"kind": "star", "n": 2}, beta=1e-308, delta=1e-308, p0=0.0),
         0.0, 1.0),
        (analyze_doc(delta=1e308), 0.3 - 1e308, 0.3 / 1e308),
    ] + [
        (base_doc(graph={"kind": kind, "n": n}, beta=0.3, delta=0.3, t_end=1.0), 0.0, 1.0)
        for kind, n in [("ring", 5), ("star", 20), ("line", 57), ("complete", 200)]
    ], ids=["tiny", "huge_delta", "ring_5", "star_20", "line_57", "complete_200"])
    def test_uniform_rates_get_exact_thresholds(self, tmp_path, doc, mu, r0):
        # uniform rates take mu = beta - delta and R0 = beta / delta, so
        # beta = delta is exactly at the threshold, not at a roundoff-sized
        # sign, and no eigen-solve could resolve the extreme rates
        path = self.write_scenario(tmp_path, doc)
        assert cli.main(["run", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "toy_report.json").read_text())
        assert (report["mu"], report["r0"]) == (mu, r0)
        assert report["verdict"] == "DiseaseFreeStable"
        assert not (tmp_path / "toy_endemic.json").exists()

    @pytest.mark.parametrize("doc", [
        # a reversible chain takes v from detailed balance, which needs no
        # solve, so rates that leave the bordered LU singular still give
        # v proportional to deg / nu, whose first entry is 3.3e-301
        base_doc(graph={"kind": "line", "n": 3},
                 rates={"uniform_out": {"nu": [0.99999, 1e-300, 1e-300]}}, p0=0.0),
        # the condition-(iv) slack sigma overflows to its infinite limit
        analyze_doc(delta=[8e307, 8e307, 8e307, 1e300]),
    ], ids=["reversible_singular_lu", "sigma_overflow"])
    def test_extreme_rates_get_a_report(self, tmp_path, doc):
        path = self.write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        report = json.loads((out / "toy_report.json").read_text())
        assert report["verdict"] == "DiseaseFreeStable"

    def test_rates_near_float_limit_get_a_symmetric_mu_solve(self, tmp_path):
        # the symmetric part of mu's matrix is summed from halves, so two
        # entries near the float limit no longer overflow it and mu comes
        # from the eigen-solve instead of an error
        path = self.write_scenario(tmp_path, analyze_doc(delta=[1e308, 1e308, 1e308, 1e307]))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        report = json.loads((out / "toy_report.json").read_text())
        assert (report["mu"], report["r0"]) == (-1.0000000000000001e+307, 2.9999999999999997e-308)
        assert report["verdict"] == "DiseaseFreeStable"

    def test_underflowed_x0_entry_is_named_from_1(self, tmp_path, capsys):
        # x0 / sum(x0) underflows to 0 at the second node
        path = self.write_scenario(tmp_path, base_doc(graph={"kind": "star", "n": 5},
                                                      x0=[1e300, 1e-300, 1, 1, 1]))
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "x0: population fraction at node 2 is not strictly positive" in err
        assert not (tmp_path / "out").exists()

    def test_underflowed_stationary_entry_is_named(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path,
                                   explicit_rates_doc([[1, 2, 1e-300], [2, 1, 1e300]]))
        assert cli.main(["run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "node 2" in err and "orders of magnitude" in err
        assert "reducible" not in err

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic", "analyze"])
    def test_run_solves_stationary_and_mu_once(self, tmp_path, monkeypatch, mode):
        # the endemic profile and the default x0 reuse the one Analysis, so
        # a run makes one stationary solve and one lambda2 solve; mu and R0
        # come from value-only eigen-solves, not from spectral_abscissa
        cfg = parse(base_doc(mode=mode, beta=0.5, delta=0.2, t_end=2.0,
                             replicas=2, population_per_node=20, seed=1))
        stationary = count_calls(monkeypatch, sismob.mobility.stationary_distribution)
        lambda2 = count_calls(monkeypatch, sismob.spectral.lambda2_weighted)
        abscissa = count_calls(monkeypatch, sismob.spectral.spectral_abscissa)
        created = cli.run_scenario(cfg, tmp_path)
        assert tmp_path / "toy_endemic.json" in created
        assert len(stationary) == 1
        assert len(lambda2) == 1
        assert len(abscissa) == 0


CONFUSED = st.sampled_from(["0.3", "nan", "", "uniform", "../fuzz", "a/b", True, False,
                           None, {}, [], [[0.3]], 2.0, 2.5, 1e300, 1e308, 0, -1])


# the files run_scenario writes, in order, per mode and --format; an
# instance that is not endemic writes no toy_endemic.json
RUN_FILES = {
    "analyze": {"csv": [], "svg": [], "json": ["toy_report.json", "toy_endemic.json"]},
    "deterministic": {"csv": ["toy.csv"], "svg": ["toy_p.svg", "toy_x.svg"],
                      "json": ["toy_report.json", "toy_endemic.json"]},
    "stochastic": {"csv": ["toy.csv"], "svg": ["toy_p.svg"],
                   "json": ["toy_report.json", "toy_endemic.json"]},
}


@pytest.mark.parametrize("fmt", ["csv", "svg", "json", "all"])
@pytest.mark.parametrize("endemic", [True, False], ids=["endemic", "disease_free"])
@pytest.mark.parametrize("mode", list(RUN_FILES))
def test_run_scenario_files_and_stdout(tmp_path, capsys, mode, endemic, fmt):
    rates = {"beta": [0.5, 0.5, 0.55, 0.5], "delta": 0.2} if endemic else {}
    cfg = parse(base_doc(mode=mode, t_end=2.0, replicas=2, population_per_node=20,
                         seed=3, **rates))
    names = [name for f in (["csv", "svg", "json"] if fmt == "all" else [fmt])
             for name in RUN_FILES[mode][f] if endemic or name != "toy_endemic.json"]

    created = cli.run_scenario(cfg, tmp_path, fmt)
    assert [path.name for path in created] == names
    assert created == [tmp_path / name for name in names]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(names)
    lines = capsys.readouterr().out.splitlines()
    if mode == "analyze":
        fields = [field.name for field in dataclasses.fields(StabilityReport)]
        table, lines = lines[:len(fields)], lines[len(fields):]
        assert [line.split()[0] for line in table] == fields
        verdict = "EndemicStable" if endemic else "DiseaseFreeStable"
        assert table[fields.index("verdict")].split() == ["verdict", verdict]
    assert lines == [f"wrote {tmp_path / name}" for name in names]


def _confuse(draw, value):
    """`value` with itself, or one entry of it, replaced by a value of the
    wrong type or range."""
    if isinstance(value, list) and value and draw(st.booleans()):
        k = draw(st.integers(0, len(value) - 1))
        return value[:k] + [_confuse(draw, value[k])] + value[k + 1:]
    return draw(CONFUSED)


@st.composite
def analyze_docs(draw):
    """Analyze-mode scenario documents that combine the graph sources kind,
    edges and graph.rates with or without a rate rule, with up to two fields
    or entries confused: strings, bools, floats where integers go, nested
    lists, wrong lengths."""
    n = draw(st.sampled_from([2, 3, 4, 1]))
    positive = st.floats(0.05, 2.0)
    vector = st.one_of(positive, st.lists(positive, min_size=n, max_size=n))
    edges = [[a, b] for k in range(1, n) for (a, b) in ((k, k + 1), (k + 1, k))]
    graph = {"n": n}
    one_source = st.sampled_from([{"kind"}, {"edges"}, {"rates"}])
    sources = draw(st.one_of(one_source, one_source,
                             st.sets(st.sampled_from(["kind", "edges", "rates"]))))
    for source in sorted(sources):
        if source == "kind":
            graph["kind"] = draw(st.sampled_from(["line", "ring", "star", "complete"]))
        elif source == "edges":
            graph["edges"] = edges
        else:
            graph["rates"] = [e + [draw(positive)] for e in edges]
    doc = {"schema": 1, "mode": "analyze", "name": "fuzz", "graph": graph,
           "beta": draw(vector), "delta": draw(vector)}
    rules = st.sampled_from(["uniform_out", "metropolis_hastings"])
    if "rates" in sources:
        rules = st.just(None)
    rule = draw(st.one_of(rules, st.sampled_from([None, "uniform_out", "metropolis_hastings"])))
    if rule == "uniform_out":
        doc["rates"] = {rule: {"nu": draw(vector)}}
    elif rule == "metropolis_hastings":
        # zero, negative and overflowing entries, checked before normalizing
        entry = st.one_of(positive, st.sampled_from([0.0, -0.5, -2.0, 1e308]))
        target = draw(st.one_of(st.just("uniform"), entry,
                                st.lists(entry, min_size=n, max_size=n)))
        doc["rates"] = {rule: {"target": target, "base_rate": draw(positive)}}
    slots = [(doc, "name"), (doc, "beta"), (doc, "delta")] + [(graph, key) for key in graph]
    if rule is not None:
        slots += [(doc["rates"][rule], key) for key in doc["rates"][rule]]
    confused = st.sets(st.integers(0, len(slots) - 1), min_size=1, max_size=2)
    for k in draw(st.one_of(st.just(set()), confused)):
        obj, key = slots[k]
        obj[key] = _confuse(draw, obj[key])
    return doc


# rates and magnitudes from the float limits down to the sizes the
# bundled figures use
MAGNITUDES = st.one_of(st.floats(0.05, 2.0),
                       st.sampled_from([1e-308, 1e-300, 1e-12, 1e12, 1e300, 1e308]))


@st.composite
def run_docs(draw):
    """Deterministic and stochastic documents on at most 4 nodes with a
    few steps each. dt * max nu lands on both sides of RK4's positive step
    bound 2/3, and one field, the time grid's included, is sometimes
    confused."""
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["deterministic", "stochastic"]))
    nu = draw(st.lists(MAGNITUDES, min_size=n, max_size=n))
    dt = draw(st.sampled_from([0.1, 0.5, 2.0 / 3.0, 0.7, 1.0, 3.0])) / max(nu)
    doc = {"schema": 1, "mode": mode, "name": "fuzz",
           "graph": {"kind": draw(st.sampled_from(["line", "ring", "star", "complete"])),
                     "n": n},
           "rates": {"uniform_out": {"nu": nu}},
           "beta": draw(st.lists(MAGNITUDES, min_size=n, max_size=n)),
           "delta": draw(st.lists(MAGNITUDES, min_size=n, max_size=n)),
           "p0": draw(st.lists(st.sampled_from([0.0, 0.01, 0.5, 1.0]), min_size=n, max_size=n)),
           "dt": dt,
           "t_end": draw(st.sampled_from([1.0, 2.5, 6.0])) * dt,
           "sample_dt": draw(st.sampled_from([1.0, 2.0])) * dt}
    if draw(st.booleans()):
        doc["x0"] = draw(st.lists(MAGNITUDES, min_size=n, max_size=n))
    if mode == "stochastic":
        doc.update(replicas=draw(st.integers(1, 2)),
                   population_per_node=draw(st.sampled_from([1, 10, 2**60, 2**61,
                                                             2**63 - 1])),
                   seed=draw(st.integers(0, 3)))
    if draw(st.integers(0, 3)) == 0:
        # config.MAX_STEPS bounds t_end / dt and t_end / sample_dt, so
        # confusing those three cannot ask for an endless run
        key = draw(st.sampled_from(sorted(doc.keys() - {"schema", "mode"})))
        doc[key] = _confuse(draw, doc[key])
    return doc


def exits_cleanly_inside_out_dir(doc):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["run", "--scenario", str(root / "scenario.json"),
                         "--out-dir", str(root / "out")])
        assert code in (0, 2, 3, 4)
        outside = [p for p in root.rglob("*")
                   if p.name != "scenario.json" and not p.is_relative_to(root / "out")]
        assert outside == []


@settings(derandomize=True, max_examples=300, deadline=None)
@given(analyze_docs())
def test_fuzzed_scenario_exits_cleanly_inside_out_dir(doc):
    exits_cleanly_inside_out_dir(doc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(run_docs())
def test_fuzzed_run_exits_cleanly_inside_out_dir(doc):
    exits_cleanly_inside_out_dir(doc)


class TestReproduce:
    def test_unknown_figure(self, tmp_path, capsys):
        assert cli.main(["reproduce", "--figure", "fig9",
                         "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fig9" in err

    def test_unknown_figure_exception_lists_choices(self):
        with pytest.raises(InputError, match="unknown figure 'nope'") as exc:
            cli.load_figure("nope")
        assert "fig3" in str(exc.value)

    def test_all_bundled_scenarios_parse(self):
        for name in cli.FIGURES:
            cfg = cli.load_figure(name)
            assert cfg.name == name

    def test_reproduce_writes_assumption_note(self, tmp_path):
        assert cli.main(["reproduce", "--figure", "fig2_ring",
                         "--out-dir", str(tmp_path), "--format", "csv"]) == 0
        note = (tmp_path / "fig2_ring_assumptions.txt").read_text()
        assert note.startswith("scenario: fig2_ring")
        assert "assumed values" in note
        assert (tmp_path / "fig2_ring.csv").exists()


def figure_outcome_checks(name, cfg, out_dir):
    """Assert the outcome each bundled scenario promises in `expected`."""
    times, p, x = parse_trajectory_csv((out_dir / f"{name}.csv").read_text())
    exp = cfg.expected
    if "final_max_p_below" in exp:
        assert np.nanmax(p[-1]) < exp["final_max_p_below"]
    if "final_p_endemic_tol" in exp:
        sol = endemic_fixed_point(analyze(cfg.params, Mobility(cfg.generator)))
        assert np.nanmax(np.abs(p[-1] - sol.p_star)) < exp["final_p_endemic_tol"]
    if "final_x_gap_below" in exp:
        assert exp.get("x_target") == "uniform"
        assert np.abs(x[-1] - 1.0 / cfg.generator.n).max() < exp["final_x_gap_below"]
    if "verdict" in exp:
        report = json.loads((out_dir / f"{name}_report.json").read_text())
        assert report["verdict"] == exp["verdict"]
    if "condition_iv" in exp:
        report = json.loads((out_dir / f"{name}_report.json").read_text())
        assert report["condition_iv"] is exp["condition_iv"]


@pytest.mark.parametrize("name", cli.FIGURES)
def test_bundled_figure_delivers_expected_outcome(name, tmp_path):
    cfg = cli.load_figure(name)
    created = cli.reproduce_figure(cfg, tmp_path)
    assert all(path.exists() for path in created)
    figure_outcome_checks(name, cfg, tmp_path)
