"""Tests for cost accounting, profiles, configs, and export."""

import dataclasses
import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mograd import (
    ConfigError,
    InputError,
    MultiObjectiveProblem,
    RunStatus,
    budget_cost,
    export,
    noise_distance_table,
    noise_distances,
    performance_profile,
    profile_from_records,
    quadratic_pair,
    rate_check,
    run_adagrad,
    run_cell,
    run_experiment,
    run_multitask,
    theta_constant,
)
from mograd import AdagradConfig, DescentConfig, harness
from mograd.cli import build_parser
from mograd.harness import _CONFIG_DEFAULTS, load_config, load_summary, load_trajectory_csv


def _fake(gradient_evals, objective_evals, n):
    return SimpleNamespace(
        gradient_evals=gradient_evals, objective_evals=objective_evals, n=n
    )


class TestBudgetCost:
    def test_arithmetic(self):
        assert budget_cost(_fake(10, 20, 10)) == pytest.approx(12.0)
        assert budget_cost(_fake(306, 3957, 25)) == pytest.approx(464.28)

    def test_objective_free_run_costs_gradients_only(self):
        rec = run_adagrad(quadratic_pair(), x0=np.array([0.0, 1.0]))
        assert budget_cost(rec) == rec.gradient_evals


class TestPerformanceProfile:
    def _table(self):
        return {
            ("P1", "A"): 10.0,
            ("P1", "B"): 20.0,
            ("P2", "A"): 40.0,
            ("P2", "B"): 10.0,
            ("P3", "A"): None,
            ("P3", "B"): 30.0,
        }

    def test_hand_computed_curves(self):
        table = performance_profile(self._table(), tau_grid=[0.0, 0.4, 1.0])
        assert table.problems == ["P1", "P2", "P3"]
        assert table.solvers == ["A", "B"]
        assert table.ratios[("P1", "A")] == 1.0
        assert table.ratios[("P1", "B")] == 2.0
        assert table.ratios[("P2", "A")] == 4.0
        assert table.ratios[("P3", "A")] == math.inf
        assert_allclose(table.curves["A"], [1 / 3, 1 / 3, 2 / 3])
        assert_allclose(table.curves["B"], [2 / 3, 1.0, 1.0])

    def test_failures_never_solved(self):
        costs = self._table()
        costs[("P4", "A")] = None
        costs[("P4", "B")] = None
        table = performance_profile(costs, tau_grid=[10.0])
        assert table.curves["A"][0] == pytest.approx(2 / 4)
        assert table.curves["B"][0] == pytest.approx(3 / 4)

    def test_curves_monotone(self):
        table = performance_profile(self._table())
        for curve in table.curves.values():
            assert np.all(np.diff(curve) >= 0)

    def test_empty_table_rejected(self):
        with pytest.raises(InputError):
            performance_profile({})


class TestRateCheck:
    def test_theta_example(self):
        assert theta_constant(0.01, 1.0, 1.0) == pytest.approx(204800.0)

    def test_theta_term_selection(self):
        # Large initial gap makes the exponential term dominate.
        val = theta_constant(0.5, 0.1, 10.0)
        assert val == pytest.approx(0.25 * math.exp(200.0))

    def test_theta_validation(self):
        with pytest.raises(InputError):
            theta_constant(0.01, 0.0, 1.0)
        with pytest.raises(InputError):
            theta_constant(1.0, 1.0, 1.0)
        with pytest.raises(InputError, match="varsigma"):
            theta_constant("0.5", 1.0, 1.0)
        for l_max in (math.nan, math.inf, "1", 10**400):
            with pytest.raises(InputError, match="l_max must be > 0 and finite"):
                theta_constant(0.01, l_max, 1.0)
        for gamma0 in (math.nan, math.inf, 10**400):
            with pytest.raises(InputError, match="gamma0 must be a finite real number"):
                theta_constant(0.01, 1.0, gamma0)

    def test_bound_holds_on_quadratic_pair(self):
        p = quadratic_pair()
        x0 = np.array([0.0, 1.0])
        rec = run_adagrad(p, x0=x0)
        gamma0 = p.phi(x0) - p.phi_low
        report = rate_check(rec, l_max=p.l_max, gamma0=gamma0)
        assert report.holds
        assert np.all(report.running_avg <= report.bound)
        assert report.theta == pytest.approx(204800.0)

    def test_bound_fails_on_fabricated_run(self):
        view = SimpleNamespace(
            trajectory=SimpleNamespace(omega=np.array([10.0])),
            config={"varsigma": 0.9},
        )
        report = rate_check(view, l_max=0.1, gamma0=0.0)
        assert not report.holds

    def test_descent_record_names_varsigma(self):
        rec = run_cell("MOP1", "descent", budget=50)
        with pytest.raises(ConfigError, match="varsigma"):
            rate_check(rec, l_max=1.0, gamma0=1.0)

    @pytest.mark.parametrize(
        "l_max, gamma0, theta",
        [
            (1.0, 1000.0, math.inf),  # (s/2) e^2000 is beyond the float range
            (1e100, 1.0, math.inf),  # so is 2048 L^4 / s
            # e^712 overflows, but (s/2) e^712 does not.
            (1.0, 356.0, pytest.approx(8.2535563259431715e306, rel=1e-14)),
        ],
        ids=["exp_term", "l_max_term", "exp_overflows_term_finite"],
    )
    def test_theta_beyond_float_range(self, l_max, gamma0, theta):
        assert theta_constant(0.01, l_max, gamma0) == theta

    def test_int_within_float_range_accepted(self):
        assert theta_constant(0.01, 10**300, 1) == math.inf
        assert theta_constant(0.01, 1, -(10**300)) == 204800.0

    @pytest.mark.parametrize("problem", ["quadratic_pair", "MOP1"])
    def test_omega_sum_is_the_weight_recursion(self, problem):
        if problem == "quadratic_pair":
            rec = run_adagrad(quadratic_pair(), x0=np.array([0.0, 1.0]))
        else:
            rec = run_cell(problem, "adagrad")
        report = rate_check(rec, l_max=1.0, gamma0=1.0)
        t = rec.trajectory
        assert report.omega_sum == np.cumsum(t.omega)[-1]
        # w_K^2 = varsigma + the sum of omega over the run.
        weight_sum = t.scale[-1] ** 2 - rec.config["varsigma"]
        assert report.omega_sum == pytest.approx(weight_sum, rel=1e-12)


class TestRunCell:
    def test_fields_and_determinism(self):
        a = run_cell("MOP1", "adagrad", seed=3)
        b = run_cell("MOP1", "adagrad", seed=3)
        assert (a.problem, a.solver, a.seed, a.noise_rho) == ("MOP1", "adagrad", 3, 0.0)
        assert a.summary() == b.summary()

    def test_seed_moves_benchmark_start(self):
        a = run_cell("Lovison3", "descent", seed=0)
        b = run_cell("Lovison3", "descent", seed=1)
        assert not np.array_equal(a.trajectory.x[0], b.trajectory.x[0])

    def test_standard_start_for_regularized(self):
        rec = run_cell("ROSENBR-L2", "descent", seed=5)
        assert_allclose(rec.trajectory.x[0], [-1.2, 1.0])

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            run_cell("NOPE", "adagrad")

    @pytest.mark.parametrize("rho", [-0.5, math.nan, True, False, "0.05"])
    def test_bad_noise_level_rejected(self, rho):
        with pytest.raises(InputError, match="noise level"):
            run_cell("MOP1", "adagrad", rho=rho, budget=50)

    @pytest.mark.parametrize(
        "param, bad, field",
        [
            ("budget", 2.5, "gradient_budget"),
            ("budget", "10", "gradient_budget"),
            ("thin", 1.5, "thin"),
            ("criticality_tol", "1e-6", "criticality_tol"),
        ],
    )
    def test_mistyped_parameter_named(self, param, bad, field):
        with pytest.raises(InputError, match=field):
            run_cell("MOP1", "adagrad", **{param: bad})

    @pytest.mark.parametrize(
        "seed, rho", [(True, 0.0), (-1, 0.0), (1.5, 0.05), ("0", 0.0), (None, 0.0)]
    )
    def test_bad_seed_rejected_before_the_start(self, monkeypatch, seed, rho):
        starts = []
        monkeypatch.setattr(harness, "random_start", lambda *a: starts.append(a))
        for name in ("ROSENBR-L2", "Lovison3"):
            with pytest.raises(InputError, match="seed must be an int >= 0"):
                run_cell(name, "adagrad", seed=seed, rho=rho, budget=50)
        assert starts == []

    def test_unknown_parameter_rejected_before_the_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_adagrad", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ConfigError, match=r"unknown cell parameters: \['foo'\]"):
            run_cell("MOP1", "adagrad", seed=0, budget=3, foo=1)
        with pytest.raises(ConfigError, match=r"unknown cell parameters: \['a', 'z'\]"):
            run_cell("MOP1", "adagrad", z=1, a=2)

    def test_unknown_solver(self):
        with pytest.raises(ConfigError):
            run_cell("MOP1", "simplex")
        with pytest.raises(ConfigError):
            run_multitask("quadrants", "simplex", iters=1, N=40)

    @pytest.mark.parametrize("solver", ["adagrad", "descent"])
    def test_runners_resolved_at_call_time(self, solver, monkeypatch):
        # Wrappers bound to harness.run_adagrad/run_descent (the benchmark's
        # tracer, say) must see every run_cell and run_multitask call.
        name = f"run_{solver}"
        real = getattr(harness, name)
        calls = []

        def recorded(problem, x0, config, *, seed):
            calls.append((problem.name, type(config).__name__, config.thin))
            return real(problem, x0, config, seed=seed)

        monkeypatch.setattr(harness, name, recorded)
        assert run_cell("ROSENBR-L2", solver, budget=20).solver == solver
        run_multitask("quadrants", solver, iters=2, N=40)
        config = f"{solver.capitalize()}Config"
        assert calls == [("ROSENBR-L2", config, 1), ("multitask-quadrants", config, 1)]


class TestConfig:
    def test_defaults_merged(self):
        cfg = load_config({"problems": ["MOP1"]})
        assert cfg["solvers"] == ["adagrad", "descent"]
        assert cfg["seeds"] == [0]
        assert cfg["budget"] == 100_000

    def test_defaults_come_from_the_config_classes(self):
        adagrad, descent = AdagradConfig(), DescentConfig()
        want = {
            "budget": adagrad.gradient_budget,
            "criticality_tol": adagrad.criticality_tol,
            "varsigma": adagrad.varsigma,
            "beta": descent.beta,
        }
        cfg = load_config({"problems": ["MOP1"]})
        assert {k: cfg[k] for k in want} == want
        assert run_cell("MOP1", "adagrad").config == adagrad.echo()
        assert run_cell("MOP1", "descent").config == descent.echo()
        parser = build_parser()
        solve = parser.parse_args(
            ["solve", "--problem", "MOP1", "--solver", "adagrad", "--out", "o"]
        )
        assert (solve.budget, solve.tol) == (want["budget"], want["criticality_tol"])
        rate = parser.parse_args(
            ["rate-check", "--record", "r", "--lmax", "1", "--gamma0", "0"]
        )
        assert rate.varsigma == want["varsigma"]

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"problems": ["T2"], "seeds": [1, 2]}))
        cfg = load_config(str(path))
        assert cfg["problems"] == ["T2"]
        assert cfg["seeds"] == [1, 2]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problems": [,]\n}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            load_config(str(path))

    @pytest.mark.parametrize("text", ['["problems"]', "3", '"MOP1"'])
    def test_config_file_must_hold_an_object(self, tmp_path, text):
        path = tmp_path / "exp.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(str(path))

    def test_config_must_be_a_dict(self):
        with pytest.raises(ConfigError, match=r"config must be a JSON object, got \['problems'\]"):
            load_config(["problems"])

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"problems": ["MOP1"], "horizon": 3}, "horizon"),
            ({}, "problems"),
            ({"problems": []}, "problems"),
            ({"problems": ["NOPE"]}, "NOPE"),
            ({"problems": ["MOP1"], "solvers": ["cg"]}, "cg"),
            ({"problems": ["MOP1"], "budget": 0}, "budget"),
            ({"problems": ["MOP1"], "noise": [-0.1]}, "noise"),
            ({"problems": ["MOP1"], "varsigma": 2.0, "criticality_tol": -1}, "varsigma"),
            ({"problems": ["MOP1"], "criticality_tol": -1}, "criticality_tol"),
            ({"problems": ["MOP1"], "beta": 1.5}, "beta"),
            ({"problems": ["MOP1"], "solvers": ["adagrad"], "thin": 0}, "thin"),
            ({"problems": ["MOP1"], "seeds": 3}, "seeds"),
            ({"problems": ["MOP1"], "seeds": [0, 1.5]}, "seeds"),
            ({"problems": ["MOP1"], "budget": "10"}, "budget"),
            ({"problems": ["MOP1"], "budget": True}, "budget"),
            ({"problems": ["MOP1"], "budget": 10.0}, "budget"),
            ({"problems": ["MOP1"], "noise": 0.05}, "noise"),
            ({"problems": ["MOP1"], "noise": ["0.05"]}, "noise"),
            ({"problems": ["MOP1"], "noise": [float("nan")]}, "noise"),
            ({"problems": ["MOP1"], "noise": [True]}, "noise"),
            ({"problems": ["MOP1"], "criticality_tol": "1e-6"}, "criticality_tol"),
            ({"problems": ["MOP1"], "solvers": ["descent"], "varsigma": "0.1"}, "varsigma"),
            ({"problems": ["MOP1"], "beta": None}, "beta"),
            ({"problems": ["MOP1"], "thin": "2"}, "thin"),
            ({"problems": ["MOP1"], "seeds": [0, 0]}, "MOP1__adagrad__seed0__rho0"),
            ({"problems": ["MOP1", "MOP1"]}, "MOP1__adagrad__seed0__rho0"),
            ({"problems": ["MOP1"], "noise": [0, 0.0]}, "MOP1__adagrad__seed0__rho0"),
            ({"problems": ["MOP1"], "solvers": ["descent"] * 2}, "MOP1__descent__seed0__rho0"),
            ({"problems": ["MOP1"], "seeds": [-1]}, "seeds"),
            ({"problems": ["MOP1"], "seeds": [0, True]}, "seeds"),
            # A cell parameter is checked whether or not its solver is listed.
            ({"problems": ["MOP1"], "solvers": ["descent"], "varsigma": 2.0}, "varsigma"),
            ({"problems": ["MOP1"], "solvers": ["adagrad"], "beta": 0}, "beta"),
            ({"problems": ["MOP1"], "seeds": []}, "config field 'seeds'"),
            ({"problems": ["MOP1"], "solvers": []}, "config field 'solvers'"),
            ({"problems": ["MOP1"], "noise": []}, "config field 'noise'"),
            ({"problems": [["MOP1"]]}, "config field 'problems'"),
            ({"problems": "MOP1"}, "config field 'problems': must be a non-empty list"),
            ({"problems": ["MOP1"], "solvers": [["adagrad"]]}, "config field 'solvers'"),
            ({"problems": ["MOP1"], "solvers": "adagrad"}, "config field 'solvers': must be a non-empty list"),
            ({"problems": ["MOP1"], "criticality_tol": math.inf}, "config field 'criticality_tol'"),
        ],
    )
    def test_invalid_configs_name_the_field(self, cfg, field):
        with pytest.raises(ConfigError, match=field):
            load_config(cfg)

    def test_readme_config_example_shows_the_defaults(self):
        # The README's example config names every config field, with the
        # cell parameters at their defaults.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Experiment configs", 1)[1]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert set(example) == set(_CONFIG_DEFAULTS)
        cell = ("budget", "criticality_tol", "varsigma", "beta", "thin")
        assert {k: example[k] for k in cell} == {k: _CONFIG_DEFAULTS[k] for k in cell}

    def test_bad_solver_parameter_runs_no_cell(self, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "run_cell", lambda *a, **k: cells.append(a))
        cfg = {"problems": ["MOP1"], "solvers": ["descent", "adagrad"], "varsigma": 2.0}
        with pytest.raises(ConfigError, match="varsigma"):
            run_experiment(cfg)
        with pytest.raises(ConfigError, match="varsigma"):
            noise_distance_table(["MOP1"], varsigma=2.0)
        assert cells == []


class TestRunExperiment:
    CFG = {"problems": ["MOP1", "T2"], "solvers": ["adagrad", "descent"], "seeds": [0]}

    def test_cell_grid_and_order(self):
        records = run_experiment(self.CFG)
        assert [(r.problem, r.solver) for r in records] == [
            ("MOP1", "adagrad"),
            ("MOP1", "descent"),
            ("T2", "adagrad"),
            ("T2", "descent"),
        ]

    def test_cell_parameters_forwarded(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            harness, "run_cell", lambda *args, **kwargs: calls.append((args, kwargs))
        )
        params = {
            "budget": 77,
            "criticality_tol": 1e-3,
            "varsigma": 0.5,
            "beta": 0.25,
            "thin": 3,
        }
        run_experiment({**self.CFG, "seeds": [0, 2], "noise": [0.0, 0.1], **params})
        assert calls == [
            ((name, solver), {"seed": seed, "rho": rho, **params})
            for name in ("MOP1", "T2")
            for solver in ("adagrad", "descent")
            for seed in (0, 2)
            for rho in (0.0, 0.1)
        ]

    def test_deterministic_reruns(self):
        first = [r.summary() for r in run_experiment(self.CFG)]
        second = [r.summary() for r in run_experiment(self.CFG)]
        assert first == second

    def test_profile_from_records(self):
        records = run_experiment(self.CFG)
        table = profile_from_records(records)
        assert set(table.solvers) == {"adagrad", "descent"}
        for s in table.solvers:
            assert table.curves[s][-1] == 1.0  # everything solved here
            assert table.curves[s][0] >= 0.0


class TestNoise:
    def test_distances_and_references(self):
        distances, records = noise_distance_table(
            ["MOP1"], solvers=("adagrad",), noise_levels=(0.01,), seeds=(0, 1)
        )
        assert set(distances) == {("MOP1", "adagrad", 0.01)}
        d = distances[("MOP1", "adagrad", 0.01)]
        assert math.isfinite(d) and d >= 0.0
        assert len(records) == 4

    def test_table_runs_the_experiment_cells(self, monkeypatch):
        calls = []
        cell = harness.run_cell

        def counting(name, solver, **kwargs):
            calls.append((name, solver, kwargs["seed"], kwargs["rho"], kwargs["budget"]))
            return cell(name, solver, **kwargs)

        monkeypatch.setattr(harness, "run_cell", counting)
        noise_distance_table(
            ["MOP1", "T2"], noise_levels=(0.01, 0.02), seeds=(0, 1), budget=50
        )
        assert calls == [
            (name, solver, seed, rho, 50)
            for name in ("MOP1", "T2")
            for solver in ("adagrad", "descent")
            for seed in (0, 1)
            for rho in (0.0, 0.01, 0.02)
        ]

    def test_missing_reference_rejected(self):
        rec = run_cell("MOP1", "adagrad", seed=0, rho=0.05)
        with pytest.raises(ConfigError, match="reference"):
            noise_distances([rec])

    def test_no_noisy_records_gives_empty_table(self):
        rec = run_cell("MOP1", "adagrad", seed=0, rho=0.0)
        assert noise_distances([rec]) == {}


class TestExport:
    def _records(self):
        return run_experiment(
            {"problems": ["MOP1"], "solvers": ["adagrad", "descent"], "seeds": [0]}
        )

    def test_csv_layout(self, tmp_path):
        records = self._records()
        out = tmp_path / "runs"
        export(records, "csv", out)
        index = (out / "index.csv").read_text().splitlines()
        assert index[0] == "file,problem,solver,seed,noise_rho,status,cost"
        assert len(index) == 3
        name = index[1].split(",")[0]
        cols = load_trajectory_csv(out / name)
        rec = records[0]
        assert_allclose(cols["omega"], rec.trajectory.omega)
        assert cols["gradient_evals"][-1] == rec.gradient_evals

    def test_json_summary_and_byte_stability(self, tmp_path):
        records = self._records()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export(records, "json", p1)
        export(records, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()
        summary = load_summary(p1)
        assert len(summary["records"]) == 2
        row = summary["records"][0]
        assert row["problem"] == "MOP1"
        assert row["cost"] == pytest.approx(budget_cost(records[0]))
        assert "wall_time" in row

    def test_empty_exports(self, tmp_path):
        out = tmp_path / "empty"
        export([], "csv", out)
        assert (out / "index.csv").read_text().splitlines() == [
            "file,problem,solver,seed,noise_rho,status,cost"
        ]
        path = tmp_path / "empty.json"
        export([], "json", path)
        assert load_summary(path) == {"records": []}

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            export([], "parquet", tmp_path / "x")

    @pytest.mark.parametrize(
        "cfg",
        [{"seeds": [np.int64(1)]}, {"criticality_tol": np.float32(1e-6)}],
        ids=["int64-seed", "float32-tol"],
    )
    def test_json_numpy_scalars_write_their_values(self, cfg, tmp_path):
        # load_config admits numpy scalars; the summary writes their Python values.
        base = {"problems": ["MOP1"], "solvers": ["adagrad"], "budget": 50}
        (rec,) = run_experiment({**base, **cfg})
        assert {type(rec.seed), *map(type, rec.config.values())} & {np.int64, np.float32}
        config = {
            k: v.item() if isinstance(v, np.generic) else v for k, v in rec.config.items()
        }
        twin = dataclasses.replace(rec, seed=int(rec.seed), config=config)
        export([rec], "json", tmp_path / "numpy.json")
        export([twin], "json", tmp_path / "plain.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_json_failure_writes_nothing(self, tmp_path):
        (rec,) = run_experiment({"problems": ["MOP1"], "solvers": ["adagrad"], "budget": 5})
        bad = dataclasses.replace(rec, config={**rec.config, "varsigma": object()})
        path = tmp_path / "s.json"
        with pytest.raises(TypeError, match="object"):
            export([bad], "json", path)
        assert not path.exists()

    def test_colliding_stems_rejected_before_any_file(self, tmp_path):
        # One cell run at two budgets that both bind: two records, one stem.
        records = [run_cell("MOP1", "adagrad", rho=0.05, budget=b) for b in (5, 6)]
        assert not np.array_equal(records[0].trajectory.omega, records[1].trajectory.omega)
        out = tmp_path / "runs"
        with pytest.raises(InputError, match="MOP1__adagrad__seed0__rho0.05"):
            export(records, "csv", out)
        assert not out.exists()

    def test_close_noise_levels_export_apart(self, tmp_path):
        # 0.05000001 prints as 0.05 under :g, so its stem writes its repr.
        cfg = {"problems": ["MOP1"], "solvers": ["adagrad"], "budget": 50}
        records = run_experiment({**cfg, "noise": [0.05, 0.05000001]})
        assert not np.array_equal(records[0].trajectory.omega, records[1].trajectory.omega)
        export(records, "csv", tmp_path)
        rows = [row.split(",") for row in (tmp_path / "index.csv").read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["0.05", "0.05000001"]
        assert rows[1][0] == "MOP1__adagrad__seed0__rho0.05000001.csv"
        for r, row in zip(records, rows):
            omega = load_trajectory_csv(tmp_path / row[0])["omega"]
            assert np.array_equal(omega, r.trajectory.omega)

    def test_readme_lists_the_trajectory_columns(self, tmp_path):
        # The README's column list, read from its bullets, is the header export writes.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = readme.split("A trajectory CSV has", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("- `"))
        block = itertools.takewhile(lambda line: line.startswith(("- ", "  ")), lines[start:])
        documented = [line.split("`")[1] for line in block if line.startswith("- ")]
        export(self._records()[:1], "csv", tmp_path)
        (csv,) = tmp_path.glob("MOP1__*.csv")
        assert documented == csv.read_text().splitlines()[0].split(",")


def _bigg():
    # The first combined gradient's squared norm overflows: the run ends
    # Failed at its first Jacobian and records no row.
    c = 1e200 * np.eye(2)
    return MultiObjectiveProblem("BIGG", 2, 2, [1, 1], lambda x: c @ x, lambda x: c)


class TestExportBytes:
    """The export format, written out here as the files have always had it."""

    HEADER = "k,omega,weight_or_step,gradient_evals,objective_evals"
    INDEX_HEADER = "file,problem,solver,seed,noise_rho,status,cost"

    @pytest.fixture(scope="class")
    def records(self):
        records = [
            run_cell("MOP1", "adagrad", budget=200),
            run_cell("MOP1", "descent", budget=200),
            run_adagrad(_bigg()),
        ]
        assert math.isnan(records[1].trajectory.scale[-1])
        assert records[2].status == RunStatus.FAILED
        assert len(records[2].trajectory) == 0
        return records

    def _trajectory_text(self, t):
        rows = [
            f"{k},{float(omega)!r},{float(scale)!r},{ge},{oe}"
            for k, (omega, scale, ge, oe) in enumerate(
                zip(t.omega, t.scale, t.gradient_evals, t.objective_evals)
            )
        ]
        return "\n".join([self.HEADER, *rows]) + "\n"

    def test_csv_bytes(self, records, tmp_path):
        export(records, "csv", tmp_path)
        index = [self.INDEX_HEADER]
        for r in records:
            stem = f"{r.problem}__{r.solver}__seed{r.seed}__rho{r.noise_rho:g}"
            text = (tmp_path / f"{stem}.csv").read_text()
            assert text == self._trajectory_text(r.trajectory)
            index.append(
                f"{stem}.csv,{r.problem},{r.solver},{r.seed},"
                f"{r.noise_rho:g},{r.status.value},{budget_cost(r)!r}"
            )
        assert (tmp_path / "index.csv").read_text() == "\n".join(index) + "\n"

    def test_csv_round_trips_exactly(self, records, tmp_path):
        export(records, "csv", tmp_path)
        for r in records:
            cols = load_trajectory_csv(
                tmp_path / f"{r.problem}__{r.solver}__seed{r.seed}__rho0.csv"
            )
            assert list(cols) == self.HEADER.split(",")
            t = r.trajectory
            assert_array_equal(cols["k"], np.arange(len(t)))
            assert_array_equal(cols["omega"], t.omega)
            assert_array_equal(cols["weight_or_step"], t.scale)
            assert_array_equal(cols["gradient_evals"], t.gradient_evals)
            assert_array_equal(cols["objective_evals"], t.objective_evals)

    def test_zero_row_run_exports_the_header_alone(self, records, tmp_path):
        export(records[2:], "csv", tmp_path)
        path = tmp_path / "BIGG__adagrad__seedNone__rho0.csv"
        assert path.read_text() == self.HEADER + "\n"
        cols = load_trajectory_csv(path)
        assert list(cols) == self.HEADER.split(",")
        assert all(len(col) == 0 for col in cols.values())

    def test_summary_keys(self, records, tmp_path):
        keys = {
            "problem",
            "solver",
            "config",
            "seed",
            "noise_rho",
            "n",
            "status",
            "final_x",
            "iterations",
            "gradient_evals",
            "objective_evals",
            "failure_reason",
        }
        for r in records:
            summary = r.summary()
            assert set(summary) == keys
            assert summary["status"] == r.status.value
            assert summary["final_x"] == [float(v) for v in r.final_x]
            assert summary["iterations"] == len(r.trajectory)
        export(records, "json", tmp_path / "s.json")
        rows = load_summary(tmp_path / "s.json")["records"]
        assert [set(row) for row in rows] == [keys | {"cost", "wall_time"}] * 3


class TestMultitaskRun:
    @pytest.mark.parametrize("solver", ["adagrad", "descent"])
    def test_small_training_run(self, solver):
        result = run_multitask("quadrants", solver, iters=40, seed=0, N=400)
        assert result.record.solver == solver
        assert 0.0 <= result.best_min_accuracy <= 1.0
        assert result.best_iteration in result.test_accuracy
        accs = result.test_accuracy[result.best_iteration]
        assert accs[2] == result.best_min_accuracy
        g_evals, o_evals = result.evals_at_best
        assert g_evals >= 1
        if solver == "adagrad":
            assert o_evals == 0

    def test_accuracy_improves_over_start(self):
        result = run_multitask("diagonals", "adagrad", iters=150, seed=0, N=1000)
        start = result.test_accuracy[0][2]
        assert result.best_min_accuracy > start
