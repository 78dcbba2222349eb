"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys
import warnings

import pytest

from conftest import src_env
from mograd import harness, multitask
from mograd.cli import main


class TestListProblems:
    def test_prints_catalog(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "MOP1" in out
        assert "ROSENBR-CUBE" in out
        assert "origin" in out
        # 21 instances plus the header line.
        assert len(out.strip().splitlines()) == 22


class TestSolve:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "solve",
                "--problem",
                "MOP1",
                "--solver",
                "adagrad",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "index.csv").exists()
        stems = list(out.glob("MOP1__adagrad__seed1__rho0.csv"))
        assert len(stems) == 1
        printed = capsys.readouterr().out
        assert "Critical" in printed

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "NOPE", "--solver", "adagrad", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_noise_flag(self, tmp_path):
        out = tmp_path / "noisy"
        code = main(
            [
                "solve",
                "--problem",
                "T2",
                "--solver",
                "descent",
                "--noise",
                "0.05",
                "--budget",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["records"][0]["noise_rho"] == 0.05

    @pytest.mark.parametrize("rho", ["-0.5", "nan"])
    def test_bad_noise_exits_2_and_writes_nothing(self, tmp_path, capsys, rho):
        out = tmp_path / "bad"
        code = main(
            ["solve", "--problem", "MOP1", "--solver", "adagrad", "--noise", rho,
             "--budget", "50", "--out", str(out)]
        )
        assert code == 2
        assert "noise level" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main(
            ["solve", "--problem", "Lovison3", "--solver", "adagrad", "--seed", "-1",
             "--budget", "50", "--out", str(out)]
        )
        assert code == 2
        assert "seed must be an int >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestProfile:
    def test_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "problems": ["MOP1", "T2", "Lovison3"],
                    "solvers": ["adagrad", "descent"],
                    "seeds": [0],
                }
            )
        )
        out = tmp_path / "prof"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "records" / "index.csv").exists()
        assert (out / "summary.json").exists()
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "tau,adagrad,descent"
        assert len(profile) == 82  # default grid has 81 samples
        printed = capsys.readouterr().out
        assert "solve fraction" in printed

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"problems": ["MOP1"], "typo": 1}))
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "typo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"budget": "10"},
            {"budget": True},
            {"noise": 0.05},
            {"seeds": []},
            {"solvers": []},
            {"noise": []},
            {"problems": [["MOP1"]]},
            {"problems": "MOP1"},
            {"solvers": [["adagrad"]]},
            {"solvers": "adagrad"},
        ],
    )
    def test_mistyped_config_exits_2(self, tmp_path, capsys, fields):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"problems": ["MOP1"], **fields}))
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{next(iter(fields))}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ['["problems"]', "3", '"MOP1"'])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(text)
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "run_cell", lambda *a, **k: cells.append(a))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"problems": ["MOP1"], "seeds": [0, -1]}))
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'seeds'" in capsys.readouterr().err
        assert cells == []
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["profile", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path)]
        )
        assert code == 2


class TestMultitask:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "mt"
        code = main(
            [
                "multitask",
                "--example",
                "diagonals",
                "--solver",
                "adagrad",
                "--iters",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for name in ("summary.json", "dataset.csv", "accuracy.csv", "multitask.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "multitask.json").read_text())
        assert report["example"] == "diagonals"
        assert 0.0 <= report["best_min_accuracy"] <= 1.0
        acc_lines = (out / "accuracy.csv").read_text().splitlines()
        assert acc_lines[0] == "k,acc1,acc2,min_acc"
        assert len(acc_lines) == 2 + 5  # header + iterations 0..5
        assert "best min test accuracy" in capsys.readouterr().out

    def test_dataset_generated_once_and_unchanged(self, tmp_path, monkeypatch):
        real = multitask.generate_dataset
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(multitask, "generate_dataset", counting)
        out = tmp_path / "mt"
        argv = ["multitask", "--example", "quadrants", "--solver", "descent",
                "--iters", "2", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert len(calls) == 1
        expected = tmp_path / "expected.csv"
        multitask.to_csv(real("quadrants", seed=3), expected)
        assert (out / "dataset.csv").read_bytes() == expected.read_bytes()

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "mt"
        argv = ["multitask", "--example", "quadrants", "--solver", "adagrad",
                "--iters", "2", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert "seed must be an int >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_example_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["multitask", "--example", "spiral", "--solver", "adagrad", "--out", "x"])


class TestTableFormats:
    """The bytes of the tables ``profile`` and ``multitask`` write beside the export."""

    @staticmethod
    def _lf_lines(path):
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        return data.decode().splitlines()

    def test_profile_and_multitask_tables(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"problems": ["MOP1", "T2"], "budget": 200}))
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        argv = ["multitask", "--example", "quadrants", "--solver", "adagrad",
                "--iters", "4", "--out", str(tmp_path / "m")]
        assert main(argv) == 0

        for row in self._lf_lines(tmp_path / "p" / "profile.csv")[1:]:
            for cell in row.split(","):
                assert repr(float(cell)) == cell
        for row in self._lf_lines(tmp_path / "m" / "accuracy.csv")[1:]:
            k, *accuracies = row.split(",")
            assert repr(int(k)) == k
            for cell in accuracies:
                assert repr(float(cell)) == cell
        text = (tmp_path / "m" / "multitask.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _rate_check(record, lmax="1.0", gamma0="2.0"):
    return ["rate-check", "--record", str(record), "--lmax", lmax, "--gamma0", gamma0]


def _bad_file(tmp_path, name, text):
    path = tmp_path / "bad" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(text.encode("latin-1"))  # so "\xff" is a byte that is not UTF-8
    return path


def _edited_summary(edit):
    """Builder of a rate-check on the solved run's summary after ``edit(row)``."""
    def build(solved_dir, tmp_path):
        path = solved_dir / "summary.json"
        summary = json.loads(path.read_text())
        edit(summary["records"][0])
        path.write_text(json.dumps(summary))
        return _rate_check(path)

    return build


def _first_gradient_failure(tmp_path):
    """Export dir of a run that fails at its first gradient: a header-only CSV."""
    run = tmp_path / "failed"
    argv = ["solve", "--problem", "ARWHEAD-VARDIM", "--solver", "adagrad"]
    assert main([*argv, "--noise", "1e308", "--out", str(run)]) == 0
    return run


# Each bad input: the text its one error line must hold, and a builder of the
# argv that feeds it, from an adagrad MOP1 export dir and tmp_path.
_BAD_INPUTS = {
    "solve_tol_inf": ("criticality_tol", lambda d, tmp: [
        "solve", "--problem", "ROSENBR-CUBE", "--solver", "descent", "--tol", "inf",
        "--out", str(tmp / "out"),
    ]),
    "profile_tol_1e400": ("config field 'criticality_tol'", lambda d, tmp: [
        "profile", "--out", str(tmp / "out"), "--config", str(_bad_file(
            tmp, "c.json", '{"problems": ["ROSENBR-CUBE", "MOP1"], "criticality_tol": 1e400}'
        )),
    ]),
    "lmax_inf": ("l_max", lambda d, tmp: _rate_check(d / "summary.json", lmax="inf")),
    "lmax_nan": ("l_max", lambda d, tmp: _rate_check(d / "summary.json", lmax="nan")),
    "gamma0_nan": ("gamma0", lambda d, tmp: _rate_check(d / "summary.json", gamma0="nan")),
    "gamma0_inf": ("gamma0", lambda d, tmp: _rate_check(d / "summary.json", gamma0="inf")),
    "truncated_summary": ("bad/summary.json:1: Expecting value", lambda d, tmp: _rate_check(
        _bad_file(tmp, "summary.json", '{"records": [')
    )),
    "summary_without_records": ("bad/summary.json: missing field 'records'", lambda d, tmp: (
        _rate_check(_bad_file(tmp, "summary.json", "{}"))
    )),
    "summary_row_without_config": ("summary.json: missing field 'config'", _edited_summary(
        lambda row: row.pop("config")
    )),
    "csv_without_omega": ("bad.csv: missing field 'omega'", lambda d, tmp: _rate_check(
        _bad_file(tmp, "bad.csv", "k,x\n0,1\n")
    )),
    "empty_csv": ("bad.csv: not a trajectory CSV", lambda d, tmp: _rate_check(
        _bad_file(tmp, "bad.csv", "")
    )),
    "ragged_csv": ("bad.csv: not a trajectory CSV", lambda d, tmp: _rate_check(
        _bad_file(tmp, "bad.csv", "k,omega\n0,1,2\n")
    )),
    "header_only_csv": ("omega is empty", lambda d, tmp: _rate_check(
        next(_first_gradient_failure(tmp).glob("ARWHEAD-VARDIM__*.csv"))
    )),
    "header_only_summary": ("omega is empty", lambda d, tmp: _rate_check(
        _first_gradient_failure(tmp) / "summary.json"
    )),
    "non_number_omega": ("omega must be finite and >= 0, got nan", lambda d, tmp: _rate_check(
        _bad_file(tmp, "bad.csv", "k,omega\n0,abc\n")
    )),
    "summary_without_a_record": ("expected exactly one record, found 0", lambda d, tmp: (
        _rate_check(_bad_file(tmp, "summary.json", '{"records": []}'))
    )),
    "summary_record_not_an_object": ("missing field 'problem'", lambda d, tmp: (
        _rate_check(_bad_file(tmp, "summary.json", '{"records": [5]}'))
    )),
    "summary_noise_rho_text": ("field 'noise_rho' must be a number", _edited_summary(
        lambda row: row.update(noise_rho="0")
    )),
    "binary_summary": ("cannot read", lambda d, tmp: _rate_check(
        _bad_file(tmp, "summary.json", "\xff")
    )),
    "summary_config_not_an_object": ("field 'config' must be an object", _edited_summary(
        lambda row: row.update(config=[])
    )),
}


class TestRateCheck:
    @pytest.fixture()
    def solved_dir(self, tmp_path):
        out = tmp_path / "run"
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "MOP1",
                    "--solver",
                    "adagrad",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        return out

    def test_from_summary_json(self, solved_dir, capsys):
        code = main(
            [
                "rate-check",
                "--record",
                str(solved_dir / "summary.json"),
                "--lmax",
                "1.0",
                "--gamma0",
                "2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theta = 204800" in out
        assert "bound holds at every iteration: True" in out

    def test_from_trajectory_csv(self, solved_dir, capsys):
        csv_path = next(solved_dir.glob("MOP1__*.csv"))
        code = main(
            [
                "rate-check",
                "--record",
                str(csv_path),
                "--lmax",
                "1.0",
                "--gamma0",
                "2.0",
                "--varsigma",
                "0.01",
            ]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_from_one_cell_profile_summary(self, tmp_path, capsys):
        # A profile export keeps its trajectory CSVs in records/, not beside the summary.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"problems": ["MOP1"], "solvers": ["adagrad"], "budget": 200}))
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(_rate_check(out / "summary.json", "1", "1")) == 0
        from_summary = capsys.readouterr().out
        csv_path = out / "records" / "MOP1__adagrad__seed0__rho0.csv"
        assert main([*_rate_check(csv_path, "1", "1"), "--varsigma", "0.01"]) == 0
        assert capsys.readouterr().out == from_summary
        assert len(from_summary.splitlines()) == 3

    def test_descent_record_lacks_varsigma(self, tmp_path, capsys):
        out = tmp_path / "d"
        main(["solve", "--problem", "MOP1", "--solver", "descent", "--out", str(out)])
        code = main(
            [
                "rate-check",
                "--record",
                str(out / "summary.json"),
                "--lmax",
                "1.0",
                "--gamma0",
                "1.0",
            ]
        )
        assert code == 2
        assert "varsigma" in capsys.readouterr().err

    def test_mistyped_varsigma_in_summary_exits_2(self, solved_dir, capsys):
        path = solved_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary["records"][0]["config"]["varsigma"] = "0.01"
        path.write_text(json.dumps(summary))
        code = main(
            ["rate-check", "--record", str(path), "--lmax", "1.0", "--gamma0", "2.0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: varsigma must be a real number, got '0.01'\n"

    @pytest.mark.parametrize("lmax, gamma0", [("1", "1000"), ("1e100", "1")])
    def test_theta_beyond_float_range_is_inf(self, solved_dir, capsys, lmax, gamma0):
        capsys.readouterr()
        assert main(_rate_check(solved_dir / "summary.json", lmax, gamma0)) == 0
        captured = capsys.readouterr()
        assert "theta = inf\n" in captured.out
        assert "bound holds at every iteration: True" in captured.out
        assert captured.err == ""

    def test_sum_line_is_the_report_omega_sum(self, solved_dir, capsys):
        csv_path = next(solved_dir.glob("MOP1__*.csv"))
        omega = harness.load_trajectory_csv(csv_path)["omega"]
        report = harness._rate_report(omega, 0.01, 1.0, 2.0)
        capsys.readouterr()
        assert main(_rate_check(csv_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"max cumulative omega = {report.omega_sum:g}"

    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_bad_input_is_one_error_line(self, case, solved_dir, tmp_path, capsys):
        named, build = _BAD_INPUTS[case]
        argv = build(solved_dir, tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and named in captured.err
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mograd", "list-problems"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert "MOP1" in proc.stdout

    def test_cli_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mograd.cli", "list-problems"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert "MOP1" in proc.stdout
