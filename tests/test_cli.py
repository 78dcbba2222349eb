"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from mograd import multitask
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
        "fields", [{"budget": "10"}, {"budget": True}, {"noise": 0.05}]
    )
    def test_mistyped_config_exits_2(self, tmp_path, capsys, fields):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"problems": ["MOP1"], **fields}))
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{next(iter(fields))}'" in capsys.readouterr().err
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

    def test_unknown_example_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["multitask", "--example", "spiral", "--solver", "adagrad", "--out", "x"])


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mograd", "list-problems"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "MOP1" in proc.stdout
