"""End-to-end CLI invocations through the argparse entry point."""

import json

import pytest

from memgrad.cli import main
from memgrad.harness import ExperimentConfig


@pytest.fixture
def optimize_config(tmp_path):
    cfg = {
        "problem": {
            "name": "quadratic_diag",
            "params": {"coeffs": [0.5, 0.5]},
            "noise": {"kind": "gaussian", "sigma": 0.05},
        },
        "methods": [
            {"name": "memsgd", "params": {"p": 2.0, "eta": 0.5}},
            {"name": "sgd", "params": {"eta": 0.5}},
        ],
        "run": {"kind": "optimize", "iterations": 60, "x0": [1.0, 1.0],
                "n_seeds": 2, "record_stride": 10},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv"]},
        "bounds": [{
            "kind": "memsgd_discrete",
            "method": "memsgd(eta=0.5,p=2.0)",
            "params": {"p": 2.0, "eta": 0.5, "d": 2, "varsigma2": 0.0025,
                       "dist2": 2.0},
        }],
        "master_seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


class TestOptimizeCommand:
    def test_runs_and_emits(self, optimize_config, capsys):
        cfg_path, out_dir = optimize_config
        code = main(["optimize", "--config", str(cfg_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert (out_dir / "traces.csv").exists()
        assert (out_dir / "aggregates.csv").exists()
        assert "4 runs (0 diverged)" in captured
        assert "bound memsgd_discrete" in captured
        assert "violations=0" in captured

    def test_violated_bound_says_where(self, optimize_config, capsys):
        # With dist2 = 1e-3 the bound at k = 0 is 5e-4, far below f_gap(x0) = 1.
        cfg_path, _ = optimize_config
        raw = json.loads(cfg_path.read_text())
        raw["bounds"][0]["params"].update(dist2=1e-3, varsigma2=0.0)
        cfg_path.write_text(json.dumps(raw))
        assert main(["optimize", "--config", str(cfg_path)]) == 1
        prefix = "bound memsgd_discrete on memsgd(eta=0.5,p=2.0): "
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith(prefix)]
        assert line[len(prefix):].split()[0] == "violations"
        assert "first_violation_index=0," in line
        assert "max_relative_excess=1.999e+03" in line

    def test_kind_mismatch_rejected(self, optimize_config):
        cfg_path, _ = optimize_config
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(cfg_path)])

    def test_json_format(self, optimize_config, tmp_path):
        cfg_path, out_dir = optimize_config
        main(["optimize", "--config", str(cfg_path), "--format", "json"])
        payload = json.loads((out_dir / "result.json").read_text())
        assert payload["config"]["master_seed"] == 3


    @pytest.mark.parametrize("formats, flags, written", [
        (["csv", "json"], [], {"traces.csv", "aggregates.csv", "result.json"}),
        (["json"], [], {"result.json"}),
        (["csv", "json"], ["--format", "csv"], {"traces.csv", "aggregates.csv"}),
        (["csv"], ["--format", "json"], {"traces.csv", "aggregates.csv", "result.json"}),
    ])
    def test_config_formats_unless_flag_given(self, optimize_config, formats, flags,
                                              written):
        cfg_path, out_dir = optimize_config
        raw = json.loads(cfg_path.read_text())
        raw["output"]["formats"] = formats
        cfg_path.write_text(json.dumps(raw))
        main(["optimize", "--config", str(cfg_path), *flags])
        assert {p.name for p in out_dir.iterdir()} == written


class TestSimulateCommand:
    def test_runs(self, tmp_path, capsys):
        cfg = {
            "problem": {"name": "quadratic_diag", "params": {"coeffs": [2e-2, 5e-3]}},
            "methods": [
                {"name": "nesterov", "params": {"sigma": 0.1}},
                {"name": "hb_ode", "params": {"viscosity": 1.0, "sigma": 0.1}},
            ],
            "run": {"kind": "simulate", "t_end": 0.5, "h": 1e-3,
                    "x0": [1.0, 1.0], "n_seeds": 2, "record_stride": 100},
            "output": {"directory": str(tmp_path / "sim"), "formats": ["csv"]},
            "master_seed": 0,
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "sim" / "traces.csv").exists()


class TestSmallTools:
    def test_isometry(self, capsys, tmp_path):
        code = main(["isometry", "--power", "1", "--t", "1", "--paths", "2000",
                     "--h", "1e-2", "--seed", "1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form=0.333333" in out
        assert (tmp_path / "isometry.csv").exists()

    def test_warp(self, capsys):
        code = main(["warp", "--p", "2", "--t-end", "2.0", "--h", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sup path gap" in out

    def test_variance_ode(self, capsys, tmp_path):
        code = main(["variance-ode", "--model", "nesterov", "--t0", "0.1",
                     "--t-end", "2.0", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "variance_ode.csv").read_text().strip().split("\n")
        assert lines[0] == "t,p1,p2,p3"
        assert len(lines) > 2

    def test_rates_stdout(self, capsys):
        code = main([
            "rates", "--kind", "poly_continuous",
            "--params", '{"p": 2.0, "d": 1, "dist2": 1.0}',
            "--indices", "1,2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "kind,d,dist2,p,t_or_k,bound"
        assert "0.25" in out


class TestVerifyCommand:
    def test_passes_with_reduced_config(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict({
            "problem": {
                "name": "quadratic_diag",
                "params": {"coeffs": [2e-2, 5e-3]},
                "noise": {"kind": "gaussian", "sigma": 0.1},
            },
            "methods": [{"name": "memsgd", "params": {"p": 2.0, "eta": 12.5}}],
            "run": {"kind": "optimize", "iterations": 40, "x0": [1.0, 1.0],
                    "n_seeds": 2, "record_stride": 10},
            "output": {"directory": str(tmp_path / "v"), "formats": ["csv"]},
            "master_seed": 5,
        })
        cfg_path = tmp_path / "verify.json"
        cfg.to_file(cfg_path)
        code = main(["verify", "--config", str(cfg_path), "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
        assert (tmp_path / "v" / "traces.csv").exists()

    def test_diverging_batch_fails(self, tmp_path, capsys):
        # SGD at eta = 200 on this quadratic grows sevenfold per step.
        cfg = ExperimentConfig.from_dict({
            "problem": {"name": "quadratic_diag", "params": {"coeffs": [2e-2, 5e-3]}},
            "methods": [{"name": "memsgd", "params": {"p": 2.0, "eta": 12.5}},
                        {"name": "sgd", "params": {"eta": 200.0}}],
            "run": {"kind": "optimize", "iterations": 400, "x0": [1.0, 1.0],
                    "n_seeds": 2, "record_stride": 10},
            "output": {"directory": str(tmp_path / "v"), "formats": ["csv"]},
        })
        cfg_path = tmp_path / "verify.json"
        cfg.to_file(cfg_path)
        code = main(["verify", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] experiment-batch: 4 runs, 2 diverged" in out
        assert out.count("[FAIL]") == 1

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "problem": {"name": "quadratic_diag", "params": {"coeffs": [0.5]}},
            "methods": [{"name": "sgd", "params": {"eta": 0.1}}],
            "run": {"kind": "optimize", "iterations": 5, "x0": [1.0],
                    "n_seeds": 1},
            "output": {"directory": str(tmp_path / "a"), "formats": ["csv"]},
            "master_seed": 0,
        })
        path = tmp_path / "c.json"
        cfg.to_file(path)
        main(["verify", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["verify", "--config", str(path), "--seed", "9",
              "--out", str(tmp_path / "b")])
        ha = json.loads((tmp_path / "a" / "verify_report.json").read_text())
        hb = json.loads((tmp_path / "b" / "verify_report.json").read_text())
        assert ha["config_sha256"] != hb["config_sha256"]


class TestFlags:
    RATES = ["rates", "--kind", "poly_continuous", "--params", '{"p": 2.0, "d": 1, '
             '"dist2": 1.0}', "--indices", "1"]

    @pytest.mark.parametrize("argv", [
        ["warp", "--config", "x.json"],
        ["warp", "--seed", "1"],
        ["warp", "--out", "out"],
        ["warp", "--format", "csv"],
        ["variance-ode", "--model", "nesterov", "--config", "x.json"],
        ["variance-ode", "--model", "nesterov", "--seed", "1"],
        ["variance-ode", "--model", "nesterov", "--format", "csv"],
        ["isometry", "--power", "1", "--config", "x.json"],
        ["isometry", "--power", "1", "--format", "csv"],
        ["isometry", "--power", "1", "--threads", "2"],
        RATES + ["--config", "x.json"],
        RATES + ["--seed", "1"],
        RATES + ["--format", "csv"],
        RATES + ["--threads", "2"],
        ["verify", "--format", "json"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_threads_accepted_where_the_benchmark_passes_it(self, capsys):
        assert main(["warp", "--t-end", "0.5", "--h", "1e-3", "--threads", "2"]) == 0
        assert main(["variance-ode", "--model", "nesterov", "--t-end", "1.0",
                     "--threads", "2"]) == 0
