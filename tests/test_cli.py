"""End-to-end CLI invocations through the argparse entry point."""

import json

import numpy as np
import pytest

from memgrad import continuum, harness, optimizers, theory
from memgrad.cli import main
from memgrad.harness import ExperimentConfig

MEMSGD_STEP = optimizers.memsgd_p_step
SGD_STEP = optimizers.sgd_step


def memsgd_ignoring_its_gradient(state, g, eta, p, allow_small_p=False):
    """A wrong MemSGD that never moves, so f_gap stays at f_gap(x0)."""
    return MEMSGD_STEP(state, np.zeros_like(g), eta=eta, p=p, allow_small_p=allow_small_p)


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

    def test_violated_bound_says_where(self, optimize_config, capsys, monkeypatch):
        # The bound is 1/(k+1) + 0.0025, and a MemSGD that never moves stays at
        # f_gap(x0) = 1: within the bound at k = 0, above it at every later
        # record (k = 10, 20, ..., 60), and furthest above it at k = 60.
        monkeypatch.setattr(optimizers, "memsgd_p_step", memsgd_ignoring_its_gradient)
        cfg_path, _ = optimize_config
        assert main(["optimize", "--config", str(cfg_path)]) == 1
        prefix = "bound memsgd_discrete on memsgd(eta=0.5,p=2.0): "
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith(prefix)]
        assert line[len(prefix):].split()[0] == "violations"
        assert "checked=7, violations=6, first_violation_index=10," in line
        assert f"max_relative_excess={1.0 / (1.0 / 61.0 + 0.0025) - 1.0:.3e}" in line

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


class TestSmallToolFiles:
    """Each file matches the f-string rows the tools wrote before they shared
    the harness CSV writer."""

    def test_variance_ode_csv(self, capsys, tmp_path):
        assert main(["variance-ode", "--model", "quadratic_forgetting", "--t0", "0.1",
                     "--t-end", "2.0", "--stride", "50", "--out", str(tmp_path)]) == 0
        states = continuum.integrate_variance_ode("quadratic_forgetting", 0.1, 2.0, 1e-3,
                                                  1.0, 1.0, record_stride=50)
        expected = "t,p1,p2,p3\n" + "".join(
            f"{s.t:.17g},{s.p1:.17g},{s.p2:.17g},{s.p3:.17g}\n" for s in states)
        assert (tmp_path / "variance_ode.csv").read_text() == expected
        assert capsys.readouterr().out.endswith(f"wrote {tmp_path / 'variance_ode.csv'}\n")

    def test_isometry_csv(self, capsys, tmp_path):
        assert main(["isometry", "--power", "1.5", "--t", "2", "--paths", "1000",
                     "--h", "1e-2", "--seed", "4", "--out", str(tmp_path)]) == 0
        var, se = continuum.ito_isometry_mc(1.5, 2.0, 1000, 1e-2, np.random.default_rng(4))
        target = 2.0 ** 4.0 / 4.0
        assert (tmp_path / "isometry.csv").read_text() == (
            "power,t,n_paths,h,variance,stderr,closed_form\n"
            f"{1.5:.17g},{2.0:.17g},{1000},{1e-2:.17g},{var:.17g},{se:.17g},{target:.17g}\n")

    @pytest.mark.parametrize("to_file", [True, False])
    def test_rates_csv(self, capsys, tmp_path, to_file):
        params = {"p": 2, "eta": 0.5, "d": 2, "dist2": 2.0, "varsigma2": 0.25}
        argv = ["rates", "--kind", "memsgd_discrete", "--indices", "0,10,100,1000",
                "--params", json.dumps(params)]
        assert main(argv + (["--out", str(tmp_path)] if to_file else [])) == 0
        spec = theory.BoundSpec("memsgd_discrete", params)
        names = sorted(params)
        lines = ["kind," + ",".join(names) + ",t_or_k,bound"]
        for idx in (0.0, 10.0, 100.0, 1000.0):
            row = ["memsgd_discrete"] + [f"{float(params[n]):.17g}" for n in names]
            lines.append(",".join(row + [f"{idx:.17g}", f"{spec.evaluate(idx):.17g}"]))
        expected = "\n".join(lines) + "\n"
        out = capsys.readouterr().out
        if to_file:
            assert (tmp_path / "rates.csv").read_text() == expected
            assert out == f"wrote {tmp_path / 'rates.csv'}\n"
        else:
            assert out == expected


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

    @pytest.mark.parametrize("stepper, status", [
        (MEMSGD_STEP, "ok"), (memsgd_ignoring_its_gradient, "violations")],
        ids=["ok", "violations"])
    def test_declared_bound_checked_as_optimize_checks_it(self, optimize_config, tmp_path,
                                                          capsys, monkeypatch, stepper,
                                                          status):
        monkeypatch.setattr(optimizers, "memsgd_p_step", stepper)
        cfg_path, _ = optimize_config
        main(["optimize", "--config", str(cfg_path)])
        prefix = "bound memsgd_discrete on memsgd(eta=0.5,p=2.0): "
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith(prefix)]
        optimize_status, summary = line[len(prefix):].split(" ", 1)
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")])
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        (check,) = [c for c in report["checks"] if c["name"].startswith("rate-bound[")]
        assert optimize_status == status
        assert check == {"name": "rate-bound[memsgd(eta=0.5,p=2.0)]",
                         "passed": status == "ok",
                         "detail": f"status={status}, {summary[1:-1]}"}
        assert code == (0 if status == "ok" else 1)

    def test_no_bound_checked_unless_declared(self, optimize_config, tmp_path):
        cfg_path, _ = optimize_config
        raw = json.loads(cfg_path.read_text())
        del raw["bounds"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert not [c for c in report["checks"] if c["name"].startswith("rate-bound[")]

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


class TestConfigThatFailsToLoad:
    """A config that fails to load ends the command with one line naming its
    path, before any file is written."""

    # A strongly convex bound with a negative viscosity, which its formula rejects.
    BAD_BOUND = {
        "problem": {"name": "quadratic_diag", "params": {"coeffs": [0.02, 0.005]}},
        "methods": [{"name": "hb_ode", "params": {"viscosity": 0.3}}],
        "run": {"kind": "simulate", "t_end": 1.0, "h": 0.01, "x0": [1.0, 1.0],
                "n_seeds": 2},
        "bounds": [{"kind": "strongly_convex_hb", "method": "hb_ode(viscosity=0.3)",
                    "params": {"alpha": -1, "mu": 0.005, "f_gap0": 0.0125, "d": 2,
                               "dist2": 2.0}}],
    }

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", json.dumps(BAD_BOUND),
         "bounds: strongly_convex_hb on hb_ode(viscosity=0.3): need alpha, tau, "
         "mu_tilde > 0"),
        ("optimize", '{"problem": {}}', "config: "),
        ("verify", "{not json", "Expecting property name"),
        ("optimize", None, "No such file"),
    ], ids=["bound", "missing-sections", "not-json", "missing-file"])
    def test_one_line_names_the_path(self, tmp_path, command, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        line = exc.value.code
        assert isinstance(line, str)  # the interpreter prints it and exits 1
        assert line.startswith(f"memgrad: {path}: ") and "\n" not in line
        assert message in line
        assert not (tmp_path / "out").exists()


class TestConfigThatDoesNotFitItsObjective:
    """A config that loads but fails once its objective is built or checked
    against it ends the command with one line naming its path, before any
    run or file; a ValueError raised partway through a run still propagates."""

    RUN = {"kind": "optimize", "iterations": 5, "x0": [1.0, 1.0], "n_seeds": 2}

    @pytest.mark.parametrize("problem, message", [
        ({"name": "quadratic_diag", "params": {"coeffs": [1.0, 1.0]},
          "noise": {"kind": "finite_sum"}},
         "problem.noise: finite_sum noise needs finite-sum components, and "
         "quadratic_diag(1.0, 1.0) has none"),
        ({"name": "quadratic_diag", "params": {"coeffs": [-1.0, 0.5]}},
         "problem quadratic_diag: coefficients must be finite and >= 0"),
        ({"name": "quadratic_diag", "params": {"coeffs": [1.0, 1.0, 1.0]}},
         "run: x0 has length 2, but problem quadratic_diag has dim 3"),
    ], ids=["finite-sum-without-components", "negative-coeff", "coeffs-longer-than-x0"])
    def test_one_line_names_the_path(self, tmp_path, monkeypatch, problem, message):
        def stepper(*args, **kwargs):
            pytest.fail("a run started")

        stepper.__wrapped__ = SGD_STEP  # what the dry step at load runs
        monkeypatch.setattr(optimizers, "sgd_step", stepper)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": problem, "run": self.RUN,
                                    "methods": [{"name": "sgd", "params": {"eta": 0.1}}]}))
        ExperimentConfig.from_file(path)  # it loads
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == f"memgrad: {path}: {message}"
        assert not (tmp_path / "out").exists()

    def test_seed_override_out_of_range_names_the_path(self, optimize_config):
        path, out = optimize_config
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", str(path), "--seed", "-1"])
        assert exc.value.code.startswith(f"memgrad: {path}: master_seed: ")
        assert not out.exists()

    def test_value_error_partway_through_a_run_propagates(self, optimize_config,
                                                          monkeypatch):
        def sgd_failing_at_step_3(state, g, eta):
            if state.k == 3:  # the dry step at load runs at k = 0
                raise ValueError("step 3")
            return SGD_STEP(state, g, eta=eta)

        monkeypatch.setattr(optimizers, "sgd_step", sgd_failing_at_step_3)
        path, _ = optimize_config
        with pytest.raises(ValueError, match="^step 3$") as exc:
            main(["optimize", "--config", str(path)])
        assert not isinstance(exc.value, harness.ConfigError)


class TestBadFlagValues:
    """A flag value a command without a config cannot use ends it with one
    line naming the command, before any file is written."""

    @pytest.mark.parametrize("argv, message", [
        (["warp", "--h", "0"], "h must be > 0, got 0.0"),
        (["warp", "--h", "-1"], "h must be > 0, got -1.0"),
        (["warp", "--p", "1"], "the time change needs p > 1"),
        (["warp", "--coeffs", "a,b"], "could not convert string to float: 'a'"),
        (["variance-ode", "--model", "nesterov", "--stride", "0"], "stride must be >= 1, got 0"),
        (["isometry", "--power", "1", "--paths", "10"], "need at least 1000 paths"),
        # Values that would reach the solver or numpy and end in a traceback,
        # numpy's message or NaN rows.
        (["variance-ode", "--model", "nesterov", "--sigma2", "-1"],
         "sigma2 must be >= 0, got -1.0"),
        (["variance-ode", "--model", "nesterov", "--lam", "nan"], "lam must be finite, got nan"),
        (["variance-ode", "--model", "nesterov", "--t-end", "nan"],
         "t_end must be finite, got nan"),
        (["isometry", "--power", "1", "--t", "nan"], "t must be finite, got nan"),
        (["isometry", "--power", "nan"], "p must be finite, got nan"),
        (["warp", "--compare-from", "10"], "compare_from must be <= t_end = 4.0, got 10.0"),
        (["warp", "--compare-from", "nan"], "compare_from must be <= t_end = 4.0, got nan"),
    ], ids=["warp-h-zero", "warp-h-negative", "warp-p-one", "warp-coeffs", "variance-ode-stride",
            "isometry-paths", "variance-ode-sigma2-negative", "variance-ode-lam-nan",
            "variance-ode-t-end-nan", "isometry-t-nan", "isometry-power-nan",
            "warp-compare-from-past-t-end", "warp-compare-from-nan"])
    def test_one_line_names_the_command(self, tmp_path, argv, message):
        out = ["--out", str(tmp_path / "out")] if argv[0] != "warp" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + out)
        line = exc.value.code
        assert isinstance(line, str)  # the interpreter prints it and exits 1
        assert line.startswith(f"memgrad: {argv[0]}: ") and "\n" not in line
        assert message in line
        assert not (tmp_path / "out").exists()


class TestRatesThatCannotBeEvaluated:
    """A bound that cannot be tabulated ends ``rates`` with one line naming
    the kind, before any file is written."""

    @pytest.mark.parametrize("params, indices, message", [
        ('{"p": 2, "d": 1, "dist2": 1}', "0", "need t > 0 and sigma2 >= 0"),
        ('{"p": 2, "d": 1, "dist2": 1, "eta": 1}', "1", "unexpected keyword argument 'eta'"),
        ('{"p": 2, "d": 1', "1", "Expecting"),
        ("[2, 1, 1]", "1", "--params must be a JSON object"),
        ('{"p": 2, "d": 1, "dist2": 1}', "1,x", "could not convert string to float"),
        ('{"p": 2, "d": 1, "dist2": 1}', "1,nan", "t must be finite, got nan"),
    ], ids=["t-zero", "unknown-param", "not-json", "not-an-object", "bad-index",
            "nan-index"])
    def test_one_line_names_the_kind(self, tmp_path, params, indices, message):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--kind", "poly_continuous", "--params", params,
                  "--indices", indices, "--out", str(tmp_path / "out")])
        line = exc.value.code
        assert isinstance(line, str)  # the interpreter prints it and exits 1
        assert line.startswith("memgrad: rates poly_continuous: ") and "\n" not in line
        assert message in line
        assert not (tmp_path / "out").exists()
