"""Config round-trips, run determinism, aggregation, bounds, emission."""

import copy
import csv
import inspect
import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrad import harness, optimizers, problems, theory
from memgrad.harness import (
    AGGREGATE_DTYPE,
    METHODS,
    PROBLEMS,
    RECORD_DTYPE,
    STATS,
    ExperimentConfig,
    ExperimentResult,
    Trace,
    aggregate_traces,
    build_objective,
    check_bounds,
    emit,
    read_traces_csv,
    run_experiment,
)
from memgrad.theory import BOUND_KINDS, BoundSpec
from memgrad.verify import default_verify_config


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL = {
    "problem": {
        "name": "quadratic_diag",
        "params": {"coeffs": [2e-2, 5e-3]},
        "noise": {"kind": "gaussian", "sigma": 0.1},
    },
    "methods": [
        {"name": "memsgd", "params": {"p": 2.0, "eta": 12.5}},
        {"name": "sgd", "params": {"eta": 1.0}},
    ],
    "run": {
        "kind": "optimize",
        "iterations": 50,
        "x0": [1.0, 1.0],
        "n_seeds": 3,
        "record_stride": 5,
    },
    "output": {"directory": "out", "formats": ["csv"]},
    "master_seed": 7,
}
SIMULATE_RUN = {"kind": "simulate", "t_end": 1.0, "h": 1e-3, "x0": [1.0, 1.0]}
# Valid values of every stepper param, so that whether a method entry loads
# depends on its keys alone.
PARAM_VALUES = {
    "eta": st.floats(1e-6, 1e6), "eps": st.floats(1e-12, 1.0), "beta": st.floats(0.01, 0.99),
    "beta1": st.floats(0.0, 0.99), "beta2": st.floats(0.0, 0.99),
    "p": st.floats(2.0, 100.0), "p2": st.floats(2.0, 100.0),
    "allow_small_p": st.booleans(),
}


def small_raw(**overrides):
    return dict(copy.deepcopy(SMALL), **overrides)


def small_config(**overrides):
    return ExperimentConfig.from_dict(small_raw(**overrides))


def keyword_params(fn, skip=0):
    """Names of fn's parameters after the first ``skip``, and the required ones."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return ({p.name for p in params},
            {p.name for p in params if p.default is inspect.Parameter.empty})


def make_records(rows) -> np.recarray:
    """A trace's records from (index, time, f_gap, grad_norm, step_norm) tuples."""
    return np.array(rows, dtype=RECORD_DTYPE).view(np.recarray)


def accepted(raw) -> bool:
    try:
        ExperimentConfig.from_dict(raw)
    except ValueError:
        return False
    return True


class TestConfig:
    def test_round_trip_dict(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()

    def test_round_trip_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        cfg.to_file(path)
        again = ExperimentConfig.from_file(path)
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({
                "problem": {}, "methods": [], "run": {}, "extra": 1,
            })

    def test_grid_expansion(self):
        cfg = small_config(methods=[
            {"name": "sgd", "grid": {"eta": [0.1, 0.01]}},
            {"name": "hb", "params": {"beta": 0.9}, "grid": {"eta": [1.0]}},
        ])
        labels = [label for label, _, _ in cfg.expanded_methods()]
        assert labels == ["sgd(eta=0.1)", "sgd(eta=0.01)", "hb(beta=0.9,eta=1.0)"]

    def test_missing_run_fields_rejected(self):
        with pytest.raises(ValueError):
            small_config(run={"kind": "optimize", "x0": [1.0]})
        with pytest.raises(ValueError):
            small_config(run={"kind": "simulate", "x0": [1.0], "t_end": 1.0})

    def test_build_objective_unknown_problem(self):
        with pytest.raises(ValueError):
            build_objective({"name": "rosenbrock"})

    @pytest.mark.parametrize("raw, where, key", [
        (small_raw(methods=[{"name": "adam", "params": {"eta": 0.1, "beta_1": 0.0}}]),
         "method adam(beta_1=0.0,eta=0.1)", "beta_1"),
        (small_raw(methods=[{"name": "hb", "params": {"eta": 0.1}}]),
         "method hb(eta=0.1)", "beta"),
        (small_raw(methods=[{"name": "hb_ode", "params": {"viscocity": 1.0}}],
                   run=SIMULATE_RUN),
         "method hb_ode(viscocity=1.0)", "viscocity"),
        (small_raw(run=dict(SMALL["run"], record_strid=5)), "run", "record_strid"),
        (small_raw(problem={"name": "quartic_2d",
                            "noise": {"kind": "gaussian", "sigma": 0.5, "seed": 3}}),
         "problem.noise", "seed"),
        (small_raw(problem={"name": "quadratic_diag", "params": {"coef": [1.0]}}),
         "problem quadratic_diag", "coef"),
        (small_raw(tolerances={}), "config", "tolerances"),
        (small_raw(methods=[{"name": "adam",
                             "params": {"eta": 0.1, "eps_outside_root": True}}]),
         "method adam(eps_outside_root=True,eta=0.1)", "eps_outside_root"),
        (small_raw(methods=[{"name": "unbiased_hb",
                             "params": {"eta": 0.1, "beta": 0.9, "mode": "asymptotic"}}]),
         "method unbiased_hb(beta=0.9,eta=0.1,mode=asymptotic)", "mode"),
    ], ids=["adam-beta_1", "hb-no-beta", "hb_ode-viscocity", "run-record_strid",
            "noise-seed", "quadratic_diag-coef", "tolerances", "adam-eps_outside_root",
            "unbiased_hb-mode"])
    def test_bad_keys_rejected_at_load(self, raw, where, key):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value).startswith(f"{where}: ")
        assert f"'{key}'" in str(err.value)

    @pytest.mark.parametrize("sigma", [np.eye(3).tolist(), [0.5, 0.5], float("inf")],
                             ids=["3x3", "vector", "inf"])
    def test_sigma_of_another_shape_rejected_at_load(self, sigma):
        problem = {"name": "quadratic_diag", "params": {"coeffs": [1.0, 1.0]}}
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(small_raw(
                problem=dict(problem, noise={"kind": "gaussian", "sigma": sigma})))
        assert str(err.value).startswith("problem.noise: ")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(small_raw(
                problem=problem, run=SIMULATE_RUN,
                methods=[{"name": "hb_ode", "params": {"viscosity": 1.0, "sigma": sigma}}]))
        assert str(err.value).startswith("method hb_ode(sigma=")
        assert "sigma must be a finite scalar or a 2x2 matrix" in str(err.value)

    def test_list_sigma_becomes_a_float_array(self):
        sigma = [[0.5, 0], [0, 1]]
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [1.0, 1.0]},
                     "noise": {"kind": "gaussian", "sigma": sigma}},
            run=SIMULATE_RUN,
            methods=[{"name": "hb_ode", "params": {"viscosity": 1.0, "sigma": sigma}}])
        _, noise = build_objective(cfg.problem)
        build, kwargs = harness._method_call("simulate", "hb_ode", cfg.methods[0]["params"])
        for held in (noise.sigma, build(None, 2, **kwargs).sigma):
            assert held.dtype == np.float64
            np.testing.assert_array_equal(held, sigma)
        assert cfg.problem["noise"]["sigma"] is sigma

    @pytest.mark.parametrize("formats", [[], ["csv", "xml"], "csv"])
    def test_bad_output_formats_rejected_at_load(self, formats):
        with pytest.raises(ValueError) as err:
            small_config(output={"directory": "out", "formats": formats})
        assert str(err.value).startswith("output.formats: ")

    @pytest.mark.parametrize("raw, where", [
        (small_raw(methods=[{"name": "hb", "params": {"eta": 1.0, "beta": 1.5}}]),
         "method hb(beta=1.5,eta=1.0)"),
        (small_raw(methods=[{"name": "mg", "params": {"memory": "instantaneous"}}],
                   run=SIMULATE_RUN), "method mg(memory=instantaneous)"),
        (small_raw(run=dict(SMALL["run"], record_stride=0)), "run"),
        (small_raw(run=dict(SMALL["run"], n_seeds=0)), "run"),
        (small_raw(run=dict(SMALL["run"], n_seeds=2.5)), "run"),
        (small_raw(run=dict(SMALL["run"], iterations=-1)), "run"),
        (small_raw(run=dict(SMALL["run"], x0=[1.0, float("inf")])), "run"),
        (small_raw(run=dict(SMALL["run"], x0=[[1.0, 1.0]])), "run"),
        (small_raw(run=dict(SMALL["run"], v0=[0.0])), "run"),
        (small_raw(methods=[{"name": "hb_ode", "params": {"viscosity": 1.0}}],
                   run=dict(SIMULATE_RUN, h=-0.1)), "run"),
        (small_raw(methods=[{"name": "mg", "params": {"memory": "quadratic"}}],
                   run=dict(SIMULATE_RUN, eps_start=-1)), "run"),
        (small_raw(methods=[{"name": "nesterov", "params": {}}],
                   run=dict(SIMULATE_RUN, eps_start=2.0)), "run"),
        (small_raw(methods=[{"name": "nesterov", "params": {}}],
                   run=dict(SIMULATE_RUN, t_end=math.inf)), "run"),
        (small_raw(methods=[{"name": "nesterov", "params": {}}],
                   run=dict(SIMULATE_RUN, h=math.inf)), "run"),
        (small_raw(methods=[{"name": "nesterov", "params": {}}],
                   run=dict(SIMULATE_RUN, eps_start=math.nan)), "run"),
        (small_raw(master_seed=-1), "master_seed"),
        (small_raw(master_seed=2**64), "master_seed"),
        (small_raw(methods=[{"name": "sgd", "params": {"eta": math.nan}}]),
         "method sgd(eta=nan)"),
        (small_raw(methods=[{"name": "adam", "params": {"eta": math.inf}}]),
         "method adam(eta=inf)"),
        (small_raw(methods=[{"name": "hb_ode", "params": {"viscosity": "fast"}}],
                   run=SIMULATE_RUN), "method hb_ode(viscosity=fast)"),
        (small_raw(methods=[{"name": "hb_ode", "params": {"viscosity": "nan"}}],
                   run=SIMULATE_RUN), "method hb_ode(viscosity=nan)"),
        (small_raw(master_seed=1.5), "master_seed"),
        (small_raw(master_seed=True), "master_seed"),
        (small_raw(master_seed="7"), "master_seed"),
        (small_raw(master_seed="abc"), "master_seed"),
        (small_raw(methods=[{"name": "mg", "params": {"memory": "decaying",
                                                      "memory_param": 5.0}}],
                   run=SIMULATE_RUN), "method mg(memory=decaying,memory_param=5.0)"),
        (small_raw(methods=[{"name": "mg", "params": {"memory": "quadratic",
                                                      "memory_param": 3.0}}],
                   run=SIMULATE_RUN), "method mg(memory=quadratic,memory_param=3.0)"),
    ], ids=["hb-beta-1.5", "mg-instantaneous", "record_stride-0", "n_seeds-0",
            "n_seeds-2.5", "iterations--1", "x0-inf", "x0-2d", "v0-length",
            "h-negative", "eps_start-negative", "t_end-before-eps_start",
            "t_end-inf", "h-inf", "eps_start-nan", "master_seed--1", "master_seed-2**64",
            "sgd-eta-nan", "adam-eta-inf", "hb_ode-viscosity-fast",
            "hb_ode-viscosity-nan-string", "master_seed-1.5", "master_seed-true",
            "master_seed-string-7", "master_seed-abc", "mg-decaying-memory_param",
            "mg-alias-memory_param"])
    def test_bad_values_rejected_at_load(self, raw, where):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value).startswith(f"{where}: ")

    @pytest.mark.parametrize("method", [
        {"name": "hb_ode", "params": {"viscosity": math.nan}},
        {"name": "hb_ode", "params": {"viscosity": math.inf}},
        {"name": "mg", "params": {"memory": "exponential", "memory_param": math.inf}},
    ], ids=["hb_ode-viscosity-nan", "hb_ode-viscosity-inf", "mg-memory_param-inf"])
    def test_simulate_param_not_finite_is_named_at_load(self, method):
        key = sorted(method["params"])[-1]
        label = harness._method_label(method["name"], method["params"])
        with pytest.raises(ValueError) as err:
            small_config(methods=[method], run=SIMULATE_RUN)
        assert str(err.value).startswith(f"method {label}: {key} must be finite, got ")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_master_seeds_at_the_range_ends_load(self, seed):
        assert small_config(master_seed=seed).master_seed == seed

    def test_seed_override_out_of_range_fails_before_any_run(self, monkeypatch):
        cfg = small_config()
        cfg.master_seed = 2**64  # as cli's --seed sets it, after load
        monkeypatch.setattr(harness, "_execute_optimize",
                            lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=r"^master_seed: "):
            run_experiment(cfg)

    def test_x0_of_another_dimension_fails_before_any_run(self, monkeypatch):
        cfg = small_config(run=dict(SMALL["run"], x0=[1.0, 1.0, 1.0]))
        monkeypatch.setattr(harness, "_execute_optimize",
                            lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=r"^run: x0 has length 3, but problem "
                                             r"quadratic_diag has dim 2"):
            run_experiment(cfg)

    @pytest.mark.parametrize("params, message", [
        ({"p": 3.0}, "p, eta = 3.0, 12.5, but the method has 2.0, 12.5"),
        ({"eta": 100.0}, "p, eta = 2.0, 100.0, but the method has 2.0, 12.5"),
        ({"d": 7}, "d = 7, but x0 has length 2"),
        ({"dist2": 50.0}, "dist2 = 50.0, but ||x0 - x*||^2 = 2.0"),
        ({"p": 3.0, "eta": 100.0, "d": 7, "dist2": 50.0}, "d = 7"),
        ({"dist2": 2.0 * (1.0 + 1e-11)}, "||x0 - x*||^2 = 2.0"),
    ], ids=["p", "eta", "d", "dist2", "all-four", "dist2-off-by-1e-11"])
    def test_bound_that_misdescribes_its_run_fails_before_any_run(self, monkeypatch,
                                                                  params, message):
        cfg = default_verify_config()
        cfg.bounds[0]["params"].update(params)
        cfg.validate()  # the params bind to the formula; only the run disagrees
        monkeypatch.setattr(harness, "_execute_optimize",
                            lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError) as err:
            run_experiment(cfg)
        assert str(err.value).startswith(
            "bounds: memsgd_discrete on memsgd(eta=12.5,p=2.0): ")
        assert message in str(err.value)

    def test_memsgd_bound_beyond_its_stepsize_hypothesis_fails_before_any_run(
            self, monkeypatch):
        # quadratic_diag([2e-2, 5e-3]) has L = 0.04, so (p-1)/(pL) = 12.5 at p = 2.
        cfg = default_verify_config()
        cfg.methods[0]["params"]["eta"] = 200.0
        cfg.bounds[0].update(method="memsgd(eta=200.0,p=2.0)")
        cfg.bounds[0]["params"]["eta"] = 200.0
        monkeypatch.setattr(harness, "_execute_optimize",
                            lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=r"eta = 200.0 exceeds \(p-1\)/\(pL\) = 12.5"):
            run_experiment(cfg)

    def test_memsgd_bound_below_p_2_fails_at_load_before_any_stepper_call(
            self, monkeypatch):
        # The method may run at p = 1.5 (allow_small_p), but its bound cannot.
        def stepper(*args, **kwargs):
            pytest.fail("a stepper was called")

        stepper.__wrapped__ = optimizers.memsgd_p_step  # what validate's dry step runs
        monkeypatch.setattr(optimizers, "memsgd_p_step", stepper)
        cfg = default_verify_config()
        cfg.methods[0]["params"].update(p=1.5, eta=1.0, allow_small_p=True)
        cfg.bounds[0].update(method="memsgd(allow_small_p=True,eta=1.0,p=1.5)")
        cfg.bounds[0]["params"].update(p=1.5, eta=1.0)
        message = (r"^bounds: memsgd_discrete on memsgd\(allow_small_p=True,eta=1.0,"
                   r"p=1.5\): the discrete-time rate needs p >= 2$")
        with pytest.raises(ValueError, match=message):
            cfg.validate()
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)

    @pytest.mark.parametrize("config", [
        default_verify_config(), ExperimentConfig.from_file(CONFIG_DIR / "quartic_noise.json"),
        small_config(bounds=[{"kind": "memsgd_discrete", "method": "memsgd(eta=12.5,p=2.0)",
                              "params": {"p": 2.0, "eta": 12.5, "d": 2,
                                         "dist2": 2.0 * (1.0 + 1e-13)}}]),
    ], ids=["verify", "quartic_noise", "dist2-off-by-1e-13"])
    def test_declared_bounds_that_describe_their_runs_pass(self, config):
        # quartic's eta is (p-1)/(pL) up to rounding, inside the 1e-12 slack.
        obj, _ = build_objective(config.problem)
        harness._check_against_objective(config, obj)

    def test_dry_step_bypasses_a_wrapped_stepper(self, monkeypatch):
        # A tracer replaces module attributes with wrappers that set
        # __wrapped__; loading must not count as a stepper call.
        calls, step = [], optimizers.sgd_step

        def traced(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        traced.__wrapped__ = step
        monkeypatch.setattr(optimizers, "sgd_step", traced)
        cfg = small_config(methods=[{"name": "sgd", "params": {"eta": 1.0}}])
        assert calls == []
        run_experiment(cfg)
        assert len(calls) == SMALL["run"]["n_seeds"] * SMALL["run"]["iterations"]

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda path: path.name)
    def test_shipped_configs_load(self, path):
        ExperimentConfig.from_file(path)

    @settings(deadline=None)
    @given(st.data())
    def test_method_params_accepted_iff_signature_takes_them(self, data):
        name = data.draw(st.sampled_from(sorted(METHODS)))
        names, required = keyword_params(getattr(optimizers, METHODS[name]), skip=2)
        keys = data.draw(st.sets(st.sampled_from(sorted(names) + ["beta_1", "lr"])))
        params = {k: data.draw(PARAM_VALUES.get(k, st.just(0.5))) for k in sorted(keys)}
        raw = small_raw(methods=[{"name": name, "params": params}])
        assert accepted(raw) == (keys <= names and required <= keys)

    @settings(deadline=None)
    @given(st.data())
    def test_problem_params_accepted_iff_signature_takes_them(self, data):
        name = data.draw(st.sampled_from(PROBLEMS))
        names, required = keyword_params(getattr(problems, name))
        keys = data.draw(st.sets(st.sampled_from(sorted(names) + ["coef", "noise"])))
        raw = small_raw(problem={"name": name, "params": dict.fromkeys(keys, 1)})
        assert accepted(raw) == (keys <= names and required <= keys)

    @pytest.mark.parametrize("bound, message", [
        ({"kind": "memsgd_discrete", "method": "memsgd(eta=12.5,p=2.0)",
          "params": {"p": 2.0, "eta": 12.5, "d": 2}}, "'dist2'"),
        ({"kind": "memsgd_discrete", "method": "memsgd(eta=12.5,p=2.0)",
          "params": {"p": 2.0, "eta": 12.5, "d": 2, "dist2": 2.0, "dist": 2.0}},
         "'dist'"),
        ({"kind": "memsgd_discrete", "method": "memsgd(eta=12.5,p=2.0)",
          "params": {"p": 2.0, "eta": 12.5, "d": 2, "dist2": 2.0, "k": 3}}, "'k'"),
        ({"kind": "memsgd_discrete", "method": "memsgd(eta=1.0,p=2.0)",
          "params": {"p": 2.0, "eta": 12.5, "d": 2, "dist2": 2.0}},
         "'memsgd(eta=1.0,p=2.0)' is not one of"),
        ({"kind": "memsgd_discrete", "method": "sgd(eta=1.0)",
          "params": {"p": 2.0, "eta": 12.5, "d": 2, "dist2": 2.0}},
         "does not apply to method 'sgd(eta=1.0)'"),
    ], ids=["missing-dist2", "unknown-key", "index-as-param", "no-such-method",
            "wrong-family"])
    def test_bad_bounds_rejected_at_load(self, bound, message):
        with pytest.raises(ValueError) as err:
            small_config(bounds=[bound])
        assert str(err.value).startswith(f"bounds: {bound['kind']} on {bound['method']}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("method, kind, params, message", [
        ({"name": "hb_ode", "params": {"viscosity": 0.3}}, "strongly_convex_hb",
         {"alpha": -1.0, "mu": 0.005, "f_gap0": 0.0125, "d": 2, "dist2": 2.0},
         "need alpha, tau, mu_tilde > 0"),
        ({"name": "mg", "params": {"memory": "quadratic"}}, "strongly_convex_mg",
         {"alpha": 1.0, "mu": 0.0, "f_gap0": 0.0125, "d": 2, "dist2": 2.0},
         "need alpha, tau, mu_tilde > 0"),
        ({"name": "mg", "params": {"memory": "quadratic"}}, "exp_cesaro",
         {"alpha": 1.0, "tau": 2.0, "f_gap0": 0.0125, "d": 2, "dist2": 2.0},
         "tau in (0, 1]"),
        ({"name": "mg", "params": {"memory": "quadratic"}}, "poly_continuous",
         {"p": 3.0, "sigma2": -1.0, "d": 2, "dist2": 2.0}, "sigma2 >= 0"),
    ], ids=["strongly_convex_hb-alpha--1", "strongly_convex_mg-mu-0", "exp_cesaro-tau-2",
            "poly_continuous-sigma2--1"])
    def test_bound_its_formula_rejects_fails_at_load(self, method, kind, params, message):
        label = harness._method_label(method["name"], method["params"])
        raw = small_raw(methods=[method], run=SIMULATE_RUN,
                        bounds=[{"kind": kind, "method": label, "params": params}])
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value).startswith(f"bounds: {kind} on {label}: ")
        assert message in str(err.value)

    @settings(deadline=None)
    @given(st.data())
    def test_bound_params_accepted_iff_formula_takes_them(self, data):
        kind = data.draw(st.sampled_from(sorted(BOUND_KINDS)))
        entry = BOUND_KINDS[kind]
        names, required = keyword_params(getattr(theory, entry.formula))
        set_by_kind = {entry.index} | {name for name, _ in entry.fixed}
        names, required = names - set_by_kind, required - set_by_kind - {entry.noise}
        keys = data.draw(st.sets(st.sampled_from(sorted(names | {"dist", "t", "k"}))))
        try:
            BoundSpec(kind, {key: 1.0 if key == "tau" else 2.0 for key in keys})
        except ValueError:
            ok = False
        else:
            ok = True
        assert ok == (keys <= names and required <= keys)

    @settings(deadline=None)
    @given(st.data())
    def test_round_trip_is_identity(self, data):
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        methods = []
        for name in data.draw(st.lists(st.sampled_from(sorted(METHODS)), min_size=1,
                                       max_size=4, unique=True)):
            names, required = keyword_params(getattr(optimizers, METHODS[name]), skip=2)
            keys = required | data.draw(st.sets(st.sampled_from(sorted(names))))
            methods.append({"name": name, "params": {k: data.draw(PARAM_VALUES[k])
                                                     for k in sorted(keys)}})
        raw = {
            "problem": {"name": "quadratic_diag",
                        "params": {"coeffs": data.draw(st.lists(finite, min_size=1))},
                        "noise": {"kind": "gaussian", "sigma": data.draw(finite)}},
            "methods": methods,
            "run": {"kind": "optimize", "iterations": data.draw(st.integers(1, 10**6)),
                    "x0": [data.draw(finite)], "n_seeds": data.draw(st.integers(1, 99)),
                    "record_stride": data.draw(st.integers(1, 99))},
            "output": {"directory": data.draw(st.text(min_size=1)), "formats": ["csv"]},
            "bounds": [],
            "master_seed": data.draw(st.integers(0, 2**64 - 1)),
        }
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg.to_dict() == raw
        assert again.to_dict() == raw
        assert again.config_hash() == cfg.config_hash()


class TestRunDeterminism:
    def test_identical_reruns(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.run_id == tb.run_id
            assert ta.records.tolist() == tb.records.tolist()

    def test_adding_methods_preserves_other_runs(self):
        # Substreams are keyed by run id, not position, so extending the
        # method list must not perturb existing runs' noise.
        cfg_small = small_config(methods=[{"name": "sgd", "params": {"eta": 1.0}}])
        cfg_big = small_config(methods=[
            {"name": "hb", "params": {"eta": 1.0, "beta": 0.9}},
            {"name": "sgd", "params": {"eta": 1.0}},
        ])
        small_traces = {
            t.run_id: t for t in run_experiment(cfg_small).traces
        }
        big_traces = {t.run_id: t for t in run_experiment(cfg_big).traces}
        for run_id, tr in small_traces.items():
            assert big_traces[run_id].records.tolist() == tr.records.tolist()


class TestDivergenceContainment:
    def test_diverging_run_is_contained(self):
        # A wildly unstable stepsize on a curved quadratic overflows; the
        # run must flag, keep earlier records, and not abort the batch.
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [50.0, 50.0]}},
            methods=[
                {"name": "hb", "params": {"eta": 10.0, "beta": 0.99}},
                {"name": "sgd", "params": {"eta": 0.001}},
            ],
            run={
                "kind": "optimize", "iterations": 400, "x0": [1.0, 1.0],
                "n_seeds": 2, "record_stride": 1,
            },
        )
        result = run_experiment(cfg)
        by_method = {}
        for t in result.traces:
            by_method.setdefault(t.method.split("(")[0], []).append(t)
        assert all(t.status.startswith("diverged@") for t in by_method["hb"])
        assert all(t.status == "completed" for t in by_method["sgd"])
        diverged = by_method["hb"][0]
        assert len(diverged.records) >= 1
        assert all(np.isfinite(r.grad_norm) for r in diverged.records)
        # Aggregates adjust n_runs beyond the failure index.
        label = by_method["sgd"][0].method
        agg = result.aggregates[label]
        assert agg.n_runs.max() == 2


class TestRecordOverflow:
    def test_overflowing_f_gap_alone_stops_the_run(self):
        # f = 1e-100 |x|^2 overflows at x0, where the gradient norm is about
        # 3e105, so only the f_gap check can stop this run.
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [1e-100, 1e-100]}},
            methods=[{"name": "sgd", "params": {"eta": 1.0}}],
            run={"kind": "optimize", "iterations": 5, "x0": [1e205, 1e205], "n_seeds": 1},
        )
        obj, _ = build_objective(cfg.problem)
        with np.errstate(over="ignore"):
            assert np.isinf(obj.f_gap(np.array([1e205, 1e205])))
        result = run_experiment(cfg)
        (trace,) = result.traces
        assert trace.status == "diverged@0" and len(trace.records) == 0
        assert result.aggregates[trace.method].index.size == 0


class TestSgdDivergence:
    def test_reported_at_the_overflowing_step(self):
        # sgd on f = (x1^2 + x2^2)/2 with eta = 1e100 multiplies the iterate
        # by about -1e100 per step, so it overflows while its gradient is
        # still finite.
        eta, x0 = 1e100, [1.0, 1.0]
        x = np.array(x0)
        with np.errstate(over="ignore", invalid="ignore"):
            for first_bad in range(1, 100):
                g = x
                x = x - eta * g
                if not (np.isfinite(g).all() and np.isfinite(x).all()):
                    break
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.5]}},
            methods=[{"name": "sgd", "params": {"eta": eta}}],
            run={"kind": "optimize", "iterations": 10, "x0": x0, "n_seeds": 1,
                 "record_stride": 10},
        )
        (trace,) = run_experiment(cfg).traces
        assert trace.status == f"diverged@{first_bad}"


class TestRecordBlocks:
    """Optimize runs hold every recorded step and evaluate them in one call;
    runs of more than 64 records keep every record and stop at the first
    that overflows."""

    @pytest.mark.parametrize("iterations,stride", [(64, 1), (128, 1), (130, 2), (200, 3)])
    def test_completed_run_keeps_every_record(self, iterations, stride):
        cfg = small_config(run=dict(SMALL["run"], iterations=iterations,
                                    record_stride=stride, n_seeds=1))
        expected = list(range(0, iterations + 1, stride))
        if iterations % stride:
            expected.append(iterations)
        assert len(expected) == 1 + iterations // stride + (iterations % stride > 0)
        assert len(expected) > 64
        for trace in run_experiment(cfg).traces:
            assert trace.status == "completed"
            assert [r.index for r in trace.records] == expected

    def test_overflow_found_in_a_later_block(self):
        # A random walk of about 8e49 per step, started at 5e50 on the
        # quartic, whose gradient norm overflows once |x1| passes 1.56e51
        # while the iterate stays finite.  The run must stop at the first
        # overflowing record, as a plain record-by-record loop does.
        x0, eta, stride = [5e50, 5e50], 1e-120, 2
        cfg = small_config(
            problem={"name": "quartic_2d", "noise": {"kind": "gaussian", "sigma": 8e169}},
            methods=[{"name": "sgd", "params": {"eta": eta}}],
            run={"kind": "optimize", "iterations": 400, "x0": x0, "n_seeds": 1,
                 "record_stride": stride},
            master_seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (trace,) = run_experiment(cfg).traces

        obj, noise = build_objective(cfg.problem)
        rng = harness._run_rng(cfg.master_seed, trace.run_id)
        state = optimizers.OptimizerState.initial(np.array(x0))
        expected, first_bad = [], None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(401):
                if k:
                    g = problems.stochastic_gradient(obj, noise, state.x, rng)
                    state = optimizers.sgd_step(state, g, eta=eta)
                    if k % stride:
                        continue
                rec = (k, obj.f_gap(state.x), np.linalg.norm(obj.grad(state.x)),
                       float(np.linalg.norm(state.x - state.x_prev)))
                if np.isinf(rec[1]) or not np.isfinite(rec[2:]).all():
                    first_bad = k
                    break
                expected.append(rec)
        assert first_bad is not None and len(expected) > 64
        assert np.isfinite(state.x).all()
        assert trace.status == f"diverged@{first_bad}"
        assert [(r.index, r.time, r.step_norm) for r in trace.records] == \
            [(k, float(k), step) for k, _, _, step in expected]
        got = np.array([[r.f_gap, r.grad_norm] for r in trace.records])
        np.testing.assert_allclose(got, [[f, g] for _, f, g, _ in expected], rtol=1e-15)


class TestNoiseDrawnPerRun:
    """An optimize run draws its noise a block at a time from its substream;
    each step must see the draw a per-step call on that stream gives."""

    @pytest.mark.parametrize("noise_block", [4, harness.NOISE_BLOCK])
    @pytest.mark.parametrize("problem, method", [
        # Finite sums with margins past exp's overflow: the component weight is 0.
        ({"name": "logistic_synthetic", "params": {"n": 20, "dim": 5, "seed": 0},
          "noise": {"kind": "finite_sum"}}, {"name": "sgd", "params": {"eta": 1e5}}),
        ({"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.1, 0.2]},
          "noise": {"kind": "gaussian", "sigma": [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1],
                                                  [0.1, 0.0, 0.4]]}},
         {"name": "hb", "params": {"eta": 0.5, "beta": 0.8}}),
    ], ids=["logistic-finite-sum", "quadratic-matrix-sigma"])
    def test_steps_match_per_step_draws(self, monkeypatch, noise_block, problem, method):
        monkeypatch.setattr(harness, "NOISE_BLOCK", noise_block)
        iterations, stride = 50, 5
        cfg = small_config(problem=problem, methods=[method], master_seed=3,
                           run={"kind": "optimize", "iterations": iterations,
                                "x0": [0.0] * problem.get("params", {}).get("dim", 3),
                                "n_seeds": 3, "record_stride": stride})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run_experiment(cfg).traces
        obj, noise = build_objective(cfg.problem)
        stepper = getattr(optimizers, METHODS[method["name"]])
        for trace in traces:
            assert trace.status == "completed"
            rng = harness._run_rng(cfg.master_seed, trace.run_id)
            state = optimizers.OptimizerState.initial(np.array(cfg.run["x0"]))
            step_norms = [0.0]
            for k in range(1, iterations + 1):
                g = problems.stochastic_gradient(obj, noise, state.x, rng)
                state = stepper(state, g, **method["params"])
                if k % stride == 0:
                    step_norms.append(float(np.linalg.norm(state.x - state.x_prev)))
            assert trace.records.step_norm.tolist() == step_norms
        if problem["name"] == "logistic_synthetic":
            assert np.isnan(np.concatenate([t.records.f_gap for t in traces])).all()


def reference_optimize(cfg) -> dict:
    """Each run of an optimize config stepped alone from its own substream: a
    stochastic gradient drawn per step, and the stepper.  The run diverges at
    the first step whose iterate is not finite, and its records stop before
    the first that overflows.  Each record is evaluated beside a copy of
    itself, as a block of rows evaluates it.  Run id -> (status, cause,
    records), the cause ``iterate``, ``record`` or None."""
    obj, noise = build_objective(cfg.problem)
    iterations, stride = cfg.run["iterations"], cfg.run.get("record_stride", 1)
    out = {}
    for label, name, params in cfg.expanded_methods():
        stepper = getattr(optimizers, METHODS[name])
        for seed in range(cfg.run["n_seeds"]):
            run_id = f"{label}|seed={seed}"
            rng = harness._run_rng(cfg.master_seed, run_id)
            state = optimizers.OptimizerState.initial(np.array(cfg.run["x0"], dtype=float))
            rows, status, cause, records = [(0, state.x, 0.0)], "completed", None, []
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, iterations + 1):
                    g = problems.stochastic_gradient(obj, noise, state.x, rng)
                    state = stepper(state, g, **params)
                    if not np.isfinite(state.x).all():
                        status, cause = f"diverged@{k}", "iterate"
                        break
                    if k % stride == 0 or k == iterations:
                        rows.append((k, state.x, float(np.linalg.norm(state.x - state.x_prev))))
                for k, x, step_norm in rows:
                    pair = np.stack([x, x])
                    f_gap = math.nan if obj.f_star is None else obj.f_gap(pair)[0]
                    grad_norm = np.linalg.norm(obj.grad(pair), axis=-1)[0]
                    if np.isinf(f_gap) or not np.isfinite([grad_norm, step_norm]).all():
                        status, cause = f"diverged@{k}", "record"
                        break
                    records.append((k, float(k), f_gap, grad_norm, step_norm))
            out[run_id] = (status, cause, make_records(records))
    return out


class TestOptimizeLockstep:
    """A method's seeds step together in groups, with one noise block, one
    gradient call and one finiteness check per step, and the records of a
    group's recorded steps evaluated in one call; every run must match the
    same run stepped alone, at every record stride."""

    @staticmethod
    def run_grouped(monkeypatch, cfg, rows_per_group):
        if rows_per_group is not None:
            monkeypatch.setattr(harness, "STEP_BLOCK", rows_per_group * len(cfg.run["x0"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_experiment(cfg).traces

    @staticmethod
    def assert_matches(traces, reference, rtol):
        assert sorted(t.run_id for t in traces) == sorted(reference)
        for trace in traces:
            status, _, expected = reference[trace.run_id]
            assert trace.status == status, trace.run_id
            assert trace.records.index.tolist() == expected.index.tolist()
            assert trace.records.time.tolist() == expected.time.tolist()
            for name in STATS:
                if rtol:
                    np.testing.assert_allclose(trace.records[name], expected[name], rtol=rtol)
                else:
                    assert trace.records[name].tobytes() == expected[name].tobytes(), name

    # 40 steps: a stride of 4 records the last on the stride, 7 and None (3) off it.
    @pytest.mark.parametrize("stride", [4, 7, None])
    @pytest.mark.parametrize("rows_per_group", [1, 2, None])
    @pytest.mark.parametrize("problem, methods", [
        ({"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.1]}},
         [{"name": "memsgd", "params": {"p": 2.0, "eta": 0.5}},
          {"name": "adam", "params": {"eta": 0.05}}]),
        ({"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.1]},
          "noise": {"kind": "gaussian", "sigma": 0.3}},
         [{"name": "sgd", "params": {"eta": 0.5}},
          {"name": "hb", "params": {"eta": 0.5, "beta": 0.8}},
          {"name": "adagrad", "params": {"eta": 0.1}}]),
        ({"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.1, 0.2]},
          "noise": {"kind": "gaussian", "sigma": [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1],
                                                  [0.1, 0.0, 0.4]]}},
         [{"name": "unbiased_hb", "params": {"eta": 0.5, "beta": 0.8}},
          {"name": "adamnc", "params": {"eta": 0.05}},
          {"name": "polyadam", "params": {"eta": 0.05, "p2": 2.0}}]),
        # Finite sums with margins past exp's overflow: the component weight is 0.
        ({"name": "logistic_synthetic", "params": {"n": 50, "dim": 4, "seed": 0},
          "noise": {"kind": "finite_sum"}},
         [{"name": "sgd", "params": {"eta": 1e5}}, {"name": "adam", "params": {"eta": 0.05}}]),
    ], ids=["none", "scalar-sigma", "matrix-sigma", "finite-sum"])
    def test_runs_match_runs_stepped_alone(self, monkeypatch, problem, methods,
                                           rows_per_group, stride):
        d = len(problem["params"].get("coeffs", [])) or problem["params"]["dim"]
        cfg = small_config(problem=problem, methods=methods, master_seed=5,
                           run={"kind": "optimize", "iterations": 40, "x0": [0.5] * d,
                                "n_seeds": 3, "record_stride": stride or 3})
        reference = reference_optimize(cfg)
        traces = self.run_grouped(monkeypatch, cfg, rows_per_group)
        assert all(t.status == "completed" for t in traces)
        self.assert_matches(traces, reference, rtol=0)

    @pytest.mark.parametrize("stride", [5, None])
    @pytest.mark.parametrize("rows_per_group", [1, 4, None])
    def test_rows_diverge_and_overflow_at_their_own_steps(self, monkeypatch, rows_per_group,
                                                          stride):
        # SGD on the quartic under heavy noise: a seed whose walk passes
        # |x| ~ 8 blows up in a few steps.  Its iterate overflows between
        # stride-4 records, or a record on the way overflows f_gap while the
        # iterate is still finite (None keeps a stride of 4).  Quartic's x**3 on
        # an array differs in the last bit from x**3 on a scalar, so the columns
        # match to 1e-12.
        cfg = small_config(
            problem={"name": "quartic_2d", "noise": {"kind": "gaussian", "sigma": 250.0}},
            methods=[{"name": "sgd", "params": {"eta": 0.01}},
                     {"name": "unbiased_hb", "params": {"eta": 0.01, "beta": 0.5}}],
            run={"kind": "optimize", "iterations": 150, "x0": [0.0, 0.0], "n_seeds": 6,
                 "record_stride": stride or 4},
            master_seed=0,
        )
        reference = reference_optimize(cfg)
        sgd = [reference[f"sgd(eta=0.01)|seed={seed}"] for seed in range(6)]
        iterate_steps = {status for status, cause, _ in sgd if cause == "iterate"}
        assert len(iterate_steps) >= 2
        assert any(cause == "record" for _, cause, _ in sgd)
        assert any(cause is None for _, cause, _ in sgd)
        traces = self.run_grouped(monkeypatch, cfg, rows_per_group)
        self.assert_matches(traces, reference, rtol=1e-12)

    @pytest.mark.parametrize("n_seeds", [1, 3, 8, 40, 150],
                             ids=["n1", "n3", "n8", "n40", "n150"])
    def test_record_calls_take_whole_recorded_steps(self, monkeypatch, n_seeds):
        # 11 recorded steps a run, all held by the group and evaluated in one call.
        calls = []

        def records(obj, indices, times, xs, step_norms):
            calls.append((np.shape(xs), np.ravel(indices).tolist()))
            return RECORDS(obj, indices, times, xs, step_norms)

        RECORDS = harness._records
        monkeypatch.setattr(harness, "_records", records)
        cfg = small_config(run=dict(SMALL["run"], n_seeds=n_seeds))
        traces = run_experiment(cfg).traces
        assert sum(len(t.records) for t in traces) == 2 * n_seeds * 11
        assert [shape for shape, _ in calls] == 2 * [(11, n_seeds, 2)]
        assert [steps for _, steps in calls] == 2 * [list(range(0, 51, 5))]

    def test_lone_record_row_matches_a_block_row(self):
        # A one-seed run of no iterations records one iterate.  Evaluated alone,
        # its 500-wide products would take BLAS's matrix-vector path, whose sums
        # differ from a two-row block's for about a third of random points;
        # beside a copy of itself it must give record 0 of a one-step run, whose
        # call holds two rows, bit for bit.
        problem = {"name": "logistic_synthetic", "params": {"n": 400, "dim": 500, "seed": 0}}
        for x0 in np.random.default_rng(11).standard_normal((5, 500)).tolist():
            first = []
            for iterations in (0, 1):
                cfg = small_config(problem=problem, methods=[{"name": "sgd",
                                                              "params": {"eta": 0.1}}],
                                   run={"kind": "optimize", "iterations": iterations,
                                        "x0": x0, "n_seeds": 1})
                (trace,) = run_experiment(cfg).traces
                first.append(trace.records[0].tobytes())
            assert first[0] == first[1]


class TestSimulateDivergence:
    def test_reported_at_the_grid_step(self):
        # Frictionless explicit Euler on a stiff quadratic grows about
        # tenfold per step of h = 1.  f = 50 |x|^2 overflows at |x| ~ 1e153,
        # long before the state does, so the run stops at the first
        # stride-7 record whose f_gap is inf.
        coeffs, h, x0, stride = [50.0, 50.0], 1.0, [1.0, 1.0], 7
        obj = problems.quadratic_diag(coeffs)
        x, v = np.array(x0), np.zeros(2)
        kept, prev = 1, x  # the record at t = eps_start
        with np.errstate(over="ignore", invalid="ignore"):
            for first_bad in range(1, 10**4):
                x, v = x + h * v, v + h * (-0.0 * v - obj.grad(x))
                if not (np.isfinite(x).all() and np.isfinite(v).all()):
                    break
                if first_bad % stride:
                    continue
                norms = (np.linalg.norm(obj.grad(x)), np.linalg.norm(x - prev))
                if np.isinf(obj.f_gap(x)) or not np.isfinite(norms).all():
                    break
                kept, prev = kept + 1, x
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": coeffs}},
            methods=[{"name": "hb_ode", "params": {"viscosity": 0.0}}],
            run={"kind": "simulate", "t_end": 1000.0, "h": h, "x0": x0,
                 "n_seeds": 1, "record_stride": stride},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (trace,) = run_experiment(cfg).traces
        assert first_bad % stride == 0  # a record overflowed, not the state
        assert trace.status == f"diverged@{first_bad}"
        assert len(trace.records) == kept
        assert all(np.isfinite([r.f_gap, r.grad_norm, r.step_norm]).all()
                   for r in trace.records)


    def test_integrator_and_record_overflow_in_one_batch(self):
        # On f = 4 |x|^2 at h = 1, explicit Euler grows the noise about 5x a
        # step at viscosity -6, and the state is not finite at step 442 or
        # 443, between stride-500 records.  At viscosity 0 it grows about 3x
        # a step and stays finite, but the record at step 500 overflows f_gap.
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [4.0, 4.0]}},
            methods=[{"name": "hb_ode", "params": {"sigma": 1.0},
                      "grid": {"viscosity": [0.0, -6.0]}}],
            run={"kind": "simulate", "t_end": 1001.0, "h": 1.0, "eps_start": 1.0,
                 "x0": [0.0, 0.0], "n_seeds": 3, "record_stride": 500},
            master_seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run_experiment(cfg).traces
        assert [(t.method[-5:], t.seed, t.status) for t in traces] == [
            ("-6.0)", 0, "diverged@442"), ("-6.0)", 1, "diverged@442"),
            ("-6.0)", 2, "diverged@443"), ("=0.0)", 0, "diverged@500"),
            ("=0.0)", 1, "diverged@500"), ("=0.0)", 2, "diverged@500")]
        assert all(len(t.records) == 1 for t in traces)  # the start alone

class TestSimulateLockstep:
    """All seeds of a simulate method step together; each must match a run
    integrated alone from its own substream."""

    COEFFS, SIGMA = [1.5, 1.5], 1.0

    def _reference(self, seed, n_steps, stride):
        # Frictionless Euler-Maruyama on a stiff quadratic from rest, one
        # step of h = 1 per grid step from t = 1: the state doubles about
        # every step, so noise alone sets when each seed overflows.
        obj = problems.quadratic_diag(self.COEFFS)
        rng = harness._run_rng(0, f"hb_ode(sigma=1.0,viscosity=0.0)|seed={seed}")
        x, v, prev = np.zeros(2), np.zeros(2), np.zeros(2)
        records = [(0, 1.0, 0.0, 0.0, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, n_steps + 1):
                xi = rng.standard_normal(2)
                x, v = x + v, v + (-0.0 * v - obj.grad(x)) - self.SIGMA * xi
                if not (np.isfinite(x).all() and np.isfinite(v).all()):
                    return records, j
                if j % stride and j != n_steps:
                    continue
                g, dx = obj.grad(x), x - prev
                rec = (len(records), 1.0 + j, float(obj.f_gap(x)),
                       math.sqrt(np.sum(g * g)), math.sqrt(np.sum(dx * dx)))
                if not np.isfinite(rec[2:]).all():
                    return records, j
                records.append(rec)
                prev = x
        return records, None

    @pytest.mark.parametrize("stride", [1, 1200])
    def test_seeds_diverge_at_their_own_steps(self, stride):
        n_seeds, n_steps = 6, 1200
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": self.COEFFS}},
            methods=[{"name": "hb_ode", "params": {"viscosity": 0.0,
                                                   "sigma": self.SIGMA}}],
            run={"kind": "simulate", "t_end": 1.0 + n_steps, "h": 1.0,
                 "eps_start": 1.0, "x0": [0.0, 0.0], "n_seeds": n_seeds,
                 "record_stride": stride},
            master_seed=0,
        )
        traces = run_experiment(cfg).traces
        stops = []
        for trace in traces:
            records, stop = self._reference(trace.seed, n_steps, stride)
            got = [(r.index, r.time, r.f_gap, r.grad_norm, r.step_norm)
                   for r in trace.records]
            assert got == records
            assert trace.status == f"diverged@{stop}"
            stops.append(stop)
        assert len(set(stops)) > 1

    @settings(deadline=None, max_examples=50)
    @given(master=st.integers(0, 2**64 - 1), run_id=st.text(max_size=20),
           n=st.integers(1, 40), d=st.integers(1, 6), m=st.integers(1, 2**40))
    def test_block_draws_continue_the_stream(self, master, run_id, n, d, m):
        block = harness._run_rng(master, run_id).standard_normal((n, d))
        rng = harness._run_rng(master, run_id)
        assert np.array_equal(block, [rng.standard_normal(d) for _ in range(n)])
        ints = harness._run_rng(master, run_id).integers(m, size=n)
        rng = harness._run_rng(master, run_id)
        assert np.array_equal(ints, [rng.integers(m) for _ in range(n)])

    def test_row_noise_crosses_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "NOISE_BLOCK", 7)
        ids = ["a", "b", "c"]
        draw = harness._row_noise([harness._run_rng(3, i) for i in ids], 2)
        blocks = np.array([draw() for _ in range(5)])
        for row, run_id in enumerate(ids):
            rng = harness._run_rng(3, run_id)
            assert np.array_equal(blocks[:, row], [rng.standard_normal(2) for _ in range(5)])


class TestTraceBuilder:
    """Both run kinds end in one builder, which cuts each run before its
    first overflowing record and reports the earlier of that record's step
    and the step its state stopped being finite."""

    @pytest.mark.parametrize("kind", ["optimize", "simulate"])
    def test_status_is_the_earlier_of_record_and_state(self, kind):
        # Optimize records carry their step; simulate records count
        # themselves and carry the time eps_start + j h at h = 0.5.
        steps = np.array([0, 4, 8, 12, 16])  # the recorded steps
        index = steps if kind == "optimize" else np.arange(steps.size)
        time = steps if kind == "optimize" else 1.0 + 0.5 * steps
        records = np.recarray((steps.size, 4), dtype=RECORD_DTYPE)
        records.index, records.time = index[:, None], time[:, None]
        records.f_gap = records.grad_norm = records.step_norm = 1.0
        records.f_gap[:, 0] = np.nan  # an objective with no optimal value: kept
        records.f_gap[2, 1] = np.inf  # overflows at step 8, the state stops at 14
        records[3:, 2].grad_norm = records[3:, 2].step_norm = np.nan  # stops at 10
        records[0, 3].step_norm = np.inf  # overflows at step 0, never stops
        stopped = np.array([0, 14, 10, 0])
        traces = harness._traces("m", range(4), records, steps, stopped)
        assert [t.status for t in traces] == ["completed", "diverged@8", "diverged@10",
                                              "diverged@0"]
        assert [len(t.records) for t in traces] == [5, 2, 3, 0]
        for row, trace in enumerate(traces):
            assert trace.run_id == f"m|seed={row}" and trace.seed == row
            assert trace.records.tobytes() == records[:len(trace.records), row].tobytes()


def reference_aggregates(traces) -> dict[str, dict[str, np.ndarray]]:
    """Per-method, per-index mean and CI, grouping record by record in seed
    order; a mean or std that overflows is taken again on values scaled by
    their largest magnitude."""
    per_method = {}
    for tr in sorted(traces, key=lambda t: (t.method, t.seed)):
        per_index = per_method.setdefault(tr.method, {})
        for rec in tr.records:
            per_index.setdefault(int(rec.index), []).append(rec)
    out = {}
    for method, per_index in per_method.items():
        indices = sorted(per_index)
        cols = {"index": np.array(indices),
                "time": np.array([per_index[i][0].time for i in indices]),
                "n_runs": np.array([len(per_index[i]) for i in indices])}
        for name in ("f_gap", "grad_norm", "step_norm"):
            means, cis = [], []
            for i in indices:
                values = np.array([getattr(r, name) for r in per_index[i]])
                with np.errstate(over="ignore"):
                    mean = values.mean()
                if np.isinf(mean):
                    scale = np.abs(values).max()
                    mean = scale * (values / scale).mean()
                means.append(mean)
                if values.size < 2:
                    cis.append(0.0)
                    continue
                with np.errstate(over="ignore"):
                    std = values.std(ddof=1)
                if not np.isfinite(std):
                    scale = np.abs(values).max()
                    std = scale * (values / scale).std(ddof=1)
                cis.append(1.96 * std / math.sqrt(values.size))
            cols[f"{name}_mean"], cols[f"{name}_ci"] = np.array(means), np.array(cis)
        out[method] = cols
    return out


class TestAggregation:
    def _synthetic_traces(self):
        rng = np.random.default_rng(3)
        traces = []
        for seed in range(4):
            records = make_records([
                (i, float(i), float(rng.uniform()), float(rng.uniform()),
                 float(rng.uniform()))
                for i in range(5)
            ])
            traces.append(Trace(run_id=f"m|seed={seed}", method="m", seed=seed,
                                records=records))
        return traces

    def test_mean_and_ci_against_reference(self):
        traces = self._synthetic_traces()
        agg = aggregate_traces(traces)["m"]
        for pos, idx in enumerate(agg.index):
            vals = np.array([t.records[pos].f_gap for t in traces])
            np.testing.assert_allclose(agg.f_gap_mean[pos], vals.mean(), atol=1e-12)
            expected_ci = 1.96 * vals.std(ddof=1) / math.sqrt(vals.size)
            np.testing.assert_allclose(agg.f_gap_ci[pos], expected_ci, atol=1e-12)

    def test_matches_a_per_index_loop(self):
        # Unequal lengths, as diverged runs leave them, in shuffled seed
        # order, and constant_field's NaN f_gap (it has no optimum).
        rng = np.random.default_rng(11)
        traces = []
        for seed, n in zip([3, 0, 4, 1, 2], [9, 9, 4, 0, 6]):
            records = make_records([(i, 0.5 * i, *rng.lognormal(0.0, 3.0, 3))
                                    for i in range(n)])
            traces.append(Trace(run_id=f"m|seed={seed}", method="m", seed=seed,
                                records=records, status=f"diverged@{n}"))
        traces += run_experiment(small_config(
            problem={"name": "constant_field", "params": {"c": [1.0, -2.0]}},
            methods=[{"name": "sgd", "params": {"eta": 0.1}}])).traces
        aggregates = aggregate_traces(traces)
        expected = reference_aggregates(traces)
        assert sorted(aggregates) == sorted(expected) == ["m", "sgd(eta=0.1)"]
        assert np.isnan(aggregates["sgd(eta=0.1)"].f_gap_mean).all()
        assert aggregates["m"].n_runs.tolist() == [4, 4, 4, 4, 3, 3, 2, 2, 2]
        for method, agg in aggregates.items():
            for name, column in expected[method].items():
                np.testing.assert_array_equal(getattr(agg, name), column, err_msg=name)

    def test_ci_of_overflowing_spread_is_finite(self):
        # Six frictionless stiff paths double every step until their records
        # overflow; f_gap reaches 1e307, whose unscaled std overflows.
        cfg = small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [1.5, 1.5]}},
            methods=[{"name": "hb_ode", "params": {"viscosity": 0.0, "sigma": 1.0}}],
            run={"kind": "simulate", "t_end": 1201.0, "h": 1.0, "eps_start": 1.0,
                 "x0": [0.0, 0.0], "n_seeds": 6, "record_stride": 1},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(cfg)
        assert all(t.status.startswith("diverged@") for t in result.traces)
        ((method, agg),) = result.aggregates.items()
        assert agg.f_gap_mean.max() > 1e300
        for name in ("f_gap", "grad_norm", "step_norm"):
            assert np.isfinite(getattr(agg, f"{name}_ci")).all(), name
        expected = reference_aggregates(result.traces)[method]
        np.testing.assert_array_equal(agg.f_gap_ci, expected["f_gap_ci"])

    def test_mean_of_overflowing_values_is_finite(self):
        traces = [Trace(run_id=f"m|seed={seed}", method="m", seed=seed,
                        records=make_records([(0, 0.0, 1e308, 1.0, 0.0)]))
                  for seed in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = aggregate_traces(traces)["m"]
        assert agg.f_gap_mean.tolist() == [1e308]
        assert agg.f_gap_ci.tolist() == [0.0]
        expected = reference_aggregates(traces)["m"]
        for name, column in expected.items():
            np.testing.assert_array_equal(getattr(agg, name), column, err_msg=name)

    def test_single_run_has_zero_interval(self):
        traces = self._synthetic_traces()[:1]
        agg = aggregate_traces(traces)["m"]
        assert np.all(agg.f_gap_ci == 0.0)
        assert np.all(agg.n_runs == 1)


class TestBoundChecks:
    def _deterministic_memsgd_traces(self, p=2.0, iterations=1000):
        cfg = ExperimentConfig.from_dict({
            "problem": {"name": "quadratic_diag", "params": {"coeffs": [0.5, 0.5]}},
            "methods": [{"name": "memsgd", "params": {"p": p, "eta": (p - 1) / p}}],
            "run": {"kind": "optimize", "iterations": iterations, "x0": [1.0, -1.0],
                    "n_seeds": 1, "record_stride": 1},
            "master_seed": 0,
        })
        return run_experiment(cfg)

    def test_deterministic_rate_never_violated(self):
        result = self._deterministic_memsgd_traces()
        label = result.traces[0].method
        spec = BoundSpec("memsgd_discrete", {
            "p": 2.0, "eta": 0.5, "d": 2, "varsigma2": 0.0, "dist2": 2.0,
        })
        report = check_bounds(result.traces, spec, method=label)
        assert report.status == "ok"
        assert report.n_checked == 1001
        assert report.n_violations == 0

    def test_inflated_noise_still_upper_bound(self):
        result = self._deterministic_memsgd_traces()
        label = result.traces[0].method
        spec = BoundSpec("memsgd_discrete", {
            "p": 2.0, "eta": 0.5, "d": 2, "varsigma2": 10.0, "dist2": 2.0,
        })
        assert check_bounds(result.traces, spec, method=label).status == "ok"

    def test_method_mismatch_cannot_check(self):
        cfg = small_config(methods=[{"name": "sgd", "params": {"eta": 1.0}}])
        result = run_experiment(cfg)
        spec = BoundSpec("memsgd_discrete", {"p": 2.0, "eta": 0.5, "d": 2,
                                             "dist2": 2.0})
        report = check_bounds(result.traces, spec, method="sgd(eta=1.0)")
        assert report.status == "cannot_check"
        assert "does not apply" in report.reason

    def test_time_averaged_bound_cannot_check(self):
        # exp_cesaro bounds the time-averaged iterate; traces hold the last one.
        cfg = small_config(
            methods=[{"name": "mg", "params": {"memory": "exponential",
                                               "memory_param": 1.0}}],
            run=dict(SIMULATE_RUN, n_seeds=1, record_stride=100),
            bounds=[{"kind": "exp_cesaro", "method": "mg(memory=exponential,"
                     "memory_param=1.0)",
                     "params": {"alpha": 1.0, "d": 2, "f_gap0": 0.025, "dist2": 2.0}}],
        )
        result = run_experiment(cfg)
        entry = cfg.bounds[0]
        report = check_bounds(result.traces, BoundSpec(entry["kind"], entry["params"]),
                              method=entry["method"])
        assert report.status == "cannot_check"
        assert "time-averaged" in report.reason
        assert report.n_checked == 0

    def test_missing_optimum_cannot_check(self):
        cfg = ExperimentConfig.from_dict({
            "problem": {"name": "constant_field", "params": {"c": [1.0, 1.0]}},
            "methods": [{"name": "memsgd", "params": {"p": 2.0, "eta": 0.1}}],
            "run": {"kind": "optimize", "iterations": 5, "x0": [0.0, 0.0],
                    "n_seeds": 1},
            "master_seed": 0,
        })
        result = run_experiment(cfg)
        spec = BoundSpec("memsgd_discrete", {"p": 2.0, "eta": 0.1, "d": 2,
                                             "dist2": 0.0})
        report = check_bounds(result.traces, spec, method=result.traces[0].method)
        assert report.status == "cannot_check"


def reference_aggregates_csv(aggregates) -> str:
    """aggregates.csv written row by row, each value formatted on its own."""
    def fmt(x):
        return "" if math.isnan(x) else f"{x:.17g}"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    stats = [f"{name}_{part}" for name in STATS for part in ("mean", "ci")]
    writer.writerow(["method", "index", "time", "n_runs", *stats])
    for method in sorted(aggregates):
        agg = aggregates[method]
        for i in range(agg.index.size):
            writer.writerow([method, int(agg.index[i]), fmt(float(agg.time[i])),
                             int(agg.n_runs[i]),
                             *(fmt(float(getattr(agg, col)[i])) for col in stats)])
    return buf.getvalue()


def reference_traces_csv(traces) -> str:
    """traces.csv written row by row, each value formatted on its own."""
    def fmt(x):
        return str(x) if isinstance(x, int) else "" if math.isnan(x) else f"{x:.17g}"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.CSV_COLUMNS)
    for t in sorted(traces, key=lambda t: (t.method, t.seed)):
        for row in t.records.tolist():
            writer.writerow([t.run_id, t.method, t.seed, *map(fmt, row), t.status])
    return buf.getvalue()


# Records no run writes but the writers must carry: NaN, both infinities,
# a negative zero and subnormals, in every float field.
ODD_RECORDS = [(0, 0.0, math.nan, math.inf, -math.inf), (1, 5e-324, -0.0, math.nan, 1e308),
               (2, math.inf, -math.inf, -1e-310, math.nan)]


def reference_result_json(result) -> str:
    """result.json with every record's dict built before encoding."""
    runs = [{"run_id": t.run_id, "method": t.method, "seed": t.seed,
             "status": t.status,
             "records": [dict(zip(RECORD_DTYPE.names, (None if v != v else v for v in row)))
                         for row in t.records.tolist()]}
            for t in sorted(result.traces, key=lambda t: (t.method, t.seed))]
    return json.dumps({"config": result.config.to_dict(),
                       "config_sha256": result.config.config_hash(), "traces": runs},
                      indent=2, sort_keys=True) + "\n"


class TestEmission:
    def test_aggregates_csv_matches_a_row_by_row_writer(self, tmp_path):
        # Labels with two params carry a comma; constant_field's f_gap is NaN.
        cfg = small_config()
        traces = run_experiment(cfg).traces + run_experiment(small_config(
            problem={"name": "constant_field", "params": {"c": [1.0, -2.0]}},
            methods=[{"name": "adam", "params": {"eta": 0.1, "beta1": 0.5}}])).traces
        aggregates = aggregate_traces(traces)
        emit(ExperimentResult(traces, aggregates, cfg), tmp_path)
        text = (tmp_path / "aggregates.csv").read_text()
        assert text == reference_aggregates_csv(aggregates)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {row["method"] for row in rows} == set(aggregates)
        assert any(row.startswith('"adam(beta1=0.5,eta=0.1)",') for row in text.splitlines())
        adam = [row for row in rows if row["method"].startswith("adam")]
        assert adam and all(row["f_gap_mean"] == row["f_gap_ci"] == "" for row in adam)
        assert tuple(rows[0]) == ("method", *AGGREGATE_DTYPE.names)

    def test_unwritable_output_names_the_directory_or_file(self, tmp_path):
        result = ExperimentResult(traces=[], aggregates={}, config=small_config())
        (tmp_path / "file").write_text("")
        blocked = tmp_path / "file" / "out"
        message = f"cannot create output directory {blocked}: "
        with pytest.raises(OSError, match=re.escape(message)):
            emit(result, blocked)
        target = tmp_path / "out" / "traces.csv"
        target.mkdir(parents=True)
        with pytest.raises(OSError, match=re.escape(f"cannot write {target}: ")):
            emit(result, tmp_path / "out")
        with pytest.raises(OSError, match=re.escape(f"cannot write {target}: ")):
            small_config().to_file(target)

    def test_empty_trace_set_header_only(self, tmp_path):
        cfg = small_config()
        result = ExperimentResult(traces=[], aggregates={}, config=cfg)
        paths = emit(result, tmp_path)
        text = (tmp_path / "traces.csv").read_text()
        assert text == (
            "run_id,method,seed,index,time,f_gap,grad_norm,step_norm,status\n"
        )
        assert (tmp_path / "aggregates.csv") in paths

    def test_three_records_three_rows(self, tmp_path):
        records = make_records([(i, float(i), 0.5 / (i + 1), 1.0, 0.1) for i in range(3)])
        tr = Trace(run_id="m|seed=0", method="m", seed=0, records=records)
        result = ExperimentResult(traces=[tr], aggregates=aggregate_traces([tr]),
                                  config=small_config())
        emit(result, tmp_path)
        lines = (tmp_path / "traces.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_round_trip_reconstructs_aggregate(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        emit(result, tmp_path)
        parsed = read_traces_csv(tmp_path / "traces.csv")
        again = aggregate_traces(parsed)
        for method, agg in result.aggregates.items():
            other = again[method]
            np.testing.assert_array_equal(agg.index, other.index)
            np.testing.assert_allclose(agg.f_gap_mean, other.f_gap_mean, atol=1e-12)
            np.testing.assert_allclose(agg.f_gap_ci, other.f_gap_ci, atol=1e-12)

    def test_read_back_gives_every_column_exactly(self, tmp_path):
        # A diverged@k run, completed runs, and constant_field's NaN f_gap.
        diverging = run_experiment(small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [50.0, 50.0]}},
            methods=[{"name": "hb", "params": {"eta": 10.0, "beta": 0.99}},
                     {"name": "sgd", "params": {"eta": 0.001}}],
            run={"kind": "optimize", "iterations": 400, "x0": [1.0, 1.0],
                 "n_seeds": 2, "record_stride": 1}))
        nan_gap = run_experiment(small_config(
            problem={"name": "constant_field", "params": {"c": [1.0, -2.0]}},
            methods=[{"name": "adam", "params": {"eta": 0.1}}]))
        traces = diverging.traces + nan_gap.traces
        assert {t.status.split("@")[0] for t in traces} == {"completed", "diverged"}
        # A run with no records writes no row; odd values read back exactly.
        empty = Trace("hb|seed=9", "hb", 9, make_records([]), "diverged@0")
        odd = Trace("sgd|seed=9", "sgd", 9, make_records(ODD_RECORDS), "diverged@3")
        written = traces + [empty, odd]
        emit(harness.ExperimentResult(written, aggregate_traces(traces), diverging.config),
             tmp_path)
        assert (tmp_path / "traces.csv").read_text() == reference_traces_csv(written)
        parsed = read_traces_csv(tmp_path / "traces.csv")
        assert len(parsed) == len(traces) + 1
        for got, want in zip(parsed, sorted(traces + [odd], key=lambda t: (t.method, t.seed))):
            assert (got.run_id, got.method, got.seed, got.status) == \
                (want.run_id, want.method, want.seed, want.status)
            assert got.records.dtype == RECORD_DTYPE
            for name in RECORD_DTYPE.names:
                np.testing.assert_array_equal(got.records[name], want.records[name])

    def test_json_mirror_carries_config_hash(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        emit(result, tmp_path, formats=("csv", "json"))
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["config_sha256"] == cfg.config_hash()
        assert payload["config"]["master_seed"] == 7

    def test_result_json_matches_a_dict_building_writer(self, tmp_path):
        # diverged@k and diverged@0 (no records) runs, constant_field's NaN f_gap,
        # and infinities in every float field.
        diverging = run_experiment(small_config(
            problem={"name": "quadratic_diag", "params": {"coeffs": [50.0, 50.0]}},
            methods=[{"name": "hb", "params": {"eta": 10.0, "beta": 0.99}},
                     {"name": "sgd", "params": {"eta": 0.001}}],
            run={"kind": "optimize", "iterations": 400, "x0": [1.0, 1.0],
                 "n_seeds": 2, "record_stride": 1}))
        nan_gap = run_experiment(small_config(
            problem={"name": "constant_field", "params": {"c": [1.0, -2.0]}},
            methods=[{"name": "adam", "params": {"eta": 0.1}}]))
        empty = Trace("hb|seed=9", "hb", 9, make_records([]), "diverged@0")
        odd = Trace("sgd|seed=9", "sgd", 9, make_records(ODD_RECORDS), "diverged@3")
        traces = diverging.traces + nan_gap.traces + [empty]
        result = ExperimentResult(traces + [odd], aggregate_traces(traces), diverging.config)
        emit(result, tmp_path, formats=("json",))
        text = (tmp_path / "result.json").read_text()
        assert text == reference_result_json(result)
        assert '"grad_norm": Infinity' in text and '"step_norm": -Infinity' in text
        statuses = [t["status"] for t in json.loads(text)["traces"]]
        assert "diverged@0" in statuses and "completed" in statuses
        assert any(re.fullmatch(r"diverged@[1-9]\d*", s) for s in statuses)
        assert '"records": []' in text and '"f_gap": null' in text

    def test_json_emit_holds_one_trace_of_records_at_a_time(self, tmp_path):
        # A result of the quartic config's shape: 450 runs of 101 records.
        cfg = ExperimentConfig.from_file(CONFIG_DIR / "quartic_noise.json")
        rng = np.random.default_rng(0)
        index = np.arange(0, cfg.run["iterations"] + 1, cfg.run["record_stride"])
        traces = []
        for label, _, _ in cfg.expanded_methods():
            for seed in range(cfg.run["n_seeds"]):
                records = make_records([(i, float(i), *rng.random(3)) for i in index.tolist()])
                traces.append(Trace(f"{label}|seed={seed}", label, seed, records))
        assert sum(t.records.size for t in traces) == 45_450
        tracemalloc.start()
        try:
            emit(ExperimentResult(traces, {}, cfg), tmp_path, formats=("json",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_simulate_runs_emit(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "problem": {"name": "quadratic_diag", "params": {"coeffs": [2e-2, 5e-3]}},
            "methods": [
                {"name": "nesterov", "params": {"sigma": 0.1}},
                {"name": "mg", "params": {"memory": "quadratic", "sigma": 0.1}},
            ],
            "run": {"kind": "simulate", "t_end": 1.0, "h": 1e-3,
                    "x0": [1.0, 1.0], "v0": [0.0, 0.0], "n_seeds": 2,
                    "record_stride": 100},
            "master_seed": 1,
        })
        result = run_experiment(cfg)
        assert len(result.traces) == 4
        assert all(t.status == "completed" for t in result.traces)
        emit(result, tmp_path)
        parsed = read_traces_csv(tmp_path / "traces.csv")
        assert len(parsed) == 4
        times = [r.time for r in parsed[0].records]
        assert times == sorted(times)
