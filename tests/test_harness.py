"""Config round-trips, run determinism, aggregation, bounds, emission."""

import copy
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrad import optimizers, problems
from memgrad.harness import (
    METHODS,
    PROBLEMS,
    Aggregate,
    ExperimentConfig,
    Record,
    Trace,
    aggregate_traces,
    build_objective,
    check_bounds,
    emit,
    read_traces_csv,
    run_experiment,
)
from memgrad.theory import BoundSpec


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


def small_raw(**overrides):
    return dict(copy.deepcopy(SMALL), **overrides)


def small_config(**overrides):
    return ExperimentConfig.from_dict(small_raw(**overrides))


def keyword_params(fn, skip=0):
    """Names of fn's parameters after the first ``skip``, and the required ones."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return ({p.name for p in params},
            {p.name for p in params if p.default is inspect.Parameter.empty})


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
    ], ids=["adam-beta_1", "hb-no-beta", "hb_ode-viscocity", "run-record_strid",
            "noise-seed", "quadratic_diag-coef"])
    def test_bad_keys_rejected_at_load(self, raw, where, key):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value).startswith(f"{where}: ")
        assert f"'{key}'" in str(err.value)

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
        raw = small_raw(methods=[{"name": name, "params": dict.fromkeys(keys, 0.5)}])
        assert accepted(raw) == (keys <= names and required <= keys)

    @settings(deadline=None)
    @given(st.data())
    def test_problem_params_accepted_iff_signature_takes_them(self, data):
        name = data.draw(st.sampled_from(PROBLEMS))
        names, required = keyword_params(getattr(problems, name))
        keys = data.draw(st.sets(st.sampled_from(sorted(names) + ["coef", "noise"])))
        raw = small_raw(problem={"name": name, "params": dict.fromkeys(keys, 1)})
        assert accepted(raw) == (keys <= names and required <= keys)

    @settings(deadline=None)
    @given(st.data())
    def test_round_trip_is_identity(self, data):
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        methods = []
        for name in data.draw(st.lists(st.sampled_from(sorted(METHODS)), min_size=1,
                                       max_size=4, unique=True)):
            names, required = keyword_params(getattr(optimizers, METHODS[name]), skip=2)
            keys = required | data.draw(st.sets(st.sampled_from(sorted(names))))
            methods.append({"name": name,
                            "params": {k: data.draw(finite) for k in sorted(keys)}})
        raw = {
            "problem": {"name": "quadratic_diag",
                        "params": {"coeffs": data.draw(st.lists(finite, min_size=1))},
                        "noise": {"kind": "gaussian", "sigma": data.draw(finite)}},
            "methods": methods,
            "run": {"kind": "optimize", "iterations": data.draw(st.integers(1, 10**6)),
                    "x0": [data.draw(finite)], "n_seeds": data.draw(st.integers(1, 99)),
                    "record_stride": data.draw(st.integers(1, 99))},
            "output": {"directory": data.draw(st.text(min_size=1)), "formats": ["csv"]},
            "tolerances": data.draw(st.dictionaries(st.text(), finite, max_size=3)),
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
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=1)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.run_id == tb.run_id
            for ra, rb in zip(ta.records, tb.records):
                assert ra == rb

    def test_thread_count_invariance(self):
        cfg = small_config()
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.run_id == tb.run_id
            assert ta.records == tb.records

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
            assert big_traces[run_id].records == tr.records


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
        assert all(t.status == "diverged" for t in by_method["hb"])
        assert all(t.status == "completed" for t in by_method["sgd"])
        diverged = by_method["hb"][0]
        assert diverged.diverged_at is not None
        assert len(diverged.records) >= 1
        assert all(np.isfinite(r.grad_norm) for r in diverged.records)
        # Aggregates adjust n_runs beyond the failure index.
        label = by_method["sgd"][0].method
        agg = result.aggregates[label]
        assert agg.n_runs.max() == 2


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
        assert trace.status == "diverged"
        assert trace.diverged_at == first_bad


class TestAggregation:
    def _synthetic_traces(self):
        rng = np.random.default_rng(3)
        traces = []
        for seed in range(4):
            records = [
                Record(index=i, time=float(i), f_gap=float(rng.uniform()),
                       grad_norm=float(rng.uniform()), step_norm=float(rng.uniform()))
                for i in range(5)
            ]
            traces.append(Trace(run_id=f"m|seed={seed}", method="m", seed=seed,
                                records=records))
        return traces

    def test_mean_and_ci_against_reference(self):
        traces = self._synthetic_traces()
        agg = aggregate_traces(traces)["m"]
        for pos, idx in enumerate(agg.indices):
            vals = np.array([t.records[pos].f_gap for t in traces])
            np.testing.assert_allclose(agg.f_gap_mean[pos], vals.mean(), atol=1e-12)
            expected_ci = 1.96 * vals.std(ddof=1) / math.sqrt(vals.size)
            np.testing.assert_allclose(agg.f_gap_ci[pos], expected_ci, atol=1e-12)

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


class TestEmission:
    def test_empty_trace_set_header_only(self, tmp_path):
        cfg = small_config()
        from memgrad.harness import ExperimentResult

        result = ExperimentResult(traces=[], aggregates={}, config=cfg)
        paths = emit(result, tmp_path)
        text = (tmp_path / "traces.csv").read_text()
        assert text == (
            "run_id,method,seed,index,time,f_gap,grad_norm,step_norm,status\n"
        )
        assert (tmp_path / "aggregates.csv") in paths

    def test_three_records_three_rows(self, tmp_path):
        from memgrad.harness import ExperimentResult

        records = [Record(i, float(i), 0.5 / (i + 1), 1.0, 0.1) for i in range(3)]
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
            np.testing.assert_array_equal(agg.indices, other.indices)
            np.testing.assert_allclose(agg.f_gap_mean, other.f_gap_mean, atol=1e-12)
            np.testing.assert_allclose(agg.f_gap_ci, other.f_gap_ci, atol=1e-12)

    def test_json_mirror_carries_config_hash(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        emit(result, tmp_path, formats=("csv", "json"))
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["config_sha256"] == cfg.config_hash()
        assert payload["config"]["master_seed"] == 7

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
        result = run_experiment(cfg, threads=2)
        assert len(result.traces) == 4
        assert all(t.status == "completed" for t in result.traces)
        emit(result, tmp_path)
        parsed = read_traces_csv(tmp_path / "traces.csv")
        assert len(parsed) == 4
        times = [r.time for r in parsed[0].records]
        assert times == sorted(times)
