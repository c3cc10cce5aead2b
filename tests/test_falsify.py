import json
import math
import os
import re

import numpy as np
import pytest

from avtestbed import falsify as fz, presets, robustness as rb, scenario, supervisor
from avtestbed.falsify import (
    AllEvaluationsFailedError,
    FalsifyConfig,
    SearchDim,
    SearchSpace,
    falsify,
    grid_oracle,
    load_results,
    load_study,
    run_study,
    save_results,
    uniform_random_search,
)
from avtestbed.robustness import Atom, LinearPredicate, Trace


BOX3 = SearchSpace([SearchDim("x1", 0.0, 15.0), SearchDim("x2", 0.0, 15.0),
                    SearchDim("x3", 0.0, 15.0)])

# robustness(sample) = sample[0] - 5 via a single-sample trace and atom margin
X1_MINUS_5_PREDS = [LinearPredicate("p", np.array([-1.0, 0.0, 0.0]), -5.0)]
PHI_P = Atom("p")


def x1_system(sample):
    return Trace(times=np.array([0.0]), states=np.array([list(sample)]))


def constant_system(value, dims=3):
    preds = [LinearPredicate("p", np.zeros(dims), float(value))]

    def system(sample):
        return Trace(times=np.array([0.0]), states=np.array([list(sample)]))

    return system, Atom("p"), preds


class TestFalsify:
    def test_linear_objective_falsifies_across_seeds(self):
        falsified = 0
        for seed in range(10):
            config = FalsifyConfig(n_tests=100, seed=seed)
            result = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
            falsified += result.falsified
        assert falsified >= 9

    def test_constant_positive_objective_runs_out_the_budget(self):
        system, phi, preds = constant_system(2.0)
        config = FalsifyConfig(n_tests=25, seed=3)
        result = falsify(system, phi, preds, BOX3, config)
        assert result.falsified is False
        assert result.best_robustness == 2.0
        assert result.n_simulations_used == 25
        assert len(result.history) == 25

    def test_deterministic_per_seed(self):
        config = FalsifyConfig(n_tests=40, seed=12)
        a = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        b = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        assert a == b

    def test_history_samples_stay_inside_the_box(self):
        for seed in range(100):
            config = FalsifyConfig(n_tests=20, seed=seed, falsification_mode=False)
            result = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
            for sample, _ in result.history:
                for value, dim in zip(sample, BOX3.dims):
                    assert dim.lo <= value <= dim.hi

    def test_best_is_running_minimum_and_stops_at_first_negative(self):
        config = FalsifyConfig(n_tests=100, seed=5)
        result = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        robs = [rob for _, rob in result.history]
        assert result.best_robustness == min(robs)
        assert result.falsified == (result.best_robustness < 0)
        negatives = [i for i, rob in enumerate(robs) if rob < 0]
        if negatives:
            assert negatives[0] == len(robs) - 1  # nothing evaluated afterwards

    def test_failed_evaluation_is_inf_and_search_continues(self):
        calls = {"n": 0}

        def flaky(sample):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("sim crashed")
            return x1_system(sample)

        config = FalsifyConfig(n_tests=10, seed=8, falsification_mode=False)
        result = falsify(flaky, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        robs = [rob for _, rob in result.history]
        assert len(robs) == 10
        assert any(math.isinf(r) for r in robs)
        assert any(not math.isinf(r) for r in robs)

    def test_all_failures_is_an_error(self):
        def broken(sample):
            raise RuntimeError("nope")

        config = FalsifyConfig(n_tests=5, seed=0, falsification_mode=False)
        with pytest.raises(AllEvaluationsFailedError):
            falsify(broken, PHI_P, X1_MINUS_5_PREDS, BOX3, config)

    def test_programming_error_propagates(self):
        def buggy(sample):
            return 1 / 0

        config = FalsifyConfig(n_tests=5, seed=0, falsification_mode=False)
        with pytest.raises(ZeroDivisionError):
            falsify(buggy, PHI_P, X1_MINUS_5_PREDS, BOX3, config)

    def test_nan_robustness_is_a_failure_and_never_best(self):
        calls = {"n": 0}

        def nan_first(sample):
            calls["n"] += 1
            if calls["n"] == 1:
                return Trace(times=np.array([0.0]), states=np.full((1, 3), np.nan))
            return x1_system(sample)

        config = FalsifyConfig(n_tests=5, seed=0, falsification_mode=False)
        result = uniform_random_search(nan_first, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        assert result.history[0][1] == math.inf
        assert result.best_sample != result.history[0][0]
        assert result.best_robustness == min(rob for _, rob in result.history[1:])

    def test_point_space_single_evaluation_allowed(self):
        space = SearchSpace([SearchDim("x1", 7.0, 7.0)])
        preds = [LinearPredicate("p", np.array([-1.0]), -5.0)]
        config = FalsifyConfig(n_tests=5, seed=1, falsification_mode=False)
        result = falsify(x1_system, Atom("p"), preds, space, config)
        assert all(sample == [7.0] for sample, _ in result.history)
        assert result.best_robustness == 2.0


def every_other_call_fails():
    calls = {"n": 0}

    def system(sample):
        calls["n"] += 1
        if calls["n"] % 2 == 1:
            raise RuntimeError(f"crash {calls['n']}")
        return x1_system(sample)

    return system


def always_fails(sample):
    raise ValueError("setup rejected")


class TestFailureMessages:
    def test_each_failure_message_is_recorded(self):
        config = FalsifyConfig(n_tests=10, seed=8, falsification_mode=False)
        result = falsify(every_other_call_fails(), PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        assert result.failures == {i: f"crash {i + 1}" for i in range(0, 10, 2)}
        robs = [rob for _, rob in result.history]
        assert [i for i, rob in enumerate(robs) if rob == math.inf] == list(result.failures)

    def test_nan_robustness_is_recorded(self, monkeypatch):
        monitor, calls = rb.robustness, []

        def nan_second(*args):
            calls.append(None)
            return math.nan if len(calls) == 2 else monitor(*args)

        monkeypatch.setattr(rb, "robustness", nan_second)
        config = FalsifyConfig(n_tests=4, seed=0, falsification_mode=False)
        result = uniform_random_search(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        assert result.failures == {1: "robustness is NaN"}
        assert result.history[1][1] == math.inf

    def test_infinite_robustness_is_not_a_failure(self):
        # an always over a window past the end of the trace holds vacuously
        formula = rb.parse_formula("[]_[5.0,6.0] p")
        config = FalsifyConfig(n_tests=3, seed=0)
        result = falsify(x1_system, formula, X1_MINUS_5_PREDS, BOX3, config)
        assert [rob for _, rob in result.history] == [math.inf] * 3
        assert result.failures == {} and result.falsified is False

    def test_grid_oracle_raises_when_every_point_fails(self):
        with pytest.raises(AllEvaluationsFailedError):
            grid_oracle(always_fails, PHI_P, X1_MINUS_5_PREDS, BOX3, 2)

    @pytest.mark.parametrize(
        "search",
        [
            lambda: falsify(always_fails, PHI_P, X1_MINUS_5_PREDS, BOX3, FalsifyConfig(n_tests=3)),
            lambda: uniform_random_search(
                always_fails, PHI_P, X1_MINUS_5_PREDS, BOX3, FalsifyConfig(n_tests=3)
            ),
            lambda: grid_oracle(always_fails, PHI_P, X1_MINUS_5_PREDS, BOX3, 2),
        ],
        ids=["falsify", "uniform_random_search", "grid_oracle"],
    )
    def test_all_failed_error_names_the_first_failure(self, search):
        with pytest.raises(AllEvaluationsFailedError) as err:
            search()
        message = "every simulation failed; evaluation 0 was the first: setup rejected"
        assert str(err.value) == message

    def test_results_file_has_failures_only_when_a_run_has_some(self, tmp_path):
        config = FalsifyConfig(n_tests=6, seed=1, falsification_mode=False)
        clean = falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        flaky = falsify(every_other_call_fails(), PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        path = str(tmp_path / "results.json")
        save_results([clean, flaky], path)
        with open(path) as fh:
            runs = json.load(fh)["results"]
        assert "failures" not in runs[0]
        assert runs[1]["failures"] == {"0": "crash 1", "2": "crash 3", "4": "crash 5"}
        assert load_results(path) == [clean, flaky]

    def test_results_file_with_a_non_index_failure_key_is_rejected(self, tmp_path):
        config = FalsifyConfig(n_tests=2, seed=1, falsification_mode=False)
        path = str(tmp_path / "results.json")
        save_results(falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config), path)
        with open(path) as fh:
            data = json.load(fh)
        data["results"][0]["failures"] = {"first": "crash"}
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(ValueError, match=re.escape("results[0].failures.first")):
            load_results(path)


class TestSearchSpace:
    @pytest.mark.parametrize(
        "lo, hi", [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            SearchDim("x", lo, hi)


class TestUniformRandom:
    def test_constant_system_uses_full_budget(self):
        system, phi, preds = constant_system(1.0)
        config = FalsifyConfig(n_tests=17, seed=2)
        result = uniform_random_search(system, phi, preds, BOX3, config)
        assert result.n_simulations_used == 17

    def test_same_seed_identical_history(self):
        config = FalsifyConfig(n_tests=30, seed=9, falsification_mode=False)
        a = uniform_random_search(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        b = uniform_random_search(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        assert a.history == b.history

    def test_best_sample_attains_minimum_of_history(self):
        config = FalsifyConfig(n_tests=50, seed=4, falsification_mode=False)
        result = uniform_random_search(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)
        x1_values = [sample[0] for sample, _ in result.history]
        assert result.best_sample[0] == min(x1_values)
        assert result.best_robustness == min(x1_values) - 5.0


class TestGridOracle:
    def test_two_points_per_dim_is_eight_corners(self):
        evals = []

        def counting(sample):
            evals.append(tuple(sample))
            return x1_system(sample)

        best, argmin = grid_oracle(counting, PHI_P, X1_MINUS_5_PREDS, BOX3, 2)
        assert len(evals) == 8
        assert set(evals) == {(a, b, c) for a in (0.0, 15.0) for b in (0.0, 15.0)
                              for c in (0.0, 15.0)}
        assert best == -5.0
        assert argmin[0] == 0.0

    def test_constant_system(self):
        system, phi, preds = constant_system(4.0)
        best, _ = grid_oracle(system, phi, preds, BOX3, 3)
        assert best == 4.0

    def test_mixed_points_per_dim(self):
        evals = []

        def counting(sample):
            evals.append(tuple(sample))
            return x1_system(sample)

        grid_oracle(counting, PHI_P, X1_MINUS_5_PREDS, BOX3, [5, 5, 4])
        assert len(evals) == 100

    def test_single_point_axis_uses_midpoint(self):
        space = SearchSpace([SearchDim("x1", 0.0, 10.0)])
        preds = [LinearPredicate("p", np.array([-1.0]), -5.0)]
        best, argmin = grid_oracle(x1_system, Atom("p"), preds, space, 1)
        assert argmin == [5.0]
        assert best == 0.0


def pinned_results():
    """Two runs over a box of single points, with a failed evaluation, an
    unbound dimension and every config field set."""
    space = SearchSpace([
        SearchDim("speed", 2.0, 2.0),
        SearchDim("gap", 0.5, 0.5, "environment.pedestrians_list[0].target_speed"),
    ])
    preds = [LinearPredicate("p", np.array([-1.0, 0.0]), 0.0)]
    formula = rb.parse_formula("[]_[0.0,1.0] p")
    margins = iter([1.5, None, -0.25, 0.75])

    def system(sample):
        margin = next(margins)
        if margin is None:
            raise ValueError("simulation failed")
        return Trace(times=np.array([0.0]), states=np.array([[margin, sample[1]]]))

    return [
        falsify(system, formula, preds, space, FalsifyConfig(
            n_tests=2, runs=2, seed=seed, falsification_mode=False, sim_duration_s=0.5,
            samp_time_s=0.02, init_temperature=2.0, cooling=0.5, proposal_scale=0.125,
        ))
        for seed in (11, 12)
    ]


PINNED_RUN = """\
    {
      "best_sample": [
        2.0,
        0.5
      ],
      "best_robustness": %(best)s,
      "falsified": %(falsified)s,
      "n_simulations_used": 2,
      "history": [
        [
          [
            2.0,
            0.5
          ],
          %(first)s
        ],
        [
          [
            2.0,
            0.5
          ],
          %(second)s
        ]
      ],
      "seed": %(seed)s,
      "space": [
        {
          "name": "speed",
          "lo": 2.0,
          "hi": 2.0,
          "binding": null
        },
        {
          "name": "gap",
          "lo": 0.5,
          "hi": 0.5,
          "binding": "environment.pedestrians_list[0].target_speed"
        }
      ],
      "config": {
        "n_tests": 2,
        "runs": 2,
        "seed": %(seed)s,
        "falsification_mode": false,
        "sim_duration_s": 0.5,
        "samp_time_s": 0.02,
        "init_temperature": 2.0,
        "cooling": 0.5,
        "proposal_scale": 0.125
      },
      "formula": "[]_[0.0,1.0] p"%(failures)s
    }"""

# a run's failures are written only when it has any
PINNED_FAILURES = ',\n      "failures": {\n        "1": "simulation failed"\n      }'

PINNED_RESULTS_FILE = (
    '{\n  "format": "falsification-results",\n  "results": [\n'
    + PINNED_RUN % dict(best="1.5", falsified="false", first="1.5", second="Infinity", seed=11,
                        failures=PINNED_FAILURES)
    + ",\n"
    + PINNED_RUN % dict(best="-0.25", falsified="true", first="-0.25", second="0.75", seed=12,
                        failures="")
    + "\n  ]\n}\n"
)


class TestPersistence:
    def test_results_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "results.json"
        save_results(pinned_results(), str(path))
        assert path.read_text() == PINNED_RESULTS_FILE
        assert load_results(str(path)) == pinned_results()

    def result_fixture(self):
        config = FalsifyConfig(n_tests=30, seed=21)
        return falsify(x1_system, PHI_P, X1_MINUS_5_PREDS, BOX3, config)

    def test_round_trip_exact(self, tmp_path):
        result = self.result_fixture()
        path = str(tmp_path / "results.json")
        save_results(result, path)
        assert load_results(path) == result

    def test_multi_run_round_trip(self, tmp_path):
        results = [self.result_fixture(), self.result_fixture()]
        path = str(tmp_path / "results.json")
        save_results(results, path)
        back = load_results(path)
        assert isinstance(back, list) and back == results

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(str(tmp_path / "absent.json"))

    def test_truncated_file_is_integrity_error(self, tmp_path):
        result = self.result_fixture()
        path = str(tmp_path / "results.json")
        save_results(result, path)
        with open(path, "r+") as fh:
            text = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(text[: len(text) // 2])
        with pytest.raises(ValueError, match="corrupt"):
            load_results(path)

    def test_wrong_format_marker(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as fh:
            json.dump({"something": "else"}, fh)
        with pytest.raises(ValueError, match="format"):
            load_results(path)


class TestStudy:
    def test_load_study(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        assert [d.name for d in study.space.dims] == [
            "ego_init_speed",
            "ego_x_position",
            "pedestrian_speed",
        ]
        assert (study.space.dims[0].lo, study.space.dims[0].hi) == (0.0, 15.0)
        assert (study.space.dims[1].lo, study.space.dims[1].hi) == (15.0, 25.0)
        assert (study.space.dims[2].lo, study.space.dims[2].hi) == (2.0, 5.0)
        assert study.config.n_tests == 100
        assert study.config.samp_time_s == 0.010

    def test_study_system_binds_and_simulates(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config.sim_duration_s = 0.5
        system, formula, predicates = fz.make_study_system(study)
        trace = system((12.0, 22.0, 4.0))
        assert trace.states.shape == (51, 10)
        assert trace.states[0][0] == 22.0  # bound ego x
        assert trace.states[0][3] == 12.0  # bound initial speed
        # monitoring over that trace works end to end
        from avtestbed.robustness import robustness

        value = robustness(formula, predicates, trace)
        assert math.isfinite(value)

    def test_study_system_equals_the_preset_scene(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config.sim_duration_s = 0.5
        study.config.samp_time_s = 0.02
        system, _, _ = fz.make_study_system(study)
        for sample in [(12.0, 22.0, 4.0), (0.0, 15.0, 2.0), (15.0, 25.0, 5.0)]:
            env, config = presets.demo_scenario(*sample, sim_duration_ms=500)
            env.data_log_period_ms = 20
            expected = rb.convert_trajectory(supervisor.run_embedded(env, config).trajectory)
            trace = system(sample)
            assert np.array_equal(trace.times, expected.times)
            assert np.array_equal(trace.states, expected.states)

    def test_study_scenario_is_left_unchanged(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config.sim_duration_s = 0.2
        system, _, _ = fz.make_study_system(study)
        system((12.0, 22.0, 4.0))
        fresh = scenario.load_scenario(os.path.join(fixtures_dir, "demo_scenario.json"))
        assert (study.env, study.sim_config) == fresh

    def test_run_study_with_multiple_runs(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config = FalsifyConfig(
            n_tests=2, runs=2, seed=101, sim_duration_s=0.2, samp_time_s=0.01
        )
        results = run_study(study)
        assert len(results) == 2
        assert results[0].seed == 101
        assert results[1].seed == 102
        assert all(r.n_simulations_used <= 2 for r in results)

    def test_study_search_is_deterministic_per_seed(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config = FalsifyConfig(n_tests=3, seed=42, sim_duration_s=0.5, samp_time_s=0.01)
        system, formula, predicates = fz.make_study_system(study)
        a = fz.falsify(system, formula, predicates, study.space, study.config)
        b = fz.falsify(system, formula, predicates, study.space, study.config)
        assert a == b
        assert a.n_simulations_used <= 3

    def test_run_that_overflows_is_a_failed_evaluation(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config = FalsifyConfig(
            n_tests=3, seed=5, falsification_mode=False, sim_duration_s=0.1, samp_time_s=0.01
        )
        study_system, formula, predicates = fz.make_study_system(study)
        # the first evaluation simulates a scene whose first step overflows
        overflowing = iter([(1e308, 1.797e308, 3.0)])

        def system(sample):
            return study_system(next(overflowing, sample))

        result = fz.falsify(system, formula, predicates, study.space, study.config)
        assert result.failures == {
            0: "the run overflowed: column vehicle0_position_x is inf at 10 ms"
        }
        assert [rob == math.inf for _, rob in result.history] == [True, False, False]

    @pytest.mark.parametrize(
        "duration_s, samp_time_s, message",
        [(0.015, 0.01, "not a multiple of step 10"), (-0.01, 0.01, "must be >= 0"),
         (0.3, 0.015, "log period 15 ms"), (0.3, 0.0, "log period 0 ms")],
    )
    def test_study_off_the_step_grid_is_rejected_up_front(
        self, fixtures_dir, duration_s, samp_time_s, message
    ):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config.sim_duration_s = duration_s
        study.config.samp_time_s = samp_time_s
        with pytest.raises(ValueError, match=message):
            fz.make_study_system(study)

    def test_sampling_period_maps_to_log_period(self, fixtures_dir):
        study = load_study(os.path.join(fixtures_dir, "demo_study.json"))
        study.config.sim_duration_s = 0.3
        study.config.samp_time_s = 0.05
        system, _, _ = fz.make_study_system(study)
        trace = system((10.0, 20.0, 3.0))
        assert len(trace.times) == 300 // 50 + 1
        assert trace.times[1] - trace.times[0] == pytest.approx(0.05)
