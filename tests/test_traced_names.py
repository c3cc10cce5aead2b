"""The traced benchmark run patches avtestbed by attribute name.

perfbench/tracing.py replaces kernel, controller, monitor, wire and
generator functions with span-recording wrappers.  Renaming or deleting one
of them would first break the benchmark; this test breaks the suite instead.
"""

import os

import pytest

from avtestbed import controllers, covering, falsify, presets, supervisor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


# spans of each kernel name in one 50 ms demo run
RATES = {
    "supervisor.step": 5,
    "controllers.radar_sense": 5,
    "controllers.control": 10,
    "controllers.pedestrian_step": 5,
    "supervisor.detect_collisions": 6,
    "supervisor.sample_log_row": 6,
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_instrument_patches_every_traced_name_and_unpatches(tracing):
    originals = (supervisor.run, supervisor.step, controllers.radar_sense)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert supervisor.run is not originals[0]
        env, config = presets.demo_scenario(sim_duration_ms=50)
        traced = supervisor.run_embedded(env, config)
    finally:
        tracer.unpatch()
    assert (supervisor.run, supervisor.step, controllers.radar_sense) == originals

    names = [row[1] for row in tracer.rows()]
    assert {
        "supervisor.run", "supervisor.step", "supervisor.build_world",
        "supervisor.detect_collisions", "controllers.radar_sense", "controllers.control",
        "controllers.pedestrian_step", "scenario.validate_environment",
    } <= set(names)
    # every traced name is called through its module attribute or class at
    # its own rate, so none of its per-layer figures reads 0: five 10 ms
    # steps, each with the radar of the one fusion vehicle, the control of
    # both vehicles and the walk of the pedestrian; contacts and log rows at
    # t = 0, 10, ..., 50 ms
    assert {name: names.count(name) for name in RATES} == RATES
    assert traced.trajectory == supervisor.run_embedded(env, config).trajectory


def test_traced_suite_and_study_keep_their_signatures(tracing, fixtures_dir):
    # the tracer counts rows from run_test_suite's first argument and wraps
    # the system that make_study_system(study) returns first; run_study looks
    # up falsify and make_study_system as module globals, so each run is one
    # falsify.search span and each of its evaluations one falsify.system span
    table = covering.TestTable(["x"], [["20"], ["*"]])
    binding = {"x": "environment.ego_vehicles_list[0].current_position[0]"}
    study = falsify.load_study(os.path.join(fixtures_dir, "demo_study.json"))
    study.config.sim_duration_s = 0.05
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        env, config = presets.demo_scenario(sim_duration_ms=50)
        result = covering.run_test_suite(table, env, config, binding, supervisor.run_embedded)
        system, _, _ = falsify.make_study_system(study)
        system((10.0, 20.0, 3.0))
        study.config = falsify.FalsifyConfig(
            n_tests=3, runs=2, seed=5, falsification_mode=False, sim_duration_s=0.05
        )
        runs = falsify.run_study(study)
    finally:
        tracer.unpatch()
    assert sorted(result.outputs) == [0, 1]
    assert tracer.units["suite.rows"] == 2
    names = [row[1] for row in tracer.rows()]
    assert names.count("covering.run_test_suite") == 1
    assert names.count("falsify.search") == len(runs) == 2
    assert names.count("falsify.system") == 1 + sum(r.n_simulations_used for r in runs) == 7
    assert names.count("robustness.robustness") == 6
