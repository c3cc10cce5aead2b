"""The traced benchmark run patches avtestbed by attribute name.

perfbench/tracing.py replaces kernel, controller, monitor, wire and
generator functions with span-recording wrappers.  Renaming or deleting one
of them would first break the benchmark; this test breaks the suite instead.
"""

import os

import pytest

from avtestbed import controllers, presets, supervisor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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

    names = {row[1] for row in tracer.rows()}
    assert {
        "supervisor.run", "supervisor.step", "supervisor.build_world",
        "supervisor.detect_collisions", "controllers.radar_sense", "controllers.control",
        "controllers.pedestrian_step", "scenario.validate_environment",
    } <= names
    assert traced.trajectory == supervisor.run_embedded(env, config).trajectory
