"""Tests of the benchmark itself: job isolation, the tracer, the metric list.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys

import pytest

import run
import tracing
import workloads

# Smaller populations than the benchmark's, on the same code paths.
SMALL_JOBS = {
    "suites-pg33": lambda base: workloads.suites_pg33(base, count=2),
    "suite1-pg34": lambda base: workloads.suite1_pg34(base, count=1),
    "groups-pg32": workloads.groups_pg32,
    "screen-pg32": lambda base: workloads.screen_pg32(base, count=300, roundtrips=2),
}


def _bindings():
    return {
        (module_name, attr): value
        for module_name, module in sys.modules.items()
        if module_name == "grasspace" or module_name.startswith("grasspace.")
        for attr, value in vars(module).items()
    }


def test_uninstall_restores_every_binding():
    from grasspace import maps, projspace, theorems

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert theorems.check_properties is not before[("grasspace.theorems", "check_properties")]
        assert maps.check_properties is not before[("grasspace.maps", "check_properties")]
        assert projspace.verify_projective_axioms is not before[
            ("grasspace.projspace", "verify_projective_axioms")
        ]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_traced_verdicts_equal_untraced(name):
    untraced_wall, untraced = run.run_job(SMALL_JOBS[name], 7)
    tracer = tracing.Tracer()
    traced_wall, traced = run.run_job(SMALL_JOBS[name], 7, tracer)
    assert untraced.ok and traced.ok, untraced.problems + traced.problems
    assert traced.summary == untraced.summary
    assert tracer.spans and not tracer._bindings


def test_screen_never_checks_properties():
    tracer = tracing.Tracer()
    _, result = run.run_job(SMALL_JOBS["screen-pg32"], 11, tracer)
    assert result.ok
    assert tracer.calls["maps.check_properties"] == 0
    assert tracer.calls["theorems.one_way_shadow"] == 300
    assert tracer.calls["cli.parse_grassmap"] == 3 * 2


def test_chow_enumeration_is_timed_per_resumption():
    tracer = tracing.Tracer()
    _, result = run.run_job(workloads.groups_pg32, 3, tracer)
    assert result.ok
    total, own = tracer.layer_times()
    assert tracer.calls["theorems.all_collineation_line_perms"] == 1
    resumptions = [s for s in tracer.spans if s[0] == "theorems.all_collineation_line_perms"]
    assert len(resumptions) == 20160 + 1  # one per permutation, one that ends the iteration
    assert total["theorems.all_collineation_line_perms"] > 0.5 * total["theorems.chow_crosscheck"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["theorems.verify_theorem1", 0.0, 10.0, -1],
        ["maps.check_properties", 1.0, 4.0, 0],
        ["maps.check_properties", 5.0, 7.0, 0],
        ["linalg.rref", 2.0, 3.0, 1],
    ]
    total, own = tracer.layer_times()
    assert own["theorems.verify_theorem1"] == 5.0
    assert own["maps.check_properties"] == 4.0
    assert total["maps.check_properties"] == 5.0
    assert own["linalg.rref"] == total["linalg.rref"] == 1.0


def test_consecutive_jobs_get_distinct_spaces():
    first = SMALL_JOBS["screen-pg32"](1)
    kept = [ref() for ref in first.spaces]
    second = SMALL_JOBS["screen-pg32"](1)
    assert first.ok and second.ok
    assert first.summary == second.summary
    assert kept and all(sp is not None for sp in kept)
    assert all(ref() is not sp for ref in second.spaces for sp in kept)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_optimized_interpreter():
    done = subprocess.run(
        [sys.executable, "-O", str(run.BENCH / "run.py"), "--workload", "screen-pg32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
