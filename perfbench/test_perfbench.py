"""Self-tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.harness import execute_trial  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_on_a_nested_call_tree():
    # trial [0, 100) > run [10, 90) > {move [20, 50), inject [50, 60)}
    #                                  move [20, 50) > compile [25, 45)
    # preflight [100, 110) is a second root.
    name = [0, 1, 2, 3, 4, 5]
    parent = [-1, 0, 1, 2, 1, -1]
    start = [0, 10, 20, 25, 50, 100]
    end = [100, 90, 50, 45, 60, 110]
    totals, calls = spans.self_times(name, parent, start, end)
    assert totals == {0: 20, 1: 40, 2: 10, 3: 20, 4: 10, 5: 10}
    assert sum(totals.values()) == 110  # == the roots' wall time
    assert calls == {n: 1 for n in name}


def test_self_times_sum_per_name_across_calls():
    # Two sibling calls of one name under one parent.
    totals, calls = spans.self_times(
        [0, 1, 1], [-1, 0, 0], [0, 1, 5], [10, 3, 9]
    )
    assert totals == {0: 4, 1: 6}
    assert calls == {0: 1, 1: 2}


class _Layered:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


def test_install_records_nested_spans_and_uninstall_restores():
    hooks = (
        (__name__, "_Layered.outer", "outer"),
        (__name__, "_Layered.inner", "inner"),
    )
    original = _Layered.__dict__["outer"]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, hooks=hooks)
    try:
        assert _Layered().outer() == 42
    finally:
        uninstall()
    assert _Layered.__dict__["outer"] is original
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    assert list(tracer.name) == [outer, inner]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def test_missing_hook_targets_are_reported_not_fatal():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, hooks=(
        (__name__, "_Layered.gone", "gone"),
        ("no_such_module_here", "f", "gone"),
    ))
    uninstall()
    assert tracer.missing == [f"{__name__}:_Layered.gone", "no_such_module_here:f"]


def test_tracing_does_not_change_a_trial_result():
    trial = workloads.sweep_short(workloads.DEFAULT_SEED)[0]
    plain = execute_trial(trial.spec)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = run._run(trial.spec)
    finally:
        uninstall()
    assert traced == plain
    names = set(tracer.names[n] for n in tracer.name)
    assert {"harness.trial", "analysis.preflight", spans.ENGINE_COMPILE,
            spans.MOVEMENT, "core.sim_init"} <= names


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_digest_check_fails_on_a_perturbed_row():
    trial = workloads.sweep_short(workloads.DEFAULT_SEED)[0]
    result = execute_trial(trial.spec)
    pinned = {trial.label: run.result_digest(result)}
    assert run.trial_errors([trial], [(0, result)], pinned) == []
    perturbed = dict(result, avg_latency=result["avg_latency"] + 1e-12)
    errors = run.trial_errors([trial], [(0, perturbed)], pinned)
    assert len(errors) == 1 and "digest differs" in errors[0]


def test_default_seed_result_matches_the_pinned_reference():
    trial = workloads.sweep_short(workloads.DEFAULT_SEED)[0]
    pinned = json.loads(run.DIGESTS.read_text())["workloads"]["sweep_short"]
    assert run.result_digest(execute_trial(trial.spec)) == pinned[trial.label]


def test_every_workload_trial_is_pinned():
    pinned = json.loads(run.DIGESTS.read_text())
    assert pinned["seed"] == workloads.DEFAULT_SEED
    for name, build in workloads.WORKLOADS.items():
        labels = [t.label for t in build(workloads.DEFAULT_SEED)]
        assert len(set(labels)) == len(labels)
        assert sorted(labels) == sorted(pinned["workloads"][name])


@pytest.mark.parametrize("kind, result, message", [
    ("synthetic", {"packets_ejected": 0}, "no packet ejected"),
    ("lossless", {"finished": False, "lost_forever": 0}, "did not finish"),
    ("lossless", {"finished": True, "lost_forever": 2}, "lost forever"),
    ("app", {"finished": True, "deadlocked": True}, "deadlocked"),
    ("fault", {"packets_ejected": 5, "faults": {"recomputes": [
        {"cycle": 9, "covered_links": 10, "links_alive": 12}]}}, "covers 10 of 12"),
])
def test_invariants_catch_broken_rows(kind, result, message):
    assert message in workloads.invariant_error(kind, result)


def test_raised_trials_count_as_failed():
    trial = workloads.saturation_mesh(3)[0]
    errors = run.trial_errors([trial], [(0, "Traceback ...")], None)
    assert errors == [f"{trial.label}: raised: Traceback ..."]


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_deterministic_for_a_seed(name):
    build = workloads.WORKLOADS[name]
    first = [(t.label, t.spec.canonical()) for t in build(5)]
    assert first == [(t.label, t.spec.canonical()) for t in build(5)]
    assert first != [(t.label, t.spec.canonical()) for t in build(6)]


def test_sweep_short_has_at_least_100_trials():
    assert len(workloads.sweep_short(workloads.HELD_OUT_SEED)) >= 100


def test_one_cycle_copy_keeps_the_structure():
    for trial in workloads.lossless_faults(2) + workloads.apps_closed_loop(2):
        copy = workloads.one_cycle_copy(trial.spec)
        params = dict(copy.params)
        assert params.pop("max_cycles" if copy.runner == "workload" else "cycles") == 1
        assert params.pop("warmup", 0) == 0
        for key, value in params.items():
            assert trial.spec.params[key] == value


# ----------------------------------------------------------------------
# Runner exit status
# ----------------------------------------------------------------------
def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
