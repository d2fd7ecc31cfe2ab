"""Bench subsystem: report schema, regression compare, CLI and profiling.

The bench layer is CI-facing (its compare exit code gates merges), so
the schema and the compare verdicts are pinned here with synthetic
reports, and the real runner is exercised once on the cheapest cases to
prove the plumbing end-to-end.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    CASES,
    case_names,
    compare_reports,
    default_report_name,
    load_report,
    resolve_cases,
    run_suite,
    write_report,
)

REPO = Path(__file__).resolve().parent.parent


def _cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, cwd=cwd,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin",
            # The CLI activates the compiled-structure store at its default
            # (user-level) location when this var is absent; the suite must
            # never write outside its tmp dirs.
            "REPRO_STRUCT_CACHE": "off",
        },
    )


def _report(cases):
    """Minimal well-formed report for compare tests."""
    return {
        "schema": "repro-bench-v1",
        "created": "2026-01-01T00:00:00",
        "host": {"platform": "test", "python": "3"},
        "repeat": 1,
        "cases": [
            {
                "name": name,
                "kind": "micro",
                "wall_time_s": wall,
                "work_units": 100,
                "cycles_per_sec": 100 / wall,
                "peak_rss_kb": 1000,
                "config_hash": config_hash,
            }
            for name, wall, config_hash in cases
        ],
    }


CAL = ("calibration_lcg", 1.0, "cal")


class TestCases:
    def test_calibration_always_included(self):
        selected = resolve_cases(["micro_injection"])
        assert selected[0].name == "calibration_lcg"
        assert [c.name for c in selected[1:]] == ["micro_injection"]

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            resolve_cases(["nope"])

    def test_full_suite_has_micro_and_e2e(self):
        kinds = {case.kind for case in CASES.values()}
        assert kinds == {"calibration", "micro", "e2e"}
        assert "e2e_fig11_low_load_mesh" in case_names()

    def test_labels_unique_and_hashable(self):
        labels = [case.label for case in CASES.values()]
        assert len(set(labels)) == len(labels)


class TestRunner:
    def test_report_schema(self, tmp_path):
        report = run_suite(["micro_injection"], repeat=1)
        assert report["schema"] == "repro-bench-v1"
        assert set(report["host"]) == {"platform", "python"}
        names = [case["name"] for case in report["cases"]]
        assert names == ["calibration_lcg", "micro_injection"]
        for case in report["cases"]:
            assert set(case) == {
                "name", "kind", "wall_time_s", "work_units",
                "cycles_per_sec", "peak_rss_kb", "config_hash",
            }
            assert case["wall_time_s"] > 0
            assert case["cycles_per_sec"] > 0
            assert case["peak_rss_kb"] > 0
            assert len(case["config_hash"]) == 16
        out = write_report(report, tmp_path / "BENCH_test.json")
        assert load_report(out)["cases"] == report["cases"]

    def test_cases_never_leak_structure_store_state(self, tmp_path):
        # Every case starts store-off with empty memos, and the caller's
        # store is back in place afterwards — even after a case that
        # activates (and deactivates) a private store of its own.
        from dataclasses import replace

        from repro import structcache
        from repro.bench.runner import run_case

        solo = CASES["e2e_fig11_sweep16_solo"]
        seen = []

        def observed_setup():
            seen.append(structcache.active_store())
            run = solo.setup()

            def observed():
                seen.append(structcache.active_store())
                run()

            return observed

        store = structcache.activate(tmp_path / "structs")
        try:
            run_case(CASES["e2e_fig11_sweep16_memo"])
            assert structcache.active_store().root == store.root
            run_case(replace(solo, setup=observed_setup))
            assert seen == [None, None]
            assert structcache.active_store().root == store.root
        finally:
            structcache.deactivate()
            structcache.clear_memos()

    def test_default_report_name_convention(self):
        name = default_report_name()
        assert name.startswith("BENCH_") and name.endswith(".json")


class TestCompare:
    def test_identical_reports_ok(self):
        base = _report([CAL, ("a", 2.0, "ha")])
        assert compare_reports(base, base).ok

    def test_within_tolerance_ok(self):
        base = _report([CAL, ("a", 2.0, "ha")])
        new = _report([CAL, ("a", 2.4, "ha")])
        assert compare_reports(base, new, tolerance=0.25).ok

    def test_regression_flagged(self):
        base = _report([CAL, ("a", 2.0, "ha")])
        new = _report([CAL, ("a", 2.6, "ha")])
        result = compare_reports(base, new, tolerance=0.25)
        assert result.regressions == ["a"]
        assert not result.ok

    def test_calibration_normalises_slow_machine(self):
        # The new machine is uniformly 2x slower: the calibration case
        # doubles too, so a doubled workload time is NOT a regression.
        base = _report([CAL, ("a", 2.0, "ha")])
        new = _report([("calibration_lcg", 2.0, "cal"), ("a", 4.0, "ha")])
        assert compare_reports(base, new, tolerance=0.25).ok

    def test_missing_case_is_regression(self):
        base = _report([CAL, ("a", 2.0, "ha")])
        new = _report([CAL])
        result = compare_reports(base, new)
        assert result.regressions == ["a"]

    def test_changed_config_hash_skipped(self):
        base = _report([CAL, ("a", 2.0, "ha")])
        new = _report([CAL, ("a", 99.0, "CHANGED")])
        result = compare_reports(base, new)
        assert result.ok
        assert result.skipped == ["a"]

    def test_load_report_rejects_non_reports(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a bench report"):
            load_report(bogus)


class TestCli:
    def test_bench_run_writes_report(self, tmp_path):
        out = tmp_path / "BENCH_ci.json"
        proc = _cli("bench", "--cases", "micro_injection", "--repeat", "1",
                    "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench-v1"

    def test_bench_compare_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        base = _report([CAL, ("a", 2.0, "ha")])
        slow = _report([CAL, ("a", 9.0, "ha")])
        good.write_text(json.dumps(base))
        bad.write_text(json.dumps(slow))
        assert _cli("bench", "--compare", str(good), str(good)).returncode == 0
        proc = _cli("bench", "--compare", str(good), str(bad))
        assert proc.returncode == 1
        assert "REGRESS" in proc.stdout

    def test_bench_unknown_case_exit_2(self):
        proc = _cli("bench", "--cases", "nope")
        assert proc.returncode == 2
        assert "unknown bench case" in proc.stderr

    def test_run_profile_writes_artifacts(self, tmp_path):
        proc = _cli("run", "--topo", "mesh:3x3", "--scheme", "drain",
                    "--rate", "0.05", "--cycles", "200", "--warmup", "50",
                    "--profile", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        profs = list(tmp_path.glob("run_*.prof"))
        texts = list(tmp_path.glob("run_*.profile.txt"))
        assert len(profs) == 1 and len(texts) == 1
        assert "cumulative" in texts[0].read_text()

    def test_sweep_profile_lands_next_to_manifest(self, tmp_path):
        out_dir = tmp_path / "sweep"
        proc = _cli("sweep", "--topo", "mesh:3x3", "--schemes", "drain",
                    "--rates", "0.05", "--out-dir", str(out_dir),
                    "--profile")
        assert proc.returncode == 0, proc.stderr
        assert list(out_dir.glob("sweep_*.prof"))
        assert list(out_dir.glob("sweep_*.profile.txt"))
        assert list(out_dir.glob("sweep_*.manifest.json"))
