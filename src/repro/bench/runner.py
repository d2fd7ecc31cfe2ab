"""Benchmark runner: times cases and writes ``BENCH_<stamp>.json`` reports.

This module is the bench layer's only wall-clock reader (it is on the
determinism lint's allowlist): simulation code itself stays clock-free,
and reports carry their timing metadata explicitly.

Report schema (``repro-bench-v1``)::

    {
      "schema": "repro-bench-v1",
      "created": "<ISO-8601 local timestamp>",
      "host": {"platform": "...", "python": "3.x.y"},
      "repeat": 3,
      "cases": [
        {
          "name": "micro_movement",
          "kind": "micro",
          "wall_time_s": 0.123,      # best of `repeat` runs
          "work_units": 1500,        # simulated cycles (or iterations)
          "cycles_per_sec": 12195.1,
          "peak_rss_kb": 34816,      # ru_maxrss after the case ran
          "config_hash": "a3f2..."   # stable hash of the case label
        },
        ...
      ]
    }
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Optional

from .. import structcache
from ..core.rng import stable_hash
from .cases import BenchCase, resolve_cases

__all__ = ["run_suite", "write_report", "default_report_name"]

SCHEMA = "repro-bench-v1"


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def run_case(case: BenchCase, repeat: int = 1,
             log=None) -> Dict[str, object]:
    """Time one case ``repeat`` times (fresh setup each); keep the best.

    Every setup and timed run starts store-off with empty structure
    memos, so no case inherits another's (or the caller's) structure
    store state; cases that want a store activate a private one. The
    caller's store is restored afterwards.
    """
    prev = structcache.active_store()
    best = float("inf")
    try:
        for _ in range(max(1, repeat)):
            structcache.deactivate()
            structcache.clear_memos()
            run = case.setup()
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
    finally:
        if prev is not None:
            structcache.activate(prev.root)
    record = {
        "name": case.name,
        "kind": case.kind,
        "wall_time_s": best,
        "work_units": case.work_units,
        "cycles_per_sec": case.work_units / best if best > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "config_hash": f"{stable_hash(case.label):016x}",
    }
    if log is not None:
        log(
            f"  {case.name:<28} {best:8.3f}s  "
            f"{record['cycles_per_sec']:>12.0f} units/s"
        )
    return record


def run_suite(case_names: Optional[List[str]] = None, repeat: int = 1,
              log=None) -> Dict[str, object]:
    """Run the selected cases and return a full report dict."""
    cases = resolve_cases(case_names)
    records = [run_case(case, repeat=repeat, log=log) for case in cases]
    return {
        "schema": SCHEMA,
        "created": datetime.now().isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "repeat": max(1, repeat),
        "cases": records,
    }


def default_report_name() -> str:
    """``BENCH_<stamp>.json`` — the repo-root artefact naming convention."""
    stamp = datetime.now().strftime("%Y%m%dT%H%M%S")
    return f"BENCH_{stamp}.json"


def write_report(report: Dict[str, object], path: Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
