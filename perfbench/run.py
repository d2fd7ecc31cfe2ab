"""Benchmark runner: one workload, one process, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_short --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A full report
(host, seed, engine mix, store stats, sample counts, percentiles, raw
host times, tracing overhead) is written to ``.perfbench/`` at the
repository root, and with ``--trace 1`` so are the recorded spans. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# One host thread for numpy/BLAS: must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "trial_s_p50": "s",
    "sim_cycles_per_s": "cycles/s",
    "pkts_per_s": "pkts/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-up measurement: fresh-invocation repetitions x specs per repetition.
SETUP_REPS = 5
SETUP_SPECS = 24

#: Host-speed probe: a fixed pure-Python loop timed around every trial,
#: plus a shorter run of it every ALARM_S seconds inside the trial.
#: Timings are reported in reference seconds, i.e. scaled to a host on
#: which the probe takes exactly PROBE_REF_S. Never change these values:
#: that would rescale every reported time.
PROBE_ITERS = 50_000
PROBE_REF_S = 0.0025
ALARM_S = 0.05
ALARM_ITERS = 10_000


def _import_program() -> None:
    """Import the simulator from ``src/`` of this checkout, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def host_probe_s(iters: int = PROBE_ITERS) -> float:
    """Host seconds *iters* iterations of the fixed probe loop take now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iters):
        x += i & 7
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls in host seconds and in reference seconds.

    The host changes speed by tens of percent over seconds (shared
    cores). Each call is bracketed by host-speed probes, and an interval
    timer takes short probes while it runs. Its reference time is its
    host time (less the in-call probes) scaled by ``PROBE_REF_S`` over
    the mean of all those probes. Use as a context manager.
    """

    def __enter__(self) -> "ReferenceClock":
        self._inside: List[float] = []
        self._inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, ALARM_S, ALARM_S)
        self._last_probe = self._probe()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(host_probe_s(ALARM_ITERS) * PROBE_ITERS / ALARM_ITERS)
        self._inside_s += time.perf_counter() - t0

    def _probe(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return host_probe_s()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """(fn(*args), host seconds, reference seconds)."""
        first = len(self._inside)
        inside_s = self._inside_s
        t0 = time.perf_counter()
        out = fn(*args)
        host = time.perf_counter() - t0 - (self._inside_s - inside_s)
        probe = self._probe()
        probes = [self._last_probe, probe] + self._inside[first:]
        self._last_probe = probe
        return out, host, host * PROBE_REF_S / statistics.fmean(probes)


@dataclass
class Pass:
    """Per-trial timings and outcomes of one closed-loop pass."""

    host_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)
    #: (trial index, result dict or the text of the exception it raised)
    outcomes: List[Tuple[int, Any]] = field(default_factory=list)
    wall_s: float = 0.0

    def results(self) -> List[Dict[str, Any]]:
        return [r for _, r in self.outcomes if isinstance(r, dict)]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def result_digest(result: Dict[str, Any]) -> str:
    """SHA-256 of a trial result's sorted, compact JSON encoding."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_errors(trials, outcomes, pinned: Optional[Dict[str, str]]) -> List[str]:
    """One message per failed trial: raised, digest mismatch or invariant."""
    from workloads import invariant_error

    errors = []
    for idx, result in outcomes:
        trial = trials[idx]
        if isinstance(result, str):
            errors.append(f"{trial.label}: raised: {result}")
            continue
        problem = invariant_error(trial.kind, result)
        if problem is None and pinned is not None:
            expected = pinned.get(trial.label)
            if expected is None:
                problem = "no pinned digest"
            elif result_digest(result) != expected:
                problem = "result digest differs from the pinned reference"
        if problem is not None:
            errors.append(f"{trial.label}: {problem}")
    return errors


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _run(spec) -> Any:
    """Preflight + execute one spec; an exception becomes its traceback."""
    from repro import harness
    from repro.analysis import preflight

    try:
        preflight.validate_spec(spec)
        return harness.execute_trial(spec)
    except Exception:  # the closed loop keeps running; the trial is failed
        return traceback.format_exc(limit=4)


def _fresh_invocation() -> None:
    """Drop in-process memos so the next pass sees a warm store only."""
    from repro import structcache
    from repro.analysis import preflight

    structcache.clear_memos()
    preflight.clear_preflight_cache()
    gc.collect()


def warm_pass(trials) -> Tuple[Dict[Tuple[str, Optional[str]], int], List[str]]:
    """Fill the structure store via 1-cycle copies; record the engine mix."""
    from spans import Tracer, install
    from workloads import one_cycle_copy

    observer = Tracer()
    uninstall = install(observer, hooks=(
        ("repro.core.simulator", "Simulation.__init__", "core.sim_init"),
    ))
    try:
        outcomes = [_run(one_cycle_copy(t.spec)) for t in trials]
    finally:
        uninstall()
    errors = [f"{t.label} (1-cycle): raised: {o}"
              for t, o in zip(trials, outcomes) if isinstance(o, str)]
    return dict(observer.engines), errors


def setup_pass(trials) -> Tuple[List[float], Pass]:
    """Time to first cycle, over SETUP_REPS fresh invocations.

    Each repetition drops the in-process memos and runs 1-cycle copies
    of (a strided subset of at most SETUP_SPECS of) the workload's specs.
    Returns each repetition's mean reference seconds, and the samples.
    """
    from workloads import one_cycle_copy

    chosen = list(enumerate(trials))[::-(-len(trials) // SETUP_SPECS)]
    copies = [(idx, one_cycle_copy(t.spec)) for idx, t in chosen]
    samples = Pass()
    rep_means = []
    for _ in range(SETUP_REPS):
        _fresh_invocation()
        rep = []
        with ReferenceClock() as clock:
            for idx, spec in copies:
                outcome, host, ref = clock.time(_run, spec)
                samples.host_s.append(host)
                samples.ref_s.append(ref)
                samples.outcomes.append((idx, outcome))
                rep.append(ref)
        rep_means.append(statistics.fmean(rep))
    return rep_means, samples


def timed_pass(trials, seconds: float, tracer=None) -> Pass:
    """Closed loop over whole rounds of *trials* until *seconds* elapse."""
    _fresh_invocation()
    out = Pass()
    begin = time.perf_counter()
    with ReferenceClock() as clock:
        while True:
            for idx, trial in enumerate(trials):
                if tracer is not None:
                    tracer.trial_id = len(out.outcomes)
                outcome, host, ref = clock.time(_run, trial.spec)
                out.host_s.append(host)
                out.ref_s.append(ref)
                out.outcomes.append((idx, outcome))
            if time.perf_counter() - begin >= seconds:
                break
    out.wall_s = time.perf_counter() - begin
    return out


# ----------------------------------------------------------------------
# Metrics and report
# ----------------------------------------------------------------------
def throughput(p: Pass, times: Sequence[float]) -> Dict[str, float]:
    """Rates of a typical round, plus the median per-trial *times*.

    Every round repeats the same specs with identical results, so a
    round's work is fixed. A typical round takes each spec's median time
    over the rounds, which drops the trials a host-speed change landed in.
    """
    per_spec: Dict[int, List[float]] = {}
    work: Dict[int, Tuple[int, int]] = {}
    for (idx, result), t in zip(p.outcomes, times):
        per_spec.setdefault(idx, []).append(t)
        if isinstance(result, dict):
            work[idx] = (result["cycles"], result["packets_ejected"])
    busy = sum(statistics.median(ts) for ts in per_spec.values())
    return {
        "trials_per_s": len(per_spec) / busy,
        "trial_s_p50": statistics.median(times),
        "sim_cycles_per_s": sum(c for c, _ in work.values()) / busy,
        "pkts_per_s": sum(k for _, k in work.values()) / busy,
    }


def _distribution(samples: Sequence[float]) -> Dict[str, Any]:
    """Median plus each upper percentile with >= 10 samples beyond it."""
    out: Dict[str, Any] = {"n": len(samples), "p50": statistics.median(samples)}
    for pct, n_min in ((90, 100), (99, 1000)):
        if len(samples) >= n_min:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def _pass_report(trials, p: Pass) -> Dict[str, Any]:
    return {
        "wall_s": p.wall_s,
        "rounds": len(p.outcomes) // len(trials),
        "trial_ref_s": _distribution(p.ref_s),
        "trial_host_s": _distribution(p.host_s),
        "reference": throughput(p, p.ref_s),
        "host": throughput(p, p.host_s),
    }


def _store_delta(before: Optional[Dict], after: Optional[Dict]) -> Dict[str, int]:
    if before is None or after is None:
        return {}
    return {k: after[k] - before[k] for k in ("hits", "misses", "compiles", "corrupt")}


def _host() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the report (``metrics`` among its keys)."""
    from repro import structcache
    from spans import Tracer, install, layer_metrics
    from workloads import DEFAULT_SEED, WORKLOADS

    trials = WORKLOADS[workload](seed)
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())["workloads"].get(workload, {})

    OUT_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    os.environ["REPRO_STRUCT_CACHE"] = store_dir
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ.pop("REPRO_CACHE_DIR", None)
    structcache.activate(store_dir)
    report: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": _host(), "trials_per_round": len(trials),
        "digests_checked": pinned is not None,
        "probe": {"iters": PROBE_ITERS, "ref_s": PROBE_REF_S},
    }
    metrics: Dict[str, float] = {}
    try:
        engines, errors = warm_pass(trials)
        attempted = len(trials)
        report["engine_mix"] = [
            {"engine": e, "fallback_reason": r, "trials": n}
            for (e, r), n in sorted(engines.items(), key=lambda kv: str(kv[0]))
        ]
        report["store_after_warm"] = structcache.stats()
        if not trace:
            rep_means, setup = setup_pass(trials)
            errors += [f"{trials[i].label} (1-cycle): raised: {r}"
                       for i, r in setup.outcomes if isinstance(r, str)]
            attempted += len(setup.outcomes)
            report["setup"] = {
                "rep_mean_ref_s": rep_means,
                "sample_ref_s": _distribution(setup.ref_s),
                "sample_host_s": _distribution(setup.host_s),
            }
            metrics["setup_s"] = statistics.median(rep_means)
        before = structcache.stats()
        plain = timed_pass(trials, seconds)
        report["store_timed_pass"] = _store_delta(before, structcache.stats())
        errors += trial_errors(trials, plain.outcomes, pinned)
        attempted += len(plain.outcomes)
        report["timed_pass"] = _pass_report(trials, plain)
        if trace:
            tracer = Tracer()
            uninstall = install(tracer)
            before = structcache.stats()
            try:
                traced = timed_pass(trials, seconds, tracer)
            finally:
                uninstall()
            store = _store_delta(before, structcache.stats())
            errors += trial_errors(trials, traced.outcomes, pinned)
            attempted += len(traced.outcomes)
            metrics = layer_metrics(
                tracer, len(traced.outcomes), traced.results(), store,
                host_s=sum(traced.host_s), ref_s=sum(traced.ref_s),
            )
            untraced_cps = report["timed_pass"]["reference"]["sim_cycles_per_s"]
            traced_report = _pass_report(trials, traced)
            overhead = untraced_cps - traced_report["reference"]["sim_cycles_per_s"]
            metrics["trace.overhead_share"] = overhead / untraced_cps
            report["traced_pass"] = dict(
                traced_report, store=store, spans=len(tracer.name),
                hooks_missing=tracer.missing,
                overhead_sim_cycles_per_s=overhead,
            )
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
            with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
                tracer.write_json(fh)
            report["spans_file"] = spans_path.name
        else:
            metrics.update(report["timed_pass"]["reference"])
    finally:
        structcache.deactivate()
        shutil.rmtree(store_dir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        metrics["peak_rss_mb"] = report["peak_rss_mb"]
    report["attempted"] = attempted
    report["failed"] = len(errors)
    report["failed_frac"] = len(errors) / attempted
    report["errors"] = errors[:50]
    report["metrics"] = metrics
    report_path = OUT_DIR / f"report-{workload}-trace{int(trace)}-seed{seed}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/trial"
    if name.endswith(("_calls", ".recomputes", ".engine_compiles")) or name in (
        "drain.windows", "drain.drained_pkts", "drain.forced_drains",
    ):
        return "count/trial"
    return "ratio"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report["errors"]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {
        name: {"value": value,
               "unit": END_TO_END_UNITS.get(name) if not args.trace else _layer_unit(name)}
        for name, value in sorted(report["metrics"].items())
    }
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
