"""Layer-boundary span tracing for the traced benchmark run.

:func:`install` wraps the simulator's public functions and methods at
each layer boundary (see :data:`HOOKS`) — where their callers look them
up — so every call records a span ``(name, start, end, parent, trial)``
in memory. Nothing inside the program changes; :func:`install` returns
an undo callable that restores every original. A layer's self time is
its spans' durations minus the time covered by their child spans
(:func:`self_times`).

Wrapping rules:

- a wrapper whose innermost open span already belongs to its own layer
  passes straight through (``PauseResumeFabric.__init__`` calling
  ``Fabric.__init__``, ``find_drain_path`` building a ``DrainPath``), so
  a layer's call count is the count of outermost entries;
- ``Fabric.movement_stage`` is split: the first unfrozen call on a
  vectorized fabric for each fault epoch is ``network.engine_compile``
  (the engine compiles its rows lazily inside it), every other call is
  ``network.movement``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns

MOVEMENT = "network.movement"
ENGINE_COMPILE = "network.engine_compile"

#: (module, attribute path, span name). Names bound into a caller's
#: module are patched in that module (``parts_for`` in the simulator,
#: ``recover_drain_paths`` in the fault injector, ``find_drain_path`` in
#: the drain controller); methods are patched on their class.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.harness", "execute_trial", "harness.trial"),
    ("repro.analysis.preflight", "validate_spec", "analysis.preflight"),
    ("repro.harness.trials", "topology_from_spec", "topology.build"),
    ("repro.core.simulator", "parts_for", "structcache.parts"),
    ("repro.core.simulator", "Simulation.__init__", "core.sim_init"),
    ("repro.core.simulator", "Simulation.run", "core.run"),
    ("repro.network.index", "FabricIndex.__init__", "network.index_init"),
    ("repro.network.fabric", "Fabric.__init__", "network.fabric_init"),
    ("repro.network.pause", "PauseResumeFabric.__init__", "network.fabric_init"),
    ("repro.network.fabric", "Fabric.movement_stage", MOVEMENT),
    ("repro.network.pause", "PauseResumeFabric.movement_stage", MOVEMENT),
    ("repro.network.fabric", "Fabric.inject_stage", "network.inject"),
    ("repro.network.fabric", "Fabric.skip_cycles", "network.skip"),
    ("repro.routing.adaptive", "AdaptiveMinimalRouting.__init__", "routing.init"),
    ("repro.routing.updown", "UpDownRouting.__init__", "routing.init"),
    ("repro.drain.controller", "find_drain_path", "drain.path_init"),
    ("repro.drain.path", "DrainPath.__init__", "drain.path_init"),
    ("repro.drain.controller", "DrainController.__init__", "drain.ctrl_init"),
    ("repro.drain.controller", "DrainController.step", "drain.ctrl_step"),
    ("repro.drain.ladder", "DegradationLadder.step", "drain.ladder_step"),
    ("repro.traffic.synthetic", "SyntheticTraffic.generate", "traffic.generate"),
    ("repro.traffic.synthetic", "SyntheticTraffic.idle_generate", "traffic.generate"),
    ("repro.traffic.synthetic", "SyntheticTraffic.consume", "traffic.consume"),
    ("repro.traffic.flows", "FlowTraffic.generate", "traffic.generate"),
    ("repro.traffic.flows", "FlowTraffic.idle_generate", "traffic.generate"),
    ("repro.traffic.flows", "FlowTraffic.consume", "traffic.consume"),
    ("repro.protocol.coherence", "CoherenceTraffic.generate", "protocol.generate"),
    ("repro.protocol.coherence", "CoherenceTraffic.idle_generate", "protocol.generate"),
    ("repro.protocol.coherence", "CoherenceTraffic.consume", "protocol.consume"),
    ("repro.faults.injector", "FaultInjector.step", "faults.step"),
    ("repro.faults.injector", "recover_drain_paths", "faults.recover"),
)

#: Span name -> (self-time metric, call-count metric).
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "harness.trial": ("harness.trial_self_s", "harness.trial_calls"),
    "analysis.preflight": ("analysis.preflight_s", "analysis.preflight_calls"),
    "topology.build": ("topology.build_s", "topology.build_calls"),
    "structcache.parts": ("structcache.parts_s", "structcache.parts_calls"),
    "core.sim_init": ("core.sim_init_s", "core.sim_init_calls"),
    "core.run": ("core.run_self_s", "core.run_calls"),
    "network.index_init": ("network.index_init_s", "network.index_init_calls"),
    "network.fabric_init": ("network.fabric_init_s", "network.fabric_init_calls"),
    ENGINE_COMPILE: ("network.engine_compile_s", "network.engine_compiles"),
    MOVEMENT: ("network.movement_s", "network.movement_calls"),
    "network.inject": ("network.inject_s", "network.inject_calls"),
    "network.skip": ("network.skip_s", "network.skip_calls"),
    "routing.init": ("routing.init_s", "routing.init_calls"),
    "drain.path_init": ("drain.path_init_s", "drain.path_init_calls"),
    "drain.ctrl_init": ("drain.ctrl_init_s", "drain.ctrl_init_calls"),
    "drain.ctrl_step": ("drain.ctrl_step_s", "drain.ctrl_step_calls"),
    "drain.ladder_step": ("drain.ladder_step_s", "drain.ladder_step_calls"),
    "traffic.generate": ("traffic.generate_s", "traffic.generate_calls"),
    "traffic.consume": ("traffic.consume_s", "traffic.consume_calls"),
    "protocol.generate": ("protocol.generate_s", "protocol.generate_calls"),
    "protocol.consume": ("protocol.consume_s", "protocol.consume_calls"),
    "faults.step": ("faults.step_s", "faults.step_calls"),
    "faults.recover": ("faults.recover_s", "faults.recomputes"),
}

#: Spans that build a trial's structures before its first cycle.
CONSTRUCTION = (
    "topology.build", "structcache.parts", "core.sim_init",
    "network.index_init", "network.fabric_init", ENGINE_COMPILE,
    "routing.init", "drain.path_init", "drain.ctrl_init",
)


class Tracer:
    """In-memory span store (parallel arrays) plus run counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # One entry per span; 8-byte arrays keep a million spans in ~40 MB.
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.trial = array("q")
        self.trial_id = -1
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.engines: Counter = Counter()
        #: Hook targets that could not be wrapped (module:attribute).
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def innermost(self) -> int:
        """Name id of the innermost open span (-1 when none is open)."""
        return self.name[self._stack[-1]] if self._stack else -1

    def write_json(self, fh) -> None:
        """Dump the spans column-wise (ns timestamps), one column at a time."""
        fh.write('{"names":' + json.dumps(self.names))
        for key, column in (("name", self.name), ("parent", self.parent),
                            ("trial", self.trial), ("start_ns", self.start),
                            ("end_ns", self.end)):
            fh.write(f',"{key}":')
            json.dump(column.tolist(), fh, separators=(",", ":"))
        fh.write("}")


def self_times(
    name: Sequence[int], parent: Sequence[int],
    start: Sequence[int], end: Sequence[int],
) -> Tuple[Dict[int, int], Counter]:
    """Per-name total self time (ns) and call count.

    A span's self time is its duration minus its direct children's
    durations (children of one span never overlap: calls nest).
    """
    self_ns = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            self_ns[par] -= end[idx] - start[idx]
    totals: Dict[int, int] = {}
    calls: Counter = Counter()
    for nid, value in zip(name, self_ns):
        totals[nid] = totals.get(nid, 0) + value
        calls[nid] += 1
    return totals, calls


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, fn: Callable, nid: int, family: frozenset,
          pick: Optional[Callable[[Any], int]],
          after: Optional[Callable[[Any], None]]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.innermost() in family:
            return fn(*args, **kwargs)
        idx = tracer.open(pick(args[0]) if pick is not None else nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args[0])
        return result

    return traced


def _movement_picker(tracer: Tracer) -> Callable[[Any], int]:
    move = tracer.name_id(MOVEMENT)
    compile_ = tracer.name_id(ENGINE_COMPILE)
    compiled_epoch: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def pick(fabric) -> int:
        if fabric.engine_name != "vectorized" or fabric.frozen:
            return move
        epoch = fabric.index.fault_epoch
        if compiled_epoch.get(fabric) == epoch:
            return move
        compiled_epoch[fabric] = epoch
        return compile_

    return pick


def _after_sim_init(tracer: Tracer) -> Callable[[Any], None]:
    def after(sim) -> None:
        fabric = sim.fabric
        tracer.engines[(fabric.engine_name, fabric.engine_fallback_reason)] += 1

    return after


def _after_run(tracer: Tracer) -> Callable[[Any], None]:
    counters = tracer.counters

    def after(sim) -> None:
        fabric = sim.fabric
        hops = sum(fabric.link_util)
        counters["cycles"] += fabric.cycle
        counters["ff_cycles"] += sim.ff_cycles
        counters["link_hops"] += hops
        summary = getattr(fabric, "pfc_summary", None)
        if summary is not None:
            counters["pfc_hops"] += hops
            counters["pause_stalls"] += summary()["pause_stalls"]

    return after


def install(tracer: Tracer, hooks=HOOKS) -> Callable[[], None]:
    """Wrap every hook target; returns a callable that undoes it all."""
    afters = {
        "Simulation.__init__": _after_sim_init(tracer),
        "Simulation.run": _after_run(tracer),
    }
    families: Dict[str, set] = {}
    for _module, _path, name in hooks:
        families.setdefault(name, set()).add(tracer.name_id(name))
    if MOVEMENT in families:
        families[MOVEMENT].add(tracer.name_id(ENGINE_COMPILE))
    pick = _movement_picker(tracer)
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, path, name in hooks:
        try:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            # Renamed or removed by a later change: its metrics read 0.
            tracer.missing.append(f"{module_name}:{path}")
            continue
        if isinstance(owner, type) and attr not in vars(owner):
            # Inherited: the defining class's wrapper covers it, and
            # restoring would pin the wrapper onto this subclass.
            tracer.missing.append(f"{module_name}:{path}")
            continue
        wrapped = _wrap(
            tracer, original, tracer.name_id(name), frozenset(families[name]),
            pick if name == MOVEMENT else None, afters.get(path),
        )
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int,
                  results: Sequence[Dict[str, Any]],
                  store_delta: Dict[str, int],
                  host_s: float, ref_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, normalised per trial.

    *host_s* and *ref_s* are the pass's summed per-trial host and
    reference seconds: self times are reported in reference seconds per
    trial (like the end-to-end timings), call counts per trial, so passes
    of different lengths and hosts of different speeds compare directly.
    """
    totals, calls = self_times(tracer.name, tracer.parent,
                               tracer.start, tracer.end)
    by_name = {name: nid for nid, name in enumerate(tracer.names)}
    to_ref = ref_s / host_s / 1e9 / trials
    out: Dict[str, float] = {}
    for span, (time_metric, count_metric) in SPAN_METRICS.items():
        nid = by_name.get(span)
        out[time_metric] = totals.get(nid, 0) * to_ref
        out[count_metric] = calls[nid] / trials
    trial_s = sum(totals.values()) * to_ref
    construction = sum(out[SPAN_METRICS[s][0]] for s in CONSTRUCTION)
    counters = tracer.counters
    movement_calls = calls[by_name.get(MOVEMENT)] + calls[by_name.get(ENGINE_COMPILE)]
    vectorized = sum(n for (engine, _), n in tracer.engines.items()
                     if engine == "vectorized")
    hits, misses = store_delta.get("hits", 0), store_delta.get("misses", 0)
    out.update({
        "structcache.hit_ratio": _ratio(hits, hits + misses),
        "drain.windows": sum(r.get("drain_windows", 0) for r in results) / trials,
        "drain.drained_pkts": sum(r.get("drained_packets", 0) for r in results) / trials,
        "drain.forced_drains": sum(
            (r.get("ladder") or {}).get("forced_drains", 0) for r in results
        ) / trials,
        "core.ff_share": _ratio(counters["ff_cycles"], counters["cycles"]),
        "network.vectorized_share": _ratio(vectorized, sum(tracer.engines.values())),
        "network.hops_per_cycle": _ratio(counters["link_hops"], movement_calls),
        "network.pause_stall_ratio": _ratio(
            counters["pause_stalls"], counters["pause_stalls"] + counters["pfc_hops"]
        ),
        "trace.construction_share": _ratio(construction, trial_s),
        "trace.movement_share": _ratio(out["network.movement_s"], trial_s),
        "trace.coverage": _ratio(sum(totals.values()) / 1e9, host_s),
    })
    return out
