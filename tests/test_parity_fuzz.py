"""Differential parity fuzzing across the engine matrix.

The fabric ships three movement engines — the dense reference sweep
(``dense=True``), the scalar active-set kernel and the vectorized
saturation kernel — that are contractually bit-identical (see DESIGN.md,
"Vectorized kernel"). The dense-parity suite pins hand-picked scenarios;
this layer sweeps a pinned-seed randomized configuration pool across
scheme x topology x load x fault schedule and asserts full
``NetworkStats.as_dict()`` equality between all three engines for every
configuration.

On the first divergence the test dumps a minimized repro — the full
serialized :class:`SimConfig`, the topology kind, rate, fault schedule
and seed — both into the assertion message and as JSON next to pytest's
tmp dir, so a failure can be replayed without re-running the sweep.

The pool is deterministic: a fixed master seed drives every per-config
seed draw, so CI and local runs fuzz the exact same configurations.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from repro.core.config import Scheme
from repro.core.configio import config_to_dict
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus

from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

#: Tiny but non-trivial: saturates a 4x4 at the high rate, crosses two
#: drain epochs and several spin timeouts inside the measured window.
FUZZ_SCALE = Scale(
    warmup=80,
    measure=240,
    fault_patterns=1,
    sweep_rates=(0.05,),
    epoch=96,
    spin_timeout=48,
)

LOAD_POINTS = (0.02, 0.12, 0.30)  # low / near-saturation / saturation

#: Schemes whose routing stack survives a runtime link fault (the injector
#: rebuilds every routing function; DOR and up*/down* escape functions have
#: no rebuild story, so ESCAPE_VC/UPDOWN configs fuzz fault-free only).
FAULT_SAFE_SCHEMES = (Scheme.DRAIN, Scheme.NONE)

MASTER_SEED = 0xD5A1B


def _fault_schedule(seed: int) -> FaultSchedule:
    # Links (5,6) and (9,10) exist in both the 4x4 mesh and torus; both
    # events land inside the measured window, exercising the engines'
    # fault-epoch table invalidation mid-run.
    return FaultSchedule(
        events=(
            FaultEvent(cycle=120, kind="link", target=(5, 6)),
            FaultEvent(cycle=200, kind="link", target=(9, 10)),
        ),
        seed=seed,
        onset="uniform",
    )


def _build_pool():
    """The pinned fuzz pool: >= 25 deterministic configurations."""
    master = random.Random(MASTER_SEED)
    pool = []

    def add(scheme, topo, rate, faults):
        pool.append({
            "scheme": scheme,
            "topo": topo,
            "rate": rate,
            "faults": faults,
            "seed": master.randrange(1, 2 ** 31),
        })

    # One load point per (scheme, topology), chosen by the master RNG.
    for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                   Scheme.STATIC_BUBBLE, Scheme.NONE):
        for topo in ("mesh", "torus", "irregular"):
            add(scheme, topo, master.choice(LOAD_POINTS), None)
    # Saturation sweep: every scheme on the mesh at the saturation point.
    for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                   Scheme.STATIC_BUBBLE, Scheme.NONE, Scheme.IDEAL,
                   Scheme.UPDOWN):
        add(scheme, "mesh", 0.30, None)
    # Mid-run link faults under load (engines must rebuild their tables).
    for scheme in FAULT_SAFE_SCHEMES:
        for topo in ("mesh", "torus"):
            for rate in (0.12, 0.30):
                add(scheme, topo, rate, "links")
    return pool


POOL = _build_pool()


def _topology(kind: str, seed: int):
    if kind == "mesh":
        return make_mesh(4, 4), 4
    if kind == "torus":
        return make_torus(4, 4), 4
    # Irregular: a 4x4 mesh with two pinned-seed link faults baked in.
    return inject_link_faults(make_mesh(4, 4), 2,
                              random.Random(seed % 97 + 1)), None


def _run(entry, dense, engine):
    topology, width = _topology(entry["topo"], entry["seed"])
    config = scheme_config(entry["scheme"], FUZZ_SCALE, seed=entry["seed"])
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        entry["rate"],
        random.Random(derive_seed(entry["seed"], "traffic", "uniform_random",
                                  entry["rate"])),
    )
    schedule = None
    if entry["faults"] is not None:
        schedule = _fault_schedule(entry["seed"] & 0xFFFF)
    sim = Simulation(topology, config, traffic, dense=dense, engine=engine,
                     fault_schedule=schedule)
    sim.run(FUZZ_SCALE.total_cycles, warmup=FUZZ_SCALE.warmup)
    return sim


def _repro_blob(entry, engines):
    topology, _ = _topology(entry["topo"], entry["seed"])
    config = scheme_config(entry["scheme"], FUZZ_SCALE, seed=entry["seed"])
    return {
        "config": config_to_dict(config),
        "topology": entry["topo"],
        "topology_name": topology.name,
        "rate": entry["rate"],
        "fault_schedule": entry["faults"],
        "seed": entry["seed"],
        "warmup": FUZZ_SCALE.warmup,
        "cycles": FUZZ_SCALE.total_cycles,
        "engines_compared": engines,
    }


class TestParityFuzz:
    def test_pool_is_pinned_and_large_enough(self):
        # The pool must never silently shrink or reorder: the master seed
        # pins both membership and per-config seeds.
        assert len(POOL) >= 25
        assert POOL == _build_pool()
        # Same (scheme, topo, rate) may legitimately recur with a fresh
        # seed; the seeded tuple must be unique.
        assert len({(e["scheme"], e["topo"], e["rate"], e["faults"],
                     e["seed"]) for e in POOL}) == len(POOL)

    def test_differential_sweep(self):
        vectorized_hits = 0
        for i, entry in enumerate(POOL):
            dense = _run(entry, dense=True, engine=None)
            scalar = _run(entry, dense=False, engine="scalar")
            vector = _run(entry, dense=False, engine="vectorized")
            if vector.fabric.engine_name == "vectorized":
                vectorized_hits += 1
            results = {
                "dense": dense.stats.as_dict(),
                "scalar": scalar.stats.as_dict(),
                "vectorized": vector.stats.as_dict(),
            }
            if not (results["dense"] == results["scalar"]
                    == results["vectorized"]):
                blob = _repro_blob(entry, list(results))
                blob["resolved_engine"] = vector.fabric.engine_name
                blob["fallback_reason"] = vector.fabric.engine_fallback_reason
                path = Path(tempfile.gettempdir()) / (
                    f"parity_fuzz_repro_{i}.json"
                )
                path.write_text(json.dumps(blob, indent=2, sort_keys=True))
                diverging = [
                    key for key in results["dense"]
                    if not (results["dense"][key] == results["scalar"][key]
                            == results["vectorized"][key])
                ]
                raise AssertionError(
                    f"engine divergence on pool entry {i} "
                    f"(fields: {diverging}); repro written to {path}:\n"
                    + json.dumps(blob, indent=2, sort_keys=True)
                )
        # The sweep is vacuous if the vectorized engine never engaged.
        assert vectorized_hits >= len(POOL) // 2

    def test_fault_configs_apply_faults(self):
        # The fault entries must actually exercise the mid-run rebuild.
        entry = next(e for e in POOL if e["faults"] is not None)
        sim = _run(entry, dense=False, engine="vectorized")
        assert sim.stats.faults_applied >= 1
        assert sim.fabric.engine_name == "vectorized"
        assert sim.fabric._engine.rebuilds >= 3  # initial + one per epoch
