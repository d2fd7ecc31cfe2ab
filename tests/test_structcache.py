"""Tests for the content-addressed compiled-structure store.

Covers the tentpole guarantees: digest stability across processes,
warm-vs-cold bit-identical trial rows, corruption-detect-and-recompute,
fault-epoch invalidation of adopted tables, and the compile-once
warm-start protocol under concurrent workers.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import structcache
from repro.core.config import Scheme
from repro.core.configio import config_to_dict
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config, synthetic_trial_for
from repro.harness import Harness, execute_trial
from repro.drain.path import find_drain_path
from repro.faults.schedule import FaultSchedule
from repro.harness import fault_recovery_trial
from repro.harness.manifest import build_manifest
from repro.harness.trials import structural_params, topology_to_spec
from repro.network.index import DenseCandidateTables, FabricIndex
from repro.network.vectorized import _make_group, _make_mixed_group
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.datacenter import make_leaf_spine
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom

TINY = Scale(warmup=60, measure=200, fault_patterns=1,
             sweep_rates=(0.04,), epoch=256, spin_timeout=64)


@pytest.fixture()
def store(tmp_path):
    """A fresh active store for one test; deactivated afterwards."""
    structcache.clear_memos()
    st = structcache.activate(tmp_path / "structs")
    yield st
    structcache.deactivate()
    structcache.clear_memos()


@pytest.fixture(autouse=True)
def _inactive_by_default():
    """Tests not using the ``store`` fixture run store-less (the library
    default); whatever a test did, the next one starts clean."""
    yield
    structcache.deactivate()
    structcache.clear_memos()


def tiny_spec(seed=1, scheme=Scheme.DRAIN, rate=0.05):
    return synthetic_trial_for(
        make_mesh(4, 4), scheme, rate, TINY, mesh_width=4, seed=seed
    )


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_topology_payload_matches_trial_spec(self):
        # The store's digest payload deliberately mirrors the harness's
        # topology serialisation field for field (duplicated to avoid an
        # import cycle). If this drifts, trial caching and structure
        # caching would key the same topology differently.
        for topology in (
            make_mesh(4, 4),
            make_torus(3, 3),
            make_leaf_spine(8, 4, uplinks=1, east_west=True),
            inject_link_faults(make_mesh(4, 4), 3, random.Random(7)),
        ):
            assert (
                structcache.topology_payload(topology)
                == topology_to_spec(topology)
            ), topology.name

    def test_digest_stable_across_processes(self):
        code = (
            "from repro.structcache import structure_digest, "
            "topology_digest, topology_payload\n"
            "from repro.core.configio import config_to_dict\n"
            "from repro.experiments.common import scheme_config, Scale\n"
            "from repro.core.config import Scheme\n"
            "from repro.topology.mesh import make_mesh\n"
            "t = make_mesh(4, 4)\n"
            "c = config_to_dict(scheme_config("
            "Scheme.DRAIN, Scale.ci(), seed=5))\n"
            "print(topology_digest(t))\n"
            "print(structure_digest(topology_payload(t), c))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        topology = make_mesh(4, 4)
        config = config_to_dict(scheme_config(Scheme.DRAIN, Scale.ci(), seed=5))
        assert out[0] == structcache.topology_digest(topology)
        assert out[1] == structcache.structure_digest(
            structcache.topology_payload(topology), config
        )

    def test_structure_digest_ignores_seed_only(self):
        topology = structcache.topology_payload(make_mesh(4, 4))
        base = config_to_dict(scheme_config(Scheme.DRAIN, TINY, seed=1))
        reseeded = dict(base, seed=99)
        rescheme = dict(base, scheme="spin")
        assert (structcache.structure_digest(topology, base)
                == structcache.structure_digest(topology, reseeded))
        assert (structcache.structure_digest(topology, base)
                != structcache.structure_digest(topology, rescheme))

    def test_structural_params_of_specs(self):
        spec = tiny_spec()
        topo, config = structural_params(spec)
        assert topo == spec.params["topology"]
        assert config == spec.params["config"]


# ----------------------------------------------------------------------
# Store round-trips and corruption
# ----------------------------------------------------------------------
class TestStoreArtifacts:
    def test_distances_roundtrip_and_counters(self, store):
        topology = make_mesh(4, 4)
        cold = structcache.distances(topology)
        assert store.compiles == 1 and store.misses == 1
        structcache.clear_memos()
        warm = structcache.distances(topology)
        assert warm == cold == topology.all_pairs_distances(scalar=True)
        assert store.hits == 1 and store.compiles == 1

    def test_distances_rows_are_fresh_copies(self, store):
        # FabricIndex.apply_faults overwrites rows in place; a shared
        # cached list would poison every later consumer.
        topology = make_mesh(4, 4)
        first = structcache.distances(topology)
        first[0][1] = -77
        assert structcache.distances(topology)[0][1] == 1

    def test_truncated_array_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = structcache.distances(topology)
        [npy] = list(store.root.glob("dist/*/*/dist.npy"))
        npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1
        # The corrupt entry was replaced by a fresh, loadable one.
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1

    def test_garbage_meta_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = structcache.distances(topology)
        [meta] = list(store.root.glob("dist/*/*/meta.json"))
        meta.write_text("{not json")
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1

    def test_parts_roundtrip(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = structcache.parts_for(topology, config)
        assert cold.routing is not None and cold.drain_links is not None
        compiled = store.compiles
        structcache.clear_memos()
        warm = structcache.parts_for(topology, config)
        assert store.compiles == compiled  # pure load, no recompile
        for a, b in zip(cold.routing, warm.routing):
            assert a.tolist() == b.tolist()
        assert warm.drain_links == cold.drain_links

    def test_parts_inactive_store_is_none(self):
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        assert structcache.parts_for(make_mesh(4, 4), config) is None

    def test_truncated_routing_recomputes(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = structcache.parts_for(topology, config)
        [npy] = list(store.root.glob("routing/*/*/links.npy"))
        npy.write_bytes(npy.read_bytes()[:64])
        structcache.clear_memos()
        warm = structcache.parts_for(topology, config)
        assert store.corrupt == 1
        for a, b in zip(cold.routing, warm.routing):
            assert a.tolist() == b.tolist()


# ----------------------------------------------------------------------
# Simulator adoption + fault-epoch invalidation
# ----------------------------------------------------------------------
class TestAdoption:
    def test_sim_results_identical_with_store(self, store, tmp_path):
        spec = tiny_spec()
        cold = json.loads(json.dumps(execute_trial(spec)))
        structcache.clear_memos()
        warm = json.loads(json.dumps(execute_trial(spec)))
        structcache.deactivate()
        structcache.clear_memos()
        bare = json.loads(json.dumps(execute_trial(spec)))
        assert cold == warm == bare

    def test_fault_epoch_invalidates_adopted_tables(self, store):
        topology = make_mesh(4, 4)
        index = FabricIndex(topology)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        parts = structcache.parts_for(topology, config)
        tables = DenseCandidateTables.from_arrays(index, *parts.routing)
        routing = AdaptiveMinimalRouting(index, tables=tables)
        assert routing.compiled_tables is tables
        reference = {
            (s, d): routing.raw_candidates(s, d)
            for s in range(4) for d in range(4) if s != d
        }

        # Kill one bidirectional link mid-run: the epoch advances and the
        # pre-fault tables must not survive the rebuild.
        dead = 0
        index.apply_faults({dead, index.link_reverse[dead]}, set())
        assert index.fault_epoch == 1
        routing.rebuild()
        assert routing.compiled_tables is None

        # Stale tables (epoch 0) offered to a faulted index are refused.
        refused = AdaptiveMinimalRouting(index, tables=tables)
        assert refused.compiled_tables is None

        # A fresh index at epoch 0 adopts again and agrees with scratch.
        fresh = AdaptiveMinimalRouting(
            FabricIndex(topology),
            tables=DenseCandidateTables.from_arrays(
                FabricIndex(topology), *parts.routing
            ),
        )
        for (s, d), cands in reference.items():
            assert fresh.raw_candidates(s, d) == cands

    def test_boot_adoption_matches_scratch_build(self, store):
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        parts = structcache.parts_for(topology, config)
        index = FabricIndex(topology)
        adopted = AdaptiveMinimalRouting(
            index, tables=DenseCandidateTables.from_arrays(
                index, *parts.routing
            ),
        )
        scratch = AdaptiveMinimalRouting(FabricIndex(topology))
        n = topology.num_nodes
        for s in range(n):
            for d in range(n):
                if s != d:
                    assert (adopted.raw_candidates(s, d)
                            == scratch.raw_candidates(s, d))


# ----------------------------------------------------------------------
# Harness warm start
# ----------------------------------------------------------------------
class TestHarnessWarmStart:
    def test_warm_vs_cold_rows_bit_identical(self, store):
        specs = [tiny_spec(seed=s) for s in (1, 2, 3)]
        cold = Harness(workers=1, cache=None).run(specs)
        structcache.clear_memos()
        warm = Harness(workers=1, cache=None).run(specs)
        structcache.deactivate()
        structcache.clear_memos()
        bare = Harness(workers=1, cache=None).run(specs)
        dump = lambda rows: json.dumps(rows, sort_keys=True)  # noqa: E731
        assert dump(cold) == dump(warm) == dump(bare)

    def test_concurrent_workers_compile_once(self, store):
        # Four trials over ONE structure, two workers: the parent's warm
        # start compiles each artefact exactly once; workers only load.
        specs = [tiny_spec(seed=s) for s in (1, 2, 3, 4)]
        results = Harness(workers=2, cache=None).run(specs)
        assert len(results) == 4
        counts = store.entry_counts()
        assert counts["dist"] == 1, counts
        assert counts["routing"] == 1, counts
        assert counts["drain"] == 1, counts
        # dist + routing + drain compiled once each, never again.
        assert store.compiles == 3, store.stats()
        assert store.corrupt == 0

    def test_two_structures_two_compiles(self, store):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2, scheme=Scheme.SPIN)]
        Harness(workers=1, cache=None).run(specs)
        counts = store.entry_counts()
        # One topology (shared dist/) but two (topology, config) routing
        # structures; drain tables only exist for the DRAIN scheme.
        assert counts["dist"] == 1, counts
        assert counts["routing"] == 2, counts
        assert counts["drain"] == 1, counts


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
class TestCertificates:
    def test_preflight_certificate_persists(self, store):
        from repro.analysis.preflight import (
            clear_preflight_cache,
            validate_spec,
        )

        spec = tiny_spec()
        clear_preflight_cache()
        first = validate_spec(spec)
        assert first is not None and store.entry_counts()["certs"] == 1
        clear_preflight_cache()
        second = validate_spec(spec)
        assert second.as_dict() == first.as_dict()
        assert store.entry_counts()["certs"] == 1


# ----------------------------------------------------------------------
# Memo eviction order
# ----------------------------------------------------------------------
class TestMemoEviction:
    def test_hot_structure_survives_lru(self, store):
        # Re-hit between every cold insert: least-recently-used eviction
        # must keep it, where insertion order would drop it first.
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        hot = structcache.parts_for(make_mesh(3, 3), config)
        for width, height in ((4, 4), (3, 4), (4, 3), (2, 5)):
            structcache.parts_for(make_mesh(width, height), config)
            assert structcache.parts_for(make_mesh(3, 3), config) is hot
        assert structcache.parts_for(make_mesh(3, 3), config) is hot
        # The least recently used structure is the one that went: asking
        # for it again reloads it from disk.
        compiled, hits = store.compiles, store.hits
        structcache.parts_for(make_mesh(4, 4), config)
        assert store.compiles == compiled and store.hits > hits


# ----------------------------------------------------------------------
# Derived in-process artefacts (engine rows, turn tables)
# ----------------------------------------------------------------------
def small_sim(topology, scheme=Scheme.DRAIN, seed=3, rate=0.08, **kwargs):
    config = scheme_config(scheme, TINY, seed=seed)
    traffic = SyntheticTraffic(
        UniformRandom(topology.num_nodes), rate, random.Random(seed)
    )
    return Simulation(topology, config, traffic, **kwargs)


def reference_rows(tables, mode, escape_tables=None):
    """The row construction without interning: one group per row."""
    rows, esc_rows = [], []
    main = tables.row_lists()
    esc_main = escape_tables.row_lists() if escape_tables else None
    for idx, links in enumerate(main):
        row = esc = ()
        if mode is None and links:
            row = esc = (_make_group(links, 0),)
        elif mode == "drain" and links:
            row = (_make_group(links, 3), _make_group(links, 2))
            esc = (_make_group(links, 2),)
        elif mode == "escape_vc":
            pairs = [(link, 4) for link in links]
            pairs.extend((link, 2) for link in esc_main[idx])
            row = (_make_mixed_group(pairs),) if pairs else ()
            if esc_main[idx]:
                esc = (_make_group(esc_main[idx], 2),)
        rows.append(row)
        esc_rows.append(esc)
    return tuple(rows), tuple(esc_rows)


class TestDerivedArtifacts:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: synthetic_trial_for(
                make_mesh(8, 8), Scheme.DRAIN, 0.08, TINY, mesh_width=8
            ),
            lambda: synthetic_trial_for(
                make_mesh(4, 4), Scheme.ESCAPE_VC, 0.1, TINY, mesh_width=4
            ),
            lambda: synthetic_trial_for(
                make_leaf_spine(8, 4, uplinks=1, east_west=True),
                Scheme.DRAIN, 0.08, TINY,
            ),
            lambda: fault_recovery_trial(
                make_mesh(4, 4),
                scheme_config(Scheme.DRAIN, TINY, seed=5),
                0.06, cycles=400, warmup=60,
                schedule=FaultSchedule.generate(
                    make_mesh(4, 4), 2, seed=5, window=(100, 250),
                    ensure_connected=True,
                ),
                mesh_width=4,
            ),
        ],
        ids=["drain-mesh8", "escape-vc-mesh4", "drain-leafspine",
             "fault-recovery"],
    )
    def test_memo_hit_results_equal_store_off(self, store, make_spec):
        spec = make_spec()
        first = json.loads(json.dumps(execute_trial(spec)))
        builds, hits = store.derived_builds, store.derived_hits
        assert builds >= 2  # candidate tables + engine rows at least
        second = json.loads(json.dumps(execute_trial(spec)))
        assert store.derived_builds == builds
        assert store.derived_hits >= hits + builds
        structcache.deactivate()
        structcache.clear_memos()
        bare = json.loads(json.dumps(execute_trial(spec)))
        assert first == second == bare

    def test_fault_trial_leaves_memoized_rows_intact(self, store):
        mesh = make_mesh(4, 4)
        boot = small_sim(mesh)
        boot.run(40)
        parts = structcache.parts_for(mesh, boot.config)
        rows = parts.derived["engine"]
        turns = parts.derived["turns"]
        assert boot.fabric._engine._rows is rows.rows
        assert boot.drain_controller.turn_tables is turns[0]
        snapshot = reference_rows(rows.tables, "drain")
        turn_snapshot = {r: dict(t._turns) for r, t in turns[0].items()}
        ports_snapshot = [list(c) for c in turns[1]]

        schedule = FaultSchedule.generate(
            mesh, 2, seed=9, window=(50, 120), ensure_connected=True
        )
        faulty = small_sim(mesh, seed=4, fault_schedule=schedule)
        faulty.run(300)
        assert faulty.index.fault_epoch > 0
        assert faulty.fabric._engine._rows is not rows.rows
        assert faulty.drain_controller.turn_tables is not turns[0]

        # Same objects, same content: nothing wrote back into the memo.
        assert parts.derived["engine"] is rows
        assert parts.derived["turns"] is turns
        assert (rows.rows, rows.esc_rows) == snapshot
        assert {r: dict(t._turns) for r, t in turns[0].items()} == (
            turn_snapshot
        )
        assert [list(c) for c in turns[1]] == ports_snapshot

        after = small_sim(mesh, seed=5)
        after.run(40)
        assert after.fabric._engine._rows is rows.rows
        assert after.drain_controller.turn_tables is turns[0]

    def test_boot_guards_refuse_memo(self, store):
        mesh = make_mesh(4, 4)
        small_sim(mesh).run(10)
        rows = structcache.parts_for(
            mesh, scheme_config(Scheme.DRAIN, TINY, seed=3)
        ).derived["engine"]
        # Fault epoch moved before the first build: private rows.
        faulted = small_sim(mesh, seed=4)
        faulted.index.apply_faults({0, faulted.index.link_reverse[0]}, set())
        faulted.fabric.routing.rebuild()
        faulted.run(10)
        assert faulted.fabric._engine._rows is not rows.rows
        # Routing tables no longer the memo's: private rows too.
        rebuilt = small_sim(mesh, seed=5)
        rebuilt.fabric.routing.rebuild()
        rebuilt.run(10)
        assert rebuilt.fabric._engine._rows is not rows.rows
        assert rebuilt.fabric._engine._rows == rows.rows
        assert structcache.parts_for(
            mesh, scheme_config(Scheme.DRAIN, TINY, seed=3)
        ).derived["engine"] is rows

    def test_invalidate_detaches_from_memo(self, store):
        mesh = make_mesh(4, 4)
        sim = small_sim(mesh)
        sim.run(20)
        rows = structcache.parts_for(mesh, sim.config).derived["engine"]
        engine = sim.fabric._engine
        assert engine._rows is rows.rows
        sim.fabric.invalidate_routing_cache()
        sim.run(20)
        assert engine._rows is not None and engine._rows is not rows.rows
        assert engine._rows == rows.rows

    def test_explicit_drain_path_never_adopts(self, store):
        mesh = make_mesh(4, 4)
        small_sim(mesh).run(10)
        turns = structcache.parts_for(
            mesh, scheme_config(Scheme.DRAIN, TINY, seed=3)
        ).derived["turns"]
        own = small_sim(mesh, drain_path=find_drain_path(mesh))
        ctrl = own.drain_controller
        assert ctrl.turn_tables is not turns[0]
        assert ctrl.path_port_cycles is not turns[1]
        assert ctrl.path_port_cycles == turns[1]

    def test_clear_memos_drops_derived(self, store):
        mesh = make_mesh(4, 4)
        sim = small_sim(mesh)
        sim.run(10)
        parts = structcache.parts_for(mesh, sim.config)
        assert set(parts.derived) == {"tables", "engine", "turns"}
        builds = store.derived_builds
        structcache.clear_memos()
        fresh = structcache.parts_for(mesh, sim.config)
        assert fresh is not parts and fresh.derived == {}
        small_sim(mesh).run(10)
        assert store.derived_builds == builds + 3

    @pytest.mark.parametrize(
        "scheme,mode",
        [(Scheme.DRAIN, "drain"), (Scheme.NONE, None),
         (Scheme.ESCAPE_VC, "escape_vc")],
    )
    def test_interned_rows_match_plain_construction(self, store, scheme,
                                                    mode):
        mesh = make_mesh(8, 8)
        sim = small_sim(mesh, scheme=scheme)
        sim.run(10)
        compiled = structcache.parts_for(mesh, sim.config).derived["engine"]
        assert sim.fabric._engine._rows is compiled.rows
        assert (compiled.rows, compiled.esc_rows) == reference_rows(
            compiled.tables, mode, compiled.escape_tables
        )
        # Router 0 reaches routers 1 and 2 (due east) over the same single
        # link: their rows share one group object.
        assert compiled.rows[1] == compiled.rows[2]
        assert compiled.rows[1][0] is compiled.rows[2][0]
        distinct = {id(g) for row in compiled.rows for g in row}
        assert len(distinct) < len(compiled.rows) // 4


class TestDerivedCounters:
    def test_stats_report_derived_counters(self, store):
        stats = structcache.stats()
        assert stats["derived_builds"] == 0 and stats["derived_hits"] == 0
        mesh = make_mesh(4, 4)
        small_sim(mesh).run(10)
        compiles = store.compiles
        assert store.derived_builds == 3 and store.derived_hits == 0
        small_sim(mesh, seed=4).run(10)
        assert store.derived_builds == 3 and store.derived_hits == 3
        # Derived artefacts are never disk compiles.
        assert store.compiles == compiles
        stats = structcache.stats()
        assert (stats["derived_builds"], stats["derived_hits"]) == (3, 3)

    def test_manifest_surfaces_derived_counters(self, store):
        specs = [tiny_spec(seed=s) for s in (1, 2, 3)]
        harness = Harness(workers=1, cache=None)
        harness.run(specs)
        sc = build_manifest("derived", harness).struct_cache
        assert sc["derived_builds"] == 3, sc
        assert sc["derived_hits"] == 6, sc

    def test_store_off_has_no_derived_artifacts(self):
        sim = small_sim(make_mesh(4, 4))
        sim.run(10)
        assert sim.fabric._engine._parts is None
        assert structcache.stats() is None
