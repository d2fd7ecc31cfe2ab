"""End-to-end tests for the Simulation facade."""

import gc
import random
import weakref

import pytest

from repro.core.config import Scheme
from repro.core.simulator import Simulation
from repro.faults.schedule import FaultSchedule
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom
from tests.conftest import make_config


def make_sim(topo, scheme, rate=0.05, seed=3, **cfg_kwargs):
    config = make_config(scheme, **cfg_kwargs).with_seed(seed)
    traffic = SyntheticTraffic(
        UniformRandom(topo.num_nodes), rate, random.Random(seed)
    )
    return Simulation(topo, config, traffic)


class TestSchemeWiring:
    def test_drain_gets_controller(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        assert sim.drain_controller is not None
        assert sim.spin_controller is None

    def test_spin_gets_controller(self, mesh4):
        sim = make_sim(mesh4, Scheme.SPIN, num_vns=3)
        assert sim.spin_controller is not None
        assert sim.drain_controller is None

    def test_ideal_gets_resolver(self, mesh4):
        sim = make_sim(mesh4, Scheme.IDEAL)
        assert sim.ideal_resolver is not None

    def test_none_gets_watchdog(self, mesh4):
        sim = make_sim(mesh4, Scheme.NONE)
        assert sim.watchdog is not None

    def test_escape_vc_uses_dor_on_fault_free_mesh(self, mesh4):
        from repro.routing.dor import DimensionOrderRouting

        sim = make_sim(mesh4, Scheme.ESCAPE_VC, num_vns=3)
        assert isinstance(sim.fabric.escape_routing, DimensionOrderRouting)

    def test_escape_vc_uses_updown_on_faulty_mesh(self, faulty8):
        from repro.routing.updown import UpDownRouting

        sim = make_sim(faulty8, Scheme.ESCAPE_VC, num_vns=3)
        assert isinstance(sim.fabric.escape_routing, UpDownRouting)

    def test_updown_scheme_routes_everything_updown(self, faulty8):
        from repro.routing.updown import UpDownRouting

        sim = make_sim(faulty8, Scheme.UPDOWN)
        assert isinstance(sim.fabric.routing, UpDownRouting)


class TestRunSemantics:
    def test_warmup_must_be_shorter_than_run(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        with pytest.raises(ValueError):
            sim.run(100, warmup=100)

    def test_measured_cycles_recorded(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        stats = sim.run(500, warmup=100)
        assert stats.measured_cycles == 400
        assert stats.cycles == 500

    def test_all_schemes_deliver_at_low_load(self, faulty8):
        for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                       Scheme.UPDOWN, Scheme.IDEAL):
            sim = make_sim(
                faulty8, scheme, rate=0.03,
                num_vns=3 if scheme in (Scheme.SPIN, Scheme.ESCAPE_VC) else 1,
            )
            stats = sim.run(1500, warmup=300)
            assert stats.packets_ejected > 500, scheme
            assert stats.avg_latency > 0, scheme

    def test_throughput_tracks_offered_load_at_low_rate(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN, rate=0.05)
        sim.run(2000, warmup=500)
        assert sim.throughput() == pytest.approx(0.05, rel=0.15)

    def test_deterministic_given_seed(self, faulty8):
        a = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        b = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        sa = a.run(1000, warmup=200)
        sb = b.run(1000, warmup=200)
        assert sa.packets_ejected == sb.packets_ejected
        assert sa.avg_latency == sb.avg_latency
        assert sa.misroutes == sb.misroutes

    def test_different_seeds_differ(self, faulty8):
        a = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        b = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=12)
        sa = a.run(1000, warmup=200)
        sb = b.run(1000, warmup=200)
        assert sa.packets_ejected != sb.packets_ejected


class TestSchemeBehaviour:
    def test_drain_windows_happen(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN, epoch=200)
        stats = sim.run(1500)
        assert stats.drain_windows >= 5

    def test_short_epoch_causes_misroutes(self, mesh8):
        sim = make_sim(mesh8, Scheme.DRAIN, rate=0.08, epoch=64)
        stats = sim.run(1500)
        assert stats.misroutes > 0

    def test_long_epoch_low_load_no_misroutes(self, mesh8):
        sim = make_sim(mesh8, Scheme.DRAIN, rate=0.02, epoch=10**6)
        stats = sim.run(1500)
        assert stats.misroutes == 0
        assert stats.drain_windows == 0

    def test_updown_latency_worse_than_adaptive(self, faulty8):
        adaptive = make_sim(faulty8, Scheme.IDEAL, rate=0.02, seed=4)
        updown = make_sim(faulty8, Scheme.UPDOWN, rate=0.02, seed=4)
        la = adaptive.run(2500, warmup=500).avg_latency
        lu = updown.run(2500, warmup=500).avg_latency
        assert lu > la

    def test_halt_on_deadlock_stops_early(self, faulty8):
        config = make_config(Scheme.NONE, num_vns=1, vcs_per_vn=1)
        traffic = SyntheticTraffic(UniformRandom(64), 0.4, random.Random(5))
        sim = Simulation(faulty8, config, traffic, halt_on_deadlock=True)
        stats = sim.run(20_000)
        assert sim.deadlocked
        assert stats.cycles < 20_000


class TestTeardown:
    def test_finished_trial_freed_by_refcount(self, mesh4):
        # No reference cycles through the simulation's parts: a finished
        # trial's memory goes back at once, not at the next full GC pass.
        config = make_config(Scheme.DRAIN, epoch=200).with_seed(3)
        traffic = SyntheticTraffic(UniformRandom(16), 0.08, random.Random(3))
        schedule = FaultSchedule.generate(
            mesh4, 1, seed=3, window=(100, 200), ensure_connected=True
        )
        gc.disable()
        try:
            sim = Simulation(mesh4, config, traffic, fault_schedule=schedule)
            sim.run(400)
            assert sim.fabric.engine_name == "vectorized"
            assert sim.index.fault_epoch > 0
            refs = [weakref.ref(obj) for obj in (
                sim, sim.fabric, sim.fault_injector, sim.drain_controller,
            )]
            del sim
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
