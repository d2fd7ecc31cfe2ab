"""Benchmark workloads: seed -> ordered list of trials, plus invariants.

Each workload is built only from the simulator's public trial builders
(``synthetic_trial_for``, ``fault_recovery_trial``, ``lossless_trial``,
``application_trial``) with every simulator knob at its default. The
workload seed regenerates the per-trial config, traffic, fault and storm
seeds; the trial shapes (topologies, rates, lengths) are fixed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.experiments.applications import APP_CONFIGS, application_trial
from repro.experiments.common import Scale, scheme_config, synthetic_trial_for
from repro.faults import FaultSchedule, PauseStormSchedule
from repro.harness import TrialSpec, fault_recovery_trial, lossless_trial
from repro.topology.datacenter import make_leaf_spine
from repro.topology.mesh import make_mesh
from repro.traffic.flows import Flow
from repro.traffic.workloads import LIGRA, PARSEC

#: Seed whose per-trial result digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: A seed never used while writing the benchmark; checked by invariants.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Trial:
    """One closed-loop request: a labelled trial spec and its row kind."""

    label: str
    kind: str  # "synthetic" | "fault" | "lossless" | "app"
    spec: TrialSpec


def _seeds(rng: random.Random, count: int) -> List[int]:
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
SWEEP_RATES = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14)
SWEEP_SEEDS = 16


def sweep_short(seed: int) -> List[Trial]:
    """fig11-shaped low-load sweep: 7 rates x 16 seeds, 80-cycle trials."""
    rng = random.Random(f"sweep_short:{seed}")
    mesh = make_mesh(8, 8)
    scale = dataclasses.replace(Scale.ci(), warmup=16, measure=64)
    trials = []
    for i, trial_seed in enumerate(_seeds(rng, SWEEP_SEEDS)):
        for rate in SWEEP_RATES:
            spec = synthetic_trial_for(
                mesh, Scheme.DRAIN, rate, scale, seed=trial_seed
            )
            trials.append(Trial(f"s{i}-r{rate:.2f}", "synthetic", spec))
    return trials


SATURATION_RATES = (0.15, 0.19, 0.25)


def saturation_mesh(seed: int) -> List[Trial]:
    """fig10 saturation points on an 8x8 mesh at ``Scale.ci()`` length."""
    rng = random.Random(f"saturation_mesh:{seed}")
    mesh = make_mesh(8, 8)
    scale = Scale.ci()
    return [
        Trial(
            f"r{rate:.2f}",
            "synthetic",
            synthetic_trial_for(mesh, Scheme.DRAIN, rate, scale, seed=trial_seed),
        )
        for rate, trial_seed in zip(SATURATION_RATES, _seeds(rng, 3))
    ]


#: The pinned east-west leaf-spine CBD scenario (see
#: ``repro.experiments.lossless_pfc``): 8 ring flows ``i -> i+2``.
PAUSE_THRESHOLDS = (1, 2, 3)
FLOW_RATE = 0.9
FLOW_PACKETS = 200
#: Mid-run permanent link faults on the mesh rows.
FAULT_COUNTS = (1, 3)
FAULT_RATES = (0.04, 0.06)
#: Fault schedules (and traffic seeds) per (fault count, rate) pair. Two
#: keep the per-trial median among the fault rows: the PFC rows' length
#: varies with the seed (the ladder's recovery time).
FAULT_SEEDS = 2
FAULT_CYCLES = 1600
FAULT_WARMUP = 200


def _pfc_config(pause_threshold: int, seed: int) -> SimConfig:
    return SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=Scale.ci().epoch),
        seed=seed,
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause_threshold,
                      resume_threshold=0, headroom=1),
    )


def lossless_faults(seed: int) -> List[Trial]:
    """PFC CBD rows (ladder, thresholds 1-3, one pause storm) + fault rows."""
    rng = random.Random(f"lossless_faults:{seed}")
    leafspine = make_leaf_spine(8, 4, uplinks=1, east_west=True)
    flows = [
        Flow(i, (i + 2) % 8, FLOW_RATE, packets=FLOW_PACKETS) for i in range(8)
    ]
    cycles_cap = max(60_000, Scale.ci().total_cycles)
    trials = []
    for pause in PAUSE_THRESHOLDS:
        spec = lossless_trial(
            leafspine, _pfc_config(pause, rng.randrange(1, 2**31)), flows,
            cycles=cycles_cap, degradation_ladder=True,
        )
        trials.append(Trial(f"pfc-t{pause}", "lossless", spec))
    storm = PauseStormSchedule.generate(
        leafspine, 6, rng.randrange(1, 2**31), (200, 600), num_vns=1
    )
    spec = lossless_trial(
        leafspine, _pfc_config(2, rng.randrange(1, 2**31)), flows,
        cycles=cycles_cap, storm=storm, degradation_ladder=True,
    )
    trials.append(Trial("pfc-storm", "lossless", spec))

    mesh = make_mesh(8, 8)
    window = (FAULT_CYCLES * 2 // 5, FAULT_CYCLES * 3 // 5)
    for num_faults in FAULT_COUNTS:
        for rate in FAULT_RATES:
            for k in range(FAULT_SEEDS):
                trial_seed = rng.randrange(1, 2**31)
                schedule = FaultSchedule.generate(
                    mesh, num_faults, seed=trial_seed, window=window,
                    onset="uniform", ensure_connected=True,
                )
                spec = fault_recovery_trial(
                    mesh, scheme_config(Scheme.DRAIN, Scale.ci(), seed=trial_seed),
                    rate, cycles=FAULT_CYCLES, warmup=FAULT_WARMUP,
                    schedule=schedule, mesh_width=8,
                )
                trials.append(Trial(
                    f"faults{num_faults}-r{rate:.2f}-s{k}", "fault", spec
                ))
    return trials


def apps_closed_loop(seed: int) -> List[Trial]:
    """PARSEC on a 4x4 mesh + Ligra on an 8x8 mesh, run to completion."""
    rng = random.Random(f"apps_closed_loop:{seed}")
    drain_default = APP_CONFIGS[-1]  # drain_vn1_vc2, the paper's default
    scale = Scale.ci()
    trials = []
    for profiles, width in ((PARSEC, 4), (LIGRA, 8)):
        mesh = make_mesh(width, width)
        for profile in profiles:
            spec = application_trial(
                profile, mesh, drain_default, scale,
                seed=rng.randrange(1, 2**31), mesh_width=width,
            )
            trials.append(Trial(profile.name, "app", spec))
    return trials


WORKLOADS: Dict[str, Callable[[int], List[Trial]]] = {
    "sweep_short": sweep_short,
    "saturation_mesh": saturation_mesh,
    "lossless_faults": lossless_faults,
    "apps_closed_loop": apps_closed_loop,
}


# ----------------------------------------------------------------------
# Correctness: invariants that hold for any seed
# ----------------------------------------------------------------------
def invariant_error(kind: str, result: Mapping[str, Any]) -> Optional[str]:
    """Why *result* breaks its row kind's invariant, or None."""
    if kind in ("synthetic", "fault") and not result["packets_ejected"] > 0:
        return "no packet ejected"
    if kind == "fault":
        for record in result["faults"]["recomputes"]:
            if record["covered_links"] != record["links_alive"]:
                return (f"drain recompute at cycle {record['cycle']} covers "
                        f"{record['covered_links']} of {record['links_alive']} links")
    if kind == "lossless":
        if not result["finished"]:
            return "lossless DRAIN row did not finish"
        if result["lost_forever"] != 0:
            return f"{result['lost_forever']} packets lost forever"
    if kind == "app":
        if not result["finished"]:
            return "application did not finish"
        if result["deadlocked"]:
            return "application deadlocked"
    return None


def one_cycle_copy(spec: TrialSpec) -> TrialSpec:
    """*spec* cut to its first cycle: same topology, config and traffic."""
    params: Dict[str, Any] = dict(spec.params)
    if spec.runner == "workload":
        params["max_cycles"] = 1
    else:
        params["cycles"] = 1
        if "warmup" in params:
            params["warmup"] = 0
    return TrialSpec(spec.runner, params)
