"""Shared speedup machinery for the GA experiments.

Methodology (documented deviation from §5.1.1, see EXPERIMENTS.md): for
each (function, seed) we run the *corresponding sequential program* —
same total population N·P — for G generations and define the convergence
bar as the quality it reached at ``bar_fraction``·G; every variant's
completion time is its time-to-bar, and speedup is the serial
time-to-bar over it.  The paper instead ran the synchronous program a
fixed 1000 generations and required the asynchronous/controlled versions
to converge further; a common mid-trajectory bar measures the same
time-to-equal-quality quantity while being robust to the early quality
plateaus of island populations.

"Average performance" over functions follows the paper exactly: "the
ratio of the sum of the execution times for the serial program for all
the benchmarks to that for the parallel programs".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode
from repro.faults.plan import FaultPlan
from repro.experiments.config import Scale
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga
from repro.ga.sga import run_serial_ga


@dataclass(frozen=True)
class GaVariant:
    """One bar of Figure 2/4: a coherence mode plus (for NON_STRICT) an age."""

    label: str
    mode: CoherenceMode
    age: int = 0

    @classmethod
    def standard_set(cls, ages: tuple[int, ...]) -> list["GaVariant"]:
        """The paper's variant sweep: sync, async, and Global_Read at each age."""
        out = [
            cls("sync", CoherenceMode.SYNCHRONOUS),
            cls("async", CoherenceMode.ASYNCHRONOUS),
        ]
        out += [cls(f"gr{a}", CoherenceMode.NON_STRICT, a) for a in ages]
        return out


VARIANTS = GaVariant.standard_set((0, 5, 10, 20, 30))


@dataclass
class GaTrial:
    """Serial-vs-variants measurements for one (function, seed, P, load)."""

    fid: int
    n_demes: int
    seed: int
    serial_time: float
    #: per-variant time-to-bar; None = did not converge within the cap
    times: dict[str, float | None]
    results: dict[str, IslandGaResult]


def machine_for(
    scale: Scale,
    P: int,
    seed: int,
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
) -> MachineConfig:
    """Machine config with the scale's load-skew model and optional loader."""
    rng = np.random.default_rng(seed)
    speeds = tuple(float(x) for x in rng.normal(1.0, scale.hetero_sigma, P))
    cfg = MachineConfig(
        n_nodes=P,
        seed=seed,
        node_spec=NodeSpec(jitter_sigma=scale.jitter_sigma),
        speed_factors=speeds,
        measure_warp=True,
        faults=faults,
    )
    return cfg.with_load(load_bps)


def run_ga_trial(
    scale: Scale,
    fid: int,
    P: int,
    seed: int,
    variants: list[GaVariant],
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
) -> GaTrial:
    """One seed's serial baseline + every variant on P demes."""
    fn = get_function(fid)
    G = scale.ga_generations
    serial = run_serial_ga(fn, seed=seed, n_generations=G, population_size=50 * P)
    bar = float(serial.best_history[int(scale.bar_fraction * G)])
    serial_time = serial.time_to_target(bar)
    times: dict[str, float | None] = {}
    results: dict[str, IslandGaResult] = {}
    for variant in variants:
        cfg = IslandGaConfig(
            fn=fn,
            n_demes=P,
            mode=variant.mode,
            age=variant.age,
            n_generations=scale.ga_cap_factor * G,
            seed=seed,
            target=bar,
            machine=machine_for(scale, P, seed, load_bps, faults),
        )
        r = run_island_ga(cfg)
        times[variant.label] = r.completion_time
        results[variant.label] = r
    return GaTrial(
        fid=fid, n_demes=P, seed=seed, serial_time=serial_time,
        times=times, results=results,
    )


def speedups_over_trials(trials: list[GaTrial], labels: list[str]) -> dict[str, float]:
    """Ratio-of-sums speedups (the paper's averaging rule).

    A non-converged variant run is charged its full capped time, which
    both penalises it and keeps the ratio finite.
    """
    out: dict[str, float] = {}
    serial_total = sum(t.serial_time for t in trials)
    for label in labels:
        total = 0.0
        for t in trials:
            time = t.times[label]
            total += time if time is not None else t.results[label].total_time
        out[label] = serial_total / total if total > 0 else 0.0
    return out


def best_competitor_gain(speedups: dict[str, float]) -> tuple[str, float]:
    """Best Global_Read variant vs best of {serial, sync, async}.

    Returns ``(best_gr_label, gain)`` where gain is the fractional
    improvement (0.34 = "34% faster than the best competitor", the
    paper's headline statistic).  Serial enters the comparison with
    speedup 1.0 by definition.
    """
    gr = {k: v for k, v in speedups.items() if k.startswith("gr")}
    rivals = {k: v for k, v in speedups.items() if not k.startswith("gr")}
    rivals["serial"] = 1.0
    best_gr_label = max(gr, key=gr.__getitem__)
    best_rival = max(rivals.values())
    return best_gr_label, gr[best_gr_label] / best_rival - 1.0
