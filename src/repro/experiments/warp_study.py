"""W1 — the warp network-load measurements of §4.3.

"The warp measured would be 1 when the network load is stable; warp
values much higher than 1 indicate increasing load on the network."

A paced probe stream crosses the Ethernet while loaders ramp the offered
background load; we report the mean and max warp per load level, plus
the warp observed by a fully asynchronous island GA versus a
Global_Read-throttled one on a loaded network (the asynchronous GA's
flooding shows up directly in its warp).
"""

from __future__ import annotations

from repro.core.coherence import CoherenceMode
from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import parallel_map
from repro.experiments.speedup import machine_for
from repro.faults.plan import FaultPlan
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.network.frame import Frame
from repro.network.warp import WarpMeter


def probe_warp(
    load_bps: float,
    seed: int = 0,
    n_probes: int = 200,
    faults: FaultPlan | None = None,
) -> dict:
    """Mean/max warp of a paced 2-node probe stream under ``load_bps``."""
    from repro.faults.injectors import install_faults
    from repro.network.ethernet import EthernetNetwork
    from repro.network.loader import LoaderConfig, NetworkLoader
    from repro.sim import Kernel

    kernel = Kernel(seed=seed)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    # Warp measures the *rate of change* of network load (§4.3): under a
    # steady stream it sits at 1 regardless of the level, so the loaders
    # start 40% of the way through the probe window — the ramp is what
    # drives warp above 1, and the heavier the ramp the higher the spike.
    # The load is spread over three loader pairs (more contenders squeeze
    # the probe's round-robin share of the medium, as real bursty
    # multi-host load does).
    gap = 0.0015
    ramp_at = 0.4 * n_probes * gap
    if load_bps > 0:
        for k in range(3):
            NetworkLoader(
                kernel,
                net,
                LoaderConfig(offered_load_bps=load_bps / 3, frame_payload_bytes=1500),
                src_node=8 + 2 * k,
                dst_node=9 + 2 * k,
                name=f"loader{k}",
            ).start(delay=ramp_at)
    meter = WarpMeter(kinds={"probe"}).attach(net)
    if faults is not None and not faults.is_noop:
        install_faults(kernel, net, [], faults)

    def inject(i: int) -> None:
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=512, kind="probe"))
        if i + 1 < n_probes:
            kernel.schedule(gap, inject, i + 1)

    kernel.schedule(0.0, inject, 0)
    # the time cap only matters under faults: dropped probes mean the
    # sample target can become unreachable, and the loaders never stop
    deadline = n_probes * gap + 0.5
    kernel.run(
        stop_when=lambda: meter.overall.count >= n_probes - 1
        or kernel.now >= deadline,
    )
    return {
        "load_mbps": load_bps / 1e6,
        "mean_warp": meter.mean_warp,
        "max_warp": meter.max_warp,
        "samples": meter.overall.count,
    }


def ga_warp(
    scale: Scale,
    mode: CoherenceMode,
    age: int,
    load_bps: float,
    faults: FaultPlan | None = None,
) -> float:
    """Mean warp observed by an island GA run under background load."""
    fn = get_function(scale.ga_functions[0])
    r = run_island_ga(
        IslandGaConfig(
            fn=fn,
            n_demes=4,
            mode=mode,
            age=age,
            n_generations=scale.ga_generations,
            seed=3,
            machine=machine_for(scale, 4, 3, load_bps, faults),
        )
    )
    return r.mean_warp


def run_warp_study(
    scale: Scale | None = None,
    jobs: int | None = None,
    faults: FaultPlan | None = None,
) -> dict:
    """Probe-stream warp per load level plus the GA-observed warp comparison."""
    scale = scale or current_scale()
    probe_rows = parallel_map(
        probe_warp,
        [(load, 0, 200, faults) for load in (0.0, *scale.loads_bps, 6e6)],
        jobs=jobs,
    )
    app_cells = [
        ("async", CoherenceMode.ASYNCHRONOUS, 0),
        (f"gr{scale.ages[-1]}", CoherenceMode.NON_STRICT, scale.ages[-1]),
    ]
    warps = parallel_map(
        ga_warp,
        [
            (scale, mode, age, scale.loads_bps[-1], faults)
            for (_, mode, age) in app_cells
        ],
        jobs=jobs,
    )
    app_rows = [
        {"variant": label, "mean_warp": w}
        for (label, _, _), w in zip(app_cells, warps)
    ]
    return {"probe": probe_rows, "ga": app_rows}


def format_warp_study(result: dict) -> str:
    """Render the warp-study result as two text tables."""
    probe = text_table(
        ["load (Mbps)", "mean warp", "max warp", "samples"],
        [
            [r["load_mbps"], r["mean_warp"], r["max_warp"], r["samples"]]
            for r in result["probe"]
        ],
        title="W1 — warp of a paced probe stream vs offered background load",
    )
    ga = text_table(
        ["GA variant", "mean warp under load"],
        [[r["variant"], r["mean_warp"]] for r in result["ga"]],
        title="W1 — warp observed by island-GA traffic (loaded network)",
    )
    return probe + "\n\n" + ga


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.warp_study`` — run and print W1."""
    from repro.experiments.cli import (
        experiment_parser,
        parse_experiment_args,
        write_observability,
    )

    parser = experiment_parser(
        "W1 — warp vs offered load, optionally with seeded fault "
        "injection (--faults)."
    )
    args = parse_experiment_args(parser, argv)
    if args.faults is not None:
        print(f"fault plan: {args.faults.describe()}")
    print(
        format_warp_study(
            run_warp_study(args.scale, jobs=args.jobs, faults=args.faults)
        )
    )
    write_observability(
        args, app="ga", load_bps=args.scale.loads_bps[-1], n_nodes=4
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
