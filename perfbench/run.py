"""Repository benchmark: closed-loop coherence-mode workloads.

Usage::

    python3 perfbench/run.py --workload bayes-fig3 --seed 1 --seconds 30 --trace 0

One process runs the workload's scenario list (one scenario run per
coherence mode and input variant) back to back on the serial kernel,
pass after pass, until ``--seconds`` have elapsed.  Every scenario run
is checked (see ``gate.py``); exact work counters must repeat
bit-for-bit in every pass, and at the default seed the result digest
must equal the pinned value.

``--trace 0`` reports the end-to-end metrics: medians over passes of
host time in reference-loop units (see ``RefClock``), with the raw host
seconds printed beside them.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from the spans of the
traced ones; the spans are written to ``.perfbench_out/`` when the run
ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every scenario run passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh-process set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5

#: passes a run makes at least, whatever ``--seconds`` says: untraced
#: passes, or untraced+traced pairs with ``--trace 1``
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

#: events the host probe pushes onto its heap and pops again (about 1 ms
#: on a 2-vCPU Xeon VM); one run of the probe is the ``ref`` unit
PROBE_EVENTS = 700

#: host seconds of program execution between two probes of a RefClock
PROBE_INTERVAL_S = 0.025

#: probes on each side of a stretch whose median is its local probe time
PROBE_WINDOW = 2

#: result digest of one pass at the default seed, per workload
PINNED_DIGESTS = {
    "bayes-fig3": "fd3f57ddbf01f475c8e479ed03e965210906f7c16b56da59fb1b861ae7b782c2",
    "ga-ethernet": "5e344a427b06648f2ac7c7479ee1be5f108484db5cca27eed8eead72eea9b038",
    "ga-switched-1024": "a8838f7b5e1646a1e52f344d5cf95373cb967c39d57f84bfa3b337c9a69a9b16",
}


class _ProbeEvent:
    __slots__ = ("t", "k")

    def __init__(self, t: int, k: int) -> None:
        self.t = t
        self.k = k

    def __lt__(self, other: "_ProbeEvent") -> bool:
        return self.t < other.t


#: the probe's event times, in push order
_PROBE_TIMES = [(7919 * i) % 10_007 for i in range(PROBE_EVENTS)]


def host_probe() -> float:
    """Seconds for a fixed pure-Python event loop: the host-speed reference.

    It pushes PROBE_EVENTS small objects onto a binary heap and pops them
    all: allocation, attribute access and Python-level comparisons, like
    a discrete-event kernel.  Its time follows the program's host-time
    drift more closely than an arithmetic loop's does.  The cyclic GC is
    off meanwhile, so a collection of the program's heap never lands in it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list[_ProbeEvent] = []
        for k, t in enumerate(_PROBE_TIMES):
            heapq.heappush(heap, _ProbeEvent(t, k))
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Host time of a block in reference-loop units (``ref``).

    The speed of a shared host drifts by up to 40% within seconds, and
    the program and the probe slow down together.  So the block is
    cut into stretches of ``PROBE_INTERVAL_S`` by a SIGALRM handler that
    runs ``host_probe`` between them, and each stretch is divided by the
    median probe time around it.  ``seconds`` is the block's host time
    without the probes; ``ref`` is the sum of the divided stretches.
    With ``sample=False`` it only times the block (``ref`` stays 0).
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.seconds = 0.0
        self.ref = 0.0
        self.probes: list[float] = []
        self.stretches: list[float] = []

    def __enter__(self) -> "RefClock":
        if not self.sample:
            self._mark = time.perf_counter()
            return self
        self.probes.append(host_probe())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        # one-shot, re-armed after each probe, so a tick never nests
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def _tick(self, _signum, _frame) -> None:
        self.stretches.append(time.perf_counter() - self._mark)
        self.probes.append(host_probe())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __exit__(self, *_exc) -> None:
        if not self.sample:
            self.seconds = time.perf_counter() - self._mark
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stretches.append(time.perf_counter() - self._mark)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(host_probe())
        self.seconds = sum(self.stretches)
        w = PROBE_WINDOW
        # stretch i lies between probes i and i+1
        self.ref = sum(
            s / median(self.probes[max(0, i + 1 - w):i + 1 + w])
            for i, s in enumerate(self.stretches)
        )


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the base is empty."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """One back-to-back execution of every scenario of the workload."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.scenario_seconds: list[float] = []
        self.mode_seconds: dict[str, float] = {}
        #: host time of each mode's runs in reference-loop units
        self.mode_ref: dict[str, float] = {}
        self.iterations = 0
        self.counters: list[dict] = []
        self.fingerprints: list = []
        #: (scenario index, reason) for every failed check
        self.failures: list[tuple[int, str]] = []
        self.runs: list[int] = []
        self.net: list[dict] = []
        self.gr_block_sim_s = 0.0
        #: host probe seconds of the untraced runs' RefClocks
        self.probes: list[float] = []
        #: traced passes only: calls per patched entry point, and the GA
        #: fitness cache's (hits, misses) over evolve_one_generation
        self.calls: dict[str, int] = {}
        self.ga_cache = (0, 0)
        #: the process's memory high-water mark when the pass ended
        self.peak_rss_mb = 0.0


def run_pass(scenarios, log=None, patches=None) -> Pass:
    """Execute every scenario once; when ``log`` is given, each run is
    enclosed in a root span and tagged with its own run id, and otherwise
    each run is timed by a RefClock."""
    out = Pass()
    for i, scn in enumerate(scenarios):
        if log is not None:
            log.run_id += 1
            out.runs.append(log.run_id)
            root = log.open(0)
        with RefClock(sample=log is None) as clock:
            try:
                result = scn.run()
            except Exception as exc:  # noqa: BLE001 - a failed run is counted
                result = None
                out.failures.append((i, f"{type(exc).__name__}: {exc}"))
        if log is not None:
            log.close(root)
        dt, ref = clock.seconds, clock.ref
        out.probes += clock.probes
        out.seconds += dt
        out.scenario_seconds.append(dt)
        out.mode_seconds[scn.mode] = out.mode_seconds.get(scn.mode, 0.0) + dt
        out.mode_ref[scn.mode] = out.mode_ref.get(scn.mode, 0.0) + ref
        if patches is not None:
            out.net.append(network_stats(patches.machines))
            patches.machines.clear()
        if result is None:
            out.counters.append(None)
            out.fingerprints.append([scn.name, None])
            continue
        out.iterations += gate.iterations(scn, result)
        out.counters.append(gate.counters(scn, result))
        out.fingerprints.append(gate.result_fingerprint(scn, result, out.counters[-1]))
        out.gr_block_sim_s += result.gr_stats.block_time
        out.failures += [(i, v) for v in gate.violations(scn, result)]
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def network_stats(machines) -> dict:
    """Link counters of the machine a traced scenario run built."""
    if not machines:
        return {}
    m = machines[-1]
    st = m.network.stats
    return {
        "wire_bytes": st.wire_bytes_sent,
        "contended": st.contended_acquisitions,
        "busy_s": st.busy_time,
        "now_s": m.kernel.now,
        "queue_n": st.queueing_delay.count,
        "queue_sum_s": st.queueing_delay.mean * st.queueing_delay.count,
    }


def check_repeats(plain: list[Pass], traced: list[Pass]) -> None:
    """Flag, as nondeterminism failures, exact counters that differ from
    the first pass of the same seed.  Traced passes also compare their
    link counters and entry-point call counts among themselves."""
    first = plain[0]
    for k, p in enumerate(plain[1:] + traced, start=1):
        for i, (a, b) in enumerate(zip(first.counters, p.counters)):
            if a is not None and b is not None and a != b:
                keys = sorted(x for x in a if a[x] != b.get(x))
                p.failures.append((i, f"pass {k} counters {keys} differ (nondeterminism)"))
    for p in traced[1:]:
        for i, (a, b) in enumerate(zip(traced[0].net, p.net)):
            if a != b:
                p.failures.append((i, "traced link counters differ (nondeterminism)"))
        if (p.calls, p.ga_cache) != (traced[0].calls, traced[0].ga_cache):
            p.failures += [(i, "traced call counts differ (nondeterminism)")
                           for i in range(len(p.counters))]


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_only(workload: str, seed: int) -> None:
    """Imports plus input, config and pre-event construction (child process)."""
    import workloads

    workloads.prepare(workloads.build(workload, seed))


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh-process set-ups, one after another."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

MODES = ("sync", "async", "gr0", "gr10")

#: end-to-end metric -> (unit, kind); "host/ref" is host time in
#: reference-loop units, "host" is raw host time
END_TO_END_UNITS = {
    "iters_per_ref": ("1/ref", "host/ref"),
    **{f"mode_ref.{m}": ("ref", "host/ref") for m in MODES},
    "iters_per_s": ("1/s", "host"),
    **{f"mode_s.{m}": ("s", "host") for m in MODES},
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
}

#: raw host-second figures: printed beside their ``ref`` counterparts but
#: left out of the JSON result, because host drift alone moves them past
#: any bound (see README, "Host noise and bounds")
RAW_HOST = ("iters_per_s", *(f"mode_s.{m}" for m in MODES))


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics: medians over the untraced passes."""
    out = {"iters_per_ref": median(
        [p.iterations / sum(p.mode_ref.values()) for p in passes]
    )}
    for mode in MODES:
        out[f"mode_ref.{mode}"] = median([p.mode_ref[mode] for p in passes])
    out["iters_per_s"] = median([p.iterations / p.seconds for p in passes])
    for mode in MODES:
        out[f"mode_s.{mode}"] = median([p.mode_seconds[mode] for p in passes])
    out["setup_s"] = median(setups)
    out["peak_rss_mb"] = passes[0].peak_rss_mb
    return out


#: per-layer metric -> (unit, kind); kind is exact / host / simulated
PER_LAYER_UNITS = {
    "sim.events": ("count", "exact"),
    "sim.self_s": ("s", "host"),
    "sim.us_per_event": ("us", "host"),
    "net.frames": ("count", "exact"),
    "net.wire_bytes": ("bytes", "exact"),
    "net.contended": ("count", "exact"),
    "net.util": ("ratio", "simulated"),
    "net.queue_delay_s": ("sim_s", "simulated"),
    "net.self_s": ("s", "host"),
    "net.us_per_frame": ("us", "host"),
    "pvm.msgs": ("count", "exact"),
    "pvm.self_s": ("s", "host"),
    "pvm.us_per_msg": ("us", "host"),
    "gr.calls": ("count", "exact"),
    "gr.blocked": ("count", "exact"),
    "dsm.updates_sent": ("count", "exact"),
    "gr.hit_ratio": ("ratio", "exact"),
    "gr.block_sim_s": ("sim_s", "simulated"),
    "gr.max_staleness": ("iterations", "exact"),
    "dsm.self_s": ("s", "host"),
    "ga.generations": ("count", "exact"),
    "ga.evals": ("count", "exact"),
    "ga.cache_hit_ratio": ("ratio", "exact"),
    "ga.self_s": ("s", "host"),
    "ga.us_per_generation": ("us", "host"),
    "bayes.node_samples": ("count", "exact"),
    "bayes.rollbacks": ("count", "exact"),
    "bayes.nodes_resampled": ("count", "exact"),
    "bayes.useful_ratio": ("ratio", "exact"),
    "bayes.gamble_hit_rate": ("ratio", "exact"),
    "bayes.self_s": ("s", "host"),
    "bayes.us_per_node_sample": ("us", "host"),
    "app.self_s": ("s", "host"),
    "app.us_per_unit": ("us", "host"),
    "setup.machine_s": ("s", "host"),
    "setup.partition_s": ("s", "host"),
    "sim.self_share": ("ratio", "host"),
    "net.self_share": ("ratio", "host"),
    "pvm.self_share": ("ratio", "host"),
    "dsm.self_share": ("ratio", "host"),
    "ga.self_share": ("ratio", "host"),
    "bayes.self_share": ("ratio", "host"),
    "cluster.self_share": ("ratio", "host"),
    "partition.self_share": ("ratio", "host"),
    "trace.overhead_ratio": ("ratio", "host"),
    "trace.attributed_frac": ("ratio", "host"),
}

#: host times that are 0 by construction on the workloads bypassing their
#: layer: printed, but left out of the JSON result (and BENCHMARK.json),
#: which carries the same information as ``app.*`` and ``*.self_share``
UNRECORDED = (
    "ga.self_s", "ga.us_per_generation", "bayes.self_s",
    "bayes.us_per_node_sample", "setup.partition_s",
)

#: span layer -> (self-time metric, share metric)
SELF_TIME_KEYS = {
    "sim": ("sim.self_s", "sim.self_share"),
    "network": ("net.self_s", "net.self_share"),
    "pvm": ("pvm.self_s", "pvm.self_share"),
    "core": ("dsm.self_s", "dsm.self_share"),
    "ga": ("ga.self_s", "ga.self_share"),
    "bayes": ("bayes.self_s", "bayes.self_share"),
    "cluster": ("setup.machine_s", "cluster.self_share"),
    "partition": ("setup.partition_s", "partition.self_share"),
}


def per_layer(plain: list[Pass], traced: list[Pass], log):
    """Per-layer metrics from the traced passes, plus the self-time table."""
    selfs = [log.self_seconds(set(p.runs)) for p in traced]
    layers = sorted({k for s in selfs for k in s})
    self_med = {k: median([s.get(k, 0.0) for s in selfs]) for k in layers}
    root = [s.get("scenario", 0.0) for s in selfs]
    totals = [p.seconds for p in traced]
    first = traced[0]
    counts = [c for c in first.counters if c is not None]

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in counts)

    def link(key: str) -> float:
        return sum(n.get(key, 0) for n in first.net)

    frames, msgs, gens = total("net.frames"), total("pvm.msgs"), total("ga.generations")
    node_samples = first.calls.get("BayesianNetwork.sample_node_scalar", 0)
    hits, misses = first.ga_cache
    resampled, gamble_hits = total("bayes.nodes_resampled"), total("bayes.gamble_hits")
    out = {
        "sim.events": total("sim.events"),
        "net.frames": frames,
        "net.wire_bytes": link("wire_bytes"),
        "net.contended": link("contended"),
        "net.util": ratio(link("busy_s"), link("now_s")),
        "net.queue_delay_s": ratio(link("queue_sum_s"), link("queue_n")),
        "pvm.msgs": msgs,
        "gr.calls": total("gr.calls"),
        "gr.blocked": total("gr.blocked"),
        "dsm.updates_sent": total("dsm.updates_sent"),
        "gr.hit_ratio": ratio(total("gr.hits"), total("gr.calls")),
        "gr.block_sim_s": first.gr_block_sim_s,
        "gr.max_staleness": max((c["gr.max_staleness"] for c in counts), default=0),
        "ga.generations": gens,
        "ga.evals": misses,
        "ga.cache_hit_ratio": ratio(hits, hits + misses),
        "bayes.node_samples": node_samples,
        "bayes.rollbacks": total("bayes.rollbacks"),
        "bayes.nodes_resampled": resampled,
        "bayes.useful_ratio": 1.0 - resampled / node_samples if node_samples else 0.0,
        "bayes.gamble_hit_rate": ratio(
            gamble_hits, gamble_hits + total("bayes.rollbacks")
        ),
    }
    attributed = sum(v for k, v in self_med.items() if k != "scenario")
    share = {k: ratio(v, attributed) for k, v in self_med.items() if k != "scenario"}
    for layer, (self_key, share_key) in SELF_TIME_KEYS.items():
        out[self_key] = self_med.get(layer, 0.0)
        out[share_key] = share.get(layer, 0.0)
    # the workload's application layer: GA or Bayes (the other one is 0),
    # per deme-generation or per node sample
    out["app.self_s"] = out["ga.self_s"] + out["bayes.self_s"]
    out["app.us_per_unit"] = 1e6 * ratio(out["app.self_s"], gens + node_samples)
    out["sim.us_per_event"] = 1e6 * ratio(out["sim.self_s"], out["sim.events"])
    out["net.us_per_frame"] = 1e6 * ratio(out["net.self_s"], frames)
    out["pvm.us_per_msg"] = 1e6 * ratio(out["pvm.self_s"], msgs)
    out["ga.us_per_generation"] = 1e6 * ratio(out["ga.self_s"], gens)
    out["bayes.us_per_node_sample"] = 1e6 * ratio(out["bayes.self_s"], node_samples)
    out["trace.overhead_ratio"] = overhead(plain, traced)
    out["trace.attributed_frac"] = median(
        [1.0 - r / t for r, t in zip(root, totals)]
    )
    return {k: out[k] for k in PER_LAYER_UNITS}, share


# ---------------------------------------------------------------------------
# closed loop and command line
# ---------------------------------------------------------------------------

def closed_loop(scenarios, seconds: float, trace: bool):
    """Run passes back to back until ``seconds`` have elapsed.

    With ``trace`` the passes alternate untraced / traced, so that both
    kinds see the same host conditions; returns (plain, traced, span log).
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    log = tracing.SpanLog() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(scenarios))
        if trace:
            patches = tracing.install(log)
            calls_before = dict(log.calls)
            try:
                p = run_pass(scenarios, log=log, patches=patches)
            finally:
                patches.remove()
            p.calls = {k: v - calls_before.get(k, 0) for k, v in log.calls.items()}
            p.ga_cache = tuple(patches.ga_cache)
            traced.append(p)
        # stop before a pass that would overrun the budget, once there
        # are enough passes for a median
        step = median([p.seconds for p in plain]) * (1 + trace * overhead(plain, traced))
        enough = len(plain) >= (MIN_TRACED_PAIRS if trace else MIN_PASSES)
        if enough and time.perf_counter() + step > deadline:
            return plain, traced, log


def overhead(plain: list[Pass], traced: list[Pass]) -> float:
    """Traced over untraced median pass time (0 before any traced pass)."""
    if not traced:
        return 0.0
    return median([p.seconds for p in traced]) / median([p.seconds for p in plain])


def expected_split(workload: str, share: dict[str, float]) -> tuple[str, bool]:
    """The layer split the traced run should show, and whether it does.

    Informational: an optimisation of one layer may legitimately change it.
    """
    if workload == "bayes-fig3":
        return "bayes has the largest share", max(share, key=share.get) == "bayes"
    no_bayes = share.get("bayes", 0.0) == 0.0
    if workload == "ga-ethernet":
        message_path = sum(share.get(k, 0.0) for k in ("sim", "network", "pvm", "core"))
        return ("bayes share is 0; sim+network+pvm+core exceed half",
                no_bayes and message_path > 0.5)
    return "bayes share is 0", no_bayes


def print_metric(name: str, value: float, unit: str, kind: str) -> None:
    """One human-readable metric line."""
    print(f"  {name:<26} {value:>16.6g} {unit:<10} [{kind}]")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        setup_only(args.workload, seed)
        return 0

    setups = [] if args.trace else time_setups(args.workload, seed)
    scenarios = workloads.build(args.workload, seed)
    plain, traced, log = closed_loop(scenarios, args.seconds, bool(args.trace))
    passes = plain + traced
    check_repeats(plain, traced)
    digests = [gate.digest(p.fingerprints) for p in passes]
    pinned = PINNED_DIGESTS[args.workload] if seed == workloads.DEFAULT_SEED else None
    for p, d in zip(passes, digests):
        if d != digests[0]:
            why = "result digest differs from the first pass (nondeterminism)"
        elif pinned is not None and d != pinned:
            why = f"result digest != pinned {pinned}"
        else:
            continue
        p.failures += [(i, why) for i in range(len(scenarios))]
    attempted = len(scenarios) * len(passes)
    failed = sum(len({i for i, _ in p.failures}) for p in passes)
    failures = sorted({f"{scenarios[i].name}: {why}" for p in passes for i, why in p.failures})

    print(f"workload {args.workload}  seed {seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  scenario runs {attempted}")
    print(f"  digest {digests[0]}")
    print("  host s per pass:       " + " ".join(f"{p.seconds:.3f}" for p in passes))
    print("  host probe s per pass (median): "
          + " ".join(f"{median(p.probes):.5f}" for p in plain))
    for f in failures:
        print(f"  FAIL {f}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"passes-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "scenarios": [s.name for s in scenarios],
            "plain": [p.scenario_seconds for p in plain],
            "traced": [p.scenario_seconds for p in traced],
            "probe_s": [p.probes for p in plain],
            "setup_s": setups,
        })
    )
    if args.trace:
        metrics, share = per_layer(plain, traced, log)
        units = PER_LAYER_UNITS
        log.save(str(out_dir / f"spans-{args.workload}-seed{seed}.npz"))
        print("  layer self-time share of attributed time:")
        for layer, s in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {100 * s:6.2f} %")
        expected, ok = expected_split(args.workload, share)
        print(f"  expected split ({expected}): {'as expected' if ok else 'DIFFERS'}")
    else:
        metrics = end_to_end(plain, setups)
        units = END_TO_END_UNITS
    print_metric("fail_frac", failed / attempted, "ratio", "exact")
    for name, value in metrics.items():
        print_metric(name, value, *units[name])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k][0]}
            for k, v in metrics.items() if k not in UNRECORDED + RAW_HOST
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
