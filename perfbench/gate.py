"""Per-scenario correctness gate, exact work counters and result digests.

Everything here reads public result fields only: ``result.metrics``,
``gr_stats``, ``rollback``, ``messages_sent``, ``generations_run``,
``committed_runs``, ``converged``.
"""

from __future__ import annotations

import hashlib
import json


def counters(scn, result) -> dict[str, int]:
    """Exact work counters of one scenario run (deterministic per seed)."""
    m = result.metrics
    gr = result.gr_stats
    out = {
        "sim.events": m["counters"]["kernel.events"],
        "net.frames": m["counters"]["net.frames_sent"],
        "pvm.msgs": result.messages_sent,
        "gr.calls": gr.calls,
        "gr.hits": gr.hits,
        "gr.blocked": gr.blocked,
        "dsm.updates_sent": sum(
            int(n.get("updates_sent", 0)) for n in m["per_node"].values()
        ),
        "gr.max_staleness": max_staleness(gr.staleness_histogram),
    }
    if scn.app == "ga":
        out["ga.generations"] = sum(result.generations_run)
    else:
        rb = result.rollback
        out.update({
            "bayes.committed": result.committed_runs,
            "bayes.rollbacks": rb.rollbacks,
            "bayes.nodes_resampled": rb.nodes_resampled,
            "bayes.gambles": rb.gambles,
            "bayes.gamble_hits": rb.gamble_hits,
        })
    return out


def max_staleness(histogram: dict[int, int]) -> int:
    """Largest staleness any Global_Read returned (0 when none returned)."""
    return max((s for s, n in histogram.items() if n), default=0)


def iterations(scn, result) -> int:
    """Simulated application iterations completed: deme-generations for
    the GA, committed samples for the Bayes sampler."""
    if scn.app == "ga":
        return sum(result.generations_run)
    return result.committed_runs


def violations(scn, result) -> list[str]:
    """Why this run is not correct (empty list when it is)."""
    bad = []
    cfg = scn.cfg
    if scn.app == "ga":
        if result.generations_run != [cfg.n_generations] * cfg.n_demes:
            bad.append("not every deme completed its generations")
    elif not result.converged or result.posterior.size == 0:
        bad.append("Bayes run did not converge")
    gr = result.gr_stats
    staleness = max_staleness(gr.staleness_histogram)
    bound = 0 if scn.mode == "sync" else scn.age
    if scn.mode == "async":
        if gr.calls:
            bad.append(f"async run issued {gr.calls} Global_Reads")
    elif staleness > bound:
        bad.append(f"Global_Read returned a copy {staleness} iterations old (age {bound})")
    returned = sum(gr.staleness_histogram.values())
    # a Bayes run stops at convergence with some Global_Reads still
    # blocked; a GA run completes every one it issued
    if returned > gr.calls or (scn.app == "ga" and returned != gr.calls):
        bad.append(f"{gr.calls} Global_Reads issued but {returned} returned")
    return bad


def result_fingerprint(scn, result, run_counters: dict) -> list:
    """What the digest covers: the run's counters plus its outputs."""
    if scn.app == "ga":
        outputs = [result.total_time, result.best_fitness, result.per_deme_best]
    else:
        outputs = [result.completion_time, result.posterior.tolist()]
    return [scn.name, run_counters, [repr(x) for x in outputs]]


def digest(fingerprints: list) -> str:
    """SHA-256 of one pass's fingerprints, in scenario order."""
    blob = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
