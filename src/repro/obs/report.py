"""Render a structured trace (and optional metrics snapshot) as text.

The report answers the questions the paper's evaluation asks of a run:

* **Per-node timeline** — for each application node, an ASCII strip of
  the run binned into equal time slices: ``#`` computing, ``X`` blocked
  in ``Global_Read``, ``.`` otherwise (idle / communicating).  A
  partially asynchronous run shows short, scattered ``X`` runs; a
  synchronous run shows lock-step blocking bands.
* **Blocking summary** — per-node ``Global_Read`` calls, hits, blocks
  and waited time (the Figure-4 age-sensitivity quantity).
* **Rollback summary** — Time-Warp rollback count, cascade-depth
  distribution and corrections emitted (the wasted-work quantities of
  the synchronous-relaxation literature).
* **Warp table** — per-(receiver, sender) stream warp percentiles,
  recomputed *from the trace* exactly as :class:`repro.network.warp.
  WarpMeter` computes them live (arrival-gap / send-gap of consecutive
  ``net.deliver`` events of kind ``pvm``).

Everything renders deterministically (sorted keys, fixed float formats):
the report of a fixed-seed run is golden-testable.

Each section is computed by a pure ``*_summary`` helper returning plain
dicts; the text renderers format those, and :func:`report_dict` bundles
them into the machine-readable ``repro-obs-report/1`` envelope behind
``python -m repro.obs report --json`` (what CI and the trace differ
consume instead of scraping text).
"""

from __future__ import annotations

from collections import Counter

from repro.obs.bus import ObsEvent
from repro.obs.metrics import percentile_from_samples
from repro.util.envelope import make_envelope

#: schema tag of the :func:`report_dict` JSON envelope
REPORT_SCHEMA = "repro-obs-report/1"

#: timeline strip width (bins) by default
DEFAULT_BINS = 60

#: timeline glyphs
GLYPH_BLOCKED = "X"
GLYPH_COMPUTE = "#"
GLYPH_IDLE = "."


def _table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Minimal fixed-width text table (no dependency on repro.experiments)."""

    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _intervals(events: list[ObsEvent]) -> tuple[dict, dict]:
    """(blocked, compute) intervals per node from the event stream.

    Blocked intervals pair each ``gr.block`` with the next ``gr.unblock``
    on the same (node, locn); an unmatched block extends to the end of
    the trace (the reader never resumed — e.g. a lossy fault plan).
    """
    end_time = events[-1].time if events else 0.0
    blocked: dict[int, list[tuple[float, float]]] = {}
    compute: dict[int, list[tuple[float, float]]] = {}
    open_blocks: dict[tuple[int, str], float] = {}
    for e in events:
        if e.kind == "gr.block":
            open_blocks[(e.node, e.fields.get("locn", ""))] = e.time
        elif e.kind == "gr.unblock":
            start = open_blocks.pop((e.node, e.fields.get("locn", "")), None)
            if start is not None:
                blocked.setdefault(e.node, []).append((start, e.time))
        elif e.kind == "node.compute":
            cost = float(e.fields.get("cost", 0.0))
            if cost > 0:
                compute.setdefault(e.node, []).append((e.time, e.time + cost))
    for (node, _), start in sorted(open_blocks.items()):
        blocked.setdefault(node, []).append((start, end_time))
    return blocked, compute


def _overlaps(intervals: list[tuple[float, float]], lo: float, hi: float) -> bool:
    return any(s < hi and e > lo for s, e in intervals)


def timeline_strips(events: list[ObsEvent], bins: int = DEFAULT_BINS) -> dict[int, str]:
    """Per-node timeline glyph strips (``#``/``X``/``.``), by node."""
    if not events:
        return {}
    t_end = max(e.time for e in events)
    if t_end <= 0:
        return {}
    blocked, compute = _intervals(events)
    step = t_end / bins
    strips: dict[int, str] = {}
    for node in sorted(set(blocked) | set(compute)):
        strip = []
        for b in range(bins):
            lo, hi = b * step, (b + 1) * step
            if _overlaps(blocked.get(node, []), lo, hi):
                strip.append(GLYPH_BLOCKED)
            elif _overlaps(compute.get(node, []), lo, hi):
                strip.append(GLYPH_COMPUTE)
            else:
                strip.append(GLYPH_IDLE)
        strips[node] = "".join(strip)
    return strips


def render_timeline(events: list[ObsEvent], bins: int = DEFAULT_BINS) -> str:
    """The per-node ASCII timeline section."""
    if not events:
        return "Per-node timeline: (no events)"
    t_end = max(e.time for e in events)
    if t_end <= 0:
        return "Per-node timeline: (zero-length run)"
    strips = timeline_strips(events, bins=bins)
    if not strips:
        return "Per-node timeline: (no node activity events)"
    lines = [
        f"Per-node timeline  [0 .. {t_end:.4g}s, {bins} bins; "
        f"{GLYPH_COMPUTE}=compute {GLYPH_BLOCKED}=blocked(Global_Read) "
        f"{GLYPH_IDLE}=idle/comm]"
    ]
    for node, strip in strips.items():
        lines.append(f"  node {node:>3} |{strip}|")
    return "\n".join(lines)


def blocking_summary(events: list[ObsEvent]) -> dict[int, dict[str, float]]:
    """Per-node Global_Read counters: calls/hits/blocks/waited/max_wait."""
    per_node: dict[int, dict[str, float]] = {}
    for e in events:
        if not e.kind.startswith("gr."):
            continue
        row = per_node.setdefault(
            e.node, {"calls": 0, "hits": 0, "blocks": 0, "waited": 0.0, "max_wait": 0.0}
        )
        if e.kind == "gr.hit":
            row["calls"] += 1
            row["hits"] += 1
        elif e.kind == "gr.block":
            row["calls"] += 1
            row["blocks"] += 1
        elif e.kind == "gr.unblock":
            waited = float(e.fields.get("waited", 0.0))
            row["waited"] += waited
            row["max_wait"] = max(row["max_wait"], waited)
    return per_node


def render_blocking(events: list[ObsEvent]) -> str:
    """The Global_Read blocking summary section."""
    per_node = blocking_summary(events)
    if not per_node:
        return "Blocking summary: no Global_Read events in trace"
    rows = []
    for node in sorted(per_node):
        r = per_node[node]
        mean_wait = r["waited"] / r["blocks"] if r["blocks"] else 0.0
        rows.append(
            [node, int(r["calls"]), int(r["hits"]), int(r["blocks"]),
             r["waited"], mean_wait, r["max_wait"]]
        )
    totals = [
        "all",
        sum(r[1] for r in rows), sum(r[2] for r in rows), sum(r[3] for r in rows),
        sum(r[4] for r in rows),
        (sum(r[4] for r in rows) / sum(r[3] for r in rows)) if sum(r[3] for r in rows) else 0.0,
        max(r[6] for r in rows),
    ]
    return _table(
        ["node", "gr calls", "hits", "blocks", "blocked time (s)",
         "mean wait (s)", "max wait (s)"],
        rows + [totals],
        title="Blocking summary (Global_Read)",
    )


def rollback_summary(events: list[ObsEvent]) -> dict | None:
    """Rollback counts, cascade-depth stats and causes, or None."""
    rollbacks = [e for e in events if e.kind == "rb.begin"]
    ends = [e for e in events if e.kind == "rb.end"]
    if not rollbacks:
        return None
    depth_counts: dict[int, int] = {}
    per_node: dict[int, int] = {}
    causes: dict[str, int] = {}
    for e in rollbacks:
        d = int(e.fields.get("depth", 0))
        depth_counts[d] = depth_counts.get(d, 0) + 1
        per_node[e.node] = per_node.get(e.node, 0) + 1
        cause = str(e.fields.get("cause", "unknown"))
        causes[cause] = causes.get(cause, 0) + 1
    depths = sorted(d for d, n in depth_counts.items() for _ in range(n))
    return {
        "rollbacks": len(rollbacks),
        "corrections": sum(int(e.fields.get("corrections", 0)) for e in ends),
        "depth_mean": sum(depths) / len(depths),
        "depth_p50": percentile_from_samples(depths, 50),
        "depth_p90": percentile_from_samples(depths, 90),
        "depth_max": max(depths),
        "depth_hist": {str(d): depth_counts[d] for d in sorted(depth_counts)},
        "per_node": {str(n): per_node[n] for n in sorted(per_node)},
        "causes": {c: causes[c] for c in sorted(causes)},
    }


def render_rollback(events: list[ObsEvent]) -> str:
    """The Time-Warp rollback summary section."""
    s = rollback_summary(events)
    if s is None:
        return "Rollback summary: no rollback events in trace"
    lines = [
        "Rollback summary (Time-Warp)",
        f"  rollbacks: {s['rollbacks']}   corrections emitted: {s['corrections']}",
        f"  cascade depth: mean {s['depth_mean']:.2f}  "
        f"p50 {s['depth_p50']:.0f}  "
        f"p90 {s['depth_p90']:.0f}  "
        f"max {s['depth_max']}",
        "  depth histogram: "
        + "  ".join(f"{d}:{n}" for d, n in s["depth_hist"].items()),
        "  per node: "
        + "  ".join(f"node{n}:{c}" for n, c in s["per_node"].items()),
    ]
    if set(s["causes"]) - {"unknown"}:
        lines.append(
            "  causes: " + "  ".join(f"{c}:{n}" for c, n in s["causes"].items())
        )
    return "\n".join(lines)


def warp_streams(
    events: list[ObsEvent],
) -> dict[tuple[int, int], list[tuple[float, float]]]:
    """Per-(receiver, sender) warp samples recomputed from the trace.

    Returns ``(dst, src) -> [(deliver_time, warp), …]`` — exactly the
    live :class:`repro.network.warp.WarpMeter` quantity (arrival-gap /
    send-gap of consecutive ``pvm`` deliveries), with the delivery time
    kept so warp-over-time can be plotted.
    """
    last: dict[tuple[int, int], tuple[float, float]] = {}
    streams: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for e in events:
        if e.kind != "net.deliver" or e.fields.get("frame_kind") != "pvm":
            continue
        key = (e.node, int(e.fields.get("src", -1)))
        enq = float(e.fields.get("enq", 0.0))
        prev = last.get(key)
        last[key] = (enq, e.time)
        if prev is None:
            continue
        send_gap = enq - prev[0]
        if send_gap <= 0:
            continue
        streams.setdefault(key, []).append((e.time, (e.time - prev[1]) / send_gap))
    return streams


def render_warp(events: list[ObsEvent]) -> str:
    """The per-stream warp table, recomputed from delivery events."""
    streams = {k: [w for _, w in v] for k, v in warp_streams(events).items()}
    if not streams:
        return "Warp table: no pvm delivery events in trace"
    rows = []
    all_samples: list[float] = []
    for (dst, src) in sorted(streams):
        s = streams[(dst, src)]
        all_samples.extend(s)
        rows.append([
            f"{dst}<-{src}", len(s), sum(s) / len(s),
            percentile_from_samples(s, 50), percentile_from_samples(s, 90),
            percentile_from_samples(s, 99), max(s),
        ])
    rows.append([
        "all", len(all_samples), sum(all_samples) / len(all_samples),
        percentile_from_samples(all_samples, 50),
        percentile_from_samples(all_samples, 90),
        percentile_from_samples(all_samples, 99),
        max(all_samples),
    ])
    return _table(
        ["stream", "samples", "mean", "p50", "p90", "p99", "max"],
        rows,
        title="Warp per (receiver <- sender) stream (1.0 = stable load)",
    )


def commit_summary(events: list[ObsEvent]) -> dict | None:
    """GVT/commit progression counters (Bayes runs), or None."""
    commits = [e for e in events if e.kind == "bn.commit"]
    advances = [e for e in events if e.kind == "gvt.advance"]
    if not commits and not advances:
        return None
    return {
        "batches": len(commits),
        "runs_committed": sum(int(e.fields.get("runs", 0)) for e in commits),
        "final_floor": int(advances[-1].fields.get("floor", 0)) if advances else 0,
    }


def render_commits(events: list[ObsEvent]) -> str:
    """GVT / commit progression (Bayes runs only)."""
    s = commit_summary(events)
    if s is None:
        return ""
    return (
        "GVT / commits\n"
        f"  commit batches: {s['batches']}   runs committed: "
        f"{s['runs_committed']}   final GVT floor: {s['final_floor']}"
    )


def fault_counts(events: list[ObsEvent]) -> dict[str, int]:
    """Injected-fault event counts by kind (empty when fault-free)."""
    counts: dict[str, int] = {}
    for e in events:
        if e.kind.startswith("fault."):
            counts[e.kind] = counts.get(e.kind, 0) + 1
    return counts


def render_faults(events: list[ObsEvent]) -> str:
    """Injected-fault counts (chaos runs only)."""
    counts = fault_counts(events)
    if not counts:
        return ""
    return "Injected faults\n  " + "  ".join(
        f"{k.removeprefix('fault.')}:{v}" for k, v in sorted(counts.items())
    )


def fabric_summary(events: list[ObsEvent]) -> dict | None:
    """Switched-fabric delivery stats from annotated ``net.deliver``.

    Deliveries carry ``fabric``/``hops``/``bcast`` when they crossed a
    :class:`repro.network.switched.SwitchedNetwork`; shared-Ethernet
    traces have none and this section stays silent.  Link occupancy is
    reported as hop-traversals (each frame occupies ``hops`` directed
    links) per simulated second.
    """
    rows: dict[str, dict[str, float]] = {}
    t_end = events[-1].time if events else 0.0
    for e in events:
        if e.kind != "net.deliver" or "fabric" not in e.fields:
            continue
        row = rows.setdefault(
            str(e.fields["fabric"]),
            {
                "deliveries": 0, "broadcast": 0, "bytes": 0,
                "hop_traversals": 0, "max_hops": 0,
            },
        )
        hops = int(e.fields.get("hops", 0))
        row["deliveries"] += 1
        row["broadcast"] += 1 if e.fields.get("bcast") else 0
        row["bytes"] += int(e.fields.get("size", 0))
        row["hop_traversals"] += hops
        row["max_hops"] = max(row["max_hops"], hops)
    if not rows:
        return None
    for row in rows.values():
        row["mean_hops"] = row["hop_traversals"] / row["deliveries"]
        row["links_per_sim_s"] = row["hop_traversals"] / t_end if t_end > 0 else 0.0
    return {name: rows[name] for name in sorted(rows)}


def render_fabric(events: list[ObsEvent]) -> str:
    """The switched-fabric delivery section (switched runs only)."""
    s = fabric_summary(events)
    if s is None:
        return ""
    rows = [
        [
            name, int(r["deliveries"]), int(r["broadcast"]), int(r["bytes"]),
            r["mean_hops"], int(r["max_hops"]), r["links_per_sim_s"],
        ]
        for name, r in s.items()
    ]
    return _table(
        ["fabric", "deliveries", "bcast", "bytes", "mean hops", "max hops",
         "link occupancy (hops/sim-s)"],
        rows,
        title="Switched fabric deliveries",
    )


def render_metrics(metrics: dict) -> str:
    """Counters/gauges of a metrics snapshot as two compact tables."""
    counters = _table(
        ["counter", "value"],
        [[k, v] for k, v in sorted(metrics.get("counters", {}).items())],
        title="Metrics — counters",
    )
    gauges = _table(
        ["gauge", "value"],
        [[k, v] for k, v in sorted(metrics.get("gauges", {}).items())],
        title="Metrics — gauges",
    )
    return counters + "\n\n" + gauges


def render_report(
    events: list[ObsEvent],
    metrics: dict | None = None,
    bins: int = DEFAULT_BINS,
    prof: dict | None = None,
    meta: dict | None = None,
) -> str:
    """The full report: header + every applicable section.

    ``prof`` is an optional ``repro-obs-prof/1`` envelope (host-time
    profile); ``meta`` the trace's ``trace.meta`` trailer, whose
    ``events_dropped`` count — a truncated capture — is surfaced in the
    header rather than silently ignored.
    """
    events = sorted(events, key=lambda e: e.time)
    t_end = events[-1].time if events else 0.0
    dropped = int(meta.get("events_dropped", 0)) if meta else 0
    dropped_note = (
        f" (TRUNCATED CAPTURE: {dropped} events dropped at the buffer cap)"
        if dropped
        else ""
    )
    header = (
        f"Trace report — {len(events)} events over {t_end:.4g} simulated "
        f"seconds{dropped_note}\n  events by kind: "
        + "  ".join(
            f"{k}:{v}"
            for k, v in sorted(Counter(e.kind for e in events).items())
        )
    )
    sections = [
        header,
        render_timeline(events, bins=bins),
        render_blocking(events),
        render_rollback(events),
        render_warp(events),
        render_fabric(events),
        render_commits(events),
        render_faults(events),
    ]
    if metrics is not None:
        sections.append(render_metrics(metrics))
    if prof is not None:
        from repro.obs.prof import render_profile

        sections.append(render_profile(prof))
    return "\n\n".join(s for s in sections if s)


def _warp_stats(samples: list[float]) -> dict[str, float]:
    return {
        "samples": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile_from_samples(samples, 50),
        "p90": percentile_from_samples(samples, 90),
        "p99": percentile_from_samples(samples, 99),
        "max": max(samples),
    }


def report_dict(
    events: list[ObsEvent],
    metrics: dict | None = None,
    bins: int = DEFAULT_BINS,
    prof: dict | None = None,
    meta: dict | None = None,
) -> dict:
    """The report as a machine-readable dict (``repro-obs-report/1``).

    Same sections as :func:`render_report`, as plain JSON-serializable
    data: this is what ``python -m repro.obs report --json`` emits and
    what CI consumes instead of scraping the text rendering.  Keys of
    per-node maps are stringified node ids (JSON objects).
    """
    events = sorted(events, key=lambda e: e.time)
    t_end = events[-1].time if events else 0.0
    blocking = blocking_summary(events)
    streams = warp_streams(events)
    warp: dict[str, dict[str, float]] = {}
    all_samples: list[float] = []
    for (dst, src) in sorted(streams):
        samples = [w for _, w in streams[(dst, src)]]
        all_samples.extend(samples)
        warp[f"{dst}<-{src}"] = _warp_stats(samples)
    payload: dict = {
        "events": len(events),
        "t_end": t_end,
        "kinds": dict(sorted(Counter(e.kind for e in events).items())),
        "timeline": {
            "bins": bins,
            "glyphs": {
                "compute": GLYPH_COMPUTE,
                "blocked": GLYPH_BLOCKED,
                "idle": GLYPH_IDLE,
            },
            "per_node": {
                str(n): strip
                for n, strip in timeline_strips(events, bins=bins).items()
            },
        },
        "blocking": {
            "per_node": {str(n): blocking[n] for n in sorted(blocking)},
            "totals": {
                "calls": sum(int(r["calls"]) for r in blocking.values()),
                "hits": sum(int(r["hits"]) for r in blocking.values()),
                "blocks": sum(int(r["blocks"]) for r in blocking.values()),
                "waited": sum(r["waited"] for r in blocking.values()),
            },
        },
        "rollback": rollback_summary(events),
        "warp": {"streams": warp, "all": _warp_stats(all_samples) if all_samples else None},
        "fabric": fabric_summary(events),
        "commits": commit_summary(events),
        "faults": fault_counts(events),
        "events_dropped": int(meta.get("events_dropped", 0)) if meta else 0,
    }
    if metrics is not None:
        payload["metrics"] = metrics
    if prof is not None:
        payload["profile"] = prof
    return make_envelope(REPORT_SCHEMA, payload)
