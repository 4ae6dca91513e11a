"""Figure 2 — GA speedups on the unloaded network.

For each processor count the paper plots, per variant (synchronous,
asynchronous, Global_Read at ages 0/5/10/20/30): the speedup over the
corresponding serial program, for the best case (function 1) and the
average over the function set; plus the "best partially asynchronous vs
best competitor" bar (the last white bar of Figure 2).
"""

from __future__ import annotations

from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import parallel_map
from repro.experiments.speedup import (
    GaVariant,
    best_competitor_gain,
    run_ga_trial,
    speedups_over_trials,
)


def run_figure2(scale: Scale | None = None, jobs: int | None = None) -> list[dict]:
    """One row per processor count: per-variant speedups for f1 and the
    all-function average, plus the best-vs-competitor gain.

    The (P × function × seed) replicas are independent; they fan out
    across cores via :func:`~repro.experiments.runner.parallel_map`
    (``REPRO_JOBS``) and are merged in configuration-key order, so the
    rows are bit-identical to a serial run.
    """
    scale = scale or current_scale()
    variants = GaVariant.standard_set(scale.ages)
    labels = [v.label for v in variants]
    keys = [
        (P, fid, r)
        for P in scale.processor_counts
        for fid in scale.ga_functions
        for r in range(scale.ga_runs)
    ]
    trials = parallel_map(
        run_ga_trial,
        [
            (scale, fid, P, 1000 * r + fid, variants)
            for (P, fid, r) in keys
        ],
        jobs=jobs,
    )
    by_cell: dict[tuple[int, int], list] = {}
    for (P, fid, _r), trial in zip(keys, trials):
        by_cell.setdefault((P, fid), []).append(trial)
    rows = []
    for P in scale.processor_counts:
        trials_by_fid = {fid: by_cell[(P, fid)] for fid in scale.ga_functions}
        best_fid = scale.ga_functions[0]  # function 1 when present
        best_case = speedups_over_trials(trials_by_fid[best_fid], labels)
        all_trials = [t for ts in trials_by_fid.values() for t in ts]
        average = speedups_over_trials(all_trials, labels)
        best_label, gain = best_competitor_gain(average)
        best_case_label, best_case_gain = best_competitor_gain(best_case)
        rows.append(
            {
                "P": P,
                "best_case_fid": best_fid,
                "best_case": best_case,
                "average": average,
                "best_gr": best_label,
                "gain_over_best_competitor": gain,
                "best_case_gr": best_case_label,
                "best_case_gain": best_case_gain,
            }
        )
    return rows


def format_figure2(rows: list[dict]) -> str:
    """Render Figure 2 rows as the best-case and average text tables."""
    if not rows:
        return "Figure 2: no rows"
    labels = list(rows[0]["average"].keys())
    out = []
    for kind in ("best_case", "average"):
        title = (
            f"Figure 2 — GA speedups, unloaded network "
            f"({'best case (f%d)' % rows[0]['best_case_fid'] if kind == 'best_case' else 'average over functions'})"
        )
        out.append(
            text_table(
                ["P", *labels, "best GR vs best competitor"],
                [
                    [
                        r["P"],
                        *[r[kind][label] for label in labels],
                        (
                            f"{r['best_case_gr']} +{100 * r['best_case_gain']:.0f}%"
                            if kind == "best_case"
                            else f"{r['best_gr']} +{100 * r['gain_over_best_competitor']:.0f}%"
                        ),
                    ]
                    for r in rows
                ],
                title=title,
            )
        )
    return "\n\n".join(out)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.figure2`` — run and print Figure 2."""
    from repro.experiments.cli import (
        experiment_parser,
        parse_experiment_args,
        write_observability,
    )

    parser = experiment_parser(
        "Figure 2 — GA speedups over the serial baseline on the unloaded "
        "network, per processor count and coherence variant.",
        faults=False,
    )
    args = parse_experiment_args(parser, argv)
    print(format_figure2(run_figure2(args.scale, jobs=args.jobs)))
    write_observability(
        args, app="ga", n_nodes=args.scale.processor_counts[-1]
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
