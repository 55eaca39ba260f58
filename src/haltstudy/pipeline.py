"""End-to-end analysis: fill, filter, deseasonalize, average, fit, report.

The trajectory stage (baselines plus event-time series) works one
stock at a time, covering all of that stock's eligible events and
measures in one lockstep pass. Stocks are independent and may run on a
thread pool; they enter in sorted stock order and their results are
reduced in that same order, so output is bitwise identical for any
worker count. All file writing happens in one final single-threaded
phase.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import EmptyGroup
from .events import (
    CountTable,
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    filter_eligibility,
    group_name,
    tabulate_counts,
    write_count_csv,
    write_eligibility_report,
)
from .event_study import (
    CumulativeReturnCurve,
    EventTrajectory,
    GroupAverage,
    MeasureKind,
    SERIES_CSV_HEADER,
    average_cumulative_return,
    extract_stock_trajectories,
    group_average,
    reversal_stats,
    write_curve_csv,
    write_group_average_csv,
)
from .market_data import Panel, forward_fill_all
from .powerlaw import (
    ExcessSeries,
    FitConfig,
    GroupFitRow,
    attach_bootstrap,
    bootstrap_alpha_stderr,
    fit_all_groups,
    make_excess,
    write_exponent_csv,
    write_loglog_csv,
)

ALL_MEASURES = tuple(MeasureKind)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one analysis run depends on, apart from the data.

    ``n_workers`` only controls scheduling: it is the number of threads
    the trajectory stage spreads stocks over. Results are identical for
    any value, which is why it is left out of the echoed configuration.
    ``n_bootstrap`` of 0 skips bootstrap errors entirely.
    """

    eligibility: EligibilityConfig = EligibilityConfig()
    fit: FitConfig = FitConfig()
    measures: tuple[MeasureKind, ...] = ALL_MEASURES
    reversal_horizons: tuple[int, ...] = (1, 2)
    n_bootstrap: int = 200
    seed: int = 0
    n_workers: int = 1

    def __post_init__(self) -> None:
        if not self.measures:
            raise ValueError("need at least one measure")
        if self.n_bootstrap < 0:
            raise ValueError("n_bootstrap must be >= 0")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        for k in self.reversal_horizons:
            if k < 1:
                raise ValueError("reversal horizons must be positive")


@dataclass(frozen=True)
class AnalysisResult:
    """All analysis products, in deterministic order."""

    events: tuple[HaltEvent, ...]
    counts: CountTable
    averages: tuple[GroupAverage, ...]
    curves: tuple[CumulativeReturnCurve, ...]
    reversals: Mapping[str, Mapping[int, float]]
    excess: tuple[ExcessSeries, ...]
    fit_rows: tuple[GroupFitRow, ...]

    @property
    def stability(self) -> dict[str, float]:
        return {curve.group: curve.stability_s for curve in self.curves}

    @property
    def n_eligible(self) -> int:
        return sum(1 for ev in self.events if ev.eligible)


def _group_sort_key(key: tuple[HaltType, EventSign]) -> tuple[int, int]:
    halt_order = {ht: i for i, ht in enumerate(HaltType)}
    sign_order = {s: i for i, s in enumerate(EventSign)}
    return halt_order[key[0]], sign_order[key[1]]


def run_analysis(panel: Panel, records: Sequence[HaltRecord],
                 config: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    """Run the full study over a raw panel and halt registry."""
    filled = forward_fill_all(panel)
    events = tuple(filter_eligibility(records, filled, config.eligibility))
    counts = tabulate_counts(events)
    eligible = [ev for ev in events if ev.eligible]
    # events arrive sorted, so each stock's events are one contiguous run
    stocks = [list(run) for _, run in
              groupby(eligible, key=lambda ev: ev.record.stock_id)]

    def stock_work(members: list[HaltEvent],
                   ) -> list[dict[MeasureKind, EventTrajectory]]:
        return extract_stock_trajectories(
            filled, members, config.measures,
            config.eligibility.lookback_days,
            config.eligibility.measure_pre_window,
            config.eligibility.post_window)

    if config.n_workers == 1 or len(stocks) < 2:
        per_stock = [stock_work(members) for members in stocks]
    else:
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            per_stock = list(pool.map(stock_work, stocks))
    per_event = [trajs for part in per_stock for trajs in part]

    groups: dict[tuple[HaltType, EventSign], list[int]] = {}
    for i, ev in enumerate(eligible):
        groups.setdefault((ev.halt_type, ev.sign), []).append(i)
    ordered_groups = sorted(groups.items(), key=lambda kv: _group_sort_key(kv[0]))

    averages: list[GroupAverage] = []
    curves: list[CumulativeReturnCurve] = []
    reversals: dict[str, dict[int, float]] = {}
    trajectories_by_key: dict[tuple[str, str], list[EventTrajectory]] = {}
    for key, indices in ordered_groups:
        members = [eligible[i] for i in indices]
        label = group_name(*key)
        for measure in config.measures:
            trajs = [per_event[i][measure] for i in indices]
            averages.append(group_average(trajs))
            trajectories_by_key[(label, measure.value)] = trajs
        curves.append(average_cumulative_return(
            filled, members, config.eligibility.pre_window))
        reversals[label] = reversal_stats(filled, members,
                                          config.reversal_horizons)

    fit_rows = fit_all_groups(averages, config.fit)
    if config.n_bootstrap > 0 and fit_rows:
        children = np.random.SeedSequence(config.seed).spawn(len(fit_rows))
        patched = []
        for row, child in zip(fit_rows, children):
            trajs = trajectories_by_key[(row.group, row.measure.value)]
            if row.fit is not None and len(trajs) >= 2:
                result = bootstrap_alpha_stderr(trajs, config.fit.fit_range,
                                                config.n_bootstrap, child)
                row = attach_bootstrap(row, result)
            patched.append(row)
        fit_rows = patched

    excess = tuple(make_excess(avg) for avg in averages)
    return AnalysisResult(events, counts, tuple(averages), tuple(curves),
                          reversals, excess, tuple(fit_rows))


def _write_excess_csv(excess: Sequence[ExcessSeries], stream: IO[str]) -> None:
    # same layout as the averages file, with mean holding the excess
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SERIES_CSV_HEADER)
    for series in sorted(excess, key=lambda s: (s.group, s.measure.value)):
        src = series.source
        for i, t in enumerate(series.t):
            j = int(np.flatnonzero(src.t == t)[0]) if src is not None else i
            value = series.values[i]
            stderr = src.stderr[j] if src is not None else float("nan")
            n = int(src.n[j]) if src is not None else 0
            writer.writerow((
                series.group, series.measure.value, int(t),
                "" if math.isnan(value) else repr(float(value)),
                "" if math.isnan(stderr) else repr(float(stderr)),
                n,
            ))


def _null_if_nan(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return float(x)


def summary_dict(result: AnalysisResult, config: AnalysisConfig) -> dict:
    """Machine-readable run manifest; deterministic, no worker count."""
    elig = config.eligibility
    counts = {ht.value: {s.value: result.counts.count(ht, s)
                         for s in EventSign}
              for ht in HaltType}
    counts["total"] = result.counts.total
    exponents = []
    for row in result.fit_rows:
        fit = row.fit
        exponents.append({
            "measure": row.measure.value,
            "halt_type": row.halt_type.value,
            "sign": row.sign.value,
            "amplitude": _null_if_nan(fit.amplitude) if fit else None,
            "alpha": _null_if_nan(fit.alpha) if fit else None,
            "alpha_se_asymptotic": _null_if_nan(fit.alpha_stderr) if fit else None,
            "alpha_se_bootstrap":
                _null_if_nan(fit.bootstrap_alpha_stderr) if fit else None,
            "sse": _null_if_nan(fit.sse) if fit else None,
            "r2": _null_if_nan(fit.r2_positive) if fit else None,
            "converged": bool(fit.converged) if fit else False,
            "flag": row.flag,
        })
    return {
        "config": {
            "trend_window": elig.trend_window,
            "lookback_days": elig.lookback_days,
            "pre_window": elig.pre_window,
            "post_window": elig.post_window,
            "measure_pre_window": elig.measure_pre_window,
            "max_halt_days": elig.max_halt_days,
            "max_gap_fraction": elig.max_gap_fraction,
            "fit_range": list(config.fit.fit_range),
            "min_r2": config.fit.min_r2,
            "measures": [m.value for m in config.measures],
            "reversal_horizons": list(config.reversal_horizons),
            "n_bootstrap": config.n_bootstrap,
            "seed": config.seed,
        },
        "n_events": len(result.events),
        "n_eligible": result.n_eligible,
        "counts": counts,
        "stability": {g: _null_if_nan(s) for g, s in result.stability.items()},
        "reversals": {g: {str(k): frac for k, frac in per.items()}
                      for g, per in result.reversals.items()},
        "exponents": exponents,
    }


def write_analysis_outputs(result: AnalysisResult, config: AnalysisConfig,
                           out_dir: str | Path) -> list[Path]:
    """Write every artifact file; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, writer) -> None:
        path = out / name
        with open(path, "w", newline="") as fh:
            writer(fh)
        written.append(path)

    emit("eligibility.csv",
         lambda fh: write_eligibility_report(result.events, fh))
    emit("counts.csv", lambda fh: write_count_csv(result.counts, fh))
    emit("curves.csv", lambda fh: write_curve_csv(result.curves, fh))
    emit("averages.csv",
         lambda fh: write_group_average_csv(result.averages, fh))
    emit("excess.csv", lambda fh: _write_excess_csv(result.excess, fh))
    fits_by_key = {(row.group, row.measure.value): row.fit
                   for row in result.fit_rows}
    pairs = [(series, fits_by_key.get((series.group, series.measure.value)))
             for series in result.excess]
    emit("loglog.csv", lambda fh: write_loglog_csv(pairs, fh))
    emit("exponents.csv",
         lambda fh: write_exponent_csv(result.fit_rows, fh))
    emit("summary.json",
         lambda fh: (json.dump(summary_dict(result, config), fh, indent=2,
                               sort_keys=True, allow_nan=False),
                     fh.write("\n")))
    return written
