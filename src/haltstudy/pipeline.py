"""End-to-end analysis: filter, deseasonalize, average, fit, report.

:func:`run_analysis` composes four stages that the command line also
calls on their own: :func:`select_events` (classify, filter),
:func:`average_groups` (trajectories, one lockstep pass per chunk of
stocks, and group averages), :func:`curves_and_reversals` and
:func:`fit_groups` (fits and bootstrap errors). Work runs in one
thread in a fixed order, groups in :func:`group_sort_key` order, so
reruns are bitwise identical. Each output file has one writer here: the
table behind :func:`write_analysis_outputs`, and
:func:`write_sign_flip_csv` for the robustness summary. Event-time
series are written by column, and every float field goes through one
formatter (``repr``, empty for NaN).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .events import (
    CountTable,
    HALT_CSV_HEADER,
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    filter_eligibility,
    group_name,
    group_sort_key,
    tabulate_counts,
    write_count_csv,
    write_eligibility_report,
)
from .event_study import (
    CumulativeReturnCurve,
    EventTrajectory,
    GroupAverage,
    MeasureKind,
    average_cumulative_return,
    extract_stock_trajectories,
    group_average,
    reversal_stats,
    stability_stat,
)
from .market_data import Panel, _float_texts
from .powerlaw import (
    FitConfig,
    GroupFitRow,
    PowerLawFit,
    attach_bootstrap,
    bootstrap_alpha_stderr,
    fit_all_groups,
    make_excess,
)

SERIES_CSV_HEADER = ("group", "measure", "t", "mean", "stderr", "n")
CUMULATIVE_LABEL = "cumulative_return"
LOGLOG_CSV_HEADER = ("group", "measure", "t", "z_ex", "fit_value")
EXPONENT_CSV_HEADER = ("measure", "halt_type", "sign", "A", "alpha",
                       "alpha_se_asymptotic", "alpha_se_bootstrap",
                       "sse", "r2", "converged", "flag")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one analysis run depends on, apart from the data.

    Its fields, with those of :class:`EligibilityConfig` and
    :class:`FitConfig`, are the only source of analysis defaults; the
    command line reads its defaults from them. ``n_bootstrap`` of 0
    skips bootstrap errors entirely. The fit range must end inside the
    post window, where the averages have points.
    """

    eligibility: EligibilityConfig = EligibilityConfig()
    fit: FitConfig = FitConfig()
    measures: tuple[MeasureKind, ...] = tuple(MeasureKind)
    reversal_horizons: tuple[int, ...] = (1, 2)
    n_bootstrap: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.measures:
            raise ValueError("need at least one measure")
        if self.n_bootstrap < 0:
            raise ValueError("n_bootstrap must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for k in self.reversal_horizons:
            if k < 1:
                raise ValueError("reversal horizons must be positive")
        lo, hi = self.fit.fit_range
        if hi > self.eligibility.post_window:
            raise ValueError(
                f"fit range [{lo}, {hi}] ends past the post window of "
                f"{self.eligibility.post_window} minutes")


@dataclass(frozen=True)
class AnalysisResult:
    """All analysis products, in deterministic order.

    A result of the selection stage alone leaves the later fields empty.
    """

    events: tuple[HaltEvent, ...]
    counts: CountTable
    averages: tuple[GroupAverage, ...] = ()
    curves: tuple[CumulativeReturnCurve, ...] = ()
    reversals: Mapping[str, Mapping[int, float]] = field(default_factory=dict)
    excess: tuple[GroupAverage, ...] = ()
    fit_rows: tuple[GroupFitRow, ...] = ()

    @property
    def stability(self) -> dict[str, float]:
        return {curve.group: stability_stat(curve) for curve in self.curves}

    @property
    def n_eligible(self) -> int:
        return sum(1 for ev in self.events if ev.eligible)


@dataclass(frozen=True)
class GroupCell:
    """One (halt type, sign) group of eligible events, and per measure
    their trajectories (aligned with ``events``) and group average."""

    halt_type: HaltType
    sign: EventSign
    events: tuple[HaltEvent, ...]
    trajectories: Mapping[MeasureKind, tuple[EventTrajectory, ...]]
    averages: Mapping[MeasureKind, GroupAverage]

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)


def select_events(panel: Panel, records: Sequence[HaltRecord],
                  config: AnalysisConfig = AnalysisConfig(),
                  ) -> tuple[HaltEvent, ...]:
    """Every record classified and filtered."""
    return tuple(filter_eligibility(records, panel, config.eligibility))


def average_groups(panel: Panel, events: Sequence[HaltEvent],
                   config: AnalysisConfig = AnalysisConfig(),
                   ) -> tuple[GroupCell, ...]:
    """Trajectories and group averages of the eligible events, per group."""
    eligible = [ev for ev in events if ev.eligible]
    elig = config.eligibility
    per_event = extract_stock_trajectories(
        panel, eligible, config.measures, elig.lookback_days,
        elig.measure_pre_window, elig.post_window)
    groups: dict[tuple[HaltType, EventSign], list[int]] = {}
    for i, ev in enumerate(eligible):
        groups.setdefault((ev.halt_type, ev.sign), []).append(i)
    cells = []
    for key in sorted(groups, key=lambda k: group_sort_key(*k)):
        indices = groups[key]
        trajectories = {m: tuple(per_event[i][m] for i in indices)
                        for m in config.measures}
        cells.append(GroupCell(
            *key, tuple(eligible[i] for i in indices), trajectories,
            {m: group_average(trajs) for m, trajs in trajectories.items()}))
    return tuple(cells)


def curves_and_reversals(panel: Panel, cells: Sequence[GroupCell],
                         config: AnalysisConfig = AnalysisConfig(),
                         ) -> tuple[tuple[CumulativeReturnCurve, ...],
                                    dict[str, dict[int, float]]]:
    """Each group's cumulative-return curve and its reversal fractions."""
    curves = []
    reversals = {}
    for cell in cells:
        curves.append(average_cumulative_return(
            panel, cell.events, config.eligibility.pre_window))
        reversals[cell.group] = reversal_stats(panel, cell.events,
                                               config.reversal_horizons)
    return tuple(curves), reversals


def fit_groups(cells: Sequence[GroupCell],
               config: AnalysisConfig = AnalysisConfig(),
               ) -> tuple[GroupFitRow, ...]:
    """Fit every group average, then bootstrap each fitted multi-event cell
    from its own child of one seed sequence, spawned in row order."""
    rows = fit_all_groups([avg for cell in cells
                           for avg in cell.averages.values()], config.fit)
    if config.n_bootstrap == 0 or not rows:
        return tuple(rows)
    trajectories = {(cell.group, m): trajs for cell in cells
                    for m, trajs in cell.trajectories.items()}
    children = np.random.SeedSequence(config.seed).spawn(len(rows))
    patched = []
    for row, child in zip(rows, children):
        trajs = trajectories[(row.group, row.measure)]
        if row.fit is not None and len(trajs) >= 2:
            row = attach_bootstrap(row, bootstrap_alpha_stderr(
                trajs, config.fit.fit_range, n_resamples=config.n_bootstrap,
                seed=child))
        patched.append(row)
    return tuple(patched)


def run_analysis(panel: Panel, records: Sequence[HaltRecord],
                 config: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    """Run the full study over a raw panel and halt registry."""
    events = select_events(panel, records, config)
    cells = average_groups(panel, events, config)
    curves, reversals = curves_and_reversals(panel, cells, config)
    averages = tuple(avg for cell in cells for avg in cell.averages.values())
    return AnalysisResult(events, tabulate_counts(events), averages, curves,
                          reversals, tuple(make_excess(avg) for avg in averages),
                          fit_groups(cells, config))


def _json_float(x: float | None) -> float | None:
    # JSON has no NaN or infinity: a non-finite float is written null
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def summary_dict(result: AnalysisResult, config: AnalysisConfig) -> dict:
    """Machine-readable run manifest; deterministic."""
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
            "amplitude": _json_float(fit.amplitude) if fit else None,
            "alpha": _json_float(fit.alpha) if fit else None,
            "alpha_se_asymptotic": _json_float(fit.alpha_stderr) if fit else None,
            "alpha_se_bootstrap":
                _json_float(fit.bootstrap_alpha_stderr) if fit else None,
            "sse": _json_float(fit.sse) if fit else None,
            "r2": _json_float(fit.r2_positive) if fit else None,
            "converged": fit is not None,   # a fit exists only once converged
            "flag": row.flag,
        })
    return {
        "config": {
            **asdict(config.eligibility),
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
        "stability": {g: _json_float(s) for g, s in result.stability.items()},
        "reversals": {g: {str(k): frac for k, frac in per.items()}
                      for g, per in result.reversals.items()},
        "exponents": exponents,
    }


def _csv_writer(stream: IO[str], header: Sequence[str]):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    return writer


def _write_series(writer, group: str, label: str, t: np.ndarray,
                  *columns: Iterable) -> None:
    # one event-time series by column, a row per t
    writer.writerows(zip(repeat(group), repeat(label), t.tolist(), *columns))


def write_group_average_csv(averages: Iterable[GroupAverage],
                            stream: IO[str]) -> None:
    """Rows ``group,measure,t,mean,stderr,n``, sorted by group and measure."""
    writer = _csv_writer(stream, SERIES_CSV_HEADER)
    for ga in sorted(averages, key=lambda a: (a.group, a.measure.value)):
        _write_series(writer, ga.group, ga.measure.value, ga.t,
                      _float_texts(ga.mean), _float_texts(ga.stderr),
                      ga.n.tolist())


def write_curve_csv(curves: Iterable[CumulativeReturnCurve],
                    stream: IO[str]) -> None:
    """Cumulative curves in the same layout as the measure averages."""
    writer = _csv_writer(stream, SERIES_CSV_HEADER)
    for curve in sorted(curves, key=lambda c: c.group):
        _write_series(writer, curve.group, CUMULATIVE_LABEL, curve.t,
                      _float_texts(curve.mean), _float_texts(curve.stderr),
                      repeat(curve.n))


def write_loglog_csv(pairs: Iterable[tuple[GroupAverage, PowerLawFit | None]],
                     stream: IO[str]) -> None:
    """Excess values next to fitted values, for log-log plotting."""
    writer = _csv_writer(stream, LOGLOG_CSV_HEADER)
    for series, fit in sorted(pairs, key=lambda p: (p[0].group,
                                                     p[0].measure.value)):
        _write_series(writer, series.group, series.measure.value, series.t,
                      _float_texts(series.mean),
                      repeat("") if fit is None
                      else _float_texts(fit.model(series.t)))


def write_exponent_csv(rows: Iterable[GroupFitRow], stream: IO[str]) -> None:
    """Exponent table, one row per (measure, halt type, sign)."""
    writer = _csv_writer(stream, EXPONENT_CSV_HEADER)
    for row in rows:
        fit = row.fit
        values = ([""] * 6 if fit is None else _float_texts(
            [fit.amplitude, fit.alpha, fit.alpha_stderr,
             fit.bootstrap_alpha_stderr, fit.sse, fit.r2_positive]))
        # a fit exists only once converged
        writer.writerow((row.measure.value, row.halt_type.value,
                         row.sign.value, *values, int(fit is not None),
                         row.flag))


def _write_loglog(result: AnalysisResult, stream: IO[str]) -> None:
    fits = {(row.group, row.measure): row.fit for row in result.fit_rows}
    write_loglog_csv([(series, fits.get((series.group, series.measure)))
                      for series in result.excess], stream)


def _write_summary(result: AnalysisResult, config: AnalysisConfig,
                   stream: IO[str]) -> None:
    json.dump(summary_dict(result, config), stream, indent=2, sort_keys=True,
              allow_nan=False)
    stream.write("\n")


# every artifact file, in writing order, with its one writer
_WRITERS: dict[str, Callable[[AnalysisResult, AnalysisConfig, IO[str]],
                             None]] = {
    "eligibility.csv": lambda r, c, fh: write_eligibility_report(r.events, fh),
    "counts.csv": lambda r, c, fh: write_count_csv(r.counts, fh),
    "curves.csv": lambda r, c, fh: write_curve_csv(r.curves, fh),
    "averages.csv": lambda r, c, fh: write_group_average_csv(r.averages, fh),
    "excess.csv": lambda r, c, fh: write_group_average_csv(r.excess, fh),
    "loglog.csv": lambda r, c, fh: _write_loglog(r, fh),
    "exponents.csv": lambda r, c, fh: write_exponent_csv(r.fit_rows, fh),
    "summary.json": _write_summary,
}
ARTIFACTS = tuple(_WRITERS)
SELECTION_ARTIFACTS = ("eligibility.csv", "counts.csv")
FIT_ARTIFACTS = ("exponents.csv", "loglog.csv")


def write_analysis_outputs(result: AnalysisResult, config: AnalysisConfig,
                           out_dir: str | Path,
                           names: Sequence[str] = ARTIFACTS) -> list[Path]:
    """Write the named artifact files (all by default); returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        path = out / name
        with open(path, "w", newline="") as fh:
            _WRITERS[name](result, config, fh)
        written.append(path)
    return written


def write_sign_flip_csv(windows: Sequence[int],
                        results: Sequence[AnalysisResult],
                        stream: IO[str]) -> int:
    """Per event, its sign in each window's run and whether those differ;
    returns the number of events that flip."""
    writer = _csv_writer(stream, [*HALT_CSV_HEADER[:5],
                                  *(f"sign_w{w}" for w in windows), "flipped"])
    n_flipped = 0
    for i, ev in enumerate(results[-1].events):
        signs = [result.events[i].sign for result in results]
        flipped = int(len({s for s in signs if s is not None}) > 1)
        n_flipped += flipped
        rec = ev.record
        writer.writerow(
            [rec.stock_id, rec.halt_day.isoformat(), rec.halt_minute,
             rec.resume_day.isoformat(), rec.resume_minute]
            + ["" if s is None else s.value for s in signs] + [flipped])
    return n_flipped
