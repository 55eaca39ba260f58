"""End-to-end analysis: filter, deseasonalize, average, fit, report.

:func:`run_windows` is one staged pass over one or more trend windows,
and :func:`run_analysis` its one-window case. A pass builds one record
table of its halt records (``events._RecordColumns``), and every stage
indexes into it. Per window, selection (``events._select``), the only
stage the trend window reaches, gives each row its sign and verdict;
then :func:`average_groups` (trajectories, one lockstep pass per chunk
of stocks, and group averages), :func:`add_curves_and_reversals` and
:func:`fit_groups` (fits and bootstrap errors) run, each only when an
artifact to be written reads it. The eligible set and each group cell
are ascending arrays of table rows. A pass extracts each row's
trajectories once, and builds each group cell once per distinct
membership: a window whose cell has the rows of an earlier window's
reuses it whole, with its averages, curve, reversal fractions, fit
rows, bootstrap results and rendered rows.
Work runs in one thread in a fixed order, groups in
:func:`group_sort_key` order, so reruns are bitwise identical. Each
output file has one writer here: the table behind
:func:`write_analysis_outputs`, and :func:`write_sign_flip_csv` for the
robustness summary. Event-time series are written by column, and every
float field goes through one formatter (``repr``, empty for NaN), once
per column and write.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import (IO, Callable, Collection, Iterable, Iterator, Mapping,
                    Sequence)

import numpy as np

from .events import (
    CountTable,
    HALT_CSV_HEADER,
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    _RecordColumns,
    _record_fields,
    _select,
    _Selection,
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
    _curves,
    _trajectories,
    group_average,  # bound here for bench/tests' tracer check
    group_averages,
    stability_stat,
)
from .market_data import Panel, _csv_text, _float_texts
from .powerlaw import (
    BootstrapResult,
    FitConfig,
    GroupFitRow,
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
    post window, where the averages have points, and the cumulative
    window must leave a curve at least two points after t = 0, the
    fewest its stability statistic needs.
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
        if self.eligibility.pre_window < 2:
            raise ValueError(
                "cumulative window (pre_window) must be at least 2, got "
                f"{self.eligibility.pre_window}")


@dataclass(eq=False)
class GroupCell:
    """One (halt type, sign) group of eligible events, as their ``rows``
    in the pass's record ``table``, ascending, and per measure their
    group average.

    The cell alone holds the group's identity; trajectories, averages
    and curves carry none. A pass builds one cell per distinct
    membership and hands it to every window with those members. The
    later stages fill in, once per cell, what they derive from it: the
    cumulative-return ``curve`` and ``reversals``, the fit row per
    measure and the bootstrap result per (measure, spawn index).
    ``texts`` holds its rendered rows per (artifact, measure), the
    measure None for curves.csv, while the pass runs, and is None once
    the pass is over.
    """

    halt_type: HaltType
    sign: EventSign
    rows: tuple[int, ...]
    averages: Mapping[MeasureKind, GroupAverage]
    curve: CumulativeReturnCurve | None = None
    reversals: Mapping[int, float] | None = None
    fits: dict[MeasureKind, GroupFitRow] = field(default_factory=dict)
    bootstraps: dict[tuple[MeasureKind, int], BootstrapResult] = field(
        default_factory=dict)
    texts: dict[tuple[str, MeasureKind | None], str] | None = field(
        default_factory=dict)
    table: _RecordColumns | None = None

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)

    @cached_property
    def records(self) -> tuple[HaltRecord, ...]:
        """The members' halt records, in key order."""
        return tuple(self.table.records[i] for i in self.rows)

    @cached_property
    def excess(self) -> dict[MeasureKind, GroupAverage]:
        return {m: make_excess(avg) for m, avg in self.averages.items()}


@dataclass(frozen=True)
class AnalysisResult:
    """All analysis products of one window, in deterministic order.

    ``selection`` is the window's classification of the pass's record
    table; ``events`` and ``counts`` are made from it when first read. A
    stage that did not run leaves its products empty: a result of the
    selection stage alone has no cells, and one without the curve stage
    cells without curves, and no reversals or stability.
    """

    selection: _Selection
    cells: tuple[GroupCell, ...] = ()
    fit_rows: tuple[GroupFitRow, ...] = ()

    @cached_property
    def events(self) -> tuple[HaltEvent, ...]:
        return tuple(self.selection.events())

    @cached_property
    def counts(self) -> CountTable:
        return tabulate_counts(self.events)

    @property
    def reversals(self) -> dict[str, Mapping[int, float]]:
        return {cell.group: cell.reversals for cell in self.cells
                if cell.reversals is not None}

    @property
    def stability(self) -> dict[str, float]:
        return {cell.group: stability_stat(cell.curve) for cell in self.cells
                if cell.curve is not None}

    @property
    def n_eligible(self) -> int:
        return len(self.selection.eligible)


# each extracted record's trajectories by measure, by its table row
Trajectories = dict[int, dict[MeasureKind, EventTrajectory]]


def average_groups(panel: Panel, selection: _Selection,
                   config: AnalysisConfig = AnalysisConfig(),
                   trajectories: Trajectories | None = None,
                   cells: dict[tuple, GroupCell] | None = None,
                   ) -> tuple[GroupCell, ...]:
    """Group averages of the eligible events' trajectories, per group.

    ``trajectories`` (by table row) and ``cells`` (by halt type, sign
    and member rows) hold what earlier windows of a pass built, and take
    what this one adds. Only rows without trajectories there are
    extracted, in one pass in key order; a cell with the members of one
    there is that cell. The new cells' averages come from one
    :func:`group_averages` call: one lockstep pass per measure.
    """
    trajectories = {} if trajectories is None else trajectories
    cells = {} if cells is None else cells
    table = selection.table
    new = np.array([row for row in selection.eligible.tolist()
                    if row not in trajectories], dtype=np.intp)
    if new.size:
        elig = config.eligibility
        trajectories.update(zip(new.tolist(), _trajectories(
            panel, table.take(new), config.measures, elig.lookback_days,
            elig.measure_pre_window, elig.post_window)))
    keys = selection.groups()
    todo = [key for key in keys if key not in cells]
    measures = config.measures
    averages = iter(group_averages([[trajectories[row][m] for row in rows]
                                    for *_, rows in todo
                                    for m in measures]))
    for key in todo:
        cells[key] = GroupCell(*key, {m: next(averages) for m in measures},
                               table=table)
    return tuple(cells[key] for key in keys)


def add_curves_and_reversals(panel: Panel, cells: Sequence[GroupCell],
                             config: AnalysisConfig = AnalysisConfig(),
                             ) -> None:
    """Give each cell that lacks them its cumulative-return curve and its
    reversal fractions.

    The new cells' rows of their pass's table are read once for all of
    them. Cell by cell, in cell order, the curve's window checks run,
    then the reversals, so the first failing cell raises; one lockstep
    pass then averages every new curve.
    """
    new = [cell for cell in cells if cell.curve is None]
    if not new:
        return
    curves, reversals = _curves(
        panel, new[0].table, [cell.rows for cell in new],
        [cell.sign for cell in new], config.eligibility.pre_window,
        config.reversal_horizons)
    for cell, curve, fractions in zip(new, curves, reversals):
        cell.curve, cell.reversals = curve, fractions


def fit_groups(cells: Sequence[GroupCell], trajectories: Trajectories,
               config: AnalysisConfig = AnalysisConfig(),
               ) -> tuple[GroupFitRow, ...]:
    """Fit every group average, then bootstrap each fitted multi-event cell
    from its own child of one seed sequence, spawned in row order, every
    resample's fit starting from the cell's fit; the members'
    ``trajectories`` are those :func:`average_groups` kept.

    Rows sort by measure, then group. A fit row is bitwise the same
    fitted alone as in a block, so only the cells without fit rows are
    fitted, and the others keep theirs. A cell keeps its bootstrap
    results by measure and spawn index: a window without some cell
    shifts the children of every later row.
    """
    new = [(cell, m) for cell in cells if not cell.fits
           for m in cell.averages]
    for (cell, m), (fit, flag) in zip(new, fit_all_groups(
            [cell.averages[m] for cell, m in new], config.fit)):
        cell.fits[m] = GroupFitRow(m, cell.halt_type, cell.sign, fit, flag)
    ordered = sorted(((cell, m) for cell in cells for m in cell.fits),
                     key=lambda p: (p[1].value,
                                    group_sort_key(p[0].halt_type, p[0].sign)))
    if config.n_bootstrap == 0 or not ordered:
        return tuple(cell.fits[m] for cell, m in ordered)
    children = np.random.SeedSequence(config.seed).spawn(len(ordered))
    patched = []
    for i, ((cell, m), child) in enumerate(zip(ordered, children)):
        row = cell.fits[m]
        if row.fit is not None and len(cell.rows) >= 2:
            if (m, i) not in cell.bootstraps:
                cell.bootstraps[m, i] = bootstrap_alpha_stderr(
                    [trajectories[r][m] for r in cell.rows], row.fit,
                    n_resamples=config.n_bootstrap, seed=child)
            row = attach_bootstrap(row, cell.bootstraps[m, i])
        patched.append(row)
    return tuple(patched)


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
        fit, boot = row.fit, row.bootstrap
        # resample counts only where the run bootstraps
        resamples = {f"bootstrap_n_{k}": getattr(boot, f"n_{k}", None)
                     for k in ("success", "failed") if config.n_bootstrap}
        exponents.append({
            "measure": row.measure.value,
            "halt_type": row.halt_type.value,
            "sign": row.sign.value,
            "amplitude": _json_float(fit.amplitude) if fit else None,
            "alpha": _json_float(fit.alpha) if fit else None,
            "alpha_se_asymptotic": _json_float(fit.alpha_stderr) if fit else None,
            "alpha_se_bootstrap": _json_float(boot.stderr) if boot else None,
            "sse": _json_float(fit.sse) if fit else None,
            "r2": _json_float(fit.r2_positive) if fit else None,
            "converged": fit is not None,   # a fit exists only once converged
            "flag": row.flag,
            **resamples,
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


def _series_text(group: str, label: str, t: np.ndarray,
                 *columns: Iterable[str]) -> str:
    # the rows of one event-time series, by column of field texts, a row
    # per t
    return _csv_text(zip(repeat(group), repeat(label), map(str, t.tolist()),
                         *columns))


def _render_cell(cell: GroupCell, names: Collection[str]) -> None:
    """Render into ``cell.texts`` its rows in each series artifact of
    ``names`` that it lacks.

    A float column that two artifacts repeat is formatted once:
    excess.csv's stderr and n are averages.csv's on t >= 1, and
    loglog.csv's z_ex is excess.csv's mean.
    """
    group = cell.group
    if "curves.csv" in names and ("curves.csv", None) not in cell.texts:
        c = cell.curve
        cell.texts["curves.csv", None] = _series_text(
            group, CUMULATIVE_LABEL, c.t, _float_texts(c.mean),
            _float_texts(c.stderr), repeat(str(c.n)))
    for m, avg in cell.averages.items():
        todo = {name for name in ("averages.csv", "excess.csv", "loglog.csv")
                if name in names and (name, m) not in cell.texts}
        if not todo:
            continue
        ex = cell.excess[m]
        stderr, n, z_ex = (_float_texts(avg.stderr),
                           list(map(str, avg.n.tolist())),
                           _float_texts(ex.mean))
        if "averages.csv" in todo:
            cell.texts["averages.csv", m] = _series_text(
                group, m.value, avg.t, _float_texts(avg.mean), stderr, n)
        if "excess.csv" in todo:
            # make_excess keeps t >= 1, a suffix of the ascending t axis
            tail = int(np.searchsorted(avg.t, 1))
            cell.texts["excess.csv", m] = _series_text(
                group, m.value, ex.t, z_ex, stderr[tail:], n[tail:])
        if "loglog.csv" in todo:
            fit = cell.fits[m].fit if m in cell.fits else None
            cell.texts["loglog.csv", m] = _series_text(
                group, m.value, ex.t, z_ex,
                repeat("") if fit is None else _float_texts(fit.model(ex.t)))


def _write_cell_rows(result: AnalysisResult, name: str,
                     stream: IO[str]) -> None:
    # every cell's rendered rows of ``name``, by group, then measure
    stream.write(_csv_text([LOGLOG_CSV_HEADER if name == "loglog.csv"
                            else SERIES_CSV_HEADER]))
    for cell in sorted(result.cells, key=lambda c: c.group):
        measures = ([None] if name == "curves.csv"
                    else sorted(cell.averages, key=lambda m: m.value))
        stream.writelines(cell.texts[name, m] for m in measures)


def write_exponent_csv(rows: Iterable[GroupFitRow], stream: IO[str]) -> None:
    """Exponent table, one row per (measure, halt type, sign)."""
    lines = [EXPONENT_CSV_HEADER]
    for row in rows:
        fit, boot = row.fit, row.bootstrap
        values = ([""] * 6 if fit is None else _float_texts(
            [fit.amplitude, fit.alpha, fit.alpha_stderr,
             boot.stderr if boot else None, fit.sse, fit.r2_positive]))
        # a fit exists only once converged
        lines.append((row.measure.value, row.halt_type.value, row.sign.value,
                      *values, str(int(fit is not None)), row.flag))
    stream.write(_csv_text(lines))


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
    "curves.csv": lambda r, c, fh: _write_cell_rows(r, "curves.csv", fh),
    "averages.csv": lambda r, c, fh: _write_cell_rows(r, "averages.csv", fh),
    "excess.csv": lambda r, c, fh: _write_cell_rows(r, "excess.csv", fh),
    "loglog.csv": lambda r, c, fh: _write_cell_rows(r, "loglog.csv", fh),
    "exponents.csv": lambda r, c, fh: write_exponent_csv(r.fit_rows, fh),
    "summary.json": _write_summary,
}
ARTIFACTS = tuple(_WRITERS)
SELECTION_ARTIFACTS = ("eligibility.csv", "counts.csv")
FIT_ARTIFACTS = ("exponents.csv", "loglog.csv")
# the stages after selection whose products each artifact reads
_READS = {
    "eligibility.csv": (),
    "counts.csv": (),
    "curves.csv": ("cells", "curves"),
    "averages.csv": ("cells",),
    "excess.csv": ("cells",),
    "loglog.csv": ("cells", "fits"),
    "exponents.csv": ("cells", "fits"),
    "summary.json": ("cells", "curves", "fits"),
}


def run_windows(panel: Panel, records: Sequence[HaltRecord],
                config: AnalysisConfig, windows: Iterable[int],
                names: Collection[str] = ARTIFACTS,
                ) -> Iterator[tuple[AnalysisConfig, AnalysisResult]]:
    """Analyse the data at each trend window in ``windows``, in that order,
    as one staged pass; yields each window's configuration and result.

    ``config`` gives every other setting. Only the stages that the
    artifacts ``names`` read run. The record table is built once, when
    the first window starts, and selection runs per window on it. The
    trajectories of each eligible event are extracted in the first window
    that has it, and a group cell is built in the first window with its
    members; a later window reuses both (see :func:`average_groups`),
    and with a cell everything derived from it. A window's result is
    yielded before the next window's selection starts, so a caller that
    writes it there has written every window before the first failing
    one, and that window raises the error a lone run of it would.
    """
    stages = {stage for name in names for stage in _READS[name]}
    table = None
    trajectories: Trajectories = {}
    cells: dict[tuple, GroupCell] = {}
    for window in windows:
        analysis = replace(config, eligibility=replace(config.eligibility,
                                                       trend_window=window))
        # the records' table does not depend on the trend window
        if table is None:
            table = _RecordColumns(records, panel)
        selection = _select(table, panel, analysis.eligibility)
        group_cells = fit_rows = ()
        if "cells" in stages:
            group_cells = average_groups(panel, selection, analysis,
                                         trajectories, cells)
        if "curves" in stages:
            add_curves_and_reversals(panel, group_cells, analysis)
        if "fits" in stages:
            fit_rows = fit_groups(group_cells, trajectories, analysis)
        yield analysis, AnalysisResult(selection, group_cells, fit_rows)
    # no window is left to copy the rows, and a caller that keeps the
    # results should not keep their text
    for cell in cells.values():
        cell.texts = None


def run_analysis(panel: Panel, records: Sequence[HaltRecord],
                 config: AnalysisConfig = AnalysisConfig(),
                 names: Collection[str] = ARTIFACTS) -> AnalysisResult:
    """Run the study over a raw panel and halt registry, as far as the
    artifacts ``names`` need: the one-window case of :func:`run_windows`."""
    ((_, result),) = run_windows(panel, records, config,
                                 [config.eligibility.trend_window], names)
    return result


def write_analysis_outputs(result: AnalysisResult, config: AnalysisConfig,
                           out_dir: str | Path,
                           names: Sequence[str] = ARTIFACTS) -> list[Path]:
    """Write the named artifact files (all by default); returns their paths.

    The files are written into a hidden temporary directory in
    ``out_dir``, on the same file system as the files they replace, and
    moved into place only once all of them are complete. A write that
    fails leaves no partial file and no temporary directory, and a file
    that it would have replaced keeps its old contents.

    While the pass that built a cell runs, its rows are rendered into it
    once, and a later write of any result that shares the cell copies
    them; after the pass, they are rendered for each write.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".writing-", dir=out))
    # cells whose pass is over keep their rows for this write only
    done = [cell for cell in result.cells if cell.texts is None]
    try:
        for cell in done:
            cell.texts = {}
        for cell in result.cells:
            _render_cell(cell, names)
        for name in names:
            with open(tmp / name, "w", newline="") as fh:
                _WRITERS[name](result, config, fh)
        for name in names:
            os.replace(tmp / name, out / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for cell in done:
            cell.texts = None
    return [out / name for name in names]


def write_sign_flip_csv(windows: Sequence[int],
                        results: Sequence[AnalysisResult],
                        stream: IO[str]) -> int:
    """Per event, its sign in each window's run and whether those differ;
    returns the number of events that flip."""
    lines = [(*HALT_CSV_HEADER[:5], *(f"sign_w{w}" for w in windows),
              "flipped")]
    n_flipped = 0
    for i, ev in enumerate(results[-1].events):
        signs = [result.events[i].sign for result in results]
        flipped = int(len({s for s in signs if s is not None}) > 1)
        n_flipped += flipped
        lines.append((*_record_fields(ev.record),
                      *("" if s is None else s.value for s in signs),
                      str(flipped)))
    stream.write(_csv_text(lines))
    return n_flipped
