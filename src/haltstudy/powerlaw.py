"""Power-law relaxation fits on excess activity series.

After deseasonalization the post-halt decay of a group average is
modeled as A * t**(-alpha) on event minutes t >= 1. The fit minimizes
the linear-space sum of squared residuals with a damped Gauss-Newton
iteration seeded by a log-log regression of the positive values; linear
space keeps negative noise excursions usable, the log-log pass only
picks the starting point. Uncertainty comes two ways: the asymptotic
covariance of the least-squares problem and a seeded bootstrap over
events.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DegenerateData, EmptyGroup, NonConvergence
from .event_study import (
    EventTrajectory,
    GroupAverage,
    MeasureKind,
    resampled_means,
)
from .events import EventSign, HaltType, group_name, group_sort_key

MIN_FIT_POINTS = 8
MAX_ITERATIONS = 200
SSE_RTOL = 1e-10
STEP_ATOL = 1e-8

FLAG_OK = "ok"
FLAG_NO_POWER_LAW = "no_power_law"

EXPONENT_CSV_HEADER = ("measure", "halt_type", "sign", "A", "alpha",
                       "alpha_se_asymptotic", "alpha_se_bootstrap",
                       "sse", "r2", "converged", "flag")
LOGLOG_CSV_HEADER = ("group", "measure", "t", "z_ex", "fit_value")


@dataclass(frozen=True)
class FitConfig:
    """Fit window and the quality gate separating decay from no-decay."""

    fit_range: tuple[int, int] = (1, 160)
    min_r2: float = 0.2

    def __post_init__(self) -> None:
        lo, hi = self.fit_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad fit range [{lo}, {hi}]")
        if not 0 <= self.min_r2 <= 1:
            raise ValueError("min_r2 must be in [0, 1]")


def power_law_model(t: np.ndarray, amplitude: float, alpha: float) -> np.ndarray:
    """A * t**(-alpha) for t > 0."""
    return amplitude * np.power(t, -alpha)


def power_law_jacobian(t: np.ndarray, amplitude: float,
                       alpha: float) -> np.ndarray:
    """Model derivatives, one row per t: d/dA = t**(-alpha),
    d/dalpha = -A * ln(t) * t**(-alpha)."""
    decay = np.power(t, -alpha)
    return np.column_stack((decay, -amplitude * np.log(t) * decay))


@dataclass(frozen=True)
class ExcessSeries:
    """Group-average excess over the baseline level, z - 1, on t >= 1."""

    measure: MeasureKind
    halt_type: HaltType
    sign: EventSign
    t: np.ndarray
    values: np.ndarray
    source: GroupAverage | None = None

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)


@dataclass(frozen=True)
class PowerLawFit:
    """Result of one damped least-squares fit of A * t**(-alpha)."""

    amplitude: float
    alpha: float
    alpha_stderr: float
    fit_range: tuple[int, int]
    sse: float
    r2_positive: float
    n_points: int
    n_iterations: int
    bootstrap_alpha_stderr: float | None = None

    def model(self, t: np.ndarray) -> np.ndarray:
        return power_law_model(np.asarray(t, float), self.amplitude, self.alpha)


@dataclass(frozen=True)
class BootstrapResult:
    """Spread of refitted exponents over event resamples."""

    stderr: float
    n_success: int
    n_failed: int


def _excess(t: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # z - 1 on t >= 1; ``mean`` may hold one row per resample
    keep = t >= 1
    return t[keep], mean[..., keep] - 1.0


def make_excess(avg: GroupAverage) -> ExcessSeries:
    """Subtract the baseline level 1 pointwise on t >= 1."""
    t, values = _excess(avg.t, avg.mean)
    return ExcessSeries(avg.measure, avg.halt_type, avg.sign, t, values, avg)


def _initial_guess(t: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    # log-log regression of the positive subset; crude but close enough
    # for the damped iteration to take over
    pos = z > 0
    if int(pos.sum()) >= 2 and np.unique(t[pos]).size >= 2:
        slope, intercept = np.polyfit(np.log(t[pos]), np.log(z[pos]), 1)
        amplitude = float(np.exp(intercept))
        alpha = float(-slope)
        if math.isfinite(amplitude) and amplitude > 0 and math.isfinite(alpha):
            return amplitude, alpha
    return float(z[pos].max()), 0.5


def _r2_positive(t: np.ndarray, z: np.ndarray, amplitude: float,
                 alpha: float) -> float:
    pos = z > 0
    zp = z[pos]
    resid = zp - power_law_model(t[pos], amplitude, alpha)
    sse = float(resid @ resid)
    centered = zp - zp.mean()
    sst = float(centered @ centered)
    if sst == 0.0:
        return 1.0 if sse <= 1e-18 else 0.0
    return 1.0 - sse / sst


def fit_power_law_points(t: np.ndarray, values: np.ndarray,
                         fit_range: tuple[int, int] = FitConfig.fit_range,
                         ) -> PowerLawFit:
    """Fit A * t**(-alpha) to points selected by ``fit_range``.

    Gauss-Newton steps are damped by halving until the residual sum
    stops growing and the trial amplitude stays positive; the iteration
    ends when the relative SSE drop or the parameter step falls under
    tolerance, and a stall (no improving step) counts as converged
    because the Gauss-Newton direction only fails to descend at a
    stationary point. Hitting the iteration cap raises NonConvergence.
    """
    lo, hi = FitConfig(fit_range).fit_range     # FitConfig's range check
    t = np.asarray(t, float)
    values = np.asarray(values, float)
    sel = (t >= lo) & (t <= hi) & ~np.isnan(values)
    t, z = t[sel], values[sel]
    if t.size < MIN_FIT_POINTS:
        raise DegenerateData(
            f"{t.size} usable points in [{lo}, {hi}], need {MIN_FIT_POINTS}")
    if not np.any(z > 0):
        raise DegenerateData("no positive values to anchor the decay")

    amplitude, alpha = _initial_guess(t, z)
    resid = z - power_law_model(t, amplitude, alpha)
    sse = float(resid @ resid)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = power_law_jacobian(t, amplitude, alpha)
        try:
            delta = np.linalg.solve(jac.T @ jac, jac.T @ resid)
        except np.linalg.LinAlgError:
            converged = True
            break
        lam = 1.0
        improved = False
        while lam >= 1e-12:
            trial_a = amplitude + lam * delta[0]
            trial_alpha = alpha + lam * delta[1]
            if trial_a > 0:
                trial_resid = z - power_law_model(t, trial_a, trial_alpha)
                trial_sse = float(trial_resid @ trial_resid)
                if trial_sse <= sse:
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            converged = True
            break
        step = lam * float(np.hypot(delta[0], delta[1]))
        drop = sse - trial_sse
        amplitude, alpha = float(trial_a), float(trial_alpha)
        resid, sse = trial_resid, trial_sse
        if drop < SSE_RTOL * max(sse, 1e-300) or step < STEP_ATOL:
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"no convergence in {MAX_ITERATIONS} iterations")

    jac = power_law_jacobian(t, amplitude, alpha)
    dof = t.size - 2
    try:
        cov = np.linalg.inv(jac.T @ jac) * (sse / dof)
        alpha_stderr = float(np.sqrt(cov[1, 1]))
    except np.linalg.LinAlgError:
        alpha_stderr = float("nan")
    return PowerLawFit(amplitude, alpha, alpha_stderr, (lo, hi), sse,
                       _r2_positive(t, z, amplitude, alpha), int(t.size),
                       iterations)


def fit_power_law(series: ExcessSeries,
                  fit_range: tuple[int, int] = FitConfig.fit_range,
                  ) -> PowerLawFit:
    """Fit the relaxation model to one excess series."""
    return fit_power_law_points(series.t, series.values, fit_range)


def bootstrap_alpha_stderr(trajectories: Sequence[EventTrajectory],
                           fit_range: tuple[int, int] = FitConfig.fit_range,
                           *, n_resamples: int,
                           seed: int | np.random.SeedSequence) -> BootstrapResult:
    """Spread of the exponent under resampling events with replacement.

    Every resample redoes the averaging and the fit; resamples whose fit
    fails are dropped and counted. The resample index matrix is drawn up
    front from one seeded generator, so the result is reproducible and
    independent of evaluation order. All resamples are averaged in
    lockstep (:func:`resampled_means`), each bitwise equal to its own
    :func:`group_average`, and then fitted one by one. Identical
    trajectories give a spread of exactly 0. ``n_resamples`` and ``seed``
    have no defaults here; a run takes them from its AnalysisConfig.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.event.record.sort_key())
    if len(trajs) < 2:
        raise EmptyGroup(f"{len(trajs)} trajectories, need at least 2")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    indices = np.random.default_rng(seed).integers(
        0, len(trajs), size=(n_resamples, len(trajs)))
    t, excess = _excess(trajs[0].t, resampled_means(trajs, indices))
    count = 0
    mean = 0.0
    m2 = 0.0
    failed = 0
    for values in excess:
        try:
            fit = fit_power_law_points(t, values, fit_range)
        except (DegenerateData, NonConvergence):
            failed += 1
            continue
        count += 1
        delta = fit.alpha - mean
        mean += delta / count
        m2 += delta * (fit.alpha - mean)
    stderr = math.sqrt(m2 / (count - 1)) if count >= 2 else float("nan")
    return BootstrapResult(stderr, count, failed)


@dataclass(frozen=True)
class GroupFitRow:
    """One exponent-table row; ``fit`` is None when fitting failed."""

    measure: MeasureKind
    halt_type: HaltType
    sign: EventSign
    fit: PowerLawFit | None
    flag: str

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)

def fit_all_groups(averages: Iterable[GroupAverage],
                   config: FitConfig = FitConfig()) -> list[GroupFitRow]:
    """Fit every group average and apply the quality gate.

    A row is flagged ok only when the fit converged with R-squared (over
    the positive excess values) at or above the gate; everything else,
    including series too degenerate to fit, is flagged no_power_law.
    Failures are encoded in the row, never raised.
    """
    ordered = sorted(averages, key=lambda a: (
        a.measure.value, group_sort_key(a.halt_type, a.sign)))
    rows = []
    for avg in ordered:
        fit = None
        try:
            fit = fit_power_law(make_excess(avg), config.fit_range)
        except (DegenerateData, NonConvergence):
            pass
        ok = fit is not None and fit.r2_positive >= config.min_r2
        rows.append(GroupFitRow(avg.measure, avg.halt_type, avg.sign, fit,
                                FLAG_OK if ok else FLAG_NO_POWER_LAW))
    return rows


def attach_bootstrap(row: GroupFitRow, result: BootstrapResult) -> GroupFitRow:
    """Return the row with the bootstrap spread filled into its fit."""
    if row.fit is None:
        return row
    return replace(row, fit=replace(row.fit,
                                    bootstrap_alpha_stderr=result.stderr))


def _field(x: float | None) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def write_exponent_csv(rows: Iterable[GroupFitRow], stream: IO[str]) -> None:
    """Exponent table, one row per (measure, halt type, sign)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(EXPONENT_CSV_HEADER)
    for row in rows:
        fit = row.fit
        writer.writerow((
            row.measure.value, row.halt_type.value, row.sign.value,
            _field(fit.amplitude) if fit else "",
            _field(fit.alpha) if fit else "",
            _field(fit.alpha_stderr) if fit else "",
            _field(fit.bootstrap_alpha_stderr) if fit else "",
            _field(fit.sse) if fit else "",
            _field(fit.r2_positive) if fit else "",
            int(fit is not None),   # a fit exists only once converged
            row.flag,
        ))


def write_loglog_csv(pairs: Iterable[tuple[ExcessSeries, PowerLawFit | None]],
                     stream: IO[str]) -> None:
    """Excess values next to fitted values, for log-log plotting."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(LOGLOG_CSV_HEADER)
    ordered = sorted(pairs, key=lambda p: (p[0].group, p[0].measure.value))
    for series, fit in ordered:
        fitted = fit.model(series.t) if fit is not None else None
        for i, t in enumerate(series.t):
            writer.writerow((
                series.group, series.measure.value, int(t),
                _field(float(series.values[i])),
                _field(float(fitted[i])) if fitted is not None else "",
            ))
