"""Power-law relaxation fits on excess activity series.

After deseasonalization the post-halt decay of a group average is
modeled as A * t**(-alpha) on event minutes t >= 1. The fit minimizes
the linear-space sum of squared residuals with a damped Gauss-Newton
iteration seeded by a log-log regression of the positive values; linear
space keeps negative noise excursions usable, the log-log pass only
picks the starting point. Uncertainty comes two ways: the asymptotic
covariance of the least-squares problem and a seeded bootstrap over
events.

Every fit runs through one block fitter: a (rows x points) matrix on
one shared t, each row with its own state (amplitude, alpha, residual,
SSE, iteration count, step length, and whether it is still active).
The bootstrap hands it all resamples of a cell, :func:`fit_all_groups`
all cells on one time axis, and :func:`fit_power_law_points` one row.
Each row ends bit for bit where a one-series loop ends, because each
row sees the same floating-point operations:

* the Jacobian is stacked as (rows, n, 2), so each row is the
  C-ordered (n, 2) block of :func:`power_law_jacobian`;
* J^T J, J^T r and r . r are stacked matrix products, which make the
  same BLAS call per row as the 2-D product (einsum or sum() round
  differently), and the steps come from a stacked solve;
* a stacked solve fails for the whole block when one system is
  singular; the block is then solved row by row and only the singular
  rows stop, where they are;
* step halving (1, 1/2, ... down to 1e-12) runs per row;
* rows are grouped by their pattern of missing points and each pattern
  is fitted on its own points, never padded;
* the log-log starting points come from one function per block that
  takes ``np.polyfit``'s own steps for each row, without its wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

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


def make_excess(avg: GroupAverage) -> ExcessSeries:
    """Subtract the baseline level 1 pointwise on t >= 1."""
    keep = avg.t >= 1
    return ExcessSeries(avg.measure, avg.halt_type, avg.sign, avg.t[keep],
                        avg.mean[keep] - 1.0, avg)


def _initial_guesses(t: np.ndarray,
                     z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starting (amplitude, alpha) per row of ``z`` (rows x len(t)), each
    row holding a positive value: a log-log regression of the row's
    positive points, crude but close enough for the damped iteration to
    take over.

    The regression takes ``np.polyfit(deg=1)``'s own steps without its
    wrapper: the [x, 1] Vandermonde, scaled to unit column norms, solved
    by ``lstsq`` with rcond len(x) * eps and unscaled, so each row gets
    polyfit's bits. Rows with fewer than two distinct positive t, or a
    non-finite or non-positive amplitude, start at (max z, 0.5).
    """
    pos = z > 0
    amplitude = np.where(pos, z, -np.inf).max(axis=1)
    alpha = np.full(len(z), 0.5)
    spread = (np.where(pos, t, np.inf).min(axis=1)
              < np.where(pos, t, -np.inf).max(axis=1))
    eps = np.finfo(float).eps
    for i in np.flatnonzero(spread):
        x = np.log(t[pos[i]])
        lhs = np.empty((x.size, 2))
        lhs[:, 0] = x
        lhs[:, 1] = 1.0
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs /= scale
        slope, intercept = np.linalg.lstsq(
            lhs, np.log(z[i, pos[i]]), x.size * eps)[0] / scale
        a = float(np.exp(intercept))
        al = float(-slope)
        if math.isfinite(a) and a > 0 and math.isfinite(al):
            amplitude[i], alpha[i] = a, al
    return amplitude, alpha


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


def _row_dots(x: np.ndarray) -> np.ndarray:
    # x . x per row, as the stacked (1 x n) @ (n x 1) products that run
    # the same BLAS dot as ``row @ row``; einsum or sum() round otherwise
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _solve_rows(lhs: np.ndarray,
                rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Newton steps of (rows, 2, 2) systems and the rows that are
    # singular; a stacked solve raises for the whole block, so a block
    # holding a singular row is solved again one row at a time
    try:
        return np.linalg.solve(lhs, rhs)[:, :, 0], np.zeros(len(lhs), bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros(rhs.shape[:2])
    singular = np.zeros(len(lhs), bool)
    for i in range(len(lhs)):
        try:
            steps[i] = np.linalg.solve(lhs[i], rhs[i])[:, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _gauss_newton_block(t: np.ndarray, z: np.ndarray, amplitude: np.ndarray,
                        alpha: np.ndarray) -> tuple[np.ndarray, ...]:
    """Damped Gauss-Newton on every row of ``z`` (rows x len(t)) at once.

    Each row keeps its own state and leaves the block when it converges,
    stalls or hits a singular system; one step-halving ladder serves all
    rows still searching. ``amplitude`` and ``alpha`` hold the starting
    points and are updated in place. Returns amplitude, alpha, SSE and
    iteration count per row, and the mask of rows that converged.
    """
    log_t = np.log(t)
    decay = np.power(t, -alpha[:, None])
    resid = z - amplitude[:, None] * decay
    sse = _row_dots(resid)
    iterations = np.zeros(len(z), dtype=int)
    active = np.ones(len(z), dtype=bool)
    for iteration in range(1, MAX_ITERATIONS + 1):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        iterations[rows] = iteration
        a, al, d = amplitude[rows], alpha[rows], decay[rows]
        # (rows, n, 2), each row the C-ordered block power_law_jacobian gives
        jac = np.stack((d, -a[:, None] * log_t * d), axis=-1)
        jac_t = jac.transpose(0, 2, 1)
        delta, searching = _solve_rows(jac_t @ jac,
                                       jac_t @ resid[rows][:, :, None])
        active[rows[searching]] = False         # singular: stop where it is
        searching = ~searching
        lam = 1.0
        while lam >= 1e-12 and searching.any():
            idx = np.flatnonzero(searching)
            trial_a = a[idx] + lam * delta[idx, 0]
            positive = trial_a > 0
            idx, trial_a = idx[positive], trial_a[positive]
            trial_alpha = al[idx] + lam * delta[idx, 1]
            # an overshooting step can overflow t**-alpha or its SSE; the
            # SSE is then inf, so the test below rejects that trial
            with np.errstate(over="ignore"):
                trial_decay = np.power(t, -trial_alpha[:, None])
                trial_resid = z[rows[idx]] - trial_a[:, None] * trial_decay
                trial_sse = _row_dots(trial_resid)
            better = trial_sse <= sse[rows[idx]]
            idx = idx[better]
            won = rows[idx]
            step = lam * np.hypot(delta[idx, 0], delta[idx, 1])
            new_sse = trial_sse[better]
            drop = sse[won] - new_sse
            amplitude[won], alpha[won] = trial_a[better], trial_alpha[better]
            decay[won], resid[won] = trial_decay[better], trial_resid[better]
            sse[won] = new_sse
            active[won] = ~((drop < SSE_RTOL * np.maximum(new_sse, 1e-300))
                            | (step < STEP_ATOL))
            searching[idx] = False
            lam *= 0.5
        # no improving step: the direction only fails to descend at a
        # stationary point, so a stall counts as converged
        active[rows[searching]] = False
    return amplitude, alpha, sse, iterations, ~active


@dataclass(frozen=True)
class _RowFit:
    """One row's converged fit before its diagnostics: the points it used
    and where the iteration ended."""

    t: np.ndarray
    z: np.ndarray
    fit_range: tuple[int, int]
    amplitude: float
    alpha: float
    sse: float
    n_iterations: int

    def complete(self) -> PowerLawFit:
        """The fit with its asymptotic alpha stderr and R-squared."""
        jac = power_law_jacobian(self.t, self.amplitude, self.alpha)
        dof = self.t.size - 2
        try:
            cov = np.linalg.inv(jac.T @ jac) * (self.sse / dof)
            alpha_stderr = float(np.sqrt(cov[1, 1]))
        except np.linalg.LinAlgError:
            alpha_stderr = float("nan")
        return PowerLawFit(
            self.amplitude, self.alpha, alpha_stderr, self.fit_range,
            self.sse, _r2_positive(self.t, self.z, self.amplitude, self.alpha),
            int(self.t.size), self.n_iterations)


def _fit_columns(t: np.ndarray, fit_range: tuple[int, int]) -> np.ndarray:
    """Positions of ``t`` inside ``fit_range``, once FitConfig accepts it."""
    lo, hi = FitConfig(fit_range).fit_range
    t = np.asarray(t, float)
    return np.flatnonzero((t >= lo) & (t <= hi))


def _fit_rows(t: np.ndarray, values: np.ndarray, fit_range: tuple[int, int],
              ) -> list[_RowFit | DegenerateData | NonConvergence]:
    """Fit each row of ``values`` (rows x len(t)) on the points in
    ``fit_range``; per row, its fit or the error it fails with.

    Rows are grouped by their pattern of missing points in the range and
    each pattern is fitted as one block on its own points, so no row is
    ever padded.
    """
    columns = _fit_columns(t, fit_range)
    lo, hi = fit_range
    t = np.asarray(t, float)[columns]
    values = np.asarray(values, float)[:, columns]
    missing = np.isnan(values)
    patterns: dict[bytes, list[int]] = {}
    for i, row in enumerate(missing):
        patterns.setdefault(row.tobytes(), []).append(i)
    out: list = [None] * len(values)
    for members in patterns.values():
        rows = np.array(members)
        keep = ~missing[members[0]]
        tp = t[keep]
        if tp.size < MIN_FIT_POINTS:
            for i in rows:
                out[i] = DegenerateData(f"{tp.size} usable points in "
                                        f"[{lo}, {hi}], need {MIN_FIT_POINTS}")
            continue
        z = np.ascontiguousarray(values[rows][:, keep])
        anchored = (z > 0).any(axis=1)
        for i in rows[~anchored]:
            out[i] = DegenerateData("no positive values to anchor the decay")
        rows, z = rows[anchored], z[anchored]
        if not rows.size:
            continue
        amplitude, alpha, sse, iterations, converged = _gauss_newton_block(
            tp, z, *_initial_guesses(tp, z))
        for k, i in enumerate(rows):
            out[i] = (_RowFit(tp, z[k], (lo, hi), float(amplitude[k]),
                              float(alpha[k]), float(sse[k]),
                              int(iterations[k]))
                      if converged[k] else NonConvergence(
                          f"no convergence in {MAX_ITERATIONS} iterations"))
    return out


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
    This is the one-row case of the block fitter that the bootstrap and
    :func:`fit_all_groups` use.
    """
    fit, = _fit_rows(t, np.asarray(values, float)[None, :], fit_range)
    if not isinstance(fit, _RowFit):
        raise fit
    return fit.complete()


def bootstrap_alpha_stderr(trajectories: Sequence[EventTrajectory],
                           fit_range: tuple[int, int] = FitConfig.fit_range,
                           *, n_resamples: int,
                           seed: int | np.random.SeedSequence) -> BootstrapResult:
    """Spread of the exponent under resampling events with replacement.

    Every resample redoes the averaging and the fit; resamples whose fit
    fails are dropped and counted. The resample index matrix is drawn up
    front from one seeded generator, so the result is reproducible and
    independent of evaluation order. All resamples are averaged in
    lockstep (:func:`resampled_means`) over the fit range's columns
    only, each bitwise equal to its own :func:`group_average` there,
    then fitted together as blocks, each row bitwise equal to its own
    :func:`fit_power_law_points`; the spread is taken over the
    exponents in resample order. Identical trajectories give a spread
    of exactly 0. ``n_resamples`` and ``seed`` have no defaults here; a
    run takes them from its AnalysisConfig.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.event.record.sort_key())
    if len(trajs) < 2:
        raise EmptyGroup(f"{len(trajs)} trajectories, need at least 2")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    indices = np.random.default_rng(seed).integers(
        0, len(trajs), size=(n_resamples, len(trajs)))
    columns = _fit_columns(trajs[0].t, fit_range)
    excess = resampled_means(trajs, indices, columns) - 1.0
    count = 0
    mean = 0.0
    m2 = 0.0
    failed = 0
    for fit in _fit_rows(trajs[0].t[columns], excess, fit_range):
        if not isinstance(fit, _RowFit):
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
    Failures are encoded in the row, never raised. Cells sharing one
    time axis are fitted together as blocks, each bitwise equal to its
    own :func:`fit_power_law_points`; stderr and R-squared come per fitted row.
    """
    ordered = sorted(averages, key=lambda a: (
        a.measure.value, group_sort_key(a.halt_type, a.sign)))
    series = [make_excess(avg) for avg in ordered]
    by_axis: dict[bytes, list[int]] = {}
    for i, s in enumerate(series):
        by_axis.setdefault(np.asarray(s.t, float).tobytes(), []).append(i)
    fits: list[PowerLawFit | None] = [None] * len(series)
    for members in by_axis.values():
        block = np.stack([series[i].values for i in members])
        for i, fit in zip(members, _fit_rows(series[members[0]].t, block,
                                             config.fit_range)):
            if isinstance(fit, _RowFit):
                fits[i] = fit.complete()
    rows = []
    for avg, fit in zip(ordered, fits):
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
