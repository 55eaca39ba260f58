"""Power-law relaxation fits on excess activity series.

After deseasonalization the post-halt decay of a group average is
modeled as A * t**(-alpha) on event minutes t >= 1. The fit minimizes
the linear-space sum of squared residuals with a damped Gauss-Newton
iteration, seeded for a cell by a log-log regression of the positive
values (linear space keeps negative noise excursions usable) and for a
bootstrap resample by its cell's fit. Uncertainty comes two ways: the
asymptotic covariance of the least-squares problem and a seeded
bootstrap over events.

Every fit runs through one block fitter: a (rows x points) matrix on
one shared t, each row with its own state (amplitude, alpha, residual,
SSE, iteration count, step length, and whether it is still active).
The bootstrap hands it all resamples of a cell and :func:`fit_all_groups`
all averages on one time axis. Each row ends bit for bit where a one-row
call, or a one-series loop, ends, because each row sees the same
floating-point operations:

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
* the cells' log-log starts come from one function per block that
  takes ``np.polyfit``'s own steps: rows with equal counts of positive
  points share one call of the LAPACK gufunc behind ``np.linalg.lstsq``,
  which runs the same ``dgelsd`` per row as a call with that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateData, EmptyGroup, NonConvergence
from .event_study import (
    EventTrajectory,
    GroupAverage,
    MeasureKind,
    resampled_means,
)
from .events import EventSign, HaltType, group_name

MIN_FIT_POINTS = 8
MAX_ITERATIONS = 200
SSE_RTOL = 1e-10
STEP_ATOL = 1e-8
ALPHA_ATOL = 1e-7
_EPS = np.finfo(float).eps

FLAG_OK = "ok"
FLAG_NO_POWER_LAW = "no_power_law"

# the stacked least-squares gufunc that np.linalg.lstsq calls; bound here
# so that a numpy without it fails at import, not in the middle of a run
_lstsq = _umath_linalg.lstsq


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

    def model(self, t: np.ndarray) -> np.ndarray:
        return power_law_model(np.asarray(t, float), self.amplitude, self.alpha)


@dataclass(frozen=True)
class BootstrapResult:
    """Spread of refitted exponents over event resamples."""

    stderr: float
    n_success: int
    n_failed: int


def make_excess(avg: GroupAverage) -> GroupAverage:
    """The average's excess over the baseline level 1 on t >= 1: its
    slice there, with 1 subtracted from the mean, the same stderr and n."""
    keep = avg.t >= 1
    return replace(avg, t=avg.t[keep], mean=avg.mean[keep] - 1.0,
                   stderr=avg.stderr[keep], n=avg.n[keep])


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _initial_guesses(t: np.ndarray,
                     z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starting (amplitude, alpha) per row of ``z`` (rows x len(t)), each
    row holding a positive value: a log-log regression of the row's
    positive points, crude but close enough for the damped iteration to
    take over.

    The regression takes ``np.polyfit(deg=1)``'s own steps: the [x, 1]
    Vandermonde, scaled to unit column norms, solved by least squares
    with rcond len(x) * eps and unscaled. Rows are ordered by their count
    m of positive points (stable, so equal counts keep row order), and
    each count's rows go to ``np.linalg.lstsq``'s own gufunc as one
    (rows, m, 2) stack, with the wrapper's signature and errstate. Its
    inner loop runs the same ``dgelsd`` call, after the same workspace
    query for an m x 2 system, on each stacked row as on a row passed
    alone, so each row gets polyfit's bits. Rows with fewer than two
    distinct positive t, or a non-finite or non-positive amplitude,
    start at (max z, 0.5).
    """
    pos = z > 0
    amplitude = np.where(pos, z, -np.inf).max(axis=1)
    alpha = np.full(len(z), 0.5)
    spread = (np.where(pos, t, np.inf).min(axis=1)
              < np.where(pos, t, -np.inf).max(axis=1))
    rows = np.flatnonzero(spread)
    counts = pos[rows].sum(axis=1)
    order = np.argsort(counts, kind="stable")
    rows, counts = rows[order], counts[order]
    keep = pos[rows]
    # every row's positive points, row after row, so each count's rows
    # hold one contiguous run of points
    x = np.log(np.broadcast_to(t, keep.shape)[keep])
    y = np.log(z[rows][keep])
    starts = np.cumsum(counts) - counts
    coef = np.empty((rows.size, 2))
    sizes, firsts, n_rows = np.unique(counts, return_index=True,
                                      return_counts=True)
    for m, lo, k in zip(sizes.tolist(), firsts.tolist(), n_rows.tolist()):
        first = int(starts[lo])
        points = slice(first, first + k * m)
        lhs = np.empty((k, m, 2))
        lhs[:, :, 0] = x[points].reshape(k, m)
        lhs[:, :, 1] = 1.0
        scale = np.sqrt((lhs * lhs).sum(axis=1))
        lhs /= scale[:, None, :]
        with np.errstate(call=_raise_lstsq_error, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            solution = _lstsq(lhs, y[points].reshape(k, m, 1), m * _EPS,
                              signature="ddd->ddid")[0]
        coef[lo:lo + k] = solution[:, :, 0] / scale
    a = np.exp(coef[:, 1])
    al = -coef[:, 0]
    ok = np.isfinite(a) & (a > 0) & np.isfinite(al)
    amplitude[rows[ok]] = a[ok]
    alpha[rows[ok]] = al[ok]
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
    rows still searching. A row converges on a step below ``STEP_ATOL``,
    or on an SSE drop below ``SSE_RTOL`` once full alpha steps shrinking
    from p to s leave about (step taken) * s / (p - s), at most
    ``ALPHA_ATOL``, to go. ``amplitude`` and ``alpha`` hold the starting
    points and are updated in place. Returns amplitude, alpha, SSE and
    iteration count per row, the mask of rows that converged and each
    row's decay t**-alpha at its final alpha.
    """
    log_t = np.log(t)
    decay = np.power(t, -alpha[:, None])
    resid = z - amplitude[:, None] * decay
    sse = _row_dots(resid)
    iterations = np.zeros(len(z), dtype=int)
    active = np.ones(len(z), dtype=bool)
    last = np.full(len(z), np.inf)          # each row's last full alpha step
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
            full, prev = np.abs(delta[idx, 1]), last[won]
            left = np.divide(lam * full * full, prev - full, where=full < prev,
                             out=np.full(full.shape, np.inf))
            amplitude[won], alpha[won] = trial_a[better], trial_alpha[better]
            decay[won], resid[won] = trial_decay[better], trial_resid[better]
            sse[won], last[won] = new_sse, full
            active[won] = ~(((drop < SSE_RTOL * np.maximum(new_sse, 1e-300))
                             & (left <= ALPHA_ATOL)) | (step < STEP_ATOL))
            searching[idx] = False
            lam *= 0.5
        # no improving step: the direction only fails to descend at a
        # stationary point, so a stall counts as converged
        active[rows[searching]] = False
    return amplitude, alpha, sse, iterations, ~active, decay


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
              start: tuple[float, float] | None = None,
              ) -> list[_RowFit | DegenerateData | NonConvergence]:
    """Fit each row of ``values`` (rows x len(t)) on the points in
    ``fit_range``; per row, its fit or the error it fails with.

    Rows are grouped by their pattern of missing points in the range and
    each pattern is fitted as one block on its own points, so no row is
    ever padded. Every row starts from ``start`` (amplitude, alpha) when
    it is given, else from its own log-log regression. A row fails whose
    alpha column of the Jacobian, -A ln(t) t**-alpha, ends within the
    residuals' rounding, eps (|z| + |r|), of 0 at every t > 1: its SSE
    cannot see alpha, so any alpha would do.
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
        guesses = (_initial_guesses(tp, z) if start is None
                   else [np.full(rows.size, x) for x in start])
        amplitude, alpha, sse, iterations, converged, decay = \
            _gauss_newton_block(tp, z, *guesses)
        model, later = amplitude[:, None] * decay, tp > 1
        blind = abs(np.log(tp) * model) <= _EPS * (abs(z) + abs(z - model))
        blind = later.any() & blind[:, later].all(axis=1)
        for k, i in enumerate(rows):
            if not converged[k]:
                out[i] = NonConvergence(
                    f"no convergence in {MAX_ITERATIONS} iterations")
            elif blind[k]:
                out[i] = NonConvergence(
                    f"alpha {float(alpha[k])!r} leaves d/dalpha within "
                    "rounding of 0 for every t > 1")
            else:
                out[i] = _RowFit(tp, z[k], (lo, hi), float(amplitude[k]),
                                 float(alpha[k]), float(sse[k]),
                                 int(iterations[k]))
    return out


def bootstrap_alpha_stderr(trajectories: Sequence[EventTrajectory],
                           fit: PowerLawFit, *, n_resamples: int,
                           seed: int | np.random.SeedSequence) -> BootstrapResult:
    """Spread of the exponent under resampling events with replacement.

    ``fit`` is the fit of the trajectories' own average. Every resample
    redoes the averaging and the fit on ``fit.fit_range``, starting from
    ``fit``'s amplitude and alpha; resamples whose fit fails are dropped
    and counted. The resample index matrix is drawn up front from one
    seeded generator, so the result is reproducible and independent of
    evaluation order. All resamples are averaged in lockstep
    (:func:`resampled_means`) over the fit range's columns only, each
    bitwise equal to its own :func:`group_average` there, then fitted
    together as blocks, each row bitwise equal to a one-row
    :func:`_fit_rows` call from the same start; the spread is taken over
    the exponents in resample order. Identical trajectories give a
    spread of exactly 0. ``n_resamples`` and ``seed`` have no defaults
    here; a run takes them from its AnalysisConfig.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.record.sort_key())
    if len(trajs) < 2:
        raise EmptyGroup(f"{len(trajs)} trajectories, need at least 2")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    indices = np.random.default_rng(seed).integers(
        0, len(trajs), size=(n_resamples, len(trajs)))
    columns = _fit_columns(trajs[0].t, fit.fit_range)
    excess = resampled_means(trajs, indices, columns) - 1.0
    alphas = [row.alpha for row in _fit_rows(
        trajs[0].t[columns], excess, fit.fit_range, (fit.amplitude, fit.alpha))
        if isinstance(row, _RowFit)]
    mean = m2 = 0.0
    for count, alpha in enumerate(alphas, 1):
        delta = alpha - mean
        mean += delta / count
        m2 += delta * (alpha - mean)
    count = len(alphas)
    stderr = math.sqrt(m2 / (count - 1)) if count >= 2 else float("nan")
    return BootstrapResult(stderr, count, n_resamples - count)


@dataclass(frozen=True)
class GroupFitRow:
    """One exponent-table row; ``fit`` is None when fitting failed, and
    ``bootstrap`` None when the row was not bootstrapped."""

    measure: MeasureKind
    halt_type: HaltType
    sign: EventSign
    fit: PowerLawFit | None
    flag: str
    bootstrap: BootstrapResult | None = None

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)


def fit_all_groups(averages: Iterable[GroupAverage],
                   config: FitConfig = FitConfig(),
                   ) -> list[tuple[PowerLawFit | None, str]]:
    """Fit every group average and apply the quality gate; per average,
    in the order given, its fit (None when fitting failed) and its flag.

    A fit is flagged ok only when it converged with R-squared (over the
    positive excess values) at or above the gate; everything else,
    including series too degenerate to fit, is flagged no_power_law.
    Failures are encoded in the flag, never raised. Averages sharing one
    time axis are fitted together as blocks, each bitwise equal to a
    one-row :func:`_fit_rows` call; stderr and R-squared come per fitted row.
    """
    series = [make_excess(avg) for avg in averages]
    by_axis: dict[bytes, list[int]] = {}
    for i, s in enumerate(series):
        by_axis.setdefault(np.asarray(s.t, float).tobytes(), []).append(i)
    fits: list[PowerLawFit | None] = [None] * len(series)
    for members in by_axis.values():
        block = np.stack([series[i].mean for i in members])
        for i, fit in zip(members, _fit_rows(series[members[0]].t, block,
                                             config.fit_range)):
            if isinstance(fit, _RowFit):
                fits[i] = fit.complete()
    flags = [FLAG_OK if fit is not None and fit.r2_positive >= config.min_r2
             else FLAG_NO_POWER_LAW for fit in fits]
    return list(zip(fits, flags))


def attach_bootstrap(row: GroupFitRow, result: BootstrapResult) -> GroupFitRow:
    """Return the row with ``result``; a row without a fit, unchanged."""
    return row if row.fit is None else replace(row, bootstrap=result)
