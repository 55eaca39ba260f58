"""Power-law relaxation fits on excess activity series.

After deseasonalization the post-halt decay of a group average is
modeled as A * t**(-alpha) on event minutes t >= 1. The fit minimizes
the linear-space sum of squared residuals (linear space keeps negative
noise excursions usable). The model is linear in A, so for each alpha
the best A >= 0 has a closed form and the fit is a search over alpha
alone, of the profile S(alpha) (variable projection, Golub & Pereyra
1973): a fixed alpha grid brackets the minimum and safeguarded Newton
steps refine it, with no starting point to choose. Uncertainty comes
two ways: the asymptotic covariance of the least-squares problem and a
seeded bootstrap over events.

Every fit runs through one block fitter: a (rows x points) matrix on
one shared t. The bootstrap hands it all resamples of a cell and
:func:`fit_all_groups` all averages on one time axis. Each row ends bit
for bit where a one-row call ends, because each row sees the same
floating-point operations:

* every dot product is a stacked (1 x n) @ (n x k) matrix product,
  which makes the same BLAS call per row as the row alone (einsum,
  sum() or one GEMM over all rows round differently);
* t**-alpha is exp(-alpha ln t), which rounds every element alike in
  any block, where np.power's rounding follows the block's shape; exp
  runs on a contiguous array, and d, ln(t) d and ln(t)^2 d are then
  written side by side into one preallocated (rows x n x 3) array, each
  by one elementwise multiply, which rounds alike in any layout;
* each row keeps its own bracket and steps, and leaves the block when
  its step is below ``NEWTON_ATOL``;
* rows are grouped by their pattern of missing points and each pattern
  is fitted on its own points, never padded.

The fitter returns its rows as arrays (:func:`_fit_block`), which the
bootstrap reads directly; :func:`_fit_rows` wraps each row for the
group fits, which go on to its standard error and R-squared.
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
from .events import EventSign, HaltType, group_name

MIN_FIT_POINTS = 8
MAX_ITERATIONS = 200
# the alphas whose best point brackets each fit's minimum: -5 to 20 in
# steps of 1/4, all exact in binary (README gives the reasons)
ALPHA_STEP = 0.25
ALPHA_GRID = np.arange(-20, 81) * ALPHA_STEP
NEWTON_ATOL = 1e-9
_EPS = np.finfo(float).eps

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
class PowerLawFit:
    """Result of one least-squares fit of A * t**(-alpha); ``n_iterations``
    counts its Newton steps."""

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


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x . y per row of x (rows x n), y one (n x k) matrix or a stack of
    # them, as stacked (1 x n) @ (n x k) products: each row makes the
    # same BLAS call as that row alone, where einsum, sum() or one GEMM
    # over all rows round otherwise
    return (x[:, None, :] @ y)[:, 0]


def _decay(log_t: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    # t**-alpha for every alpha (rows) and t (columns), as exp of a
    # product: np.power picks its loop, and so its last bit, by the
    # block's shape; exp of a contiguous array rounds alike everywhere
    return np.exp(-alpha[:, None] * log_t)


def _profile(log_t: np.ndarray, z: np.ndarray,
             alpha: np.ndarray) -> tuple[np.ndarray, ...]:
    """At each row's ``alpha``: the decay d = t**-alpha, the best
    amplitude A = max(0, d.z / d.d), and half the first and second
    derivatives of the profile S(alpha) = |z - A d|^2 (with q = d.d):

        S'/2  = A (Ld.z - A Ld.d)
        S''/2 = A (2 A LLd.d - LLd.z) - (Ld.z - 2 A Ld.d)^2 / q

    where L = ln t and LLd = L^2 d. Where A is 0, S is flat at z.z.
    """
    decay = _decay(log_t, alpha)
    # d, L d and L^2 d side by side, written in place: each is the same
    # multiply in any layout, and exp ran on the contiguous ``decay``
    weighted = np.empty(decay.shape + (3,))
    np.copyto(weighted[..., 0], decay)
    np.multiply(log_t, decay, out=weighted[..., 1])
    np.multiply(log_t * log_t, decay, out=weighted[..., 2])
    (p, p1, p2), (q, q1, q2) = (_row_dots(z, weighted).T,
                                _row_dots(decay, weighted).T)
    a = np.maximum(p / q, 0.0)
    slope = a * (p1 - a * q1)
    curve = a * (2.0 * a * q2 - p2) - (p1 - 2.0 * a * q1) ** 2 / q
    return decay, a, slope, curve


def _profile_block(t: np.ndarray, z: np.ndarray) -> tuple:
    """Fit every row of ``z`` (rows x len(t)) at once by its profile
    S(alpha), the SSE at the best amplitude for that alpha.

    The best point of ``ALPHA_GRID`` brackets each row's minimum between
    its two neighbours. Newton steps on S then refine it inside the
    bracket, which every step narrows by the sign of S'; a step that
    leaves the bracket, or is taken where S'' <= 0, bisects it instead.
    A row fails where no grid alpha gives d.z > 0 (every amplitude is
    then 0), where its best grid point is an end of the grid (S still
    falls past it: the runaway case), where it takes ``MAX_ITERATIONS``
    steps, or where its alpha column of the Jacobian, -A ln(t)
    t**-alpha, ends within the residuals' rounding, eps (|z| + |r|), of
    0 at every t > 1: its SSE cannot see alpha, so any alpha would do.
    Returns per row: amplitude, alpha, SSE and Newton step count, and
    the errors of the rows that fail, by row position.
    """
    log_t = np.log(t)
    grid = _decay(log_t, ALPHA_GRID)
    pz = _row_dots(z, grid.T)
    gain = np.where(pz > 0, pz * pz / (grid * grid).sum(axis=1), 0.0)
    best = gain.argmax(axis=1)
    alpha = ALPHA_GRID[best]
    lo, hi = alpha - ALPHA_STEP, alpha + ALPHA_STEP
    positive = gain.max(axis=1) > 0
    inside = (best > 0) & (best < ALPHA_GRID.size - 1)
    iterations = np.zeros(len(z), dtype=int)
    active = positive & inside
    for iteration in range(1, MAX_ITERATIONS + 1):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        iterations[rows] = iteration
        x = alpha[rows]
        _, a, slope, curve = _profile(log_t, z[rows], x)
        # where A is 0, x lies past the edge of its grid point's A > 0
        # region: point the search back towards that grid point
        slope = np.where(a > 0, slope, x - ALPHA_GRID[best[rows]])
        lo[rows] = np.where(slope < 0, x, lo[rows])
        hi[rows] = np.where(slope > 0, x, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - slope / curve
        newton = (curve > 0) & (lo[rows] <= step) & (step <= hi[rows])
        alpha[rows] = np.where(newton, step, 0.5 * (lo[rows] + hi[rows]))
        active[rows] = abs(alpha[rows] - x) > NEWTON_ATOL
    decay, amplitude, _, _ = _profile(log_t, z, alpha)
    model = amplitude[:, None] * decay
    resid = z - model
    sse = _row_dots(resid, resid[:, :, None])[:, 0]
    later = t > 1
    blind = abs(log_t * model) <= _EPS * (abs(z) + abs(resid))
    blind = later.any() & blind[:, later].all(axis=1)
    errors = {}
    for k in np.flatnonzero(~positive | ~inside | active | blind).tolist():
        if not positive[k]:
            errors[k] = DegenerateData(
                "no alpha gives the decay a positive amplitude")
        elif not inside[k]:
            errors[k] = NonConvergence(
                f"the SSE still falls at alpha {float(alpha[k])!r}, the end "
                "of the alpha grid")
        elif active[k]:
            errors[k] = NonConvergence(
                f"no convergence in {MAX_ITERATIONS} iterations")
        else:
            errors[k] = NonConvergence(
                f"alpha {float(alpha[k])!r} leaves d/dalpha within rounding "
                "of 0 for every t > 1")
    return amplitude, alpha, sse, iterations, errors


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


def _fit_points(t: np.ndarray, values: np.ndarray,
                fit_range: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # t and every row of ``values`` at the points in ``fit_range``
    columns = _fit_columns(t, fit_range)
    return (np.asarray(t, float)[columns],
            np.asarray(values, float)[:, columns])


def _fit_block(t: np.ndarray, values: np.ndarray, fit_range: tuple[int, int],
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                          dict[int, DegenerateData | NonConvergence]]:
    """Fit each row of ``values`` (rows x len(t)) on the points in
    ``fit_range``: per row, its amplitude, alpha, SSE and Newton step
    count, and the errors of the rows that fail, by row position (the
    row's other entries are then not a fit).

    Rows are grouped by their pattern of missing points in the range and
    each pattern is fitted as one block (:func:`_profile_block`) on its
    own points, so no row is ever padded; without a missing point every
    row is one block.
    """
    lo, hi = fit_range
    t, values = _fit_points(t, values, fit_range)
    missing = np.isnan(values)
    patterns: dict[bytes, list[int]] = {}
    if missing.any():
        for i, row in enumerate(missing):
            patterns.setdefault(row.tobytes(), []).append(i)
    elif len(values):
        patterns[b""] = list(range(len(values)))
    amplitude, alpha, sse = np.full((3, len(values)), np.nan)
    iterations = np.zeros(len(values), dtype=int)
    errors: dict = {}
    for members in patterns.values():
        keep = ~missing[members[0]]
        tp = t[keep]
        if tp.size < MIN_FIT_POINTS:
            errors.update((i, DegenerateData(
                f"{tp.size} usable points in [{lo}, {hi}], need "
                f"{MIN_FIT_POINTS}")) for i in members)
            continue
        (amplitude[members], alpha[members], sse[members],
         iterations[members], failed) = _profile_block(
            tp, np.ascontiguousarray(values[members][:, keep]))
        errors.update((members[k], exc) for k, exc in failed.items())
    return amplitude, alpha, sse, iterations, errors


def _fit_rows(t: np.ndarray, values: np.ndarray, fit_range: tuple[int, int],
              ) -> list[_RowFit | DegenerateData | NonConvergence]:
    """:func:`_fit_block` per row: its fit, with the points it used, or
    the error it fails with."""
    amplitude, alpha, sse, iterations, errors = _fit_block(t, values,
                                                           fit_range)
    t, values = _fit_points(t, values, fit_range)
    out: list = []
    for k, row in enumerate(values):
        if k in errors:
            out.append(errors[k])
            continue
        keep = ~np.isnan(row)
        out.append(_RowFit(t[keep], row[keep], tuple(fit_range),
                           float(amplitude[k]), float(alpha[k]),
                           float(sse[k]), int(iterations[k])))
    return out


def bootstrap_alpha_stderr(trajectories: Sequence[EventTrajectory],
                           fit: PowerLawFit, *, n_resamples: int,
                           seed: int | np.random.SeedSequence) -> BootstrapResult:
    """Spread of the exponent under resampling events with replacement.

    ``fit`` is the fit of the trajectories' own average. Every resample
    redoes the averaging and the fit on ``fit.fit_range``; resamples
    whose fit fails are dropped and counted. The resample index matrix
    is drawn up front from one seeded generator, so the result is
    reproducible and independent of evaluation order. All resamples are
    averaged in lockstep (:func:`resampled_means`) over the fit range's
    columns only, each bitwise equal to its own :func:`group_average`
    there, then fitted together as blocks, each row bitwise equal to a
    one-row :func:`_fit_rows` call; the spread is taken over the
    exponents in resample order. Identical trajectories give a
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
    _, alpha, _, _, errors = _fit_block(trajs[0].t[columns], excess,
                                        fit.fit_range)
    alphas = np.delete(alpha, list(errors)).tolist()
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
