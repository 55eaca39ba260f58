"""Independent reference implementations the tests check results against.

These deliberately avoid the library's vectorized code paths: the curve
oracle is a literal per-event double loop over event-time returns, the
grid oracle is a brute-force scan of the (A, alpha) grid, the price
fill is a minute-by-minute carry of the last bar's price, the per-event
baseline and trajectory are what the per-stock lockstep stage must
reproduce bit for bit, the scalar fit is the one-series damped
Gauss-Newton loop that the library's block fitter must reproduce bit
for bit, and the masked Welford update is the running-mean-and-spread
step the library's buffered accumulator must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from haltstudy import powerlaw
from haltstudy.errors import DegenerateData, NonConvergence, ZeroBaseline
from haltstudy.event_study import (EventTrajectory, MeasureKind,
                                   _deseasonalize_block, _event_minutes,
                                   _lockstep_welford, _lookback_days,
                                   measure_series)
from haltstudy.events import _active_days
from haltstudy.market_data import MINUTES_PER_DAY
from haltstudy.powerlaw import (MIN_FIT_POINTS, SSE_RTOL, STEP_ATOL,
                                FitConfig, PowerLawFit, power_law_jacobian,
                                power_law_model)


def naive_cumulative_curve(panel, events, window: int = 160) -> list[float]:
    """Average cumulative log return, summed term by term per event.

    Event-time prices: index i <= -1 maps to the bar at halt_begin + i,
    index i >= 0 to the bar at resume + i. The return at event minute i
    is log p(i) - log p(i - 1), the cumulative value at t sums returns
    from -window through t, events are averaged with equal weights and
    the average is shifted so its t = 0 entry is zero.
    """
    cal = panel.calendar
    per_event = []
    for ev in events:
        rec = ev.record
        g_pre = rec.global_pre(cal)
        g_resume = rec.global_resume(cal)
        price = panel.prices(rec.stock_id)

        def log_price(i):
            g = g_pre + 1 + i if i < 0 else g_resume + i
            return math.log(float(price[g]))

        curve = []
        for t in range(-window, window + 1):
            total = 0.0
            for i in range(-window, t + 1):
                total += log_price(i) - log_price(i - 1)
            curve.append(total)
        per_event.append(curve)
    n = len(per_event)
    mean = [sum(c[k] for c in per_event) / n for k in range(2 * window + 1)]
    shift = mean[window]
    return [m - shift for m in mean]


def forward_filled_prices(panel, stock_id: str) -> np.ndarray:
    """Last prices carried forward minute by minute: every minute from
    the stock's first bar to its last holds the price of the last bar at
    or before it; the minutes outside that span are NaN."""
    price = panel.prices(stock_id)
    present = panel.present_mask(stock_id)
    out = np.full(price.size, np.nan)
    bars = np.flatnonzero(present)
    carried = np.nan
    for g in range(bars[0], bars[-1] + 1) if bars.size else ():
        if present[g]:
            carried = price[g]
        out[g] = carried
    return out


@dataclass(frozen=True)
class IntradayPattern:
    """Per-minute baseline I(1..240) for one stock, measure and event.

    ``values[m-1]`` is the mean of the measure at intraday minute m over
    the lookback days; minutes never observed are NaN and
    ``n_observations`` carries the per-minute averaging count.
    """

    measure: MeasureKind
    lookback_days: int
    values: np.ndarray
    n_observations: np.ndarray


def compute_intraday_pattern(panel, event, measure: MeasureKind,
                             lookback: int = 40) -> IntradayPattern:
    """Average the measure per intraday minute over one event's
    ``lookback`` most recent active days before its halt day."""
    if lookback < 1:
        raise ValueError("lookback must be positive")
    rec = event.record
    days = _lookback_days(panel, _active_days(panel, rec.stock_id), rec,
                          lookback)
    series = measure_series(panel, rec.stock_id, measure)
    acc = _lockstep_welford(
        series.reshape(panel.calendar.n_days, MINUTES_PER_DAY), days[None, :])
    return IntradayPattern(measure, lookback, acc.means()[0], acc.counts()[0])


def extract_trajectory(panel, event, measure: MeasureKind,
                       pattern: IntradayPattern, pre_window: int = 80,
                       post_window: int = 160) -> EventTrajectory:
    """One event's series over t = -pre_window..post_window, each raw
    value divided by ``pattern`` at its own intraday minute."""
    rec = event.record
    gs = _event_minutes(panel, rec, pre_window, post_window)
    series = measure_series(panel, rec.stock_id, measure)
    t = np.arange(-pre_window, post_window + 1)
    values, bad = _deseasonalize_block(series[gs],
                                       pattern.values[gs % MINUTES_PER_DAY])
    if bad.any():
        raise ZeroBaseline(f"{rec.stock_id}: unusable baseline at event "
                           f"minute {int(t[bad][0])}")
    return EventTrajectory(event, measure, t, values)


def masked_welford_add(acc, values) -> None:
    """One Welford update of ``acc`` (anything holding ``n``, ``mean`` and
    ``m2`` arrays, such as a ``_Welford``), counting the observed slots
    with a masked scatter and allocating fresh temporaries: the update
    the library's buffered accumulator must reproduce bit for bit."""
    ok = ~np.isnan(values)
    acc.n[ok] += 1
    delta = np.where(ok, values - acc.mean, 0.0)
    acc.mean += delta / np.maximum(acc.n, 1)
    delta2 = np.where(ok, values - acc.mean, 0.0)
    acc.m2 += delta * delta2


def grid_power_law(t, z, a_range, alpha_range,
                   step: float = 1e-3) -> tuple[float, float, float]:
    """Best (A, alpha) on a regular grid by exhaustive SSE comparison.

    For each alpha on the grid the SSE over the whole A grid comes from
    the expanded quadratic sum((z - A f)^2) = zz - 2 A zf + A^2 ff with
    f = t**(-alpha); that is the same number the literal double loop
    would produce, just grouped. The winning cell's SSE is recomputed
    term by term before returning, so the caller compares like with
    like.
    """
    t = np.asarray(t, float)
    z = np.asarray(z, float)
    a_grid = np.arange(a_range[0], a_range[1] + 0.5 * step, step)
    alpha_grid = np.arange(alpha_range[0], alpha_range[1] + 0.5 * step, step)
    zz = float(z @ z)
    best_sse = math.inf
    best_a = best_alpha = math.nan
    for alpha in alpha_grid:
        f = t ** (-alpha)
        sse = zz - 2.0 * a_grid * float(z @ f) + a_grid ** 2 * float(f @ f)
        k = int(np.argmin(sse))
        if sse[k] < best_sse:
            best_sse = float(sse[k])
            best_a = float(a_grid[k])
            best_alpha = float(alpha)
    resid = z - best_a * t ** (-best_alpha)
    return best_a, best_alpha, float(resid @ resid)


def _scalar_initial_guess(t, z):
    pos = z > 0
    if int(pos.sum()) >= 2 and np.unique(t[pos]).size >= 2:
        slope, intercept = np.polyfit(np.log(t[pos]), np.log(z[pos]), 1)
        amplitude = float(np.exp(intercept))
        alpha = float(-slope)
        if math.isfinite(amplitude) and amplitude > 0 and math.isfinite(alpha):
            return amplitude, alpha
    return float(z[pos].max()), 0.5


def _scalar_r2_positive(t, z, amplitude, alpha):
    pos = z > 0
    zp = z[pos]
    resid = zp - power_law_model(t[pos], amplitude, alpha)
    sse = float(resid @ resid)
    centered = zp - zp.mean()
    sst = float(centered @ centered)
    if sst == 0.0:
        return 1.0 if sse <= 1e-18 else 0.0
    return 1.0 - sse / sst


def scalar_power_law_fit(t, values, fit_range=FitConfig.fit_range):
    """One series, one Gauss-Newton step at a time, Python floats throughout.

    The fit the library ran before it fitted rows as blocks. It reads
    ``powerlaw.MAX_ITERATIONS`` at call time, so a test that lowers the
    cap lowers it here too.
    """
    lo, hi = FitConfig(fit_range).fit_range
    t = np.asarray(t, float)
    values = np.asarray(values, float)
    sel = (t >= lo) & (t <= hi) & ~np.isnan(values)
    t, z = t[sel], values[sel]
    if t.size < MIN_FIT_POINTS:
        raise DegenerateData(
            f"{t.size} usable points in [{lo}, {hi}], need {MIN_FIT_POINTS}")
    if not np.any(z > 0):
        raise DegenerateData("no positive values to anchor the decay")

    amplitude, alpha = _scalar_initial_guess(t, z)
    resid = z - power_law_model(t, amplitude, alpha)
    sse = float(resid @ resid)
    converged = False
    iterations = 0
    for iterations in range(1, powerlaw.MAX_ITERATIONS + 1):
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
            f"no convergence in {powerlaw.MAX_ITERATIONS} iterations")

    jac = power_law_jacobian(t, amplitude, alpha)
    dof = t.size - 2
    try:
        cov = np.linalg.inv(jac.T @ jac) * (sse / dof)
        alpha_stderr = float(np.sqrt(cov[1, 1]))
    except np.linalg.LinAlgError:
        alpha_stderr = float("nan")
    return PowerLawFit(amplitude, alpha, alpha_stderr, (lo, hi), sse,
                       _scalar_r2_positive(t, z, amplitude, alpha),
                       int(t.size), iterations)
