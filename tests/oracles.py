"""Independent reference implementations the tests check results against.

These deliberately avoid the library's vectorized code paths: the curve
oracle is a literal per-event double loop over event-time returns, the
grid oracle is a brute-force scan of the (A, alpha) grid, the price
fill is a minute-by-minute carry of the last bar's price, the per-event
baseline and trajectory are what the per-stock lockstep stage must
reproduce bit for bit, the window checks of eligibility, the lookback
days, the trend sign, the event minutes, the return windows and the
reversal horizons are written out site by site, each with its own
arithmetic, as the rule that the library's one coverage decision must
reproduce, the eligibility of a whole record set is decided one record
at a time, with a scan of every pair for successive halts and its own
duration classes and gap fractions, as the verdicts the library's one
array pass must reproduce, the per-group average is what every group
of the shared, padded group-average pass must reproduce bit for bit, the scalar fit is
an independent one-series damped Gauss-Newton loop from a log-log
start, whose SSE the library's profile fitter must match or beat, and
the masked Welford update is the running-mean-and-spread step the
library's buffered accumulator must reproduce bit for bit, and the
``csv.writer`` writers of every CSV file
are the bytes that the library's one line writer must reproduce.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import IO, Iterable, Sequence

import numpy as np

from haltstudy.errors import (DegenerateData, InsufficientHistory,
                              InsufficientPostWindow, InsufficientWindow,
                              NoData, NonConvergence, ZeroBaseline)
from haltstudy.event_study import (EventTrajectory, GroupAverage,
                                   MeasureKind, _deseasonalize_block,
                                   _lockstep_welford, _sorted_group,
                                   measure_series)
from haltstudy.events import (HALT_CSV_HEADER, REPORT_CSV_HEADER, CountTable,
                              EventSign, HaltEvent, HaltRecord, HaltType,
                              RejectionReason, _active_days)
from haltstudy.market_data import BAR_CSV_HEADER, MINUTES_PER_DAY, Panel
from haltstudy.pipeline import EXPONENT_CSV_HEADER, AnalysisResult
from haltstudy.powerlaw import (MIN_FIT_POINTS, FitConfig, GroupFitRow,
                                PowerLawFit, power_law_jacobian,
                                power_law_model)


def naive_cumulative_curve(panel, records, window: int = 160) -> list[float]:
    """Average cumulative log return, summed term by term per halt record.

    Event-time prices: index i <= -1 maps to the bar at halt_begin + i,
    index i >= 0 to the bar at resume + i. The return at event minute i
    is log p(i) - log p(i - 1), the cumulative value at t sums returns
    from -window through t, events are averaged with equal weights and
    the average is shifted so its t = 0 entry is zero.
    """
    cal = panel.calendar
    per_event = []
    for rec in records:
        g_pre = rec.global_begin(cal) - 1
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
    present = panel.present_mask(stock_id)
    bars = np.flatnonzero(present)
    # Python floats and bools, which a per-minute loop reads faster than
    # numpy scalars
    price, present = panel.prices(stock_id).tolist(), present.tolist()
    out = [math.nan] * len(price)
    carried = math.nan
    for g in range(bars[0], bars[-1] + 1) if bars.size else ():
        if present[g]:
            carried = price[g]
        out[g] = carried
    return np.array(out)


def trend_sign(panel, record, trend_window: int = 240) -> EventSign:
    """The sign of the log-price change over the trend window, whose
    ends are checked by looking for NaN in the log of
    :func:`forward_filled_prices`."""
    if trend_window < 1:
        raise ValueError("trend_window must be positive")
    g_pre = record.global_begin(panel.calendar) - 1
    g_from = g_pre - trend_window
    if g_from < 0:
        raise InsufficientHistory(
            f"{record.stock_id}: trend window starts before the calendar")
    if record.stock_id not in panel:
        raise InsufficientHistory(f"no bars for stock {record.stock_id}")
    lnp = np.log(forward_filled_prices(panel, record.stock_id))
    trend = lnp[g_pre] - lnp[g_from]
    if np.isnan(trend):
        raise InsufficientHistory(
            f"{record.stock_id}: trend-window endpoint outside its bars")
    return EventSign.POSITIVE if trend > 0 else EventSign.NEGATIVE


def _has_coverage(panel, record, config) -> bool:
    if record.stock_id not in panel:
        return False
    g_pre = record.global_begin(panel.calendar) - 1
    if g_pre - config.history_minutes < 0:
        return False
    try:
        first, last = panel.coverage(record.stock_id)
    except NoData:
        return False
    return first <= g_pre - config.history_minutes and g_pre <= last


def worst_gap_fraction(real, calendar, record, config) -> float:
    """The largest share of minutes without a bar in the trend, pre,
    measure-pre and post windows, each sliced out of the stock's mask."""
    g_pre = record.global_begin(calendar) - 1
    g_resume = record.global_resume(calendar)
    windows = (
        (g_pre - config.trend_window, g_pre),
        (g_pre - config.pre_window, g_pre),
        (g_pre - config.measure_pre_window, g_pre),
        (g_resume, g_resume + config.post_window),
    )
    worst = 0.0
    for lo, hi in windows:
        chunk = real[lo:hi + 1]
        worst = max(worst, 1.0 - chunk.sum() / chunk.size)
    return worst


def eligibility(panel, record, config):
    """(rejection reason, sign) of a record with no other halt of its
    stock, the checks in the order ``filter_eligibility`` documents;
    history is covered when the bars span ``history_minutes`` before the
    last pre-halt minute through that minute, and only then is the
    sign classified."""
    cal = panel.calendar
    covered = _has_coverage(panel, record, config)
    sign = trend_sign(panel, record, config.trend_window) if covered else None
    if record.is_st_stock:
        return RejectionReason.ST_STOCK, sign
    if cal.day_index(record.resume_day) - cal.day_index(record.halt_day) \
            > config.max_halt_days:
        return RejectionReason.TOO_LONG, sign
    if record.stock_id not in panel:
        return RejectionReason.INSUFFICIENT_HISTORY, sign
    real = panel.present_mask(record.stock_id)
    if real[record.global_begin(cal):record.global_resume(cal)].any():
        return RejectionReason.BARS_IN_HALT, sign
    active = _active_days(panel, record.stock_id)
    if (not covered or np.searchsorted(active, cal.day_index(record.halt_day))
            < config.lookback_days):
        return RejectionReason.INSUFFICIENT_HISTORY, sign
    last = panel.coverage(record.stock_id)[1]
    if last < record.global_resume(cal) + config.post_window:
        return RejectionReason.INSUFFICIENT_POST_WINDOW, sign
    if worst_gap_fraction(real, cal, record, config) > config.max_gap_fraction:
        return RejectionReason.DATA_GAP, sign
    return None, sign


def halt_type(record, calendar) -> HaltType:
    """Duration class from a day-by-day count of the trading days whose
    every minute lies inside the halt."""
    g_begin = record.global_begin(calendar)
    g_resume = record.global_resume(calendar)
    full = sum(1 for d in range(calendar.n_days)
               if g_begin <= d * MINUTES_PER_DAY
               and (d + 1) * MINUTES_PER_DAY <= g_resume)
    return (HaltType.INTRADAY, HaltType.ONE_DAY)[full] if full < 2 \
        else HaltType.INTER_DAY


def eligibility_events(records, panel, config) -> list[HaltEvent]:
    """Every record classified and filtered one at a time, sorted by
    (stock_id, halt begin): a pair of halts of one stock is successive
    when either begins inside the other's event window, found by
    comparing every pair, and any other record gets the verdict of
    :func:`eligibility`."""
    cal = panel.calendar
    ordered = sorted(records, key=HaltRecord.sort_key)
    successive = [False] * len(ordered)
    for i, rec in enumerate(ordered):
        lo = rec.global_begin(cal) - config.pre_window
        hi = rec.global_resume(cal) + config.post_window
        for j, other in enumerate(ordered):
            if (j != i and other.stock_id == rec.stock_id
                    and lo <= other.global_begin(cal) <= hi):
                successive[i] = successive[j] = True
    events = []
    for rec, crowded in zip(ordered, successive):
        reason, sign = eligibility(panel, rec, config)
        if crowded:
            reason = RejectionReason.SUCCESSIVE
        events.append(HaltEvent(rec, halt_type(rec, cal), sign, reason))
    return events


def lookback_days(panel, rec, lookback: int) -> np.ndarray:
    """The ``lookback`` most recent days before the halt day on which
    the stock has a bar."""
    active = _active_days(panel, rec.stock_id)
    day = panel.calendar.day_index(rec.halt_day)
    prior = int(np.searchsorted(active, day))
    if prior < lookback:
        raise InsufficientHistory(
            f"{rec.stock_id}: {prior} active days before "
            f"{rec.halt_day}, need {lookback}")
    return active[prior - lookback:prior]


def event_minutes(panel, rec, pre_window: int, post_window: int) -> np.ndarray:
    """Global minutes of t = -pre_window..post_window, once the stock's
    bars are known to cover them."""
    cal = panel.calendar
    g_begin = rec.global_begin(cal)
    g_resume = rec.global_resume(cal)
    if g_begin - pre_window < 0:
        raise InsufficientHistory(
            f"{rec.stock_id}: pre window starts before the calendar")
    try:
        first, last = panel.coverage(rec.stock_id)
    except NoData as exc:
        raise InsufficientHistory(str(exc)) from None
    if first > g_begin - pre_window:
        raise InsufficientHistory(
            f"{rec.stock_id}: bars start inside the pre window")
    if last < g_resume + post_window:
        raise InsufficientPostWindow(
            f"{rec.stock_id}: bars end {g_resume + post_window - last} "
            "minutes short of the post window")
    return np.concatenate([np.arange(g_begin - pre_window, g_begin),
                           np.arange(g_resume, g_resume + post_window + 1)])


def check_return_windows(panel, rec, window: int) -> None:
    """Raise when the stock's bars do not cover ``window`` minutes up to
    the last pre-halt minute and ``window`` minutes after resumption."""
    cal = panel.calendar
    g_pre = rec.global_begin(cal) - 1
    if g_pre - window < 0:
        raise InsufficientWindow(
            f"{rec.stock_id}: return window starts before the calendar")
    try:
        first, last = panel.coverage(rec.stock_id)
    except NoData as exc:
        raise InsufficientWindow(str(exc)) from None
    if first > g_pre - window or last < rec.global_resume(cal) + window:
        raise InsufficientWindow(
            f"{rec.stock_id}: bars do not cover both return windows")


def reversal_move(panel, rec, k: int) -> float:
    """Log-price change from the last pre-halt minute to the k-th minute
    after resumption, in the log of :func:`forward_filled_prices`, each
    end checked by looking for NaN."""
    cal = panel.calendar
    lnp = np.log(forward_filled_prices(panel, rec.stock_id))
    g_pre = rec.global_begin(cal) - 1
    g_post = rec.global_resume(cal) + k - 1
    if g_pre < 0 or np.isnan(lnp[g_pre]):
        raise InsufficientHistory(f"{rec.stock_id}: no pre-halt bar")
    if g_post >= lnp.size or np.isnan(lnp[g_post]):
        raise InsufficientPostWindow(
            f"{rec.stock_id}: no bar {k} minutes after resumption")
    return lnp[g_post] - lnp[g_pre]


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


def compute_intraday_pattern(panel, rec, measure: MeasureKind,
                             lookback: int = 40) -> IntradayPattern:
    """Average the measure per intraday minute over one halt record's
    ``lookback`` most recent active days before its halt day."""
    if lookback < 1:
        raise ValueError("lookback must be positive")
    days = lookback_days(panel, rec, lookback)
    series = measure_series(panel, rec.stock_id, measure)
    acc = _lockstep_welford(
        series.reshape(panel.calendar.n_days, MINUTES_PER_DAY), days[None, :])
    return IntradayPattern(measure, lookback, acc.means()[0], acc.counts()[0])


def extract_trajectory(panel, rec, measure: MeasureKind,
                       pattern: IntradayPattern, pre_window: int = 80,
                       post_window: int = 160) -> EventTrajectory:
    """One halt record's series over t = -pre_window..post_window, each
    raw value divided by ``pattern`` at its own intraday minute."""
    gs = event_minutes(panel, rec, pre_window, post_window)
    series = measure_series(panel, rec.stock_id, measure)
    t = np.arange(-pre_window, post_window + 1)
    values, bad = _deseasonalize_block(series[gs],
                                       pattern.values[gs % MINUTES_PER_DAY])
    if bad.any():
        raise ZeroBaseline(f"{rec.stock_id}: unusable baseline at event "
                           f"minute {int(t[bad][0])}")
    return EventTrajectory(rec, measure, t, values)


def group_average(trajectories) -> GroupAverage:
    """One group averaged alone: sorted and checked, then one lockstep
    pass over its own members and no padding row."""
    trajs = _sorted_group(trajectories)
    acc = _lockstep_welford(np.stack([tr.values for tr in trajs]),
                            np.arange(len(trajs))[None, :])
    head = trajs[0]
    return GroupAverage(head.measure, head.t.copy(), acc.means()[0],
                        acc.stderrs()[0], acc.counts()[0])


def masked_welford_add(acc, values) -> None:
    """One Welford update of ``acc`` (anything holding writable ``n``,
    ``mean`` and ``m2`` arrays and a ``steps`` count, see
    :func:`new_masked_welford`), counting the observed slots with a
    masked scatter and allocating fresh temporaries: the update the
    library's buffered accumulator must reproduce bit for bit. The first
    update copies its observed values; a later one moves each observed
    slot's mean by (mean - value) / n, from -0.0 in a slot not yet
    observed, and adds (mean - value) (new mean - value) to its m2."""
    ok = ~np.isnan(values)
    acc.n[ok] += 1
    acc.steps += 1
    if acc.steps == 1:
        acc.mean[ok] = values[ok]
        return
    delta = np.where(ok, acc.mean - values, 0.0)
    acc.mean -= delta / np.maximum(acc.n, 1)
    delta2 = np.where(ok, acc.mean - values, 0.0)
    acc.m2 += delta * delta2


def new_masked_welford(shape) -> SimpleNamespace:
    """Zero counts and spreads, means of -0.0 and no step taken yet: the
    state :func:`masked_welford_add` starts from."""
    return SimpleNamespace(n=np.zeros(shape), mean=np.full(shape, -0.0),
                           m2=np.zeros(shape), steps=0)


def masked_welford(shape, blocks: Iterable[np.ndarray]) -> SimpleNamespace:
    """Counts, means, ``m2`` and standard errors after adding every block
    of ``shape`` in turn by :func:`masked_welford_add` to
    :func:`new_masked_welford`; a slot observed less than twice has a
    NaN standard error, one never observed a NaN mean."""
    acc = new_masked_welford(shape)
    for block in blocks:
        masked_welford_add(acc, block)
    n = acc.n
    with np.errstate(invalid="ignore", divide="ignore"):
        stds = np.where(n >= 2, np.sqrt(acc.m2 / (n - 1)), np.nan)
        stderrs = stds / np.sqrt(n)
    return SimpleNamespace(counts=n.astype(np.int64),
                           means=np.where(n > 0, acc.mean, np.nan),
                           m2=acc.m2, stderrs=stderrs)


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


# the scalar fit's stopping rule: an SSE drop below SSE_RTOL once alpha
# is resolved to about ALPHA_ATOL, or a step below STEP_ATOL
MAX_ITERATIONS = 200
SSE_RTOL = 1e-10
STEP_ATOL = 1e-8
ALPHA_ATOL = 1e-7


def scalar_power_law_fit(t, values, fit_range=FitConfig.fit_range):
    """One series, one Gauss-Newton step at a time, Python floats throughout.

    The fit the library ran before it fitted the profile in alpha: a
    damped Gauss-Newton iteration in (A, alpha) from the log-log
    regression of the positive values.
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
    last = math.inf
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
        full = abs(float(delta[1]))
        left = lam * full * full / (last - full) if full < last else math.inf
        amplitude, alpha = float(trial_a), float(trial_alpha)
        resid, sse, last = trial_resid, trial_sse, full
        if ((drop < SSE_RTOL * max(sse, 1e-300) and left <= ALPHA_ATOL)
                or step < STEP_ATOL):
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"no convergence in {MAX_ITERATIONS} iterations")
    later = t > 1
    model = power_law_model(t, amplitude, alpha)
    blind = (np.abs(np.log(t) * model)
             <= np.finfo(float).eps * (np.abs(z) + np.abs(z - model)))
    if later.any() and blind[later].all():
        raise NonConvergence(
            f"alpha {float(alpha)!r} leaves d/dalpha within rounding of 0 for "
            "every t > 1")

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


# ------------------------------------------------- csv.writer text writers
# The writers of every CSV file before the package wrote its lines itself,
# copied literally: the bytes that its one line writer must reproduce,
# except for a stock id that holds a "\r", which these leave unquoted.


def _float_texts(values) -> list[str]:
    """The one float format of every written file: ``repr``, which reads
    back to the same bits, or an empty field for NaN (and for None)."""
    return ["" if math.isnan(v) else repr(v)
            for v in np.asarray(values, float).tolist()]


def write_bar_csv(panel: Panel, stream: IO[str]) -> None:
    """Write the bars back out in canonical order.

    Floats are written with repr so parse -> write -> parse is lossless.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BAR_CSV_HEADER)
    days = [day.isoformat() for day in panel.calendar.trading_days]
    for stock_id in panel.stock_ids:
        g = np.flatnonzero(panel.present_mask(stock_id))
        day_idx, offset = np.divmod(g, MINUTES_PER_DAY)
        writer.writerows(zip(
            repeat(stock_id), map(days.__getitem__, day_idx.tolist()),
            (offset + 1).tolist(),
            _float_texts(panel.prices(stock_id)[g]),
            _float_texts(panel.volumes(stock_id)[g]),
            _float_texts(panel.bids(stock_id)[g]),
            _float_texts(panel.asks(stock_id)[g])))


def write_count_csv(table: CountTable, stream: IO[str]) -> None:
    """Write the count table with row, column and grand totals."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("halt_type", "positive", "negative", "total"))
    for ht in HaltType:
        writer.writerow((ht.value,
                         table.count(ht, EventSign.POSITIVE),
                         table.count(ht, EventSign.NEGATIVE),
                         table.row_total(ht)))
    writer.writerow(("total",
                     table.sign_total(EventSign.POSITIVE),
                     table.sign_total(EventSign.NEGATIVE),
                     table.total))


def write_halt_csv(records: Iterable[HaltRecord], stream: IO[str]) -> None:
    """Write a halt registry in canonical (stock_id, begin) order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HALT_CSV_HEADER)
    for rec in sorted(records, key=HaltRecord.sort_key):
        writer.writerow((rec.stock_id, rec.halt_day.isoformat(), rec.halt_minute,
                         rec.resume_day.isoformat(), rec.resume_minute,
                         int(rec.is_st_stock)))


def write_eligibility_report(events: Iterable[HaltEvent], stream: IO[str]) -> None:
    """Write one row per event with its classification and verdict."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    for ev in events:
        rec = ev.record
        writer.writerow((rec.stock_id, rec.halt_day.isoformat(), rec.halt_minute,
                         rec.resume_day.isoformat(), rec.resume_minute,
                         ev.halt_type.value,
                         "" if ev.sign is None else ev.sign.value,
                         int(ev.eligible),
                         "" if ev.rejection_reason is None
                         else ev.rejection_reason.value))


def _csv_writer(stream: IO[str], header: Sequence[str]):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    return writer


def _series_text(group: str, label: str, t: np.ndarray,
                 *columns: Iterable) -> str:
    # the rows of one event-time series, by column, a row per t
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        zip(repeat(group), repeat(label), t.tolist(), *columns))
    return buf.getvalue()


def write_exponent_csv(rows: Iterable[GroupFitRow], stream: IO[str]) -> None:
    """Exponent table, one row per (measure, halt type, sign)."""
    writer = _csv_writer(stream, EXPONENT_CSV_HEADER)
    for row in rows:
        fit, boot = row.fit, row.bootstrap
        values = ([""] * 6 if fit is None else _float_texts(
            [fit.amplitude, fit.alpha, fit.alpha_stderr,
             boot.stderr if boot else None, fit.sse, fit.r2_positive]))
        # a fit exists only once converged
        writer.writerow((row.measure.value, row.halt_type.value,
                         row.sign.value, *values, int(fit is not None),
                         row.flag))


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
