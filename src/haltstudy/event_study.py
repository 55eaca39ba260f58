"""Event-time analysis around trading halts.

Event time counts traded minutes only: t = -1 is the last bar before
the halt, t = 0 the first bar after resumption, and neither the halted
span nor overnight gaps consume indices. Activity measures (absolute
return, volume, bid-ask spread) are deseasonalized by dividing each
value by a per-minute baseline averaged over the most recent active
days before the halt (windows default to :class:`EligibilityConfig`),
which removes the U-shaped intraday profile.
Cumulative log-return curves use a wider symmetric window and are pinned
to zero at t = 0.

All averaging uses running (Welford) accumulation in sorted event order,
so results are independent of input order and bitwise reproducible; it
also keeps the mean of N identical series exactly equal to that series.
Many averages are accumulated in lockstep: one update adds the next
member to every slot of a block, such as every event and measure of a
stock (one lookback day at a time) or every bootstrap resample (one
sample position at a time). Each slot still sees the same IEEE
operations in the same order as a lone average would, so lockstep and
one-at-a-time results are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyGroup,
    HaltStudyError,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    NoData,
    ZeroBaseline,
)
from .events import (
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    group_name,
)
from .market_data import MINUTES_PER_DAY, Panel

class MeasureKind(Enum):
    """Per-minute activity measures taken from the bar stream."""

    ABSOLUTE_RETURN = "absolute_return"
    VOLUME = "volume"
    BID_ASK_SPREAD = "bid_ask_spread"


class _Welford:
    """Per-slot running mean and spread that skip missing (NaN) entries.

    Slots form an array of any shape; every update is elementwise, so a
    slot's result does not depend on the other slots it shares a block
    with. Updates add zero increments for slots where the incoming value
    is missing or identical to the running mean, so averaging N copies
    of one series reproduces it bit for bit and its spread is exactly 0;
    the one exception is -0.0, which the running mean (starting at +0.0)
    returns as +0.0.
    """

    def __init__(self, shape: int | tuple[int, ...]):
        self.n = np.zeros(shape, dtype=np.int64)
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, values: np.ndarray) -> None:
        ok = ~np.isnan(values)
        self.n[ok] += 1
        delta = np.where(ok, values - self.mean, 0.0)
        self.mean += delta / np.maximum(self.n, 1)
        delta2 = np.where(ok, values - self.mean, 0.0)
        self.m2 += delta * delta2

    def counts(self) -> np.ndarray:
        return self.n.copy()

    def means(self) -> np.ndarray:
        return np.where(self.n > 0, self.mean, np.nan)

    def sample_stds(self) -> np.ndarray:
        out = np.full(self.n.shape, np.nan)
        two = self.n >= 2
        out[two] = np.sqrt(self.m2[two] / (self.n[two] - 1))
        return out

    def stderrs(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.sample_stds() / np.sqrt(self.n)


def _lockstep_welford(rows: np.ndarray, members: np.ndarray) -> _Welford:
    """Average ``rows`` (shape ``(..., N, W)``) over ``members`` in lockstep.

    ``members`` is a ``(B, K)`` matrix of row positions; slot block b
    averages rows ``members[b, 0], members[b, 1], ...`` in that order.
    Each update adds column k for every block at once, giving a
    ``(..., B, W)`` accumulator.
    """
    acc = _Welford(rows.shape[:-2] + (members.shape[0], rows.shape[-1]))
    for k in range(members.shape[1]):
        acc.add(rows[..., members[:, k], :])
    return acc


@dataclass(frozen=True)
class EventTrajectory:
    """Deseasonalized series z(t) for one event and measure.

    ``t`` runs -measure_pre_window..post_window; NaN marks minutes with
    no usable observation (filled bars, missing quotes, or an absent predecessor
    for returns).
    """

    event: HaltEvent
    measure: MeasureKind
    t: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class GroupAverage:
    """Equal-weight per-t average of one measure over one event group."""

    measure: MeasureKind
    halt_type: HaltType
    sign: EventSign
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n: np.ndarray

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)


@dataclass(frozen=True)
class CumulativeReturnCurve:
    """Averaged cumulative log-return path, shifted so the t = 0 value is 0."""

    halt_type: HaltType
    sign: EventSign
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n: int

    @property
    def group(self) -> str:
        return group_name(self.halt_type, self.sign)


def measure_series(panel: Panel, stock_id: str,
                   measure: MeasureKind) -> np.ndarray:
    """Measure values per global minute, NaN where nothing was observed.

    Only real (non-filled) bars carry values. Absolute returns also need
    a bar at the previous traded minute; spreads need both quotes.
    """
    real = panel.real_mask(stock_id)
    if measure is MeasureKind.ABSOLUTE_RETURN:
        lnp = panel.log_prices(stock_id)
        ok = real.copy()
        ok[0] = False
        ok[1:] &= panel.present_mask(stock_id)[:-1]
        out = np.full(lnp.size, np.nan)
        out[1:] = np.abs(np.diff(lnp))
        return np.where(ok, out, np.nan)
    if measure is MeasureKind.VOLUME:
        return np.where(real, panel.volumes(stock_id), np.nan)
    spread = panel.asks(stock_id) - panel.bids(stock_id)
    return np.where(real, spread, np.nan)


def _active_days(panel: Panel, stock_id: str) -> np.ndarray:
    # calendar days on which the stock has at least one real bar
    real = panel.real_mask(stock_id)
    return np.flatnonzero(
        real.reshape(panel.calendar.n_days, MINUTES_PER_DAY).any(axis=1))


def _lookback_days(panel: Panel, active: np.ndarray, rec: HaltRecord,
                   lookback: int) -> np.ndarray:
    # the ``lookback`` most recent active days before the halt day
    active = active[active < panel.calendar.day_index(rec.halt_day)]
    if active.size < lookback:
        raise InsufficientHistory(
            f"{rec.stock_id}: {active.size} active days before "
            f"{rec.halt_day}, need {lookback}")
    return active[-lookback:]


def _event_minutes(panel: Panel, rec: HaltRecord, pre_window: int,
                   post_window: int) -> np.ndarray:
    # global minutes of t = -pre_window..post_window, once the stock's
    # bars are known to cover them
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


def _deseasonalize_block(raw: np.ndarray,
                         base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # raw / base where raw was observed, NaN elsewhere; ``bad`` marks the
    # observed slots whose baseline is zero or undefined
    observed = ~np.isnan(raw)
    values = np.full(raw.shape, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        bad = observed & ~(base > 0)
        values[observed] = raw[observed] / base[observed]
    return values, bad


def extract_stock_trajectories(
        panel: Panel, events: Sequence[HaltEvent],
        measures: Sequence[MeasureKind] = tuple(MeasureKind),
        lookback: int = EligibilityConfig.lookback_days,
        pre_window: int = EligibilityConfig.measure_pre_window,
        post_window: int = EligibilityConfig.post_window,
) -> list[dict[MeasureKind, EventTrajectory]]:
    """Deseasonalized series over t = -pre_window..post_window, per event
    (aligned with ``events``) and measure: the one trajectory path, run
    once per analysis over every eligible event.

    A baseline is the per-intraday-minute mean over the ``lookback``
    most recent days before the halt day on which the stock traded
    (suspended days are skipped; too few raise InsufficientHistory).
    Each raw value is divided by its own minute's baseline; minutes
    without an observation stay NaN, an observed minute over a zero or
    undefined baseline raises ZeroBaseline, and bars that do not cover
    the window raise InsufficientHistory or InsufficientPostWindow.
    Per stock, the baselines of all its events and measures are
    averaged in lockstep, one lookback day at a time, each bitwise
    equal to a lone per-event average. Work runs in sorted (stock_id,
    halt begin) order, then measure order; the first failing (event,
    measure) in that order raises.
    """
    if lookback < 1:
        raise ValueError("lookback must be positive")
    if not measures:
        raise ValueError("need at least one measure")
    order = sorted(range(len(events)), key=lambda i: events[i].record.sort_key())
    out: list = [None] * len(events)
    for stock_id, run in groupby(order, key=lambda i: events[i].record.stock_id):
        idx = list(run)
        per_event = _stock_trajectories(panel, stock_id,
                                        [events[i] for i in idx], measures,
                                        lookback, pre_window, post_window)
        for i, trajectories in zip(idx, per_event):
            out[i] = trajectories
    return out


def _stock_trajectories(panel: Panel, stock_id: str,
                        events: Sequence[HaltEvent],
                        measures: Sequence[MeasureKind], lookback: int,
                        pre_window: int, post_window: int,
                        ) -> list[dict[MeasureKind, EventTrajectory]]:
    # ``events`` are one stock's, sorted. The first event failing its
    # window checks ends the batch; its error is raised only after the
    # events before it have passed their per-measure baseline checks.
    active = _active_days(panel, stock_id)
    days, minutes = [], []
    failure = None
    for ev in events:
        try:
            window = _lookback_days(panel, active, ev.record, lookback)
            gs = _event_minutes(panel, ev.record, pre_window, post_window)
        except HaltStudyError as exc:
            failure = exc
            break
        days.append(window)
        minutes.append(gs)
    out = []
    if days:
        series = np.stack([measure_series(panel, stock_id, m) for m in measures])
        by_day = series.reshape(len(measures), panel.calendar.n_days,
                                MINUTES_PER_DAY)
        pattern = _lockstep_welford(by_day, np.array(days)).means()
        gs = np.array(minutes)
        rows = np.arange(gs.shape[0])[:, None]
        values, bad = _deseasonalize_block(
            series[:, gs], pattern[:, rows, gs % MINUTES_PER_DAY])
        t = np.arange(-pre_window, post_window + 1)
        t.setflags(write=False)
        for e, ev in enumerate(events[:len(days)]):
            trajectories = {}
            for k, measure in enumerate(measures):
                if bad[k, e].any():
                    raise ZeroBaseline(
                        f"{ev.record.stock_id}: unusable baseline at event "
                        f"minute {int(t[bad[k, e]][0])}")
                trajectories[measure] = EventTrajectory(ev, measure, t,
                                                        values[k, e])
            out.append(trajectories)
    if failure is not None:
        raise failure
    return out


def _check_same_group(events: Sequence[HaltEvent]) -> tuple[HaltType, EventSign]:
    halt_type = events[0].halt_type
    sign = events[0].sign
    if sign is None:
        raise ValueError("event without a trend sign")
    for ev in events[1:]:
        if ev.halt_type is not halt_type or ev.sign is not sign:
            raise ValueError("events from different groups")
    return halt_type, sign


def _sorted_group(trajectories: Iterable[EventTrajectory],
                  ) -> tuple[list[EventTrajectory], HaltType, EventSign]:
    # event-key order, checked to share one group, measure and t axis
    trajs = sorted(trajectories, key=lambda tr: tr.event.record.sort_key())
    if not trajs:
        raise EmptyGroup("no trajectories to average")
    halt_type, sign = _check_same_group([tr.event for tr in trajs])
    head = trajs[0]
    for tr in trajs:
        if tr.measure is not head.measure:
            raise ValueError("trajectories mix measures")
        if not np.array_equal(tr.t, head.t):
            raise ValueError("trajectories use different event-time axes")
    return trajs, halt_type, sign


def group_average(trajectories: Iterable[EventTrajectory]) -> GroupAverage:
    """Equal-weight per-t mean with per-t standard error and count.

    Only non-missing values enter each t's average. Accumulation runs in
    ascending (stock_id, halt begin) order, so the result is identical
    however the trajectories were produced or ordered.
    """
    trajs, halt_type, sign = _sorted_group(trajectories)
    acc = _lockstep_welford(np.stack([tr.values for tr in trajs]),
                            np.arange(len(trajs))[None, :])
    head = trajs[0]
    return GroupAverage(head.measure, halt_type, sign, head.t.copy(),
                        acc.means()[0], acc.stderrs()[0], acc.counts()[0])


def resampled_means(trajectories: Sequence[EventTrajectory],
                    indices: np.ndarray) -> np.ndarray:
    """Per-t group means of many resamples at once, one row per resample.

    ``indices`` holds one row per resample of positions into the
    trajectories sorted by event key. Row r is bitwise equal to the mean
    of :func:`group_average` over ``[sorted[i] for i in indices[r]]``:
    each row is put into the order that function sorts its members in,
    and all rows are then accumulated together, one sample position at
    a time.
    """
    trajs, _, _ = _sorted_group(trajectories)
    first: dict = {}
    rank = np.array([first.setdefault(tr.event.record.sort_key(), i)
                     for i, tr in enumerate(trajs)])
    indices = np.asarray(indices)
    order = np.argsort(rank[indices], axis=1, kind="stable")
    members = np.take_along_axis(indices, order, axis=1)
    return _lockstep_welford(np.stack([tr.values for tr in trajs]),
                             members).means()


def average_cumulative_return(panel: Panel, events: Sequence[HaltEvent],
                              window: int = EligibilityConfig.pre_window,
                              ) -> CumulativeReturnCurve:
    """Average cumulative log-return path over t = -window..window.

    Each event contributes the running sum of its event-time returns;
    the return at t = 0 is the jump from the last pre-halt price to the
    first post-resumption price, however long the halt lasted. Events
    are averaged with equal weights and the curve is then shifted
    vertically so its t = 0 value is exactly zero.
    """
    ordered = sorted(events, key=lambda ev: ev.record.sort_key())
    if not ordered:
        raise EmptyGroup("no events to average")
    halt_type, sign = _check_same_group(ordered)
    cal = panel.calendar
    acc = _Welford(2 * window + 1)
    for ev in ordered:
        rec = ev.record
        g_pre = rec.global_pre(cal)
        g_resume = rec.global_resume(cal)
        if g_pre - window < 0:
            raise InsufficientWindow(
                f"{rec.stock_id}: return window starts before the calendar")
        try:
            first, last = panel.coverage(rec.stock_id)
        except NoData as exc:
            raise InsufficientWindow(str(exc)) from None
        if first > g_pre - window or last < g_resume + window:
            raise InsufficientWindow(
                f"{rec.stock_id}: bars do not cover both return windows")
        lnp = panel.log_prices(rec.stock_id)
        gs = np.concatenate([np.arange(g_pre - window, g_pre + 1),
                             np.arange(g_resume, g_resume + window + 1)])
        prices = lnp[gs]
        if np.isnan(prices).any():
            raise InsufficientWindow(
                f"{rec.stock_id}: missing bar inside the return window")
        acc.add(np.cumsum(np.diff(prices)))
    mean = acc.means()
    return CumulativeReturnCurve(halt_type, sign, np.arange(-window, window + 1),
                                 mean - mean[window], acc.stderrs(),
                                 len(ordered))


def stability_stat(curve: CumulativeReturnCurve) -> float:
    """Sample standard deviation of the averaged curve strictly after t = 0.

    The t = 0 point is excluded: the vertical shift pins it to zero, so
    it carries no variation. An exactly flat tail gives exactly 0.0.
    """
    t0 = int(np.flatnonzero(curve.t == 0)[0])
    tail = curve.mean[t0 + 1:]
    if tail.size < 2:
        raise ValueError("curve too short for a spread statistic")
    if np.all(tail == tail[0]):
        return 0.0
    return float(np.std(tail, ddof=1))


def reversal_stats(panel: Panel, events: Sequence[HaltEvent],
                   horizons: Sequence[int]) -> dict[int, float]:
    """Fraction of events whose early post-halt move opposed their trend.

    For horizon k the move is the log-price change from the last
    pre-halt bar to the k-th bar after resumption. Only a strictly
    opposite sign counts; an unchanged price does not.
    """
    ordered = sorted(events, key=lambda ev: ev.record.sort_key())
    if not ordered:
        raise EmptyGroup("no events")
    cal = panel.calendar
    out = {}
    for k in horizons:
        if k < 1:
            raise ValueError(f"horizon must be positive, got {k}")
        n_reversed = 0
        for ev in ordered:
            if ev.sign is None:
                raise ValueError("event without a trend sign")
            rec = ev.record
            lnp = panel.log_prices(rec.stock_id)
            g_pre = rec.global_pre(cal)
            g_post = rec.global_resume(cal) + k - 1
            if g_pre < 0 or np.isnan(lnp[g_pre]):
                raise InsufficientHistory(
                    f"{rec.stock_id}: no pre-halt bar")
            if g_post >= lnp.size or np.isnan(lnp[g_post]):
                raise InsufficientPostWindow(
                    f"{rec.stock_id}: no bar {k} minutes after resumption")
            move = lnp[g_post] - lnp[g_pre]
            if ev.sign is EventSign.NEGATIVE and move > 0:
                n_reversed += 1
            elif ev.sign is EventSign.POSITIVE and move < 0:
                n_reversed += 1
        out[k] = n_reversed / len(ordered)
    return out
