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
chunk of stocks (one lookback day at a time) or every bootstrap
resample (one sample position at a time). Each slot still sees the same
IEEE operations in the same order as a lone average would, so lockstep
and one-at-a-time results are bitwise equal. One accumulator serves
every pass: its buffers are allocated once per pass and each update is
written into them in place. A chunk gathers consecutive stocks' used
lookback days into one buffer capped in bytes, so one-event stocks
share their mean steps; a stock whose days alone exceed the cap is a
chunk of its own, in the buffer grown to fit it. The two passes that
need only means, the baselines and the bootstrap resamples, run
without the spread buffer; group averages and cumulative-return curves
also carry the running spread for their standard errors.
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
    _active_days,
    group_name,
)
from .market_data import MINUTES_PER_DAY, Panel

class MeasureKind(Enum):
    """Per-minute activity measures taken from the bar stream."""

    ABSOLUTE_RETURN = "absolute_return"
    VOLUME = "volume"
    BID_ASK_SPREAD = "bid_ask_spread"


class _Welford:
    """Per-slot running mean and, optionally, spread that skip missing
    (NaN) entries.

    Slots form an array of any shape; every update is elementwise, so a
    slot's result does not depend on the other slots it shares a block
    with. Updates add zero increments for slots where the incoming value
    is missing or identical to the running mean, so averaging N copies
    of one series reproduces it bit for bit and its spread is exactly 0;
    the one exception is -0.0, which the running mean (starting at +0.0)
    returns as +0.0. The count, mean, spread and step buffers are
    allocated once, and :meth:`add` writes every update into them in
    place. Counts are kept as float64, exact far beyond any member
    count. Without ``spread`` the accumulator runs the mean step alone,
    for the passes that read only means.
    """

    def __init__(self, shape: int | tuple[int, ...], spread: bool = True):
        self.n = np.zeros(shape)
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape) if spread else None
        self._missing = np.empty(shape, dtype=bool)
        self._observed = np.empty(shape, dtype=bool)
        self._delta = np.empty(shape)
        self._step = np.empty(shape)

    def add(self, values: np.ndarray) -> None:
        # n += observed; delta = values - mean where observed, else 0;
        # mean += delta / max(n, 1); m2 += delta * (values - new mean)
        missing, delta, step = self._missing, self._delta, self._step
        np.isnan(values, out=missing)
        np.logical_not(missing, out=self._observed)
        np.add(self.n, self._observed, out=self.n)
        np.subtract(values, self.mean, out=delta)
        np.putmask(delta, missing, 0.0)
        np.maximum(self.n, 1.0, out=step)
        np.divide(delta, step, out=step)
        np.add(self.mean, step, out=self.mean)
        if self.m2 is not None:
            np.subtract(values, self.mean, out=step)
            np.putmask(step, missing, 0.0)
            np.multiply(delta, step, out=step)
            np.add(self.m2, step, out=self.m2)

    def counts(self) -> np.ndarray:
        return self.n.astype(np.int64)

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


def _lockstep_welford(rows: np.ndarray, members: np.ndarray,
                      spread: bool = True) -> _Welford:
    """Average ``rows`` (shape ``(..., N, W)``) over ``members`` in lockstep.

    ``members`` is a ``(B, K)`` matrix of row positions; slot block b
    averages rows ``members[b, 0], members[b, 1], ...`` in that order.
    Each update gathers column k for every block at once into one
    buffer and adds it, giving a ``(..., B, W)`` accumulator. ``rows``
    is made contiguous once, since a gather would copy it every step.
    Callers pass only positions inside ``rows``: the gather's
    ``mode="clip"`` exists to let it write straight into the buffer
    (the default mode buffers ``out``), and would clamp a bad position
    silently.
    """
    rows = np.ascontiguousarray(rows)
    shape = rows.shape[:-2] + (members.shape[0], rows.shape[-1])
    acc = _Welford(shape, spread)
    gathered = np.empty(shape)
    for column in np.ascontiguousarray(np.asarray(members, np.intp).T):
        acc.add(np.take(rows, column, axis=-2, out=gathered, mode="clip"))
    return acc


@dataclass(frozen=True)
class EventTrajectory:
    """Deseasonalized series z(t) for one event and measure.

    ``t`` runs -measure_pre_window..post_window; NaN marks minutes with
    no usable observation (no bar, or missing quotes for spreads).
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

    Only bars carry values. An absolute return is taken from the
    forward-filled log price of the previous traded minute, so the
    return at a bar after a gap spans the gap; spreads need both quotes.
    """
    if measure is MeasureKind.ABSOLUTE_RETURN:
        values = np.abs(np.diff(panel.log_prices(stock_id), prepend=np.nan))
    elif measure is MeasureKind.VOLUME:
        values = panel.volumes(stock_id)
    else:
        values = panel.asks(stock_id) - panel.bids(stock_id)
    return np.where(panel.present_mask(stock_id), values, np.nan)


def _lookback_days(panel: Panel, active: np.ndarray, rec: HaltRecord,
                   lookback: int) -> np.ndarray:
    # the ``lookback`` most recent active days before the halt day
    day = panel.calendar.day_index(rec.halt_day)
    prior = int(np.searchsorted(active, day))
    if prior < lookback:
        raise InsufficientHistory(
            f"{rec.stock_id}: {prior} active days before "
            f"{rec.halt_day}, need {lookback}")
    return active[prior - lookback:prior]


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


# byte cap of the buffer that one chunk of stocks copies its lookback
# days into; a stock whose days alone exceed it grows the buffer to fit
_CHUNK_BYTES = 512 * 1024


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
    Consecutive stocks' used lookback days are copied into one buffer of
    at most ``_CHUNK_BYTES``, and the baselines of all their events and
    measures are averaged in lockstep, one lookback day at a time, each
    bitwise equal to a lone per-event average; a stock whose days alone
    exceed the cap is a chunk of its own, in the buffer grown to fit
    it. Work runs in sorted (stock_id, halt begin) order, then measure
    order; the first failing (event, measure) in that order raises.
    """
    if lookback < 1:
        raise ValueError("lookback must be positive")
    if not measures:
        raise ValueError("need at least one measure")
    order = sorted(range(len(events)), key=lambda i: events[i].record.sort_key())
    t = np.arange(-pre_window, post_window + 1)
    t.setflags(write=False)
    out: list = [None] * len(events)
    chunk = _BaselineChunk(panel, events, measures, t, out)
    for stock_id, run in groupby(order, key=lambda i: events[i].record.stock_id):
        positions = list(run)
        # the first event failing its window checks ends the run; its
        # error is raised only after the events before it, in this and
        # earlier stocks, have passed their baseline checks
        days, minutes, failure = [], [], None
        try:
            active = _active_days(panel, stock_id)
            for i in positions:
                rec = events[i].record
                window = _lookback_days(panel, active, rec, lookback)
                minutes.append(_event_minutes(panel, rec, pre_window,
                                              post_window))
                days.append(window)
        except HaltStudyError as exc:
            failure = exc
        if days:
            chunk.add(stock_id, positions[:len(days)], np.array(days),
                      np.array(minutes))
        if failure is not None:
            chunk.flush()
            raise failure
    chunk.flush()
    return out


class _BaselineChunk:
    """Stocks whose baselines are averaged in one lockstep pass.

    :meth:`add` copies a stock's used lookback days (every measure) into
    one buffer of ``_CHUNK_BYTES``, allocated for the first stock and
    grown for a stock whose days alone exceed it, which then stays a
    chunk of its own; :meth:`flush` averages every pending event's
    baseline from it, deseasonalizes the events in stock order and
    stores their trajectories in ``out``.
    """

    def __init__(self, panel: Panel, events: Sequence[HaltEvent],
                 measures: Sequence[MeasureKind], t: np.ndarray, out: list):
        self.panel, self.events, self.measures = panel, events, measures
        self.t, self.out = t, out
        self.capacity = _CHUNK_BYTES // (len(measures) * MINUTES_PER_DAY * 8)
        self.rows = np.empty((len(measures), 0, MINUTES_PER_DAY))
        self.used = 0
        # per stock: event positions, raw values, minutes, member rows
        self.pending: list = []

    def add(self, stock_id: str, positions: list[int], days: np.ndarray,
            minutes: np.ndarray) -> None:
        panel, n_days = self.panel, self.panel.calendar.n_days
        # distinct days, sorted; np.unique's first call imports numpy.ma
        used = np.zeros(n_days, dtype=bool)
        used[days] = True
        used = np.flatnonzero(used)
        if self.used + used.size > self.capacity:
            self.flush()
        # a stock past the cap grows the buffer; it fills the buffer past
        # the cap, so the next add flushes it as a chunk of its own
        if self.rows.shape[1] < used.size:
            self.rows = np.empty((len(self.measures),
                                  max(self.capacity, used.size),
                                  MINUTES_PER_DAY))
        block = self.rows[:, self.used:self.used + used.size]
        raw = np.empty((len(self.measures),) + minutes.shape)
        for k, measure in enumerate(self.measures):
            series = measure_series(panel, stock_id, measure)
            np.take(series, minutes, out=raw[k], mode="clip")
            np.take(series.reshape(n_days, MINUTES_PER_DAY), used, axis=0,
                    out=block[k], mode="clip")
        self.pending.append((positions, raw, minutes,
                             self.used + np.searchsorted(used, days)))
        self.used += used.size

    def flush(self) -> None:
        # rows past ``used`` are stale, but no member points at them
        if not self.pending:
            return
        members = np.concatenate([p[3] for p in self.pending])
        pattern = _lockstep_welford(self.rows, members, spread=False).means()
        first = 0
        for positions, raw, minutes, _ in self.pending:
            slots = np.arange(first, first + len(positions))[:, None]
            values, bad = _deseasonalize_block(
                raw, pattern[:, slots, minutes % MINUTES_PER_DAY])
            for e, i in enumerate(positions):
                trajectories = {}
                for k, measure in enumerate(self.measures):
                    if bad[k, e].any():
                        raise ZeroBaseline(
                            f"{self.events[i].record.stock_id}: unusable "
                            "baseline at event minute "
                            f"{int(self.t[bad[k, e]][0])}")
                    trajectories[measure] = EventTrajectory(
                        self.events[i], measure, self.t, values[k, e])
                self.out[i] = trajectories
            first += len(positions)
        self.pending = []
        self.used = 0


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
                    indices: np.ndarray,
                    columns: np.ndarray | None = None) -> np.ndarray:
    """Per-t group means of many resamples at once, one row per resample.

    ``indices`` holds one row per resample of positions into the
    trajectories sorted by event key. Row r is bitwise equal to the mean
    of :func:`group_average` over ``[sorted[i] for i in indices[r]]``,
    restricted to the positions ``columns`` of the t axis when given:
    each row is put into the order that function sorts its members in,
    and all rows are then accumulated together, one sample position at
    a time.
    """
    trajs, _, _ = _sorted_group(trajectories)
    first: dict = {}
    rank = np.array([first.setdefault(tr.event.record.sort_key(), i)
                     for i, tr in enumerate(trajs)])
    indices = np.asarray(indices)
    if indices.size and not (0 <= indices.min() and
                             indices.max() < len(trajs)):
        raise ValueError(f"resample indices outside [0, {len(trajs)})")
    order = np.argsort(rank[indices], axis=1, kind="stable")
    members = np.take_along_axis(indices, order, axis=1)
    rows = np.stack([tr.values for tr in trajs])
    if columns is not None:
        rows = rows[:, columns]
    return _lockstep_welford(rows, members, spread=False).means()


def average_cumulative_return(panel: Panel, events: Sequence[HaltEvent],
                              window: int = EligibilityConfig.pre_window,
                              ) -> CumulativeReturnCurve:
    """Average cumulative log-return path over t = -window..window.

    Each event contributes the running sum of its event-time returns;
    the return at t = 0 is the jump from the last pre-halt price to the
    first post-resumption price, however long the halt lasted, and
    prices are forward-filled across gaps. Events are averaged with
    equal weights and the curve is then shifted vertically so its t = 0
    value is exactly zero.
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
        acc.add(np.cumsum(np.diff(lnp[gs])))
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

    For horizon k the move is the forward-filled log-price change from
    the last pre-halt minute to the k-th minute after resumption. Only a
    strictly opposite sign counts; an unchanged price does not.
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
