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

The trajectory and curve stages read their records as rows of one
record table in key order (``events._RecordColumns``): a pass builds
it once and hands :func:`_trajectories` and :func:`_curves` the rows
they need, and :func:`extract_stock_trajectories` and
:func:`_curves_and_reversals` run the same code on a table of their own
records. Each stock's arrays are read once for all of its rows.

All averaging uses running (Welford) accumulation in key order, so
results are independent of input order and bitwise reproducible, and N
identical series average to that series exactly. Many averages run in
lockstep (:func:`_lockstep_welford`): the baselines of every event and
measure of a chunk of stocks (:func:`_plan_chunks`), every bootstrap
resample, and every new group of a stage, each group a block padded to
the largest with one all-NaN row. Each slot sees the same IEEE
operations in the same order as a lone average would (:class:`_Welford`
says how), so lockstep and one-at-a-time results are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyGroup,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    NoData,
    ZeroBaseline,
)
from .events import (
    EligibilityConfig,
    EventSign,
    HaltRecord,
    _active_days,
    _coverage_gap,
    _RecordColumns,
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
    with. The first step copies the observed values, and a slot first
    observed later takes its value bit for bit from a mean of -0.0.
    After that, an update moves the mean by (mean - value) / n, which is
    an exact zero where the value equals the mean, and leaves the slots
    where the value is missing untouched, so averaging N copies of one
    series reproduces it bit for bit, -0.0 included, and its spread is
    exactly 0. The count, mask, mean, spread and step buffers are
    allocated once, and :meth:`add` writes every update into them in
    place.

    The caller says whether a step holds a missing value. A step after
    the first that holds none is a subtract, a divide and a subtract: it
    divides by the step number, or, once any step has held a gap, by the
    per-slot count of observed values (float64, exact far beyond any
    member count), which it raises by one. A masked step finds its
    observed slots, counts them, and moves the mean only there. Each
    observed slot divides by its own count either way: the same IEEE
    operations on the same operands as a masked update of every step.
    Without ``spread`` the accumulator runs the mean step alone, for the
    passes that read only means.
    """

    def __init__(self, shape: int | tuple[int, ...], spread: bool = True):
        self.steps = 0
        # -0.0 keeps the sign of a first value met after the first step:
        # -0.0 - (-0.0 - x) / 1 is x for every x, -0.0 included
        self.mean = np.full(shape, -0.0)
        self.m2 = np.zeros(shape) if spread else None
        # observed values per slot, kept from the first step with a gap
        self._count: np.ndarray | None = None
        self._observed = np.empty(shape, dtype=bool)
        self._delta = np.empty(shape)
        self._step = np.empty(shape)

    @property
    def n(self) -> np.ndarray:
        # observed values per slot
        if self._count is None:
            return np.full(self.mean.shape, float(self.steps))
        return self._count

    def add(self, values: np.ndarray, gap: bool) -> None:
        # ``gap``: whether ``values`` holds a NaN. The first step copies
        # the observed values; after it, where observed, with n the
        # slot's count: delta = mean - values; mean -= delta / n;
        # m2 += delta * (new mean - values)
        delta, step = self._delta, self._step
        self.steps += 1
        observed = True
        if gap:
            # False exactly at NaN
            observed = np.equal(values, values, out=self._observed)
        if self.steps == 1:
            np.copyto(self.mean, values, where=observed)
            if gap:
                self._count = observed.astype(float)
            return
        np.subtract(self.mean, values, out=delta)
        if gap:
            if self._count is None:
                self._count = np.add(observed, self.steps - 1.0)
            else:
                np.add(self._count, observed, out=self._count)
            divisor = self._count
        elif self._count is None:
            divisor = self.steps
        else:
            divisor = np.add(self._count, 1.0, out=self._count)
        np.divide(delta, divisor, out=step)
        np.subtract(self.mean, step, out=self.mean, where=observed)
        if self.m2 is not None:
            np.subtract(self.mean, values, out=step)
            np.multiply(delta, step, out=step)
            np.add(self.m2, step, out=self.m2, where=observed)

    def counts(self) -> np.ndarray:
        return self.n.astype(np.int64)

    def means(self) -> np.ndarray:
        return np.where(self.n > 0, self.mean, np.nan)

    def sample_stds(self) -> np.ndarray:
        n = self.n
        out = np.full(n.shape, np.nan)
        two = n >= 2
        out[two] = np.sqrt(self.m2[two] / (n[two] - 1))
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

    Which steps hold a missing value is decided once per pass: one NaN
    scan of the rows up to the last member marks each row (over every
    lead position) that holds one, and a step gathers whole rows, so it
    holds one exactly when one of its members is marked. Only those
    steps are masked.

    The group averages of one measure, and the cumulative-return curves,
    of every group a stage builds share one pass: blocks of unequal size
    are padded to the largest with an all-NaN row (see
    :func:`_padded_members`). A step that gathers a pad is masked, and
    a masked step leaves the pad's slots untouched, so a padded block
    keeps every bit of a lone average.
    """
    rows = np.ascontiguousarray(rows)
    members = np.asarray(members, np.intp)
    shape = rows.shape[:-2] + (members.shape[0], rows.shape[-1])
    acc = _Welford(shape, spread)
    gathered = np.empty(shape)
    for column, gap in zip(np.ascontiguousarray(members.T),
                           _gap_steps(rows, members)):
        acc.add(np.take(rows, column, axis=-2, out=gathered, mode="clip"),
                gap)
    return acc


def _gap_steps(rows: np.ndarray, members: np.ndarray) -> list[bool]:
    # per column of ``members``, whether its gather from ``rows`` holds a
    # NaN: a table of the rows up to the last member that miss a value at
    # any lead position or column, read with the gather's own clamping
    holes = np.isnan(rows[..., :members.max(initial=0) + 1, :]).any(
        axis=tuple(range(rows.ndim - 2)) + (-1,))
    return np.take(holes, members, mode="clip").any(axis=0).tolist()


def _padded_members(sizes: Sequence[int]) -> np.ndarray:
    # member matrix of consecutive row blocks, block b the next sizes[b]
    # rows, padded to the largest block with the position after them
    # all, which the caller fills with NaN
    sizes = np.asarray(sizes)
    k = np.arange(sizes.max())
    starts = np.cumsum(sizes) - sizes
    return np.where(k < sizes[:, None], starts[:, None] + k, sizes.sum())


@dataclass(frozen=True)
class EventTrajectory:
    """Deseasonalized series z(t) for one halt record and measure.

    ``t`` runs -measure_pre_window..post_window; NaN marks minutes with
    no usable observation (no bar, or missing quotes for spreads). The
    series does not depend on the trend window, so it carries the record
    and not the event, whose sign does.
    """

    record: HaltRecord
    measure: MeasureKind
    t: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class GroupAverage:
    """Equal-weight per-t average of one measure over a set of events."""

    measure: MeasureKind
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n: np.ndarray


@dataclass(frozen=True)
class CumulativeReturnCurve:
    """Averaged cumulative log-return path, shifted so the t = 0 value is 0."""

    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n: int


def measure_series(panel: Panel, stock_id: str,
                   measure: MeasureKind) -> np.ndarray:
    """Measure values per global minute, NaN where nothing was observed.

    Only bars carry values. An absolute return is taken from the
    forward-filled log price of the previous traded minute, so the
    return at a bar after a gap spans the gap, and is masked to the
    bars; spreads need both quotes. Volumes, bids and asks are NaN at
    every absent minute already (:meth:`PanelBuilder.add_stock_arrays`),
    so volume comes back as the panel's own read-only array.
    """
    if measure is MeasureKind.VOLUME:
        return panel.volumes(stock_id)
    if measure is MeasureKind.BID_ASK_SPREAD:
        return panel.asks(stock_id) - panel.bids(stock_id)
    values = np.abs(np.diff(panel.log_prices(stock_id), prepend=np.nan))
    return np.where(panel.present_mask(stock_id), values, np.nan)


def _event_windows(panel: Panel, cols: _RecordColumns, lookback: int,
                   pre_window: int, post_window: int,
                   ) -> tuple[np.ndarray, Exception | None]:
    """The lookback days of the records of ``cols``, one row per record,
    up to the first record that fails its checks, and that record's
    error (None when every record passes).

    A record fails when its stock is not in the panel (NoData), when
    fewer than ``lookback`` active days precede its halt day
    (InsufficientHistory), and when its stock's bars do not cover its
    minutes of t = -pre_window..post_window, in that order. Each stock's
    active days are read once, and one :func:`_coverage_gap` call checks
    every record that passes the earlier checks.
    """
    records = cols.records
    # each stock's active days, pooled; ``offset`` is where a record's
    # stock starts in the pool and ``prior`` its count before the halt day
    actives = [np.zeros(0, dtype=np.intp)]
    offset = np.zeros(len(records), dtype=np.intp)
    prior = np.zeros(len(records), dtype=np.intp)
    pooled, n, failure = 0, len(records), None
    for stock_id, a, b in cols.runs:
        try:
            active = _active_days(panel, stock_id)
        except NoData as exc:
            n, failure = a, exc
            break
        offset[a:b] = pooled
        prior[a:b] = np.searchsorted(active, cols.begin[a:b] // MINUTES_PER_DAY)
        actives.append(active)
        pooled += active.size
    few = np.flatnonzero(prior[:n] < lookback)
    if few.size:
        n, rec = int(few[0]), records[few[0]]
        failure = InsufficientHistory(
            f"{rec.stock_id}: {prior[n]} active days before "
            f"{rec.halt_day}, need {lookback}")
    if n:
        begin, resume, last = cols.begin[:n], cols.resume[:n], cols.last[:n]
        gap = _coverage_gap(cols.first[:n], last, begin - pre_window,
                            resume + post_window, pre_window=pre_window,
                            post_window=post_window)
        # a stock without bars has no active days, so "bars" never
        # reaches here
        bad = np.flatnonzero(gap != "")
        if bad.size:
            n, rec = int(bad[0]), records[bad[0]]
            if gap[n] == "calendar":
                failure = InsufficientHistory(
                    f"{rec.stock_id}: pre window starts before the calendar")
            elif gap[n] == "start":
                failure = InsufficientHistory(
                    f"{rec.stock_id}: bars start inside the pre window")
            else:
                failure = InsufficientPostWindow(
                    f"{rec.stock_id}: bars end "
                    f"{resume[n] + post_window - last[n]} minutes short of "
                    "the post window")
    days = np.concatenate(actives)[(offset + prior)[:n, None] - lookback
                                   + np.arange(lookback)]
    return days, failure


def _deseasonalize_block(raw: np.ndarray,
                         base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # raw / base where raw was observed, NaN elsewhere; ``bad`` marks the
    # observed slots whose baseline is zero or undefined
    observed = ~np.isnan(raw)
    values = np.full(raw.shape, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        bad = observed & ~(base > 0)
        np.divide(raw, base, out=values, where=observed)
    return values, bad


# byte caps of one baseline pass: the buffer that its chunk of stocks
# copies their used lookback days into, and the block that each of its
# steps updates (every measure and event of the chunk); the second keeps
# a step's block in cache, so stocks with many events get a pass each
_CHUNK_BYTES = 2 * 1024 * 1024
_STEP_BYTES = 192 * 1024


def _plan_chunks(n_days: Sequence[int], n_events: Sequence[int],
                 n_measures: int) -> list[tuple[int, int]]:
    """Consecutive stocks [lo, hi) whose baselines share one pass.

    A chunk closes before the stock that would take its used lookback
    days past ``_CHUNK_BYTES`` or its step block past ``_STEP_BYTES``,
    each day and each event a row of ``n_measures`` x MINUTES_PER_DAY
    float64; a stock past either cap alone is a chunk of its own.
    """
    row_bytes = n_measures * MINUTES_PER_DAY * 8
    chunks, lo, days, events = [], 0, 0, 0
    for i, (d, e) in enumerate(zip(n_days, n_events)):
        if i > lo and ((days + d) * row_bytes > _CHUNK_BYTES
                       or (events + e) * row_bytes > _STEP_BYTES):
            chunks.append((lo, i))
            lo, days, events = i, 0, 0
        days += d
        events += e
    if len(n_days):
        chunks.append((lo, len(n_days)))
    return chunks


def extract_stock_trajectories(
        panel: Panel, records: Sequence[HaltRecord],
        measures: Sequence[MeasureKind] = tuple(MeasureKind),
        lookback: int = EligibilityConfig.lookback_days,
        pre_window: int = EligibilityConfig.measure_pre_window,
        post_window: int = EligibilityConfig.post_window,
) -> list[dict[MeasureKind, EventTrajectory]]:
    """Deseasonalized series over t = -pre_window..post_window, per halt
    record (aligned with ``records``) and measure: :func:`_trajectories`,
    the one trajectory path, on a record table of their own.

    A baseline is the per-intraday-minute mean over the ``lookback``
    most recent days before the halt day on which the stock traded
    (suspended days are skipped; too few raise InsufficientHistory).
    Each raw value is divided by its own minute's baseline; minutes
    without an observation stay NaN, an observed minute over a zero or
    undefined baseline raises ZeroBaseline, and bars that do not cover
    the window raise InsufficientHistory or InsufficientPostWindow.
    Consecutive stocks share baseline passes, planned up front
    (:func:`_plan_chunks`) and averaged in lockstep one lookback day at a
    time (:class:`_BaselineChunk`), each baseline bitwise equal to a
    lone per-event average. Work runs in
    sorted (stock_id, halt begin) order, then measure order; the first
    failing (event, measure) in that order raises.
    """
    if lookback < 1:
        raise ValueError("lookback must be positive")
    if not measures:
        raise ValueError("need at least one measure")
    cols = _RecordColumns(records, panel)
    got = _trajectories(panel, cols, measures, lookback, pre_window,
                        post_window)
    return [got[row] for row in np.argsort(cols.order).tolist()]


def _trajectories(panel: Panel, cols: _RecordColumns,
                  measures: Sequence[MeasureKind], lookback: int,
                  pre_window: int, post_window: int,
                  ) -> list[dict[MeasureKind, EventTrajectory]]:
    """The trajectories of :func:`extract_stock_trajectories` for the
    records of ``cols``, by row."""
    t = np.arange(-pre_window, post_window + 1)
    t.setflags(write=False)
    out: list = []
    # the first record failing its window checks ends the pass; its error
    # is raised only after the records before it have passed their
    # baseline checks
    days, failure = _event_windows(panel, cols, lookback, pre_window,
                                   post_window)
    runs = [(stock_id, a, min(b, len(days)))
            for stock_id, a, b in cols.runs if a < len(days)]
    # each stock's distinct used days, sorted; np.unique's first call
    # imports numpy.ma
    used = []
    for _, a, b in runs:
        mask = np.zeros(panel.calendar.n_days, dtype=bool)
        mask[days[a:b]] = True
        used.append(np.flatnonzero(mask))
    chunks = _plan_chunks([u.size for u in used], [b - a for _, a, b in runs],
                          len(measures))
    chunk = _BaselineChunk(panel, cols.records, measures, t, out, max(
        (sum(u.size for u in used[lo:hi]) for lo, hi in chunks), default=0))
    for lo, hi in chunks:
        for (stock_id, a, b), stock_used in zip(runs[lo:hi], used[lo:hi]):
            # global minutes of t = -pre_window..post_window
            minutes = np.hstack([
                cols.begin[a:b, None] - pre_window + np.arange(pre_window),
                cols.resume[a:b, None] + np.arange(post_window + 1)])
            chunk.add(stock_id, days[a:b], stock_used, minutes)
        chunk.flush()
    if failure is not None:
        raise failure
    return out


class _BaselineChunk:
    """Stocks whose baselines are averaged in one lockstep pass.

    The buffer holds ``n_days`` lookback days of every measure, enough
    for the largest planned chunk. :meth:`add` copies a stock's used
    days into it after the chunk's earlier stocks; :meth:`flush`
    averages every pending event's baseline from it, deseasonalizes the
    events in stock order, appends their trajectories to ``out`` (the
    trajectories of the rows before them) and empties the buffer for the
    next chunk.
    """

    def __init__(self, panel: Panel, records: Sequence[HaltRecord],
                 measures: Sequence[MeasureKind], t: np.ndarray, out: list,
                 n_days: int):
        self.panel, self.records, self.measures = panel, records, measures
        self.t, self.out = t, out
        self.rows = np.empty((len(measures), n_days, MINUTES_PER_DAY))
        self.used = 0
        # per stock: raw values, minutes, member rows
        self.pending: list = []

    def add(self, stock_id: str, days: np.ndarray, used: np.ndarray,
            minutes: np.ndarray) -> None:
        # ``used``: the stock's distinct ``days``, sorted
        panel, n_days = self.panel, self.panel.calendar.n_days
        block = self.rows[:, self.used:self.used + used.size]
        raw = np.empty((len(self.measures),) + minutes.shape)
        for k, measure in enumerate(self.measures):
            series = measure_series(panel, stock_id, measure)
            np.take(series, minutes, out=raw[k], mode="clip")
            np.take(series.reshape(n_days, MINUTES_PER_DAY), used, axis=0,
                    out=block[k], mode="clip")
        self.pending.append((raw, minutes,
                             self.used + np.searchsorted(used, days)))
        self.used += used.size

    def flush(self) -> None:
        # rows past ``used`` are stale, but no member points at them
        if not self.pending:
            return
        raw, minutes, members = zip(*self.pending)
        minutes = np.concatenate(minutes)
        pattern = _lockstep_welford(self.rows, np.concatenate(members),
                                    spread=False).means()
        values, bad = _deseasonalize_block(
            np.concatenate(raw, axis=1),
            pattern[:, np.arange(len(minutes))[:, None],
                    minutes % MINUTES_PER_DAY])
        # per (event, measure): does an observed minute lack a baseline;
        # the first failing pair in event, then measure, order raises
        failed = bad.any(axis=-1).T
        e, k = divmod(int(failed.argmax()), len(self.measures))
        records = self.records[len(self.out):len(self.out) + len(minutes)]
        if failed[e, k]:
            raise ZeroBaseline(
                f"{records[e].stock_id}: unusable baseline "
                f"at event minute {int(self.t[bad[k, e]][0])}")
        self.out.extend({measure: EventTrajectory(rec, measure, self.t,
                                                  values[k, e])
                         for k, measure in enumerate(self.measures)}
                        for e, rec in enumerate(records))
        self.pending = []
        self.used = 0


def _sorted_group(trajectories: Iterable[EventTrajectory],
                  ) -> list[EventTrajectory]:
    # record-key order, checked to share one measure and t axis
    trajs = sorted(trajectories, key=lambda tr: tr.record.sort_key())
    if not trajs:
        raise EmptyGroup("no trajectories to average")
    head = trajs[0]
    for tr in trajs:
        if tr.measure is not head.measure:
            raise ValueError("trajectories mix measures")
        if tr.t is not head.t and not np.array_equal(tr.t, head.t):
            raise ValueError("trajectories use different event-time axes")
    return trajs


def group_average(trajectories: Iterable[EventTrajectory]) -> GroupAverage:
    """Equal-weight per-t mean with per-t standard error and count.

    Only non-missing values enter each t's average. Accumulation runs in
    ascending (stock_id, halt begin) order, so the result is identical
    however the trajectories were produced or ordered. The one-group
    case of :func:`group_averages`.
    """
    return group_averages([trajectories])[0]


def group_averages(groups: Iterable[Iterable[EventTrajectory]],
                   ) -> list[GroupAverage]:
    """Per group of trajectories, its :func:`group_average`, bitwise.

    Every group is sorted and checked first, in the order given, so the
    first bad group raises. Then the groups of each measure are averaged
    in one lockstep pass over that measure's stacked members, each group
    a block padded to the largest with an all-NaN row.
    """
    checked = [_sorted_group(trajs) for trajs in groups]
    passes: dict[tuple, list[int]] = {}
    for i, trajs in enumerate(checked):
        head = trajs[0]
        passes.setdefault((head.measure, len(head.values)), []).append(i)
    out: list = [None] * len(checked)
    for (_, width), positions in passes.items():
        blocks = [checked[i] for i in positions]
        sizes = [len(trajs) for trajs in blocks]
        rows = np.empty((sum(sizes) + 1, width))
        rows[-1] = np.nan
        np.stack([tr.values for trajs in blocks for tr in trajs],
                 out=rows[:-1])
        acc = _lockstep_welford(rows, _padded_members(sizes))
        mean, stderr, n = acc.means(), acc.stderrs(), acc.counts()
        for b, i in enumerate(positions):
            head = checked[i][0]
            out[i] = GroupAverage(head.measure, head.t.copy(), mean[b],
                                  stderr[b], n[b])
    return out


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
    trajs = _sorted_group(trajectories)
    first: dict = {}
    rank = np.array([first.setdefault(tr.record.sort_key(), i)
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


def _check_return_windows(cols: _RecordColumns, sel: np.ndarray,
                          window: int) -> None:
    # whether the bars of the records at ``sel`` cover both return
    # windows, in one call; the first failing record in key order raises
    gap = _coverage_gap(cols.first[sel], cols.last[sel],
                        cols.begin[sel] - 1 - window, cols.resume[sel] + window,
                        window=window)
    bad = np.flatnonzero(gap != "")
    if bad.size:
        rec = cols.records[sel[bad[0]]]
        if gap[bad[0]] == "calendar":
            raise InsufficientWindow(
                f"{rec.stock_id}: return window starts before the calendar")
        if gap[bad[0]] == "bars":
            raise InsufficientWindow(f"no bars for stock {rec.stock_id}")
        raise InsufficientWindow(
            f"{rec.stock_id}: bars do not cover both return windows")


def _check_reversals(cols: _RecordColumns, sel: np.ndarray,
                     points: np.ndarray, horizons: Sequence[int]) -> None:
    # horizon by horizon, the first record at ``sel`` whose bars end
    # before the horizon's point raises; ``points`` are every record's
    # reversal points, and the return-window check has already found
    # every record's bars to cover its last pre-halt minute
    if not sel.size:
        raise EmptyGroup("no events")
    short = points[sel, 1:] > cols.last[sel, None]
    for j, k in enumerate(horizons):
        if k < 1:
            raise ValueError(f"horizon must be positive, got {k}")
        failed = np.flatnonzero(short[:, j])
        if failed.size:
            raise InsufficientPostWindow(
                f"{cols.records[sel[failed[0]]].stock_id}: "
                f"no bar {k} minutes after resumption")


def _reversal_fractions(prices: np.ndarray, sign: EventSign,
                        horizons: Sequence[int]) -> dict[int, float]:
    # ``prices`` at each record's reversal points, one row per record
    moves = prices[:, 1:] - prices[:, :1]
    reversed_ = moves < 0 if sign is EventSign.POSITIVE else moves > 0
    return {k: n_reversed / len(prices) for k, n_reversed in zip(
        horizons, np.count_nonzero(reversed_, axis=0).tolist())}


def _curves_and_reversals(panel: Panel,
                          groups: Sequence[Sequence[HaltRecord]],
                          signs: Sequence[EventSign], window: int,
                          horizons: Sequence[int],
                          ) -> tuple[list[CumulativeReturnCurve],
                                     list[dict[int, float]]]:
    """Per group of records, its cumulative-return curve over
    t = -window..window and its reversal fractions under its sign:
    :func:`_curves` on a record table of their own."""
    if not groups:
        return [], []
    cols = _RecordColumns([rec for group in groups for rec in group], panel)
    # each group's rows: those of its records, in the order given
    rows = np.split(np.argsort(cols.order),
                    np.cumsum([len(group) for group in groups])[:-1])
    return _curves(panel, cols, [np.sort(part) for part in rows], signs,
                   window, horizons)


def _curves(panel: Panel, table: _RecordColumns,
            groups: Sequence[Sequence[int]], signs: Sequence[EventSign],
            window: int, horizons: Sequence[int],
            ) -> tuple[list[CumulativeReturnCurve], list[dict[int, float]]]:
    """Per group of the table's rows (ascending, and no row in two
    groups), its cumulative-return curve over t = -window..window and its
    reversal fractions under its sign.

    The rows of every group are read once, as one table. Group by group,
    in order, its return windows are checked, then its reversal
    horizons, so the first failing group raises. Covered return windows
    hold every record's last pre-halt minute, so the horizons fail only
    when a group is empty (EmptyGroup), a horizon is below 1
    (ValueError) or, horizon by horizon, a record's bars end before its
    horizon's minute (InsufficientPostWindow). Then each stock's records
    read their prices at the curve minutes and the reversal points in
    one gather, and one lockstep pass averages every curve.

    For horizon k, a record's move is the forward-filled log-price
    change from its last pre-halt minute to the k-th minute after
    resumption, and the fraction counts the moves strictly opposite to
    the group's sign: an unchanged price is no reversal.

    Each event contributes the running sum of its event-time returns;
    the return at t = 0 is the jump from the last pre-halt price to the
    first post-resumption price, however long the halt lasted, and
    prices are forward-filled across gaps. The events of a group are
    averaged with equal weights, in key order, and its curve is then
    shifted vertically so its t = 0 value is exactly zero.
    """
    read = np.sort(np.concatenate(groups)).astype(np.intp)
    cols = table.take(read)
    # each group's positions in ``cols``
    members = [np.searchsorted(read, group) for group in groups]
    # per record, the last pre-halt minute, then the minute of each
    # horizon after resumption
    points = np.column_stack([cols.begin - 1, cols.resume[:, None]
                              + np.array(horizons, np.int64) - 1])
    for sel in members:
        _check_return_windows(cols, sel, window)
        _check_reversals(cols, sel, points, horizons)
    n, width = len(cols.records), 2 * window + 1
    steps = np.arange(window + 1)
    rows = np.empty((n + 1, width))
    rows[-1] = np.nan
    prices = np.empty(points.shape)
    for stock_id, a, b in cols.runs:
        got = panel.log_prices(stock_id)[np.hstack([
            cols.begin[a:b, None] - 1 - window + steps,
            cols.resume[a:b, None] + steps, points[a:b]])]
        # each record's event-time returns; their running sums below
        np.subtract(got[:, 1:width + 1], got[:, :width], out=rows[a:b])
        prices[a:b] = got[:, width + 1:]
    np.cumsum(rows[:-1], axis=1, out=rows[:-1])
    # each group's rows in key order, padded with the all-NaN last row
    padded = np.full((len(groups), max(map(len, groups))), n)
    for b, sel in enumerate(members):
        padded[b, :sel.size] = sel
    acc = _lockstep_welford(rows, padded)
    mean, stderr = acc.means(), acc.stderrs()
    curves = [CumulativeReturnCurve(np.arange(-window, window + 1),
                                    mean[b] - mean[b, window], stderr[b],
                                    sel.size)
              for b, sel in enumerate(members)]
    return curves, [_reversal_fractions(prices[sel], sign, horizons)
                    for sel, sign in zip(members, signs)]


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

