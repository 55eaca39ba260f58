"""Halt events: duration classes, trend signs and filtering rules.

A halt is recorded by its first halted minute (``halt_begin``, a minute
with no bar) and by the first minute that trades again (``resume``).
Duration type counts fully suspended trading days; the sign is the
direction of the cumulative log return over a fixed window ending at the
last traded minute before the halt. Events that cannot be measured
cleanly (overlapping neighbours, special-treatment stocks, very long
suspensions, thin history, short post windows, gappy data) are kept but
marked with a single rejection reason. A registry halt over minutes
that did trade is rejected too: its halt never happened as recorded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import product
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import InvalidInterval, MalformedRow, NoData, UnknownDay
from .market_data import (MINUTES_PER_DAY, Panel, TradingCalendar,
                          _check_stock_id, _csv_field, _csv_reader,
                          _csv_text)

HALT_CSV_HEADER = ("stock_id", "halt_date", "halt_minute",
                   "resume_date", "resume_minute", "is_st")
REPORT_CSV_HEADER = HALT_CSV_HEADER[:5] + ("halt_type", "sign", "eligible",
                                           "rejection_reason")


class HaltType(Enum):
    """Duration class, decided by the count of fully suspended days."""

    INTRADAY = "intraday"   # trading resumes with no day fully lost
    ONE_DAY = "oneday"      # exactly one trading day fully lost
    INTER_DAY = "interday"  # two or more trading days fully lost


class EventSign(Enum):
    """Direction of the price trend leading into the halt."""

    POSITIVE = "pos"
    NEGATIVE = "neg"


class RejectionReason(Enum):
    """Why an event was excluded from the analysis."""

    SUCCESSIVE = "successive"
    ST_STOCK = "st_stock"
    TOO_LONG = "too_long"
    BARS_IN_HALT = "bars_in_halt"
    DATA_GAP = "data_gap"
    INSUFFICIENT_HISTORY = "insufficient_history"
    INSUFFICIENT_POST_WINDOW = "insufficient_post_window"


def group_name(halt_type: HaltType, sign: EventSign) -> str:
    """Joint label like ``oneday_neg`` used in report files."""
    return f"{halt_type.value}_{sign.value}"


def group_sort_key(halt_type: HaltType, sign: EventSign) -> tuple[int, int]:
    """Report order of groups: halt types, then signs, as declared."""
    return list(HaltType).index(halt_type), list(EventSign).index(sign)


@dataclass(frozen=True)
class HaltRecord:
    """One halt of one stock.

    ``halt_minute`` is the first minute with trading stopped, so no bar
    exists for it; ``resume_minute`` is the first minute that produced a
    bar again. A halt through the 11:30 close therefore resumes at
    minute 121 (the 13:01 bar) at the earliest.
    """

    stock_id: str
    halt_day: date
    halt_minute: int
    resume_day: date
    resume_minute: int
    is_st_stock: bool = False

    def __post_init__(self) -> None:
        for m in (self.halt_minute, self.resume_minute):
            if not 1 <= m <= MINUTES_PER_DAY:
                raise InvalidInterval(
                    f"{self.stock_id}: minute index out of range: {m}")
        if (self.resume_day, self.resume_minute) <= (self.halt_day, self.halt_minute):
            raise InvalidInterval(
                f"{self.stock_id}: resume {self.resume_day} m{self.resume_minute} "
                f"not after halt {self.halt_day} m{self.halt_minute}")

    def global_begin(self, calendar: TradingCalendar) -> int:
        """Global minute of the first halted minute."""
        return calendar.global_minute(self.halt_day, self.halt_minute)

    def global_resume(self, calendar: TradingCalendar) -> int:
        """Global minute of the first traded minute after the halt."""
        return calendar.global_minute(self.resume_day, self.resume_minute)

    def sort_key(self) -> tuple[str, date, int]:
        return (self.stock_id, self.halt_day, self.halt_minute)


@dataclass(frozen=True)
class HaltEvent:
    """A classified halt plus its eligibility verdict.

    ``sign`` is None only for rejected events whose stock lacks the
    price history needed to measure a trend; eligible events always
    carry a sign.
    """

    record: HaltRecord
    halt_type: HaltType
    sign: EventSign | None
    rejection_reason: RejectionReason | None = None

    @property
    def eligible(self) -> bool:
        return self.rejection_reason is None


@dataclass(frozen=True)
class EligibilityConfig:
    """Thresholds used by :func:`filter_eligibility`.

    All windows are in traded minutes. ``trend_window`` feeds the sign;
    ``pre_window`` / ``post_window`` bound the event windows around the
    halt; ``measure_pre_window`` is the shorter pre-halt stretch used by
    per-minute activity averages. ``max_halt_days`` caps the trading-day
    span of a halt and ``max_gap_fraction`` caps the tolerated share of
    minutes without a bar inside any required window.
    """

    trend_window: int = 240
    lookback_days: int = 40
    pre_window: int = 160
    post_window: int = 160
    measure_pre_window: int = 80
    max_halt_days: int = 22
    max_gap_fraction: float = 0.10

    def __post_init__(self) -> None:
        for name in ("trend_window", "lookback_days", "pre_window",
                     "post_window", "measure_pre_window", "max_halt_days"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.max_gap_fraction < 1:
            raise ValueError("max_gap_fraction must be in [0, 1)")

    @property
    def history_minutes(self) -> int:
        """Pre-halt coverage needed to classify and extract an event."""
        return max(self.trend_window, self.pre_window, self.measure_pre_window)


_HALT_TYPES = tuple(HaltType)


def _full_days(begin, resume):
    # per halt, its count of fully suspended days, below 0 when there are
    # none; day d is fully suspended iff its whole span [240d, 240d+239]
    # lies inside the halted range [begin, resume - 1]; capped at 2, it is
    # the halt's position in HaltType
    return resume // MINUTES_PER_DAY - (begin + MINUTES_PER_DAY - 1) \
        // MINUTES_PER_DAY


def classify_halt_type(record: HaltRecord, calendar: TradingCalendar) -> HaltType:
    """Classify by how many trading days the halt suspends end to end."""
    g_begin = record.global_begin(calendar)
    g_resume = record.global_resume(calendar)
    if g_resume <= g_begin:
        raise InvalidInterval(
            f"{record.stock_id}: resume at or before halt begin")
    return _HALT_TYPES[min(max(_full_days(g_begin, g_resume), 0), 2)]


# what _coverage_gap reports per span, by the code it decides
_GAPS = np.array(["", "calendar", "bars", "start", "end"])


def _coverage_gap(first, last, lo, hi, **windows: int) -> np.ndarray:
    """Per span lo..hi of global minutes, where its stock's bars first
    miss it: "calendar" (lo < 0), "bars" (the stock has none), "start"
    or "end"; "" where they cover it.

    ``first`` and ``last`` are the minutes of the stock's first and last
    bar, -1 for a stock without bars (see :func:`_bar_span`); all four
    arguments broadcast. ``windows`` name the lengths that set lo and
    hi, and a negative one raises ValueError.
    """
    for name, length in windows.items():
        if length < 0:
            raise ValueError(f"{name} must not be negative")
    return _GAPS[np.where(lo < 0, 1, np.where(first < 0, 2, np.where(
        first > lo, 3, np.where(last < hi, 4, 0))))]


def _bar_span(panel: Panel, stock_id: str) -> tuple[int, int]:
    # global minutes of the stock's first and last bar; -1 and -1 when it
    # has none or is not in the panel
    try:
        return panel.coverage(stock_id)
    except NoData:
        return -1, -1


def _active_days(panel: Panel, stock_id: str) -> np.ndarray:
    """Calendar days on which the stock has at least one bar: its history
    for the lookback check here and for the baselines of event_study."""
    return np.flatnonzero(panel.present_mask(stock_id).reshape(
        panel.calendar.n_days, MINUTES_PER_DAY).any(axis=1))


class _RecordColumns:
    """Halt records in key order, held as columns: the record table that a
    pass builds once and every later stage indexes into.

    ``order`` gives each sorted record's position in the sequence it came
    from, ``runs`` the (stock id, start, stop) of each stock's records,
    ``begin`` and ``resume`` the global minutes of each halt's first
    halted minute and of its resumption (``begin - 1`` is the last
    pre-halt minute and ``begin // MINUTES_PER_DAY`` the halt day),
    ``first`` and ``last`` its stock's :func:`_bar_span`, and
    ``halt_types`` its position in HaltType. None of these depends on the
    trend window. :meth:`take` gives the table of some of its rows.
    """

    _COLUMNS = ("order", "begin", "resume", "first", "last", "halt_types")

    def __init__(self, records: Sequence[HaltRecord], panel: Panel):
        self.order = np.array(sorted(range(len(records)),
                                     key=lambda i: records[i].sort_key()),
                              dtype=np.intp)
        self.records = [records[i] for i in self.order.tolist()]
        calendar = panel.calendar
        self.begin = np.array([r.global_begin(calendar)
                               for r in self.records], dtype=np.int64)
        self.resume = np.array([r.global_resume(calendar)
                                for r in self.records], dtype=np.int64)
        self._set_runs()
        spans = [_bar_span(panel, stock_id) for stock_id, _, _ in self.runs]
        self.first, self.last = self.per_record(
            np.array(spans, dtype=np.int64).reshape(-1, 2)).T
        self.halt_types = np.clip(_full_days(self.begin, self.resume), 0, 2)

    def _set_runs(self) -> None:
        ids = [r.stock_id for r in self.records]
        starts = [i for i, stock_id in enumerate(ids)
                  if not i or stock_id != ids[i - 1]]
        self.runs = [(ids[start], start, stop) for start, stop
                     in zip(starts, starts[1:] + [len(ids)])]

    def take(self, rows: np.ndarray) -> _RecordColumns:
        """The table of the ascending ``rows``: still in key order, so
        nothing is sorted or looked up again."""
        view = copy.copy(self)
        for name in self._COLUMNS:
            setattr(view, name, getattr(self, name)[rows])
        view.records = [self.records[i] for i in rows.tolist()]
        view._set_runs()
        return view

    def per_record(self, values: Sequence) -> np.ndarray:
        """One value per stock, in run order, repeated for its records."""
        return np.repeat(values, [stop - start for _, start, stop in self.runs],
                         axis=0)


def _successive(cols: _RecordColumns, config: EligibilityConfig,
                n_minutes: int) -> np.ndarray:
    """Per record, whether another halt of its stock begins inside its
    event window or it begins inside another's: a window that holds
    another begin marks every begin in it. The begins are searched in one
    sorted array, spaced per stock so that no window reaches a
    neighbouring stock's."""
    n = len(cols.records)
    key = cols.begin + cols.per_record(np.arange(len(cols.runs))) * (
        n_minutes + config.pre_window + config.post_window)
    lo = np.searchsorted(key, key - config.pre_window)
    hi = np.searchsorted(key, key - cols.begin + cols.resume
                         + config.post_window, side="right")
    crowded = hi - lo > 1
    return np.cumsum(np.bincount(lo[crowded], minlength=n + 1)
                     - np.bincount(hi[crowded], minlength=n + 1))[:n] > 0


def _gap_windows(config: EligibilityConfig) -> np.ndarray:
    # the lengths of the windows whose share of minutes without a bar is
    # capped: trend, pre and measure-pre, then post
    return np.array([config.trend_window, config.pre_window,
                     config.measure_pre_window, config.post_window])


def _read_stocks(panel: Panel, cols: _RecordColumns, history: np.ndarray,
                 config: EligibilityConfig,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per record, the bars in its trend, pre, measure-pre, halt and post
    windows, its stock's active days before its halt day, and the change
    of the filled log price over its trend window where ``history``
    holds; each stock's mask, active days and prices are read once.

    A record's span from its history's first minute through its post
    window's last, cut to the calendar, holds all five windows whenever
    the history and the post window are covered (elsewhere the counts
    are of no use, and ``cols.first`` is -1 for a stock without bars). One
    gather per stock reads the bars of its records' spans, one after
    another, and one ``reduceat`` sums each window's bars in them, so a
    stock's work and memory follow its records' spans, not the calendar.
    """
    n, first = len(cols.records), cols.first
    begin, resume, pre = cols.begin, cols.resume, cols.begin - 1
    span_lo = np.maximum(pre - config.history_minutes, 0)
    span_hi = np.where(first < 0, span_lo, np.minimum(
        resume + config.post_window + 1, panel.calendar.n_minutes))
    length = span_hi - span_lo
    # where each record's span starts in its stock's gather
    offset = np.cumsum(length) - length
    offset -= cols.per_record(offset[[a for _, a, _ in cols.runs]])
    # the five windows as (start, stop) positions in the gather; ``pairs``
    # alternates them, and reduceat sums bars[start:stop] at its even
    # places (an empty window gives an element, not 0)
    starts = np.column_stack([pre[:, None] - _gap_windows(config)[:3],
                              begin, resume])
    stops = np.column_stack([np.repeat(begin[:, None], 3, axis=1), resume,
                             resume + config.post_window + 1])
    starts, stops = (np.clip(ends, span_lo[:, None], span_hi[:, None])
                     - (span_lo - offset)[:, None] for ends in (starts, stops))
    width = 2 * starts.shape[1]
    pairs = np.stack([starts, stops], axis=-1).ravel()
    counts = np.zeros(pairs.size, dtype=np.intp)
    spans = list(zip(span_lo.tolist(), span_hi.tolist()))
    # one unread minute after a stock's spans keeps a window that stops
    # at their end in range
    pad = np.zeros(1, dtype=bool)
    day = begin // MINUTES_PER_DAY
    prior = np.zeros(n, dtype=np.intp)
    # the trend window's ends, at minute 0 where no trend is read
    trend = np.where(history[:, None], np.column_stack(
        [pre, pre - config.trend_window]), 0)
    prices = np.zeros(trend.shape)
    for stock_id, a, b in cols.runs:
        if first[a] < 0:
            continue
        present = panel.present_mask(stock_id)
        bars = np.concatenate([present[lo:hi] for lo, hi in spans[a:b]]
                              + [pad])
        counts[width * a:width * b] = np.add.reduceat(
            bars.view(np.uint8), pairs[width * a:width * b], dtype=np.intp)
        prior[a:b] = np.searchsorted(_active_days(panel, stock_id), day[a:b])
        if history[a:b].any():
            prices[a:b] = panel.log_prices(stock_id)[trend[a:b]]
    counts = np.where(stops > starts, counts.reshape(n, -1)[:, ::2], 0)
    return counts, prior, prices[:, 0] - prices[:, 1]


def filter_eligibility(records: Iterable[HaltRecord], panel: Panel,
                       config: EligibilityConfig = EligibilityConfig(),
                       ) -> list[HaltEvent]:
    """Classify every record and attach at most one rejection reason.

    Per-event checks run in a fixed order (successive neighbour, ST
    flag, halt span, real bars inside the halt, history, post window,
    data gaps) and the first failure wins, so a record gets exactly one
    reason even when several filters would fire. Two halts of one stock
    are successive when either begins inside the other's event window,
    which stretches from ``pre_window`` minutes before the halt to
    ``post_window`` minutes after resumption; both members of such a
    pair are rejected. The result is sorted by (stock_id, halt begin).

    The rules are decided in one array pass over the sorted records
    (:func:`_select`, which the pipeline runs on its record table): each
    rule is one array expression over all of them, the successive scan
    a search over the sorted begins (:func:`_successive`), the history
    and post windows one :func:`_coverage_gap` call each, and the bar
    counts, active days and trend prices one read per stock
    (:func:`_read_stocks`).
    """
    return _select(_RecordColumns(list(records), panel), panel,
                   config).events()


_SIGNS = (None, EventSign.POSITIVE, EventSign.NEGATIVE)


@dataclass(frozen=True, eq=False)
class _Selection:
    """One trend window's classification of a record table: per row, its
    sign (a position in ``_SIGNS``) and its verdict (a position in
    ``reasons``, 0 for eligible)."""

    table: _RecordColumns
    signs: np.ndarray
    verdicts: np.ndarray
    reasons: tuple[RejectionReason | None, ...]

    @property
    def eligible(self) -> np.ndarray:
        """The eligible records' rows, ascending."""
        return np.flatnonzero(self.verdicts == 0)

    def groups(self) -> list[tuple[HaltType, EventSign, tuple[int, ...]]]:
        """Each (halt type, sign) group of eligible records, in
        :func:`group_sort_key` order, with its rows, ascending."""
        rows = self.eligible
        codes = 2 * self.table.halt_types[rows] + self.signs[rows] - 1
        return [(halt_type, sign, tuple(rows[codes == code].tolist()))
                for code, (halt_type, sign)
                in enumerate(product(HaltType, EventSign))
                if (codes == code).any()]

    def events(self) -> list[HaltEvent]:
        """Every row as a :class:`HaltEvent`, in key order."""
        return [HaltEvent(rec, _HALT_TYPES[halt_type], _SIGNS[sign],
                          self.reasons[verdict])
                for rec, halt_type, sign, verdict in zip(
                    self.table.records, self.table.halt_types.tolist(),
                    self.signs.tolist(), self.verdicts.tolist())]


def _select(cols: _RecordColumns, panel: Panel,
            config: EligibilityConfig) -> _Selection:
    """The signs and verdicts of :func:`filter_eligibility` for the
    records of ``cols``; only these depend on the trend window."""
    if not cols.records:
        none = np.zeros(0, dtype=np.intp)
        return _Selection(cols, none, none, (None,))
    begin, resume, pre = cols.begin, cols.resume, cols.begin - 1
    first, last = cols.first, cols.last
    history = _coverage_gap(first, last, pre - config.history_minutes,
                            pre) == ""
    counts, prior, trend = _read_stocks(panel, cols, history, config)
    missing = 1.0 - counts[:, [0, 1, 2, 4]] / (_gap_windows(config) + 1)
    rules = (
        (RejectionReason.SUCCESSIVE,
         _successive(cols, config, panel.calendar.n_minutes)),
        (RejectionReason.ST_STOCK,
         np.array([r.is_st_stock for r in cols.records], dtype=bool)),
        (RejectionReason.TOO_LONG, resume // MINUTES_PER_DAY
         - begin // MINUTES_PER_DAY > config.max_halt_days),
        (RejectionReason.INSUFFICIENT_HISTORY, ~cols.per_record(
            [stock_id in panel for stock_id, _, _ in cols.runs])),
        (RejectionReason.BARS_IN_HALT, counts[:, 3] > 0),
        (RejectionReason.INSUFFICIENT_HISTORY,
         ~history | (prior < config.lookback_days)),
        (RejectionReason.INSUFFICIENT_POST_WINDOW,
         _coverage_gap(first, last, resume,
                       resume + config.post_window) != ""),
        (RejectionReason.DATA_GAP,
         (missing > config.max_gap_fraction).any(axis=1)),
    )
    verdicts = np.select([failed for _, failed in rules],
                         list(range(1, len(rules) + 1)), 0)
    # a sign only where the history is covered; an exactly flat trend
    # window counts as negative
    signs = np.where(history, np.where(trend > 0, 1, 2), 0)
    return _Selection(cols, signs, verdicts,
                      (None, *(reason for reason, _ in rules)))


@dataclass(frozen=True)
class CountTable:
    """Eligible-event counts by duration class and trend sign."""

    cells: tuple[tuple[HaltType, EventSign, int], ...]

    def count(self, halt_type: HaltType, sign: EventSign) -> int:
        for ht, s, n in self.cells:
            if ht is halt_type and s is sign:
                return n
        return 0

    def row_total(self, halt_type: HaltType) -> int:
        return sum(n for ht, _, n in self.cells if ht is halt_type)

    def sign_total(self, sign: EventSign) -> int:
        return sum(n for _, s, n in self.cells if s is sign)

    @property
    def total(self) -> int:
        return sum(n for _, _, n in self.cells)


def tabulate_counts(events: Iterable[HaltEvent]) -> CountTable:
    """Count eligible events in a fixed 3 x 2 layout with totals."""
    tally = {(ht, s): 0 for ht in HaltType for s in EventSign}
    for ev in events:
        if ev.eligible:
            if ev.sign is None:
                raise ValueError("eligible event without a sign")
            tally[(ev.halt_type, ev.sign)] += 1
    return CountTable(tuple((ht, s, tally[(ht, s)])
                            for ht in HaltType for s in EventSign))


def write_count_csv(table: CountTable, stream: IO[str]) -> None:
    """Write the count table with row, column and grand totals."""
    rows = [(ht.value, table.count(ht, EventSign.POSITIVE),
             table.count(ht, EventSign.NEGATIVE), table.row_total(ht))
            for ht in HaltType]
    rows.append(("total", table.sign_total(EventSign.POSITIVE),
                 table.sign_total(EventSign.NEGATIVE), table.total))
    stream.write(_csv_text([("halt_type", "positive", "negative", "total"),
                            *((label, *map(str, counts))
                              for label, *counts in rows)]))


def parse_halt_file(stream: IO[bytes] | IO[str],
                    calendar: TradingCalendar) -> list[HaltRecord]:
    """Parse the halt registry CSV (header required, is_st in {0,1}).

    Every bad row raises with ``line N:`` leading its message; a row
    whose fields are valid but whose halt or resume day is not on
    ``calendar`` raises UnknownDay.
    """
    records = []
    with _csv_reader(stream) as reader:
        header = next(reader, None)
        if header is None:
            return []
        if tuple(h.strip() for h in header) != HALT_CSV_HEADER:
            raise MalformedRow(f"line 1: bad header {header!r}")
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != 6:
                raise MalformedRow(f"line {lineno}: expected 6 fields, got {len(row)}")
            stock_id = row[0].strip()
            if not stock_id:
                raise MalformedRow(f"line {lineno}: empty stock_id")
            _check_stock_id(stock_id, lineno)
            try:
                halt_day = date.fromisoformat(row[1].strip())
                resume_day = date.fromisoformat(row[3].strip())
            except ValueError as exc:
                raise MalformedRow(f"line {lineno}: bad date") from exc
            try:
                halt_minute = int(row[2])
                resume_minute = int(row[4])
            except ValueError as exc:
                raise MalformedRow(f"line {lineno}: bad minute field") from exc
            flag = row[5].strip()
            if flag not in ("0", "1"):
                raise MalformedRow(f"line {lineno}: is_st must be 0 or 1, got {flag!r}")
            try:
                records.append(HaltRecord(stock_id, halt_day, halt_minute,
                                          resume_day, resume_minute, flag == "1"))
            except InvalidInterval as exc:
                raise InvalidInterval(f"line {lineno}: {exc}") from None
            for day in (halt_day, resume_day):
                if day not in calendar:
                    raise UnknownDay(
                        f"line {lineno}: {day} is not a trading day")
    return records


def _record_fields(rec: HaltRecord) -> tuple[str, ...]:
    # the texts of a record's stock, halt and resume fields
    return (_csv_field(rec.stock_id), rec.halt_day.isoformat(),
            str(rec.halt_minute), rec.resume_day.isoformat(),
            str(rec.resume_minute))


def write_halt_csv(records: Iterable[HaltRecord], stream: IO[str]) -> None:
    """Write a halt registry in canonical (stock_id, begin) order."""
    stream.write(_csv_text([HALT_CSV_HEADER, *(
        (*_record_fields(rec), str(int(rec.is_st_stock)))
        for rec in sorted(records, key=HaltRecord.sort_key))]))


def write_eligibility_report(events: Iterable[HaltEvent], stream: IO[str]) -> None:
    """Write one row per event with its classification and verdict."""
    stream.write(_csv_text([REPORT_CSV_HEADER, *(
        (*_record_fields(ev.record), ev.halt_type.value,
         "" if ev.sign is None else ev.sign.value, str(int(ev.eligible)),
         "" if ev.rejection_reason is None else ev.rejection_reason.value)
        for ev in events)]))
