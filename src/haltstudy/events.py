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

import csv
from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import IO, Iterable

import numpy as np

from .errors import (
    InsufficientHistory,
    InvalidInterval,
    MalformedRow,
    NoData,
    UnknownDay,
)
from .market_data import (MINUTES_PER_DAY, Panel, TradingCalendar,
                          _check_stock_id, _csv_reader)

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

    def global_pre(self, calendar: TradingCalendar) -> int:
        """Global minute of the last traded minute before the halt.

        Negative when the halt begins at the very first calendar minute.
        """
        return self.global_begin(calendar) - 1

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
    missing or filled-in minutes inside any required window.
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


def classify_halt_type(record: HaltRecord, calendar: TradingCalendar) -> HaltType:
    """Classify by how many trading days the halt suspends end to end."""
    g_begin = record.global_begin(calendar)
    g_resume = record.global_resume(calendar)
    if g_resume <= g_begin:
        raise InvalidInterval(
            f"{record.stock_id}: resume at or before halt begin")
    # day d is fully suspended iff its whole span [240d, 240d+239] lies
    # inside the halted range [g_begin, g_resume - 1]
    first_full = (g_begin + MINUTES_PER_DAY - 1) // MINUTES_PER_DAY
    past_last = g_resume // MINUTES_PER_DAY
    full_days = max(0, past_last - first_full)
    if full_days == 0:
        return HaltType.INTRADAY
    if full_days == 1:
        return HaltType.ONE_DAY
    return HaltType.INTER_DAY


def classify_sign(panel: Panel, record: HaltRecord,
                  trend_window: int = EligibilityConfig.trend_window,
                  ) -> EventSign:
    """Sign of the log-price change over the window before the halt.

    The change is measured from ``trend_window`` traded minutes before
    the last pre-halt minute up to that minute; an exactly flat window
    counts as negative.
    """
    if trend_window < 1:
        raise ValueError("trend_window must be positive")
    g_pre = record.global_pre(panel.calendar)
    g_from = g_pre - trend_window
    if g_from < 0:
        raise InsufficientHistory(
            f"{record.stock_id}: trend window starts before the calendar")
    if record.stock_id not in panel:
        raise InsufficientHistory(f"no bars for stock {record.stock_id}")
    present = panel.present_mask(record.stock_id)
    if not (present[g_pre] and present[g_from]):
        raise InsufficientHistory(
            f"{record.stock_id}: no bar at a trend-window endpoint")
    lnp = panel.log_prices(record.stock_id)
    trend = lnp[g_pre] - lnp[g_from]
    return EventSign.POSITIVE if trend > 0 else EventSign.NEGATIVE


def _has_coverage(panel: Panel, record: HaltRecord,
                  config: EligibilityConfig) -> bool:
    # enough contiguous bars before the halt to classify and extract
    if record.stock_id not in panel:
        return False
    g_pre = record.global_pre(panel.calendar)
    if g_pre - config.history_minutes < 0:
        return False
    try:
        first, last = panel.coverage(record.stock_id)
    except NoData:
        return False
    return first <= g_pre - config.history_minutes and g_pre <= last


def _real_bars(panel: Panel, stock_id: str) -> tuple[np.ndarray, np.ndarray]:
    # real-bar mask, and per calendar day the number of earlier days on
    # which the stock has a real bar
    real = panel.real_mask(stock_id)
    per_day = real.reshape(panel.calendar.n_days, MINUTES_PER_DAY).any(axis=1)
    return real, np.concatenate(([0], np.cumsum(per_day)))


def _worst_gap_fraction(real: np.ndarray, calendar: TradingCalendar,
                        record: HaltRecord, config: EligibilityConfig) -> float:
    g_pre = record.global_pre(calendar)
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


def _rejection_reason(panel: Panel, record: HaltRecord, index: int,
                      successive: list[bool], config: EligibilityConfig,
                      real_bars: tuple[np.ndarray, np.ndarray] | None,
                      ) -> RejectionReason | None:
    cal = panel.calendar
    if successive[index]:
        return RejectionReason.SUCCESSIVE
    if record.is_st_stock:
        return RejectionReason.ST_STOCK
    if cal.day_index(record.resume_day) - cal.day_index(record.halt_day) \
            > config.max_halt_days:
        return RejectionReason.TOO_LONG
    if real_bars is not None and real_bars[0][
            record.global_begin(cal):record.global_resume(cal)].any():
        return RejectionReason.BARS_IN_HALT
    if not _has_coverage(panel, record, config):
        return RejectionReason.INSUFFICIENT_HISTORY
    real, prior_days = real_bars
    if prior_days[cal.day_index(record.halt_day)] < config.lookback_days:
        return RejectionReason.INSUFFICIENT_HISTORY
    last = panel.coverage(record.stock_id)[1]
    if last < record.global_resume(cal) + config.post_window:
        return RejectionReason.INSUFFICIENT_POST_WINDOW
    if _worst_gap_fraction(real, cal, record, config) > config.max_gap_fraction:
        return RejectionReason.DATA_GAP
    return None


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
    """
    cal = panel.calendar
    ordered = sorted(records, key=HaltRecord.sort_key)
    begins = [r.global_begin(cal) for r in ordered]
    resumes = [r.global_resume(cal) for r in ordered]
    by_stock: dict[str, list[int]] = {}
    for i, rec in enumerate(ordered):
        by_stock.setdefault(rec.stock_id, []).append(i)
    successive = [False] * len(ordered)
    for indices in by_stock.values():
        for i in indices:
            lo = begins[i] - config.pre_window
            hi = resumes[i] + config.post_window
            for j in indices:
                if j != i and lo <= begins[j] <= hi:
                    successive[i] = successive[j] = True
    real_bars = {s: _real_bars(panel, s) for s in by_stock if s in panel}
    events = []
    for i, rec in enumerate(ordered):
        halt_type = classify_halt_type(rec, cal)
        sign = None
        if _has_coverage(panel, rec, config):
            sign = classify_sign(panel, rec, config.trend_window)
        reason = _rejection_reason(panel, rec, i, successive, config,
                                   real_bars.get(rec.stock_id))
        events.append(HaltEvent(rec, halt_type, sign, reason))
    return events


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
