"""Minute-bar panels on a fixed 240-minute exchange session.

The session runs 09:30-11:30 and 13:00-15:00. Bars carry a minute-ending
label: the bar labeled m aggregates the minute ending at its boundary, so
09:31 is minute 1, 11:30 is minute 120, 13:01 is minute 121 and 15:00 is
minute 240. A :class:`Panel` holds per-stock bar arrays on a shared
:class:`TradingCalendar` and is immutable once built; "global minute"
below means ``day_index * 240 + (minute - 1)``, a single axis of traded
minutes that crosses day boundaries.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import (
    CrossedQuote,
    DuplicateBar,
    MalformedRow,
    NoData,
    NonPositivePrice,
    UnknownDay,
)

MINUTES_PER_DAY = 240

BAR_CSV_HEADER = ("stock_id", "date", "minute",
                  "last_price", "volume", "best_bid", "best_ask")


@dataclass(frozen=True)
class TradingCalendar:
    """Ordered trading days plus the fixed 240-minute session layout."""

    trading_days: tuple[date, ...]

    def __post_init__(self) -> None:
        days = tuple(self.trading_days)
        object.__setattr__(self, "trading_days", days)
        for prev, cur in zip(days, days[1:]):
            if cur <= prev:
                raise ValueError(f"trading days not strictly increasing at {cur}")
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(days)})

    @classmethod
    def from_file(cls, path: str | Path) -> "TradingCalendar":
        """Load a calendar file: one YYYY-MM-DD per line, sorted."""
        days = []
        text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                days.append(date.fromisoformat(line))
            except ValueError as exc:
                raise MalformedRow(f"{path}:{lineno}: bad date {line!r}") from exc
        return cls(tuple(days))

    @property
    def n_days(self) -> int:
        return len(self.trading_days)

    @property
    def n_minutes(self) -> int:
        return len(self.trading_days) * MINUTES_PER_DAY

    def __contains__(self, day: date) -> bool:
        return day in self._index  # type: ignore[attr-defined]

    def day_index(self, day: date) -> int:
        try:
            return self._index[day]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownDay(f"{day} is not a trading day") from None

    def global_minute(self, day: date, minute: int) -> int:
        """Position of (day, minute) on the traded-minute axis."""
        if not 1 <= minute <= MINUTES_PER_DAY:
            raise ValueError(f"minute index out of range: {minute}")
        return self.day_index(day) * MINUTES_PER_DAY + (minute - 1)


_FLOAT_ARRAYS = ("price", "volume", "bid", "ask")
_ARRAYS = _FLOAT_ARRAYS + ("present", "synthetic")


class _StockData:
    """Read-only per-stock arrays over the calendar's traded-minute axis."""

    __slots__ = _ARRAYS + ("first", "last")

    def __init__(self, price: np.ndarray, volume: np.ndarray, bid: np.ndarray,
                 ask: np.ndarray, present: np.ndarray, synthetic: np.ndarray):
        for name, array in zip(_ARRAYS, (price, volume, bid, ask, present,
                                         synthetic)):
            array.setflags(write=False)
            setattr(self, name, array)
        idx = np.flatnonzero(present)
        self.first, self.last = (int(idx[0]), int(idx[-1])) if idx.size else (-1, -1)

    def equals(self, other: "_StockData") -> bool:
        return all(np.array_equal(getattr(self, name), getattr(other, name),
                                  equal_nan=name in _FLOAT_ARRAYS)
                   for name in _ARRAYS)


class Panel:
    """An immutable minute-bar panel for one calendar and many stocks.

    Bars are stored as flat numpy arrays indexed by global minute; absent
    bars are NaN in the float arrays and False in ``present_mask``. All
    array accessors return read-only views, so a Panel can be shared
    freely.
    """

    def __init__(self, calendar: TradingCalendar, stocks: dict[str, _StockData]):
        self._calendar = calendar
        self._stocks = dict(sorted(stocks.items()))
        self._log_cache: dict[str, np.ndarray] = {}

    @property
    def calendar(self) -> TradingCalendar:
        return self._calendar

    @property
    def stock_ids(self) -> tuple[str, ...]:
        return tuple(self._stocks)

    def __contains__(self, stock_id: str) -> bool:
        return stock_id in self._stocks

    @property
    def n_bars(self) -> int:
        return sum(int(d.present.sum()) for d in self._stocks.values())

    def _data(self, stock_id: str) -> _StockData:
        try:
            return self._stocks[stock_id]
        except KeyError:
            raise NoData(f"no bars for stock {stock_id}") from None

    def prices(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).price

    def volumes(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).volume

    def bids(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).bid

    def asks(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).ask

    def present_mask(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).present

    def real_mask(self, stock_id: str) -> np.ndarray:
        """True at minutes with an observed, not forward-filled, bar."""
        d = self._data(stock_id)
        return d.present & ~d.synthetic

    def log_prices(self, stock_id: str) -> np.ndarray:
        """Natural log of last prices (NaN where absent); cached per stock."""
        cached = self._log_cache.get(stock_id)
        if cached is None:
            with np.errstate(invalid="ignore"):
                cached = np.log(self._data(stock_id).price)
            cached.setflags(write=False)
            self._log_cache[stock_id] = cached
        return cached

    def coverage(self, stock_id: str) -> tuple[int, int]:
        """Global minutes of the first and last bar; NoData when empty."""
        d = self._data(stock_id)
        if d.first < 0:
            raise NoData(f"no bars for stock {stock_id}")
        return d.first, d.last

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        if self._calendar != other._calendar:
            return False
        if self.stock_ids != other.stock_ids:
            return False
        return all(self._stocks[s].equals(other._stocks[s]) for s in self._stocks)


class PanelBuilder:
    """Validates whole-calendar stock arrays, then freezes them into a Panel."""

    def __init__(self, calendar: TradingCalendar):
        self._calendar = calendar
        self._stocks: dict[str, _StockData] = {}

    def add_stock_arrays(self, stock_id: str, price: np.ndarray, volume: np.ndarray,
                         bid: np.ndarray, ask: np.ndarray,
                         present: np.ndarray) -> None:
        """Copy in one stock's arrays, indexed by global minute.

        The only way bars enter a Panel. Minutes not in ``present`` become
        NaN. A bar needs a finite positive price, a finite non-negative
        volume and an ask not below its bid; a NaN quote is a missing side.
        """
        n = self._calendar.n_minutes
        if stock_id in self._stocks:
            raise DuplicateBar(f"stock {stock_id} added twice")
        arrays = [np.asarray(a, float) for a in (price, volume, bid, ask)]
        present = np.asarray(present, bool)
        if any(a.shape != (n,) for a in arrays) or present.shape != (n,):
            raise ValueError("arrays must cover the full calendar")
        price, volume, bid, ask = (np.where(present, a, np.nan) for a in arrays)
        real = price[present]
        if not np.all((real > 0) & np.isfinite(real)):
            raise NonPositivePrice(f"{stock_id}: non-positive or non-finite price")
        real = volume[present]
        if not np.all((real >= 0) & np.isfinite(real)):
            raise ValueError(f"{stock_id}: negative or non-finite volume")
        if np.any(ask < bid):
            raise CrossedQuote(f"{stock_id}: crossed quote")
        self._stocks[stock_id] = _StockData(
            price, volume, bid, ask, present.copy(), np.zeros(n, dtype=bool))

    def build(self) -> Panel:
        return Panel(self._calendar, self._stocks)


@contextmanager
def _csv_reader(stream: IO[bytes] | IO[str]) -> Iterator:
    """A csv reader over ``stream`` whose read errors become MalformedRow.

    Bytes decode as UTF-8 with bad bytes kept as lone surrogates; those
    fail their row's number and date checks or :func:`_check_stock_id`.
    A text stream that fails to decode is reported at its next line. The
    caller's stream is left open.
    """
    wrapped = isinstance(stream, io.BufferedIOBase) or "b" in getattr(stream, "mode", "")
    text = io.TextIOWrapper(stream, encoding="utf-8",  # type: ignore[arg-type]
                            errors="surrogateescape", newline="") if wrapped else stream
    reader = csv.reader(text)
    try:
        yield reader
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"line {reader.line_num + 1}: {exc}") from None
    finally:
        if wrapped:
            text.detach()  # type: ignore[union-attr]


def _check_stock_id(stock_id: str, lineno: int) -> None:
    try:
        stock_id.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedRow(f"line {lineno}: undecodable stock_id {stock_id!r}") from None


def _parse_float(field: str, what: str, lineno: int) -> float:
    try:
        value = float(field)
    except ValueError as exc:
        raise MalformedRow(f"line {lineno}: unparseable {what} {field!r}") from exc
    if not math.isfinite(value):
        raise MalformedRow(f"line {lineno}: non-finite {what} {field!r}")
    return value


def parse_bar_file(stream: IO[bytes] | IO[str], calendar: TradingCalendar) -> Panel:
    """Parse the bar CSV (header required) into a Panel.

    Format: ``stock_id,date,minute,last_price,volume,best_bid,best_ask``
    with ISO dates, minute 1..240 and empty quote fields meaning missing.
    An entirely empty stream yields an empty panel. Every bad row raises
    with ``line N:`` leading its message.
    """
    n = calendar.n_minutes
    # raw date field -> (day, global minute just before the day's first
    # minute, or None when the day is not in the calendar)
    days: dict[str, tuple[date, int | None]] = {}
    # stock -> (price, volume, bid and ask rows; present)
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    with _csv_reader(stream) as reader:
        header = next(reader, None)
        if header is None:
            return PanelBuilder(calendar).build()
        if tuple(h.strip() for h in header) != BAR_CSV_HEADER:
            raise MalformedRow(f"line 1: bad header {header!r}")
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != 7:
                raise MalformedRow(f"line {lineno}: expected 7 fields, got {len(row)}")
            stock_id = row[0].strip()
            if not stock_id:
                raise MalformedRow(f"line {lineno}: empty stock_id")
            cached = days.get(row[1])
            if cached is None:
                try:
                    day = date.fromisoformat(row[1].strip())
                except ValueError as exc:
                    raise MalformedRow(f"line {lineno}: bad date {row[1]!r}") from exc
                cached = days[row[1]] = (
                    day, calendar.day_index(day) * MINUTES_PER_DAY - 1
                    if day in calendar else None)
            try:
                minute = int(row[2])
            except ValueError as exc:
                raise MalformedRow(f"line {lineno}: bad minute {row[2]!r}") from exc
            if not 1 <= minute <= MINUTES_PER_DAY:
                raise MalformedRow(f"line {lineno}: minute {minute} out of 1..240")
            price = _parse_float(row[3], "price", lineno)
            if price <= 0:
                raise NonPositivePrice(f"line {lineno}: price {price}")
            volume = _parse_float(row[4], "volume", lineno)
            if volume < 0:
                raise MalformedRow(f"line {lineno}: negative volume {volume}")
            bid = _parse_float(row[5], "bid", lineno) if row[5].strip() else None
            ask = _parse_float(row[6], "ask", lineno) if row[6].strip() else None
            if bid is not None and ask is not None and ask < bid:
                raise CrossedQuote(f"line {lineno}: ask {ask} < bid {bid}")
            day, minute_zero = cached
            if minute_zero is None:
                raise UnknownDay(f"line {lineno}: {day} is not a trading day")
            cols = columns.get(stock_id)
            if cols is None:
                _check_stock_id(stock_id, lineno)
                cols = columns[stock_id] = (np.full((4, n), np.nan),
                                            np.zeros(n, dtype=bool))
            values, present = cols
            g = minute_zero + minute
            if present[g]:
                raise DuplicateBar(f"duplicate bar {stock_id} {day} m{minute}")
            present[g] = True
            values[0, g] = price
            values[1, g] = volume
            if bid is not None:
                values[2, g] = bid
            if ask is not None:
                values[3, g] = ask
    builder = PanelBuilder(calendar)
    # hand over and release one stock at a time, so the raw columns and
    # the panel's arrays never both hold the whole panel
    while columns:
        stock_id, (values, present) = columns.popitem()
        builder.add_stock_arrays(stock_id, *values, present)
    return builder.build()


def _float_texts(values) -> list[str]:
    """The one float format of every written file: ``repr``, which reads
    back to the same bits, or an empty field for NaN (and for None)."""
    return ["" if math.isnan(v) else repr(v)
            for v in np.asarray(values, float).tolist()]


def write_bar_csv(panel: Panel, stream: IO[str]) -> None:
    """Write the real (non-synthetic) bars back out in canonical order.

    Floats are written with repr so parse -> write -> parse is lossless.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BAR_CSV_HEADER)
    days = [day.isoformat() for day in panel.calendar.trading_days]
    for stock_id in panel.stock_ids:
        g = np.flatnonzero(panel.real_mask(stock_id))
        day_idx, offset = np.divmod(g, MINUTES_PER_DAY)
        writer.writerows(zip(
            repeat(stock_id), map(days.__getitem__, day_idx.tolist()),
            (offset + 1).tolist(),
            _float_texts(panel.prices(stock_id)[g]),
            _float_texts(panel.volumes(stock_id)[g]),
            _float_texts(panel.bids(stock_id)[g]),
            _float_texts(panel.asks(stock_id)[g])))


def _filled(stock_id: str, d: _StockData) -> _StockData:
    """``d`` with every gap of its covered span filled; ``d`` when gap-free."""
    if d.first < 0:
        raise NoData(f"no bars for stock {stock_id}")
    missing = ~d.present[d.first:d.last + 1]
    if not missing.any():
        return d
    arrays = {name: getattr(d, name).copy() for name in _ARRAYS}
    pos = np.where(d.present, np.arange(d.present.size), -1)
    np.maximum.accumulate(pos, out=pos)
    target = np.flatnonzero(missing) + d.first
    src = pos[target]
    for name in ("price", "bid", "ask"):
        arrays[name][target] = arrays[name][src]
    arrays["volume"][target] = 0.0
    arrays["present"][target] = arrays["synthetic"][target] = True
    return _StockData(**arrays)


def forward_fill_all(panel: Panel) -> Panel:
    """Fill every gap between each stock's first and last bar.

    Filled bars repeat the previous last price (so their log return is
    exactly zero), carry zero volume and the previous bar's quotes, and
    count as present but not real (:meth:`Panel.real_mask`). Gap-free
    input is returned unchanged, and a stock without gaps keeps its
    arrays, which also makes the operation idempotent. A stock without
    any bar raises NoData.
    """
    stocks = {s: _filled(s, d) for s, d in panel._stocks.items()}
    if all(stocks[s] is d for s, d in panel._stocks.items()):
        return panel
    return Panel(panel.calendar, stocks)
