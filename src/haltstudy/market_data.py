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
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import IO

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
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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

    def location(self, global_minute: int) -> tuple[date, int]:
        """Inverse of :meth:`global_minute`."""
        if not 0 <= global_minute < self.n_minutes:
            raise ValueError(f"global minute out of range: {global_minute}")
        day_idx, offset = divmod(global_minute, MINUTES_PER_DAY)
        return self.trading_days[day_idx], offset + 1


@dataclass(frozen=True)
class MinuteBar:
    """One stock-minute: last trade price, traded volume and best quotes."""

    stock_id: str
    day: date
    minute: int
    last_price: float
    volume: float
    best_bid: float | None = None
    best_ask: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.minute <= MINUTES_PER_DAY:
            raise ValueError(f"minute index out of range: {self.minute}")
        if not (self.last_price > 0 and math.isfinite(self.last_price)):
            raise NonPositivePrice(
                f"{self.stock_id} {self.day} m{self.minute}: price {self.last_price}")
        if self.volume < 0 or not math.isfinite(self.volume):
            raise ValueError(f"negative or non-finite volume: {self.volume}")
        if (self.best_bid is not None and self.best_ask is not None
                and self.best_ask < self.best_bid):
            raise CrossedQuote(
                f"{self.stock_id} {self.day} m{self.minute}: "
                f"ask {self.best_ask} < bid {self.best_bid}")

    @property
    def spread(self) -> float | None:
        """Best ask minus best bid, or None when either side is missing."""
        if self.best_bid is None or self.best_ask is None:
            return None
        return self.best_ask - self.best_bid


_FLOAT_ARRAYS = ("price", "volume", "bid", "ask")
_ARRAYS = _FLOAT_ARRAYS + ("present", "synthetic")


class _StockData:
    """Flat per-stock arrays over the calendar's traded-minute axis."""

    __slots__ = _ARRAYS + ("first", "last")

    def __init__(self, n: int):
        self.price = np.full(n, np.nan)
        self.volume = np.full(n, np.nan)
        self.bid = np.full(n, np.nan)
        self.ask = np.full(n, np.nan)
        self.present = np.zeros(n, dtype=bool)
        self.synthetic = np.zeros(n, dtype=bool)
        self.first = -1
        self.last = -1

    def finalize(self) -> None:
        idx = np.flatnonzero(self.present)
        if idx.size:
            self.first = int(idx[0])
            self.last = int(idx[-1])
        for name in _ARRAYS:
            getattr(self, name).setflags(write=False)

    def copy_mutable(self) -> "_StockData":
        out = _StockData.__new__(_StockData)
        for name in _ARRAYS:
            setattr(out, name, getattr(self, name).copy())
        out.first, out.last = self.first, self.last
        return out

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

    def synthetic_mask(self, stock_id: str) -> np.ndarray:
        return self._data(stock_id).synthetic

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
    """Accumulates bars, validating invariants, then freezes into a Panel."""

    def __init__(self, calendar: TradingCalendar):
        self._calendar = calendar
        self._stocks: dict[str, _StockData] = {}

    def _stock(self, stock_id: str) -> _StockData:
        d = self._stocks.get(stock_id)
        if d is None:
            d = _StockData(self._calendar.n_minutes)
            self._stocks[stock_id] = d
        return d

    def add_bar(self, stock_id: str, day: date, minute: int, price: float,
                volume: float, bid: float | None, ask: float | None) -> None:
        if day not in self._calendar:
            raise UnknownDay(f"{day} is not a trading day")
        bar = MinuteBar(stock_id, day, minute, price, volume, bid, ask)
        d = self._stock(stock_id)
        g = self._calendar.global_minute(day, minute)
        if d.present[g]:
            raise DuplicateBar(f"duplicate bar {stock_id} {day} m{minute}")
        d.present[g] = True
        d.price[g] = bar.last_price
        d.volume[g] = bar.volume
        if bid is not None:
            d.bid[g] = bid
        if ask is not None:
            d.ask[g] = ask

    def add_stock_arrays(self, stock_id: str, price: np.ndarray, volume: np.ndarray,
                         bid: np.ndarray, ask: np.ndarray,
                         present: np.ndarray) -> None:
        """Bulk path for generators: arrays indexed by global minute."""
        n = self._calendar.n_minutes
        if stock_id in self._stocks:
            raise DuplicateBar(f"stock {stock_id} added twice")
        arrays = [np.asarray(price, float), np.asarray(volume, float),
                  np.asarray(bid, float), np.asarray(ask, float)]
        present = np.asarray(present, bool)
        if any(a.shape != (n,) for a in arrays) or present.shape != (n,):
            raise ValueError("arrays must cover the full calendar")
        price, volume, bid, ask = arrays
        if not np.all(price[present] > 0):
            raise NonPositivePrice(f"{stock_id}: non-positive price in bulk data")
        both = present & ~np.isnan(bid) & ~np.isnan(ask)
        if np.any(ask[both] < bid[both]):
            raise CrossedQuote(f"{stock_id}: crossed quote in bulk data")
        d = _StockData.__new__(_StockData)
        d.price = np.where(present, price, np.nan)
        d.volume = np.where(present, volume, np.nan)
        d.bid = np.where(present, bid, np.nan)
        d.ask = np.where(present, ask, np.nan)
        d.present = present.copy()
        d.synthetic = np.zeros(n, dtype=bool)
        d.first = d.last = -1
        self._stocks[stock_id] = d

    def build(self) -> Panel:
        for d in self._stocks.values():
            d.finalize()
        return Panel(self._calendar, self._stocks)


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
    An entirely empty stream yields an empty panel.
    """
    if isinstance(stream, io.BufferedIOBase) or "b" in getattr(stream, "mode", ""):
        stream = io.TextIOWrapper(stream, encoding="utf-8")  # type: ignore[arg-type]
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        return PanelBuilder(calendar).build()
    if tuple(h.strip() for h in header) != BAR_CSV_HEADER:
        raise MalformedRow(f"line 1: bad header {header!r}")
    builder = PanelBuilder(calendar)
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != 7:
            raise MalformedRow(f"line {lineno}: expected 7 fields, got {len(row)}")
        stock_id = row[0].strip()
        if not stock_id:
            raise MalformedRow(f"line {lineno}: empty stock_id")
        try:
            day = date.fromisoformat(row[1].strip())
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: bad date {row[1]!r}") from exc
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
        builder.add_bar(stock_id, day, minute, price, volume, bid, ask)
    return builder.build()


def write_bar_csv(panel: Panel, stream: IO[str]) -> None:
    """Write the real (non-synthetic) bars back out in canonical order.

    Floats are written with repr so parse -> write -> parse is lossless.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BAR_CSV_HEADER)
    cal = panel.calendar
    for stock_id in panel.stock_ids:
        price = panel.prices(stock_id)
        volume = panel.volumes(stock_id)
        bid = panel.bids(stock_id)
        ask = panel.asks(stock_id)
        real = panel.real_mask(stock_id)
        for g in np.flatnonzero(real):
            day, minute = cal.location(int(g))
            writer.writerow([
                stock_id, day.isoformat(), minute,
                repr(float(price[g])), repr(float(volume[g])),
                "" if np.isnan(bid[g]) else repr(float(bid[g])),
                "" if np.isnan(ask[g]) else repr(float(ask[g])),
            ])


def forward_fill(panel: Panel, stock_id: str) -> Panel:
    """Fill every gap between a stock's first and last bar.

    Filled bars repeat the previous last price (so their log return is
    exactly zero), carry zero volume, carry the previous bar's quotes and
    are flagged in ``synthetic_mask``. Gap-free input is returned unchanged,
    which also makes the operation idempotent.
    """
    d = panel._data(stock_id)
    if d.first < 0:
        raise NoData(f"no bars for stock {stock_id}")
    span = slice(d.first, d.last + 1)
    missing = ~d.present[span]
    if not missing.any():
        return panel
    out = d.copy_mutable()
    pos = np.where(d.present, np.arange(d.present.size), -1)
    np.maximum.accumulate(pos, out=pos)
    target = np.flatnonzero(missing) + d.first
    src = pos[target]
    out.price[target] = out.price[src]
    out.volume[target] = 0.0
    out.bid[target] = out.bid[src]
    out.ask[target] = out.ask[src]
    out.present[target] = True
    out.synthetic[target] = True
    out.finalize()
    stocks = dict(panel._stocks)
    stocks[stock_id] = out
    return Panel(panel.calendar, stocks)


def forward_fill_all(panel: Panel) -> Panel:
    """Apply :func:`forward_fill` to every stock in the panel."""
    for stock_id in panel.stock_ids:
        panel = forward_fill(panel, stock_id)
    return panel

