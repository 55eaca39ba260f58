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
import json
import math
import os
import stat
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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
        # read_text turns every line end into \n; splitlines() would also
        # break at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
        for lineno, line in enumerate(text.split("\n"), start=1):
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
_ARRAYS = _FLOAT_ARRAYS + ("present",)


class _StockData:
    """Read-only per-stock arrays over the calendar's traded-minute axis."""

    __slots__ = _ARRAYS + ("first", "last")

    def __init__(self, price: np.ndarray, volume: np.ndarray, bid: np.ndarray,
                 ask: np.ndarray, present: np.ndarray):
        for name, array in zip(_ARRAYS, (price, volume, bid, ask, present)):
            array.setflags(write=False)
            setattr(self, name, array)
        idx = np.flatnonzero(present)
        self.first, self.last = (int(idx[0]), int(idx[-1])) if idx.size else (-1, -1)

    def equals(self, other: "_StockData") -> bool:
        """Same arrays: floats by value with NaN equal to NaN, and zeros
        by their sign, so -0.0 and 0.0 differ."""
        if not np.array_equal(self.present, other.present):
            return False
        for name in _FLOAT_ARRAYS:
            a, b = getattr(self, name), getattr(other, name)
            if not np.array_equal(a, b, equal_nan=True):
                return False
            zero = a == 0
            if not np.array_equal(np.signbit(a[zero]), np.signbit(b[zero])):
                return False
        return True


class Panel:
    """An immutable minute-bar panel for one calendar and many stocks.

    Bars are stored as flat numpy arrays indexed by global minute; absent
    bars are NaN in the float arrays and False in ``present_mask``; only
    :meth:`log_prices` carries a price across a gap. All array accessors
    return read-only views, so a Panel can be shared freely.
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

    def log_prices(self, stock_id: str) -> np.ndarray:
        """Natural log of last prices, cached per stock, and the one place
        a gap is filled: each absent minute between the first and the last
        bar carries the previous bar's price (a log return of exactly 0.0);
        the minutes outside that span are NaN."""
        cached = self._log_cache.get(stock_id)
        if cached is None:
            d = self._data(stock_id)
            price = d.price
            if d.first >= 0 and not d.present[d.first:d.last + 1].all():
                pos = np.where(d.present, np.arange(price.size), 0)
                np.maximum.accumulate(pos, out=pos)
                price = price[pos]
                price[:d.first] = price[d.last + 1:] = np.nan
            with np.errstate(invalid="ignore"):
                cached = np.log(price)
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
        self._stocks[stock_id] = _StockData(price, volume, bid, ask,
                                            present.copy())

    def build(self) -> Panel:
        return Panel(self._calendar, self._stocks)


# characters of whole bar lines checked and stored as one block (about
# 340 synthetic bars); a block's field strings raise peak memory, by
# 0.6-0.8 MB at this size on a 241 440-bar file, 1.0 MB at 64 KiB and
# 1.6 MB at 128 KiB, with no clear gain in speed beyond it
_BLOCK_CHARS = 1 << 15


class _Rows:
    """The csv rows of a text stream, which can also hand out its raw
    lines a block at a time; ``line_num`` counts the lines taken either
    way. Iterate only after the last :meth:`block` or :meth:`hand_back`.
    """

    def __init__(self, text: IO[str]):
        self._text = text
        self._reader = csv.reader(text)
        self._offset = 0        # lines taken before the reader's first

    @property
    def line_num(self) -> int:
        return self._offset + self._reader.line_num

    def __next__(self) -> list[str]:
        return next(self._reader)

    def __iter__(self) -> Iterator[list[str]]:
        return self._reader

    def block(self, hint: int) -> list[str]:
        """The next whole lines, about ``hint`` characters; empty at the
        end of the stream. A decode error is kept for the rows: they read
        the lines before it, then raise it where csv alone would have."""
        lines: list[str] = []
        size = 0
        try:
            for line in self._text:
                lines.append(line)
                size += len(line)
                if size >= hint:
                    break
        except UnicodeDecodeError as exc:
            self._offset += self._reader.line_num
            self._reader = csv.reader(chain(lines, _raising(exc)))
            return []
        self._offset += len(lines)
        return lines

    def hand_back(self, lines: list[str]) -> None:
        """Read the last block's ``lines`` as csv rows again, then the
        rest of the stream."""
        self._offset += self._reader.line_num - len(lines)
        self._reader = csv.reader(chain(lines, self._text))


def _raising(exc: Exception) -> Iterator[str]:
    raise exc
    yield


@contextmanager
def _csv_reader(stream: IO[bytes] | IO[str]) -> Iterator[_Rows]:
    """The :class:`_Rows` of ``stream``, whose read errors become
    MalformedRow.

    Bytes decode as UTF-8 with bad bytes kept as lone surrogates; those
    fail their row's number and date checks or :func:`_check_stock_id`.
    A text stream that fails to decode is reported at its next line. The
    caller's stream is left open.
    """
    wrapped = isinstance(stream, io.BufferedIOBase) or "b" in getattr(stream, "mode", "")
    text = io.TextIOWrapper(stream, encoding="utf-8",  # type: ignore[arg-type]
                            errors="surrogateescape", newline="") if wrapped else stream
    reader = _Rows(text)  # type: ignore[arg-type]
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


def _day_start(days: dict, field: str,
               calendar: TradingCalendar) -> tuple[date, int | None]:
    """The cached ``days`` entry of a raw date field; ValueError when the
    field is not an ISO date."""
    cached = days.get(field)
    if cached is None:
        day = date.fromisoformat(field.strip())
        cached = days[field] = (
            day, calendar.day_index(day) * MINUTES_PER_DAY - 1
            if day in calendar else None)
    return cached


def _quote_column(fields: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Quotes of one column and the mask of its empty or whitespace-only
    fields, which are NaN; ValueError for any other field float rejects."""
    try:
        return (np.fromiter(map(float, fields), float, len(fields)),
                np.zeros(len(fields), bool))
    except ValueError:
        blank = np.fromiter((not f.strip() for f in fields), bool, len(fields))
        return np.fromiter((np.nan if b else float(f)
                            for f, b in zip(fields, blank.tolist())),
                           float, len(fields)), blank


def _store_block(lines: list[str], calendar: TradingCalendar, days: dict,
                 columns: dict) -> bool:
    """Check a block of bar lines by column and store its bars; False,
    with nothing stored, unless every line is plain and a valid new bar.

    A plain line has no quote, no carriage return, no lone surrogate and
    is no longer than the csv field limit, so csv would split it at its
    commas alone. Fields are read by the builtins the row loop of
    :func:`parse_bar_file` uses, so a stored value has the same bits; a
    block this function declines gets its rows, values and first error
    from that loop.
    """
    text = "".join(lines)
    if ('"' in text or "\r" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return False
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
    # csv reads a blank line as no row; the last field keeps its line's
    # newline, which float and int strip like any whitespace
    rows = list(map(str.split, filter("\n".__ne__, lines), repeat(",")))
    if not rows:
        return True
    if set(map(len, rows)) != {7}:
        return False
    m = len(rows)
    ids, day_fields, minute_fields, *number_fields = zip(*rows)
    stock_of = {raw: raw.strip() for raw in set(ids)}
    if not all(stock_of.values()):
        return False
    zero_of = {}
    for field in set(day_fields):
        try:
            zero_of[field] = _day_start(days, field, calendar)[1]
        except ValueError:
            return False
        if zero_of[field] is None:
            return False
    try:
        minute = np.fromiter(map(int, minute_fields), np.int64, m)
        price, volume = (np.fromiter(map(float, fields), float, m)
                         for fields in number_fields[:2])
        (bid, no_bid), (ask, no_ask) = map(_quote_column, number_fields[2:])
    except (ValueError, OverflowError):
        return False
    if not np.all((minute >= 1) & (minute <= MINUTES_PER_DAY)
                  & (price > 0) & np.isfinite(price)
                  & (volume >= 0) & np.isfinite(volume)
                  & (np.isfinite(bid) | no_bid) & (np.isfinite(ask) | no_ask)
                  & ~(ask < bid)):
        return False
    g = np.fromiter(map(zero_of.__getitem__, day_fields), np.int64, m) + minute
    # each stock's rows; a block usually holds one stock
    stocks = list(dict.fromkeys(stock_of.values()))
    at: list = [slice(None)]
    if len(stocks) > 1:
        code_of = {raw: stocks.index(stock_id) for raw, stock_id in stock_of.items()}
        codes = np.fromiter(map(code_of.__getitem__, ids), np.int64, m)
        at = [np.flatnonzero(codes == k) for k in range(len(stocks))]
    for stock_id, rows_k in zip(stocks, at):
        minutes = np.sort(g[rows_k])
        if (minutes[1:] == minutes[:-1]).any():
            return False
        if stock_id in columns and columns[stock_id][1][minutes].any():
            return False
    for stock_id, rows_k in zip(stocks, at):
        cols = columns.get(stock_id)
        if cols is None:
            n = calendar.n_minutes
            cols = columns[stock_id] = (np.full((4, n), np.nan),
                                        np.zeros(n, dtype=bool))
        values, present = cols
        values[:, g[rows_k]] = [c[rows_k] for c in (price, volume, bid, ask)]
        present[g[rows_k]] = True
    return True


def parse_bar_file(stream: IO[bytes] | IO[str], calendar: TradingCalendar) -> Panel:
    """Parse the bar CSV (header required) into a Panel.

    Format: ``stock_id,date,minute,last_price,volume,best_bid,best_ask``
    with ISO dates, minute 1..240 and empty quote fields meaning missing.
    An entirely empty stream yields an empty panel. Every bad row raises
    with ``line N:`` leading its message.

    Lines are read in blocks of about ``_BLOCK_CHARS`` characters and
    stored by column (:func:`_store_block`). From the first block that
    function declines, rows are read one at a time by csv, with the same
    values, and every error and its message comes from that row loop.
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
        while lines := reader.block(_BLOCK_CHARS):
            if not _store_block(lines, calendar, days, columns):
                reader.hand_back(lines)
                break
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
                cached = _day_start(days, row[1], calendar)
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


class _ChecksummedFile(io.FileIO):
    """A file opened for reading that keeps the CRC-32 and the length of
    every byte :meth:`read` returns since it was opened or rewound.

    A FileIO itself rather than a wrapper around one, read without a
    buffer in between: text read through it then pays no Python call
    per line, only one per chunk.
    """

    crc = size = 0

    def rewind(self) -> None:
        self.seek(0)
        self.crc = self.size = 0

    def read(self, size: int = -1) -> bytes:
        data = super().read(size)
        if data:
            self.crc = zlib.crc32(data, self.crc)
            self.size += len(data)
        return data


# version of the packed copy's layout; a copy of any other is not read
_PACKED_VERSION = 1


def _load_packed(packed: Path, raw: _ChecksummedFile,
                 calendar: TradingCalendar) -> Panel | None:
    """The panel a packed copy holds when it was made from bytes of the
    length and checksum of ``raw``'s, on this calendar; None when it is
    not. ``raw`` is read to its end, unless the lengths already differ.

    Its arrays go through :meth:`PanelBuilder.add_stock_arrays` like
    parsed ones. A copy that cannot be read raises.
    """
    with np.load(packed) as npz:
        meta = json.loads(npz["meta"].tobytes())
        days = [day.isoformat() for day in calendar.trading_days]
        if (meta["version"], meta["size"], meta["days"]) != (
                _PACKED_VERSION, os.fstat(raw.fileno()).st_size, days):
            return None
        while raw.read(1 << 16):
            pass
        if (raw.size, raw.crc) != (meta["size"], meta["crc32"]):
            return None
        builder = PanelBuilder(calendar)
        for k, stock_id in enumerate(meta["stocks"]):
            # one stock's packed arrays are released before the next is read
            builder.add_stock_arrays(stock_id, *_packed_stock(npz, k))
    return builder.build()


def _packed_stock(npz, k: int) -> list[np.ndarray]:
    """Stock ``k``'s price, volume, bid and ask rows and present mask.

    Their dtypes are checked here, since the builder would convert any
    other; it checks their shapes.
    """
    values, present = npz[f"values{k}"], npz[f"present{k}"]
    if (values.dtype, present.dtype) != (np.float64, np.bool_):
        raise ValueError(f"packed stock {k} has the wrong dtypes")
    return [*values, present]


def _write_packed(packed: Path, panel: Panel, size: int, crc: int) -> None:
    """Write ``panel`` as the packed copy of ``size`` bytes whose CRC-32
    is ``crc``: into a temporary file beside it, then renamed into place.

    The copy is an uncompressed ``.npz``: a ``meta`` member (the layout
    version, length, checksum, calendar days and stock ids as JSON) and
    per stock ``k`` its price, volume, bid and ask rows as ``values{k}``
    and its ``present{k}`` mask. Each member is written from the panel's
    own arrays, so nothing is copied whole.
    """
    stocks = panel.stock_ids
    meta = {"version": _PACKED_VERSION, "size": size, "crc32": crc,
            "days": [day.isoformat() for day in panel.calendar.trading_days],
            "stocks": list(stocks)}
    fd, tmp = tempfile.mkstemp(prefix=f".{packed.name}.", suffix=".tmp",
                               dir=packed.parent)
    try:
        with open(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            def member(name: str, shape: tuple, *rows: np.ndarray) -> None:
                # the .npy of ``rows`` laid end to end in ``shape``; a
                # ZipInfo of its own has no time stamp, so equal panels
                # give equal bytes
                header = np.lib.format.header_data_from_array_1_0(rows[0])
                header["shape"] = shape
                info = zipfile.ZipInfo(f"{name}.npy")
                with zf.open(info, "w", force_zip64=True) as out:
                    np.lib.format.write_array_header_1_0(out, header)
                    for row in rows:
                        out.write(row.data)
            text = np.frombuffer(json.dumps(meta).encode(), np.uint8)
            member("meta", text.shape, text)
            n = panel.calendar.n_minutes
            for k, stock_id in enumerate(stocks):
                member(f"values{k}", (4, n), panel.prices(stock_id),
                       panel.volumes(stock_id), panel.bids(stock_id),
                       panel.asks(stock_id))
                member(f"present{k}", (n,), panel.present_mask(stock_id))
        os.replace(tmp, packed)
    except BaseException:
        os.unlink(tmp)
        raise


def load_bar_file(path: str | Path, calendar: TradingCalendar) -> Panel:
    """The panel of the bar CSV at ``path``, as :func:`parse_bar_file`
    reads it.

    A regular file keeps a packed copy of its panel beside it
    (``bars.csv.npz``), tagged with the byte length and CRC-32 of the
    bytes parsed and with the calendar's days. When all three match the
    file, the panel is loaded from that copy instead of parsed. A copy
    that is missing, stale or unreadable, or a directory that cannot be
    written, only means a parse, and the parse writes the copy anew;
    errors are always the parser's. Anything that is not a regular file
    is parsed from its stream and keeps no copy.
    """
    path = Path(path)
    packed = path.with_name(path.name + ".npz")
    # a str, as open() passes it on, so an error names the file the same way
    with _ChecksummedFile(os.fspath(path)) as raw:
        if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            return parse_bar_file(raw, calendar)
        try:
            panel = _load_packed(packed, raw, calendar)
        except Exception:
            # the copy is only a cache: whatever reading it raises (a
            # missing, truncated or foreign file), the parse decides
            panel = None
        if panel is not None:
            return panel
        raw.rewind()
        panel = parse_bar_file(raw, calendar)
        # a file that changed length while it was read keeps no copy
        if raw.size == os.fstat(raw.fileno()).st_size:
            try:
                _write_packed(packed, panel, raw.size, raw.crc)
            except OSError:
                pass        # a directory that cannot be written, a full disk
    return panel


def _float_texts(values) -> list[str]:
    """The one float format of every written file: ``repr``, which reads
    back to the same bits, or an empty field for NaN (and for None)."""
    values = np.asarray(values, float)
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        texts[i] = ""
    return texts


# the characters that make a text field quoted: csv's minimal quoting
# for a "\n" line ending, plus "\r", which a reader also takes for a
# line break
_QUOTED = frozenset(',"\n\r')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: as it is, or, when it holds a comma, a
    quote or a line break, quoted with each quote doubled."""
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """The CSV text of ``rows``, each two or more field texts: fields
    joined by commas, every line ended by ``\\n``.

    The one line writer of every CSV file the package writes. A field
    is written as it is given, so text that may hold a comma, a quote or
    a line break goes through :func:`_csv_field` first.
    """
    text = "\n".join(map(",".join, rows))
    return text + "\n" if text else text


def write_bar_csv(panel: Panel, stream: IO[str]) -> None:
    """Write the bars back out in canonical order.

    Floats are written with repr so parse -> write -> parse is lossless.
    """
    stream.write(_csv_text([BAR_CSV_HEADER]))
    days = [day.isoformat() for day in panel.calendar.trading_days]
    for stock_id in panel.stock_ids:
        g = np.flatnonzero(panel.present_mask(stock_id))
        day_idx, offset = np.divmod(g, MINUTES_PER_DAY)
        stream.write(_csv_text(zip(
            repeat(_csv_field(stock_id)),
            map(days.__getitem__, day_idx.tolist()),
            map(str, (offset + 1).tolist()),
            _float_texts(panel.prices(stock_id)[g]),
            _float_texts(panel.volumes(stock_id)[g]),
            _float_texts(panel.bids(stock_id)[g]),
            _float_texts(panel.asks(stock_id)[g]))))
