"""Small fixture builders shared across the test modules."""

from __future__ import annotations

from datetime import date

import numpy as np

from haltstudy import (
    AnalysisConfig,
    AnalysisResult,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    MINUTES_PER_DAY,
    PanelBuilder,
    TradingCalendar,
    market_data,
    tabulate_counts,
    write_analysis_outputs,
)


def location(calendar: TradingCalendar,
             global_minute: int) -> tuple[date, int]:
    """(day, minute 1..240) of a global minute; inverse of
    ``TradingCalendar.global_minute``."""
    day_idx, offset = divmod(global_minute, MINUTES_PER_DAY)
    return calendar.trading_days[day_idx], offset + 1


def add_stock(builder: PanelBuilder, calendar: TradingCalendar, stock_id: str,
              price=10.0, volume=100.0, spread=None, absent=()) -> None:
    """Add one stock from scalars or per-global-minute arrays.

    ``absent`` lists global minutes (ints or slices) without a bar;
    ``spread=None`` leaves both quote sides missing.
    """
    n = calendar.n_minutes

    def full(value):
        if np.isscalar(value):
            return np.full(n, float(value))
        arr = np.asarray(value, float)
        assert arr.shape == (n,)
        return arr

    price_arr = full(price)
    volume_arr = full(volume)
    if spread is None:
        bid = np.full(n, np.nan)
        ask = np.full(n, np.nan)
    else:
        half = full(spread) / 2.0
        bid = price_arr - half
        ask = price_arr + half
    present = np.ones(n, dtype=bool)
    for g in absent:
        present[g] = False
    builder.add_stock_arrays(stock_id, price_arr, volume_arr, bid, ask, present)


def halt_record(calendar: TradingCalendar, stock_id: str,
                begin: tuple[int, int], resume: tuple[int, int],
                is_st: bool = False) -> HaltRecord:
    """Record addressed by (day index, minute) pairs."""
    days = calendar.trading_days
    return HaltRecord(stock_id, days[begin[0]], begin[1],
                      days[resume[0]], resume[1], is_st)


def halt_event(calendar: TradingCalendar, stock_id: str,
               begin: tuple[int, int], resume: tuple[int, int],
               halt_type: HaltType, sign: EventSign) -> HaltEvent:
    """Pre-classified eligible event, bypassing the filters."""
    record = halt_record(calendar, stock_id, begin, resume)
    return HaltEvent(record, halt_type, sign, None)


def random_walk_stock(builder: PanelBuilder, calendar: TradingCalendar,
                      stock_id: str, rng: np.random.Generator,
                      step: float = 0.003, absent=()) -> None:
    """Log-price random walk with unit volumes and no quotes."""
    n = calendar.n_minutes
    inc = rng.normal(0.0, step, n)
    inc[0] = 0.0
    price = 20.0 * np.exp(np.cumsum(inc))
    add_stock(builder, calendar, stock_id, price=price, absent=absent)


def count_bar_parses(monkeypatch) -> list:
    """Make every ``parse_bar_file`` call that ``load_bar_file`` makes
    append its stream to the returned list, then parse as before."""
    calls = []
    parse = market_data.parse_bar_file

    def spy(stream, calendar):
        calls.append(stream)
        return parse(stream, calendar)
    monkeypatch.setattr(market_data, "parse_bar_file", spy)
    return calls


def cell_artifact(out_dir, name: str, cell) -> str:
    """The text of artifact ``name`` for a result of the one group cell
    ``cell``, as the pipeline writes it."""
    result = AnalysisResult((), tabulate_counts([]), (cell,))
    (path,) = write_analysis_outputs(result, AnalysisConfig(), out_dir, [name])
    return path.read_text()
