"""Small fixture builders shared across the test modules."""

from __future__ import annotations

from datetime import date

import numpy as np

from haltstudy import (
    DEFAULT_RELAXATIONS,
    AnalysisConfig,
    AnalysisResult,
    EligibilityConfig,
    EventSign,
    FitConfig,
    HaltEvent,
    HaltRecord,
    HaltType,
    MINUTES_PER_DAY,
    MeasureKind,
    PanelBuilder,
    PlantedEvent,
    SyntheticSpec,
    TradingCalendar,
    fit_all_groups,
    events,
    group_average,
    market_data,
    write_analysis_outputs,
)
from haltstudy.event_study import _curves_and_reversals
from haltstudy.powerlaw import _fit_rows


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


# begin day offset, begin minute, resume day offset, resume minute
_LAYOUTS = {HaltType.INTRADAY: (0, 61, 0, 121), HaltType.ONE_DAY: (0, 1, 1, 1),
            HaltType.INTER_DAY: (0, 1, 2, 1)}


def multi_halt_spec(n_stocks: int, n_days: int, seed: int,
                    sigma: float) -> SyntheticSpec:
    """Spec whose stocks halt every 4 trading days once they have 40
    days of history, while the longest layout still fits; stock i's
    k-th halt is in group (i + k) mod 6 of the report order."""
    groups = [(ht, s) for ht in HaltType for s in EventSign]
    events = []
    for i in range(n_stocks):
        for k, day in enumerate(range(40, n_days - 3, 4)):
            halt_type, sign = groups[(i + k) % len(groups)]
            b, b_min, r, r_min = _LAYOUTS[halt_type]
            trend = 0.08 if sign is EventSign.POSITIVE else -0.08
            events.append(PlantedEvent(
                f"SYN{i:04d}", day + b, b_min, day + r, r_min, trend,
                DEFAULT_RELAXATIONS[halt_type, sign]))
    return SyntheticSpec(n_stocks=n_stocks, n_days=n_days, seed=seed,
                         events=tuple(events),
                         sigma={m: sigma for m in MeasureKind})


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



def count_table_builds(monkeypatch) -> list:
    """Make every build of the record table, ``events._RecordColumns``,
    append its arguments to the returned list, then build as before."""
    calls = []
    build = events._RecordColumns.__init__

    def spy(self, *args):
        calls.append(args)
        build(self, *args)
    monkeypatch.setattr(events._RecordColumns, "__init__", spy)
    return calls


def cell_artifact(out_dir, name: str, cell) -> str:
    """The text of artifact ``name`` for a result of the one group cell
    ``cell``, as the pipeline writes it."""
    # the cell writers read no selection
    result = AnalysisResult(None, (cell,))
    (path,) = write_analysis_outputs(result, AnalysisConfig(), out_dir, [name])
    return path.read_text()


def cumulative_curve(panel, records,
                     window: int = EligibilityConfig.pre_window):
    """The curve stage on one group of halt ``records`` and no reversal
    horizon: its window check, then the lockstep curve pass over that
    one group."""
    (curve,), _ = _curves_and_reversals(panel, [records], [EventSign.POSITIVE],
                                        window, ())
    return curve


def reversal_fractions(panel, records, sign: EventSign, horizons,
                       window: int = EligibilityConfig.pre_window):
    """The curve stage on one group of halt ``records`` under ``sign``:
    its window check, its horizon check, then the group's reversal
    fraction by horizon."""
    _, (fractions,) = _curves_and_reversals(panel, [records], [sign], window,
                                            horizons)
    return fractions


def cell_fit(trajectories, fit_range: tuple[int, int] = FitConfig.fit_range):
    """The fit of the trajectories' own average, the one their bootstrap
    takes; None where fitting failed."""
    (fit, _), = fit_all_groups([group_average(trajectories)],
                               FitConfig(fit_range))
    return fit


def fit_row(t, values, fit_range: tuple[int, int] = FitConfig.fit_range):
    """The block fitter on the one row ``values``: a ``_RowFit``, whose
    ``complete()`` is its PowerLawFit, or the error the row fails with."""
    return _fit_rows(t, np.asarray(values, float)[None], fit_range)[0]
