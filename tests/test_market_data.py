"""Session layout, bar parsing, panel invariants and forward filling."""

import io
import math
from datetime import date

import numpy as np
import pytest

from haltstudy import (
    CrossedQuote,
    DuplicateBar,
    MalformedRow,
    MinuteBar,
    NoData,
    NonPositivePrice,
    Panel,
    PanelBuilder,
    TradingCalendar,
    UnknownDay,
    forward_fill,
    forward_fill_all,
    make_calendar,
    parse_bar_file,
    write_bar_csv,
)
from helpers import add_stock, random_walk_stock

LN_101 = 0.009950330853168092  # ln(1.01)

MARCH = TradingCalendar((date(2010, 3, 1), date(2010, 3, 2), date(2010, 3, 3)))


# ---------------------------------------------------------------- calendar


def test_calendar_index_and_location_are_inverse():
    cal = make_calendar(7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = int(rng.integers(0, cal.n_minutes))
        day, minute = cal.location(g)
        assert cal.global_minute(day, minute) == g
    assert cal.n_days == 7
    assert cal.n_minutes == 7 * 240
    assert cal.trading_days[0] in cal
    assert date(1999, 1, 1) not in cal


def test_calendar_rejects_unsorted_days():
    with pytest.raises(ValueError):
        TradingCalendar((date(2010, 3, 2), date(2010, 3, 1)))
    with pytest.raises(ValueError):
        TradingCalendar((date(2010, 3, 1), date(2010, 3, 1)))


def test_calendar_unknown_day_and_bad_minute():
    with pytest.raises(UnknownDay):
        MARCH.day_index(date(2010, 3, 6))
    with pytest.raises(ValueError):
        MARCH.global_minute(date(2010, 3, 1), 0)
    with pytest.raises(ValueError):
        MARCH.global_minute(date(2010, 3, 1), 241)
    with pytest.raises(ValueError):
        MARCH.location(MARCH.n_minutes)


def test_calendar_from_file(tmp_path):
    path = tmp_path / "days.txt"
    path.write_text("2010-03-01\n\n2010-03-02\n")
    cal = TradingCalendar.from_file(path)
    assert cal.trading_days == (date(2010, 3, 1), date(2010, 3, 2))
    bad = tmp_path / "bad.txt"
    bad.write_text("2010-03-01\nnot-a-date\n")
    with pytest.raises(MalformedRow, match="line 2|bad.txt:2"):
        TradingCalendar.from_file(bad)


# ---------------------------------------------------------------- bars


def test_minute_bar_spread_and_validation():
    bar = MinuteBar("600000", date(2010, 3, 1), 1, 10.0, 500.0, 9.99, 10.01)
    assert bar.spread == pytest.approx(0.02, abs=1e-12)
    assert MinuteBar("s", date(2010, 3, 1), 1, 10.0, 0.0).spread is None
    with pytest.raises(NonPositivePrice):
        MinuteBar("s", date(2010, 3, 1), 1, 0.0, 1.0)
    with pytest.raises(NonPositivePrice):
        MinuteBar("s", date(2010, 3, 1), 1, -3.0, 1.0)
    with pytest.raises(CrossedQuote):
        MinuteBar("s", date(2010, 3, 1), 1, 10.0, 1.0, 10.02, 10.01)
    with pytest.raises(ValueError):
        MinuteBar("s", date(2010, 3, 1), 0, 10.0, 1.0)
    with pytest.raises(ValueError):
        MinuteBar("s", date(2010, 3, 1), 1, 10.0, -1.0)


def test_parse_single_bar():
    text = ("stock_id,date,minute,last_price,volume,best_bid,best_ask\n"
            "600000,2010-03-01,1,10.00,500,9.99,10.01\n")
    panel = parse_bar_file(io.StringIO(text), MARCH)
    assert panel.stock_ids == ("600000",)
    assert panel.n_bars == 1
    g = MARCH.global_minute(date(2010, 3, 1), 1)
    assert panel.prices("600000")[g] == 10.0
    assert panel.volumes("600000")[g] == 500.0
    spread = panel.asks("600000")[g] - panel.bids("600000")[g]
    assert spread == pytest.approx(0.02, abs=1e-12)
    assert not panel.synthetic_mask("600000")[g]


def test_parse_accepts_bytes_stream_and_missing_quotes():
    text = ("stock_id,date,minute,last_price,volume,best_bid,best_ask\n"
            "600000,2010-03-01,5,10.5,0,,\n")
    panel = parse_bar_file(io.BytesIO(text.encode()), MARCH)
    g = MARCH.global_minute(date(2010, 3, 1), 5)
    assert panel.present_mask("600000")[g]
    assert np.isnan(panel.bids("600000")[g])
    assert np.isnan(panel.asks("600000")[g])


def test_parse_empty_stream_yields_empty_panel():
    panel = parse_bar_file(io.StringIO(""), MARCH)
    assert panel.stock_ids == ()
    assert panel.n_bars == 0


def _row(line):
    return ("stock_id,date,minute,last_price,volume,best_bid,best_ask\n"
            + line + "\n")


@pytest.mark.parametrize("line,error", [
    ("600000,2010-03-01,1,10.0,500", MalformedRow),        # short row
    ("600000,2010-03-01,1,10.0,500,9.99,10.01,9", MalformedRow),
    (",2010-03-01,1,10.0,500,,", MalformedRow),            # empty id
    ("600000,2010-13-01,1,10.0,500,,", MalformedRow),      # bad date
    ("600000,2010-03-01,zero,10.0,500,,", MalformedRow),
    ("600000,2010-03-01,0,10.0,500,,", MalformedRow),
    ("600000,2010-03-01,241,10.0,500,,", MalformedRow),
    ("600000,2010-03-01,1,ten,500,,", MalformedRow),
    ("600000,2010-03-01,1,inf,500,,", MalformedRow),
    ("600000,2010-03-01,1,10.0,-5,,", MalformedRow),
    ("600000,2010-03-01,1,0.0,500,,", NonPositivePrice),
    ("600000,2010-03-01,1,-1.0,500,,", NonPositivePrice),
    ("600000,2010-03-01,1,10.0,500,10.02,10.01", CrossedQuote),
    ("600000,2010-03-08,1,10.0,500,,", UnknownDay),        # off calendar
])
def test_parse_rejects_malformed_rows(line, error):
    with pytest.raises(error):
        parse_bar_file(io.StringIO(_row(line)), MARCH)


def test_parse_reports_line_numbers():
    text = _row("600000,2010-03-01,1,10.0,500,,") + "600000,2010-03-01,x,1,1,,\n"
    with pytest.raises(MalformedRow, match="line 3"):
        parse_bar_file(io.StringIO(text), MARCH)


def test_parse_rejects_bad_header_and_duplicates():
    with pytest.raises(MalformedRow, match="header"):
        parse_bar_file(io.StringIO("a,b,c\n"), MARCH)
    dup = _row("600000,2010-03-01,1,10.0,500,,") \
        + "600000,2010-03-01,1,10.5,400,,\n"
    with pytest.raises(DuplicateBar):
        parse_bar_file(io.StringIO(dup), MARCH)


def test_csv_round_trip_is_lossless():
    rng = np.random.default_rng(11)
    builder = PanelBuilder(MARCH)
    for stock_id in ("B", "A"):
        for day in MARCH.trading_days:
            for minute in range(1, 241, 7):
                price = float(np.exp(rng.normal(2.3, 0.2)))
                half = float(rng.uniform(0.001, 0.01))
                with_quotes = bool(rng.integers(0, 2))
                builder.add_bar(stock_id, day, minute, price,
                                float(rng.integers(0, 10_000)),
                                price - half if with_quotes else None,
                                price + half if with_quotes else None)
    panel = builder.build()
    out = io.StringIO()
    write_bar_csv(panel, out)
    again = parse_bar_file(io.StringIO(out.getvalue()), MARCH)
    assert again == panel
    assert again.stock_ids == ("A", "B")


# ---------------------------------------------------------------- panel


def test_panel_accessors_and_coverage():
    builder = PanelBuilder(MARCH)
    builder.add_bar("A", date(2010, 3, 1), 10, 10.0, 5.0, None, None)
    builder.add_bar("A", date(2010, 3, 2), 20, 11.0, 6.0, 10.99, 11.01)
    panel = builder.build()
    g0 = MARCH.global_minute(date(2010, 3, 1), 10)
    g1 = MARCH.global_minute(date(2010, 3, 2), 20)
    assert panel.coverage("A") == (g0, g1)
    assert panel.prices("A")[g0] == 10.0
    assert np.isnan(panel.prices("A")[g0 + 1])
    assert panel.log_prices("A")[g1] == math.log(11.0)
    assert np.flatnonzero(panel.present_mask("A")).tolist() == [g0, g1]
    assert "Z" not in panel
    with pytest.raises(NoData):
        panel.prices("Z")
    with pytest.raises(NoData):
        panel.coverage("Z")


def test_panel_arrays_are_read_only():
    builder = PanelBuilder(MARCH)
    builder.add_bar("A", date(2010, 3, 1), 1, 10.0, 5.0, None, None)
    panel = builder.build()
    with pytest.raises(ValueError):
        panel.prices("A")[0] = 1.0
    with pytest.raises(ValueError):
        panel.log_prices("A")[0] = 1.0


def test_bulk_arrays_match_per_bar_construction():
    cal = make_calendar(2)
    n = cal.n_minutes
    rng = np.random.default_rng(5)
    price = np.exp(rng.normal(2.3, 0.1, n))
    volume = rng.uniform(0, 100, n).round()
    present = rng.random(n) < 0.8
    bulk = PanelBuilder(cal)
    bulk.add_stock_arrays("A", price, volume, price - 0.01, price + 0.01, present)
    slow = PanelBuilder(cal)
    for g in np.flatnonzero(present):
        day, minute = cal.location(int(g))
        slow.add_bar("A", day, minute, float(price[g]), float(volume[g]),
                     float(price[g]) - 0.01, float(price[g]) + 0.01)
    assert bulk.build() == slow.build()


def test_bulk_arrays_validate_contents():
    cal = make_calendar(1)
    n = cal.n_minutes
    ones = np.ones(n)
    present = np.ones(n, dtype=bool)
    builder = PanelBuilder(cal)
    with pytest.raises(ValueError):
        builder.add_stock_arrays("A", np.ones(3), ones, ones, ones, present)
    bad_price = ones.copy()
    bad_price[7] = 0.0
    with pytest.raises(NonPositivePrice):
        builder.add_stock_arrays("A", bad_price, ones, ones, ones, present)
    with pytest.raises(CrossedQuote):
        builder.add_stock_arrays("A", ones, ones, ones + 0.02, ones + 0.01,
                                 present)
    builder.add_stock_arrays("A", ones, ones, ones - 0.01, ones + 0.01, present)
    with pytest.raises(DuplicateBar):
        builder.add_stock_arrays("A", ones, ones, ones - 0.01, ones + 0.01,
                                 present)


def test_add_bar_rejects_unknown_day():
    builder = PanelBuilder(MARCH)
    with pytest.raises(UnknownDay):
        builder.add_bar("A", date(2010, 3, 8), 1, 10.0, 1.0, None, None)


# ---------------------------------------------------------------- filling


def test_forward_fill_single_gap():
    day = date(2010, 3, 1)
    builder = PanelBuilder(MARCH)
    builder.add_bar("A", day, 1, 10.00, 500.0, 9.99, 10.01)
    builder.add_bar("A", day, 3, 10.10, 200.0, None, None)
    filled = forward_fill(builder.build(), "A")
    g = MARCH.global_minute(day, 2)
    assert filled.synthetic_mask("A")[g]
    assert filled.prices("A")[g] == 10.00
    assert filled.volumes("A")[g] == 0.0
    assert filled.bids("A")[g] == 9.99 and filled.asks("A")[g] == 10.01
    # the filled minute repeats the previous price bit for bit
    lnp = filled.log_prices("A")
    assert lnp[g] - lnp[g - 1] == 0.0
    assert lnp[g + 1] - lnp[g] == pytest.approx(LN_101, abs=1e-15)


def test_forward_fill_gap_free_returns_same_object():
    builder = PanelBuilder(MARCH)
    day = date(2010, 3, 1)
    for minute in (5, 6, 7):
        builder.add_bar("A", day, minute, 10.0, 1.0, None, None)
    panel = builder.build()
    assert forward_fill(panel, "A") is panel


def test_forward_fill_is_idempotent_and_preserves_others():
    cal = make_calendar(2)
    builder = PanelBuilder(cal)
    rng = np.random.default_rng(17)
    random_walk_stock(builder, cal, "A", rng, absent=[slice(100, 130), 400])
    random_walk_stock(builder, cal, "B", rng)
    panel = builder.build()
    filled = forward_fill(panel, "A")
    assert forward_fill(filled, "A") is filled
    assert forward_fill_all(filled) is filled
    # the untouched stock shares its arrays with the source panel
    assert filled.prices("B") is panel.prices("B")
    assert filled.synthetic_mask("A")[100:130].all()
    assert not filled.synthetic_mask("A")[:100].any()
    # filling never invents bars outside the covered span
    assert filled.coverage("A") == panel.coverage("A")


def test_forward_fill_round_trip_drops_synthetic_bars():
    cal = make_calendar(2)
    builder = PanelBuilder(cal)
    random_walk_stock(builder, cal, "A", np.random.default_rng(23),
                      absent=[slice(50, 90)])
    panel = builder.build()
    out = io.StringIO()
    write_bar_csv(forward_fill_all(panel), out)
    assert parse_bar_file(io.StringIO(out.getvalue()), cal) == panel


def test_forward_fill_unknown_stock():
    with pytest.raises(NoData):
        forward_fill(PanelBuilder(MARCH).build(), "A")


def test_panel_equality_notices_any_difference():
    def build(price):
        builder = PanelBuilder(MARCH)
        builder.add_bar("A", date(2010, 3, 1), 1, price, 1.0, None, None)
        return builder.build()

    assert build(10.0) == build(10.0)
    assert build(10.0) != build(10.5)
    assert build(10.0) != PanelBuilder(MARCH).build()
    assert Panel.__eq__(build(10.0), object()) is NotImplemented
