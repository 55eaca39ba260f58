"""Session layout, bar parsing, panel invariants and forward-filled log
prices."""

import io
import math
from datetime import date

import numpy as np
import pytest

from haltstudy import (
    MINUTES_PER_DAY,
    CrossedQuote,
    DuplicateBar,
    MalformedRow,
    NoData,
    NonPositivePrice,
    Panel,
    PanelBuilder,
    TradingCalendar,
    UnknownDay,
    make_calendar,
    parse_bar_file,
    write_bar_csv,
)
from haltstudy import market_data
from haltstudy.market_data import BAR_CSV_HEADER
from helpers import add_stock, location, random_walk_stock
from oracles import forward_filled_prices

LN_101 = 0.009950330853168092  # ln(1.01)

MARCH = TradingCalendar((date(2010, 3, 1), date(2010, 3, 2), date(2010, 3, 3)))


def _bars(*lines):
    """Panel on MARCH parsed from bar rows after the header."""
    text = "".join(line + "\n" for line in (",".join(BAR_CSV_HEADER), *lines))
    return parse_bar_file(io.StringIO(text), MARCH)


# ---------------------------------------------------------------- calendar


def test_calendar_index_and_location_are_inverse():
    cal = make_calendar(7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = int(rng.integers(0, cal.n_minutes))
        day, minute = location(cal, g)
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


def test_calendar_from_file(tmp_path):
    path = tmp_path / "days.txt"
    path.write_text("2010-03-01\n\n2010-03-02\n")
    cal = TradingCalendar.from_file(path)
    assert cal.trading_days == (date(2010, 3, 1), date(2010, 3, 2))
    bad = tmp_path / "bad.txt"
    bad.write_text("2010-03-01\nnot-a-date\n")
    with pytest.raises(MalformedRow, match="line 2|bad.txt:2"):
        TradingCalendar.from_file(bad)
    bad.write_bytes(b"2010-03-01\n2010-03-\xff2\n")
    with pytest.raises(MalformedRow, match="bad.txt:2"):
        TradingCalendar.from_file(bad)


# ---------------------------------------------------------------- bars


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
    assert panel.present_mask("600000")[g]


def test_parse_accepts_bytes_stream_and_missing_quotes():
    text = ("stock_id,date,minute,last_price,volume,best_bid,best_ask\n"
            "600000,2010-03-01,5,10.5,0,,\n")
    stream = io.BytesIO(text.encode())
    panel = parse_bar_file(stream, MARCH)
    assert not stream.closed    # the caller's stream is left open
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


def test_parse_off_calendar_row_reports_line_after_field_checks():
    good = "600000,2010-03-01,1,10.0,500,,"
    with pytest.raises(UnknownDay, match="^line 3: 2010-03-08 is not a trading day$"):
        _bars(good, "600000,2010-03-08,1,10.0,500,,")
    # a row with a bad field is reported for that field first, as before
    with pytest.raises(MalformedRow, match="^line 2: bad minute"):
        _bars("600000,2010-03-08,x,10.0,500,,")
    with pytest.raises(DuplicateBar, match="^duplicate bar 600000 2010-03-01 m1$"):
        _bars(good, "600000,2010-03-01,1,10.5,400,,")


@pytest.mark.parametrize("data", [
    b"60\xff00,2010-03-01,1,10.0,500,,\n",                 # stock id
    b"600000,2010-03-01,1,10.0,500,,\n6\xff,2010-03-01,2,1,1,,\n",
    b"600000,2010-03-\xff1,1,10.0,500,,\n",                # date
    b"600000,2010-03-01,1,1\xff.0,500,,\n",                # price
    b"600000,2010-03-01,1,10.0,500,9.9,1\xff\n",            # quote
])
def test_parse_rejects_undecodable_bytes_with_line_number(data):
    header = ",".join(BAR_CSV_HEADER).encode() + b"\n"
    line = 2 + data[:data.index(b"\xff")].count(b"\n")
    with pytest.raises(MalformedRow, match=f"^line {line}: "):
        parse_bar_file(io.BytesIO(header + data), MARCH)


def test_parse_rejects_oversized_field_with_line_number():
    text = _row("600000,2010-03-01,1,10.0,500,,") + "A" * 200_000 + ",x\n"
    with pytest.raises(MalformedRow, match="^line 3: field larger than field limit"):
        parse_bar_file(io.StringIO(text), MARCH)


@pytest.mark.parametrize("bad_row, message", [
    # the stream decodes 8 KiB at a time, and the chunk holding the bad
    # byte is read while csv asks for line 198: lines 2-197 are stored
    (None, "line 198: 'utf-8' codec can't decode byte 0xff"),
    # a bad row handed over before that read is reported first
    (195, "line 195: bad minute 'x'"),
])
def test_parse_text_stream_decode_error_reports_the_next_line(bad_row,
                                                              message):
    lines = [f"600000,2010-03-01,{m},10.0,500,9.99,10.01" for m in range(1, 201)]
    if bad_row is not None:
        lines[bad_row - 2] = "600000,2010-03-01,x,10.0,500,,"
    data = _row("\n".join(lines)).encode() + b"600000,2010-03-02,1,1\xff.0,500,,\n"
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with pytest.raises(MalformedRow, match=f"^{message}"):
        parse_bar_file(stream, MARCH)


@pytest.mark.parametrize("last", [
    "B,2010-03-01,1,10.0,500,,",        # a duplicate inside the block
    "A,2010-03-01,2,10.0,500,,",        # a bar stored by an earlier block
    "B,2010-03-01,3,10.0,500,,x",       # an unparseable field
    'B,2010-03-01,3,10.0,500,,""',      # a quote: not a plain line
])
def test_declined_block_stores_nothing(last):
    days, columns = {}, {}
    assert market_data._store_block(["A,2010-03-01,2,10.0,500,9.9,10.1\n"],
                                    MARCH, days, columns)
    before = {s: (v.copy(), p.copy()) for s, (v, p) in columns.items()}
    block = ["C,2010-03-02,1,10.0,500,,\n", "A,2010-03-02,5,10.0,500,,\n",
             "B,2010-03-01,1,10.0,500,,\n", last + "\n"]
    assert not market_data._store_block(block, MARCH, days, columns)
    assert columns.keys() == before.keys() == {"A"}
    values, present = columns["A"]
    assert np.array_equal(values, before["A"][0], equal_nan=True)
    assert np.array_equal(present, before["A"][1])


def test_parse_rejects_bad_header_and_duplicates():
    with pytest.raises(MalformedRow, match="header"):
        parse_bar_file(io.StringIO("a,b,c\n"), MARCH)
    dup = _row("600000,2010-03-01,1,10.0,500,,") \
        + "600000,2010-03-01,1,10.5,400,,\n"
    with pytest.raises(DuplicateBar):
        parse_bar_file(io.StringIO(dup), MARCH)


def test_csv_round_trip_is_lossless():
    rng = np.random.default_rng(11)
    n = MARCH.n_minutes
    off_grid = np.flatnonzero(np.arange(n) % MINUTES_PER_DAY % 7 != 0)
    builder = PanelBuilder(MARCH)
    for stock_id in ("B", "A"):
        # bars at minutes 1, 8, ..., 239 of each day; NaN spread = no quotes
        spread = np.where(rng.integers(0, 2, n) == 1,
                          2.0 * rng.uniform(0.001, 0.01, n), np.nan)
        add_stock(builder, MARCH, stock_id,
                  price=np.exp(rng.normal(2.3, 0.2, n)),
                  volume=rng.integers(0, 10_000, n).astype(float),
                  spread=spread, absent=off_grid)
    panel = builder.build()
    out = io.StringIO()
    write_bar_csv(panel, out)
    again = parse_bar_file(io.StringIO(out.getvalue()), MARCH)
    assert again == panel
    assert again.stock_ids == ("A", "B")


GOLDEN_BARS_CSV = (
    "stock_id,date,minute,last_price,volume,best_bid,best_ask\n"
    "A,2010-03-01,1,0.30000000000000004,1e+16,,\n"
    "A,2010-03-01,240,10.0,0.0,9.99,10.01\n"
    "A,2010-03-02,121,1e-05,3.0,5e-06,2e-05\n"
    "B,2010-03-02,1,123.456,1.5,,123.5\n"
    "B,2010-03-02,240,7.0,2.0,6.5,\n"
)


def test_written_bars_match_golden_text():
    cal = TradingCalendar(MARCH.trading_days[:2])
    n = cal.n_minutes
    bars = {  # global minute: (price, volume, bid, ask); NaN = no quote
        "B": {240: (123.456, 1.5, np.nan, 123.5), 479: (7.0, 2.0, 6.5, np.nan)},
        "A": {0: (0.1 + 0.2, 1e16, np.nan, np.nan),
              239: (10.0, 0.0, 9.99, 10.01), 360: (1e-05, 3.0, 5e-06, 2e-05)},
    }
    builder = PanelBuilder(cal)
    for stock_id, rows in bars.items():
        columns = np.full((4, n), np.nan)
        present = np.zeros(n, dtype=bool)
        for g, values in rows.items():
            columns[:, g] = values
            present[g] = True
        builder.add_stock_arrays(stock_id, *columns, present)
    panel = builder.build()
    out = io.StringIO()
    write_bar_csv(panel, out)
    assert out.getvalue() == GOLDEN_BARS_CSV
    assert parse_bar_file(io.StringIO(GOLDEN_BARS_CSV), cal) == panel


# ---------------------------------------------------------------- panel


def test_panel_accessors_and_coverage():
    panel = _bars("A,2010-03-01,10,10.0,5.0,,",
                  "A,2010-03-02,20,11.0,6.0,10.99,11.01")
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
    panel = _bars("A,2010-03-01,1,10.0,5.0,,")
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
    lines = [",".join(BAR_CSV_HEADER)]
    for g in np.flatnonzero(present):
        day, minute = location(cal, int(g))
        p = float(price[g])
        lines.append(f"A,{day.isoformat()},{minute},{p!r},{float(volume[g])!r},"
                     f"{p - 0.01!r},{p + 0.01!r}")
    parsed = parse_bar_file(io.StringIO("\n".join(lines) + "\n"), cal)
    assert bulk.build() == parsed


def test_bulk_arrays_validate_contents():
    cal = make_calendar(1)
    n = cal.n_minutes
    ones = np.ones(n)
    present = np.ones(n, dtype=bool)
    builder = PanelBuilder(cal)
    with pytest.raises(ValueError):
        builder.add_stock_arrays("A", np.ones(3), ones, ones, ones, present)
    for value in (0.0, -3.0, np.inf, np.nan):
        bad_price = ones.copy()
        bad_price[7] = value
        with pytest.raises(NonPositivePrice):
            builder.add_stock_arrays("A", bad_price, ones, ones, ones, present)
    for value in (-1.0, np.inf, np.nan):
        bad_volume = ones.copy()
        bad_volume[7] = value
        with pytest.raises(ValueError, match="volume"):
            builder.add_stock_arrays("A", ones, bad_volume, ones, ones, present)
    with pytest.raises(CrossedQuote):
        builder.add_stock_arrays("A", ones, ones, ones + 0.02, ones + 0.01,
                                 present)
    # values at minutes without a bar are never checked, and are dropped
    absent = present.copy()
    absent[7] = False
    junk = ones.copy()
    junk[7] = -np.inf
    high_bid = ones.copy()
    high_bid[7] = 5.0
    builder.add_stock_arrays("B", junk, junk, high_bid, ones, absent)
    assert np.isnan(builder.build().prices("B")[7])
    builder.add_stock_arrays("A", ones, ones, ones - 0.01, ones + 0.01, present)
    with pytest.raises(DuplicateBar):
        builder.add_stock_arrays("A", ones, ones, ones - 0.01, ones + 0.01,
                                 present)


# ---------------------------------------------------------------- filling


def test_forward_fill_single_gap():
    day = date(2010, 3, 1)
    panel = _bars("A,2010-03-01,1,10.00,500.0,9.99,10.01",
                  "A,2010-03-01,3,10.10,200.0,,")
    g = MARCH.global_minute(day, 2)
    # the bars stay as they were read: the gap holds no bar
    assert not panel.present_mask("A")[g]
    assert np.isnan(panel.prices("A")[g]) and np.isnan(panel.volumes("A")[g])
    # the filled minute repeats the previous price bit for bit
    lnp = panel.log_prices("A")
    assert lnp[g] - lnp[g - 1] == 0.0
    assert lnp[g + 1] - lnp[g] == pytest.approx(LN_101, abs=1e-15)


def test_forward_fill_gap_free_returns_same_object():
    panel = _bars(*(f"A,2010-03-01,{minute},10.0,1.0,," for minute in (5, 6, 7)))
    lnp = panel.log_prices("A")
    # cached: every call returns the one array, the log of the prices
    assert panel.log_prices("A") is lnp
    assert np.array_equal(lnp, np.log(panel.prices("A")), equal_nan=True)


def test_forward_fill_is_idempotent_and_preserves_others():
    cal = make_calendar(2)
    builder = PanelBuilder(cal)
    rng = np.random.default_rng(17)
    random_walk_stock(builder, cal, "A", rng, absent=[slice(100, 130), 400])
    random_walk_stock(builder, cal, "B", rng)
    panel = builder.build()
    lnp = panel.log_prices("A")
    filled = forward_filled_prices(panel, "A")
    assert np.array_equal(lnp, np.log(filled))
    # bars at every minute of the span with the carried prices fill to
    # the same log prices
    again = PanelBuilder(cal)
    add_stock(again, cal, "A", price=filled, absent=np.flatnonzero(
        np.isnan(filled)).tolist())
    assert np.array_equal(again.build().log_prices("A"), lnp, equal_nan=True)
    # the gap-free stock's log prices are those of its own bars
    assert np.array_equal(panel.log_prices("B"), np.log(panel.prices("B")))
    # filling adds no bar and nothing outside the covered span
    assert not panel.present_mask("A")[100:130].any()
    first, last = panel.coverage("A")
    assert np.isnan(lnp[:first]).all() and np.isnan(lnp[last + 1:]).all()


def test_forward_fill_unknown_stock():
    # a stock whose arrays hold no bar at all has no span to fill: its
    # log prices are all NaN, and only its own coverage raises NoData
    builder = PanelBuilder(MARCH)
    nothing = np.full(MARCH.n_minutes, np.nan)
    builder.add_stock_arrays("A", nothing, nothing, nothing, nothing,
                             np.zeros(MARCH.n_minutes, dtype=bool))
    random_walk_stock(builder, MARCH, "B", np.random.default_rng(29),
                      absent=[slice(50, 90)])
    panel = builder.build()
    assert np.isnan(panel.log_prices("A")).all()
    lnp = panel.log_prices("B")
    assert np.all(lnp[50:90] == lnp[49])
    with pytest.raises(NoData, match="no bars for stock A"):
        panel.coverage("A")
    with pytest.raises(NoData, match="no bars for stock Z"):
        panel.log_prices("Z")


def test_panel_equality_notices_any_difference():
    def build(price):
        return _bars(f"A,2010-03-01,1,{price!r},1.0,,")

    assert build(10.0) == build(10.0)
    assert build(10.0) != build(10.5)
    assert build(10.0) != PanelBuilder(MARCH).build()
    assert Panel.__eq__(build(10.0), object()) is NotImplemented
