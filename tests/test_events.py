"""Halt classification, trend signs, eligibility filters and counts."""

import io
from datetime import date

import numpy as np
import pytest

from haltstudy import (
    CountTable,
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    InsufficientHistory,
    InvalidInterval,
    MalformedRow,
    PanelBuilder,
    RejectionReason,
    UnknownDay,
    classify_halt_type,
    classify_sign,
    filter_eligibility,
    group_name,
    make_calendar,
    parse_halt_file,
    tabulate_counts,
    write_count_csv,
    write_eligibility_report,
    write_halt_csv,
)
from helpers import add_stock, halt_event, halt_record

CAL12 = make_calendar(12)


# ---------------------------------------------------------------- records


def test_halt_record_validation():
    days = CAL12.trading_days
    with pytest.raises(InvalidInterval):
        HaltRecord("A", days[5], 61, days[5], 61)       # resume == begin
    with pytest.raises(InvalidInterval):
        HaltRecord("A", days[5], 61, days[4], 61)       # resume before begin
    with pytest.raises(InvalidInterval):
        HaltRecord("A", days[5], 0, days[5], 61)
    with pytest.raises(InvalidInterval):
        HaltRecord("A", days[5], 61, days[5], 241)


def test_global_minute_anchors():
    rec = halt_record(CAL12, "A", (5, 61), (5, 121))
    assert rec.global_begin(CAL12) == 5 * 240 + 60
    assert rec.global_resume(CAL12) == 5 * 240 + 120
    assert rec.global_pre(CAL12) == 5 * 240 + 59


def test_group_name():
    assert group_name(HaltType.ONE_DAY, EventSign.NEGATIVE) == "oneday_neg"
    assert group_name(HaltType.INTRADAY, EventSign.POSITIVE) == "intraday_pos"


# ---------------------------------------------------------------- duration


@pytest.mark.parametrize("begin,resume,expected", [
    ((5, 61), (5, 121), HaltType.INTRADAY),    # 10:31 through 13:00
    ((5, 31), (5, 91), HaltType.INTRADAY),     # 10:01 through 11:00
    ((5, 61), (5, 62), HaltType.INTRADAY),     # a single halted minute
    ((5, 100), (6, 50), HaltType.INTRADAY),    # both days partially trade
    ((5, 240), (6, 240), HaltType.INTRADAY),   # neither day fully lost
    ((5, 1), (6, 1), HaltType.ONE_DAY),        # day 5 fully lost
    ((5, 100), (7, 50), HaltType.ONE_DAY),     # only day 6 fully lost
    ((5, 1), (7, 1), HaltType.INTER_DAY),      # days 5 and 6 fully lost
    ((5, 1), (10, 1), HaltType.INTER_DAY),
])
def test_classify_halt_type(begin, resume, expected):
    rec = halt_record(CAL12, "A", begin, resume)
    assert classify_halt_type(rec, CAL12) is expected


def test_classify_halt_type_rejects_record_off_calendar():
    cal = make_calendar(3)
    rec = HaltRecord("A", date(2030, 1, 7), 61, date(2030, 1, 7), 121)
    with pytest.raises(UnknownDay):
        classify_halt_type(rec, cal)


# ---------------------------------------------------------------- sign


def _sign_panel(p_from, p_pre):
    # three days, constant elsewhere; trend endpoints planted explicitly
    cal = make_calendar(3)
    price = np.full(cal.n_minutes, 10.0)
    price[539 - 240] = p_from
    price[539] = p_pre
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price)
    return cal, builder.build()


def test_classify_sign_directions():
    cal, up = _sign_panel(10.0, 10.5)
    rec = halt_record(cal, "A", (2, 61), (2, 121))
    assert classify_sign(up, rec) is EventSign.POSITIVE
    _, down = _sign_panel(10.5, 10.0)
    assert classify_sign(down, rec) is EventSign.NEGATIVE


def test_classify_sign_exactly_flat_counts_as_negative():
    cal, flat = _sign_panel(10.0, 10.0)
    rec = halt_record(cal, "A", (2, 61), (2, 121))
    assert classify_sign(flat, rec) is EventSign.NEGATIVE


def test_classify_sign_shorter_windows():
    cal = make_calendar(3)
    price = np.full(cal.n_minutes, 10.0)
    price[539] = 10.5
    price[539 - 60] = 11.0     # above the endpoint: down over 60 minutes
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price)
    panel = builder.build()
    rec = halt_record(cal, "A", (2, 61), (2, 121))
    assert classify_sign(panel, rec, trend_window=240) is EventSign.POSITIVE
    assert classify_sign(panel, rec, trend_window=60) is EventSign.NEGATIVE


def test_classify_sign_requires_history_and_endpoints():
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    # A's window starts at an absent minute after a bar at 9.0: the
    # carried 9.0, not the 10.0 the minute would otherwise hold, is the
    # start of a rising trend
    price = np.full(cal.n_minutes, 10.0)
    price[539 - 241] = 9.0
    add_stock(builder, cal, "A", price=price, absent=[539 - 240])
    add_stock(builder, cal, "B")
    add_stock(builder, cal, "C", absent=[slice(0, 539 - 239)])
    panel = builder.build()
    early = halt_record(cal, "B", (0, 61), (0, 121))
    with pytest.raises(InsufficientHistory):
        classify_sign(panel, early)             # window leaves the calendar
    rec = halt_record(cal, "A", (2, 61), (2, 121))
    assert classify_sign(panel, rec) is EventSign.POSITIVE
    with pytest.raises(InsufficientHistory, match="endpoint"):
        # C's first bar comes one minute after the window's start
        classify_sign(panel, halt_record(cal, "C", (2, 61), (2, 121)))
    with pytest.raises(InsufficientHistory):
        classify_sign(panel, halt_record(cal, "Z", (2, 61), (2, 121)))
    with pytest.raises(ValueError):
        classify_sign(panel, rec, trend_window=0)


def test_classify_sign_is_scale_invariant():
    cal = make_calendar(3)
    rng = np.random.default_rng(41)
    rec = halt_record(cal, "A", (2, 61), (2, 121))
    for _ in range(10):
        lnp = np.cumsum(rng.normal(0.0, 0.01, cal.n_minutes))
        for scale in (0.1, 1.0, 37.0):
            builder = PanelBuilder(cal)
            add_stock(builder, cal, "A", price=scale * np.exp(lnp))
            got = classify_sign(builder.build(), rec)
            expected = (EventSign.POSITIVE if lnp[539] - lnp[299] > 0
                        else EventSign.NEGATIVE)
            assert got is expected


# ---------------------------------------------------------------- filters


def _panel_with(cal, absent_per_stock):
    builder = PanelBuilder(cal)
    for stock_id, absent in absent_per_stock.items():
        add_stock(builder, cal, stock_id, absent=absent)
    return builder.build()


def _only(events, stock_id):
    found = [ev for ev in events if ev.record.stock_id == stock_id]
    assert len(found) == 1
    return found[0]


def test_clean_halt_is_eligible():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    panel = _panel_with(cal, {"A": [slice(9900, 9960)]})
    events = filter_eligibility([rec], panel)
    assert len(events) == 1
    ev = events[0]
    assert ev.eligible
    assert ev.rejection_reason is None
    assert ev.halt_type is HaltType.INTRADAY
    assert ev.sign is EventSign.NEGATIVE    # flat history
    assert tabulate_counts(events).total == 1


def test_successive_halts_reject_both():
    cal = make_calendar(44)
    a = halt_record(cal, "A", (41, 61), (41, 121))
    b = halt_record(cal, "A", (41, 181), (41, 211))
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(10020, 10050)]})
    events = filter_eligibility([a, b], panel)
    assert [ev.rejection_reason for ev in events] == \
        [RejectionReason.SUCCESSIVE, RejectionReason.SUCCESSIVE]
    assert tabulate_counts(events).total == 0


def test_distant_halts_of_one_stock_are_independent():
    cal = make_calendar(50)
    a = halt_record(cal, "A", (41, 61), (41, 121))
    b = halt_record(cal, "A", (46, 61), (46, 121))
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(11100, 11160)]})
    events = filter_eligibility([a, b], panel)
    assert all(ev.eligible for ev in events)


def test_st_stock_rejected():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121), is_st=True)
    panel = _panel_with(cal, {"A": [slice(9900, 9960)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.ST_STOCK


def test_successive_outranks_st():
    cal = make_calendar(44)
    a = halt_record(cal, "A", (41, 61), (41, 121), is_st=True)
    b = halt_record(cal, "A", (41, 181), (41, 211), is_st=True)
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(10020, 10050)]})
    for ev in filter_eligibility([a, b], panel):
        assert ev.rejection_reason is RejectionReason.SUCCESSIVE


def test_halt_span_cap():
    cal = make_calendar(90)
    too_long = halt_record(cal, "A", (41, 1), (64, 1))      # 23-day span
    at_cap = halt_record(cal, "B", (41, 1), (63, 1))        # exactly 22
    panel = _panel_with(cal, {"A": [slice(41 * 240, 64 * 240)],
                              "B": [slice(41 * 240, 63 * 240)]})
    events = filter_eligibility([too_long, at_cap], panel)
    assert _only(events, "A").rejection_reason is RejectionReason.TOO_LONG
    b = _only(events, "B")
    assert b.eligible
    assert b.halt_type is HaltType.INTER_DAY


def test_bars_inside_the_halt_rejected():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    # the last minute of the halted span [9900, 9960) traded
    panel = _panel_with(cal, {"A": [slice(9900, 9959)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.BARS_IN_HALT
    assert ev.sign is EventSign.NEGATIVE
    # ranked after the halt-span cap and the ST flag, before history
    st = halt_record(cal, "A", (41, 61), (41, 121), is_st=True)
    assert filter_eligibility([st], panel)[0].rejection_reason \
        is RejectionReason.ST_STOCK
    thin = _panel_with(cal, {"A": [slice(0, 480), slice(9900, 9959)]})
    assert filter_eligibility([rec], thin)[0].rejection_reason \
        is RejectionReason.BARS_IN_HALT
    # prices carried across the halt by log_prices are not bars
    clean = _panel_with(cal, {"A": [slice(9900, 9960)]})
    assert not np.isnan(clean.log_prices("A")[9900:9960]).any()
    assert filter_eligibility([rec], clean)[0].eligible


def test_too_few_active_days_rejected_but_signed():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    # bars start on day 2: only 39 active days precede the halt
    panel = _panel_with(cal, {"A": [slice(0, 480), slice(9900, 9960)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.INSUFFICIENT_HISTORY
    assert ev.sign is not None


def test_short_coverage_rejected_without_a_sign():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (1, 61), (1, 121))
    panel = _panel_with(cal, {"A": [slice(0, 100), slice(300, 360)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.INSUFFICIENT_HISTORY
    assert ev.sign is None


def test_short_post_window_rejected():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    # bars stop one minute before the post window completes
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(10120, None)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.INSUFFICIENT_POST_WINDOW


def test_gap_share_checked_per_window():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    # 20 missing minutes: 8% of the 241-minute trend window (tolerated)
    # but 12% of the 161-minute pre window
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(9799, 9819)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.rejection_reason is RejectionReason.DATA_GAP
    # the log prices carried across the gap do not hide it
    assert not np.isnan(panel.log_prices("A")[9799:9819]).any()


def test_small_gap_tolerated():
    cal = make_calendar(44)
    rec = halt_record(cal, "A", (41, 61), (41, 121))
    panel = _panel_with(cal, {"A": [slice(9900, 9960), slice(9799, 9809)]})
    ev = filter_eligibility([rec], panel)[0]
    assert ev.eligible


def test_filter_output_is_sorted():
    cal = make_calendar(50)
    recs = [halt_record(cal, "B", (41, 61), (41, 121)),
            halt_record(cal, "A", (46, 61), (46, 121)),
            halt_record(cal, "A", (41, 61), (41, 121))]
    panel = _panel_with(cal, {
        "A": [slice(9900, 9960), slice(11100, 11160)],
        "B": [slice(9900, 9960)],
    })
    events = filter_eligibility(recs, panel)
    keys = [ev.record.sort_key() for ev in events]
    assert keys == sorted(keys)


def test_eligibility_config_validation():
    with pytest.raises(ValueError):
        EligibilityConfig(trend_window=0)
    with pytest.raises(ValueError):
        EligibilityConfig(max_gap_fraction=1.0)
    assert EligibilityConfig().history_minutes == 240
    assert EligibilityConfig(trend_window=60).history_minutes == 160


# ---------------------------------------------------------------- counting


def _census_events():
    cal = make_calendar(12)
    events = [halt_event(cal, f"A{i}", (5, 61), (5, 121),
                         HaltType.INTRADAY, EventSign.POSITIVE)
              for i in range(3)]
    events += [halt_event(cal, f"B{i}", (5, 1), (6, 1),
                          HaltType.ONE_DAY, EventSign.NEGATIVE)
               for i in range(2)]
    rejected = halt_record(cal, "C0", (5, 61), (5, 121))
    events.append(HaltEvent(rejected, HaltType.INTRADAY, EventSign.POSITIVE,
                            RejectionReason.DATA_GAP))
    return events


def test_tabulate_counts_census():
    table = tabulate_counts(_census_events())
    assert table.count(HaltType.INTRADAY, EventSign.POSITIVE) == 3
    assert table.count(HaltType.ONE_DAY, EventSign.NEGATIVE) == 2
    assert table.count(HaltType.INTER_DAY, EventSign.POSITIVE) == 0
    assert table.row_total(HaltType.INTRADAY) == 3
    assert table.sign_total(EventSign.POSITIVE) == 3
    assert table.sign_total(EventSign.NEGATIVE) == 2
    assert table.total == 5


def test_count_totals_are_consistent():
    rng = np.random.default_rng(43)
    cal = make_calendar(12)
    types = list(HaltType)
    signs = list(EventSign)
    for _ in range(20):
        events = []
        for i in range(int(rng.integers(0, 30))):
            ht = types[rng.integers(0, 3)]
            sign = signs[rng.integers(0, 2)]
            reason = (None if rng.random() < 0.7
                      else RejectionReason.DATA_GAP)
            rec = halt_record(cal, f"S{i}", (5, 61), (5, 121))
            events.append(HaltEvent(rec, ht, sign, reason))
        table = tabulate_counts(events)
        assert table.total == sum(1 for ev in events if ev.eligible)
        assert table.total == sum(table.row_total(ht) for ht in HaltType)
        assert table.total == sum(table.sign_total(s) for s in EventSign)


def test_tabulate_rejects_eligible_event_without_sign():
    cal = make_calendar(12)
    rec = halt_record(cal, "A", (5, 61), (5, 121))
    with pytest.raises(ValueError):
        tabulate_counts([HaltEvent(rec, HaltType.INTRADAY, None, None)])


def test_count_csv_layout():
    out = io.StringIO()
    write_count_csv(tabulate_counts(_census_events()), out)
    assert out.getvalue() == (
        "halt_type,positive,negative,total\n"
        "intraday,3,0,3\n"
        "oneday,0,2,2\n"
        "interday,0,0,0\n"
        "total,3,2,5\n")


def test_empty_count_table():
    table = tabulate_counts([])
    assert isinstance(table, CountTable)
    assert table.total == 0


# ---------------------------------------------------------------- registry io


def test_halt_csv_round_trip():
    cal = make_calendar(12)
    records = [halt_record(cal, "B", (5, 61), (5, 121)),
               halt_record(cal, "A", (5, 1), (7, 1), is_st=True)]
    out = io.StringIO()
    write_halt_csv(records, out)
    again = parse_halt_file(io.StringIO(out.getvalue()), cal)
    assert again == sorted(records, key=HaltRecord.sort_key)
    assert again[0].is_st_stock


def test_parse_halt_file_empty_and_errors():
    cal = make_calendar(12)
    assert parse_halt_file(io.StringIO(""), cal) == []
    header = "stock_id,halt_date,halt_minute,resume_date,resume_minute,is_st\n"
    assert parse_halt_file(io.StringIO(header), cal) == []
    with pytest.raises(MalformedRow, match="header"):
        parse_halt_file(io.StringIO("a,b\n1,2\n"), cal)
    cases = [
        "A,2009-01-05,61\n",                                  # short row
        "A,2009-99-05,61,2009-01-05,121,0\n",                 # bad date
        "A,2009-01-05,sixty,2009-01-05,121,0\n",              # bad minute
        "A,2009-01-05,61,2009-01-05,121,yes\n",               # bad flag
        ",2009-01-05,61,2009-01-05,121,0\n",                  # empty id
    ]
    for body in cases:
        with pytest.raises(MalformedRow, match="line 2"):
            parse_halt_file(io.StringIO(header + body), cal)
    with pytest.raises(InvalidInterval, match="line 2"):
        parse_halt_file(io.StringIO(
            header + "A,2009-01-05,61,2009-01-05,61,0\n"), cal)


@pytest.mark.parametrize("body", [
    b"A\xff,2009-01-05,61,2009-01-05,121,0\n",              # stock id
    b"A,2009-01-\xff5,61,2009-01-05,121,0\n",               # date
    b"A,2009-01-05,6\xff,2009-01-05,121,0\n",               # minute
    b"A,2009-01-05,61,2009-01-05,121,\xff\n",               # flag
    b"A," + b"9" * 140_000 + b",61,2009-01-05,121,0\n",    # csv field limit
])
def test_parse_halt_file_reports_unreadable_rows(body):
    header = b"stock_id,halt_date,halt_minute,resume_date,resume_minute,is_st\n"
    with pytest.raises(MalformedRow, match="^line 2: "):
        parse_halt_file(io.BytesIO(header + body), make_calendar(12))


@pytest.mark.parametrize("row, day", [
    ("A,2031-01-01,61,2031-01-02,121,0", "2031-01-01"),     # halt day
    ("A,2009-01-05,61,2009-01-10,121,0", "2009-01-10"),     # resume day
])
def test_parse_halt_file_reports_off_calendar_days(row, day):
    header = "stock_id,halt_date,halt_minute,resume_date,resume_minute,is_st\n"
    good = "B,2009-01-05,61,2009-01-05,121,0\n"
    with pytest.raises(UnknownDay, match=f"^line 3: {day} is not a trading day$"):
        parse_halt_file(io.StringIO(header + good + row + "\n"),
                        make_calendar(12))
    # the row's own field checks come first
    bad_flag = row[:-1] + "x"
    with pytest.raises(MalformedRow, match="^line 2: is_st"):
        parse_halt_file(io.StringIO(header + bad_flag + "\n"),
                        make_calendar(12))


def test_eligibility_report_layout():
    cal = make_calendar(12)
    ok = halt_event(cal, "A", (5, 61), (5, 121),
                    HaltType.INTRADAY, EventSign.POSITIVE)
    unsigned = HaltEvent(halt_record(cal, "B", (5, 1), (6, 1)),
                         HaltType.ONE_DAY, None,
                         RejectionReason.INSUFFICIENT_HISTORY)
    out = io.StringIO()
    write_eligibility_report([ok, unsigned], out)
    day5 = cal.trading_days[5].isoformat()
    day6 = cal.trading_days[6].isoformat()
    assert out.getvalue() == (
        "stock_id,halt_date,halt_minute,resume_date,resume_minute,"
        "halt_type,sign,eligible,rejection_reason\n"
        f"A,{day5},61,{day5},121,intraday,pos,1,\n"
        f"B,{day5},1,{day6},1,oneday,,0,insufficient_history\n")
