"""Property tests: fuzzed ingest, round trips, filling, and averages that
ignore member order and reproduce identical members exactly."""

import io
from dataclasses import replace
from datetime import date
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    EligibilityConfig,
    EventSign,
    EventTrajectory,
    HaltStudyError,
    HaltType,
    InsufficientHistory,
    MeasureKind,
    PanelBuilder,
    RejectionReason,
    TradingCalendar,
    filter_eligibility,
    group_average,
    make_calendar,
    parse_bar_file,
    parse_halt_file,
    write_bar_csv,
)
from haltstudy import market_data
from haltstudy.events import HALT_CSV_HEADER
from haltstudy.market_data import BAR_CSV_HEADER
from helpers import add_stock, cumulative_curve, halt_event, halt_record
from oracles import forward_filled_prices, lookback_days

CAL = TradingCalendar((date(2010, 3, 1), date(2010, 3, 2)))

# ---------------------------------------------------------------- fuzzing

_TOKENS = st.one_of(
    st.sampled_from(["600000", "2010-03-01", "2010-03-02", "2010-03-08",
                     "2010-13-01", "0", "1", "61", "121", "240", "241", "-1",
                     "10.0", "9.99", "10.01", "1e308", "inf", "nan", "",
                     " ", '"', "\xff"]),
    st.text(max_size=8))
_ROWS = st.lists(st.lists(_TOKENS, min_size=4, max_size=8).map(",".join),
                 max_size=6).map("\n".join)
_BODIES = st.one_of(st.binary(max_size=300), st.text(max_size=300), _ROWS)


def _stream(header: tuple[str, ...], body: bytes | str):
    head = ",".join(header) + "\n"
    if isinstance(body, bytes):
        return io.BytesIO(head.encode() + body)
    return io.StringIO(head + body)


@settings(deadline=None)
@given(_BODIES)
def test_bar_parser_accepts_or_raises_its_own_errors(body):
    try:
        parse_bar_file(_stream(BAR_CSV_HEADER, body), CAL)
    except HaltStudyError:
        pass


@settings(deadline=None)
@given(_BODIES)
def test_halt_parser_accepts_or_raises_its_own_errors(body):
    try:
        parse_halt_file(_stream(HALT_CSV_HEADER, body), CAL)
    except HaltStudyError:
        pass


_GOOD_LINES = st.builds(
    lambda *fields: ",".join(fields),
    st.sampled_from(["A", "B", " A", "B ", "A\x00"]),
    st.sampled_from(["2010-03-01", "2010-03-02", " 2010-03-02"]),
    st.integers(1, 240).map(str) | st.integers(1, 240).map(" {} ".format),
    st.sampled_from(["10.0", "9.5", "1e-3", " 10.25 ", "1_000"]),
    st.sampled_from(["500", "0", "-0.0", "1_000", "2.5"]),
    st.sampled_from(["", " ", "\t", "9.9", "10.0"]),
    st.sampled_from(["", " ", "10.0", "10.1"]))
_DEFECTS = [
    # the rows test_parse_rejects_malformed_rows rejects
    "600000,2010-03-01,1,10.0,500", "600000,2010-03-01,1,10.0,500,9.99,10.01,9",
    ",2010-03-01,1,10.0,500,,", "600000,2010-13-01,1,10.0,500,,",
    "600000,2010-03-01,zero,10.0,500,,", "600000,2010-03-01,0,10.0,500,,",
    "600000,2010-03-01,241,10.0,500,,", "600000,2010-03-01,1,ten,500,,",
    "600000,2010-03-01,1,inf,500,,", "600000,2010-03-01,1,10.0,-5,,",
    "600000,2010-03-01,1,0.0,500,,", "600000,2010-03-01,1,-1.0,500,,",
    "600000,2010-03-01,1,10.0,500,10.02,10.01", "600000,2010-03-08,1,10.0,500,,",
    # quotes and carriage returns, which only csv splits right; a blank
    # line; lone surrogates, a field over csv's limit, non-finite
    # numbers and a minute too large for int64
    '"A,B",2010-03-01,3,10.0,500,,', '"A""q",2010-03-01,4,10.0,500,"",',
    "", "A,2010-03-01,5,10.0,500,\udcff,", "\udcffB,2010-03-01,5,10.0,500,,",
    "A" * 200_000 + ",2010-03-01,6,10.0,500,,", "A,2010-03-01,7,nan,1,,",
    "A,2010-03-01,7,10.0,1,inf,", "A,2010-03-01,99999999999999999999,1,1,,",
    "A,2010-03-01,8,10.0,500,,\r", "A,2010-03-01,8,10.0,500,\r,",
]


def _bar_stream(lines: list[str], end: str, as_bytes: bool):
    text = "".join(line + end for line in [",".join(BAR_CSV_HEADER), *lines])
    if as_bytes:
        return io.BytesIO(text.encode("utf-8", "surrogateescape"))
    return io.StringIO(text)


def _outcome(stream):
    stream.seek(0)
    try:
        panel = parse_bar_file(stream, CAL)
    except HaltStudyError as exc:
        return type(exc), str(exc)
    return {s: [a.tobytes() for a in (panel.prices(s), panel.volumes(s),
                                      panel.bids(s), panel.asks(s),
                                      panel.present_mask(s))]
            for s in panel.stock_ids}


def _assert_blocks_match_row_loop(stream):
    # declining every block leaves the whole file to the row loop; a
    # block of 64 characters holds a line or two, so runs of one stock
    # and duplicate bars straddle blocks
    with patch.object(market_data, "_store_block", lambda *args: False):
        want = _outcome(stream)
    assert _outcome(stream) == want
    with patch.object(market_data, "_BLOCK_CHARS", 64):
        assert _outcome(stream) == want


@st.composite
def _bar_files(draw):
    lines = draw(st.lists(_GOOD_LINES, max_size=30))
    for bad in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return _bar_stream(lines, end, draw(st.booleans()))


@settings(deadline=None, max_examples=60)
@given(_bar_files())
def test_block_reads_match_the_row_loop(stream):
    _assert_blocks_match_row_loop(stream)


@pytest.mark.parametrize("as_bytes", [False, True])
@pytest.mark.parametrize("defect", _DEFECTS, ids=lambda line: line[:30])
def test_block_reads_match_the_row_loop_on_each_defect(defect, as_bytes):
    good = [f"G,2010-03-02,{m},10.0,500,9.9,10.0" for m in range(1, 9)]
    _assert_blocks_match_row_loop(
        _bar_stream(good[:4] + [defect] + good[4:], "\n", as_bytes))


# ---------------------------------------------------------------- panels

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BAR = st.tuples(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, allow_infinity=False),
    st.none() | _FINITE, st.none() | _FINITE)
# csv quoting characters and line breaks included; no leading or
# trailing whitespace, which parsing strips
_STOCK_IDS = st.text(alphabet="AZaz09,\"'._-\r\n", min_size=1,
                     max_size=5).filter(lambda s: s == s.strip())


@st.composite
def panels(draw, min_bars=1):
    # stocks with at least ``min_bars`` bars each
    n = CAL.n_minutes
    builder = PanelBuilder(CAL)
    for stock_id in draw(st.lists(_STOCK_IDS, min_size=1, max_size=3,
                                  unique=True)):
        bars = draw(st.dictionaries(st.integers(0, n - 1), _BAR,
                                    min_size=min_bars, max_size=12))
        columns = np.full((4, n), np.nan)
        present = np.zeros(n, dtype=bool)
        for g, (price, volume, bid, ask) in bars.items():
            if bid is not None and ask is not None and ask < bid:
                bid, ask = ask, bid
            columns[:, g] = (price, volume,
                             np.nan if bid is None else bid,
                             np.nan if ask is None else ask)
            present[g] = True
        builder.add_stock_arrays(stock_id, *columns, present)
    return builder.build()


def _round_trip(panel):
    out = io.StringIO()
    write_bar_csv(panel, out)
    return parse_bar_file(io.StringIO(out.getvalue()), CAL)


@settings(deadline=None)
@given(panels())
def test_written_panel_parses_back_equal(panel):
    assert _round_trip(panel) == panel


@settings(deadline=None)
@given(panels(min_bars=0))
def test_log_prices_fill_matches_reference(panel):
    for stock_id in panel.stock_ids:
        lnp = panel.log_prices(stock_id)
        present = panel.present_mask(stock_id)
        assert _same_bits(lnp, np.log(forward_filled_prices(panel, stock_id)))
        if not present.any():
            assert np.isnan(lnp).all()
            continue
        first, last = panel.coverage(stock_id)
        assert np.isnan(lnp[:first]).all() and np.isnan(lnp[last + 1:]).all()
        assert not np.isnan(lnp[first:last + 1]).any()
        # the log return across every absent minute of the span is 0.0
        gap = np.flatnonzero(~present[first:last + 1]) + first
        assert np.all(lnp[gap] - lnp[gap - 1] == 0.0)


# ---------------------------------------------------------------- averages

CAL12 = make_calendar(12)
_VALUES = st.one_of(st.floats(-1e3, 1e3), st.just(float("nan")))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _trajectory(i: int, values) -> EventTrajectory:
    ev = halt_event(CAL12, f"S{i:02d}", (5, 61), (5, 121),
                    HaltType.INTRADAY, EventSign.POSITIVE)
    values = np.asarray(values, float)
    return EventTrajectory(ev.record, MeasureKind.VOLUME,
                           np.arange(values.size), values)


@st.composite
def _groups(draw):
    size = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(_VALUES, min_size=size, max_size=size),
                         min_size=1, max_size=6))
    trajs = [_trajectory(i, row) for i, row in enumerate(rows)]
    return trajs, draw(st.permutations(trajs))


@settings(deadline=None)
@given(_groups())
def test_group_average_ignores_member_order(group):
    trajs, shuffled = group
    want, got = group_average(trajs), group_average(shuffled)
    for field in ("t", "mean", "stderr", "n"):
        assert _same_bits(getattr(got, field), getattr(want, field))


@settings(deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=12), st.integers(2, 8))
def test_identical_members_average_to_the_member(row, n_members):
    member = np.asarray(row, float)
    avg = group_average([_trajectory(i, member) for i in range(n_members)])
    assert _same_bits(avg.mean, member)
    present = ~np.isnan(member)
    assert np.all(avg.stderr[present] == 0.0)
    assert np.all(np.isnan(avg.stderr[~present]))


CAL4 = make_calendar(4)


@st.composite
def _curve_inputs(draw):
    n_stocks = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    builder = PanelBuilder(CAL4)
    events = []
    for i in range(n_stocks):
        stock_id = f"S{i:02d}"
        lnp = np.cumsum(rng.normal(0.0, 0.004, CAL4.n_minutes))
        add_stock(builder, CAL4, stock_id, price=20.0 * np.exp(lnp),
                  absent=[slice(540, 600)])
        events.append(halt_record(CAL4, stock_id, (2, 61), (2, 121)))
    return builder.build(), events, draw(st.permutations(events))


@settings(deadline=None, max_examples=40)
@given(_curve_inputs())
def test_cumulative_curve_ignores_event_order(inputs):
    panel, events, shuffled = inputs
    want = cumulative_curve(panel, events)
    got = cumulative_curve(panel, shuffled)
    assert got.n == want.n
    for field in ("t", "mean", "stderr"):
        assert _same_bits(getattr(got, field), getattr(want, field))


# ---------------------------------------------------------------- history


CAL12 = make_calendar(12)
SHORT_WINDOWS = EligibilityConfig(trend_window=10, pre_window=10,
                                  post_window=10, measure_pre_window=10)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(["full", "none", "one_bar"]),
                min_size=12, max_size=12),
       st.integers(0, 11), st.integers(1, 12), st.integers(0, 239))
def test_history_rejection_agrees_with_lookback_days(days, halt_day, lookback,
                                                     minute):
    # a day with any bar is active, for the eligibility filter and for
    # the baselines alike; the halt day keeps its bars outside the halt,
    # so the coverage checks always pass
    absent = [slice(halt_day * 240 + 60, halt_day * 240 + 120)]
    for d, kind in enumerate(days):
        if d == halt_day or kind == "full":
            continue
        if kind == "none":
            absent.append(slice(d * 240, (d + 1) * 240))
        else:
            absent += [slice(d * 240, d * 240 + minute),
                       slice(d * 240 + minute + 1, (d + 1) * 240)]
    builder = PanelBuilder(CAL12)
    add_stock(builder, CAL12, "A", absent=absent)
    panel = builder.build()
    rec = halt_record(CAL12, "A", (halt_day, 61), (halt_day, 121))
    config = replace(SHORT_WINDOWS, lookback_days=lookback)
    reason = filter_eligibility([rec], panel, config)[0].rejection_reason
    try:
        lookback_days(panel, rec, lookback)
        too_few = False
    except InsufficientHistory:
        too_few = True
    assert (reason is RejectionReason.INSUFFICIENT_HISTORY) == too_few
