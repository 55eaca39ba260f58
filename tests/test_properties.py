"""Property tests: fuzzed ingest, round trips, filling, and averages that
ignore member order and reproduce identical members exactly."""

import io
from datetime import date

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    EventSign,
    EventTrajectory,
    HaltStudyError,
    HaltType,
    MeasureKind,
    PanelBuilder,
    TradingCalendar,
    average_cumulative_return,
    group_average,
    make_calendar,
    parse_bar_file,
    parse_halt_file,
    write_bar_csv,
)
from haltstudy.events import HALT_CSV_HEADER
from haltstudy.market_data import BAR_CSV_HEADER
from helpers import add_stock, halt_event
from oracles import forward_filled_prices

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


# ---------------------------------------------------------------- panels

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BAR = st.tuples(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, allow_infinity=False),
    st.none() | _FINITE, st.none() | _FINITE)
# csv quoting characters included; no whitespace, which parsing strips
_STOCK_IDS = st.text(alphabet="AZaz09,\"'._-", min_size=1, max_size=5)


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
    return EventTrajectory(ev, MeasureKind.VOLUME, np.arange(values.size),
                           values)


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
    # exact to the bit, except that the running mean starts at +0.0, so
    # a -0.0 member comes back as +0.0 (adding 0.0 leaves all else as is)
    assert _same_bits(avg.mean, member + 0.0)
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
        events.append(halt_event(CAL4, stock_id, (2, 61), (2, 121),
                                 HaltType.INTRADAY, EventSign.POSITIVE))
    return builder.build(), events, draw(st.permutations(events))


@settings(deadline=None, max_examples=40)
@given(_curve_inputs())
def test_cumulative_curve_ignores_event_order(inputs):
    panel, events, shuffled = inputs
    want = average_cumulative_return(panel, events)
    got = average_cumulative_return(panel, shuffled)
    assert got.n == want.n
    for field in ("t", "mean", "stderr"):
        assert _same_bits(getattr(got, field), getattr(want, field))
