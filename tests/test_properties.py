"""Property tests of bar and halt ingest: fuzzed input, round trips, filling."""

import io
from datetime import date

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    HaltStudyError,
    PanelBuilder,
    TradingCalendar,
    forward_fill_all,
    parse_bar_file,
    parse_halt_file,
    write_bar_csv,
)
from haltstudy.events import HALT_CSV_HEADER
from haltstudy.market_data import BAR_CSV_HEADER

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
        parse_halt_file(_stream(HALT_CSV_HEADER, body))
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
def panels(draw):
    n = CAL.n_minutes
    builder = PanelBuilder(CAL)
    for stock_id in draw(st.lists(_STOCK_IDS, min_size=1, max_size=3,
                                  unique=True)):
        bars = draw(st.dictionaries(st.integers(0, n - 1), _BAR,
                                    min_size=1, max_size=12))
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
    # forward-filled bars are synthetic and never written
    assert _round_trip(forward_fill_all(panel)) == panel


@settings(deadline=None)
@given(panels())
def test_forward_fill_all_is_idempotent(panel):
    filled = forward_fill_all(panel)
    assert forward_fill_all(filled) is filled
    assert filled.n_bars >= panel.n_bars
    for stock_id in panel.stock_ids:
        assert filled.coverage(stock_id) == panel.coverage(stock_id)
        real = filled.real_mask(stock_id)
        assert np.array_equal(real, panel.present_mask(stock_id))
