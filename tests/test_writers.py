"""The one line writer of every CSV file, against the ``csv.writer``
writers it replaced (``tests/oracles.py``), and atomic artifact writes."""

import io
from datetime import date
from itertools import repeat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from haltstudy import (
    DEFAULT_RELAXATIONS,
    AnalysisConfig,
    CountTable,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    MeasureKind,
    PanelBuilder,
    PowerLawFit,
    RejectionReason,
    TradingCalendar,
    build_group_spec,
    generate_panel,
    parse_bar_file,
    parse_halt_file,
    run_analysis,
    write_analysis_outputs,
    write_bar_csv,
    write_count_csv,
    write_eligibility_report,
    write_halt_csv,
)
from haltstudy import pipeline
from haltstudy.market_data import MINUTES_PER_DAY, _float_texts
from haltstudy.powerlaw import (FLAG_NO_POWER_LAW, FLAG_OK, BootstrapResult,
                                GroupFitRow)

CAL = TradingCalendar((date(2010, 3, 1), date(2010, 3, 2), date(2010, 3, 3)))

# every character csv.writer quotes with a "\n" line ending, and a space
_IDS = st.text(alphabet="AZaz09,\"' ._-\n", min_size=1, max_size=6)
# floats whose repr takes each of its forms, and NaN, which is written empty
_SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1e22, 123.456,
            float("nan"), float("inf"), float("-inf")]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e16, 1e-05, 0.1 + 0.2]),
                      st.floats(min_value=0.0, exclude_min=True,
                                allow_infinity=False))
_VOLUMES = st.one_of(st.sampled_from([-0.0, 0.0, 1e16, 3.0]),
                     st.floats(min_value=0.0, allow_infinity=False))


def _text(writer, *args) -> str:
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


@st.composite
def _panels(draw):
    n = CAL.n_minutes
    builder = PanelBuilder(CAL)
    for stock_id in draw(st.lists(_IDS, min_size=1, max_size=3, unique=True)):
        bars = draw(st.dictionaries(
            st.integers(0, n - 1),
            st.tuples(_POSITIVE, _VOLUMES, _FLOATS, _FLOATS), max_size=12))
        columns = np.full((4, n), np.nan)
        present = np.zeros(n, dtype=bool)
        for g, (price, volume, bid, ask) in bars.items():
            if ask < bid:
                bid, ask = ask, bid
            columns[:, g] = price, volume, bid, ask
            present[g] = True
        builder.add_stock_arrays(stock_id, *columns, present)
    return builder.build()


@st.composite
def _records(draw):
    # a global begin minute, then a strictly later resume minute: every
    # valid interval of the calendar, and no draw rejected
    begin = draw(st.integers(0, CAL.n_minutes - 2))
    resume = draw(st.integers(begin + 1, CAL.n_minutes - 1))
    (b_day, b_min), (r_day, r_min) = (divmod(g, MINUTES_PER_DAY)
                                      for g in (begin, resume))
    days = CAL.trading_days
    return HaltRecord(draw(_IDS), days[b_day], b_min + 1, days[r_day],
                      r_min + 1, draw(st.booleans()))


_EVENTS = st.builds(HaltEvent, _records(), st.sampled_from(HaltType),
                    st.none() | st.sampled_from(EventSign),
                    st.none() | st.sampled_from(RejectionReason))


def test_float_texts_is_repr_with_nan_empty():
    values = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, float("nan"), None]
    assert _float_texts(values) == ["-0.0", "5e-324", "1e+16", "1e-05",
                                    "0.30000000000000004", "", ""]
    assert _float_texts([]) == []


@settings(deadline=None)
@given(_panels())
def test_bar_text_matches_csv_writer(panel):
    assert _text(write_bar_csv, panel) == _text(oracles.write_bar_csv, panel)


@settings(deadline=None)
@given(st.lists(_records(), max_size=6))
def test_halt_text_matches_csv_writer(records):
    assert (_text(write_halt_csv, records)
            == _text(oracles.write_halt_csv, records))


@settings(deadline=None)
@given(st.lists(_EVENTS, max_size=6))
def test_eligibility_text_matches_csv_writer(events):
    assert (_text(write_eligibility_report, events)
            == _text(oracles.write_eligibility_report, events))


@given(st.lists(st.integers(0, 10**12), min_size=6, max_size=6))
def test_count_text_matches_csv_writer(counts):
    table = CountTable(tuple(
        (ht, s, n) for (ht, s), n in zip(
            [(ht, s) for ht in HaltType for s in EventSign], counts)))
    assert (_text(write_count_csv, table)
            == _text(oracles.write_count_csv, table))


_FITS = st.builds(PowerLawFit, _FLOATS, _FLOATS, _FLOATS,
                  st.just((1, 160)), _FLOATS, _FLOATS, st.integers(0, 160),
                  st.integers(0, 50))
_BOOTSTRAPS = st.builds(BootstrapResult, _FLOATS, st.integers(0, 200),
                        st.integers(0, 200))
_FIT_ROWS = st.builds(GroupFitRow, st.sampled_from(MeasureKind),
                      st.sampled_from(HaltType), st.sampled_from(EventSign),
                      st.none() | _FITS,
                      st.sampled_from([FLAG_OK, FLAG_NO_POWER_LAW]),
                      st.none() | _BOOTSTRAPS)


@settings(deadline=None)
@given(st.lists(_FIT_ROWS, max_size=6))
def test_exponent_text_matches_csv_writer(rows):
    assert (_text(pipeline.write_exponent_csv, rows)
            == _text(oracles.write_exponent_csv, rows))


@settings(deadline=None)
@given(st.integers(-5, 5), st.integers(0, 6), st.data())
def test_every_series_layout_matches_csv_writer(lo, size, data):
    t = np.arange(lo, lo + size)
    mean, stderr, model = (
        np.array(data.draw(st.lists(_FLOATS, min_size=size, max_size=size)))
        for _ in range(3))
    n = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=size,
                                    max_size=size)), dtype=np.int64)
    count = data.draw(st.integers(0, 10**6))
    group = data.draw(st.sampled_from(["intraday_pos", "interday_neg"]))
    label = data.draw(st.sampled_from(
        [pipeline.CUMULATIVE_LABEL, *(m.value for m in MeasureKind)]))
    layouts = [
        # curves.csv: one count for every row
        ((_float_texts(mean), _float_texts(stderr), repeat(str(count))),
         (oracles._float_texts(mean), oracles._float_texts(stderr),
          repeat(count))),
        # averages.csv and excess.csv
        ((_float_texts(mean), _float_texts(stderr),
          list(map(str, n.tolist()))),
         (oracles._float_texts(mean), oracles._float_texts(stderr),
          n.tolist())),
        # loglog.csv with a fit, and without one
        ((_float_texts(mean), _float_texts(model)),
         (oracles._float_texts(mean), oracles._float_texts(model))),
        ((_float_texts(mean), repeat("")),
         (oracles._float_texts(mean), repeat(""))),
    ]
    for columns, reference in layouts:
        assert (pipeline._series_text(group, label, t, *columns)
                == oracles._series_text(group, label, t, *reference))


@settings(deadline=None)
@given(st.lists(st.integers(1, 480), min_size=1, max_size=4),
       st.lists(_records(), max_size=5), st.data())
def test_sign_flip_text_matches_csv_writer(windows, records, data):
    signs = st.none() | st.sampled_from(EventSign)
    results = [SimpleNamespace(events=[
        HaltEvent(rec, HaltType.INTRADAY, data.draw(signs))
        for rec in records]) for _ in windows]
    new, old = io.StringIO(), io.StringIO()
    assert (pipeline.write_sign_flip_csv(windows, results, new)
            == oracles.write_sign_flip_csv(windows, results, old))
    assert new.getvalue() == old.getvalue()


# --------------------------------------------------------- carriage returns


def test_stock_id_with_a_carriage_return_round_trips():
    # csv.writer with a "\n" line ending left the "\r" unquoted, and the
    # reader then refused the row as a new-line in an unquoted field
    builder = PanelBuilder(CAL)
    present = np.zeros(CAL.n_minutes, dtype=bool)
    present[[3, 300]] = True
    builder.add_stock_arrays("A\rB", np.full(CAL.n_minutes, 10.0),
                             np.full(CAL.n_minutes, 2.0),
                             np.full(CAL.n_minutes, np.nan),
                             np.full(CAL.n_minutes, np.nan), present)
    panel = builder.build()
    text = _text(write_bar_csv, panel)
    assert parse_bar_file(io.StringIO(text), CAL) == panel
    assert text.split("\n")[1] == '"A\rB",2010-03-01,4,10.0,2.0,,'
    records = [HaltRecord("A\rB", CAL.trading_days[0], 61,
                          CAL.trading_days[0], 121)]
    text = _text(write_halt_csv, records)
    assert parse_halt_file(io.StringIO(text), CAL) == records


# ----------------------------------------------------------- atomic writes


@pytest.fixture(scope="module")
def small_run():
    panel, records, _ = generate_panel(build_group_spec(
        {key: 1 for key in DEFAULT_RELAXATIONS}, seed=31))
    config = AnalysisConfig(n_bootstrap=0)
    return run_analysis(panel, records, config), config


def test_artifacts_are_written_whole_or_not_at_all(small_run, tmp_path,
                                                   monkeypatch):
    result, config = small_run
    out = tmp_path / "out"
    out.mkdir()
    (out / "counts.csv").write_text("old\n")
    write = pipeline._WRITERS["excess.csv"]

    def failing(result, config, fh):
        write(result, config, fh)
        fh.flush()
        raise OSError("disk full")
    monkeypatch.setitem(pipeline._WRITERS, "excess.csv", failing)
    with pytest.raises(OSError, match="disk full"):
        write_analysis_outputs(result, config, out)
    # nothing half written, nothing left over, and the old file intact
    assert [p.name for p in out.iterdir()] == ["counts.csv"]
    assert (out / "counts.csv").read_text() == "old\n"

    monkeypatch.setitem(pipeline._WRITERS, "excess.csv", write)
    paths = write_analysis_outputs(result, config, out)
    assert paths == [out / name for name in pipeline.ARTIFACTS]
    assert sorted(p.name for p in out.iterdir()) == sorted(pipeline.ARTIFACTS)
    assert (out / "counts.csv").read_text() != "old\n"
