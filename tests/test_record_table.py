"""The record table: one build per pass, checked against per-record
references.

A pass builds one table of its halt records in key order, and every
later stage indexes into it: selection gives each trend window's signs
and verdicts per row, and the eligible set and each group cell are
ascending row arrays. The properties compare the table's columns with
the records' own accessors, and every window's rows with the groups
that the one-record-at-a-time eligibility reference in ``oracles``
gives, on permuted registries with duplicate records, ST flags and
stocks missing from the panel.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    AnalysisConfig,
    EligibilityConfig,
    FitConfig,
    HaltRecord,
    HaltType,
    NoData,
    PanelBuilder,
    ZeroBaseline,
    generate_panel,
    make_calendar,
    run_analysis,
)
from haltstudy.events import _RecordColumns, group_sort_key
from haltstudy.pipeline import SELECTION_ARTIFACTS, run_windows
from helpers import add_stock, count_table_builds, location, multi_halt_spec
from oracles import eligibility_events, halt_type


@pytest.fixture(scope="module")
def multi_halt_inputs():
    # 3 stocks with 6 halts each, one in every group
    panel, records, _ = generate_panel(multi_halt_spec(3, 64, seed=5,
                                                       sigma=0.1))
    return panel, records


@pytest.mark.parametrize("windows", [[240], [240, 60], [60, 120, 180, 240]])
def test_a_pass_builds_one_record_table(multi_halt_inputs, monkeypatch,
                                        windows):
    panel, records = multi_halt_inputs
    builds = count_table_builds(monkeypatch)
    results = list(run_windows(panel, records, AnalysisConfig(n_bootstrap=4),
                               windows))
    assert len(results) == len(windows)
    assert len(builds) == 1
    assert all(result.cells for _, result in results)
    run_analysis(panel, records, AnalysisConfig(n_bootstrap=4))
    assert len(builds) == 2


@st.composite
def registries(draw):
    # a few stocks on a short calendar, each with random bars (a random
    # first and last bar, some days without bars, a few short gaps) or
    # none, or missing from the panel; several halts per stock, some
    # over-long or flagged ST, mostly without bars inside the halt; some
    # records given twice, as they are or with the other ST flag; all in
    # a random order, under random thresholds and 1-4 trend windows
    cal = make_calendar(draw(st.integers(3, 8)))
    n = cal.n_minutes
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    builder = PanelBuilder(cal)
    records = []
    for stock_id in ("A", "B", "C"):
        halts = []
        for _ in range(draw(st.integers(0, 4))):
            begin = draw(st.integers(0, n - 2))
            longest = draw(st.sampled_from([60, 60, 240, 3 * 240]))
            resume = draw(st.integers(begin + 1, min(begin + longest, n - 1)))
            halts.append(slice(begin, resume))
            records.append(HaltRecord(stock_id, *location(cal, begin),
                                      *location(cal, resume),
                                      draw(st.integers(0, 5)) == 0))
        kind = draw(st.sampled_from(["bars"] * 6 + ["empty", "gone"]))
        if kind == "gone":
            continue
        first = draw(st.just(0) | st.integers(0, n - 1))
        last = draw(st.just(n - 1) | st.integers(first, n - 1))
        absent = [slice(0, first), slice(last + 1, None)]
        if kind == "empty":
            absent = [slice(None)]
        absent += [halt for halt in halts if draw(st.integers(0, 9))]
        for day in np.flatnonzero(rng.random(cal.n_days) < 0.1):
            absent.append(slice(day * 240, (day + 1) * 240))
        for g in rng.integers(0, n, draw(st.integers(0, 4))):
            absent.append(slice(g, g + int(rng.choice([1, 1, 2, 30]))))
        add_stock(builder, cal, stock_id,
                  price=10.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, n))),
                  volume=rng.integers(1, 5, n).astype(float), spread=0.02,
                  absent=absent)
    if records:
        for rec in draw(st.lists(st.sampled_from(records), max_size=3)):
            records.append(rec if draw(st.booleans())
                           else replace(rec, is_st_stock=not rec.is_st_stock))
    window = st.integers(1, 150)
    config = EligibilityConfig(
        lookback_days=draw(st.integers(1, 3)),
        pre_window=draw(st.integers(2, 150)),
        post_window=draw(window), measure_pre_window=draw(window),
        max_halt_days=draw(st.integers(1, 2)),
        max_gap_fraction=draw(st.sampled_from([0.0, 0.02, 0.1, 0.5])))
    windows = draw(st.lists(window, min_size=1, max_size=4, unique=True))
    return (builder.build(), draw(st.permutations(records)), config,
            windows)


def _runs(records):
    # (stock id, start, stop) of each stock's records, which are sorted
    runs, start = [], 0
    for stock_id, group in groupby(records, key=lambda r: r.stock_id):
        stop = start + len(list(group))
        runs.append((stock_id, start, stop))
        start = stop
    return runs


def _bar_span(panel, stock_id):
    # minutes of the stock's first and last bar, -1 and -1 without any
    try:
        present = np.flatnonzero(panel.present_mask(stock_id))
    except NoData:
        return -1, -1
    return (int(present[0]), int(present[-1])) if present.size else (-1, -1)


def _check_columns(panel, table, records):
    # the table holds ``records``, which are sorted, column by column
    cal = panel.calendar
    assert table.records == records
    assert table.begin.tolist() == [r.global_begin(cal) for r in records]
    assert table.resume.tolist() == [r.global_resume(cal) for r in records]
    assert table.runs == _runs(records)
    assert list(zip(table.first.tolist(), table.last.tolist())) == \
        [_bar_span(panel, r.stock_id) for r in records]
    assert [list(HaltType)[k] for k in table.halt_types.tolist()] == \
        [halt_type(r, cal) for r in records]


@settings(deadline=None)
@given(registries(), st.data())
def test_table_matches_the_records(case, data):
    panel, records, _, _ = case
    table = _RecordColumns(records, panel)
    ordered = sorted(records, key=HaltRecord.sort_key)
    assert sorted(table.order.tolist()) == list(range(len(records)))
    assert [records[i] for i in table.order.tolist()] == ordered
    _check_columns(panel, table, ordered)
    # any ascending rows are a table of their own, still in key order
    keep = data.draw(st.lists(st.booleans(), min_size=len(records),
                              max_size=len(records)))
    rows = np.flatnonzero(np.array(keep, dtype=bool))
    part = table.take(rows)
    _check_columns(panel, part, [ordered[i] for i in rows.tolist()])
    assert part.order.tolist() == table.order[rows].tolist()


def _reference_groups(events):
    # each (halt type, sign) group's eligible records, in report order
    groups = {}
    for ev in events:
        if ev.eligible:
            groups.setdefault((ev.halt_type, ev.sign), []).append(ev.record)
    return [(*key, groups[key])
            for key in sorted(groups, key=lambda k: group_sort_key(*k))]


@settings(deadline=None)
@given(registries())
def test_every_window_indexes_the_pass_table(case):
    # in every window of a pass, the events, the eligible rows and each
    # group's rows are those of the per-record reference; where the
    # group stage runs through (an eligible event's baseline may be
    # zero), each cell holds its group's rows
    panel, records, config, windows = case
    analysis = AnalysisConfig(eligibility=config,
                              fit=FitConfig((1, config.post_window)))
    results = [result for _, result in run_windows(
        panel, records, analysis, windows, SELECTION_ARTIFACTS)]
    table = results[0].selection.table
    groups = []
    for window, result in zip(windows, results):
        assert result.selection.table is table
        want = eligibility_events(records, panel,
                                  replace(config, trend_window=window))
        assert [(ev.record, ev.halt_type, ev.sign, ev.rejection_reason)
                for ev in result.events] == \
            [(ev.record, ev.halt_type, ev.sign, ev.rejection_reason)
             for ev in want]
        assert [table.records[i] for i in result.selection.eligible] == \
            [ev.record for ev in want if ev.eligible]
        groups.append(_reference_groups(want))
        assert [(halt_type, sign, [table.records[i] for i in rows])
                for halt_type, sign, rows in result.selection.groups()] == \
            groups[-1]
    try:
        passed = [result.cells for _, result in run_windows(
            panel, records, analysis, windows, ("averages.csv",))]
    except ZeroBaseline:
        return
    for cells, want in zip(passed, groups):
        assert [(c.halt_type, c.sign, list(c.records)) for c in cells] == want
        for cell in cells:
            assert list(cell.rows) == sorted(cell.rows)
