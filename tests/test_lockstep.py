"""Lockstep averaging against the one-at-a-time reference it replaces.

The chunked trajectory stage, the N-D running average, the shared
group-average pass and the lockstep bootstrap must reproduce the
per-event / per-group / per-resample loops bit for bit, and raise the
same first error in the same order.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from haltstudy import (
    BootstrapResult,
    EmptyGroup,
    EventSign,
    EventTrajectory,
    HaltStudyError,
    HaltType,
    MeasureKind,
    PanelBuilder,
    bootstrap_alpha_stderr,
    extract_stock_trajectories,
    group_average,
    group_averages,
    make_calendar,
    make_excess,
    resampled_means,
)
from haltstudy import event_study
from haltstudy.event_study import (_Welford, _gap_steps, _lockstep_welford,
                                   _padded_members)
from haltstudy.powerlaw import _RowFit
from helpers import add_stock, cell_fit, fit_row, halt_event, halt_record
from oracles import (compute_intraday_pattern, extract_trajectory,
                     group_average as lone_group_average, lookback_days,
                     masked_welford, masked_welford_add, new_masked_welford)

MEASURES = tuple(MeasureKind)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (np.array_equal(a, b, equal_nan=True)
            and a.dtype == b.dtype and a.tobytes() == b.tobytes())


def _reference_trajectories(panel, events, measures, lookback, pre, post):
    return [{m: extract_trajectory(
                panel, ev, m, compute_intraday_pattern(panel, ev, m, lookback),
                pre, post)
             for m in measures}
            for ev in events]


def _reference_error(panel, events, measures, lookback=40, pre=80, post=160):
    # the per-event loop in its documented order: sorted events, measures
    ordered = sorted(events, key=lambda rec: rec.sort_key())
    try:
        _reference_trajectories(panel, ordered, measures, lookback, pre, post)
    except HaltStudyError as exc:
        return exc
    raise AssertionError("scenario raises nothing")


# ---------------------------------------------------------------- panels


def _intraday(cal, stock_id, day):
    return halt_record(cal, stock_id, (day, 61), (day, 121))


def _oneday(cal, stock_id, day):
    return halt_record(cal, stock_id, (day, 1), (day + 1, 1))


def _noisy_stock(builder, cal, stock_id, rng, absent):
    n = cal.n_minutes
    price = 20.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, n)))
    volume = rng.integers(0, 500, n).astype(float)
    spread = rng.uniform(0.01, 0.05, n)
    add_stock(builder, cal, stock_id, price=price, volume=volume,
              spread=spread, absent=absent)


@pytest.fixture(scope="module")
def multi_halt_panel():
    # three stocks, several halts each; fully suspended days sit inside
    # the lookback windows, so baselines must skip them, and stray
    # missing minutes leave NaN slots in the patterns
    cal = make_calendar(64)
    rng = np.random.default_rng(17)
    day = lambda d: slice(d * 240, (d + 1) * 240)    # noqa: E731
    halts = {
        "AAA": [_intraday(cal, "AAA", 44), _oneday(cal, "AAA", 50),
                _intraday(cal, "AAA", 57)],
        "BBB": [_intraday(cal, "BBB", 46), _intraday(cal, "BBB", 52),
                _oneday(cal, "BBB", 58)],
        "CCC": [_intraday(cal, "CCC", 48), _intraday(cal, "CCC", 60)],
    }
    suspended = {"AAA": [3, 10, 43], "BBB": [0, 1, 2, 20, 45], "CCC": [30]}
    builder = PanelBuilder(cal)
    for stock_id, events in halts.items():
        absent = [day(d) for d in suspended[stock_id]]
        absent += list(rng.integers(0, cal.n_minutes, 200))
        for rec in events:
            absent.append(slice(rec.global_begin(cal), rec.global_resume(cal)))
        _noisy_stock(builder, cal, stock_id, rng, absent)
    events = [ev for evs in halts.values() for ev in evs]
    return builder.build(), events


@pytest.mark.parametrize("lookback, pre, post", [(40, 80, 160), (7, 30, 45)])
def test_stage_matches_per_event_reference(multi_halt_panel, lookback, pre,
                                           post):
    panel, events = multi_halt_panel
    shuffled = [events[i] for i in (5, 0, 7, 2, 6, 1, 4, 3)]
    got = extract_stock_trajectories(panel, shuffled, MEASURES, lookback,
                                     pre, post)
    want = _reference_trajectories(panel, shuffled, MEASURES, lookback,
                                   pre, post)
    assert len(got) == len(shuffled)
    for ev, got_ev, want_ev in zip(shuffled, got, want):
        assert list(got_ev) == list(MEASURES)
        for m in MEASURES:
            assert got_ev[m].record is ev
            assert got_ev[m].measure is m
            assert np.array_equal(got_ev[m].t, want_ev[m].t)
            assert _same_bits(got_ev[m].values, want_ev[m].values)
    # the panel really exercises missing observations
    assert any(np.isnan(tr.values).any() for per in got for tr in per.values())


def test_stage_measure_subset_and_empty_input(multi_halt_panel):
    panel, events = multi_halt_panel
    got = extract_stock_trajectories(panel, events, (MeasureKind.VOLUME,))
    want = _reference_trajectories(panel, events, (MeasureKind.VOLUME,),
                                   40, 80, 160)
    for got_ev, want_ev in zip(got, want):
        assert list(got_ev) == [MeasureKind.VOLUME]
        assert _same_bits(got_ev[MeasureKind.VOLUME].values,
                          want_ev[MeasureKind.VOLUME].values)
    assert extract_stock_trajectories(panel, []) == []
    with pytest.raises(ValueError, match="lookback"):
        extract_stock_trajectories(panel, events, lookback=0)
    with pytest.raises(ValueError, match="measure"):
        extract_stock_trajectories(panel, events, ())


@pytest.fixture(scope="module")
def mixed_panel():
    # one-event and multi-event stocks side by side: suspended days in
    # the lookbacks, quotes missing at stray minutes (NAQ) or always
    # (NOQ), and one-event stocks between multi-event ones in key order
    cal = make_calendar(64)
    rng = np.random.default_rng(29)
    day = lambda d: slice(d * 240, (d + 1) * 240)    # noqa: E731
    halts = {
        "AAA": [_intraday(cal, "AAA", 44), _oneday(cal, "AAA", 50),
                _intraday(cal, "AAA", 57)],
        "NAQ": [_oneday(cal, "NAQ", 47)],
        "NOQ": [_intraday(cal, "NOQ", 52)],
        "ONE": [_intraday(cal, "ONE", 45)],
        "PPP": [_intraday(cal, "PPP", 46), _oneday(cal, "PPP", 58)],
        "QQQ": [_intraday(cal, "QQQ", 49)],
    }
    suspended = {"AAA": [3, 43], "NAQ": [30], "NOQ": [], "ONE": [5, 20, 44],
                 "PPP": [0, 45], "QQQ": [12, 13]}
    builder = PanelBuilder(cal)
    for stock_id, events in halts.items():
        absent = [day(d) for d in suspended[stock_id]]
        absent += list(rng.integers(0, cal.n_minutes, 100))
        for rec in events:
            absent.append(slice(rec.global_begin(cal), rec.global_resume(cal)))
        n = cal.n_minutes
        price = 20.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, n)))
        spread = rng.uniform(0.01, 0.05, n)
        if stock_id == "NAQ":
            spread[rng.random(n) < 0.2] = np.nan
        add_stock(builder, cal, stock_id, price=price,
                  volume=rng.integers(0, 500, n).astype(float),
                  spread=None if stock_id == "NOQ" else spread, absent=absent)
    return builder.build(), [ev for evs in halts.values() for ev in evs]


def _stock_row_bytes(panel, events, lookback):
    # bytes of each stock's used lookback days over every measure
    per_stock: dict = {}
    for rec in events:
        per_stock.setdefault(rec.stock_id, []).append(
            lookback_days(panel, rec, lookback))
    return {s: np.unique(np.concatenate(d)).size * len(MEASURES) * 240 * 8
            for s, d in per_stock.items()}


@pytest.fixture(scope="module")
def mixed_reference(mixed_panel):
    # the per-event reference of every event of ``mixed_panel``, reversed
    panel, events = mixed_panel
    shuffled = events[::-1]
    return shuffled, _reference_trajectories(panel, shuffled, MEASURES, 40,
                                             80, 160)


def _check_chunked(panel, shuffled, want):
    got = extract_stock_trajectories(panel, shuffled, MEASURES)
    for ev, got_ev, want_ev in zip(shuffled, got, want):
        for m in MEASURES:
            assert got_ev[m].record is ev
            assert _same_bits(got_ev[m].values, want_ev[m].values)
    return got


def _planned(monkeypatch) -> list:
    # the chunks of every _plan_chunks call, appended as it is made
    plan, planned = event_study._plan_chunks, []
    monkeypatch.setattr(event_study, "_plan_chunks",
                        lambda *args: planned.append(plan(*args))
                        or planned[-1])
    return planned


EVENT_BYTES = len(MEASURES) * 240 * 8


@pytest.mark.parametrize("cap, passes", [
    ("zero", 6), ("one_stock", 6), ("every_stock", 1), ("step_only", 3)])
def test_chunked_baselines_match_per_event_reference(
        mixed_panel, mixed_reference, monkeypatch, cap, passes):
    # "step_only": every stock's days fit the buffer, but a step block
    # holds three events, so AAA's three close a chunk, as do NAQ, NOQ
    # and ONE's one each; PPP's two and QQQ's one share the last
    panel, events = mixed_panel
    sizes = _stock_row_bytes(panel, events, 40)
    chunk_bytes, step_bytes = {
        "zero": (0, 0), "one_stock": (sizes["ONE"], 1 << 24),
        "every_stock": (sum(sizes.values()), len(events) * EVENT_BYTES),
        "step_only": (sum(sizes.values()), 3 * EVENT_BYTES)}[cap]
    monkeypatch.setattr(event_study, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(event_study, "_STEP_BYTES", step_bytes)
    planned = _planned(monkeypatch)
    got = _check_chunked(panel, *mixed_reference)
    assert len(planned) == 1 and len(planned[0]) == passes
    spreads = {ev.stock_id: got_ev[MeasureKind.BID_ASK_SPREAD].values
               for ev, got_ev in zip(mixed_reference[0], got)}
    assert np.isnan(spreads["NOQ"]).all()
    assert np.isnan(spreads["NAQ"]).any() and not np.isnan(spreads["NAQ"]).all()


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 300 * EVENT_BYTES), st.integers(0, 10 * EVENT_BYTES))
def test_any_cap_pair_matches_per_event_reference(mixed_panel,
                                                  mixed_reference,
                                                  chunk_bytes, step_bytes):
    # from a pass per stock to one pass for all, split by either cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(event_study, "_CHUNK_BYTES", chunk_bytes)
        patch.setattr(event_study, "_STEP_BYTES", step_bytes)
        _check_chunked(mixed_panel[0], *mixed_reference)


# ---------------------------------------------------------------- errors


@pytest.fixture(scope="module")
def faulty_panel():
    # ZERO: bid equals ask, so every spread baseline is zero, and bars
    # stop after day 52; QUIET: no volume at all; SHORT: bars stop after
    # day 52; THIN: trades only from day 10; GONE has no bars; MIXED:
    # no spread at minutes 10-19 of every day and no volume at minutes
    # 150-159 from day 12, so only its day-52 lookback lacks volume
    cal = make_calendar(60)
    rng = np.random.default_rng(3)
    builder = PanelBuilder(cal)
    price = 10.0 * np.exp(np.cumsum(rng.normal(0.0, 0.001, cal.n_minutes)))
    tail = slice(53 * 240, None)
    add_stock(builder, cal, "ZERO", price=price, volume=50.0, spread=0.0,
              absent=[tail])
    add_stock(builder, cal, "QUIET", price=price, volume=0.0, spread=0.02)
    add_stock(builder, cal, "SHORT", price=price, volume=50.0, spread=0.02,
              absent=[tail])
    add_stock(builder, cal, "THIN", price=price, volume=50.0, spread=0.02,
              absent=[slice(0, 10 * 240)])
    volume = np.full((60, 240), 50.0)
    volume[12:, 150:160] = 0.0
    spread = np.full((60, 240), 0.02)
    spread[:, 10:20] = 0.0
    add_stock(builder, cal, "MIXED", price=price, volume=volume.ravel(),
              spread=spread.ravel())
    ev = {(s, d): _intraday(cal, s, d)
          for s in ("ZERO", "QUIET", "SHORT", "THIN", "GONE", "MIXED")
          for d in (45, 52)}
    return builder.build(), ev


SPREAD_LAST = (MeasureKind.ABSOLUTE_RETURN, MeasureKind.VOLUME,
               MeasureKind.BID_ASK_SPREAD)
NO_SPREAD = (MeasureKind.ABSOLUTE_RETURN, MeasureKind.VOLUME)


@pytest.mark.parametrize("keys, measures, expected", [
    # within a stock, an earlier event's baseline error beats a later
    # event's window error, and passes it when that measure is skipped
    ([("ZERO", 52), ("ZERO", 45)], SPREAD_LAST, "ZeroBaseline"),
    ([("ZERO", 52), ("ZERO", 45)], NO_SPREAD, "InsufficientPostWindow"),
    ([("SHORT", 52), ("SHORT", 45)], SPREAD_LAST, "InsufficientPostWindow"),
    ([("THIN", 52), ("THIN", 45)], SPREAD_LAST, "InsufficientHistory"),
    ([("QUIET", 45), ("QUIET", 52)], SPREAD_LAST, "ZeroBaseline"),
    # across stocks, the first stock in sorted order decides
    ([("THIN", 45), ("SHORT", 52)], NO_SPREAD, "InsufficientPostWindow"),
    ([("ZERO", 45), ("THIN", 45)], SPREAD_LAST, "InsufficientHistory"),
    ([("SHORT", 52), ("QUIET", 45)], SPREAD_LAST, "ZeroBaseline"),
    ([("ZERO", 45), ("GONE", 45)], SPREAD_LAST, "NoData"),
    ([("QUIET", 52), ("ZERO", 45)], NO_SPREAD, "ZeroBaseline"),
    # volume and spread baselines both fail, the spread's at an earlier
    # minute: the first measure in order, volume, names its minute
    ([("MIXED", 52)], SPREAD_LAST, "ZeroBaseline"),
    # the earlier event's spread beats the later event's volume
    ([("MIXED", 52), ("MIXED", 45)], SPREAD_LAST, "ZeroBaseline"),
])
def test_stage_raises_the_first_reference_error(faulty_panel, keys, measures,
                                                expected):
    panel, by_key = faulty_panel
    events = [by_key[k] for k in keys]
    want = _reference_error(panel, events, measures)
    assert type(want).__name__ == expected
    with pytest.raises(type(want)) as caught:
        extract_stock_trajectories(panel, events, measures)
    assert str(caught.value) == str(want)


@pytest.mark.parametrize("keys, measures, expected", [
    # an earlier stock's baseline error beats a later stock's window error
    ([("SHORT", 52), ("QUIET", 45)], SPREAD_LAST, "ZeroBaseline"),
    ([("THIN", 45), ("QUIET", 52)], NO_SPREAD, "ZeroBaseline"),
    # a window error of the earlier stock beats any error of the later one
    ([("ZERO", 45), ("THIN", 45)], SPREAD_LAST, "InsufficientHistory"),
    ([("ZERO", 45), ("SHORT", 45), ("SHORT", 52)], SPREAD_LAST,
     "InsufficientPostWindow"),
    ([("ZERO", 52), ("THIN", 52), ("THIN", 45)], SPREAD_LAST,
     "InsufficientHistory"),
])
@pytest.mark.parametrize("cap", [0, 1 << 24])
def test_error_order_inside_one_chunk(faulty_panel, monkeypatch, keys,
                                      measures, expected, cap):
    panel, by_key = faulty_panel
    monkeypatch.setattr(event_study, "_CHUNK_BYTES", cap)
    monkeypatch.setattr(event_study, "_STEP_BYTES", cap)
    events = [by_key[k] for k in keys]
    want = _reference_error(panel, events, measures)
    assert type(want).__name__ == expected
    with pytest.raises(type(want)) as caught:
        extract_stock_trajectories(panel, events, measures)
    assert str(caught.value) == str(want)


@pytest.fixture(scope="module")
def over_cap_panel():
    # multi-event stocks whose lookbacks cover 84-85 days (BBB, and OVZ with
    # a zero spread) beside one-event stocks (AAA, CCC, and PST, whose
    # bars end on its halt day); suspended days and stray missing
    # minutes leave holes in the lookbacks
    cal = make_calendar(100)
    rng = np.random.default_rng(41)
    day = lambda d: slice(d * 240, (d + 1) * 240)    # noqa: E731
    halts = {
        "AAA": [_intraday(cal, "AAA", 45)],
        "BBB": [_intraday(cal, "BBB", 44), _oneday(cal, "BBB", 62),
                _intraday(cal, "BBB", 90)],
        "CCC": [_intraday(cal, "CCC", 50)],
        "PST": [_intraday(cal, "PST", 50)],
        "OVZ": [_intraday(cal, "OVZ", 44), _oneday(cal, "OVZ", 62),
                _intraday(cal, "OVZ", 90)],
    }
    suspended = {"AAA": [7], "BBB": [9, 30, 61], "CCC": [], "PST": [],
                 "OVZ": [12]}
    builder = PanelBuilder(cal)
    for stock_id, events in halts.items():
        absent = [day(d) for d in suspended[stock_id]]
        absent += list(rng.integers(0, cal.n_minutes, 100))
        if stock_id == "PST":
            absent.append(slice(51 * 240, None))
        for rec in events:
            absent.append(slice(rec.global_begin(cal), rec.global_resume(cal)))
        n = cal.n_minutes
        add_stock(builder, cal, stock_id,
                  price=20.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, n))),
                  volume=rng.integers(0, 500, n).astype(float),
                  spread=(0.0 if stock_id == "OVZ"
                          else rng.uniform(0.01, 0.05, n)),
                  absent=absent)
    return builder.build(), halts


@pytest.mark.parametrize("measures", [SPREAD_LAST, NO_SPREAD])
def test_over_cap_stock_between_one_event_stocks(over_cap_panel, monkeypatch,
                                                 measures):
    # the cap holds one one-event stock; BBB's days alone exceed it, so
    # BBB is a chunk of its own and CCC starts the next one
    panel, halts = over_cap_panel
    events = [ev for s in ("CCC", "BBB", "AAA") for ev in halts[s]]
    sizes = _stock_row_bytes(panel, events, 40)
    days = {s: size // (len(MEASURES) * 240 * 8) for s, size in sizes.items()}
    monkeypatch.setattr(event_study, "_CHUNK_BYTES", sizes["AAA"])
    capacity = sizes["AAA"] // (len(measures) * 240 * 8)
    assert days["BBB"] > capacity >= days["CCC"]
    got = extract_stock_trajectories(panel, events, measures)
    want = _reference_trajectories(panel, events, measures, 40, 80, 160)
    for ev, got_ev, want_ev in zip(events, got, want):
        assert list(got_ev) == list(measures)
        for m in measures:
            assert got_ev[m].record is ev
            assert _same_bits(got_ev[m].values, want_ev[m].values)


@pytest.mark.parametrize("measures, expected", [
    # the over-cap stock's baseline error beats the next stock's window
    # error, and passes it when that measure is skipped
    (SPREAD_LAST, "ZeroBaseline"),
    (NO_SPREAD, "InsufficientPostWindow"),
])
def test_error_order_around_an_over_cap_stock(over_cap_panel, monkeypatch,
                                              measures, expected):
    panel, halts = over_cap_panel
    events = [ev for s in ("PST", "OVZ", "AAA") for ev in halts[s]]
    sizes = _stock_row_bytes(panel, events, 40)
    monkeypatch.setattr(event_study, "_CHUNK_BYTES", sizes["AAA"])
    capacity = sizes["AAA"] // (len(measures) * 240 * 8)
    assert sizes["OVZ"] // (len(MEASURES) * 240 * 8) > capacity
    want = _reference_error(panel, events, measures)
    assert type(want).__name__ == expected
    with pytest.raises(type(want)) as caught:
        extract_stock_trajectories(panel, events, measures)
    assert str(caught.value) == str(want)


# ---------------------------------------------------------------- Welford


@pytest.mark.parametrize("shape", [(5, 7), (3, 4, 6)])
def test_nd_welford_matches_row_by_row_passes(shape):
    rng = np.random.default_rng(11)
    k = 9
    blocks = rng.normal(1.0, 2.0, (k,) + shape)
    blocks[rng.random(blocks.shape) < 0.3] = np.nan     # missing slots
    blocks[:, ..., 0, :] = blocks[0, ..., 0, :]         # identical members
    blocks[:, ..., 1, :] = np.nan                       # never observed
    acc = _Welford(shape)
    for block in blocks:
        acc.add(block, np.isnan(block).any())
    for idx in np.ndindex(shape[:-1]):
        ref = _Welford(shape[-1])
        for block in blocks:
            ref.add(block[idx], np.isnan(block[idx]).any())
        assert _same_bits(acc.counts()[idx], ref.counts())
        assert _same_bits(acc.means()[idx], ref.means())
        assert _same_bits(acc.m2[idx], ref.m2)
        assert _same_bits(acc.sample_stds()[idx], ref.sample_stds())
        assert _same_bits(acc.stderrs()[idx], ref.stderrs())
    first = (0,) * (len(shape) - 2)
    assert _same_bits(acc.means()[first + (0,)], blocks[0][first + (0,)])
    assert np.all(acc.sample_stds()[first + (0,)][acc.counts()[first + (0,)]
                                                  >= 2] == 0.0)


def test_lockstep_welford_gathers_rows_per_block():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 6, 4))
    rows[0, 2, 1] = np.nan
    members = np.array([[0, 2, 2], [5, 1, 0]])
    acc = _lockstep_welford(rows, members)
    for lead in range(2):
        for b, row in enumerate(members):
            ref = _Welford(4)
            for i in row:
                ref.add(rows[lead, i], np.isnan(rows[lead, i]).any())
            assert _same_bits(acc.means()[lead, b], ref.means())
            assert _same_bits(acc.counts()[lead, b], ref.counts())


_VALUES = st.one_of(st.just(np.nan), st.just(0.0), st.just(-0.0),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _blocks_and_members(draw):
    # rows of shape (..., N, W) with NaNs, and a (B, K) member matrix
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    n, w = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(hnp.arrays(float, lead + (n, w), elements=_VALUES))
    members = draw(hnp.arrays(np.int64, (draw(st.integers(1, 4)),
                                         draw(st.integers(0, 6))),
                              elements=st.integers(0, n - 1)))
    return rows, members


@st.composite
def _padded_rows_and_members(draw):
    # rows of shape (..., N, W) with NaNs, ending in an all-NaN pad row
    # when drawn so, and a (B, K) member matrix, K = 0 included, whose
    # positions reach the pad
    rows, members = draw(_blocks_and_members())
    if draw(st.booleans()):
        pad = np.full(rows.shape[:-2] + (1, rows.shape[-1]), np.nan)
        rows = np.concatenate([rows, pad], axis=-2)
        members = draw(hnp.arrays(np.int64, members.shape,
                                  elements=st.integers(0, rows.shape[-2] - 1)))
    return rows, members


@settings(deadline=None)
@given(_padded_rows_and_members())
def test_gap_table_matches_per_step_nan_scan(case):
    # the pass decides its masked steps from one table of rows; each must
    # be masked exactly when its own gathered block holds a NaN
    rows, members = case
    want = [bool(np.isnan(rows[..., members[:, k], :]).any())
            for k in range(members.shape[1])]
    assert _gap_steps(rows, members) == want
    acc = _lockstep_welford(rows, members)
    ref = masked_welford(acc.mean.shape, (rows[..., members[:, k], :]
                                          for k in range(members.shape[1])))
    assert _same_bits(acc.counts(), ref.counts)
    assert _same_bits(acc.means(), ref.means)


@settings(deadline=None)
@given(_blocks_and_members())
def test_mean_only_pass_matches_full_welford(case):
    rows, members = case
    assert _same_bits(_lockstep_welford(rows, members, spread=False).means(),
                      _lockstep_welford(rows, members).means())


@settings(deadline=None)
@given(_blocks_and_members())
def test_counting_step_matches_masked_update(case):
    rows, members = case
    acc = _lockstep_welford(rows, members)
    ref = masked_welford(acc.mean.shape, (rows[..., members[:, k], :]
                                          for k in range(members.shape[1])))
    assert _same_bits(acc.counts(), ref.counts)
    assert _same_bits(acc.means(), ref.means)
    assert _same_bits(acc.m2, ref.m2)
    assert _same_bits(acc.stderrs(), ref.stderrs)


def _stepped(k, dirty, blocks=3, width=4):
    # rows (2, k * blocks, width) whose member matrix gathers block j of
    # rows at step j; step j of ``dirty`` misses one value in every lead
    rng = np.random.default_rng(k)
    rows = rng.normal(1.0, 2.0, (2, k * blocks, width))
    members = np.arange(k * blocks).reshape(k, blocks).T
    for j in dirty:
        rows[:, members[j % blocks, j], j % width] = np.nan
    return rows, members


def _never_observed():
    # slot (lead, 1, 2) misses its value at every step
    rows, members = _stepped(5, [])
    rows[:, members[1], 2] = np.nan
    return rows, members


def _padded():
    # groups of 3, 1 and 2 rows padded with the all-NaN last row: steps
    # 1 and 2 gather the pad
    rows = np.random.default_rng(4).normal(1.0, 2.0, (2, 7, 4))
    rows[:, -1] = np.nan
    return rows, _padded_members([3, 1, 2])


@pytest.mark.parametrize("case, dirty, unobserved", [
    (lambda: _stepped(5, [0]), [0], 0),
    (lambda: _stepped(5, [4]), [4], 0),
    (lambda: _stepped(5, range(5)), [0, 1, 2, 3, 4], 0),
    (lambda: _stepped(5, []), [], 0),
    (lambda: _stepped(6, [2]), [2], 0),
    (_never_observed, [0, 1, 2, 3, 4], 2),
    (_padded, [1, 2], 0),
    (lambda: _stepped(1, []), [], 0),
    (lambda: _stepped(1, [0]), [0], 2),
], ids=["missing-first-at-step-1", "missing-first-at-last-step",
        "missing-every-step", "no-missing", "clean-dirty-clean",
        "never-observed", "padded-groups", "one-step", "one-step-missing"])
@pytest.mark.parametrize("spread", [True, False])
def test_clean_and_missing_steps_match_masked_update(case, dirty, unobserved,
                                                     spread):
    # a step without a missing value skips the count and the masks; it
    # and every step after it must keep the masked update's bits
    rows, members = case()
    blocks = [rows[..., members[:, j], :] for j in range(members.shape[1])]
    assert [j for j, b in enumerate(blocks) if np.isnan(b).any()] == dirty
    want = masked_welford(blocks[0].shape, blocks)
    assert np.count_nonzero(want.counts == 0) == unobserved
    acc = _Welford(blocks[0].shape, spread)
    for block in blocks:
        acc.add(block, np.isnan(block).any())
    for got in (acc, _lockstep_welford(rows, members, spread)):
        assert _same_bits(got.counts(), want.counts)
        assert _same_bits(got.means(), want.means)
        if spread:
            assert _same_bits(got.m2, want.m2)
            assert _same_bits(got.stderrs(), want.stderrs)
        else:
            assert got.m2 is None


@st.composite
def _member_stacks(draw):
    # K members of one slot shape, NaNs included; the flagged members
    # repeat member 0, so some slots see identical members
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    k = draw(st.integers(1, 6))
    members = draw(hnp.arrays(float, (k,) + shape, elements=_VALUES))
    for i, same in enumerate(draw(st.lists(st.booleans(), min_size=k,
                                           max_size=k))):
        if same:
            members[i] = members[0]
    return members


@settings(deadline=None)
@given(_member_stacks(), st.booleans())
def test_buffered_accumulator_matches_masked_update(members, spread):
    shape = members.shape[1:]
    acc = _Welford(shape, spread)
    ref = new_masked_welford(shape)
    for member in members:
        acc.add(member, np.isnan(member).any())
        masked_welford_add(ref, member)
    assert _same_bits(acc.counts(), ref.n.astype(np.int64))
    assert _same_bits(acc.mean, ref.mean)
    if spread:
        assert _same_bits(acc.m2, ref.m2)
    else:
        assert acc.m2 is None


def test_infinite_members_match_masked_update():
    # the first step copies its values, so a lone infinite value is its
    # slot's mean with an m2 of 0, taking no increment inf * (inf - inf);
    # a second value meets inf - inf and makes the mean NaN
    members = np.array([[np.inf, -np.inf, np.nan, -0.0],
                        [np.nan, np.inf, np.inf, np.nan],
                        [np.inf, np.nan, 3.0, np.nan]])
    acc, ref = _Welford(4), new_masked_welford(4)
    with np.errstate(invalid="ignore"):
        for k, member in enumerate(members):
            acc.add(member, True)
            masked_welford_add(ref, member)
            assert _same_bits(acc.mean, ref.mean)
            assert _same_bits(acc.m2, ref.m2)
            if k == 0:
                assert _same_bits(acc.means(), members[0])
                assert np.all(acc.m2 == 0.0)
    assert _same_bits(acc.counts(), np.array([2, 2, 2, 1]))
    assert np.isnan(acc.means()[:3]).all()
    assert _same_bits(acc.means()[3:], np.array([-0.0]))


# ---------------------------------------------------------------- groups

GROUPS = [(ht, s) for ht in HaltType for s in EventSign]


@st.composite
def _trajectory_groups(draw):
    # 2-5 groups of 1-60 members and unequal sizes, so the shared pass
    # always pads; values hold NaN holes, 0.0 and -0.0, and a member may
    # repeat its group's first, so some slots see identical members
    cal = make_calendar(12)
    width = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 60), min_size=2, max_size=5)
                 .filter(lambda s: min(s) < max(s)))
    groups = []
    for g, size in enumerate(sizes):
        measure = draw(st.sampled_from(MEASURES))
        rows = draw(hnp.arrays(float, (size, width), elements=_VALUES))
        for i, same in enumerate(draw(st.lists(st.booleans(), min_size=size,
                                               max_size=size))):
            if same:
                rows[i] = rows[0]
        halt_type, sign = GROUPS[g % len(GROUPS)]
        t = np.arange(width)
        groups.append([EventTrajectory(
            halt_event(cal, f"S{i:02d}", (5, 61), (5, 121), halt_type,
                       sign).record,
            measure, t, row) for i, row in enumerate(rows)])
    return draw(st.permutations(groups))


@settings(deadline=None, max_examples=60)
@given(_trajectory_groups())
def test_shared_pass_matches_each_group_averaged_alone(groups):
    # a pad adds 0.0, exact only while no running mean is -0.0: a -0.0
    # member of a padded group catches an accumulator that keeps -0.0
    for got, trajs in zip(group_averages(groups), groups):
        want = lone_group_average(trajs)
        assert got.measure is want.measure
        for field in ("t", "mean", "stderr", "n"):
            assert _same_bits(getattr(got, field), getattr(want, field))


def test_groups_are_checked_in_order_before_any_pass():
    rng = np.random.default_rng(4)
    good = _trajectories([_decay(rng, 1.0, 0.6) for _ in range(3)])
    mixed = [good[0], replace(good[1], measure=MeasureKind.BID_ASK_SPREAD)]
    with pytest.raises(EmptyGroup):
        group_averages([good, [], mixed])
    with pytest.raises(ValueError, match="mix measures"):
        group_averages([good, mixed, []])
    assert group_averages([]) == []


# ---------------------------------------------------------------- bootstrap


def _reference_bootstrap(trajectories, fit, n_resamples, seed):
    # the per-resample loop the lockstep bootstrap replaces: each
    # resample's own group average, fitted alone
    trajs = sorted(trajectories, key=lambda tr: tr.record.sort_key())
    indices = np.random.default_rng(seed).integers(
        0, len(trajs), size=(n_resamples, len(trajs)))
    count, mean, m2, failed = 0, 0.0, 0.0, 0
    for row in indices:
        series = make_excess(group_average([trajs[i] for i in row]))
        refit = fit_row(series.t, series.mean, fit.fit_range)
        if not isinstance(refit, _RowFit):
            failed += 1
            continue
        count += 1
        delta = refit.alpha - mean
        mean += delta / count
        m2 += delta * (refit.alpha - mean)
    stderr = math.sqrt(m2 / (count - 1)) if count >= 2 else float("nan")
    return BootstrapResult(stderr, count, failed)


def _trajectories(rows, resumes=None):
    cal = make_calendar(12)
    t = np.arange(-80, 161)
    out = []
    for i, values in enumerate(rows):
        resume = (5, resumes[i]) if resumes else (5, 121)
        stock = "S00" if resumes else f"S{i:02d}"
        ev = halt_event(cal, stock, (5, 61), resume, HaltType.INTRADAY,
                        EventSign.POSITIVE)
        out.append(EventTrajectory(ev.record, MeasureKind.VOLUME, t,
                                   np.asarray(values, float)))
    return out


def _decay(rng, amp, alpha, noise=0.05, missing=0.1):
    t = np.arange(-80, 161, dtype=float)
    row = 1.0 + rng.normal(0.0, noise, t.size)
    post = t >= 1
    row[post] += amp * t[post] ** -alpha
    row[rng.random(t.size) < missing] = np.nan
    return row


def test_lockstep_bootstrap_matches_reference_loop():
    rng = np.random.default_rng(8)
    sparse = np.full(241, np.nan)
    sparse[85:90] = 2.0                 # too few points to fit alone
    rows = [_decay(rng, 2.0, 0.8), _decay(rng, 1.2, 0.5), np.ones(241),
            sparse, _decay(rng, 0.7, 1.1, noise=0.2)]
    trajs = _trajectories(rows)
    fit = cell_fit(trajs, (1, 160))
    for seed in (0, 1, 2):
        got = bootstrap_alpha_stderr(trajs[::-1], fit,
                                     n_resamples=60, seed=seed)
        want = _reference_bootstrap(trajs, fit, 60, seed)
        assert got == want
    # no excess anywhere: every resample fails
    flat = _trajectories([np.ones(241), np.full(241, 0.5)])
    got = bootstrap_alpha_stderr(flat, fit, n_resamples=12, seed=4)
    want = _reference_bootstrap(flat, fit, 12, 4)
    assert (got.n_success, got.n_failed) == (want.n_success, want.n_failed)
    assert got.n_failed == 12 and math.isnan(got.stderr)
    # a pair with one flat member: about a quarter of resamples fail
    mixed = [trajs[0], trajs[2]]
    mixed_fit = cell_fit(mixed, (1, 160))
    got = bootstrap_alpha_stderr(mixed, mixed_fit, n_resamples=40, seed=6)
    assert got == _reference_bootstrap(mixed, mixed_fit, 40, 6)
    assert got.n_failed > 0 and got.n_success >= 2


def test_resampled_means_follow_group_average_order():
    # distinct trajectories sharing one event key keep the order in
    # which group_average's stable sort meets them in each resample
    rng = np.random.default_rng(2)
    trajs = _trajectories([_decay(rng, 1.0, 0.6, noise=0.3) for _ in range(4)],
                          resumes=[121, 131, 141, 151])
    indices = rng.integers(0, 4, size=(50, 4))
    means = resampled_means(trajs, indices)
    for row, got in zip(indices, means):
        assert _same_bits(got, group_average([trajs[i] for i in row]).mean)


@pytest.mark.parametrize("holes", [(), (4,), (0, 1, 2, 3, 4)],
                         ids=["none", "last-trajectory", "every-trajectory"])
def test_resampled_means_with_a_missing_column_match_group_average(holes):
    # the trajectories ``holes`` miss their value at t = 20 only; the
    # last one sorts last in every resample, so the early sample steps
    # hold no missing value and skip the count and the masks
    rng = np.random.default_rng(21)
    rows = [_decay(rng, 1.0, 0.6, noise=0.3, missing=0.0) for _ in range(5)]
    for i in holes:
        rows[i][100] = np.nan
    trajs = _trajectories(rows)
    indices = rng.integers(0, 5, size=(40, 5))
    means = resampled_means(trajs, indices)
    for row, got in zip(indices, means):
        assert _same_bits(got, group_average([trajs[i] for i in row]).mean)
    assert np.isnan(means[:, 100]).all() == (len(holes) == 5)


@pytest.mark.parametrize("bad", [-1, 4])
def test_resampled_means_reject_positions_outside_the_group(bad):
    # the gather clamps silently, so positions are checked up front
    rng = np.random.default_rng(3)
    trajs = _trajectories([_decay(rng, 1.0, 0.6) for _ in range(4)])
    with pytest.raises(ValueError, match="outside"):
        resampled_means(trajs, np.array([[0, 1, 2, 3], [bad, 0, 1, 2]]))


def test_resampled_means_over_fit_columns_match_full_width():
    rng = np.random.default_rng(13)
    trajs = _trajectories([_decay(rng, 1.5, 0.7, noise=0.2) for _ in range(6)])
    indices = rng.integers(0, 6, size=(40, 6))
    t = trajs[0].t
    columns = np.flatnonzero((t >= 5) & (t <= 60))
    full = resampled_means(trajs, indices)
    assert _same_bits(resampled_means(trajs, indices, columns),
                      np.ascontiguousarray(full[:, columns]))
    fit = cell_fit(trajs, (5, 60))
    for seed in (0, 1):
        assert (bootstrap_alpha_stderr(trajs, fit, n_resamples=30, seed=seed)
                == _reference_bootstrap(trajs, fit, 30, seed))
