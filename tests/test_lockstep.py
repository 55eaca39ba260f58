"""Lockstep averaging against the one-at-a-time reference it replaces.

The chunked trajectory stage, the N-D running average and the
lockstep bootstrap must reproduce the per-event / per-resample loops
bit for bit, and raise the same first error in the same order.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from haltstudy import (
    BootstrapResult,
    DegenerateData,
    EventSign,
    EventTrajectory,
    HaltStudyError,
    HaltType,
    MeasureKind,
    NonConvergence,
    PanelBuilder,
    bootstrap_alpha_stderr,
    extract_stock_trajectories,
    group_average,
    make_calendar,
    make_excess,
    resampled_means,
)
from haltstudy import event_study
from haltstudy.event_study import _Welford, _lockstep_welford, _lookback_days
from haltstudy.events import _active_days
from helpers import add_stock, halt_event
from oracles import (compute_intraday_pattern, extract_trajectory,
                     masked_welford_add, scalar_power_law_fit)

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
    ordered = sorted(events, key=lambda ev: ev.record.sort_key())
    try:
        _reference_trajectories(panel, ordered, measures, lookback, pre, post)
    except HaltStudyError as exc:
        return exc
    raise AssertionError("scenario raises nothing")


# ---------------------------------------------------------------- panels


def _intraday(cal, stock_id, day):
    return halt_event(cal, stock_id, (day, 61), (day, 121),
                      HaltType.INTRADAY, EventSign.POSITIVE)


def _oneday(cal, stock_id, day):
    return halt_event(cal, stock_id, (day, 1), (day + 1, 1),
                      HaltType.ONE_DAY, EventSign.NEGATIVE)


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
        for ev in events:
            rec = ev.record
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
            assert got_ev[m].event is ev
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
        for ev in events:
            rec = ev.record
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
    for ev in events:
        rec = ev.record
        per_stock.setdefault(rec.stock_id, []).append(_lookback_days(
            panel, _active_days(panel, rec.stock_id), rec, lookback))
    return {s: np.unique(np.concatenate(d)).size * len(MEASURES) * 240 * 8
            for s, d in per_stock.items()}


@pytest.mark.parametrize("cap", ["zero", "one_stock", "every_stock"])
def test_chunked_baselines_match_per_event_reference(mixed_panel, monkeypatch,
                                                     cap):
    panel, events = mixed_panel
    sizes = _stock_row_bytes(panel, events, 40)
    monkeypatch.setattr(event_study, "_CHUNK_BYTES", {
        "zero": 0, "one_stock": sizes["ONE"],
        "every_stock": sum(sizes.values())}[cap])
    shuffled = events[::-1]
    got = extract_stock_trajectories(panel, shuffled, MEASURES)
    want = _reference_trajectories(panel, shuffled, MEASURES, 40, 80, 160)
    for ev, got_ev, want_ev in zip(shuffled, got, want):
        for m in MEASURES:
            assert got_ev[m].event is ev
            assert _same_bits(got_ev[m].values, want_ev[m].values)
    spreads = {ev.record.stock_id: got_ev[MeasureKind.BID_ASK_SPREAD].values
               for ev, got_ev in zip(shuffled, got)}
    assert np.isnan(spreads["NOQ"]).all()
    assert np.isnan(spreads["NAQ"]).any() and not np.isnan(spreads["NAQ"]).all()


# ---------------------------------------------------------------- errors


@pytest.fixture(scope="module")
def faulty_panel():
    # ZERO: bid equals ask, so every spread baseline is zero, and bars
    # stop after day 52; QUIET: no volume at all; SHORT: bars stop after
    # day 52; THIN: trades only from day 10; GONE has no bars
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
    ev = {(s, d): _intraday(cal, s, d)
          for s in ("ZERO", "QUIET", "SHORT", "THIN", "GONE")
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
        for ev in events:
            rec = ev.record
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
            assert got_ev[m].event is ev
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
        acc.add(block)
    for idx in np.ndindex(shape[:-1]):
        ref = _Welford(shape[-1])
        for block in blocks:
            ref.add(block[idx])
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
                ref.add(rows[lead, i])
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
    ref = _Welford(acc.n.shape)
    for k in range(members.shape[1]):
        masked_welford_add(ref, rows[..., members[:, k], :])
    assert _same_bits(acc.counts(), ref.counts())
    assert _same_bits(acc.means(), ref.means())
    assert _same_bits(acc.m2, ref.m2)
    assert _same_bits(acc.stderrs(), ref.stderrs())


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
    ref = SimpleNamespace(n=np.zeros(shape, np.int64), mean=np.zeros(shape),
                          m2=np.zeros(shape))
    for member in members:
        acc.add(member)
        masked_welford_add(ref, member)
    assert _same_bits(acc.counts(), ref.n)
    assert _same_bits(acc.mean, ref.mean)
    if spread:
        assert _same_bits(acc.m2, ref.m2)
    else:
        assert acc.m2 is None


# ---------------------------------------------------------------- bootstrap


def _reference_bootstrap(trajectories, fit_range, n_resamples, seed):
    # the per-resample loop of scalar fits the lockstep bootstrap replaces
    trajs = sorted(trajectories, key=lambda tr: tr.event.record.sort_key())
    indices = np.random.default_rng(seed).integers(
        0, len(trajs), size=(n_resamples, len(trajs)))
    count, mean, m2, failed = 0, 0.0, 0.0, 0
    for row in indices:
        series = make_excess(group_average([trajs[i] for i in row]))
        try:
            fit = scalar_power_law_fit(series.t, series.mean, fit_range)
        except (DegenerateData, NonConvergence):
            failed += 1
            continue
        count += 1
        delta = fit.alpha - mean
        mean += delta / count
        m2 += delta * (fit.alpha - mean)
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
        out.append(EventTrajectory(ev, MeasureKind.VOLUME, t,
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
    for seed in (0, 1, 2):
        got = bootstrap_alpha_stderr(trajs[::-1], (1, 160),
                                     n_resamples=60, seed=seed)
        want = _reference_bootstrap(trajs, (1, 160), 60, seed)
        assert got == want
    # no excess anywhere: every resample fails
    flat = _trajectories([np.ones(241), np.full(241, 0.5)])
    got = bootstrap_alpha_stderr(flat, (1, 160), n_resamples=12, seed=4)
    want = _reference_bootstrap(flat, (1, 160), 12, 4)
    assert (got.n_success, got.n_failed) == (want.n_success, want.n_failed)
    assert got.n_failed == 12 and math.isnan(got.stderr)
    # a pair with one flat member: about a quarter of resamples fail
    mixed = [trajs[0], trajs[2]]
    got = bootstrap_alpha_stderr(mixed, (1, 160), n_resamples=40, seed=6)
    assert got == _reference_bootstrap(mixed, (1, 160), 40, 6)
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
    for seed in (0, 1):
        assert (bootstrap_alpha_stderr(trajs, (5, 60), n_resamples=30,
                                       seed=seed)
                == _reference_bootstrap(trajs, (5, 60), 30, seed))
