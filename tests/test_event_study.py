"""Deseasonalization, event-time trajectories, curves and reversal rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    CumulativeReturnCurve,
    EmptyGroup,
    EventSign,
    EventTrajectory,
    GroupAverage,
    HaltRecord,
    HaltType,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    MeasureKind,
    PanelBuilder,
    ZeroBaseline,
    extract_stock_trajectories,
    group_average,
    make_calendar,
    measure_series,
    stability_stat,
)
from haltstudy.event_study import _curves_and_reversals
from haltstudy.pipeline import GroupCell
from helpers import (add_stock, cell_artifact, cumulative_curve, halt_event,
                     halt_record, location, reversal_fractions)

A, V, S = (MeasureKind.ABSOLUTE_RETURN, MeasureKind.VOLUME,
           MeasureKind.BID_ASK_SPREAD)


def _intraday_record(cal, stock_id="A", day=1):
    return halt_record(cal, stock_id, (day, 61), (day, 121))


# ---------------------------------------------------------------- measures


def test_measure_series_semantics():
    cal = make_calendar(2)
    builder = PanelBuilder(cal)
    price = np.full(cal.n_minutes, 10.0)
    price[99] = 11.0
    add_stock(builder, cal, "A", price=price, volume=7.0, spread=0.02,
              absent=[100])
    panel = builder.build()

    vol = measure_series(panel, "A", V)
    assert vol[0] == 7.0
    assert np.isnan(vol[100])           # an absent minute has no volume

    absr = measure_series(panel, "A", A)
    lnp = panel.log_prices("A")
    assert np.isnan(absr[0])            # no predecessor for the first bar
    assert np.isnan(absr[100])          # the bar itself is missing
    # the return after the gap spans it, from the carried 11.0
    assert lnp[100] == lnp[99]
    assert absr[101] == abs(lnp[101] - lnp[99]) > 0.0
    assert absr[102] == 0.0             # constant price

    spread = measure_series(panel, "A", S)
    assert spread[1] == pytest.approx(0.02, abs=1e-12)


def test_measure_series_spread_needs_quotes():
    cal = make_calendar(1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A")        # no quotes at all
    spread = measure_series(builder.build(), "A", S)
    assert np.isnan(spread).all()


# ---------------------------------------------------------------- baselines


def _trajectory(panel, ev, measure=V, lookback=40, pre_window=80):
    return extract_stock_trajectories(panel, [ev], (measure,), lookback,
                                      pre_window)[0][measure]


def _event_minutes(begin, resume):
    # global minutes of t = -80..160 for a halt at ``begin``, resuming
    # at ``resume``
    return np.concatenate([np.arange(begin - 80, begin),
                           np.arange(resume, resume + 161)])


def test_pattern_of_constant_volume_is_exact():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=250.0)
    ev = _intraday_record(cal, day=41)
    tr = _trajectory(builder.build(), ev)
    assert np.all(tr.values == 1.0)             # 250 / 250, exact


def test_pattern_averages_across_days():
    cal = make_calendar(42)
    volume = np.empty(cal.n_minutes)
    volume.reshape(42, 240)[0::2] = 2.0     # day parity split, 20 + 20
    volume.reshape(42, 240)[1::2] = 4.0
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=volume)
    ev = _intraday_record(cal, day=40)
    tr = _trajectory(builder.build(), ev)
    gs = _event_minutes(40 * 240 + 60, 40 * 240 + 120)
    assert tr.values == pytest.approx(volume[gs] / 3.0, abs=1e-12)


def test_pattern_skips_suspended_days():
    cal = make_calendar(43)
    builder = PanelBuilder(cal)
    # day 3 never trades, so the window must reach one day further back
    # and take in day 0: (77 + 39 * 5) / 40 = 6.8
    volume = np.full(cal.n_minutes, 5.0)
    volume[:240] = 77.0                     # only day 0 differs
    add_stock(builder, cal, "A", volume=volume,
              absent=[slice(3 * 240, 4 * 240)])
    ev = _intraday_record(cal, day=41)
    tr = _trajectory(builder.build(), ev)
    assert tr.values == pytest.approx(np.full(241, 5.0 / 6.8), abs=1e-12)


def test_pattern_requires_enough_active_days():
    cal = make_calendar(42)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(0, 240)])    # 39 active days
    ev = _intraday_record(cal, day=40)
    with pytest.raises(InsufficientHistory, match="39 active days"):
        _trajectory(builder.build(), ev)
    with pytest.raises(ValueError):
        _trajectory(builder.build(), ev, lookback=0)


def test_pattern_counts_partial_observations():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    # minute 5 of day 30 is missing; its baseline still averages the
    # other 39 days, so minute 5 of days 41 (t = -56) and 42 (t = 124)
    # deseasonalizes to exactly 1
    add_stock(builder, cal, "A", volume=9.0, absent=[30 * 240 + 4])
    ev = _intraday_record(cal, day=41)
    tr = _trajectory(builder.build(), ev)
    assert np.all(tr.values == 1.0)


# ---------------------------------------------------------------- trajectories


def _index_volume(cal):
    # volume equals the global minute index, except on day 0, the one
    # lookback day, where it is 1: the baseline is flat 1, so the
    # deseasonalized series reads back which bar each t points at
    volume = np.arange(cal.n_minutes, dtype=float)
    volume[:240] = 1.0
    return volume


def test_trajectory_event_time_mapping():
    cal = make_calendar(4)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=_index_volume(cal),
              absent=[slice(340, 360)])
    ev = halt_record(cal, "A", (1, 101), (1, 121))
    tr = _trajectory(builder.build(), ev, lookback=1)
    assert np.array_equal(tr.t, np.arange(-80, 161))
    # the post window runs through the close of day 1 into day 2
    assert np.array_equal(tr.values,
                          _event_minutes(340, 360).astype(float))
    # t = 0 lands on the first traded minute after the halt, 13:01
    g0 = int(tr.values[tr.t == 0][0])
    assert location(cal, g0) == (cal.trading_days[1], 121)
    assert not np.isnan(tr.values).any()


def test_trajectory_skips_overnight_and_halted_days():
    cal = make_calendar(5)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=_index_volume(cal),
              absent=[slice(400, 880)])
    ev = halt_record(cal, "A", (1, 161), (3, 161))
    tr = _trajectory(builder.build(), ev, lookback=1)
    assert tr.values[tr.t == -1][0] == 399.0    # minute 160 of day 1
    assert tr.values[tr.t == 0][0] == 880.0     # minute 161 of day 3
    assert tr.values[tr.t == 80][0] == 960.0    # first bar of day 4
    assert not np.isnan(tr.values).any()


def _parity_panel():
    # prices alternate 10.0 / 10.1 by global-minute parity; since the
    # session length is even, every intraday minute sees the same price
    # on every day, so each measure equals its own baseline exactly
    cal = make_calendar(43)
    price = np.where(np.arange(cal.n_minutes) % 2 == 0, 10.0, 10.1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, volume=100.0, spread=0.02,
              absent=[slice(9900, 9960)])
    return cal, builder.build()


def test_trajectory_identity_when_measure_matches_baseline():
    cal, panel = _parity_panel()
    ev = _intraday_record(cal, day=41)
    trajectories, = extract_stock_trajectories(panel, [ev])
    assert set(trajectories) == {A, V, S}
    for tr in trajectories.values():
        assert not np.isnan(tr.values).any()
        assert np.all(tr.values == 1.0)         # exact, not approximate


def test_trajectory_marks_missing_minutes():
    # flat baselines: unit volume and, with the parity price, the same
    # absolute return at every minute of the lookback day
    cal = make_calendar(4)
    price = np.where(np.arange(cal.n_minutes) % 2 == 0, 10.0, 10.1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, volume=1.0,
              absent=[slice(580, 600), 640])
    panel = builder.build()
    ev = halt_record(cal, "A", (2, 101), (2, 121))
    tr = _trajectory(panel, ev, lookback=1)
    missing = np.isnan(tr.values)
    assert tr.t[missing].tolist() == [40]       # g=640 sits 40 bars past 600
    assert np.all(tr.values[~missing] == 1.0)
    absr = _trajectory(panel, ev, A, lookback=1)
    # returns span gaps: t = 0 jumps from the carried 10.1 of g=579 to
    # 10.0, like any parity step; t = 41 (g=641) stays at the 10.1
    # carried from g=639, a zero return
    missing = np.isnan(absr.values)
    assert absr.t[missing].tolist() == [40]
    assert absr.values[absr.t == 41].tolist() == [0.0]
    assert np.all(absr.values[~missing & (absr.t != 41)] == 1.0)


def test_trajectory_window_errors():
    cal = make_calendar(4)
    ev = _intraday_record(cal, day=2)
    # bars start at global minute 461, inside the pre window from 460;
    # day 1 still trades, so the lookback is met
    short_pre = PanelBuilder(cal)
    add_stock(short_pre, cal, "A", absent=[slice(0, 461), slice(540, 600)])
    with pytest.raises(InsufficientHistory, match="inside the pre window"):
        _trajectory(short_pre.build(), ev, lookback=1)

    short_post = PanelBuilder(cal)
    add_stock(short_post, cal, "A", absent=[slice(540, 600), slice(760, None)])
    with pytest.raises(InsufficientPostWindow, match="1 minutes short"):
        _trajectory(short_post.build(), ev, lookback=1)

    early = halt_record(cal, "A", (1, 1), (1, 61))
    ok = PanelBuilder(cal)
    add_stock(ok, cal, "A")
    with pytest.raises(InsufficientHistory, match="before the calendar"):
        _trajectory(ok.build(), early, lookback=1, pre_window=300)


def test_trajectory_zero_baseline():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=0.0, absent=[slice(9900, 9960)])
    ev = _intraday_record(cal, day=41)
    with pytest.raises(ZeroBaseline):
        _trajectory(builder.build(), ev)


# ---------------------------------------------------------------- averaging


def _traj(values, stock_id="A", t=None, cal=make_calendar(12), measure=V):
    ev = halt_event(cal, stock_id, (5, 61), (5, 121),
                    HaltType.INTRADAY, EventSign.POSITIVE)
    values = np.asarray(values, dtype=float)
    if t is None:
        t = np.arange(values.size)
    return EventTrajectory(ev.record, measure, np.asarray(t), values)


def test_group_average_mean_and_stderr():
    ga = group_average([_traj([1.0, 5.0], "A"), _traj([3.0, 5.0], "B")])
    assert ga.mean.tolist() == [2.0, 5.0]
    assert ga.stderr[0] == 1.0                  # std(1,3)/sqrt(2), exact
    assert ga.stderr[1] == 0.0
    assert ga.n.tolist() == [2, 2]


def test_group_average_single_member_has_no_stderr():
    ga = group_average([_traj([1.0, 2.0])])
    assert np.isnan(ga.stderr).all()
    assert ga.n.tolist() == [1, 1]


def test_group_average_of_identical_members_is_bitwise_exact():
    rng = np.random.default_rng(7)
    values = rng.lognormal(0.0, 1.0, 241)
    ga = group_average([_traj(values, f"S{i}") for i in range(5)])
    assert np.array_equal(ga.mean, values)
    assert np.all(ga.stderr == 0.0)


def test_group_average_skips_missing_values():
    one = _traj([1.0, np.nan], "A")
    two = _traj([3.0, np.nan], "B")
    ga = group_average([one, two])
    assert ga.mean[0] == 2.0
    assert np.isnan(ga.mean[1])
    assert ga.n.tolist() == [2, 0]


def test_group_average_is_order_invariant():
    rng = np.random.default_rng(8)
    trajs = [_traj(rng.lognormal(0.0, 0.5, 50), f"S{i}") for i in range(6)]
    baseline = group_average(trajs)
    for _ in range(5):
        rng.shuffle(trajs)
        again = group_average(trajs)
        assert np.array_equal(again.mean, baseline.mean)
        assert np.array_equal(again.stderr, baseline.stderr,
                              equal_nan=True)


def test_group_average_input_validation():
    with pytest.raises(EmptyGroup):
        group_average([])
    with pytest.raises(ValueError, match="measure"):
        group_average([_traj([1.0], "A", measure=V),
                       _traj([1.0], "B", measure=A)])
    with pytest.raises(ValueError, match="axes"):
        group_average([_traj([1.0], "A", t=[0]),
                       _traj([1.0], "B", t=[1])])


# ---------------------------------------------------------------- curves


def test_cumulative_curve_of_constant_prices_is_flat_zero():
    cal = make_calendar(4)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(540, 600)])
    ev = _intraday_record(cal, day=2)
    curve = cumulative_curve(builder.build(), [ev])
    assert np.array_equal(curve.t, np.arange(-160, 161))
    assert np.all(curve.mean == 0.0)
    assert curve.n == 1
    assert stability_stat(curve) == 0.0


def _ramp_panel():
    # price climbs one percent per minute, then the halt freezes it: the
    # post-resumption price is bit-identical to the pre-halt price
    cal = make_calendar(4)
    g = np.arange(cal.n_minutes)
    price = 10.0 * np.power(1.01, np.minimum(g, 539).astype(float))
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, absent=[slice(540, 600)])
    return cal, builder.build()


def test_cumulative_curve_pins_resumption_at_zero():
    cal, panel = _ramp_panel()
    ev = _intraday_record(cal, day=2)
    curve = cumulative_curve(panel, [ev])
    post = curve.mean[curve.t >= 0]
    assert np.all(post == 0.0)                  # frozen price, exact
    pre = curve.mean[curve.t < 0]
    assert np.all(np.diff(pre) > 0)             # climbing into the halt
    steps = np.diff(curve.mean[:160])           # strictly pre-halt steps
    assert steps == pytest.approx(
        np.full(159, np.log(1.01)), abs=1e-12)
    # the step across the halt is the frozen-price return, exactly zero
    assert curve.mean[160] - curve.mean[159] == 0.0
    assert curve.mean[160] == 0.0


def test_cumulative_curve_price_scale_invariance():
    cal = make_calendar(4)
    rng = np.random.default_rng(9)
    lnp = np.cumsum(rng.normal(0.0, 0.004, cal.n_minutes))
    ev = _intraday_record(cal, day=2)
    curves = []
    for scale in (1.0, 3.0):
        builder = PanelBuilder(cal)
        add_stock(builder, cal, "A", price=scale * np.exp(lnp),
                  absent=[slice(540, 600)])
        curves.append(cumulative_curve(builder.build(), [ev]))
    assert curves[0].mean == pytest.approx(curves[1].mean, abs=1e-12)
    assert curves[0].mean[160] == 0.0


def test_cumulative_curve_window_errors():
    cal = make_calendar(4)
    ev = _intraday_record(cal, day=2)

    for absent in ([slice(540, 600), slice(0, 400)],        # short pre
                   [slice(540, 600), slice(750, None)]):    # short post
        builder = PanelBuilder(cal)
        add_stock(builder, cal, "A", absent=absent)
        with pytest.raises(InsufficientWindow):
            cumulative_curve(builder.build(), [ev])

    # a hole inside the window carries the price before it: a flat step
    # at the hole (t = 100, g = 700), then the return across it
    price = 10.0 + 0.001 * np.arange(cal.n_minutes)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, absent=[slice(540, 600), 700])
    curve = cumulative_curve(builder.build(), [ev])
    step = np.diff(curve.mean)[curve.t[1:] >= 99]
    assert step[1] == 0.0                       # t = 99 -> 100
    assert step[0] > 0.0 and step[2] > 0.0

    early = halt_record(cal, "A", (0, 61), (0, 121))
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A")
    with pytest.raises(InsufficientWindow):
        cumulative_curve(builder.build(), [early])


# ---------------------------------------------------------------- stability


def _curve(mean, t=None):
    mean = np.asarray(mean, dtype=float)
    if t is None:
        t = np.arange(mean.size) - (mean.size - 1) // 2
    return CumulativeReturnCurve(np.asarray(t), mean, np.zeros(mean.size), 1)


def test_stability_flat_tail_is_exactly_zero():
    assert stability_stat(_curve(np.zeros(321))) == 0.0
    shifted = np.full(321, 0.25)
    shifted[:160] = 0.0
    assert stability_stat(_curve(shifted)) == 0.0


def test_stability_of_alternating_tail():
    mean = np.zeros(321)
    mean[161:] = np.where(np.arange(160) % 2 == 0, 0.01, -0.01)
    s = stability_stat(_curve(mean))
    assert s == pytest.approx(0.010031397251510383, abs=1e-15)
    # a level shift of the tail does not change its spread
    shifted = mean.copy()
    shifted[161:] += 5.0
    assert stability_stat(_curve(shifted)) == pytest.approx(s, abs=1e-10)


def test_stability_needs_a_tail():
    with pytest.raises(ValueError):
        stability_stat(_curve([0.0, 0.0, 0.0]))     # one point after t=0
    assert stability_stat(_curve([0.0, 0.0, 0.0, 0.0, 0.0])) == 0.0


# ---------------------------------------------------------------- reversals


def _reversal_fixture(moves):
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    events = []
    for i, target in enumerate(moves):
        stock_id = f"S{i:02d}"
        price = np.full(cal.n_minutes, 10.0)
        price[360:] = target
        add_stock(builder, cal, stock_id, price=price,
                  absent=[slice(300, 360)])
        events.append(halt_record(cal, stock_id, (1, 61), (1, 121)))
    return builder.build(), events


def test_reversal_fraction_counts_strict_opposites():
    moves = [10.5] * 6 + [9.5] * 3 + [10.0]
    panel, events = _reversal_fixture(moves)
    stats = reversal_fractions(panel, events, EventSign.NEGATIVE, (1, 2))
    assert stats == {1: 0.6, 2: 0.6}            # the flat mover never counts
    panel, events = _reversal_fixture([10.5, 9.5, 9.5, 9.5])
    assert reversal_fractions(panel, events, EventSign.POSITIVE,
                              horizons=(1,)) == {1: 0.75}


def test_reversal_fraction_is_scale_invariant():
    moves = [10.5] * 6 + [9.5] * 3 + [10.0]
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    events = []
    for i, target in enumerate(moves):
        stock_id = f"S{i:02d}"
        price = np.full(cal.n_minutes, 10.0)
        price[360:] = target
        add_stock(builder, cal, stock_id, price=2.0 * price,
                  absent=[slice(300, 360)])
        events.append(halt_record(cal, stock_id, (1, 61), (1, 121)))
    assert reversal_fractions(builder.build(), events, EventSign.NEGATIVE,
                              (1, 2)) == {1: 0.6, 2: 0.6}


def test_reversal_input_validation():
    panel, events = _reversal_fixture([10.5])
    neg = EventSign.NEGATIVE
    with pytest.raises(EmptyGroup):
        reversal_fractions(panel, [], neg, (1, 2))
    with pytest.raises(ValueError):
        reversal_fractions(panel, events, neg, horizons=(0,))
    cal = panel.calendar

    # an absent minute inside the bars' span carries the price before
    # it: resumption at g=360 repeats 10.0 (no move), g=361 has 10.5
    price = np.full(cal.n_minutes, 10.0)
    price[361:] = 10.5
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00", price=price, absent=[slice(300, 361)])
    assert reversal_fractions(builder.build(), events, neg,
                              (1, 2)) == {1: 0.0, 2: 1.0}
    # the last pre-halt minute g=299 carries 10.6 from g=298, so the
    # move to 10.5 falls and the negative event does not reverse
    price[298] = 10.6
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00", price=price,
              absent=[299, slice(300, 360)])
    assert reversal_fractions(builder.build(), events, neg, (2,)) == {2: 0.0}
    # past the bars' last minute there is nothing to carry: the return
    # windows of width 0 end at the resumption g=360, the bars' last
    # minute, and horizon 2 needs g=361
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00",
              absent=[slice(300, 360), slice(361, None)])
    assert reversal_fractions(builder.build(), events, neg, (1,),
                              window=0) == {1: 0.0}
    with pytest.raises(InsufficientPostWindow,
                       match="^S00: no bar 2 minutes after resumption$"):
        reversal_fractions(builder.build(), events, neg, (1, 2), window=0)
    # bars that start after the last pre-halt minute fail the return
    # windows, which the curve stage checks first
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00", absent=[slice(0, 360)])
    with pytest.raises(InsufficientWindow):
        reversal_fractions(builder.build(), events, neg, (1,), window=0)


# ---------------------------------------------------------------- csv output


def test_group_average_csv_layout(tmp_path):
    ga = GroupAverage(V, np.array([-1, 0, 1]),
                      np.array([1.0, np.nan, 2.5]),
                      np.array([0.0, np.nan, 0.5]),
                      np.array([2, 0, 2]))
    cell = GroupCell(HaltType.INTRADAY, EventSign.POSITIVE, (), {V: ga})
    assert cell_artifact(tmp_path, "averages.csv", cell) == (
        "group,measure,t,mean,stderr,n\n"
        "intraday_pos,volume,-1,1.0,0.0,2\n"
        "intraday_pos,volume,0,,,0\n"
        "intraday_pos,volume,1,2.5,0.5,2\n")


def test_curve_csv_layout(tmp_path):
    curve = _curve([0.1, 0.0, -0.2])
    cell = GroupCell(HaltType.INTRADAY, EventSign.POSITIVE, (), {},
                     curve=curve)
    assert cell_artifact(tmp_path, "curves.csv", cell) == (
        "group,measure,t,mean,stderr,n\n"
        "intraday_pos,cumulative_return,-1,0.1,0.0,1\n"
        "intraday_pos,cumulative_return,0,0.0,0.0,1\n"
        "intraday_pos,cumulative_return,1,-0.2,0.0,1\n")


def _raised(call):
    # the type and text of what ``call()`` raises, or None
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _record_groups(draw):
    # three stocks on a 6-day calendar, each with bars over the whole
    # calendar or from a random first to a random last minute, a few gaps and
    # no bars inside its halts, or missing from the panel; 0-4 halts per
    # stock, dealt into 1-4 groups of random signs, seldom an empty one
    cal = make_calendar(6)
    n = cal.n_minutes
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    builder = PanelBuilder(cal)
    records = []
    for stock_id in ("A", "B", "C"):
        halts = []
        for _ in range(draw(st.integers(0, 4))):
            begin = draw(st.integers(240, n - 480))
            resume = begin + draw(st.sampled_from([1, 30, 60, 240]))
            halts.append(slice(begin, resume))
            records.append(HaltRecord(stock_id, *location(cal, begin),
                                      *location(cal, resume), False))
        if draw(st.integers(0, 9)) == 0:
            continue
        first = 0 if draw(st.integers(0, 5)) else draw(st.integers(0, n - 1))
        last = (n - 1 if draw(st.integers(0, 5))
                else draw(st.integers(first, n - 1)))
        absent = [slice(0, first), slice(last + 1, None), *halts]
        for g in rng.integers(0, n, draw(st.integers(0, 4))):
            absent.append(slice(g, g + int(rng.choice([1, 2, 30]))))
        add_stock(builder, cal, stock_id,
                  price=10.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, n))),
                  absent=absent)
    n_groups = draw(st.integers(1, max(1, min(4, len(records)))))
    groups = [[] for _ in range(n_groups)]
    for rec in draw(st.permutations(records)):
        groups[draw(st.integers(0, n_groups - 1))].append(rec)
    signs = [draw(st.sampled_from(EventSign)) for _ in groups]
    horizons = tuple(draw(st.lists(st.integers(1, 240), min_size=1,
                                   max_size=3, unique=True)))
    return (builder.build(), groups, signs, draw(st.integers(0, 240)),
            horizons)


def _same_curve(a, b):
    return (a.n == b.n and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.t, b.t), (a.mean, b.mean), (a.stderr, b.stderr))))


@settings(deadline=None)
@given(_record_groups())
def test_curve_stage_matches_each_group_alone(case):
    # the shared read of every group raises what the stage, given the
    # groups one at a time, raises first; otherwise each group's curve
    # is bitwise its lone curve and its fractions are its lone fractions
    panel, groups, signs, window, horizons = case

    def stage(groups, signs):
        return _curves_and_reversals(panel, groups, signs, window, horizons)
    want = next(filter(None, (_raised(lambda: stage([group], [sign]))
                              for group, sign in zip(groups, signs))), None)
    assert _raised(lambda: stage(groups, signs)) == want
    if want is not None:
        return
    curves, fractions = stage(groups, signs)
    for group, sign, curve, got_fractions in zip(groups, signs, curves,
                                                 fractions):
        (lone_curve,), (lone_fractions,) = stage([group], [sign])
        assert _same_curve(curve, lone_curve)
        assert got_fractions == lone_fractions
