"""Deseasonalization, event-time trajectories, curves and reversal rates."""

import io

import numpy as np
import pytest

from haltstudy import (
    CumulativeReturnCurve,
    EmptyGroup,
    EventSign,
    EventTrajectory,
    GroupAverage,
    HaltType,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    IntradayPattern,
    MeasureKind,
    PanelBuilder,
    ZeroBaseline,
    average_cumulative_return,
    compute_intraday_pattern,
    extract_trajectory,
    forward_fill_all,
    group_average,
    make_calendar,
    measure_series,
    reversal_stats,
    stability_stat,
    write_curve_csv,
    write_group_average_csv,
)
from helpers import add_stock, halt_event

A, V, S = (MeasureKind.ABSOLUTE_RETURN, MeasureKind.VOLUME,
           MeasureKind.BID_ASK_SPREAD)

FLAT_PATTERN = IntradayPattern(V, 40, np.ones(240),
                               np.full(240, 40, dtype=np.int64))


def _intraday_event(cal, stock_id="A", day=1,
                    sign=EventSign.NEGATIVE):
    return halt_event(cal, stock_id, (day, 61), (day, 121),
                      HaltType.INTRADAY, sign)


# ---------------------------------------------------------------- measures


def test_measure_series_semantics():
    cal = make_calendar(2)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=7.0, spread=0.02, absent=[100])
    panel = builder.build()
    filled = forward_fill_all(panel)

    vol = measure_series(panel, "A", V)
    assert vol[0] == 7.0
    assert np.isnan(vol[100])
    # filled bars never contribute observations
    assert np.isnan(measure_series(filled, "A", V)[100])

    absr = measure_series(panel, "A", A)
    assert np.isnan(absr[0])            # no predecessor for the first bar
    assert np.isnan(absr[100])          # the bar itself is missing
    assert np.isnan(absr[101])          # its predecessor is missing
    assert absr[102] == 0.0             # constant price
    # after filling, minute 101 regains a (synthetic) predecessor
    assert measure_series(filled, "A", A)[101] == 0.0

    spread = measure_series(panel, "A", S)
    assert spread[1] == pytest.approx(0.02, abs=1e-12)


def test_measure_series_spread_needs_quotes():
    cal = make_calendar(1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A")        # no quotes at all
    spread = measure_series(builder.build(), "A", S)
    assert np.isnan(spread).all()


# ---------------------------------------------------------------- patterns


def test_pattern_of_constant_volume_is_exact():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=250.0)
    ev = _intraday_event(cal, day=41)
    pattern = compute_intraday_pattern(builder.build(), ev, V)
    assert np.all(pattern.values == 250.0)
    assert np.all(pattern.n_observations == 40)
    assert pattern.baseline(1) == 250.0
    assert pattern.baseline(240) == 250.0
    with pytest.raises(ValueError):
        pattern.baseline(241)


def test_pattern_averages_across_days():
    cal = make_calendar(41)
    volume = np.empty(cal.n_minutes)
    volume.reshape(41, 240)[0::2] = 2.0     # day parity split, 20 + 20
    volume.reshape(41, 240)[1::2] = 4.0
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=volume)
    ev = _intraday_event(cal, day=40)
    pattern = compute_intraday_pattern(builder.build(), ev, V)
    assert pattern.values == pytest.approx(np.full(240, 3.0), abs=1e-12)


def test_pattern_skips_suspended_days():
    cal = make_calendar(42)
    builder = PanelBuilder(cal)
    # day 3 never trades, so the window must reach one day further back
    volume = np.full(cal.n_minutes, 5.0)
    volume[:240] = 77.0                     # only day 0 differs
    add_stock(builder, cal, "A", volume=volume,
              absent=[slice(3 * 240, 4 * 240)])
    ev = _intraday_event(cal, day=41)
    pattern = compute_intraday_pattern(builder.build(), ev, V)
    assert np.all(pattern.n_observations == 40)
    assert pattern.values == pytest.approx(np.full(240, 6.8), abs=1e-12)


def test_pattern_requires_enough_active_days():
    cal = make_calendar(41)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(0, 240)])    # 39 active days
    ev = _intraday_event(cal, day=40)
    with pytest.raises(InsufficientHistory):
        compute_intraday_pattern(builder.build(), ev, V)
    with pytest.raises(ValueError):
        compute_intraday_pattern(builder.build(), ev, V, lookback=0)


def test_pattern_counts_partial_observations():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    # minute 5 of day 30 is missing; pattern still averages the other 39
    add_stock(builder, cal, "A", volume=9.0, absent=[30 * 240 + 4])
    ev = _intraday_event(cal, day=41)
    pattern = compute_intraday_pattern(builder.build(), ev, V)
    assert pattern.n_observations[4] == 39
    assert pattern.values[4] == 9.0


# ---------------------------------------------------------------- trajectories


def test_trajectory_event_time_mapping():
    # volume equals the global minute index, baseline is one, so the
    # deseasonalized series reads back which bar each t points at
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A",
              volume=np.arange(cal.n_minutes, dtype=float),
              absent=[slice(300, 360)])
    ev = _intraday_event(cal, day=1)
    tr = extract_trajectory(builder.build(), ev, V, pattern=FLAT_PATTERN)
    assert np.array_equal(tr.t, np.arange(-80, 161))
    expected = np.concatenate([np.arange(220, 300), np.arange(360, 521)])
    assert np.array_equal(tr.values, expected.astype(float))
    # t = 0 lands on the first traded minute after the halt, 13:01
    g0 = int(tr.values[tr.t == 0][0])
    _, minute = cal.location(g0)
    assert minute == 121
    assert not tr.missing.any()


def test_trajectory_skips_overnight_and_halted_days():
    cal = make_calendar(4)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A",
              volume=np.arange(cal.n_minutes, dtype=float),
              absent=[slice(240, 480)])
    ev = halt_event(cal, "A", (1, 1), (2, 1),
                    HaltType.ONE_DAY, EventSign.NEGATIVE)
    tr = extract_trajectory(builder.build(), ev, V, pattern=FLAT_PATTERN)
    assert tr.values[tr.t == -1][0] == 239.0    # last bar of day 0
    assert tr.values[tr.t == 0][0] == 480.0     # first bar of day 2


def _parity_panel():
    # prices alternate 10.0 / 10.1 by global-minute parity; since the
    # session length is even, every intraday minute sees the same price
    # on every day, so each measure equals its own baseline exactly
    cal = make_calendar(43)
    price = np.where(np.arange(cal.n_minutes) % 2 == 0, 10.0, 10.1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, volume=100.0, spread=0.02,
              absent=[slice(9900, 9960)])
    return cal, forward_fill_all(builder.build())


def test_trajectory_identity_when_measure_matches_baseline():
    cal, filled = _parity_panel()
    ev = _intraday_event(cal, day=41)
    for measure in (A, V, S):
        tr = extract_trajectory(filled, ev, measure)
        assert not tr.missing.any()
        assert np.all(tr.values == 1.0)         # exact, not approximate


def test_trajectory_marks_missing_minutes():
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(300, 360), 400])
    ev = _intraday_event(cal, day=1)
    tr = extract_trajectory(builder.build(), ev, V, pattern=FLAT_PATTERN)
    missing_t = tr.t[tr.missing]
    assert missing_t.tolist() == [40]           # g=400 sits 40 bars past 360
    absr = extract_trajectory(
        builder.build(), ev, A,
        pattern=IntradayPattern(A, 40, np.ones(240),
                                np.full(240, 40, dtype=np.int64)))
    # unfilled panel: t = 0 also lacks a predecessor (the halted span)
    assert absr.t[absr.missing].tolist() == [0, 40, 41]


def test_trajectory_window_errors():
    cal = make_calendar(3)
    short_pre = PanelBuilder(cal)
    add_stock(short_pre, cal, "A", absent=[slice(0, 250), slice(300, 360)])
    ev = _intraday_event(cal, day=1)
    with pytest.raises(InsufficientHistory):
        extract_trajectory(short_pre.build(), ev, V, pattern=FLAT_PATTERN)

    short_post = PanelBuilder(cal)
    add_stock(short_post, cal, "A", absent=[slice(300, 360), slice(520, None)])
    with pytest.raises(InsufficientPostWindow):
        extract_trajectory(short_post.build(), ev, V, pattern=FLAT_PATTERN)

    early = halt_event(cal, "A", (0, 61), (0, 121),
                       HaltType.INTRADAY, EventSign.NEGATIVE)
    ok = PanelBuilder(cal)
    add_stock(ok, cal, "A")
    with pytest.raises(InsufficientHistory):
        extract_trajectory(ok.build(), early, V, pattern=FLAT_PATTERN)
    with pytest.raises(ValueError, match="measure"):
        extract_trajectory(ok.build(), ev, A, pattern=FLAT_PATTERN)


def test_trajectory_zero_baseline():
    cal = make_calendar(44)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", volume=0.0, absent=[slice(9900, 9960)])
    ev = _intraday_event(cal, day=41)
    with pytest.raises(ZeroBaseline):
        extract_trajectory(forward_fill_all(builder.build()), ev, V)


# ---------------------------------------------------------------- averaging


def _traj(values, stock_id="A", t=None, cal=make_calendar(12),
          sign=EventSign.POSITIVE, measure=V):
    ev = halt_event(cal, stock_id, (5, 61), (5, 121),
                    HaltType.INTRADAY, sign)
    values = np.asarray(values, dtype=float)
    if t is None:
        t = np.arange(values.size)
    return EventTrajectory(ev, measure, np.asarray(t), values)


def test_group_average_mean_and_stderr():
    ga = group_average([_traj([1.0, 5.0], "A"), _traj([3.0, 5.0], "B")])
    assert ga.mean.tolist() == [2.0, 5.0]
    assert ga.stderr[0] == 1.0                  # std(1,3)/sqrt(2), exact
    assert ga.stderr[1] == 0.0
    assert ga.n.tolist() == [2, 2]
    assert ga.group == "intraday_pos"


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
    with pytest.raises(ValueError, match="group"):
        group_average([_traj([1.0], "A", sign=EventSign.POSITIVE),
                       _traj([1.0], "B", sign=EventSign.NEGATIVE)])
    with pytest.raises(ValueError, match="measure"):
        group_average([_traj([1.0], "A", measure=V),
                       _traj([1.0], "B", measure=A)])
    with pytest.raises(ValueError, match="axes"):
        group_average([_traj([1.0], "A", t=[0]),
                       _traj([1.0], "B", t=[1])])
    cal = make_calendar(12)
    ev = halt_event(cal, "A", (5, 61), (5, 121), HaltType.INTRADAY, None)
    with pytest.raises(ValueError, match="sign"):
        group_average([EventTrajectory(ev, V, np.array([0]),
                                       np.array([1.0]))])


# ---------------------------------------------------------------- curves


def test_cumulative_curve_of_constant_prices_is_flat_zero():
    cal = make_calendar(4)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(540, 600)])
    ev = _intraday_event(cal, day=2)
    curve = average_cumulative_return(builder.build(), [ev])
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
    ev = _intraday_event(cal, day=2)
    curve = average_cumulative_return(panel, [ev])
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
    ev = _intraday_event(cal, day=2)
    curves = []
    for scale in (1.0, 3.0):
        builder = PanelBuilder(cal)
        add_stock(builder, cal, "A", price=scale * np.exp(lnp),
                  absent=[slice(540, 600)])
        curves.append(average_cumulative_return(builder.build(), [ev]))
    assert curves[0].mean == pytest.approx(curves[1].mean, abs=1e-12)
    assert curves[0].mean[160] == 0.0


def test_cumulative_curve_window_errors():
    cal = make_calendar(4)
    ev = _intraday_event(cal, day=2)

    for absent in ([slice(540, 600), slice(0, 400)],        # short pre
                   [slice(540, 600), slice(750, None)],     # short post
                   [slice(540, 600), 700]):                 # hole inside
        builder = PanelBuilder(cal)
        add_stock(builder, cal, "A", absent=absent)
        with pytest.raises(InsufficientWindow):
            average_cumulative_return(builder.build(), [ev])

    early = halt_event(cal, "A", (0, 61), (0, 121),
                       HaltType.INTRADAY, EventSign.NEGATIVE)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A")
    with pytest.raises(InsufficientWindow):
        average_cumulative_return(builder.build(), [early])
    with pytest.raises(EmptyGroup):
        average_cumulative_return(builder.build(), [])


# ---------------------------------------------------------------- stability


def _curve(mean, t=None):
    mean = np.asarray(mean, dtype=float)
    if t is None:
        t = np.arange(mean.size) - (mean.size - 1) // 2
    return CumulativeReturnCurve(HaltType.INTRADAY, EventSign.POSITIVE,
                                 np.asarray(t), mean,
                                 np.zeros(mean.size), 1)


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


def _reversal_fixture(moves, sign):
    cal = make_calendar(3)
    builder = PanelBuilder(cal)
    events = []
    for i, target in enumerate(moves):
        stock_id = f"S{i:02d}"
        price = np.full(cal.n_minutes, 10.0)
        price[360:] = target
        add_stock(builder, cal, stock_id, price=price,
                  absent=[slice(300, 360)])
        events.append(halt_event(cal, stock_id, (1, 61), (1, 121),
                                 HaltType.INTRADAY, sign))
    return builder.build(), events


def test_reversal_fraction_counts_strict_opposites():
    moves = [10.5] * 6 + [9.5] * 3 + [10.0]
    panel, events = _reversal_fixture(moves, EventSign.NEGATIVE)
    stats = reversal_stats(panel, events, (1, 2))
    assert stats == {1: 0.6, 2: 0.6}            # the flat mover never counts
    panel, events = _reversal_fixture([10.5, 9.5, 9.5, 9.5],
                                      EventSign.POSITIVE)
    assert reversal_stats(panel, events, horizons=(1,)) == {1: 0.75}


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
        events.append(halt_event(cal, stock_id, (1, 61), (1, 121),
                                 HaltType.INTRADAY, EventSign.NEGATIVE))
    assert reversal_stats(builder.build(), events, (1, 2)) == \
        {1: 0.6, 2: 0.6}


def test_reversal_input_validation():
    panel, events = _reversal_fixture([10.5], EventSign.NEGATIVE)
    with pytest.raises(EmptyGroup):
        reversal_stats(panel, [], (1, 2))
    with pytest.raises(ValueError):
        reversal_stats(panel, events, horizons=(0,))
    cal = panel.calendar
    unsigned = halt_event(cal, "S00", (1, 61), (1, 121),
                          HaltType.INTRADAY, None)
    with pytest.raises(ValueError):
        reversal_stats(panel, [unsigned], (1, 2))

    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00", absent=[slice(300, 361)])
    with pytest.raises(InsufficientPostWindow):
        reversal_stats(builder.build(), events, horizons=(1,))
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "S00", absent=[299, slice(300, 360)])
    with pytest.raises(InsufficientHistory):
        reversal_stats(builder.build(), events, horizons=(1,))


# ---------------------------------------------------------------- csv output


def test_group_average_csv_layout():
    ga = GroupAverage(V, HaltType.INTRADAY, EventSign.POSITIVE,
                      np.array([-1, 0, 1]),
                      np.array([1.0, np.nan, 2.5]),
                      np.array([0.0, np.nan, 0.5]),
                      np.array([2, 0, 2]))
    out = io.StringIO()
    write_group_average_csv([ga], out)
    assert out.getvalue() == (
        "group,measure,t,mean,stderr,n\n"
        "intraday_pos,volume,-1,1.0,0.0,2\n"
        "intraday_pos,volume,0,,,0\n"
        "intraday_pos,volume,1,2.5,0.5,2\n")


def test_curve_csv_layout():
    curve = _curve([0.1, 0.0, -0.2])
    out = io.StringIO()
    write_curve_csv([curve], out)
    assert out.getvalue() == (
        "group,measure,t,mean,stderr,n\n"
        "intraday_pos,cumulative_return,-1,0.1,0.0,1\n"
        "intraday_pos,cumulative_return,0,0.0,0.0,1\n"
        "intraday_pos,cumulative_return,1,-0.2,0.0,1\n")
