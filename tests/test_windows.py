"""Event windows: whether a stock's bars cover the minutes an event needs.

Every stage that measures an event first asks whether the stock's bars
cover a span of global minutes around the halt, and reports a failing
span with its own exception type and wording. The table below pins, for
every stage and every way a span can fail, the exact exception type and
message (or, for eligibility, the rejection reason and sign). Two
properties compare every stage with the one-record-at-a-time references
in ``oracles``: one over a lone halt and random windows, one over random
panels and sets of halts, several to a stock.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    EligibilityConfig,
    EventSign,
    HaltRecord,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    MeasureKind,
    NoData,
    PanelBuilder,
    RejectionReason,
    ZeroBaseline,
    extract_stock_trajectories,
    filter_eligibility,
    make_calendar,
)
from haltstudy.event_study import _curves_and_reversals
from helpers import (add_stock, cumulative_curve, halt_record, location,
                     reversal_fractions)
from oracles import (check_return_windows, compute_intraday_pattern,
                     eligibility_events, extract_trajectory, reversal_move)
from oracles import eligibility as reference_eligibility

CAL = make_calendar(5)
DAY2 = CAL.trading_days[2]

# (begin, resume) as (day, minute): MAIN's last pre-halt minute is 539
# and it resumes at 600; EARLY's pre-halt trend, history and return
# windows of 300 minutes start before the calendar, STARTS has no
# pre-halt minute at all, and LAST's post window runs past the calendar
MAIN = ((2, 61), (2, 121))
EARLY = ((1, 31), (1, 91))
STARTS = ((0, 1), (0, 61))
LAST = ((4, 61), (4, 121))
_HALT_NAMES = {MAIN: "main", EARLY: "early", STARTS: "starts", LAST: "last"}

# windows of every stage below
TREND = 300
CONFIG = EligibilityConfig(trend_window=TREND, lookback_days=1,
                           pre_window=TREND, post_window=160,
                           measure_pre_window=80)
HORIZONS = (1, 200)


@pytest.fixture(scope="module")
def panel():
    # every stock trades a rising price outside the halts of MAIN, EARLY
    # and LAST; FULL has every other bar, EMPTY none, LATE starts at minute
    # 470, AFTER at the resumption, SHORT ends at minute 700 (60 short
    # of MAIN's post window) and STOPS at 500, before MAIN's halt; GONE
    # is not in the panel
    price = 10.0 * np.exp(np.arange(CAL.n_minutes) * 1e-4)
    halts = [slice(270, 330), slice(540, 600), slice(1020, 1080)]
    absent = {"FULL": [], "EMPTY": [slice(None)], "LATE": [slice(0, 470)],
              "AFTER": [slice(0, 600)], "SHORT": [slice(701, None)],
              "STOPS": [slice(501, None)]}
    builder = PanelBuilder(CAL)
    for stock_id, gaps in absent.items():
        add_stock(builder, CAL, stock_id, price=price, spread=0.02,
                  absent=halts + gaps)
    return builder.build()


# the trend window is the only pre-halt window longer than a minute, so
# its coverage alone decides the sign
TREND_ONLY = EligibilityConfig(trend_window=TREND, lookback_days=1,
                               pre_window=1, post_window=1,
                               measure_pre_window=1)


def _sign(panel, stock_id, halt):
    ev, = filter_eligibility([halt_record(CAL, stock_id, *halt)], panel,
                             TREND_ONLY)
    return ev.rejection_reason, ev.sign


def _eligibility(panel, stock_id, halt):
    ev, = filter_eligibility([halt_record(CAL, stock_id, *halt)], panel,
                             CONFIG)
    return ev.rejection_reason, ev.sign


def _trajectories(panel, stock_id, halt, pre_window=TREND,
                  post_window=CONFIG.post_window):
    return extract_stock_trajectories(panel,
                                      [halt_record(CAL, stock_id, *halt)],
                                      lookback=1, pre_window=pre_window,
                                      post_window=post_window)


def _curve(panel, stock_id, halt, window=TREND):
    return cumulative_curve(panel, [halt_record(CAL, stock_id, *halt)],
                            window)


def _reversals(panel, stock_id, halt):
    return reversal_fractions(panel, [halt_record(CAL, stock_id, *halt)],
                              EventSign.POSITIVE, HORIZONS, window=0)


HISTORY = (RejectionReason.INSUFFICIENT_HISTORY, None)

FAILURES = [
    # the sign: the trend window ends at the last pre-halt minute
    (_sign, "FULL", EARLY, None, HISTORY),
    (_sign, "GONE", EARLY, None, HISTORY),
    (_sign, "GONE", MAIN, None, HISTORY),
    (_sign, "EMPTY", MAIN, None, HISTORY),
    (_sign, "LATE", MAIN, None, HISTORY),
    (_sign, "AFTER", MAIN, None, HISTORY),
    (_sign, "STOPS", MAIN, None, HISTORY),
    # filter_eligibility: history before the halt, then the post window
    (_eligibility, "FULL", EARLY, None, HISTORY),
    (_eligibility, "GONE", EARLY, None, HISTORY),
    (_eligibility, "GONE", MAIN, None, HISTORY),
    (_eligibility, "EMPTY", MAIN, None, HISTORY),
    (_eligibility, "LATE", MAIN, None, HISTORY),
    (_eligibility, "AFTER", MAIN, None, HISTORY),
    (_eligibility, "STOPS", MAIN, None, HISTORY),
    (_eligibility, "SHORT", MAIN, None,
     (RejectionReason.INSUFFICIENT_POST_WINDOW, EventSign.POSITIVE)),
    (_eligibility, "FULL", LAST, None,
     (RejectionReason.INSUFFICIENT_POST_WINDOW, EventSign.POSITIVE)),
    # extract_stock_trajectories: the active days come first, then one
    # span from the pre window's first minute to the post window's last
    (_trajectories, "FULL", EARLY, InsufficientHistory,
     "FULL: pre window starts before the calendar"),
    (_trajectories, "GONE", EARLY, NoData, "no bars for stock GONE"),
    (_trajectories, "GONE", MAIN, NoData, "no bars for stock GONE"),
    (_trajectories, "EMPTY", MAIN, InsufficientHistory,
     f"EMPTY: 0 active days before {DAY2}, need 1"),
    (_trajectories, "LATE", MAIN, InsufficientHistory,
     "LATE: bars start inside the pre window"),
    (_trajectories, "SHORT", MAIN, InsufficientPostWindow,
     "SHORT: bars end 60 minutes short of the post window"),
    (_trajectories, "STOPS", MAIN, InsufficientPostWindow,
     "STOPS: bars end 260 minutes short of the post window"),
    (_trajectories, "FULL", LAST, InsufficientPostWindow,
     "FULL: bars end 41 minutes short of the post window"),
    # the curve stage: one span across the halt
    (_curve, "FULL", EARLY, InsufficientWindow,
     "FULL: return window starts before the calendar"),
    (_curve, "GONE", EARLY, InsufficientWindow,
     "GONE: return window starts before the calendar"),
    (_curve, "GONE", MAIN, InsufficientWindow, "no bars for stock GONE"),
    (_curve, "EMPTY", MAIN, InsufficientWindow, "no bars for stock EMPTY"),
    (_curve, "LATE", MAIN, InsufficientWindow,
     "LATE: bars do not cover both return windows"),
    (_curve, "SHORT", MAIN, InsufficientWindow,
     "SHORT: bars do not cover both return windows"),
    (_curve, "STOPS", MAIN, InsufficientWindow,
     "STOPS: bars do not cover both return windows"),
    (_curve, "FULL", LAST, InsufficientWindow,
     "FULL: bars do not cover both return windows"),
    # the curve stage on return windows of width 0: the span from the
    # last pre-halt minute to the resumption, then the horizon's minute
    (_reversals, "FULL", STARTS, InsufficientWindow,
     "FULL: return window starts before the calendar"),
    (_reversals, "GONE", STARTS, InsufficientWindow,
     "GONE: return window starts before the calendar"),
    (_reversals, "GONE", MAIN, InsufficientWindow, "no bars for stock GONE"),
    (_reversals, "EMPTY", MAIN, InsufficientWindow,
     "no bars for stock EMPTY"),
    (_reversals, "AFTER", MAIN, InsufficientWindow,
     "AFTER: bars do not cover both return windows"),
    (_reversals, "STOPS", MAIN, InsufficientWindow,
     "STOPS: bars do not cover both return windows"),
    (_reversals, "SHORT", MAIN, InsufficientPostWindow,
     "SHORT: no bar 200 minutes after resumption"),
    (_reversals, "FULL", LAST, InsufficientPostWindow,
     "FULL: no bar 200 minutes after resumption"),
]


@pytest.mark.parametrize(
    "stage, stock_id, halt, error, expected", FAILURES,
    ids=[f"{row[0].__name__[1:]}-{row[1]}-{_HALT_NAMES[row[2]]}"
         for row in FAILURES])
def test_window_failures(panel, stage, stock_id, halt, error, expected):
    if error is None:
        assert stage(panel, stock_id, halt) == expected
        return
    with pytest.raises(Exception) as caught:
        stage(panel, stock_id, halt)
    assert type(caught.value) is error
    assert str(caught.value) == expected


@pytest.mark.parametrize("stage, name, length", [
    (_trajectories, "pre_window", -3),
    (_trajectories, "post_window", -2),
    (_curve, "window", -1),
], ids=["pre_window", "post_window", "window"])
def test_negative_windows_are_rejected(panel, stage, name, length):
    with pytest.raises(ValueError, match=f"^{name} must not be negative$"):
        stage(panel, "FULL", MAIN, **{name: length})


@pytest.mark.parametrize("pre, post", [(0, 100), (80, 0), (0, 0)])
def test_empty_sides_of_the_event_window_are_valid(panel, pre, post):
    # LAST's lookback day has a bar at every minute
    trajectories, = _trajectories(panel, "FULL", LAST, pre_window=pre,
                                  post_window=post)
    for tr in trajectories.values():
        assert tr.t.tolist() == list(range(-pre, post + 1))
        assert tr.values.shape == tr.t.shape
    curve = _curve(panel, "FULL", MAIN, window=0)
    assert curve.t.tolist() == [0] and curve.mean.tolist() == [0.0]


# ---------------------------------------------------------------- random


def _outcome(call):
    # the value of ``call()``, or the type and text of what it raised
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def windowed_halts(draw):
    # one halt on a 6-day calendar, often from its third day on, and
    # random windows; one stock whose first and last bars fall at random,
    # at the calendar's ends or within a minute of an end of some
    # window (or that has none, or is not in the panel), usually without
    # bars inside the halt
    cal = make_calendar(6)
    n = cal.n_minutes
    begin = draw(st.integers(480, n - 2) | st.integers(0, n - 2))
    resume = draw(st.integers(begin + 1, min(begin + 600, n - 1)))
    rec = HaltRecord("S", *location(cal, begin), *location(cal, resume))
    window = st.integers(1, 300)
    config = EligibilityConfig(
        trend_window=draw(window), lookback_days=draw(st.integers(1, 2)),
        pre_window=draw(window), post_window=draw(window),
        measure_pre_window=draw(window))
    pre, post, curve = (draw(st.integers(0, 300)) for _ in range(3))
    horizon = draw(st.integers(1, 300))
    g_pre = begin - 1
    starts = [g_pre - config.history_minutes, g_pre - config.trend_window,
              begin - pre, g_pre - curve, g_pre]
    ends = [g_pre, resume + config.post_window, resume + post,
            resume + curve, resume + horizon - 1]

    def near(points):
        return st.sampled_from(points).flatmap(
            lambda p: st.integers(p - 1, p + 1))

    builder = PanelBuilder(cal)
    kind = draw(st.sampled_from(["span"] * 8 + ["empty", "gone"]))
    if kind != "gone":
        first = draw(st.just(0) | st.integers(0, begin) | near(starts))
        first = min(max(first, 0), n - 1)
        last = draw(st.just(n - 1) | st.integers(first, n - 1) | near(ends))
        last = min(max(last, first), n - 1)
        absent = [slice(0, first), slice(last + 1, None)]
        if kind == "empty":
            absent = [slice(None)]
        if draw(st.integers(0, 9)):
            absent.append(slice(begin, resume))
        add_stock(builder, cal, "S",
                  price=10.0 * np.exp(np.arange(n) * 1e-4), spread=0.02,
                  absent=absent)
    return builder.build(), rec, config, (pre, post, curve, horizon)


def _first_error(records, check):
    # the type and text of what ``check`` raises first, over the records
    # in key order, or None
    for rec in sorted(records, key=HaltRecord.sort_key):
        outcome = _outcome(lambda: check(rec))
        if isinstance(outcome, tuple):
            return outcome
    return None


def _reference_trajectories(panel, rec, lookback, pre, post):
    # one record's checks as the trajectory stage makes them: the lookback
    # days, the event minutes, then each measure's baseline
    for measure in MeasureKind:
        pattern = compute_intraday_pattern(panel, rec, measure, lookback)
        extract_trajectory(panel, rec, measure, pattern, pre, post)


def _reference_reversals(panel, records, sign, horizons):
    # the reversal fractions, one horizon and one record at a time
    ordered = sorted(records, key=HaltRecord.sort_key)
    out = {}
    for k in horizons:
        moves = [reversal_move(panel, rec, k) for rec in ordered]
        out[k] = sum(1 for move in moves
                     if (move < 0 if sign is EventSign.POSITIVE
                         else move > 0)) / len(ordered)
    return out


def _check_later_stages(panel, records, lookback, pre, post, curve,
                        horizons):
    # every later stage raises what its per-record reference raises first,
    # and returns its result when that raises nothing
    got = _outcome(lambda: extract_stock_trajectories(
        panel, records, lookback=lookback, pre_window=pre, post_window=post))
    want = _first_error(records, lambda rec: _reference_trajectories(
        panel, rec, lookback, pre, post))
    assert (got if isinstance(got, tuple) else None) == want
    windows = _first_error(records, lambda rec: check_return_windows(
        panel, rec, curve))
    for sign in EventSign:
        got = _outcome(lambda: _curves_and_reversals(
            panel, [records], [sign], curve, horizons)[1][0])
        want = windows or _outcome(lambda: _reference_reversals(
            panel, records, sign, horizons))
        assert got == want


@settings(deadline=None, max_examples=300)
@given(windowed_halts())
def test_windows_match_the_site_by_site_checks(case):
    # every stage's window verdict equals the reference's (each site
    # with its own arithmetic), and an event marked eligible passes
    # every window check of the trajectory stage; the reversals also
    # at the horizons that end at the stock's last bar and one past it
    panel, rec, config, (pre, post, curve, horizon) = case
    ev, = filter_eligibility([rec], panel, config)
    assert (ev.rejection_reason, ev.sign) == \
        reference_eligibility(panel, rec, config)
    try:
        edge = panel.coverage("S")[1] - rec.global_resume(panel.calendar) + 1
    except NoData:
        edge = 0
    horizons = tuple(dict.fromkeys(k for k in (horizon, edge, edge + 1)
                                   if k >= 1))
    _check_later_stages(panel, [rec], config.lookback_days, pre, post, curve,
                        horizons)
    if ev.eligible:
        try:
            extract_stock_trajectories(
                panel, [rec], lookback=config.lookback_days,
                pre_window=config.measure_pre_window,
                post_window=config.post_window)
        except ZeroBaseline:
            pass        # a lookback day that misses an event's minute


@st.composite
def halt_sets(draw):
    # a few stocks on a short calendar, each with random bars (a random
    # first and last bar, some days without bars, a few short gaps) or
    # none, or missing from the panel; and several halts per stock, some
    # overlapping, some over-long or flagged ST, mostly without bars
    # inside the halt, under random windows and thresholds; the reversal
    # horizons include those that end at one drawn record's last bar and
    # one past it
    cal = make_calendar(draw(st.integers(3, 10)))
    n = cal.n_minutes
    window = st.integers(1, 150)
    config = EligibilityConfig(
        trend_window=draw(window), lookback_days=draw(st.integers(1, 3)),
        pre_window=draw(window), post_window=draw(window),
        measure_pre_window=draw(window),
        max_halt_days=draw(st.integers(1, 2)),
        max_gap_fraction=draw(st.sampled_from([0.0, 0.02, 0.1, 0.5])))
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
    panel = builder.build()
    pre, post, curve = (draw(st.integers(0, 150)) for _ in range(3))
    horizons = draw(st.lists(st.integers(1, 300), min_size=1, max_size=3,
                             unique=True))
    if records:
        rec = draw(st.sampled_from(records))
        try:
            edge = panel.coverage(rec.stock_id)[1] - rec.global_resume(cal) + 1
        except NoData:
            edge = 0
        horizons += [edge, edge + 1]
    horizons = tuple(dict.fromkeys(k for k in horizons if k >= 1))
    return (panel, draw(st.permutations(records)), config,
            (pre, post, curve, horizons))


@settings(deadline=None)
@given(halt_sets())
def test_record_sets_match_the_per_record_references(case):
    # eligibility of a whole registry equals the one-record-at-a-time
    # reference, event for event; and every later stage, given every
    # record or only the eligible ones, fails as its per-record
    # reference does
    panel, records, config, (pre, post, curve, horizons) = case
    events = filter_eligibility(records, panel, config)
    want = eligibility_events(records, panel, config)
    assert [(ev.record, ev.halt_type, ev.sign, ev.rejection_reason)
            for ev in events] == \
        [(ev.record, ev.halt_type, ev.sign, ev.rejection_reason)
         for ev in want]
    eligible = [ev.record for ev in events if ev.eligible]
    for subset in (records, eligible):
        if subset:
            _check_later_stages(panel, subset, config.lookback_days, pre,
                                post, curve, horizons)
