"""Synthetic panel generator: planted halts, trends and decay shapes."""

import json

import numpy as np
import pytest

from haltstudy import (
    DEFAULT_RELAXATIONS,
    EligibilityConfig,
    EventSign,
    HaltType,
    MeasureKind,
    MeasureRelaxation,
    OverlapViolation,
    PlantedEvent,
    SyntheticSpec,
    TradingCalendar,
    build_group_spec,
    default_pattern,
    filter_eligibility,
    generate_panel,
    make_calendar,
    parse_bar_file,
    parse_halt_file,
)
from recovery import RecoveryReport, RecoveryRow, recovery_study

INTRA_POS = DEFAULT_RELAXATIONS[(HaltType.INTRADAY, EventSign.POSITIVE)]
ALL_SIX = {key: 1 for key in DEFAULT_RELAXATIONS}


def _event(stock="SYN0000", begin=(41, 61), resume=(41, 121),
           trend=0.08, relax=INTRA_POS):
    return PlantedEvent(stock, begin[0], begin[1], resume[0], resume[1],
                        trend, relax)


# ---------------------------------------------------------------- profile


def test_default_pattern_shape():
    shape = default_pattern()
    assert shape.shape == (240,)
    assert shape[0] == 1.5              # session edges, exactly
    assert shape[-1] == 1.5
    assert np.all(shape > 0)
    assert 0.8 <= shape.min() < 0.801   # trough sits midsession
    assert np.argmin(shape) in (119, 120)


# ---------------------------------------------------------------- validation


def test_relaxation_and_event_validation():
    with pytest.raises(ValueError):
        MeasureRelaxation(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        MeasureRelaxation(2.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        MeasureRelaxation(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        _event(trend=0.0)
    with pytest.raises(ValueError):
        PlantedEvent("SYN0000", 41, 61, 41, 121, 0.08,
                     {MeasureKind.VOLUME: MeasureRelaxation(2.0, 1.0, 0.5)})
    assert _event(trend=-0.08).sign is EventSign.NEGATIVE


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=0, n_days=5, seed=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1,
                      pattern_shape=np.ones(239))
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1,
                      pattern_shape=np.zeros(240))
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1,
                      sigma={MeasureKind.VOLUME: -0.1})
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1,
                      base_level={MeasureKind.VOLUME: 0.0})
    with pytest.raises(ValueError):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1, initial_price=0.0)
    with pytest.raises(ValueError, match="seed"):
        SyntheticSpec(n_stocks=1, n_days=5, seed=-1)
    with pytest.raises(ValueError, match="finite"):
        SyntheticSpec(n_stocks=1, n_days=5, seed=1,
                      sigma={MeasureKind.VOLUME: float("inf")})
    with pytest.raises(ValueError, match="n_days"):
        SyntheticSpec(n_stocks=1, n_days=10**8, seed=1)
    spec = SyntheticSpec(n_stocks=3, n_days=5, seed=1)
    assert spec.stock_ids == ("SYN0000", "SYN0001", "SYN0002")
    assert spec.noise_sigma(MeasureKind.VOLUME) == 0.0


def test_failed_generation_writes_no_directory(tmp_path):
    from haltstudy import write_synthetic_dataset
    out = tmp_path / "data"
    with pytest.raises(ValueError, match="unknown stock"):
        write_synthetic_dataset(
            SyntheticSpec(1, 44, 1, events=(_event("SYN0009"),)), out)
    assert not out.exists()


def test_event_placement_validation():
    with pytest.raises(ValueError, match="unknown stock"):
        generate_panel(SyntheticSpec(1, 44, 1, events=(_event("SYN0009"),)))
    with pytest.raises(ValueError, match="out of range"):
        generate_panel(SyntheticSpec(1, 44, 1, events=(_event(begin=(44, 61),
                                                              resume=(44, 121)),)))
    with pytest.raises(ValueError, match="trend window"):
        generate_panel(SyntheticSpec(1, 2, 1, events=(_event(begin=(1, 1),
                                                             resume=(1, 61)),)))
    with pytest.raises(ValueError, match="relaxation window"):
        generate_panel(SyntheticSpec(1, 2, 1, events=(_event(begin=(1, 61),
                                                             resume=(1, 121)),)))


def test_planted_events_must_keep_their_distance():
    close = (_event(), _event(begin=(42, 61), resume=(42, 121)))
    with pytest.raises(OverlapViolation):
        generate_panel(SyntheticSpec(1, 47, 1, events=close))
    spaced = (_event(), _event(begin=(44, 61), resume=(44, 121)))
    panel, records, _ = generate_panel(SyntheticSpec(1, 47, 1, events=spaced))
    assert len(records) == 2


# ---------------------------------------------------------------- determinism


def test_generation_is_seed_deterministic():
    spec = build_group_spec(ALL_SIX, seed=5, sigma=0.2)
    first = generate_panel(spec)
    second = generate_panel(spec)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2].to_json_dict() == second[2].to_json_dict()
    other = generate_panel(build_group_spec(ALL_SIX, seed=6, sigma=0.2))
    assert other[0] != first[0]


def test_written_dataset_is_byte_stable(tmp_path):
    from haltstudy import write_synthetic_dataset
    spec = build_group_spec({(HaltType.INTRADAY, EventSign.POSITIVE): 2},
                            seed=12, sigma=0.1)
    write_synthetic_dataset(spec, tmp_path / "a")
    write_synthetic_dataset(spec, tmp_path / "b")
    names = ["bars.csv", "halts.csv", "calendar.txt", "ground_truth.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------- structure


def test_planted_magnitudes_and_relaxation():
    spec = SyntheticSpec(n_stocks=1, n_days=44, seed=3, events=(_event(),))
    panel, records, truth = generate_panel(spec)
    cal = panel.calendar
    rec = records[0]
    g_begin, g_resume = rec.global_begin(cal), rec.global_resume(cal)

    present = panel.present_mask("SYN0000")
    assert not present[g_begin:g_resume].any()
    assert present[:g_begin].all()
    assert present[g_resume:].all()

    shape = default_pattern()
    lnp = panel.log_prices("SYN0000")
    jump = abs(lnp[g_resume] - lnp[g_begin - 1])
    assert jump == pytest.approx(0.002 * shape[g_resume % 240] * 8.0,
                                 rel=1e-9)

    t = np.arange(1.0, 161.0)
    gs = g_resume + t.astype(int)
    moves = np.abs(lnp[gs] - lnp[gs - 1])
    expected = 0.002 * shape[gs % 240] * (1.0 + 2.5 * t ** -0.89)
    assert moves == pytest.approx(expected, rel=1e-9)

    vol = panel.volumes("SYN0000")
    assert vol[g_resume] == pytest.approx(
        10000.0 * shape[g_resume % 240] * 5.0, rel=1e-12)
    assert vol[g_resume + 1] == pytest.approx(
        10000.0 * shape[(g_resume + 1) % 240] * 2.5, rel=1e-12)
    spread = panel.asks("SYN0000") - panel.bids("SYN0000")
    assert spread[g_resume] == pytest.approx(
        0.02 * shape[g_resume % 240] * 2.0, rel=1e-9)

    trend = lnp[g_begin - 1] - lnp[g_begin - 1 - 240]
    assert abs(trend - 0.08) <= 0.0031
    assert truth.rows[0].halt_type is HaltType.INTRADAY
    assert truth.rows[0].sign is EventSign.POSITIVE


def test_planted_sign_is_recoverable_at_every_trend_window():
    for seed in (1, 2, 3):
        spec = build_group_spec(ALL_SIX, seed=seed)
        panel, records, truth = generate_panel(spec)
        for window in (60, 120, 180, 240):
            signs = {ev.record: ev.sign for ev in filter_eligibility(
                records, panel, EligibilityConfig(trend_window=window))}
            assert [signs[rec] for rec in records] == \
                [row.sign for row in truth.rows]


def test_ground_truth_rows_are_sorted():
    events = (_event("SYN0001"), _event("SYN0000"))
    spec = SyntheticSpec(n_stocks=2, n_days=44, seed=1, events=events)
    _, records, truth = generate_panel(spec)
    assert [r.stock_id for r in records] == ["SYN0000", "SYN0001"]
    assert [row.record.stock_id for row in truth.rows] == \
        ["SYN0000", "SYN0001"]


# ---------------------------------------------------------------- group specs


def test_build_group_spec_layouts():
    spec = build_group_spec(ALL_SIX, seed=2, sigma=0.3)
    assert spec.n_stocks == 6
    assert spec.n_days == 43
    assert spec.noise_sigma(MeasureKind.VOLUME) == 0.3
    by_kind = {(ev.sign, ev.begin_day, ev.begin_minute,
                ev.resume_day, ev.resume_minute) for ev in spec.events}
    assert (EventSign.POSITIVE, 40, 61, 40, 121) in by_kind    # intraday
    assert (EventSign.POSITIVE, 40, 1, 41, 1) in by_kind       # one day
    assert (EventSign.NEGATIVE, 40, 1, 42, 1) in by_kind       # two days
    assert {ev.trend_magnitude for ev in spec.events} == {0.08, -0.08}
    with pytest.raises(ValueError):
        build_group_spec({(HaltType.INTRADAY, EventSign.POSITIVE): 0}, seed=1)


def test_build_group_spec_classifies_as_planted():
    _, _, truth = generate_panel(build_group_spec(ALL_SIX, seed=4))
    got = {(row.halt_type, row.sign) for row in truth.rows}
    assert got == set(DEFAULT_RELAXATIONS)


# ---------------------------------------------------------------- recovery


def test_noiseless_recovery_is_sharp():
    spec = build_group_spec(ALL_SIX, seed=21)
    report = recovery_study(spec, 1, measures=tuple(MeasureKind))
    assert len(report.rows) == 18
    for row in report.rows:
        assert row.failure is None
        assert abs(row.alpha_error) < 1e-6
        assert abs(row.fitted_amplitude - row.planted_amplitude) \
            / row.planted_amplitude < 1e-6
    assert report.fraction_within(1e-6) == 1.0


def test_recovery_report_accounting():
    def row(err, failure=None):
        return RecoveryRow(0, MeasureKind.ABSOLUTE_RETURN, HaltType.INTRADAY,
                           EventSign.POSITIVE, 0.8, 2.5,
                           0.8 + err, 2.5, failure)
    report = RecoveryReport((row(0.01), row(0.2),
                             row(float("nan"), "DegenerateData: x")))
    assert report.fraction_within(0.05) == pytest.approx(1 / 3)
    assert report.mean_abs_error() == pytest.approx((0.01 + 0.2) / 2)
    empty = RecoveryReport(())
    assert np.isnan(empty.fraction_within(0.05))
    assert np.isnan(empty.mean_abs_error())


def test_recovery_requires_uniform_groups():
    loose = dict(INTRA_POS)
    loose[MeasureKind.ABSOLUTE_RETURN] = MeasureRelaxation(8.0, 2.5, 0.3)
    events = (_event("SYN0000"), _event("SYN0001", relax=loose))
    spec = SyntheticSpec(n_stocks=2, n_days=44, seed=1, events=events)
    with pytest.raises(ValueError, match="uniform"):
        recovery_study(spec, 1)


# ---------------------------------------------------------------- round trip


def test_written_dataset_parses_back(tmp_path):
    from haltstudy import write_synthetic_dataset
    spec = build_group_spec({(HaltType.INTRADAY, EventSign.POSITIVE): 1,
                             (HaltType.ONE_DAY, EventSign.NEGATIVE): 1},
                            seed=8)
    write_synthetic_dataset(spec, tmp_path)
    panel, records, truth = generate_panel(spec)

    cal = TradingCalendar.from_file(tmp_path / "calendar.txt")
    assert cal == truth.calendar
    with open(tmp_path / "bars.csv") as fh:
        parsed = parse_bar_file(fh, cal)
    assert parsed == panel
    with open(tmp_path / "halts.csv") as fh:
        assert parse_halt_file(fh, cal) == records

    blob = json.loads((tmp_path / "ground_truth.json").read_text())
    assert blob["seed"] == 8
    assert blob["n_stocks"] == 2
    planted = {(e["halt_type"], e["sign"]): e for e in blob["events"]}
    intra = planted[("intraday", "pos")]
    assert intra["relaxations"]["absolute_return"]["alpha"] == 0.89
    assert intra["trend_magnitude"] == 0.08
    oneday = planted[("oneday", "neg")]
    assert oneday["relaxations"]["volume"]["alpha"] == 0.55
