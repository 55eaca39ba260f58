"""Decay fitting: model, least squares, bootstrap spread, group tables."""

import io
from dataclasses import replace

import numpy as np
import pytest

from haltstudy import (
    BootstrapResult,
    DegenerateData,
    EmptyGroup,
    EventSign,
    EventTrajectory,
    FitConfig,
    GroupAverage,
    GroupFitRow,
    HaltType,
    MeasureKind,
    PowerLawFit,
    attach_bootstrap,
    bootstrap_alpha_stderr,
    fit_all_groups,
    group_average,
    make_calendar,
    make_excess,
    power_law_jacobian,
    power_law_model,
)
from haltstudy.pipeline import GroupCell, write_exponent_csv
from haltstudy.powerlaw import ALPHA_GRID, _profile
from helpers import cell_artifact, cell_fit, fit_row, halt_event
from oracles import grid_power_law

T160 = np.arange(1, 161, dtype=float)
A, V = MeasureKind.ABSOLUTE_RETURN, MeasureKind.VOLUME


def _series(values, t=None, measure=A):
    if t is None:
        t = np.arange(1, len(values) + 1)
    values = np.asarray(values, dtype=float)
    return GroupAverage(measure, np.asarray(t), values,
                        np.zeros(values.size), np.ones(values.size, dtype=int))


def _avg(mean, measure=A):
    mean = np.asarray(mean, dtype=float)
    t = np.arange(-80, mean.size - 80)
    return GroupAverage(measure, t, mean,
                        np.zeros(mean.size), np.ones(mean.size, dtype=int))


# ---------------------------------------------------------------- model


def test_model_values():
    out = power_law_model(np.array([1.0, 2.0, 4.0]), 2.0, 1.0)
    assert out.tolist() == [2.0, 1.0, 0.5]
    assert np.all(power_law_model(T160, 3.0, 0.0) == 3.0)
    assert power_law_model(np.array([1.0]), 0.7, 1.3)[0] == 0.7


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(20):
        amp = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 2.0))
        t = rng.integers(1, 161, size=10).astype(float)
        jac = power_law_jacobian(t, amp, alpha)
        d_amp = (power_law_model(t, amp + h, alpha)
                 - power_law_model(t, amp - h, alpha)) / (2 * h)
        d_alpha = (power_law_model(t, amp, alpha + h)
                   - power_law_model(t, amp, alpha - h)) / (2 * h)
        assert jac[:, 0] == pytest.approx(d_amp, rel=1e-5, abs=1e-8)
        assert jac[:, 1] == pytest.approx(d_alpha, rel=1e-5, abs=1e-8)


def test_make_excess():
    mean = np.linspace(0.5, 2.9, 241)
    avg = replace(_avg(mean), stderr=np.linspace(0.0, 0.3, 241),
                  n=np.arange(241))
    ex = make_excess(avg)
    assert ex.t.tolist() == list(range(1, 161))
    assert np.array_equal(ex.mean, mean[81:] - 1.0)
    assert np.array_equal(ex.stderr, avg.stderr[81:])
    assert np.array_equal(ex.n, avg.n[81:])


def test_make_excess_keeps_missing_values():
    mean = np.ones(241)
    mean[100] = np.nan
    ex = make_excess(_avg(mean))
    assert np.isnan(ex.mean[ex.t == 20][0])


# ---------------------------------------------------------------- fitting


@pytest.mark.parametrize("amp,alpha", [(1.0, 0.5), (2.0, 1.0), (0.3, 1.7)])
def test_exact_recovery_from_clean_decay(amp, alpha):
    fit = fit_row(T160, amp * T160 ** -alpha).complete()
    assert fit.amplitude == pytest.approx(amp, abs=1e-8)
    assert fit.alpha == pytest.approx(alpha, abs=1e-8)
    assert fit.sse < 1e-18
    assert fit.r2_positive == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 160
    assert fit.model(np.array([1.0]))[0] == pytest.approx(amp, abs=1e-8)


def test_recovery_over_random_parameters():
    rng = np.random.default_rng(5150)
    for _ in range(25):
        amp = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        alpha = float(rng.uniform(0.2, 2.0))
        fit = fit_row(T160, amp * T160 ** -alpha).complete()
        assert abs(fit.alpha - alpha) < 1e-6
        assert abs(fit.amplitude - amp) / amp < 1e-6


def test_fit_range_restricts_the_points():
    values = 2.0 * T160 ** -0.8
    values[0] = 50.0                    # poisoned first minute
    fit = fit_row(T160, values, (2, 160)).complete()
    assert fit.alpha == pytest.approx(0.8, abs=1e-8)
    assert fit.n_points == 159
    assert fit.fit_range == (2, 160)
    poisoned = fit_row(T160, values).complete()
    assert abs(poisoned.alpha - 0.8) > 0.01


def test_amplitude_scale_equivariance():
    base = fit_row(T160, 0.9 * T160 ** -0.6).complete()
    scaled = fit_row(T160, 7.5 * 0.9 * T160 ** -0.6).complete()
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-8)
    assert scaled.amplitude == pytest.approx(7.5 * base.amplitude, rel=1e-8)


def test_constant_series_fits_zero_exponent():
    fit = fit_row(T160, np.full(160, 0.5)).complete()
    assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
    assert abs(fit.alpha) < 1e-8
    assert fit.r2_positive == 1.0       # no variance left to explain


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("low", [-0.1, -0.2])
def test_a_row_no_alpha_fits_fails_quietly(low):
    # one positive point among negative ones: d.z < 0 for every decay d,
    # so the best amplitude is 0 at every alpha and no curve beats the
    # zero curve's SSE, z.z; the row fails, without a warning
    t = np.arange(1.0, 9.0)
    z = np.array([low, 0.01, -0.2, -0.2, low, low, low, low])
    assert (t ** -ALPHA_GRID[:, None] @ z < 0).all()
    row = fit_row(t, z, (1, 8))
    assert isinstance(row, DegenerateData)
    assert str(row) == "no alpha gives the decay a positive amplitude"


def test_degenerate_inputs():
    assert isinstance(fit_row(T160, -np.ones(160)),     # nothing positive
                      DegenerateData)
    assert isinstance(fit_row(T160[:7], 2.0 * T160[:7] ** -0.5),
                      DegenerateData)
    thinned = 2.0 * T160[:12] ** -0.5
    thinned[3:8] = np.nan
    assert isinstance(fit_row(T160[:12], thinned), DegenerateData)
    with pytest.raises(ValueError):
        fit_row(T160, np.ones(160), (0, 160))
    with pytest.raises(ValueError):
        fit_row(T160, np.ones(160), (10, 9))


def test_fit_beats_a_parameter_grid():
    rng = np.random.default_rng(77)
    t = np.arange(1, 41, dtype=float)
    for _ in range(6):
        amp = float(np.exp(rng.uniform(np.log(0.3), np.log(4.0))))
        alpha = float(rng.uniform(0.3, 1.5))
        z = amp * t ** -alpha + rng.normal(0.0, 0.03, t.size)
        fit = fit_row(t, z, (1, 40)).complete()
        a_lo = max(1e-3, fit.amplitude - 0.2)
        _, _, grid_sse = grid_power_law(
            t, z, (a_lo, fit.amplitude + 0.2),
            (max(1e-3, fit.alpha - 0.2), fit.alpha + 0.2), step=1e-3)
        assert fit.sse <= grid_sse + 1e-9


def test_fit_on_series_object():
    series = _series(1.5 * T160 ** -0.7)
    fit = fit_row(series.t, series.mean, (1, 160)).complete()
    assert fit.alpha == pytest.approx(0.7, abs=1e-8)


def test_profile_derivatives_match_finite_differences():
    # S(alpha) = min over A >= 0 of |z - A t**-alpha|^2; _profile gives
    # half its first and second derivatives in closed form
    rng = np.random.default_rng(21)
    z = 1.3 * T160 ** -0.7 + rng.normal(0.0, 0.1, T160.size)

    def sse(alpha):
        d = T160 ** -alpha
        resid = z - max(0.0, d @ z / (d @ d)) * d
        return resid @ resid

    h = 1e-5
    for alpha in (-0.5, 0.3, 0.7, 1.5, 4.0):
        _, amplitude, slope, curve = _profile(
            np.log(T160), z[None], np.array([alpha]))
        assert amplitude[0] == pytest.approx(
            (T160 ** -alpha) @ z / ((T160 ** -alpha) @ (T160 ** -alpha)))
        assert 2 * slope[0] == pytest.approx(
            (sse(alpha + h) - sse(alpha - h)) / (2 * h), rel=1e-5, abs=1e-9)
        assert 2 * curve[0] == pytest.approx(
            (sse(alpha + h) - 2 * sse(alpha) + sse(alpha - h)) / h ** 2,
            rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("alpha, steps", [(1.0, 1), (0.8, 6), (1.37, 6)])
def test_newton_steps_are_counted(alpha, steps):
    # a clean decay on a grid point is its own minimum after one step;
    # off the grid, Newton converges quadratically in a few
    fit = fit_row(T160, 1.7 * T160 ** -alpha).complete()
    assert fit.alpha == pytest.approx(alpha, abs=1e-12)
    assert fit.n_iterations <= steps


# ---------------------------------------------------------------- bootstrap


def _group_trajs(value_rows, cal=None):
    cal = cal or make_calendar(12)
    t = np.arange(-80, 161)
    out = []
    for i, values in enumerate(value_rows):
        ev = halt_event(cal, f"S{i:02d}", (5, 61), (5, 121),
                        HaltType.INTRADAY, EventSign.POSITIVE)
        out.append(EventTrajectory(ev.record, A, t,
                                   np.asarray(values, float)))
    return out


def _decay_row(amp, alpha):
    row = np.ones(241)
    row[81:] = 1.0 + amp * T160 ** -alpha
    return row


def test_bootstrap_of_identical_events_is_exactly_zero():
    trajs = _group_trajs([_decay_row(2.0, 0.8)] * 3)
    result = bootstrap_alpha_stderr(trajs, cell_fit(trajs), n_resamples=16,
                                    seed=4)
    assert result.stderr == 0.0
    assert result.n_success == 16
    assert result.n_failed == 0


def _excess_alpha(avg):
    series = make_excess(avg)
    return fit_row(series.t, series.mean).alpha


def test_bootstrap_matches_hand_enumeration():
    # seed 123 with two events and four resamples draws the index rows
    # [0,1], [1,0], [1,0], [0,0]; the first three share one multiset
    trajs = _group_trajs([_decay_row(2.0, 0.8), _decay_row(1.0, 0.5)])
    fit = cell_fit(trajs)
    result = bootstrap_alpha_stderr(trajs, fit, n_resamples=4, seed=123)
    mixed = _excess_alpha(group_average(trajs))
    solo = _excess_alpha(group_average([trajs[0]]))
    expected = float(np.std([mixed, mixed, mixed, solo], ddof=1))
    assert result.stderr == pytest.approx(expected, rel=1e-10)
    assert result.n_success == 4
    assert result.n_failed == 0
    again = bootstrap_alpha_stderr(trajs, fit, n_resamples=4, seed=123)
    assert again == result


def test_bootstrap_counts_failed_resamples():
    # the flat event alone has no excess to fit; seed 123 draws its
    # doubled row once, so exactly one resample fails
    trajs = _group_trajs([np.ones(241), _decay_row(1.0, 0.5)])
    result = bootstrap_alpha_stderr(trajs, cell_fit(trajs), n_resamples=4,
                                    seed=123)
    assert result.n_failed == 1
    assert result.n_success == 3
    assert result.stderr == 0.0         # the three survivors are identical


def test_bootstrap_input_validation():
    trajs = _group_trajs([_decay_row(2.0, 0.8)])
    fit = cell_fit(trajs)
    with pytest.raises(EmptyGroup):
        bootstrap_alpha_stderr(trajs, fit, n_resamples=4, seed=0)
    with pytest.raises(ValueError):
        bootstrap_alpha_stderr(trajs * 2, fit, n_resamples=0, seed=0)


# ---------------------------------------------------------------- tables


def test_fit_all_groups_flags_and_order():
    # one (fit, flag) per average, in the order given
    (decay, decay_flag), (flat, flat_flag), (vol, vol_flag) = fit_all_groups([
        _avg(_decay_row(2.0, 0.8)),
        _avg(np.ones(241)),
        _avg(_decay_row(1.5, 0.6), V),
    ])
    assert flat is None
    assert flat_flag == "no_power_law"
    assert decay_flag == "ok"
    assert decay.alpha == pytest.approx(0.8, abs=1e-8)
    assert vol_flag == "ok"
    assert vol.alpha == pytest.approx(0.6, abs=1e-8)


def test_fit_all_groups_gates_on_goodness():
    noisy = np.ones(241)
    noisy[81:] = (1.0 + 0.3 * T160 ** -0.5
                  + np.where(np.arange(160) % 2 == 0, 0.5, -0.5))
    fit, flag = fit_all_groups([_avg(noisy)])[0]
    assert fit is not None
    assert fit.r2_positive < 0.2
    assert flag == "no_power_law"
    _, lax = fit_all_groups([_avg(noisy)], FitConfig(min_r2=0.0))[0]
    assert lax == "no_power_law"   # r2 is far below zero here


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(fit_range=(0, 160))
    with pytest.raises(ValueError):
        FitConfig(min_r2=1.5)


def test_attach_bootstrap():
    row = GroupFitRow(A, HaltType.INTRADAY, EventSign.POSITIVE,
                      *fit_all_groups([_avg(_decay_row(2.0, 0.8))])[0])
    assert row.bootstrap is None
    filled = attach_bootstrap(row, BootstrapResult(0.125, 10, 0))
    assert filled.bootstrap.stderr == 0.125
    assert row.bootstrap is None   # original untouched
    empty = GroupFitRow(A, HaltType.INTRADAY, EventSign.POSITIVE,
                        None, "no_power_law")
    assert attach_bootstrap(empty, BootstrapResult(0.5, 1, 9)) is empty


# ---------------------------------------------------------------- csv output


def test_exponent_csv_round_trip():
    good, failed = fit_all_groups([_avg(_decay_row(2.0, 0.8)),
                                   _avg(np.ones(241))])
    rows = [attach_bootstrap(GroupFitRow(A, HaltType.INTRADAY,
                                         EventSign.POSITIVE, *good),
                             BootstrapResult(0.01, 50, 0)),
            GroupFitRow(A, HaltType.ONE_DAY, EventSign.NEGATIVE, *failed)]
    out = io.StringIO()
    write_exponent_csv(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ("measure,halt_type,sign,A,alpha,alpha_se_asymptotic,"
                        "alpha_se_bootstrap,sse,r2,converged,flag")
    good = lines[1].split(",")
    assert good[:3] == ["absolute_return", "intraday", "pos"]
    assert float(good[4]) == pytest.approx(0.8, abs=1e-8)
    assert float(good[6]) == 0.01
    assert good[9:] == ["1", "ok"]
    failed = lines[2].split(",")
    assert failed[:3] == ["absolute_return", "oneday", "neg"]
    assert failed[3:] == ["", "", "", "", "", "", "0", "no_power_law"]


def test_loglog_csv_layout(tmp_path):
    # an average whose excess over 1 is 2.0, 1.0, 0.5, 0.25
    average = _series([3.0, 2.0, 1.5, 1.25], t=[1, 2, 4, 8])
    fit = PowerLawFit(2.0, 1.0, 0.0, (1, 160), 0.0, 1.0, 4, 3)
    cell = GroupCell(HaltType.INTRADAY, EventSign.POSITIVE, (), {A: average},
                     fits={A: GroupFitRow(A, HaltType.INTRADAY,
                                          EventSign.POSITIVE, fit, "ok")})
    lines = cell_artifact(tmp_path / "fit", "loglog.csv", cell).splitlines()
    assert lines[0] == "group,measure,t,z_ex,fit_value"
    assert lines[1] == "intraday_pos,absolute_return,1,2.0,2.0"
    assert lines[3] == "intraday_pos,absolute_return,4,0.5,0.5"
    bare = GroupCell(HaltType.INTRADAY, EventSign.POSITIVE, (), {A: average})
    assert cell_artifact(tmp_path / "bare", "loglog.csv", bare).splitlines()[1] \
        == "intraday_pos,absolute_return,1,2.0,"
