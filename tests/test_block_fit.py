"""The block profile fitter: every row as if fitted alone, and no worse
than the fits it is checked against.

Every row of a block must end bit for bit where a one-row ``_fit_rows``
call ends: amplitude, alpha, SSE, Newton step count, asymptotic stderr,
R-squared, and the error a failing row raises. Wherever the independent
scalar Gauss-Newton fit in ``oracles.scalar_power_law_fit`` converges,
the row's SSE is at most the oracle's times (1 + 1e-9), and no row's SSE
is ever beaten by ``oracles.grid_power_law``'s exhaustive scan around
the planted parameters. A row that fails counts with the least SSE on
``ALPHA_GRID``: at a grid end for a runaway, z.z where no alpha fits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltstudy import (
    DegenerateData,
    EventSign,
    EventTrajectory,
    GroupAverage,
    HaltStudyError,
    HaltType,
    MeasureKind,
    NonConvergence,
    bootstrap_alpha_stderr,
    fit_all_groups,
    make_calendar,
    make_excess,
    powerlaw,
)
from haltstudy.powerlaw import ALPHA_GRID, FLAG_NO_POWER_LAW, _fit_rows, _RowFit
from helpers import halt_event
from oracles import grid_power_law, scalar_power_law_fit

T160 = np.arange(1, 161, dtype=float)
FLOATS = ("amplitude", "alpha", "alpha_stderr", "sse", "r2_positive")
SSE_RTOL = 1e-9
# an SSE below this share of z.z is rounding: alpha is then fixed only
# to about 1e-14, by the rounding of S'
SSE_FLOOR = 1e-20

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _outcome(fit, *args):
    try:
        return fit(*args)
    except HaltStudyError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, HaltStudyError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    for name in FLOATS:
        assert (np.float64(getattr(got, name)).tobytes()
                == np.float64(getattr(want, name)).tobytes()), name
    assert ((got.n_iterations, got.n_points, got.fit_range)
            == (want.n_iterations, want.n_points, want.fit_range))


def _completed(row):
    return row.complete() if isinstance(row, _RowFit) else row


def _profile_minimum(t, z):
    # least SSE over the alpha grid, the amplitude at each alpha its
    # closed form max(0, d.z / d.d): z.z where no alpha fits
    d = t ** -ALPHA_GRID[:, None]
    dz = d @ z
    return float(z @ z - np.max(np.where(dz > 0, dz * dz / (d * d).sum(1), 0)))


def _least_sse(row, t, z):
    """The SSE a row ends at: its fit's, or for a failed row the least
    on the alpha grid."""
    return row.sse if isinstance(row, _RowFit) else _profile_minimum(t, z)


def _assert_rows_fit_alone(t, block, fit_range):
    """Fit ``block``; each row must be bitwise its one-row fit, and end
    at an SSE within SSE_RTOL of the scalar fit wherever that converges.
    Returns the block's rows."""
    rows = _fit_rows(t, block, fit_range)
    assert len(rows) == len(block)
    lo, hi = fit_range
    for values, row in zip(block, rows):
        alone, = _fit_rows(t, values[None], fit_range)
        _assert_same(_completed(row), _completed(alone))
        want = _outcome(scalar_power_law_fit, t, values, fit_range)
        if not isinstance(want, HaltStudyError):
            keep = (t >= lo) & (t <= hi) & ~np.isnan(values)
            z = values[keep]
            assert (_least_sse(row, t[keep], z)
                    <= want.sse * (1 + SSE_RTOL) + SSE_FLOOR * (z @ z))
        if isinstance(row, _RowFit):
            # the zero curve's SSE is z.z: no fit may be worse than it
            assert row.sse <= row.z @ row.z
    return rows


def _noisy_block(rng, n_rows, t=T160):
    amp = np.exp(rng.uniform(-2.0, 1.5, n_rows))
    alpha = rng.uniform(-0.3, 2.5, n_rows)
    noise = rng.uniform(0.0, 0.6, n_rows)
    return (amp[:, None] * t ** -alpha[:, None]
            + noise[:, None] * rng.normal(0.0, 1.0, (n_rows, t.size)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_block_rows_fit_as_alone(seed):
    rng = np.random.default_rng(seed)
    block = _noisy_block(rng, 60)
    # shared and private gaps: several NaN patterns, each its own block
    block[rng.random(60) < 0.4, 3:9] = np.nan
    for i in range(0, 60, 7):
        block[i, rng.random(160) < 0.2] = np.nan
    block[5, 10:] = np.nan                      # 10 points left
    block[6, 7:] = np.nan                       # 7 points: too few
    block[7] = -np.abs(block[7])                # nothing positive
    block[8] = 0.4                              # constant
    block[9] = np.where(np.arange(160) % 2, 0.5, -0.5)
    block[10] = np.nan                          # nothing at all
    rows = _assert_rows_fit_alone(T160, block, (1, 160))
    kinds = {type(row) for row in rows}
    assert {_RowFit, DegenerateData} <= kinds
    # a narrower range selects other points and other patterns
    _assert_rows_fit_alone(T160, block[:30], (5, 60))


@pytest.mark.parametrize("n_rows", [1, 7, 60, 200])
def test_block_size_changes_no_row(n_rows):
    # the grid's dot products are stacked per-row products, so a row
    # cannot tie-break its best grid point differently in a larger block
    rng = np.random.default_rng(n_rows)
    block = _noisy_block(rng, n_rows)
    block[rng.random(n_rows) < 0.5, 20:25] = np.nan
    rows = _fit_rows(T160, block, (1, 160))
    for values, row in zip(block, rows):
        alone, = _fit_rows(T160, values[None], (1, 160))
        _assert_same(_completed(row), _completed(alone))


def test_rows_at_the_iteration_cap_fail_alone(monkeypatch):
    monkeypatch.setattr(powerlaw, "MAX_ITERATIONS", 4)
    rng = np.random.default_rng(0)
    block = 2.0 * T160 ** -0.8 + rng.normal(0.0, 0.3, (20, 160))
    rows = _fit_rows(T160, block, (1, 160))
    for values, row in zip(block, rows):
        alone, = _fit_rows(T160, values[None], (1, 160))
        _assert_same(_completed(row), _completed(alone))
    failed = [row for row in rows if isinstance(row, NonConvergence)]
    assert 0 < len(failed) < len(rows)
    assert str(failed[0]) == "no convergence in 4 iterations"


def test_a_decay_that_vanishes_after_t1_is_no_fit():
    # 1 at t = 1 and a small negative level after it: the SSE falls as
    # alpha grows, towards a spike at t = 1, and is least at the top of
    # the alpha grid
    runaway = np.r_[1.0, np.full(159, -0.01)]
    block = np.vstack([2.0 * T160 ** -0.8 + 0.01 * np.sin(T160), runaway])
    rows = _assert_rows_fit_alone(T160, block, (1, 160))
    assert isinstance(rows[0], _RowFit)
    assert isinstance(rows[1], NonConvergence)
    assert str(rows[1]) == ("the SSE still falls at alpha 20.0, the end of "
                            "the alpha grid")
    # a resample that averages to such a series is a failed resample
    cal = make_calendar(12)
    t = np.arange(-80, 161)
    trajs = [EventTrajectory(
        halt_event(cal, stock, (5, 61), (5, 121), HaltType.INTRADAY,
                   EventSign.POSITIVE).record,
        MeasureKind.VOLUME, t, np.r_[np.ones(81), 1.0 + runaway])
        for stock in ("S00", "S01")]
    result = bootstrap_alpha_stderr(trajs, rows[0].complete(), n_resamples=8,
                                    seed=0)
    assert (result.n_success, result.n_failed) == (0, 8)
    # and a cell whose average is such a series has no power law
    (fit, flag), = fit_all_groups([_average(
        np.r_[np.ones(81), 1.0 + runaway], MeasureKind.VOLUME)])
    assert fit is None and flag == FLAG_NO_POWER_LAW


def test_a_growth_that_peaks_at_the_last_point_is_no_fit():
    # the mirror case: a level that jumps at the last point is best fit
    # by ever more negative alpha, and stops at the bottom of the grid
    growth = np.r_[np.full(159, -0.01), 1.0]
    row, = _assert_rows_fit_alone(T160, growth[None], (1, 160))
    assert isinstance(row, NonConvergence)
    assert str(row) == ("the SSE still falls at alpha -5.0, the end of "
                        "the alpha grid")


def test_a_decay_the_sse_cannot_see_is_no_fit(monkeypatch):
    # on a grid reaching alpha 100, the spike's SSE stops changing in
    # the middle of the grid, at an alpha where 2**-alpha is far below
    # the residuals' rounding: the SSE cannot see alpha there
    monkeypatch.setattr(powerlaw, "ALPHA_GRID", np.arange(-20, 401) / 4)
    runaway = np.r_[1.0, np.full(159, -1e3)]
    row, = _fit_rows(T160, runaway[None], (1, 160))
    assert isinstance(row, NonConvergence)
    assert str(row).startswith("alpha 64.")
    assert str(row).endswith("0 for every t > 1")


def _average(mean, measure):
    t = np.arange(-80, 161)
    return GroupAverage(measure, t, np.asarray(mean, float),
                        np.zeros(t.size), np.ones(t.size, dtype=int))


def test_fit_all_groups_blocks_cells_with_different_nan_patterns():
    rng = np.random.default_rng(9)
    means = 1.0 + np.hstack([rng.normal(0.0, 0.05, (12, 81)),
                             _noisy_block(rng, 12)])
    means[:4, 100:110] = np.nan
    means[4:6, 85] = np.nan
    means[6, 82:] = np.nan                      # too few points: no fit
    means[7, 81:] = 0.5                         # nothing positive: no fit
    measures = [m for m in MeasureKind for _ in range(6)][:12]
    averages = [_average(mean, m) for mean, m in zip(means, measures)]
    # fits come back in the order given, here reversed
    fits = fit_all_groups(averages[::-1])[::-1]
    n_fitted = 0
    for avg, (got, _) in zip(averages, fits):
        series = make_excess(avg)
        alone, = _fit_rows(series.t, series.mean[None], (1, 160))
        if isinstance(alone, HaltStudyError):
            assert got is None
        else:
            _assert_same(got, alone.complete())
            n_fitted += 1
    assert n_fitted == 10


@settings(deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-0.3, 2.5), st.floats(0.0, 0.5),
       st.integers(0, 2**32 - 1))
def test_no_grid_cell_beats_the_fit(amp, alpha, noise, seed):
    # bench-shaped rows: the t axis 1..160 with gaps; a narrow minimum
    # between two points of ALPHA_GRID would show as a grid cell near
    # the planted (A, alpha) with a lower SSE than the fit
    rng = np.random.default_rng(seed)
    z = amp * T160 ** -alpha + noise * rng.normal(0.0, 1.0, T160.size)
    z[rng.random(T160.size) < 0.1] = np.nan
    row, = _fit_rows(T160, z[None], (1, 160))
    t, z = T160[~np.isnan(z)], z[~np.isnan(z)]
    _, _, grid_sse = grid_power_law(
        t, z, (max(1e-3, amp - 0.25), amp + 0.25),
        (alpha - 0.25, alpha + 0.25), step=2e-3)
    assert (_least_sse(row, t, z)
            <= grid_sse * (1 + SSE_RTOL) + SSE_FLOOR * (z @ z))
