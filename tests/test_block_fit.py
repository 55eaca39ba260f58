"""The block Gauss-Newton fitter against the scalar fit it replaces.

Every row of a block must end bit for bit where the one-series loop in
``oracles.scalar_power_law_fit`` ends: amplitude, alpha, SSE, iteration
count, asymptotic stderr, R-squared, and the error a failing row raises.
"""

import numpy as np
import pytest

from haltstudy import (
    DegenerateData,
    EventSign,
    GroupAverage,
    HaltStudyError,
    HaltType,
    MeasureKind,
    NonConvergence,
    fit_all_groups,
    fit_power_law_points,
    make_excess,
    powerlaw,
)
from haltstudy.powerlaw import _fit_rows, _initial_guesses, _RowFit
from oracles import _scalar_initial_guess, scalar_power_law_fit

T160 = np.arange(1, 161, dtype=float)
FLOATS = ("amplitude", "alpha", "alpha_stderr", "sse", "r2_positive")

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


def _assert_block_matches_oracle(t, block, fit_range):
    rows = _fit_rows(t, block, fit_range)
    assert len(rows) == len(block)
    for values, row in zip(block, rows):
        want = _outcome(scalar_power_law_fit, t, values, fit_range)
        _assert_same(row.complete() if isinstance(row, _RowFit) else row, want)
        _assert_same(_outcome(fit_power_law_points, t, values, fit_range),
                     want)
    return rows


def _noisy_block(rng, n_rows, t=T160):
    amp = np.exp(rng.uniform(-2.0, 1.5, n_rows))
    alpha = rng.uniform(-0.3, 2.5, n_rows)
    noise = rng.uniform(0.0, 0.6, n_rows)
    return (amp[:, None] * t ** -alpha[:, None]
            + noise[:, None] * rng.normal(0.0, 1.0, (n_rows, t.size)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_block_matches_scalar_fit(seed):
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
    rows = _assert_block_matches_oracle(T160, block, (1, 160))
    kinds = {type(row) for row in rows}
    assert {_RowFit, DegenerateData} <= kinds
    # a narrower range selects other points and other patterns
    _assert_block_matches_oracle(T160, block[:30], (5, 60))


def _assert_starts_match_oracle(t, block):
    amplitude, alpha = _initial_guesses(t, block)
    for i, row in enumerate(block):
        want = np.array(_scalar_initial_guess(t, row))
        assert np.array([amplitude[i], alpha[i]]).tobytes() == want.tobytes()


def test_block_start_matches_per_row_polyfit():
    rng = np.random.default_rng(17)
    block = _noisy_block(rng, 40)
    block[:, rng.permutation(160)[:60]] *= -1.0     # mixed positive patterns
    block[30] = -1.0
    block[30, 7] = 0.5                              # one positive point
    block[31] = -1.0
    block[31, [3, 90]] = [2.0, 0.1]                 # two: polyfit on a line
    _assert_starts_match_oracle(T160, block)
    amplitude, alpha = _initial_guesses(T160, block[30:31])
    assert (amplitude[0], alpha[0]) == (0.5, 0.5)


def test_block_start_falls_back_where_polyfit_cannot_start():
    # positive points sharing one t, and a line whose intercept
    # overflows exp(): both start at (max z, 0.5)
    t = np.array([1.0, 1.0, 2.0, 3.0])
    shared = np.array([[0.3, 0.7, -1.0, -1.0], [0.3, 0.3, 0.0, -0.2]])
    _assert_starts_match_oracle(t, shared)
    assert _initial_guesses(t, shared)[0].tolist() == [0.7, 0.3]
    steep_t = np.arange(100.0, 141.0)
    steep = np.exp(750.0 - 300.0 * np.log(steep_t))[None, :]
    with np.errstate(over="ignore"):
        _assert_starts_match_oracle(steep_t, steep)
        amplitude, alpha = _initial_guesses(steep_t, steep)
    assert (amplitude[0], alpha[0]) == (steep.max(), 0.5)


def test_block_start_returns_every_count_in_row_order():
    # two rows per count of positive points, 2 to len(t), shuffled: the
    # stacked regression orders rows by count and must put them back
    rng = np.random.default_rng(23)
    counts = np.repeat(np.arange(2, T160.size + 1), 2)
    block = -np.abs(_noisy_block(rng, counts.size))
    for row, count in zip(block, counts):
        keep = rng.permutation(T160.size)[:count]
        row[keep] = rng.uniform(0.01, 3.0, count)
    block = block[rng.permutation(counts.size)]
    _assert_starts_match_oracle(T160, block)


def test_block_start_where_every_row_falls_back():
    steep_t = np.arange(100.0, 141.0)
    block = np.vstack([np.exp(750.0 - 300.0 * np.log(steep_t)),
                       np.exp(760.0 - 310.0 * np.log(steep_t)),
                       np.where(steep_t == 120.0, 0.25, -1.0)])
    with np.errstate(over="ignore"):
        _assert_starts_match_oracle(steep_t, block)
        amplitude, alpha = _initial_guesses(steep_t, block)
    assert amplitude.tobytes() == block.max(axis=1).tobytes()
    assert alpha.tolist() == [0.5, 0.5, 0.5]


def test_block_start_with_no_row_to_regress():
    t = np.array([1.0, 1.0, 2.0, 3.0])
    block = np.array([[0.3, 0.7, -1.0, -1.0], [-1.0, -1.0, 0.4, 0.0],
                      [-0.5, -0.5, -0.5, 2.0]])
    _assert_starts_match_oracle(t, block)
    amplitude, alpha = _initial_guesses(t, block)
    assert amplitude.tolist() == [0.7, 0.4, 2.0]
    assert alpha.tolist() == [0.5, 0.5, 0.5]
    amplitude, alpha = _initial_guesses(t, block[:0])
    assert amplitude.shape == alpha.shape == (0,)


def test_stacked_lstsq_is_the_lstsq_wrapper_one_row_at_a_time():
    # pins the private gufunc the starts call against the public wrapper
    rng = np.random.default_rng(31)
    lhs = np.column_stack((np.log(rng.uniform(1.0, 160.0, 37)), np.ones(37)))
    lhs /= np.sqrt((lhs * lhs).sum(axis=0))
    rhs = rng.normal(0.0, 1.0, 37)
    rcond = 37 * np.finfo(float).eps
    want, _, want_rank, want_sv = np.linalg.lstsq(lhs, rhs, rcond)
    got, _, rank, sv = powerlaw._lstsq(lhs[None], rhs[None, :, None], rcond,
                                       signature="ddd->ddid")
    assert got[0, :, 0].tobytes() == want.tobytes()
    assert rank[0] == want_rank
    assert sv[0].tobytes() == want_sv.tobytes()


def test_rows_at_the_iteration_cap_fail_alone(monkeypatch):
    monkeypatch.setattr(powerlaw, "MAX_ITERATIONS", 6)
    rng = np.random.default_rng(0)
    block = 2.0 * T160 ** -0.8 + rng.normal(0.0, 0.3, (20, 160))
    rows = _assert_block_matches_oracle(T160, block, (1, 160))
    failed = sum(isinstance(row, NonConvergence) for row in rows)
    assert 0 < failed < len(rows)


def test_singular_systems_stop_only_their_rows():
    # t all ones: log t = 0 zeroes the alpha column of every Jacobian
    ones = np.ones(12)
    rng = np.random.default_rng(4)
    block = rng.uniform(0.5, 2.0, (5, 12))
    rows = _assert_block_matches_oracle(ones, block, (1, 1))
    assert all(row.n_iterations == 1 for row in rows)
    # values near 1e-300 underflow J^T J to a singular matrix; the
    # other rows of that block iterate on
    t = np.arange(1, 13, dtype=float)
    tiny = np.full(12, 1e-300)
    tiny[0] = 1.5e-300
    block = np.vstack([2.0 * t ** -0.7 + 0.01 * np.sin(t), tiny,
                       1.2 * t ** -0.4 + 0.02 * np.cos(t)])
    rows = _assert_block_matches_oracle(t, block, (1, 12))
    assert rows[1].n_iterations == 1
    assert rows[0].n_iterations > 1 and rows[2].n_iterations > 1


def _average(mean, measure, halt_type, sign):
    t = np.arange(-80, 161)
    return GroupAverage(measure, halt_type, sign, t, np.asarray(mean, float),
                        np.zeros(t.size), np.ones(t.size, dtype=int))


def test_fit_all_groups_blocks_cells_with_different_nan_patterns():
    rng = np.random.default_rng(9)
    means = 1.0 + np.hstack([rng.normal(0.0, 0.05, (12, 81)),
                             _noisy_block(rng, 12)])
    means[:4, 100:110] = np.nan
    means[4:6, 85] = np.nan
    means[6, 82:] = np.nan                      # too few points: no fit
    means[7, 81:] = 0.5                         # nothing positive: no fit
    cells = [(m, ht, s) for m in MeasureKind for ht in HaltType
             for s in EventSign][:12]
    averages = [_average(mean, *cell) for mean, cell in zip(means, cells)]
    rows = fit_all_groups(averages[::-1])
    by_cell = {(row.measure, row.halt_type, row.sign): row for row in rows}
    n_fitted = 0
    for avg in averages:
        series = make_excess(avg)
        want = _outcome(scalar_power_law_fit, series.t, series.mean)
        got = by_cell[(avg.measure, avg.halt_type, avg.sign)].fit
        if isinstance(want, HaltStudyError):
            assert got is None
        else:
            _assert_same(got, want)
            n_fitted += 1
    assert n_fitted == 10
