"""Bootstrap resamples fitted by the profile fitter, against the scalar fit.

On the golden spec and on three panels shaped like the bootstrap bench
workload (``build_group_spec`` with 10 events per group, sigma 0.2,
seeds 1-3), every resample row of every bootstrapped cell is fitted by
the block fitter and by ``oracles.scalar_power_law_fit``, the damped
Gauss-Newton iteration from a log-log start: each row must succeed or
fail alike, its SSE must be at most the scalar fit's times (1 + 1e-9),
its alphas must agree within 1e-4, and each cell's spread within 1e-4
relative.
"""

import numpy as np
import pytest

from haltstudy import (AnalysisConfig, EventSign, HaltType, build_group_spec,
                       generate_panel)
from haltstudy.cli import _parse_groups
from haltstudy.event_study import resampled_means
from haltstudy.events import group_sort_key
from haltstudy.pipeline import average_groups, fit_groups, select_events
from haltstudy.errors import HaltStudyError
from haltstudy.powerlaw import _fit_columns, _fit_rows, _RowFit
from oracles import scalar_power_law_fit
from test_golden import GROUPS

ALPHA_BOUND = 1e-4
SSE_RTOL = 1e-9
STDERR_BOUND = 1e-4

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _cases():
    yield "golden", (build_group_spec(_parse_groups(GROUPS, "--groups"),
                                      seed=11, sigma=0.1),
                     AnalysisConfig(n_bootstrap=20))
    sizes = {(ht, s): 10 for ht in HaltType for s in EventSign}
    for seed in (1, 2, 3):
        yield f"bench-{seed}", (build_group_spec(sizes, seed=seed, sigma=0.2),
                                AnalysisConfig(n_bootstrap=100, seed=seed))


CASES = dict(_cases())


def _resample_blocks(spec, config):
    """Per bootstrapped cell and measure, in ``fit_groups``' row order: its
    fit row, and its resample block's time axis and excess values, drawn
    from the same seed child as the run's."""
    panel, records, _ = generate_panel(spec)
    trajectories = {}
    cells = average_groups(panel, select_events(panel, records, config),
                           config, trajectories)
    rows = fit_groups(cells, trajectories, config)
    ordered = sorted(((cell, m) for cell in cells for m in cell.fits),
                     key=lambda p: (p[1].value,
                                    group_sort_key(p[0].halt_type, p[0].sign)))
    children = np.random.SeedSequence(config.seed).spawn(len(ordered))
    for (cell, m), child, row in zip(ordered, children, rows):
        if row.bootstrap is None:
            continue
        trajs = sorted((trajectories[rec][m] for rec in cell.records),
                       key=lambda tr: tr.record.sort_key())
        indices = np.random.default_rng(child).integers(
            0, len(trajs), size=(config.n_bootstrap, len(trajs)))
        columns = _fit_columns(trajs[0].t, row.fit.fit_range)
        yield (row, trajs[0].t[columns],
               resampled_means(trajs, indices, columns) - 1.0)


def _both_ways(t, excess, fit_range):
    """Per row (NaN where the fit fails): alpha and SSE from the block
    fitter, and from the scalar fit."""
    block = [(r.alpha, r.sse) if isinstance(r, _RowFit) else (np.nan, np.nan)
             for r in _fit_rows(t, excess, fit_range)]
    scalar = []
    for values in excess:
        try:
            fit = scalar_power_law_fit(t, values, fit_range)
            scalar.append((fit.alpha, fit.sse))
        except HaltStudyError:
            scalar.append((np.nan, np.nan))
    return np.array(block).T, np.array(scalar).T


def _spread(alpha):
    # the bootstrap's running sample deviation, in resample order
    count, mean, m2 = 0, 0.0, 0.0
    for a in alpha[~np.isnan(alpha)].tolist():
        count += 1
        delta = a - mean
        mean += delta / count
        m2 += delta * (a - mean)
    return np.sqrt(m2 / (count - 1)) if count >= 2 else np.nan


@pytest.mark.parametrize("case", CASES)
def test_resample_fits_match_the_scalar_fit(case):
    n_rows = 0
    for row, t, excess in _resample_blocks(*CASES[case]):
        (alpha, sse), (want, want_sse) = _both_ways(t, excess,
                                                    row.fit.fit_range)
        where = f"{case} {row.group}/{row.measure.value}"
        assert (np.isnan(alpha) == np.isnan(want)).all(), where
        # the run's own bootstrap is the block fit
        assert row.bootstrap.n_success == int((~np.isnan(alpha)).sum())
        assert np.float64(row.bootstrap.stderr).tobytes() \
            == np.float64(_spread(alpha)).tobytes()
        n_rows += len(excess)
        assert np.nanmax(sse / want_sse - 1, initial=0) <= SSE_RTOL, where
        assert np.nanmax(np.abs(alpha - want), initial=0) <= ALPHA_BOUND, where
        assert abs(_spread(alpha) / _spread(want) - 1) <= STDERR_BOUND, where
    assert n_rows >= (40 if case == "golden" else 1000)
