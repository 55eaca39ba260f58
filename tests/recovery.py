"""Planted-parameter recovery: regenerate, analyse and refit synthetic
panels, and compare the fitted exponents with the planted ones.

The acceptance gates and the synthetic-generator tests run it; it runs
``run_analysis`` as far as the group averages and fits each group
average on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from haltstudy import (
    AnalysisConfig,
    EventSign,
    FitConfig,
    GroundTruth,
    HaltRecord,
    HaltStudyError,
    HaltType,
    MeasureKind,
    Panel,
    SyntheticSpec,
    generate_panel,
    make_excess,
    run_analysis,
)
from helpers import fit_row


@dataclass(frozen=True)
class RecoveryRow:
    """One fitted-versus-planted comparison from the recovery study."""

    seed: int
    measure: MeasureKind
    halt_type: HaltType
    sign: EventSign
    planted_alpha: float
    planted_amplitude: float
    fitted_alpha: float
    fitted_amplitude: float
    failure: str | None = None

    @property
    def alpha_error(self) -> float:
        return self.fitted_alpha - self.planted_alpha


@dataclass(frozen=True)
class RecoveryReport:
    """Fit accuracy across repeated seeded end-to-end runs."""

    rows: tuple[RecoveryRow, ...]

    def fraction_within(self, tol: float) -> float:
        if not self.rows:
            return float("nan")
        good = sum(1 for r in self.rows
                   if r.failure is None and abs(r.alpha_error) <= tol)
        return good / len(self.rows)

    def mean_abs_error(self) -> float:
        errors = [abs(r.alpha_error) for r in self.rows if r.failure is None]
        return float(np.mean(errors)) if errors else float("nan")


def _fit_groups_against_truth(panel: Panel, records: Sequence[HaltRecord],
                              truth: GroundTruth,
                              measures: Sequence[MeasureKind],
                              fit_range: tuple[int, int],
                              seed: int) -> list[RecoveryRow]:
    config = AnalysisConfig(measures=tuple(measures))
    planted = {(row.record.stock_id, row.record.halt_day): row
               for row in truth.rows}
    rows = []
    for cell in run_analysis(panel, records, config, ("averages.csv",)).cells:
        truths = [planted[(rec.stock_id, rec.halt_day)]
                  for rec in cell.records]
        for measure, average in cell.averages.items():
            relaxes = {truth_row.event.relaxations[measure]
                       for truth_row in truths}
            if len(relaxes) != 1:
                raise ValueError(
                    "recovery study needs uniform planted parameters per group")
            relax = next(iter(relaxes))
            fitted_alpha = float("nan")
            fitted_amplitude = float("nan")
            failure = None
            series = make_excess(average)
            fit = fit_row(series.t, series.mean, fit_range)
            if isinstance(fit, HaltStudyError):
                failure = f"{type(fit).__name__}: {fit}"
            else:
                fitted_alpha = fit.alpha
                fitted_amplitude = fit.amplitude
            rows.append(RecoveryRow(seed, measure, cell.halt_type, cell.sign,
                                    relax.alpha, relax.amplitude,
                                    fitted_alpha, fitted_amplitude, failure))
    return rows


def recovery_study(spec: SyntheticSpec, n_seeds: int,
                   measures: Sequence[MeasureKind] = (
                       MeasureKind.ABSOLUTE_RETURN,),
                   fit_range: tuple[int, int] = FitConfig.fit_range,
                   ) -> RecoveryReport:
    """Regenerate and refit under seeds seed+0..seed+n_seeds-1.

    Each run regenerates the dataset with a shifted seed, pushes it
    through filtering, deseasonalization, averaging and fitting, and
    compares fitted against planted exponents. Per-run fit failures are
    recorded in their rows; they never abort the study.
    """
    rows: list[RecoveryRow] = []
    for i in range(n_seeds):
        run_seed = spec.seed + i
        panel, records, truth = generate_panel(replace(spec, seed=run_seed))
        rows.extend(_fit_groups_against_truth(panel, records, truth,
                                              measures, fit_range, run_seed))
    return RecoveryReport(tuple(rows))
