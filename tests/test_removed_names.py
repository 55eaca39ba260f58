"""Names removed from the package stay removed.

README's "Library" section lists each removed name with what to use
instead. A name that came back would be a second entry point next to
the one the pipeline runs, so every one is checked against the package
namespace and against the module or class that defined it.
"""

import dataclasses
import inspect
from pathlib import Path

import haltstudy
from haltstudy import (event_study, events, market_data, pipeline, powerlaw,
                       synthetic)

# (defining module, name): gone from there and from ``haltstudy``
REMOVED = [
    (event_study, "compute_intraday_pattern"),
    (event_study, "extract_trajectory"),
    (event_study, "IntradayPattern"),
    (event_study, "average_cumulative_return"),
    (event_study, "write_group_average_csv"),
    (event_study, "write_curve_csv"),
    (event_study, "_lookback_days"),
    (event_study, "_event_minutes"),
    (event_study, "reversal_stats"),
    (event_study, "_return_window_records"),
    (event_study, "_GroupColumns"),
    (events, "classify_sign"),
    (events, "_rejection_reason"),
    (events, "_worst_gap_fraction"),
    (market_data, "forward_fill"),
    (market_data, "forward_fill_all"),
    (powerlaw, "fit_power_law"),
    (powerlaw, "fit_power_law_points"),
    (powerlaw, "ExcessSeries"),
    (powerlaw, "write_loglog_csv"),
    (powerlaw, "write_exponent_csv"),
    (powerlaw, "_initial_guesses"),
    (powerlaw, "_raise_lstsq_error"),
    (powerlaw, "_solve_rows"),
    (powerlaw, "_gauss_newton_block"),
    (powerlaw, "_lstsq"),
    (powerlaw, "SSE_RTOL"),
    (powerlaw, "STEP_ATOL"),
    (powerlaw, "ALPHA_ATOL"),
    (pipeline, "curves_and_reversals"),
    (pipeline, "select_events"),
    (synthetic, "recovery_study"),
    (synthetic, "RecoveryReport"),
    (synthetic, "RecoveryRow"),
]

# (class, attribute): neither a class attribute nor a dataclass field
REMOVED_ATTRIBUTES = [
    (market_data.Panel, "real_mask"),
    (market_data.Panel, "synthetic_mask"),
    (market_data.TradingCalendar, "location"),
    (pipeline.GroupCell, "trajectories"),
    (pipeline.GroupCell, "events"),
    (pipeline.AnalysisResult, "averages"),
    (pipeline.AnalysisResult, "excess"),
    (pipeline.AnalysisResult, "curves"),
    (events.HaltRecord, "global_pre"),
    (events._RecordColumns, "bar_spans"),
    (event_study.EventTrajectory, "event"),
    (event_study.GroupAverage, "halt_type"),
    (event_study.GroupAverage, "sign"),
    (event_study.GroupAverage, "group"),
    (event_study.CumulativeReturnCurve, "halt_type"),
    (event_study.CumulativeReturnCurve, "sign"),
    (event_study.CumulativeReturnCurve, "group"),
    (powerlaw.PowerLawFit, "bootstrap_alpha_stderr"),
]


def test_removed_names_are_gone():
    present = [f"{module.__name__}.{name}" for module, name in REMOVED
               if hasattr(module, name)]
    present += [f"haltstudy.{name}" for _, name in REMOVED
                if hasattr(haltstudy, name)]
    assert present == []


def test_removed_attributes_are_gone():
    present = [f"{owner.__name__}.{name}"
               for owner, name in REMOVED_ATTRIBUTES
               if hasattr(owner, name) or (dataclasses.is_dataclass(owner)
                   and name in {f.name for f in dataclasses.fields(owner)})]
    assert present == []


def test_make_calendar_takes_no_start():
    assert list(inspect.signature(haltstudy.make_calendar).parameters) == \
        ["n_days"]


def test_event_time_stages_take_halt_records():
    # the event forms, which took classified events, are gone
    assert list(inspect.signature(
        haltstudy.extract_stock_trajectories).parameters) == \
        ["panel", "records", "measures", "lookback", "pre_window",
         "post_window"]


def test_bootstrap_takes_the_cell_fit():
    # the fit_range form, which started every resample from its own
    # log-log regression, is gone
    assert list(inspect.signature(
        haltstudy.bootstrap_alpha_stderr).parameters) == \
        ["trajectories", "fit", "n_resamples", "seed"]


def test_fits_take_no_start():
    # the profile fitter searches alpha itself: no start to pass, and
    # no private numpy least-squares gufunc to import
    assert list(inspect.signature(powerlaw._fit_rows).parameters) == \
        ["t", "values", "fit_range"]
    sources = Path(haltstudy.__file__).parent.glob("*.py")
    assert [path.name for path in sources
            if "_umath_linalg" in path.read_text()] == []
