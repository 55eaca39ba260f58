"""Event-time analysis of market activity around trading halts.

The package ingests minute bars and a halt registry, classifies each
halt by duration and pre-halt trend, deseasonalizes activity measures
against per-minute baselines, averages them in event time, and fits the
post-halt relaxation as a power law. A seed-deterministic synthetic
generator with planted ground truth closes the loop for verification.
"""

from .errors import (
    ConfigError,
    CrossedQuote,
    DegenerateData,
    DuplicateBar,
    EmptyGroup,
    HaltStudyError,
    InsufficientHistory,
    InsufficientPostWindow,
    InsufficientWindow,
    InvalidInterval,
    MalformedRow,
    NoData,
    NonConvergence,
    NonPositivePrice,
    OverlapViolation,
    UnknownDay,
    ZeroBaseline,
)
from .market_data import (
    MINUTES_PER_DAY,
    Panel,
    PanelBuilder,
    TradingCalendar,
    parse_bar_file,
    write_bar_csv,
)
from .events import (
    CountTable,
    EligibilityConfig,
    EventSign,
    HaltEvent,
    HaltRecord,
    HaltType,
    RejectionReason,
    classify_halt_type,
    filter_eligibility,
    group_name,
    parse_halt_file,
    tabulate_counts,
    write_count_csv,
    write_eligibility_report,
    write_halt_csv,
)
from .event_study import (
    CumulativeReturnCurve,
    EventTrajectory,
    GroupAverage,
    MeasureKind,
    extract_stock_trajectories,
    group_average,
    group_averages,
    measure_series,
    resampled_means,
    stability_stat,
)
from .powerlaw import (
    BootstrapResult,
    FitConfig,
    GroupFitRow,
    PowerLawFit,
    attach_bootstrap,
    bootstrap_alpha_stderr,
    fit_all_groups,
    make_excess,
    power_law_jacobian,
    power_law_model,
)
from .synthetic import (
    DEFAULT_RELAXATIONS,
    GroundTruth,
    MeasureRelaxation,
    PlantedEvent,
    SyntheticSpec,
    build_group_spec,
    default_pattern,
    generate_panel,
    make_calendar,
    write_ground_truth,
    write_synthetic_dataset,
)
from .pipeline import (
    AnalysisConfig,
    AnalysisResult,
    run_analysis,
    summary_dict,
    write_analysis_outputs,
)

__version__ = "0.1.0"
