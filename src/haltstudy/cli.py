"""Command-line entry point.

Subcommands: ``run`` (full analysis), ``robustness`` (rerun per trend
window and count sign flips), ``synth`` (emit a synthetic dataset with
ground truth), ``counts`` (eligibility and the count table only) and
``fit`` (analysis with only the fit artifacts written). Options resolve
as defaults, then a ``key = value`` config file, then command-line
flags; the resolved analysis settings are echoed into the output
directory inside summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, HaltStudyError
from .events import (
    EligibilityConfig,
    EventSign,
    HaltType,
    group_name,
    parse_halt_file,
    tabulate_counts,
)
from .market_data import TradingCalendar, parse_bar_file
from .pipeline import (
    FIT_ARTIFACTS,
    SELECTION_ARTIFACTS,
    AnalysisConfig,
    AnalysisResult,
    FitConfig,
    run_analysis,
    select_events,
    write_analysis_outputs,
    write_sign_flip_csv,
)
from .synthetic import build_group_spec, write_synthetic_dataset

ALLOWED_TREND_WINDOWS = (60, 120, 180, 240)
DEFAULT_SYNTH_GROUPS = ",".join(f"{group_name(ht, s)}:1"
                                for ht in HaltType for s in EventSign)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation.

    Analysis settings default to the analysis configuration fields;
    ``cumulative_window`` is the eligibility ``pre_window``.
    """

    bars: Path | None = None
    calendar: Path | None = None
    halts: Path | None = None
    out: Path | None = None
    trend_window: int = EligibilityConfig.trend_window
    lookback_days: int = EligibilityConfig.lookback_days
    measure_pre_window: int = EligibilityConfig.measure_pre_window
    post_window: int = EligibilityConfig.post_window
    cumulative_window: int = EligibilityConfig.pre_window
    max_halt_days: int = EligibilityConfig.max_halt_days
    max_gap_fraction: float = EligibilityConfig.max_gap_fraction
    fit_range: tuple[int, int] = FitConfig.fit_range
    min_r2: float = FitConfig.min_r2
    n_bootstrap: int = AnalysisConfig.n_bootstrap
    seed: int = AnalysisConfig.seed
    reversal_horizons: tuple[int, ...] = AnalysisConfig.reversal_horizons
    windows: tuple[int, ...] = ALLOWED_TREND_WINDOWS
    groups: str = DEFAULT_SYNTH_GROUPS
    sigma: float = 0.0
    trend_magnitude: float = 0.08

    def __post_init__(self) -> None:
        if self.trend_window not in ALLOWED_TREND_WINDOWS:
            raise ConfigError(
                f"trend_window must be one of {ALLOWED_TREND_WINDOWS}, "
                f"got {self.trend_window}")
        for w in self.windows:
            if w not in ALLOWED_TREND_WINDOWS:
                raise ConfigError(f"robustness window {w} not allowed")
        try:
            self.analysis()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def analysis(self) -> AnalysisConfig:
        return AnalysisConfig(
            eligibility=EligibilityConfig(
                trend_window=self.trend_window,
                lookback_days=self.lookback_days,
                pre_window=self.cumulative_window,
                post_window=self.post_window,
                measure_pre_window=self.measure_pre_window,
                max_halt_days=self.max_halt_days,
                max_gap_fraction=self.max_gap_fraction),
            fit=FitConfig(self.fit_range, self.min_r2),
            reversal_horizons=self.reversal_horizons,
            n_bootstrap=self.n_bootstrap,
            seed=self.seed)


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None


def _parse_range(text: str, key: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected LO:HI, got {text!r}")
    return _parse_int(parts[0], key), _parse_int(parts[1], key)


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    return tuple(_parse_int(p.strip(), key) for p in text.split(",") if p.strip())


_FILE_KEYS = {
    "bars": lambda v, k: Path(v),
    "calendar": lambda v, k: Path(v),
    "halts": lambda v, k: Path(v),
    "out": lambda v, k: Path(v),
    "trend_window": _parse_int,
    "lookback_days": _parse_int,
    "measure_pre_window": _parse_int,
    "post_window": _parse_int,
    "cumulative_window": _parse_int,
    "max_halt_days": _parse_int,
    "max_gap_fraction": _parse_float,
    "fit_range": _parse_range,
    "min_r2": _parse_float,
    "n_bootstrap": _parse_int,
    "seed": _parse_int,
    "reversal_horizons": _parse_int_list,
    "windows": _parse_int_list,
    "groups": lambda v, k: v,
    "sigma": _parse_float,
    "trend_magnitude": _parse_float,
}


def parse_config_file(path: Path) -> dict:
    """Read ``key = value`` lines; # starts a comment, blanks ignored."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _FILE_KEYS[key](text.strip(), key)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags (text parsed as in the file)."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        values.update(parse_config_file(config_path))
    for key, parse in _FILE_KEYS.items():
        flag_value = getattr(args, key, None)
        if isinstance(flag_value, str):
            flag_value = parse(flag_value, key)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required setting: {name}")


def _load_inputs(config: RunConfig):
    _require(config, "bars", "calendar", "halts", "out")
    calendar = TradingCalendar.from_file(config.calendar)
    with open(config.bars, "rb") as fh:
        panel = parse_bar_file(fh, calendar)
    with open(config.halts, "rb") as fh:
        records = parse_halt_file(fh)
    return panel, records


def cmd_run(config: RunConfig) -> int:
    panel, records = _load_inputs(config)
    analysis = config.analysis()
    result = run_analysis(panel, records, analysis)
    written = write_analysis_outputs(result, analysis, config.out)
    print(f"wrote {len(written)} files to {config.out}")
    return 0


def cmd_counts(config: RunConfig) -> int:
    panel, records = _load_inputs(config)
    analysis = config.analysis()
    _, events = select_events(panel, records, analysis)
    table = tabulate_counts(events)
    write_analysis_outputs(AnalysisResult(events, table), analysis,
                           config.out, SELECTION_ARTIFACTS)
    print(f"{'halt_type':<10}{'pos':>6}{'neg':>6}{'total':>7}")
    for ht in HaltType:
        print(f"{ht.value:<10}{table.count(ht, EventSign.POSITIVE):>6}"
              f"{table.count(ht, EventSign.NEGATIVE):>6}"
              f"{table.row_total(ht):>7}")
    print(f"{'total':<10}{table.sign_total(EventSign.POSITIVE):>6}"
          f"{table.sign_total(EventSign.NEGATIVE):>6}{table.total:>7}")
    return 0


def cmd_fit(config: RunConfig) -> int:
    panel, records = _load_inputs(config)
    analysis = config.analysis()
    result = run_analysis(panel, records, analysis)
    write_analysis_outputs(result, analysis, config.out, FIT_ARTIFACTS)
    print(f"wrote exponents for {len(result.fit_rows)} group-measure cells")
    return 0


def cmd_robustness(config: RunConfig) -> int:
    if not config.windows:
        raise ConfigError("no robustness windows requested")
    panel, records = _load_inputs(config)
    results = []
    for window in config.windows:
        analysis = replace(config, trend_window=window).analysis()
        result = run_analysis(panel, records, analysis)
        write_analysis_outputs(result, analysis,
                               config.out / f"window_{window:03d}")
        results.append(result)
    with open(config.out / "sign_flips.csv", "w", newline="") as fh:
        n_flipped = write_sign_flip_csv(config.windows, results, fh)
    print(f"{n_flipped} of {len(results[-1].events)} events change sign "
          f"across windows {list(config.windows)}")
    return 0


def _parse_groups(text: str) -> dict[tuple[HaltType, EventSign], int]:
    by_name = {group_name(ht, s): (ht, s) for ht in HaltType for s in EventSign}
    sizes = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, count = token.partition(":")
        if name not in by_name:
            raise ConfigError(f"bad group name {name!r}")
        sizes[by_name[name]] = _parse_int(count or "1", "groups")
    if not sizes:
        raise ConfigError("no groups requested")
    return sizes


def cmd_synth(config: RunConfig) -> int:
    _require(config, "out")
    spec = build_group_spec(_parse_groups(config.groups), seed=config.seed,
                            sigma=config.sigma,
                            trend_magnitude=config.trend_magnitude,
                            lookback_days=config.lookback_days)
    write_synthetic_dataset(spec, config.out)
    print(f"wrote synthetic dataset ({spec.n_stocks} stocks, "
          f"{spec.n_days} days) to {config.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltstudy",
        description="Event-time analysis of market activity around "
                    "trading halts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="key = value settings file")
        p.add_argument("--bars", type=Path, help="minute-bar CSV")
        p.add_argument("--calendar", type=Path,
                       help="trading-day list, one ISO date per line")
        p.add_argument("--halts", type=Path, help="halt registry CSV")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--trend-window", type=int, dest="trend_window",
                       help="pre-halt trend window in traded minutes")
        p.add_argument("--lookback-days", type=int, dest="lookback_days")
        p.add_argument("--measure-pre-window", type=int,
                       dest="measure_pre_window")
        p.add_argument("--post-window", type=int, dest="post_window")
        p.add_argument("--cumulative-window", type=int,
                       dest="cumulative_window")
        p.add_argument("--max-halt-days", type=int, dest="max_halt_days")
        p.add_argument("--max-gap-fraction", type=float,
                       dest="max_gap_fraction")
        p.add_argument("--fit-range", dest="fit_range",
                       help="fit window as LO:HI")
        p.add_argument("--min-r2", type=float, dest="min_r2")
        p.add_argument("--bootstrap", type=int, dest="n_bootstrap",
                       help="bootstrap resamples (0 disables)")

    p_run = sub.add_parser("run", help="full analysis with all artifacts")
    add_common(p_run)
    p_rob = sub.add_parser("robustness",
                           help="rerun per trend window, count sign flips")
    add_common(p_rob)
    p_rob.add_argument("--windows", help="comma-separated trend windows")
    p_counts = sub.add_parser("counts",
                              help="eligibility report and count table only")
    add_common(p_counts)
    p_fit = sub.add_parser("fit", help="analysis with fit artifacts only")
    add_common(p_fit)
    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", type=Path)
    p_synth.add_argument("--out", type=Path)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--groups",
                         help="sizes like intraday_pos:3,oneday_neg:2")
    p_synth.add_argument("--sigma", type=float, help="log-normal noise level")
    p_synth.add_argument("--trend-magnitude", type=float,
                         dest="trend_magnitude")
    p_synth.add_argument("--lookback-days", type=int, dest="lookback_days")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "robustness": cmd_robustness,
    "counts": cmd_counts,
    "fit": cmd_fit,
    "synth": cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except (HaltStudyError, OSError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
