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
    EventSign,
    HaltType,
    filter_eligibility,
    tabulate_counts,
    write_count_csv,
    write_eligibility_report,
)
from .event_study import MeasureKind
from .market_data import TradingCalendar, forward_fill_all, parse_bar_file
from .events import parse_halt_file
from .pipeline import (
    AnalysisConfig,
    EligibilityConfig,
    FitConfig,
    run_analysis,
    write_analysis_outputs,
)
from .synthetic import build_group_spec, write_synthetic_dataset

ALLOWED_TREND_WINDOWS = (60, 120, 180, 240)
DEFAULT_ROBUSTNESS_WINDOWS = (60, 120, 180, 240)
DEFAULT_SYNTH_GROUPS = "intraday_pos:1,intraday_neg:1,oneday_pos:1," \
                       "oneday_neg:1,interday_pos:1,interday_neg:1"


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    bars: Path | None = None
    calendar: Path | None = None
    halts: Path | None = None
    out: Path | None = None
    trend_window: int = 240
    lookback_days: int = 40
    measure_pre_window: int = 80
    post_window: int = 160
    cumulative_window: int = 160
    max_halt_days: int = 22
    max_gap_fraction: float = 0.10
    fit_range: tuple[int, int] = (1, 160)
    min_r2: float = 0.2
    n_bootstrap: int = 200
    seed: int = 0
    n_workers: int = 1
    reversal_horizons: tuple[int, ...] = (1, 2)
    windows: tuple[int, ...] = DEFAULT_ROBUSTNESS_WINDOWS
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

    def eligibility(self) -> EligibilityConfig:
        return EligibilityConfig(
            trend_window=self.trend_window,
            lookback_days=self.lookback_days,
            pre_window=self.cumulative_window,
            post_window=self.post_window,
            measure_pre_window=self.measure_pre_window,
            max_halt_days=self.max_halt_days,
            max_gap_fraction=self.max_gap_fraction)

    def analysis(self) -> AnalysisConfig:
        return AnalysisConfig(
            eligibility=self.eligibility(),
            fit=FitConfig(self.fit_range, self.min_r2),
            reversal_horizons=self.reversal_horizons,
            n_bootstrap=self.n_bootstrap,
            seed=self.seed,
            n_workers=self.n_workers)


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
    "n_workers": _parse_int,
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
    """Defaults, then the config file, then explicit flags."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        values.update(parse_config_file(config_path))
    for key in _FILE_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required setting: {name}")


def _load_inputs(config: RunConfig):
    calendar = TradingCalendar.from_file(config.calendar)
    with open(config.bars, newline="") as fh:
        panel = parse_bar_file(fh, calendar)
    with open(config.halts, newline="") as fh:
        records = parse_halt_file(fh)
    return panel, records


def cmd_run(config: RunConfig) -> int:
    _require(config, "bars", "calendar", "halts", "out")
    panel, records = _load_inputs(config)
    result = run_analysis(panel, records, config.analysis())
    written = write_analysis_outputs(result, config.analysis(), config.out)
    print(f"wrote {len(written)} files to {config.out}")
    return 0


def cmd_counts(config: RunConfig) -> int:
    _require(config, "bars", "calendar", "halts", "out")
    panel, records = _load_inputs(config)
    filled = forward_fill_all(panel)
    events = filter_eligibility(records, filled, config.eligibility())
    table = tabulate_counts(events)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eligibility.csv", "w", newline="") as fh:
        write_eligibility_report(events, fh)
    with open(out / "counts.csv", "w", newline="") as fh:
        write_count_csv(table, fh)
    print(f"{'halt_type':<10}{'pos':>6}{'neg':>6}{'total':>7}")
    for ht in HaltType:
        print(f"{ht.value:<10}{table.count(ht, EventSign.POSITIVE):>6}"
              f"{table.count(ht, EventSign.NEGATIVE):>6}"
              f"{table.row_total(ht):>7}")
    print(f"{'total':<10}{table.sign_total(EventSign.POSITIVE):>6}"
          f"{table.sign_total(EventSign.NEGATIVE):>6}{table.total:>7}")
    return 0


def cmd_fit(config: RunConfig) -> int:
    _require(config, "bars", "calendar", "halts", "out")
    panel, records = _load_inputs(config)
    result = run_analysis(panel, records, config.analysis())
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    from .powerlaw import write_exponent_csv, write_loglog_csv
    with open(out / "exponents.csv", "w", newline="") as fh:
        write_exponent_csv(result.fit_rows, fh)
    fits = {(r.group, r.measure.value): r.fit for r in result.fit_rows}
    pairs = [(s, fits.get((s.group, s.measure.value))) for s in result.excess]
    with open(out / "loglog.csv", "w", newline="") as fh:
        write_loglog_csv(pairs, fh)
    print(f"wrote exponents for {len(result.fit_rows)} group-measure cells")
    return 0


def cmd_robustness(config: RunConfig) -> int:
    _require(config, "bars", "calendar", "halts", "out")
    panel, records = _load_inputs(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    signs_per_window = []
    events_ref = None
    for window in config.windows:
        sub = replace(config, trend_window=window)
        result = run_analysis(panel, records, sub.analysis())
        write_analysis_outputs(result, sub.analysis(),
                               out / f"window_{window:03d}")
        signs_per_window.append([ev.sign for ev in result.events])
        events_ref = result.events
    flip_rows = []
    n_flipped = 0
    for i, ev in enumerate(events_ref):
        signs = [per[i] for per in signs_per_window]
        distinct = {s for s in signs if s is not None}
        changed = int(len(distinct) > 1)
        n_flipped += changed
        rec = ev.record
        flip_rows.append(
            [rec.stock_id, rec.halt_day.isoformat(), rec.halt_minute,
             rec.resume_day.isoformat(), rec.resume_minute]
            + ["" if s is None else s.value for s in signs]
            + [changed])
    import csv as _csv
    with open(out / "sign_flips.csv", "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["stock_id", "halt_date", "halt_minute",
                         "resume_date", "resume_minute"]
                        + [f"sign_w{w}" for w in config.windows]
                        + ["flipped"])
        writer.writerows(flip_rows)
    print(f"{n_flipped} of {len(events_ref)} events change sign "
          f"across windows {list(config.windows)}")
    return 0


def _parse_groups(text: str) -> dict[tuple[HaltType, EventSign], int]:
    by_type = {ht.value: ht for ht in HaltType}
    by_sign = {s.value: s for s in EventSign}
    sizes = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, count = token.partition(":")
        parts = name.rsplit("_", 1)
        if len(parts) != 2 or parts[0] not in by_type or parts[1] not in by_sign:
            raise ConfigError(f"bad group name {name!r}")
        sizes[(by_type[parts[0]], by_sign[parts[1]])] = \
            _parse_int(count or "1", "groups")
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
        p.add_argument("--fit-range", type=lambda v: _parse_range(v, "fit_range"),
                       dest="fit_range", help="fit window as LO:HI")
        p.add_argument("--min-r2", type=float, dest="min_r2")
        p.add_argument("--bootstrap", type=int, dest="n_bootstrap",
                       help="bootstrap resamples (0 disables)")
        p.add_argument("--workers", type=int, dest="n_workers")

    p_run = sub.add_parser("run", help="full analysis with all artifacts")
    add_common(p_run)
    p_rob = sub.add_parser("robustness",
                           help="rerun per trend window, count sign flips")
    add_common(p_rob)
    p_rob.add_argument("--windows",
                       type=lambda v: _parse_int_list(v, "windows"),
                       help="comma-separated trend windows")
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
