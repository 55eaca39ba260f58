"""Command-line entry point.

Subcommands: ``run`` (full analysis), ``robustness`` (analyse per trend
window and count sign flips), ``synth`` (emit a synthetic dataset with
ground truth), ``counts`` (eligibility and the count table only) and
``fit`` (analysis with only the fit artifacts written). Every setting
is declared once in ``_SETTINGS``; ``_SUBCOMMANDS`` lists the keys each
subcommand takes as flags. Options resolve as defaults, then a
``key = value`` config file, then command-line flags, and a flag's text
goes through the same parser as the file's value; the resolved analysis
settings are echoed into the output directory inside summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, HaltStudyError
from .events import (
    EligibilityConfig,
    EventSign,
    HaltType,
    group_name,
    parse_halt_file,
)
from .market_data import TradingCalendar, load_bar_file
from .pipeline import (
    ARTIFACTS,
    FIT_ARTIFACTS,
    SELECTION_ARTIFACTS,
    AnalysisConfig,
    AnalysisResult,
    FitConfig,
    run_analysis,
    run_windows,
    write_analysis_outputs,
    write_sign_flip_csv,
)
from .synthetic import build_group_spec, write_synthetic_dataset

ALLOWED_TREND_WINDOWS = (60, 120, 180, 240)


def _parse_path(text: str, key: str) -> Path:
    return Path(text)


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


def _parse_int_list(text: str, key: str,
                    parse: Callable[[str, str], int] = _parse_int,
                    ) -> tuple[int, ...]:
    return tuple(parse(p.strip(), key) for p in text.split(",") if p.strip())


def _parse_window(text: str, key: str) -> int:
    window = _parse_int(text, key)
    if window not in ALLOWED_TREND_WINDOWS:
        raise ConfigError(
            f"{key}: {window} is not one of {ALLOWED_TREND_WINDOWS}")
    return window


def _parse_windows(text: str, key: str) -> tuple[int, ...]:
    return _parse_int_list(text, key, _parse_window)


def _parse_groups(text: str,
                  key: str) -> dict[tuple[HaltType, EventSign], int]:
    by_name = {group_name(ht, s): (ht, s) for ht in HaltType for s in EventSign}
    sizes = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, count = token.partition(":")
        if name not in by_name:
            raise ConfigError(f"{key}: bad group name {name!r}")
        sizes[by_name[name]] = _parse_int(count or "1", key)
    if not sizes:
        raise ConfigError(f"{key}: no groups requested")
    return sizes


class _Setting(NamedTuple):
    parse: Callable[[str, str], Any]   # (text, key) -> value
    flag: str | None                   # None: config file only
    help: str | None = None


# Every config key. Analysis settings are named like the fields of
# EligibilityConfig, FitConfig and AnalysisConfig, whose defaults apply
# when a key is unset; cumulative_window is the eligibility pre_window.
_SETTINGS = {
    "bars": _Setting(_parse_path, "--bars", "minute-bar CSV"),
    "calendar": _Setting(_parse_path, "--calendar",
                         "trading-day list, one ISO date per line"),
    "halts": _Setting(_parse_path, "--halts", "halt registry CSV"),
    "out": _Setting(_parse_path, "--out", "output directory"),
    "seed": _Setting(_parse_int, "--seed", "root random seed"),
    "trend_window": _Setting(_parse_window, "--trend-window",
                             "pre-halt trend window in traded minutes"),
    "lookback_days": _Setting(_parse_int, "--lookback-days"),
    "measure_pre_window": _Setting(_parse_int, "--measure-pre-window"),
    "post_window": _Setting(_parse_int, "--post-window"),
    "cumulative_window": _Setting(_parse_int, "--cumulative-window"),
    "max_halt_days": _Setting(_parse_int, "--max-halt-days"),
    "max_gap_fraction": _Setting(_parse_float, "--max-gap-fraction"),
    "fit_range": _Setting(_parse_range, "--fit-range", "fit window as LO:HI"),
    "min_r2": _Setting(_parse_float, "--min-r2"),
    "n_bootstrap": _Setting(_parse_int, "--bootstrap",
                            "bootstrap resamples (0 disables)"),
    "reversal_horizons": _Setting(_parse_int_list, None),
    "windows": _Setting(_parse_windows, "--windows",
                        "comma-separated trend windows"),
    "groups": _Setting(_parse_groups, "--groups",
                       "sizes like intraday_pos:3,oneday_neg:2"),
    "sigma": _Setting(_parse_float, "--sigma", "log-normal noise level"),
    "trend_magnitude": _Setting(_parse_float, "--trend-magnitude"),
}

_ANALYSIS_FLAGS = ("bars", "calendar", "halts", "out", "seed",
                   "trend_window", "lookback_days", "measure_pre_window",
                   "post_window", "cumulative_window", "max_halt_days",
                   "max_gap_fraction", "fit_range", "min_r2", "n_bootstrap")
# subcommand: (help, the keys it takes as flags, in --help order)
_SUBCOMMANDS = {
    "run": ("full analysis with all artifacts", _ANALYSIS_FLAGS),
    "robustness": ("analyse per trend window, count sign flips",
                   _ANALYSIS_FLAGS + ("windows",)),
    "counts": ("eligibility report and count table only", _ANALYSIS_FLAGS),
    "fit": ("analysis with fit artifacts only", _ANALYSIS_FLAGS),
    "synth": ("generate a synthetic dataset",
              ("out", "seed", "groups", "sigma", "trend_magnitude",
               "lookback_days")),
}


def parse_config_file(path: Path) -> dict:
    """Read ``key = value`` lines; # starts a comment, blanks ignored.

    The file is read as UTF-8, undecodable bytes kept as surrogates.
    A bad line, key, byte or value (one its key's parser rejects, such
    as a disallowed trend window) is a ConfigError naming ``path:line``.
    """
    values = {}
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    # lines end at \n only, as in TradingCalendar.from_file (see there)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key].parse(value.strip(), key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def analysis_config(settings: Mapping[str, Any]) -> AnalysisConfig:
    """The analysis configuration the settings describe.

    Each part takes the settings named like its fields; a field with
    no setting keeps its dataclass default. A check the configuration
    fails is a ConfigError.
    """
    named = dict(settings)
    if "cumulative_window" in named:
        named["pre_window"] = named.pop("cumulative_window")

    def build(cls, **parts):
        return cls(**{f.name: named[f.name] for f in fields(cls)
                      if f.name in named}, **parts)

    try:
        return build(AnalysisConfig, eligibility=build(EligibilityConfig),
                     fit=build(FitConfig))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Parsed settings by key: the config file, then the flags given.

    Flags arrive as text and go through their key's parser. The
    analysis settings are checked here, before any input is read.
    """
    settings = {}
    if args.config is not None:
        settings.update(parse_config_file(Path(args.config)))
    for key in _SUBCOMMANDS[args.command][1]:
        text = getattr(args, key)
        if text is not None:
            settings[key] = _SETTINGS[key].parse(text, key)
    analysis_config(settings)
    return settings


def _require(settings: Mapping[str, Any], *names: str) -> None:
    for name in names:
        if name not in settings:
            raise ConfigError(f"missing required setting: {name}")


def _load_inputs(settings: Mapping[str, Any]):
    _require(settings, "bars", "calendar", "halts", "out")
    calendar = TradingCalendar.from_file(settings["calendar"])
    panel = load_bar_file(settings["bars"], calendar)
    with open(settings["halts"], "rb") as fh:
        records = parse_halt_file(fh, calendar)
    return panel, records


def _analyse(settings: Mapping[str, Any],
             names: Sequence[str]) -> AnalysisResult:
    # the stages that the artifacts ``names`` read, and those artifacts
    panel, records = _load_inputs(settings)
    analysis = analysis_config(settings)
    result = run_analysis(panel, records, analysis, names)
    write_analysis_outputs(result, analysis, settings["out"], names)
    return result


def cmd_run(settings: Mapping[str, Any]) -> int:
    _analyse(settings, ARTIFACTS)
    print(f"wrote {len(ARTIFACTS)} files to {settings['out']}")
    return 0


def cmd_counts(settings: Mapping[str, Any]) -> int:
    table = _analyse(settings, SELECTION_ARTIFACTS).counts
    print(f"{'halt_type':<10}{'pos':>6}{'neg':>6}{'total':>7}")
    for ht in HaltType:
        print(f"{ht.value:<10}{table.count(ht, EventSign.POSITIVE):>6}"
              f"{table.count(ht, EventSign.NEGATIVE):>6}"
              f"{table.row_total(ht):>7}")
    print(f"{'total':<10}{table.sign_total(EventSign.POSITIVE):>6}"
          f"{table.sign_total(EventSign.NEGATIVE):>6}{table.total:>7}")
    return 0


def cmd_fit(settings: Mapping[str, Any]) -> int:
    result = _analyse(settings, FIT_ARTIFACTS)
    print(f"wrote exponents for {len(result.fit_rows)} group-measure cells")
    return 0


def cmd_robustness(settings: Mapping[str, Any]) -> int:
    windows = settings.get("windows", ALLOWED_TREND_WINDOWS)
    if not windows:
        raise ConfigError("no robustness windows requested")
    panel, records = _load_inputs(settings)
    out = settings["out"]
    results = []
    for window, (analysis, result) in zip(windows, run_windows(
            panel, records, analysis_config(settings), windows)):
        write_analysis_outputs(result, analysis, out / f"window_{window:03d}")
        results.append(result)
    with open(out / "sign_flips.csv", "w", newline="") as fh:
        n_flipped = write_sign_flip_csv(windows, results, fh)
    print(f"{n_flipped} of {len(results[-1].events)} events change sign "
          f"across windows {list(windows)}")
    return 0


def cmd_synth(settings: Mapping[str, Any]) -> int:
    _require(settings, "out")
    groups = settings.get("groups",
                          {(ht, s): 1 for ht in HaltType for s in EventSign})
    seed = analysis_config(settings).seed
    # only the generator settings given, so build_group_spec's defaults apply
    given = {key: settings[key] for key in
             ("sigma", "trend_magnitude", "lookback_days") if key in settings}
    try:
        spec = build_group_spec(groups, seed=seed, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    write_synthetic_dataset(spec, settings["out"])
    print(f"wrote synthetic dataset ({spec.n_stocks} stocks, "
          f"{spec.n_days} days) to {settings['out']}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors are ConfigErrors; subcommand parsers share this class
    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haltstudy",
        description="Event-time analysis of market activity around "
                    "trading halts")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="key = value settings file")
        for key in keys:
            setting = _SETTINGS[key]
            p.add_argument(setting.flag, dest=key, help=setting.help)
    return parser


_COMMANDS = {
    "run": cmd_run,
    "robustness": cmd_robustness,
    "counts": cmd_counts,
    "fit": cmd_fit,
    "synth": cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = resolve_config(args)
        return _COMMANDS[args.command](settings)
    except (HaltStudyError, OSError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
