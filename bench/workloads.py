"""The benchmark's workloads: their inputs, their timed call, their checks.

Every input is built from the workload seed with haltstudy's own
synthetic generator, through its public entry points only; the program
never sees the seed except through the generated files and objects.
Every workload keeps ``n_workers`` at its default of 1.

The sizes are scaled down from the ones first profiled so that one
timed call takes one to three seconds and a run holds several calls;
at these sizes each workload's dominant layer is still the one named
in ``why`` (see README.md for the traced shares).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Six groups of the study in report order; halt layouts mirror the
# synthetic generator's: intraday halts pause 10:31-13:00, one-day and
# two-day halts start at the open and resume at an open.
GROUPS = ("intraday_pos", "intraday_neg", "oneday_pos", "oneday_neg",
          "interday_pos", "interday_neg")
LAYOUTS = {"intraday": (0, 61, 0, 121), "oneday": (0, 1, 1, 1),
           "interday": (0, 1, 2, 1)}
SIGMA = 0.2
TREND = 0.08
LOOKBACK_DAYS = 40
# Consecutive halts of one stock are this many trading days apart,
# which clears the trend and relaxation windows of every layout.
EVENT_SPACING_DAYS = 4
N_FIT_CELLS = 18
# Mean |fitted - planted alpha| over the cells the pipeline flags ok
# must stay under this. Scans of 40-100 seeds per workload read at most
# 0.15 (README.md); a change that breaks the recovery of the planted
# exponents lands above it.
ALPHA_TOLERANCE = 0.4

ARTIFACTS = ("eligibility.csv", "counts.csv", "curves.csv", "averages.csv",
             "excess.csv", "loglog.csv", "exponents.csv", "summary.json")


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``kind`` is ``cli`` (each timed call is a fresh ``haltstudy``
    process over CSV files written during set-up) or ``inproc`` (set-up
    and timed ``run_analysis`` calls share one process). ``size`` is
    the stated input size every timing is read at.
    """

    name: str
    kind: str
    why: str
    size: dict
    n_bootstrap: int = 0
    windows: tuple[int, ...] = (240,)


CSV_EVENTS_PER_GROUP = 4
BOOT_EVENTS_PER_GROUP = 10
BOOT_RESAMPLES = 100
LONG_STOCKS, LONG_DAYS = 12, 160
ROBUST_STOCKS, ROBUST_DAYS = 4, 100
ROBUST_WINDOWS = (60, 120, 180, 240)
HALTED_MINUTES = {"intraday": 60, "oneday": 240, "interday": 480}


def planted_halts(n_stocks: int, n_days: int) -> list[tuple[int, int, str]]:
    """(stock index, halt day, group) of a multi-event panel.

    A stock halts every EVENT_SPACING_DAYS days once it has
    LOOKBACK_DAYS of history, while the longest layout still fits, and
    its k-th halt belongs to group (stock + k) mod 6: every stock passes
    through every group and every group is planted about equally often.
    """
    return [(i, day, GROUPS[(i + k) % len(GROUPS)])
            for i in range(n_stocks)
            for k, day in enumerate(range(LOOKBACK_DAYS, n_days - 3,
                                          EVENT_SPACING_DAYS))]


def _size(n_stocks: int, n_days: int, groups: list[str], resamples: int,
          windows: int) -> dict:
    halted = sum(HALTED_MINUTES[g.split("_")[0]] for g in groups)
    return {"stocks": n_stocks, "days": n_days,
            "bars": n_stocks * n_days * 240 - halted, "events": len(groups),
            "resamples": resamples, "trend_windows": windows}


def _group_size(per_group: int, resamples: int) -> dict:
    return _size(6 * per_group, LOOKBACK_DAYS + 3,
                 [g for g in GROUPS for _ in range(per_group)], resamples, 1)


def _multi_size(n_stocks: int, n_days: int, windows: int) -> dict:
    return _size(n_stocks, n_days,
                 [g for _, _, g in planted_halts(n_stocks, n_days)], 0,
                 windows)


WORKLOADS = {w.name: w for w in (
    Workload(
        "csv-run", "cli",
        "CLI synth, then run --bootstrap 0 from CSV: bar ingest dominates; "
        "bypasses bootstrap and most per-event work",
        _group_size(CSV_EVENTS_PER_GROUP, 0)),
    Workload(
        "bootstrap", "inproc",
        "in-memory run_analysis with bootstrap: resampled averages and "
        "Gauss-Newton fits dominate; no ingest",
        _group_size(BOOT_EVENTS_PER_GROUP, BOOT_RESAMPLES),
        n_bootstrap=BOOT_RESAMPLES),
    Workload(
        "long-panel", "inproc",
        "in-memory run_analysis, many halts per stock: per-event baselines "
        "over whole-calendar arrays dominate; no ingest or bootstrap",
        _multi_size(LONG_STOCKS, LONG_DAYS, 1)),
    Workload(
        "robustness", "cli",
        "CLI robustness over 4 trend windows on one CSV panel: ingest plus "
        "four per-window analyses of the same events",
        _multi_size(ROBUST_STOCKS, ROBUST_DAYS, len(ROBUST_WINDOWS)),
        windows=ROBUST_WINDOWS),
)}


def describe(workload: Workload) -> str:
    """One-line ``why`` of BENCHMARK.json: stated size, then the reason."""
    size = workload.size
    return (f"{size['stocks']}x{size['days']} stock-days, "
            f"{size['bars']} bars, {size['events']} events, "
            f"{size['resamples']} resamples, "
            f"{size['trend_windows']} trend windows: {workload.why}")


def multi_event_spec(n_stocks: int, n_days: int, seed: int):
    """Spec with the halts of :func:`planted_halts`."""
    from haltstudy import (DEFAULT_RELAXATIONS, EventSign, HaltType,
                           MeasureKind, PlantedEvent, SyntheticSpec)
    by_name = {f"{ht.value}_{s.value}": (ht, s)
               for ht in HaltType for s in EventSign}
    events = []
    for i, day, name in planted_halts(n_stocks, n_days):
        halt_type, sign = by_name[name]
        b, b_min, r, r_min = LAYOUTS[halt_type.value]
        trend = TREND if sign is EventSign.POSITIVE else -TREND
        events.append(PlantedEvent(
            f"SYN{i:04d}", day + b, b_min, day + r, r_min, trend,
            DEFAULT_RELAXATIONS[(halt_type, sign)]))
    return SyntheticSpec(n_stocks=n_stocks, n_days=n_days, seed=seed,
                         events=tuple(events),
                         sigma={m: SIGMA for m in MeasureKind})


def inproc_spec(workload: Workload, seed: int):
    """Synthetic spec of an in-process workload."""
    if workload.name == "bootstrap":
        from haltstudy import EventSign, HaltType, build_group_spec
        sizes = {(ht, s): BOOT_EVENTS_PER_GROUP
                 for ht in HaltType for s in EventSign}
        return build_group_spec(sizes, seed=seed, sigma=SIGMA)
    return multi_event_spec(LONG_STOCKS, LONG_DAYS, seed)


def analysis_config(workload: Workload, seed: int):
    from haltstudy import AnalysisConfig
    return AnalysisConfig(n_bootstrap=workload.n_bootstrap, seed=seed)


def synth_argv(data_dir: Path, seed: int) -> list[str]:
    """``haltstudy synth`` arguments of the csv-run set-up."""
    groups = ",".join(f"{g}:{CSV_EVENTS_PER_GROUP}" for g in GROUPS)
    return ["synth", "--out", str(data_dir), "--seed", str(seed),
            "--groups", groups, "--sigma", str(SIGMA)]


def write_inputs(workload: Workload, data_dir: Path, seed: int) -> None:
    """Set-up of a CLI workload: write bars, halts, calendar and truth."""
    if workload.name == "csv-run":
        from haltstudy.cli import main
        if main(synth_argv(data_dir, seed)) != 0:
            raise RuntimeError("haltstudy synth failed")
    else:
        from haltstudy import write_synthetic_dataset
        write_synthetic_dataset(
            multi_event_spec(ROBUST_STOCKS, ROBUST_DAYS, seed), data_dir)


def cli_argv(workload: Workload, data_dir: Path, out_dir: Path) -> list[str]:
    """Arguments of one timed CLI call."""
    command = "run" if workload.name == "csv-run" else "robustness"
    return [command, "--bars", str(data_dir / "bars.csv"),
            "--calendar", str(data_dir / "calendar.txt"),
            "--halts", str(data_dir / "halts.csv"), "--out", str(out_dir),
            "--bootstrap", "0"]


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(workload: Workload, out_dir: Path, truth: dict,
                  ) -> tuple[list[str], float]:
    """Problems with one call's artifacts, and its alpha_abs_err.

    ``truth`` is the ground truth in its ``ground_truth.json`` form. The
    checks: the count table equals the planted counts per cell, every
    planted event is eligible, all 18 fit cells have a finite alpha
    (and, with bootstrap, a finite bootstrap error), the fitted alphas
    are close to the planted ones and, for robustness, no event changes
    sign across trend windows.
    """
    problems: list[str] = []
    planted = Counter(f"{ev['halt_type']}_{ev['sign']}"
                      for ev in truth["events"])
    planted_alpha: dict[tuple[str, str, str], float] = {}
    for ev in truth["events"]:
        for measure, relax in ev["relaxations"].items():
            key = (ev["halt_type"], ev["sign"], measure)
            planted_alpha[key] = relax["alpha"]
    n_planted = len(truth["events"])
    alpha_err = math.nan
    for window in workload.windows:
        base = (out_dir / f"window_{window:03d}"
                if workload.name == "robustness" else out_dir)
        missing = [a for a in ARTIFACTS if not (base / a).is_file()]
        if missing:
            problems.append(f"window {window}: missing {missing}")
            continue
        summary = json.loads((base / "summary.json").read_text())
        counts = {f"{ht}_{s}": n for ht, per in summary["counts"].items()
                  if ht != "total" for s, n in per.items()}
        if {g: n for g, n in counts.items() if n} != planted:
            problems.append(f"window {window}: counts {counts} != planted "
                            f"{planted}")
        if not summary["n_eligible"] == summary["n_events"] == n_planted:
            problems.append(f"window {window}: {summary['n_eligible']} of "
                            f"{summary['n_events']} eligible, planted "
                            f"{n_planted}")
        rows = summary["exponents"]
        if len(rows) != N_FIT_CELLS:
            problems.append(f"window {window}: {len(rows)} fit rows")
        errors = []
        for row in rows:
            alpha = row["alpha"]
            cell = f"{row['halt_type']}_{row['sign']}/{row['measure']}"
            if alpha is None or not math.isfinite(alpha):
                problems.append(f"window {window}: {cell} has no alpha")
                continue
            if row["flag"] == "ok":
                errors.append(abs(alpha - planted_alpha[
                    (row["halt_type"], row["sign"], row["measure"])]))
            se = row["alpha_se_bootstrap"]
            if workload.n_bootstrap and (se is None or not math.isfinite(se)):
                problems.append(f"{cell} has no bootstrap error")
        if window == 240 and errors:
            alpha_err = sum(errors) / len(errors)
    if not alpha_err <= ALPHA_TOLERANCE:
        problems.append(f"alpha_abs_err {alpha_err} above {ALPHA_TOLERANCE}")
    if workload.name == "robustness":
        problems += _sign_flip_problems(out_dir / "sign_flips.csv", n_planted)
    return problems, alpha_err


def _sign_flip_problems(path: Path, n_planted: int) -> list[str]:
    if not path.is_file():
        return ["missing sign_flips.csv"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    flips = sum(int(row["flipped"]) for row in rows)
    problems = []
    if len(rows) != n_planted:
        problems.append(f"sign_flips.csv has {len(rows)} rows, "
                        f"planted {n_planted}")
    if flips:
        problems.append(f"{flips} events change sign across windows")
    return problems
