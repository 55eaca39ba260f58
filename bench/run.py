"""haltstudy benchmark: end-to-end metrics, or per-layer ones when traced.

    python3 bench/run.py --workload csv-run --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/`` directory, never from an installed copy. ``--workload all``
runs every workload in turn. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` a run makes ``ROUNDS`` rounds. A round is one set-up
(import plus input generation with the program's own generator), one
cold call and warm calls until the round's share of ``--seconds`` is
spent. For the CLI workloads every call is a fresh ``haltstudy``
process; for the in-process workloads one child process runs the
round. The end-to-end metrics are medians over the run: ``wall_s``
(warm calls; CLI: every call), ``cold_s`` (each round's first call;
CLI: every call), ``setup_s`` and ``peak_rss_mb`` (peak resident
memory of the process that ran the timed calls). Times are scaled to
a reference machine speed measured in the same run (``speed_probe``).

With ``--trace 1`` a run makes one round whose warm calls alternate
between traced and untraced, and reports per-layer metrics: the mean
per traced call of each function's self time, call count and work
counts, plus ``trace.overhead_frac`` (median traced over median
untraced wall, minus 1). All spans go to
``.bench_work/traces/<workload>-seed<seed>.json``.

Every call's artifacts are checked (workloads.check_outputs) and
digested; digests must agree across all calls of a run. A call that
raises, exits non-zero or fails a check counts once in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import ROOT_CALL, ROOT_SETUP, call_profile, root_calls
from workloads import WORKLOADS, check_outputs, cli_argv, tree_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# In-process rounds are cheap and each yields one cold sample; a CLI
# round repeats the costly CSV set-up, and every CLI call is cold anyway.
ROUNDS = {"inproc": 8, "cli": 3}
MIN_CALLS = 2           # the cold call and at least one warm call
MIN_TRACED_CALLS = 3    # cold, then at least one traced and one untraced

# Seconds the speed probe takes on the reference machine (the 2-core
# sandbox described in README.md, in its usual phase). End-to-end times
# are scaled by REFERENCE_S over the run's median probe, so they read as
# seconds at that speed while the shared machine drifts between faster
# and slower phases.
REFERENCE_S = 0.05

END_TO_END = {"wall_s": "s", "cold_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Layers measured on every workload; the workload-specific ones
# (ingest, bootstrap, CLI, artifact writing) are printed and kept in the
# trace file but left out of the JSON line, where they would read 0.
PER_LAYER = {
    "market_data.self_s": "s",
    "market_data.forward_fill_all.self_s": "s",
    "events.self_s": "s",
    "events.filter_eligibility.self_s": "s",
    "events.eligible_frac": "ratio",
    "event_study.self_s": "s",
    "event_study.compute_intraday_pattern.self_s": "s",
    "event_study.compute_intraday_pattern.calls": "count",
    "event_study.measure_series.self_s": "s",
    "event_study.measure_series.calls": "count",
    "event_study.extract_trajectory.self_s": "s",
    "event_study.group_average.self_s": "s",
    "event_study.group_average.calls": "count",
    "event_study.group_average.cells": "count",
    "event_study.average_cumulative_return.self_s": "s",
    "event_study.reversal_stats.self_s": "s",
    "powerlaw.self_s": "s",
    "powerlaw.fit_power_law_points.self_s": "s",
    "powerlaw.fit_power_law_points.calls": "count",
    "powerlaw.gn_iterations": "count",
    "powerlaw.fit_all_groups.self_s": "s",
    "powerlaw.alpha_abs_err": "1",
    "pipeline.self_s": "s",
    "pipeline.run_analysis.self_s": "s",
    "synthetic.self_s": "s",
    "synthetic.generate_panel.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def speed_probe() -> float:
    """Seconds of a fixed mix of interpreter and numpy work.

    The mix resembles haltstudy's: splitting and float-parsing text with
    dict updates (CSV ingest), elementwise numpy over arrays larger than
    L2 (whole-calendar series) and many small numpy calls (fits). Run
    before each set-up and after each timed call, in the process that
    timed it, it tells how fast the machine is during the run; it never
    touches haltstudy.
    """
    text = ",".join(repr(i * 1.000001) for i in range(2000))
    array = np.linspace(1.0, 2.0, 1 << 18)
    small = np.arange(160.0) + 1.0
    start = time.perf_counter()
    total = 0.0
    for _ in range(12):
        seen: dict[int, float] = {}
        for i, field in enumerate(text.split(",")):
            seen[i % 97] = seen.get(i % 97, 0.0) + float(field)
        total += seen[0]
    for _ in range(40):
        array = np.sqrt(array * array + 1.0) - 0.5
    for _ in range(2000):
        total += float(np.dot(small, small ** -0.5))
    return time.perf_counter() - start


def measure_round(call, check, budget: float, min_calls: int) -> list[dict]:
    """Call until ``budget`` seconds of calls and ``min_calls`` are done.

    ``call(i)`` returns ``(wall, result, fields)``, where a result that
    is an exception marks a call that raised and ``fields`` are kept in
    the call's record; ``check(result)`` returns a dict with ``problems``
    (a list) plus any fields to keep. Each call is counted once: its
    ``error`` is the exception or the first problem, or None.
    """
    records = []
    spent = 0.0
    while len(records) < min_calls or spent < budget:
        wall, result, fields = call(len(records))
        spent += wall
        if isinstance(result, Exception):
            record = {"error": f"{type(result).__name__}: {result}"}
        else:
            try:
                record = check(result)
            except Exception as exc:  # a broken artifact is a failed call
                record = {"problems": [f"check raised {exc!r}"]}
            problems = record.pop("problems")
            record["error"] = problems[0] if problems else None
        record.update(fields, wall=wall)
        records.append(record)
    return records


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, dict]:
    """Run a process to its end.

    Returns its wall seconds, exit code and the field ``rss_mb``, the
    peak resident memory of the process.
    """
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, {"rss_mb": usage.ru_maxrss / 1024.0}


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class RoundFailed(RuntimeError):
    """A set-up or an in-process round died; nothing can be measured."""


def cli_round(workload, seed: int, work: Path, budget: float,
              trace_dir: Path | None) -> dict:
    """One round of a CLI workload, driven from this process."""
    data, out, log = work / "data", work / "out", work / "stderr.log"
    shutil.rmtree(data, ignore_errors=True)
    setup = [sys.executable, str(BENCH / "child.py"), "setup",
             "--workload", workload.name, "--seed", str(seed),
             "--data", str(data)]
    if trace_dir is not None:
        setup += ["--trace-out", str(trace_dir / "setup.json")]
    probes = [speed_probe()]
    setup_s, code, _ = spawn(setup, log)
    if code != 0:
        raise RoundFailed(f"set-up exited {code}: {_tail(log)}")
    truth = json.loads((data / "ground_truth.json").read_text())
    argv = cli_argv(workload, data, out)

    def call(i):
        shutil.rmtree(out, ignore_errors=True)
        if trace_dir is not None and i % 2 == 1:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli",
                   "--trace-out", str(trace_dir / f"call{i}.json"), "--"]
        else:
            cmd = [sys.executable, "-m", "haltstudy.cli"]
        wall, code, fields = spawn(cmd + argv, log)
        fields["probe"] = speed_probe()
        if code != 0:
            return wall, RuntimeError(f"exit {code}: {_tail(log)}"), fields
        return wall, None, fields

    def check(_):
        problems, alpha_err = check_outputs(workload, out, truth)
        return {"problems": problems, "alpha_abs_err": alpha_err,
                "digest": tree_digest(out)}

    min_calls = MIN_TRACED_CALLS if trace_dir is not None else MIN_CALLS
    calls = measure_round(call, check, budget, min_calls)
    for i, record in enumerate(calls):
        record["traced"] = trace_dir is not None and i % 2 == 1
    shutil.rmtree(out, ignore_errors=True)
    return {"setup_s": setup_s, "probes": probes, "calls": calls}


def inproc_round(workload, seed: int, work: Path, budget: float,
                 trace_dir: Path | None) -> dict:
    """One round of an in-process workload, run in one child process."""
    result, log = work / "round.json", work / "stderr.log"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "inproc",
           "--workload", workload.name, "--seed", str(seed),
           "--work", str(work), "--result", str(result),
           "--budget", repr(budget)]
    if trace_dir is not None:
        cmd += ["--trace-out", str(trace_dir / "inproc.json")]
    probes = [speed_probe()]
    _, code, fields = spawn(cmd, log)
    if code != 0:
        raise RoundFailed(f"round exited {code}: {_tail(log)}")
    record = json.loads(result.read_text())
    record["probes"] = probes
    for call in record["calls"]:
        call["rss_mb"] = fields["rss_mb"]
    return record


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} median={statistics.median(values):.4f} "
            f"q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}")


def mark_digest_mismatches(calls: list[dict]) -> None:
    """Fail every passing call whose artifacts differ from the first's."""
    digests = [c["digest"] for c in calls if c["error"] is None]
    for call in calls:
        if call["error"] is None and call["digest"] != digests[0]:
            call["error"] = "artifact digest differs from the run's first call"


def _probes(rounds: list[dict]) -> list[float]:
    """Every speed probe of the rounds: set-up ones and per-call ones."""
    return ([p for r in rounds for p in r["probes"]]
            + [c["probe"] for r in rounds for c in r["calls"]])


def end_to_end(rounds: list[dict], fresh_processes: bool,
               ) -> tuple[dict, dict, float]:
    """End-to-end metric values, their unscaled samples, and the scale.

    Times are scaled to the reference speed by REFERENCE_S over the
    median of the run's speed probes; the machine's phases last longer
    than a run, and one probe per call is too noisy to scale its call.
    Cold calls are the first analysis in their process: each round's
    first call, or every call when each runs in a fresh process (CLI),
    in which case warm and cold are the same calls.
    """
    def ok_walls(calls):
        good = [c["wall"] for c in calls if c["error"] is None]
        return good or [c["wall"] for c in calls]
    cold = [r["calls"][0] for r in rounds]
    warm = [c for r in rounds for c in r["calls"][1:]]
    if fresh_processes:
        cold = warm = cold + warm
    samples = {
        "wall_s": ok_walls(warm),
        "cold_s": ok_walls(cold),
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [c["rss_mb"] for r in rounds for c in r["calls"]],
    }
    scale = REFERENCE_S / _median(_probes(rounds))
    values = {k: _median(v) * (1.0 if k == "peak_rss_mb" else scale)
              for k, v in samples.items()}
    return values, samples, scale


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(profile: dict, setup: dict, record: dict) -> dict:
    """Per-layer metric values from the traced run's profiles.

    ``profile`` and ``setup`` are mean per-call profiles (see
    tracer.call_profile) of the traced calls and of the set-up, and
    ``record`` is the traced round. Times are scaled to the reference
    speed like the end-to-end ones. Work counts become ratios here; a
    layer a workload never enters reads 0.
    """
    calls = record["calls"]
    scale = REFERENCE_S / _median(_probes([record]))

    def scaled(items):
        return {k: v * scale if k.endswith("_s") else v for k, v in items}
    traced = [c["wall"] * scale for c in calls[1:] if c["traced"]]
    plain = [c["wall"] * scale for c in calls[1:] if not c["traced"]]
    values = scaled((k, v) for k, v in profile.items() if "." in k)
    values.update(scaled(
        (k, v) for k, v in setup.items()
        if k.startswith("synthetic.") or "write_bar_csv" in k))
    count = profile.get
    values["events.eligible_frac"] = _ratio(count("eligible", 0.0),
                                            count("records", 0.0))
    values["event_study.group_average.cells"] = count("cells", 0.0)
    values["powerlaw.gn_iterations"] = count("gn_iterations", 0.0)
    values["powerlaw.resamples_ok_frac"] = _ratio(
        count("resamples_ok", 0.0),
        count("resamples_ok", 0.0) + count("resamples_failed", 0.0))
    values["market_data.bars_parsed"] = count("bars", 0.0)
    values["market_data.parse_us_per_bar"] = _ratio(
        1e6 * values.get("market_data.parse_bar_file.self_s", 0.0),
        count("bars", 0.0))
    values["pipeline.artifact_bytes"] = count("artifact_bytes", 0.0)
    values["powerlaw.alpha_abs_err"] = _median(
        [c["alpha_abs_err"] for c in calls if c["error"] is None])
    values["trace.wall_s"] = _median(traced)
    values["trace.setup_wall_s"] = setup.get("wall_s", 0.0) * scale
    values["trace.covered_frac"] = _ratio(count("covered_s", 0.0) * scale,
                                          _mean(traced))
    values["trace.overhead_frac"] = _median(traced) / _median(plain) - 1.0
    values["trace.scale"] = scale
    return values


def _mean(values) -> float:
    return sum(values) / len(values)


def _mean_profiles(profiles: list[dict]) -> dict:
    keys = sorted({k for p in profiles for k in p})
    return {k: _mean([p.get(k, 0.0) for p in profiles]) for k in keys}


def traced_profiles(trace_dir: Path) -> tuple[dict, dict, list]:
    """(per-call profile, set-up profile, all span lists) of a traced run."""
    span_files = sorted(trace_dir.glob("*.json"))
    all_spans = [json.loads(p.read_text()) for p in span_files]
    calls, setups = [], []
    for spans in all_spans:
        if root_calls(spans, ROOT_CALL):
            calls.append(call_profile(spans, root_calls(spans, ROOT_CALL)))
        if root_calls(spans, ROOT_SETUP):
            setups.append(call_profile(spans, root_calls(spans, ROOT_SETUP)))
    return _mean_profiles(calls), _mean_profiles(setups), all_spans


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object to print."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    round_fn = cli_round if workload.kind == "cli" else inproc_round
    try:
        if trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            rounds = [round_fn(workload, seed, work, seconds, trace_dir)]
        else:
            trace_dir = None
            n_rounds = ROUNDS[workload.kind]
            rounds = [round_fn(workload, seed, work, seconds / n_rounds, None)
                      for _ in range(n_rounds)]
        calls = [c for r in rounds for c in r["calls"]]
        mark_digest_mismatches(calls)
        failed = sum(1 for c in calls if c["error"] is not None)
        print(f"== {name} seed={seed} trace={int(trace)} "
              f"size={json.dumps(workload.size)}")
        for c in calls:
            if c["error"] is not None:
                print(f"  FAILED call: {c['error']}")
        print(f"  failed_frac={failed / len(calls):.4f} "
              f"({failed} of {len(calls)} calls)")
        alpha = [c["alpha_abs_err"] for c in calls if c["error"] is None]
        print(f"  alpha_abs_err={_median(alpha):.6f}")
        if trace:
            profile, setup, spans = traced_profiles(trace_dir)
            values = per_layer(profile, setup, rounds[0])
            for key in sorted(values):
                print(f"  {key} = {values[key]:.6g}")
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{name}-seed{seed}.json").write_text(json.dumps(
                {"workload": name, "seed": seed, "values": values,
                 "spans": spans}))
            metrics = {k: {"value": values.get(k, 0.0), "unit": u}
                       for k, u in PER_LAYER.items()}
        else:
            values, samples, scale = end_to_end(rounds,
                                                workload.kind == "cli")
            print(f"  times below are unscaled; reported medians are "
                  f"scaled by {scale:.4f} to the reference speed")
            for key, unit in END_TO_END.items():
                print(f"  {key} [{unit}]: {values[key]:.4f} from "
                      f"{_spread(samples[key])}")
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
        return {"correct": failed == 0, "attempted": len(calls),
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "haltstudy" / "__init__.py").is_file():
        print(f"error: no haltstudy sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
