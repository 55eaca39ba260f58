"""Child-process side of the benchmark; started only by run.py.

Modes:

``setup``   write a CLI workload's inputs (``haltstudy synth`` for
            csv-run, ``write_synthetic_dataset`` for robustness).
``cli``     run ``haltstudy.cli.main`` on the arguments after ``--``;
            used for traced CLI calls (untraced ones run
            ``python -m haltstudy.cli`` directly).
``inproc``  one round of an in-process workload: set-up, a cold call,
            then warm calls until the budget is spent, checking every
            call's artifacts; writes the round's record to ``--result``.

With ``--trace-out`` the tracer is installed and the spans are written
there when the child ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import haltstudy  # noqa: E402

from run import (MIN_CALLS, MIN_TRACED_CALLS, measure_round,  # noqa: E402
                 speed_probe)
from tracer import ROOT_CALL, ROOT_SETUP, Tracer  # noqa: E402
from workloads import (WORKLOADS, analysis_config, check_outputs,  # noqa: E402
                       inproc_spec, tree_digest, write_inputs)


def _check_source() -> None:
    if not Path(haltstudy.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"haltstudy imported from {haltstudy.__file__}, "
                         f"not from {SRC}")


@contextmanager
def traced(tracer: Tracer | None, root: str):
    """Run the block under ``tracer``, installed for its duration, or bare."""
    if tracer is None:
        yield
        return
    tracer.install(haltstudy)
    try:
        with tracer.root(root):
            yield
    finally:
        tracer.restore()


def run_setup(args) -> int:
    tracer = Tracer() if args.trace_out else None
    with traced(tracer, ROOT_SETUP):
        write_inputs(WORKLOADS[args.workload], args.data, args.seed)
    if tracer:
        tracer.dump(args.trace_out)
    return 0


def run_cli(args) -> int:
    from haltstudy.cli import main
    tracer = Tracer()
    with traced(tracer, ROOT_CALL):
        code = main(args.argv)
    tracer.dump(args.trace_out)
    return code


def run_inproc(args) -> int:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace_out else None
    with traced(tracer, ROOT_SETUP):
        panel, records, truth = haltstudy.generate_panel(
            inproc_spec(workload, args.seed))
    setup_s = time.perf_counter() - T_START
    config = analysis_config(workload, args.seed)
    truth_dict = truth.to_json_dict()
    out = args.work / "out"

    def call(i):
        start = time.perf_counter()
        try:
            with traced(tracer if i % 2 == 1 else None, ROOT_CALL):
                result = haltstudy.run_analysis(panel, records, config)
        except Exception as exc:  # a failed call is counted, not fatal
            result = exc
        wall = time.perf_counter() - start
        # probed after the call, never before it, so that the probe's
        # allocations cannot warm the cold call
        return wall, result, {"probe": speed_probe()}

    def check(result):
        shutil.rmtree(out, ignore_errors=True)
        haltstudy.write_analysis_outputs(result, config, out)
        problems, alpha_err = check_outputs(workload, out, truth_dict)
        digest = tree_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return {"problems": problems, "alpha_abs_err": alpha_err,
                "digest": digest}

    min_calls = MIN_TRACED_CALLS if tracer else MIN_CALLS
    calls = measure_round(call, check, args.budget, min_calls)
    for i, record in enumerate(calls):
        record["traced"] = tracer is not None and i % 2 == 1
    args.result.write_text(json.dumps({"setup_s": setup_s, "calls": calls}))
    if tracer:
        tracer.dump(args.trace_out)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cli", "inproc"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--data", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace-out", type=Path)
    own, cli_args = sys.argv[1:], []
    if "--" in own:
        cut = own.index("--")
        own, cli_args = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)
    args.argv = cli_args
    _check_source()
    try:
        return {"setup": run_setup, "cli": run_cli,
                "inproc": run_inproc}[args.mode](args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
