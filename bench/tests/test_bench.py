"""Tests of the benchmark itself: tracer arithmetic, checks, failure counts.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json

import pytest

import haltstudy
import haltstudy.cli
import haltstudy.pipeline
import run
import workloads
from tracer import ROOT_CALL, Tracer, call_profile, root_calls, self_times


def _span(name, start, end, parent, call_id=0, counts=None):
    return [name, start, end, parent, call_id, counts]


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span("bench.call", 0.0, 10.0, -1),
        _span("pipeline.run_analysis", 1.0, 9.0, 0),
        _span("event_study.group_average", 2.0, 4.0, 1),
        _span("powerlaw.fit_all_groups", 5.0, 8.0, 1),
        _span("powerlaw.fit_power_law_points", 5.5, 6.5, 3),
        _span("powerlaw.fit_power_law_points", 7.0, 7.5, 3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.5, 1.0, 0.5])


def test_self_time_merges_overlapping_children():
    # two children overlapping by 1 s (threads) and one poking past the
    # parent's end; covered time is the clipped union, 4 s of 6 s
    spans = [
        _span("pipeline.run_analysis", 0.0, 6.0, -1),
        _span("event_study.extract_trajectory", 1.0, 3.0, 0),
        _span("event_study.extract_trajectory", 2.0, 4.0, 0),
        _span("event_study.extract_trajectory", 5.0, 7.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_call_profile_adds_up_to_the_root():
    spans = [
        _span("bench.call", 0.0, 10.0, -1, 0),
        _span("pipeline.run_analysis", 1.0, 9.0, 0, 0),
        _span("event_study.group_average", 2.0, 4.0, 1, 0, {"cells": 30}),
        _span("event_study.group_average", 4.0, 5.0, 1, 0, {"cells": 10}),
        _span("bench.call", 20.0, 24.0, -1, 1),
        _span("pipeline.run_analysis", 20.0, 24.0, 4, 1),
        _span("bench.setup", 30.0, 31.0, -1, 2),
        _span("synthetic.generate_panel", 30.0, 31.0, 6, 2),
    ]
    profile = call_profile(spans, root_calls(spans, ROOT_CALL))
    assert profile["wall_s"] == pytest.approx(7.0)
    assert profile["pipeline.run_analysis.self_s"] == pytest.approx(4.5)
    assert profile["event_study.group_average.self_s"] == pytest.approx(1.5)
    assert profile["event_study.group_average.calls"] == 1.0
    assert profile["cells"] == 20.0
    assert profile["event_study.self_s"] == pytest.approx(1.5)
    # the 2 s outside haltstudy in call 0 is the only uncovered time
    assert profile["covered_s"] == pytest.approx(profile["wall_s"] - 1.0)
    assert "synthetic.generate_panel.self_s" not in profile


def test_install_wraps_every_binding_and_restore_undoes_it():
    originals = (haltstudy.run_analysis, haltstudy.pipeline.group_average,
                 haltstudy.cli._COMMANDS["run"], haltstudy.cli.cmd_run)
    tracer = Tracer()
    tracer.install(haltstudy)
    try:
        assert haltstudy.run_analysis is not originals[0]
        assert haltstudy.pipeline.run_analysis is haltstudy.run_analysis
        assert haltstudy.pipeline.group_average is not originals[1]
        assert haltstudy.cli._COMMANDS["run"] is haltstudy.cli.cmd_run
        assert haltstudy.cli.cmd_run is not originals[3]
        assert haltstudy.powerlaw.power_law_model.__module__ == \
            "haltstudy.powerlaw"
    finally:
        tracer.restore()
    assert (haltstudy.run_analysis, haltstudy.pipeline.group_average,
            haltstudy.cli._COMMANDS["run"], haltstudy.cli.cmd_run) == originals


@pytest.fixture(scope="module")
def small_inputs():
    spec = haltstudy.build_group_spec(
        {(ht, s): 3 for ht in haltstudy.HaltType for s in haltstudy.EventSign},
        seed=5, sigma=0.2)
    return haltstudy.generate_panel(spec)


def test_traced_and_untraced_artifacts_are_byte_identical(small_inputs,
                                                          tmp_path):
    panel, records, truth = small_inputs
    config = haltstudy.AnalysisConfig(n_bootstrap=20, seed=3)
    plain = haltstudy.run_analysis(panel, records, config)
    haltstudy.write_analysis_outputs(plain, config, tmp_path / "plain")
    tracer = Tracer()
    tracer.install(haltstudy)
    try:
        with tracer.root(ROOT_CALL):
            traced = haltstudy.run_analysis(panel, records, config)
    finally:
        tracer.restore()
    haltstudy.write_analysis_outputs(traced, config, tmp_path / "traced")
    assert workloads.tree_digest(tmp_path / "plain") == \
        workloads.tree_digest(tmp_path / "traced")
    profile = call_profile(tracer.spans, root_calls(tracer.spans, ROOT_CALL))
    assert profile["powerlaw.bootstrap_alpha_stderr.calls"] == 18
    assert profile["resamples_ok"] == 18 * 20
    assert profile["event_study.compute_intraday_pattern.calls"] == 18 * 3


def test_traced_cli_run_matches_untraced(tmp_path):
    data = tmp_path / "data"
    assert haltstudy.cli.main(["synth", "--out", str(data), "--seed", "2",
                               "--groups", "intraday_pos:2,oneday_neg:2",
                               "--sigma", "0.2"]) == 0
    argv = workloads.cli_argv(workloads.WORKLOADS["csv-run"], data,
                              tmp_path / "plain")
    assert haltstudy.cli.main(argv) == 0
    tracer = Tracer()
    tracer.install(haltstudy)
    try:
        with tracer.root(ROOT_CALL):
            argv[argv.index("--out") + 1] = str(tmp_path / "traced")
            assert haltstudy.cli.main(argv) == 0
    finally:
        tracer.restore()
    assert workloads.tree_digest(tmp_path / "plain") == \
        workloads.tree_digest(tmp_path / "traced")
    profile = call_profile(tracer.spans, root_calls(tracer.spans, ROOT_CALL))
    assert profile["cli.cmd_run.calls"] == 1
    assert profile["bars"] == 4 * 43 * 240 - 2 * 60 - 2 * 240


def test_check_outputs_accepts_good_and_flags_wrong_counts(small_inputs,
                                                           tmp_path):
    panel, records, truth = small_inputs
    config = haltstudy.AnalysisConfig(n_bootstrap=0)
    result = haltstudy.run_analysis(panel, records, config)
    haltstudy.write_analysis_outputs(result, config, tmp_path)
    csv_run = workloads.WORKLOADS["csv-run"]
    truth_dict = truth.to_json_dict()
    problems, alpha_err = workloads.check_outputs(csv_run, tmp_path,
                                                  truth_dict)
    assert problems == []
    assert 0 < alpha_err < workloads.ALPHA_TOLERANCE
    truth_dict["events"] = truth_dict["events"][1:]
    problems, _ = workloads.check_outputs(csv_run, tmp_path, truth_dict)
    assert any("counts" in p for p in problems)
    # bootstrap workloads also need a bootstrap error on every cell
    problems, _ = workloads.check_outputs(workloads.WORKLOADS["bootstrap"],
                                          tmp_path, truth.to_json_dict())
    assert problems and all("bootstrap" in p for p in problems)


def test_raised_and_failed_check_each_count_once():
    def call(i):
        return 0.5, (ValueError("boom") if i == 1 else i), {"rss_mb": 9.0}

    def check(result):
        return {"problems": ["bad counts"] if result == 2 else [],
                "digest": "d"}

    records = run.measure_round(call, check, budget=1.6, min_calls=2)
    assert len(records) == 4  # the budget ends after the fourth call
    assert [r["error"] for r in records] == [
        None, "ValueError: boom", "bad counts", None]
    assert sum(r["error"] is not None for r in records) == 2
    assert all(r["wall"] == 0.5 and r["rss_mb"] == 9.0 for r in records)


def test_digest_mismatch_fails_the_call():
    calls = [{"error": None, "digest": "a"}, {"error": "x", "digest": None},
             {"error": None, "digest": "b"}, {"error": None, "digest": "a"}]
    run.mark_digest_mismatches(calls)
    assert [c["error"] is None for c in calls] == [True, False, False, True]


def _rounds(probe):
    return [{"setup_s": s, "probes": [probe], "calls": [
        {"wall": cold, "probe": probe, "error": None, "rss_mb": 50.0},
        {"wall": 1.0, "probe": probe, "error": None, "rss_mb": 52.0},
        {"wall": 9.0, "probe": probe, "error": "failed", "rss_mb": 52.0}]}
        for s, cold in ((0.3, 2.0), (0.2, 3.0), (0.4, 4.0))]


def test_end_to_end_uses_warm_cold_and_setup_samples():
    values, samples, scale = run.end_to_end(_rounds(run.REFERENCE_S),
                                            fresh_processes=False)
    assert scale == 1.0
    assert values == {"wall_s": 1.0, "cold_s": 3.0, "setup_s": 0.3,
                      "peak_rss_mb": 52.0}
    assert len(samples["wall_s"]) == 3
    # every CLI call is a fresh process, so all passing calls are cold
    values, samples, _ = run.end_to_end(_rounds(run.REFERENCE_S),
                                        fresh_processes=True)
    assert samples["wall_s"] == samples["cold_s"] == [2.0, 3.0, 4.0, 1.0,
                                                      1.0, 1.0]
    assert values["wall_s"] == values["cold_s"] == 1.5


def test_times_scale_with_the_speed_probe():
    # a machine at half speed doubles every time and the probe alike
    values, samples, scale = run.end_to_end(_rounds(2 * run.REFERENCE_S),
                                            fresh_processes=False)
    assert scale == 0.5 and samples["wall_s"] == [1.0, 1.0, 1.0]
    assert values == {"wall_s": 0.5, "cold_s": 1.5, "setup_s": 0.15,
                      "peak_rss_mb": 52.0}
    assert 0 < run.speed_probe() < 10 * run.REFERENCE_S


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "csv-run", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_workload_sizes_are_stated():
    for workload in workloads.WORKLOADS.values():
        assert set(workload.size) == {"stocks", "days", "bars", "events",
                                      "resamples", "trend_windows"}
        assert all(v > 0 or k == "resamples"
                   for k, v in workload.size.items())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.describe(w))
        for name, w in workloads.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
