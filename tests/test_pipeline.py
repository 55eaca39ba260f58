"""Whole-run orchestration: ordering, artifacts, worker independence."""

import csv
import json

import pytest

from haltstudy import (
    AnalysisConfig,
    DEFAULT_RELAXATIONS,
    EligibilityConfig,
    EventSign,
    FitConfig,
    HaltType,
    MeasureKind,
    build_group_spec,
    generate_panel,
    run_analysis,
    summary_dict,
    write_analysis_outputs,
)

ALL_SIX = {key: 1 for key in DEFAULT_RELAXATIONS}
GROUP_ORDER = ["intraday_pos", "intraday_neg", "oneday_pos", "oneday_neg",
               "interday_pos", "interday_neg"]
ARTIFACTS = ["eligibility.csv", "counts.csv", "curves.csv", "averages.csv",
             "excess.csv", "loglog.csv", "exponents.csv", "summary.json"]


@pytest.fixture(scope="module")
def six_group_run():
    panel, records, truth = generate_panel(build_group_spec(ALL_SIX, seed=31))
    result = run_analysis(panel, records, AnalysisConfig(n_bootstrap=0))
    return result, truth


def test_full_run_counts_and_order(six_group_run):
    result, _ = six_group_run
    assert len(result.events) == 6
    assert result.n_eligible == 6
    for ht in HaltType:
        for sign in EventSign:
            assert result.counts.count(ht, sign) == 1

    assert [(a.group, a.measure) for a in result.averages] == [
        (g, m) for g in GROUP_ORDER for m in MeasureKind]
    assert [c.group for c in result.curves] == GROUP_ORDER
    assert [(e.group, e.measure) for e in result.excess] == \
        [(a.group, a.measure) for a in result.averages]
    # fit rows sort by measure name first, then group
    measure_names = sorted(m.value for m in MeasureKind)
    assert [(r.measure.value, r.group) for r in result.fit_rows] == [
        (m, g) for m in measure_names for g in GROUP_ORDER]


def test_full_run_recovers_planted_exponents(six_group_run):
    result, truth = six_group_run
    planted = {(row.halt_type, row.sign): row.event.relaxations
               for row in truth.rows}
    for row in result.fit_rows:
        assert row.flag == "ok"
        assert row.fit.bootstrap_alpha_stderr is None   # bootstrap off
        relax = planted[(row.halt_type, row.sign)][row.measure]
        assert row.fit.alpha == pytest.approx(relax.alpha, abs=1e-6)
        assert row.fit.amplitude == pytest.approx(relax.amplitude, rel=1e-6)


def test_full_run_reversals_and_stability(six_group_run):
    result, _ = six_group_run
    assert sorted(result.reversals) == sorted(GROUP_ORDER)
    for per in result.reversals.values():
        assert sorted(per) == [1, 2]
        for frac in per.values():
            assert 0.0 <= frac <= 1.0
    stability = result.stability
    assert sorted(stability) == sorted(GROUP_ORDER)
    for s in stability.values():
        assert s >= 0.0


def test_results_do_not_depend_on_worker_count(tmp_path):
    spec = build_group_spec({(HaltType.INTRADAY, EventSign.POSITIVE): 2},
                            seed=17, sigma=0.1)
    panel, records, _ = generate_panel(spec)
    dirs = []
    for name in ("a", "b", "c"):
        config = AnalysisConfig(n_bootstrap=8, seed=5)
        result = run_analysis(panel, records, config)
        write_analysis_outputs(result, config, tmp_path / name)
        dirs.append(tmp_path / name)
    for name in ARTIFACTS:
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref


def test_bootstrap_errors_attach_to_multi_event_groups():
    spec = build_group_spec({(HaltType.ONE_DAY, EventSign.NEGATIVE): 2},
                            seed=23)
    panel, records, _ = generate_panel(spec)
    result = run_analysis(panel, records, AnalysisConfig(n_bootstrap=6))
    for row in result.fit_rows:
        assert row.fit is not None
        assert row.fit.bootstrap_alpha_stderr is not None
        assert row.fit.bootstrap_alpha_stderr >= 0.0


def test_summary_is_json_safe_and_omits_runtime_knobs(six_group_run):
    result, _ = six_group_run
    config = AnalysisConfig(n_bootstrap=0)
    summary = summary_dict(result, config)
    text = json.dumps(summary, allow_nan=False, sort_keys=True)
    assert "n_workers" not in summary["config"]
    assert "out" not in summary["config"]
    assert summary["n_events"] == 6
    assert summary["n_eligible"] == 6
    assert summary["counts"]["intraday"]["pos"] == 1
    assert summary["counts"]["total"] == 6
    assert summary["config"]["fit_range"] == [1, 160]
    assert len(summary["exponents"]) == 18
    assert json.loads(text)["config"]["seed"] == 0


def test_empty_registry_writes_header_only_artifacts(tmp_path):
    panel, _, _ = generate_panel(build_group_spec(ALL_SIX, seed=31))
    config = AnalysisConfig(n_bootstrap=0)
    result = run_analysis(panel, [], config)
    assert result.events == ()
    assert result.counts.total == 0
    assert result.averages == ()
    assert result.curves == ()
    assert result.fit_rows == ()
    paths = write_analysis_outputs(result, config, tmp_path)
    assert [p.name for p in paths] == ARTIFACTS
    for path in paths:
        if path.suffix == ".csv" and path.name != "counts.csv":
            lines = path.read_text().splitlines()
            assert len(lines) == 1      # header only
    blob = json.loads((tmp_path / "summary.json").read_text())
    assert blob["n_events"] == 0
    assert blob["counts"]["total"] == 0


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(measures=())
    with pytest.raises(ValueError):
        AnalysisConfig(n_bootstrap=-1)
    with pytest.raises(ValueError, match="post window"):
        AnalysisConfig(fit=FitConfig(fit_range=(1, 161)))
    AnalysisConfig(fit=FitConfig(fit_range=(1, 200)),
                   eligibility=EligibilityConfig(post_window=200))
    with pytest.raises(ValueError):
        AnalysisConfig(reversal_horizons=(0,))


def test_excess_file_mirrors_averages(tmp_path):
    spec = build_group_spec({(HaltType.INTRADAY, EventSign.POSITIVE): 2},
                            seed=29)
    panel, records, _ = generate_panel(spec)
    config = AnalysisConfig(n_bootstrap=0)
    write_analysis_outputs(run_analysis(panel, records, config), config,
                           tmp_path)

    def load(name):
        with open(tmp_path / name) as fh:
            return {(r["group"], r["measure"], int(r["t"])): r
                    for r in csv.DictReader(fh)}

    averages = load("averages.csv")
    excess = load("excess.csv")
    assert len(excess) == 3 * 160       # three measures, t = 1..160
    for (group, measure, t), row in excess.items():
        src = averages[(group, measure, t)]
        assert t >= 1
        assert float(row["mean"]) == float(src["mean"]) - 1.0
        assert row["stderr"] == src["stderr"]
        assert row["n"] == src["n"]
