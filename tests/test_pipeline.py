"""Whole-run orchestration: ordering, artifacts, worker independence."""

import csv
import json
import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from haltstudy import (
    AnalysisConfig,
    BootstrapResult,
    DEFAULT_RELAXATIONS,
    EligibilityConfig,
    EventSign,
    FitConfig,
    HaltType,
    MINUTES_PER_DAY,
    MeasureKind,
    PanelBuilder,
    RejectionReason,
    TradingCalendar,
    attach_bootstrap,
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


def test_stock_without_bars_rejects_only_its_own_events():
    spec = build_group_spec({(HaltType.ONE_DAY, EventSign.NEGATIVE): 2},
                            seed=23)
    panel, records, _ = generate_panel(spec)
    builder = PanelBuilder(panel.calendar)
    for stock_id in panel.stock_ids:
        builder.add_stock_arrays(
            stock_id, panel.prices(stock_id), panel.volumes(stock_id),
            panel.bids(stock_id), panel.asks(stock_id),
            panel.present_mask(stock_id))
    nothing = np.full(panel.calendar.n_minutes, np.nan)
    builder.add_stock_arrays("ZZZ", nothing, nothing, nothing, nothing,
                             np.zeros(panel.calendar.n_minutes, dtype=bool))
    bare = replace(records[0], stock_id="ZZZ")
    config = AnalysisConfig(n_bootstrap=0)
    result = run_analysis(builder.build(), [*records, bare], config)
    alone = run_analysis(panel, records, config)
    verdicts = {ev.record.stock_id: ev.rejection_reason
                for ev in result.events}
    assert verdicts.pop("ZZZ") is RejectionReason.INSUFFICIENT_HISTORY
    assert set(verdicts.values()) == {None}
    assert result.n_eligible == alone.n_eligible == 2
    for got, want in zip(result.averages, alone.averages, strict=True):
        assert got.mean.tobytes() == want.mean.tobytes()
    assert result.fit_rows == alone.fit_rows


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
    with pytest.raises(ValueError, match="seed"):
        AnalysisConfig(seed=-1)
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


def test_non_finite_fit_values_are_null_in_summary(six_group_run, tmp_path):
    # JSON has no infinity: summary.json writes null for every
    # non-finite float, as for NaN, while exponents.csv keeps the repr
    result, _ = six_group_run
    rows = list(result.fit_rows)
    rows[0] = attach_bootstrap(rows[0], BootstrapResult(math.inf, 2, 0))
    rows[1] = replace(rows[1], fit=replace(rows[1].fit, sse=-math.inf))
    rows[2] = replace(rows[2], fit=replace(rows[2].fit, alpha_stderr=math.nan))
    config = AnalysisConfig(n_bootstrap=0)
    write_analysis_outputs(replace(result, fit_rows=tuple(rows)), config,
                           tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    exponents = summary["exponents"]
    assert exponents[0]["alpha_se_bootstrap"] is None
    assert exponents[1]["sse"] is None
    assert exponents[2]["alpha_se_asymptotic"] is None
    assert exponents[0]["alpha"] == rows[0].fit.alpha
    with open(tmp_path / "exponents.csv") as fh:
        table = list(csv.DictReader(fh))
    assert table[0]["alpha_se_bootstrap"] == "inf"
    assert table[1]["sse"] == "-inf"
    assert table[2]["alpha_se_asymptotic"] == ""


# ---------------------------------------------------------------- metamorphic


def _rebuilt(panel, calendar, pad=0, scale=1.0, extra=()):
    # every stock after ``pad`` bar-free days of ``calendar``, volumes and
    # quotes times ``scale``, plus (new id, source id) copies in ``extra``
    builder = PanelBuilder(calendar)
    head = np.full(pad * MINUTES_PER_DAY, np.nan)
    for new_id, stock_id in [(s, s) for s in panel.stock_ids] + list(extra):
        arrays = (panel.prices(stock_id), scale * panel.volumes(stock_id),
                  scale * panel.bids(stock_id), scale * panel.asks(stock_id))
        builder.add_stock_arrays(
            new_id, *(np.concatenate([head, a]) for a in arrays),
            np.concatenate([head > 0, panel.present_mask(stock_id)]))
    return builder.build()


def _halt_free_stock(panel):
    # a copy of the first stock that sorts between two halted stocks
    ids = panel.stock_ids
    return _rebuilt(panel, panel.calendar,
                    extra=[(ids[len(ids) // 2] + "X", ids[0])])


def _scaled_by_four(panel):
    return _rebuilt(panel, panel.calendar, scale=4.0)


def _five_bar_free_days_first(panel):
    first = panel.calendar.trading_days[0]
    days = tuple(first - timedelta(days=7 - i) for i in range(5))
    return _rebuilt(panel, TradingCalendar(days + panel.calendar.trading_days),
                    pad=5)


def _artifacts(panel, records, config, out):
    write_analysis_outputs(run_analysis(panel, records, config), config, out)
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def metamorphic_base(tmp_path_factory):
    # two seeds: multi-event cells get bootstrap errors, one-event cells not
    sizes = {(HaltType.INTRADAY, EventSign.POSITIVE): 2,
             (HaltType.ONE_DAY, EventSign.NEGATIVE): 2,
             (HaltType.INTER_DAY, EventSign.POSITIVE): 1}
    config = AnalysisConfig(n_bootstrap=4, seed=7)
    base = {}
    for seed in (3, 4):
        panel, records, _ = generate_panel(
            build_group_spec(sizes, seed=seed, sigma=0.2))
        out = tmp_path_factory.mktemp(f"base{seed}")
        base[seed] = panel, records, _artifacts(panel, records, config, out)
    return config, base


@pytest.mark.parametrize("relation", [_halt_free_stock, _scaled_by_four,
                                      _five_bar_free_days_first])
@pytest.mark.parametrize("seed", [3, 4])
def test_metamorphic_relations_keep_every_artifact(metamorphic_base, tmp_path,
                                                    relation, seed):
    config, base = metamorphic_base
    panel, records, want = base[seed]
    got = _artifacts(relation(panel), records, config, tmp_path)
    for name in ARTIFACTS:
        assert got[name] == want[name], name
