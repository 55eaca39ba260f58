"""End-to-end acceptance gates.

Each test prints one [ACCEPTANCE] line naming the criterion, its
verdict and a short quantitative detail; the full list is repeated in
the terminal summary.
"""

import time

import numpy as np

from haltstudy import (
    AnalysisConfig,
    DEFAULT_RELAXATIONS,
    EventSign,
    HaltType,
    MeasureKind,
    PanelBuilder,
    build_group_spec,
    average_cumulative_return,
    extract_stock_trajectories,
    filter_eligibility,
    generate_panel,
    make_calendar,
    power_law_jacobian,
    power_law_model,
    recovery_study,
    reversal_stats,
    run_analysis,
    stability_stat,
    tabulate_counts,
    write_analysis_outputs,
)
from haltstudy.powerlaw import fit_power_law_points
from helpers import add_stock, halt_event, random_walk_stock
from oracles import grid_power_law, naive_cumulative_curve

ALL_SIX = {key: 1 for key in DEFAULT_RELAXATIONS}


def test_noiseless_exponent_closure(acceptance):
    spec = build_group_spec(ALL_SIX, seed=11)
    start = time.perf_counter()
    report = recovery_study(spec, 1, measures=tuple(MeasureKind))
    elapsed = time.perf_counter() - start
    failures = [r for r in report.rows if r.failure is not None]
    worst_alpha = max(abs(r.alpha_error) for r in report.rows)
    worst_amp = max(abs(r.fitted_amplitude - r.planted_amplitude)
                    / r.planted_amplitude for r in report.rows)
    ok = (len(report.rows) == 18 and not failures
          and worst_alpha < 1e-6 and worst_amp < 1e-6 and elapsed < 10.0)
    acceptance(
        "noiseless_exponent_closure", ok,
        f"18 cells, max |alpha err| {worst_alpha:.2e}, "
        f"max rel A err {worst_amp:.2e}, {elapsed:.1f}s")


def test_noisy_exponent_recovery(acceptance):
    spec = build_group_spec(
        {(HaltType.INTRADAY, EventSign.POSITIVE): 100},
        seed=20260824, sigma=0.25)
    start = time.perf_counter()
    report = recovery_study(spec, 100)
    elapsed = time.perf_counter() - start
    frac = report.fraction_within(0.05)
    ok = frac >= 0.95 and elapsed < 120.0
    acceptance(
        "noisy_exponent_recovery", ok,
        f"{frac:.0%} of 100 seeds within 0.05, "
        f"mean |err| {report.mean_abs_error():.4f}, {elapsed:.1f}s")


def test_cumulative_curve_matches_naive_oracle(acceptance):
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(20):
        cal = make_calendar(3)
        if i % 2 == 0:
            begin, resume = (1, 61), (1, 121)
            halt_type, absent = HaltType.INTRADAY, slice(300, 360)
        else:
            begin, resume = (1, 1), (2, 1)
            halt_type, absent = HaltType.ONE_DAY, slice(240, 480)
        builder = PanelBuilder(cal)
        events = []
        for stock_id in ("A", "B"):
            random_walk_stock(builder, cal, stock_id, rng, absent=[absent])
            events.append(halt_event(cal, stock_id, begin, resume,
                                     halt_type, EventSign.POSITIVE))
        curve = average_cumulative_return(builder.build(), events, 160)
        oracle = naive_cumulative_curve(builder.build(), events, 160)
        worst = max(worst, float(np.max(np.abs(curve.mean
                                               - np.array(oracle)))))
    ok = worst < 1e-12
    acceptance("cumulative_curve_oracle", ok,
               f"20 two-event fixtures, max |curve - oracle| {worst:.2e}")


def test_fit_beats_exhaustive_grid(acceptance):
    rng = np.random.default_rng(404)
    t = np.arange(1, 41, dtype=float)
    margin = -np.inf
    for _ in range(6):
        amp = float(np.exp(rng.uniform(np.log(0.3), np.log(4.0))))
        alpha = float(rng.uniform(0.3, 1.5))
        z = amp * t ** -alpha + rng.normal(0.0, 0.03, t.size)
        fit = fit_power_law_points(t, z, fit_range=(1, 40))
        _, _, grid_sse = grid_power_law(
            t, z,
            (max(1e-3, fit.amplitude - 0.2), fit.amplitude + 0.2),
            (max(1e-3, fit.alpha - 0.2), fit.alpha + 0.2), step=1e-3)
        margin = max(margin, fit.sse - grid_sse)
    ok = margin <= 1e-9
    acceptance("fit_grid_oracle", ok,
               f"6 noisy fixtures, max sse excess over grid {margin:.2e}")


def test_deseasonalization_identity(acceptance):
    # prices alternate between two values by global-minute parity, so
    # every minute repeats its own baseline exactly and z must be 1
    cal = make_calendar(43)
    price = np.where(np.arange(cal.n_minutes) % 2 == 0, 10.0, 10.1)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", price=price, volume=100.0, spread=0.02,
              absent=[slice(9900, 9960)])
    panel = builder.build()
    ev = halt_event(cal, "A", (41, 61), (41, 121),
                    HaltType.INTRADAY, EventSign.NEGATIVE)
    trajectories, = extract_stock_trajectories(panel, [ev])
    deviations = {}
    for measure in MeasureKind:
        tr = trajectories[measure]
        deviations[measure.value] = float(np.max(np.abs(tr.values - 1.0)))
    worst = max(deviations.values())
    ok = worst < 1e-12
    acceptance("deseasonalization_identity", ok,
               f"max |z - 1| {worst:.2e} over {sorted(deviations)}")


def test_classification_closure(acceptance):
    spec = build_group_spec({key: 3 for key in DEFAULT_RELAXATIONS},
                            seed=606)
    panel, records, truth = generate_panel(spec)
    events = filter_eligibility(records, panel)
    planted = {(row.record.stock_id, row.record.halt_day):
               (row.halt_type, row.sign) for row in truth.rows}
    n_eligible = sum(1 for ev in events if ev.eligible)
    mismatches = sum(
        1 for ev in events
        if planted[(ev.record.stock_id, ev.record.halt_day)]
        != (ev.halt_type, ev.sign))
    table = tabulate_counts(events)
    cells_ok = all(table.count(ht, s) == 3
                   for ht in HaltType for s in EventSign)
    ok = n_eligible == 18 and mismatches == 0 and cells_ok
    acceptance(
        "classification_closure", ok,
        f"{n_eligible}/18 eligible, {mismatches} label mismatches, "
        f"all cells 3: {cells_ok}")


def test_stability_and_reversal_exactness(acceptance):
    cal = make_calendar(4)
    builder = PanelBuilder(cal)
    add_stock(builder, cal, "A", absent=[slice(540, 600)])
    flat_ev = halt_event(cal, "A", (2, 61), (2, 121),
                         HaltType.INTRADAY, EventSign.NEGATIVE)
    stability = stability_stat(
        average_cumulative_return(builder.build(), [flat_ev]))

    cal3 = make_calendar(3)
    builder3 = PanelBuilder(cal3)
    events = []
    for i, target in enumerate([10.5] * 6 + [9.5] * 3 + [10.0]):
        stock_id = f"S{i:02d}"
        price = np.full(cal3.n_minutes, 10.0)
        price[360:] = target
        add_stock(builder3, cal3, stock_id, price=price,
                  absent=[slice(300, 360)])
        events.append(halt_event(cal3, stock_id, (1, 61), (1, 121),
                                 HaltType.INTRADAY, EventSign.NEGATIVE))
    stats = reversal_stats(builder3.build(), events, (1, 2))
    ok = stability == 0.0 and stats == {1: 0.6, 2: 0.6}
    acceptance(
        "stability_and_reversal_exactness", ok,
        f"flat-curve spread {stability!r}, reversal fractions {stats}")


def test_jacobian_consistency(acceptance):
    rng = np.random.default_rng(808)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        amp = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 2.0))
        t = rng.integers(1, 161, size=12).astype(float)
        jac = power_law_jacobian(t, amp, alpha)
        fd = np.column_stack((
            (power_law_model(t, amp + h, alpha)
             - power_law_model(t, amp - h, alpha)) / (2 * h),
            (power_law_model(t, amp, alpha + h)
             - power_law_model(t, amp, alpha - h)) / (2 * h)))
        worst = max(worst, float(np.max(np.abs(jac - fd)
                                        / (np.abs(fd) + 1e-9))))
    ok = worst < 1e-5
    acceptance("jacobian_consistency", ok,
               f"50 random points, max relative gap {worst:.2e}")


def test_worker_and_rerun_determinism(acceptance, tmp_path):
    spec = build_group_spec({key: 2 for key in DEFAULT_RELAXATIONS},
                            seed=909, sigma=0.1)
    panel, records, _ = generate_panel(spec)
    dirs = []
    for name in ("a", "b", "c"):
        config = AnalysisConfig(n_bootstrap=8, seed=3)
        result = run_analysis(panel, records, config)
        write_analysis_outputs(result, config, tmp_path / name)
        dirs.append(tmp_path / name)
    names = sorted(p.name for p in dirs[0].iterdir())
    mismatched = [
        name for name in names
        if not ((dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
                == (dirs[2] / name).read_bytes())]
    ok = len(names) == 8 and not mismatched
    acceptance(
        "worker_and_rerun_determinism", ok,
        f"{len(names)} artifacts x 3 runs byte-compared, "
        f"mismatches {mismatched or 'none'}")
