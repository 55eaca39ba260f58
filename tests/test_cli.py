"""Command-line behavior: subcommands, config layering, error reporting."""

import argparse
import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from haltstudy import (
    AnalysisConfig,
    ConfigError,
    HaltRecord,
    PanelBuilder,
    make_calendar,
    write_bar_csv,
    write_halt_csv,
)
from haltstudy import EventSign, market_data, pipeline
from haltstudy.cli import (
    _load_inputs,
    analysis_config,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from haltstudy.pipeline import run_windows
from helpers import add_stock, count_bar_parses

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _write_inputs(out: Path, cal, panel, records):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "calendar.txt", "w") as fh:
        for day in cal.trading_days:
            fh.write(day.isoformat() + "\n")
    with open(out / "bars.csv", "w", newline="") as fh:
        write_bar_csv(panel, fh)
    with open(out / "halts.csv", "w", newline="") as fh:
        write_halt_csv(records, fh)


def _add_trending(builder, cal, stock_id, begin, resume, down_leg=0,
                  spread=0.02, first=0, decay=None):
    # trends up over the 240 minutes before the halt at global minute
    # ``begin``, down over the last ``down_leg`` of them, and has no bars
    # from ``begin`` to ``resume`` nor before ``first``; a faint
    # alternating wiggle keeps every per-minute baseline positive. With
    # a ``decay`` exponent, the volume t minutes after resumption is
    # 1 + 3 t**-decay times its usual level, so its fit converges
    n = cal.n_minutes
    inc = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 2e-4
    inc[0] = 0.0
    inc[begin - 240:begin] = 1e-3
    if down_leg:
        inc[begin - down_leg:begin] = -1e-3
    inc[begin:resume] = 0.0
    volume = np.full(n, 100.0)
    if decay is not None:
        volume[resume + 1:resume + 161] *= 1 + 3 * np.arange(1, 161) ** -decay
    add_stock(builder, cal, stock_id, price=10.0 * np.exp(np.cumsum(inc)),
              volume=volume, spread=spread,
              absent=[slice(0, first), slice(begin, resume)])


@pytest.fixture(scope="module")
def flip_inputs(tmp_path_factory):
    # stock FLIP trends up for 185 minutes and down for the last 55, so
    # the 60-minute window reads negative while 120/180/240 read
    # positive; stock MONO trends up throughout
    cal = make_calendar(43)
    builder = PanelBuilder(cal)
    _add_trending(builder, cal, "FLIP", 9900, 9960, down_leg=55)
    _add_trending(builder, cal, "MONO", 9900, 9960)
    records = [HaltRecord(s, cal.trading_days[41], 61,
                          cal.trading_days[41], 121)
               for s in ("FLIP", "MONO")]
    root = tmp_path_factory.mktemp("flip")
    _write_inputs(root, cal, builder.build(), records)
    return root


@pytest.fixture(scope="module")
def regroup_inputs(tmp_path_factory):
    # F1 and F2 flip like FLIP above, M1 trends up throughout; O1 and O2
    # trend up into a one-day halt (day 41, resuming on day 42). Window
    # 60 splits the intraday events into two cells, and the one-day
    # cell, which every window has, moves from row 2k+1 to row 3k+2 of
    # the exponent table, so its bootstrap children change; its members
    # decay at different rates, so its bootstrap spread depends on them
    cal = make_calendar(43)
    builder = PanelBuilder(cal)
    for stock_id in ("F1", "F2"):
        _add_trending(builder, cal, stock_id, 9900, 9960, down_leg=55,
                      decay=0.7)
    _add_trending(builder, cal, "M1", 9900, 9960, decay=0.7)
    for stock_id, decay in (("O1", 0.7), ("O2", 1.0)):
        _add_trending(builder, cal, stock_id, 9840, 10080, decay=decay)
    days = cal.trading_days
    records = [HaltRecord(s, days[41], 61, days[41], 121)
               for s in ("F1", "F2", "M1")]
    records += [HaltRecord(s, days[41], 1, days[42], 1) for s in ("O1", "O2")]
    root = tmp_path_factory.mktemp("regroup")
    _write_inputs(root, cal, builder.build(), records)
    return root


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(root), "--seed", "9",
               "--groups", "intraday_pos:2,oneday_neg:2", "--sigma", "0.1"])
    assert rc == 0
    return root


def _args(root: Path, out: Path, *extra: str) -> list[str]:
    return ["--bars", str(root / "bars.csv"),
            "--calendar", str(root / "calendar.txt"),
            "--halts", str(root / "halts.csv"),
            "--out", str(out), *extra]


# ---------------------------------------------------------------- commands


def test_synth_emits_dataset(synth_inputs):
    names = {p.name for p in synth_inputs.iterdir()}
    assert names == {"bars.csv", "halts.csv", "calendar.txt",
                     "ground_truth.json"}
    truth = json.loads((synth_inputs / "ground_truth.json").read_text())
    assert truth["seed"] == 9
    assert len(truth["events"]) == 4


def test_run_full_analysis(synth_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", *_args(synth_inputs, out, "--bootstrap", "4")])
    assert rc == 0
    assert "wrote 8 files" in capsys.readouterr().out
    assert {p.name for p in out.iterdir()} == {
        "eligibility.csv", "counts.csv", "curves.csv", "averages.csv",
        "excess.csv", "loglog.csv", "exponents.csv", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_events"] == 4
    assert summary["n_eligible"] == 4
    assert summary["counts"]["intraday"]["pos"] == 2
    assert summary["counts"]["oneday"]["neg"] == 2
    assert summary["config"]["n_bootstrap"] == 4


def test_counts_prints_table(synth_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["counts", *_args(synth_inputs, out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["halt_type", "pos", "neg", "total"]
    assert lines[1].split() == ["intraday", "2", "0", "2"]
    assert lines[2].split() == ["oneday", "0", "2", "2"]
    assert lines[3].split() == ["interday", "0", "0", "0"]
    assert lines[4].split() == ["total", "2", "2", "4"]
    assert {p.name for p in out.iterdir()} == \
        {"eligibility.csv", "counts.csv"}
    assert (out / "counts.csv").read_text().splitlines()[-1] == "total,2,2,4"
    run = tmp_path / "run"
    assert main(["run", *_args(synth_inputs, run, "--bootstrap", "0")]) == 0
    for name in ("eligibility.csv", "counts.csv"):
        assert (out / name).read_bytes() == (run / name).read_bytes()


def _fail(*args, **kwargs):
    raise AssertionError("a stage that no written artifact reads ran")


@pytest.mark.parametrize("command, skipped", [
    ("fit", ("average_cumulative_return", "reversal_stats")),
    ("counts", ("extract_stock_trajectories", "group_average",
                "average_cumulative_return", "fit_all_groups")),
])
def test_commands_run_only_the_stages_they_write(synth_inputs, tmp_path,
                                                 monkeypatch, command,
                                                 skipped):
    want = tmp_path / "want"
    assert main([command, *_args(synth_inputs, want, "--bootstrap", "4")]) == 0
    for name in skipped:
        monkeypatch.setattr(pipeline, name, _fail)
    got = tmp_path / "got"
    assert main([command, *_args(synth_inputs, got, "--bootstrap", "4")]) == 0
    assert _tree(got) == _tree(want)


def test_fit_writes_only_fit_artifacts(synth_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["fit", *_args(synth_inputs, out, "--bootstrap", "0")])
    assert rc == 0
    assert "6 group-measure cells" in capsys.readouterr().out
    assert {p.name for p in out.iterdir()} == {"exponents.csv", "loglog.csv"}
    lines = (out / "exponents.csv").read_text().splitlines()
    assert len(lines) == 1 + 6          # 3 measures x 2 groups
    run = tmp_path / "run"
    assert main(["run", *_args(synth_inputs, run, "--bootstrap", "0")]) == 0
    for name in ("exponents.csv", "loglog.csv"):
        assert (out / name).read_bytes() == (run / name).read_bytes()


# ---------------------------------------------------------------- robustness


def test_robustness_counts_sign_flips(flip_inputs, tmp_path, capsys):
    out = tmp_path / "rob"
    rc = main(["robustness", *_args(flip_inputs, out, "--bootstrap", "0")])
    assert rc == 0
    assert "1 of 2 events change sign" in capsys.readouterr().out
    windows = {p.name for p in out.iterdir() if p.is_dir()}
    assert windows == {"window_060", "window_120", "window_180", "window_240"}
    for w in windows:
        assert (out / w / "summary.json").exists()
    lines = (out / "sign_flips.csv").read_text().splitlines()
    assert lines[0] == ("stock_id,halt_date,halt_minute,resume_date,"
                        "resume_minute,sign_w60,sign_w120,sign_w180,"
                        "sign_w240,flipped")
    flip = lines[1].split(",")
    assert flip[0] == "FLIP"
    assert flip[5:] == ["neg", "pos", "pos", "pos", "1"]
    mono = lines[2].split(",")
    assert mono[0] == "MONO"
    assert mono[5:] == ["pos", "pos", "pos", "pos", "0"]


def test_robustness_single_window_matches_plain_run(flip_inputs, tmp_path):
    rob = tmp_path / "rob"
    rc = main(["robustness", *_args(flip_inputs, rob, "--bootstrap", "0",
                                    "--windows", "240")])
    assert rc == 0
    run = tmp_path / "run"
    rc = main(["run", *_args(flip_inputs, run, "--bootstrap", "0",
                             "--trend-window", "240")])
    assert rc == 0
    for path in sorted(run.iterdir()):
        assert (rob / "window_240" / path.name).read_bytes() \
            == path.read_bytes()
    flips = (rob / "sign_flips.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in flips[1:]] == ["0", "0"]


@pytest.fixture(scope="module")
def failing_inputs(tmp_path_factory):
    # all three halt at day 41, minute 61 (global minutes 9900-9959);
    # A1's bars start 200 minutes before the halt, so it has the history
    # of window 60 (160 minutes) but not of window 240, and its one
    # lookback day has no bars at the pre window's morning minutes: an
    # unusable baseline; B2 quotes bid = ask, a zero spread baseline;
    # OK is sound
    cal = make_calendar(43)
    builder = PanelBuilder(cal)
    _add_trending(builder, cal, "A1", 9900, 9960, first=9899 - 200)
    _add_trending(builder, cal, "B2", 9900, 9960, spread=0.0)
    _add_trending(builder, cal, "OK", 9900, 9960)
    panel = builder.build()
    roots = {}
    for name, stocks in (("both", ("A1", "B2", "OK")),
                         ("short_only", ("A1", "OK"))):
        roots[name] = tmp_path_factory.mktemp(name)
        _write_inputs(roots[name], cal, panel,
                      [HaltRecord(s, cal.trading_days[41], 61,
                                  cal.trading_days[41], 121) for s in stocks])
    return roots


@pytest.mark.parametrize("registry, stock, windows_left", [
    # A1 sorts first but is eligible only in the later window 60; B2
    # fails in the first window, 240, before anything is written
    ("both", "B2", set()),
    # without B2, window 240 is written before A1 fails in window 60
    ("short_only", "A1", {"window_240"}),
])
def test_robustness_reports_the_first_failing_window(failing_inputs, tmp_path,
                                                     capsys, registry, stock,
                                                     windows_left):
    out = tmp_path / "rob"
    rc = main(["robustness", *_args(failing_inputs[registry], out,
                                    "--windows", "240,60", "--bootstrap", "0",
                                    "--lookback-days", "1")])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ZeroBaseline"
    assert blob["message"].startswith(f"{stock}: unusable baseline")
    left = {p.name for p in out.iterdir()} if out.exists() else set()
    assert left == windows_left
    for window in windows_left:
        assert len(list((out / window).iterdir())) == 8


@pytest.mark.parametrize("inputs", ["flip_inputs", "regroup_inputs"])
def test_robustness_windows_match_plain_runs(request, tmp_path, inputs):
    root = request.getfixturevalue(inputs)
    rob = tmp_path / "rob"
    assert main(["robustness", *_args(root, rob, "--bootstrap", "4",
                                      "--windows", "240,60,120")]) == 0
    flips = (rob / "sign_flips.csv").read_text().splitlines()
    assert "1" in [row.split(",")[-1] for row in flips[1:]]
    for window in (240, 60, 120):
        run = tmp_path / f"run_{window}"
        assert main(["run", *_args(root, run, "--bootstrap", "4",
                                   "--trend-window", str(window))]) == 0
        assert _tree(rob / f"window_{window:03d}") == _tree(run)


def _count_calls(monkeypatch, name):
    # the positional arguments of every call of pipeline's ``name``
    calls = []
    real = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_robustness_builds_each_cell_once(synth_inputs, tmp_path, capsys,
                                          monkeypatch):
    # no event changes sign, so windows 2-4 reuse every cell of window 1
    extracted = _count_calls(monkeypatch, "extract_stock_trajectories")
    averaged = _count_calls(monkeypatch, "group_average")
    booted = _count_calls(monkeypatch, "bootstrap_alpha_stderr")
    rob = tmp_path / "rob"
    assert main(["robustness", *_args(synth_inputs, rob, "--bootstrap", "4")]) == 0
    assert "0 of 4 events change sign" in capsys.readouterr().out
    assert len(extracted) == 1
    assert sorted(ev.record.stock_id for ev in extracted[0][1]) == \
        sorted(line.split(",")[0] for line in
               (rob / "sign_flips.csv").read_text().splitlines()[1:])
    # 2 cells x 3 measures, rather than 6 in each of 4 windows
    assert len(averaged) == 6
    assert len(booted) == 6
    for w in ("window_120", "window_180", "window_240"):
        assert _tree(rob / w) == {
            **_tree(rob / "window_060"),
            "summary.json": (rob / w / "summary.json").read_bytes()}


def test_robustness_reuses_unchanged_cells_only(regroup_inputs, tmp_path,
                                                monkeypatch):
    averaged = _count_calls(monkeypatch, "group_average")
    booted = _count_calls(monkeypatch, "bootstrap_alpha_stderr")
    assert main(["robustness", *_args(regroup_inputs, tmp_path,
                                      "--bootstrap", "4",
                                      "--windows", "240,60,120")]) == 0
    # window 240: intraday_pos [F1 F2 M1] and oneday_pos [O1 O2], both
    # new; window 60: intraday_pos [M1] and intraday_neg [F1 F2] new,
    # oneday_pos reused but bootstrapped again at its new rows; window
    # 120: everything reused. Only the volume fits converge, and only
    # converged multi-event fits are bootstrapped
    assert len(averaged) == (2 + 2) * 3
    assert len(booted) == 2 + 2


def test_reused_trajectory_carries_its_windows_event(flip_inputs, tmp_path,
                                                     monkeypatch):
    extracted = _count_calls(monkeypatch, "extract_stock_trajectories")
    averaged = _count_calls(monkeypatch, "group_average")
    panel, records = _load_inputs({
        "bars": flip_inputs / "bars.csv", "halts": flip_inputs / "halts.csv",
        "calendar": flip_inputs / "calendar.txt", "out": tmp_path})
    (_, first), (_, second) = run_windows(
        panel, records, AnalysisConfig(n_bootstrap=0), [240, 60])
    assert len(extracted) == 1
    flip = {ev.record.stock_id: ev for ev in second.events}["FLIP"]
    assert flip.sign is EventSign.NEGATIVE
    (cell,) = [c for c in second.cells if c.sign is EventSign.NEGATIVE]
    assert cell.events == (flip,)
    # window 240 averages [FLIP, MONO] per measure, window 60 [MONO],
    # then [FLIP], whose trajectory window 240 extracted
    assert len(averaged) == 3 * 3
    for (old_flip, _), (new_flip,) in zip(
            [args[0] for args in averaged[:3]],
            [args[0] for args in averaged[6:]]):
        assert old_flip.event.sign is EventSign.POSITIVE
        assert new_flip.event is flip
        assert new_flip.values is old_flip.values
    assert [avg.sign for avg in cell.averages.values()] == \
        [EventSign.NEGATIVE] * 3


# ---------------------------------------------------------------- packed copy


def _copy_inputs(source: Path, root: Path) -> Path:
    """The three input files of ``source`` in a new directory ``root``."""
    root.mkdir()
    for name in ("bars.csv", "calendar.txt", "halts.csv"):
        shutil.copyfile(source / name, root / name)
    return root


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _no_parse(*args, **kwargs):
    raise AssertionError("parsed although the packed copy was current")


@pytest.mark.parametrize("command, extra, n_files", [
    ("run", ("--bootstrap", "4"), 8),
    ("counts", (), 2),
    ("fit", ("--bootstrap", "4"), 2),
    ("robustness", ("--windows", "60,240", "--bootstrap", "4"), 2 * 8 + 1),
])
def test_packed_copy_gives_the_parsed_artifacts(synth_inputs, tmp_path,
                                                monkeypatch, capsys, command,
                                                extra, n_files):
    data = _copy_inputs(synth_inputs, tmp_path / "in")
    assert main([command, *_args(data, tmp_path / "miss", *extra)]) == 0
    assert (data / "bars.csv.npz").is_file()
    miss_out = capsys.readouterr().out
    monkeypatch.setattr(market_data, "parse_bar_file", _no_parse)
    assert main([command, *_args(data, tmp_path / "hit", *extra)]) == 0
    hit = capsys.readouterr()
    assert (hit.out, hit.err) == (
        miss_out.replace(str(tmp_path / "miss"), str(tmp_path / "hit")), "")
    miss = _tree(tmp_path / "miss")
    assert len(miss) == n_files
    assert _tree(tmp_path / "hit") == miss


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],
    lambda blob: b"not a zip file\n" * 1000,
    lambda blob: blob[:-1],
], ids=["truncated", "garbage", "last_byte_cut"])
def test_damaged_packed_copy_is_parsed_again(synth_inputs, tmp_path,
                                             monkeypatch, capsys, damage):
    data = _copy_inputs(synth_inputs, tmp_path / "in")
    assert main(["run", *_args(data, tmp_path / "a", "--bootstrap", "4")]) == 0
    packed = data / "bars.csv.npz"
    blob = packed.read_bytes()
    packed.write_bytes(damage(blob))
    capsys.readouterr()
    parses = count_bar_parses(monkeypatch)
    rc = main(["run", *_args(data, tmp_path / "b", "--bootstrap", "4")])
    assert (rc, capsys.readouterr().err, len(parses)) == (0, "", 1)
    assert _tree(tmp_path / "b") == _tree(tmp_path / "a")
    # the parse put a sound copy back
    assert packed.read_bytes() == blob


def test_read_only_data_directory_keeps_no_copy(synth_inputs, tmp_path,
                                                monkeypatch, capsys):
    assert main(["run", *_args(_copy_inputs(synth_inputs, tmp_path / "rw"),
                               tmp_path / "a", "--bootstrap", "4")]) == 0
    data = _copy_inputs(synth_inputs, tmp_path / "in")
    data.chmod(0o555)
    try:
        if os.access(data, os.W_OK):
            # permission bits do not bind this user (root): fail the
            # write as the system would for anyone else
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(data))
            monkeypatch.setattr(market_data.tempfile, "mkstemp", refuse)
        capsys.readouterr()
        rc = main(["run", *_args(data, tmp_path / "b", "--bootstrap", "4")])
        assert (rc, capsys.readouterr().err) == (0, "")
        assert sorted(p.name for p in data.iterdir()) == [
            "bars.csv", "calendar.txt", "halts.csv"]
    finally:
        data.chmod(0o755)
    assert _tree(tmp_path / "b") == _tree(tmp_path / "a")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_bars_are_parsed_once_and_keep_no_copy(synth_inputs, tmp_path,
                                                    monkeypatch):
    data = _copy_inputs(synth_inputs, tmp_path / "in")
    fifo = data / "bars.fifo"
    os.mkfifo(fifo)
    blob = (data / "bars.csv").read_bytes()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(blob)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    parses = count_bar_parses(monkeypatch)
    args = _args(data, tmp_path / "fifo", "--bootstrap", "4")
    args[args.index("--bars") + 1] = str(fifo)
    rc = main(["run", *args])
    writer.join(timeout=60)
    assert (rc, len(parses), writer.is_alive()) == (0, 1, False)
    assert sorted(p.name for p in data.iterdir()) == [
        "bars.csv", "bars.fifo", "calendar.txt", "halts.csv"]
    assert main(["run", *_args(data, tmp_path / "file", "--bootstrap",
                               "4")]) == 0
    assert _tree(tmp_path / "fifo") == _tree(tmp_path / "file")


# ---------------------------------------------------------------- config


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(
        "# synthetic data settings\n"
        "\n"
        "seed = 3\n"
        "sigma = 0.25   # log-normal noise\n")
    flag_args = ["--groups", "intraday_pos:1"]
    a, b, c, d = (tmp_path / name for name in "abcd")
    assert main(["synth", "--config", str(cfg), "--out", str(a),
                 *flag_args]) == 0
    assert main(["synth", "--out", str(b), "--seed", "3", "--sigma", "0.25",
                 *flag_args]) == 0
    # the file stands in for the flags
    assert (a / "bars.csv").read_bytes() == (b / "bars.csv").read_bytes()
    assert main(["synth", "--config", str(cfg), "--out", str(c),
                 "--seed", "7", *flag_args]) == 0
    assert main(["synth", "--out", str(d), "--seed", "7", "--sigma", "0.25",
                 *flag_args]) == 0
    # an explicit flag beats the file
    assert (c / "bars.csv").read_bytes() == (d / "bars.csv").read_bytes()
    assert (c / "bars.csv").read_bytes() != (a / "bars.csv").read_bytes()


def test_run_config_defaults_are_the_analysis_defaults():
    settings = resolve_config(build_parser().parse_args(["run"]))
    assert settings == {}
    assert analysis_config(settings) == AnalysisConfig()


_ANALYSIS_FLAGS = {"-h", "--help", "--config", "--bars", "--calendar",
                   "--halts", "--out", "--seed", "--trend-window",
                   "--lookback-days", "--measure-pre-window", "--post-window",
                   "--cumulative-window", "--max-halt-days",
                   "--max-gap-fraction", "--fit-range", "--min-r2",
                   "--bootstrap"}


def test_each_subcommand_takes_its_flags():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions
                    for flag in action.option_strings}
             for name, sub in commands.items()}
    assert flags == {
        "run": _ANALYSIS_FLAGS,
        "robustness": _ANALYSIS_FLAGS | {"--windows"},
        "counts": _ANALYSIS_FLAGS,
        "fit": _ANALYSIS_FLAGS,
        "synth": {"-h", "--help", "--config", "--out", "--seed", "--groups",
                  "--sigma", "--trend-magnitude", "--lookback-days"},
    }


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "bars = /data/bars.csv\n"
        "fit_range = 2:80\n"
        "windows = 60, 240\n"
        "max_gap_fraction = 0.05\n")
    values = parse_config_file(cfg)
    assert values == {"bars": Path("/data/bars.csv"), "fit_range": (2, 80),
                      "windows": (60, 240), "max_gap_fraction": 0.05}

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="bad_key.cfg:1"):
        parse_config_file(bad_key)
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("seed\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_file(bad_line)
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("min_r2 = lots\n")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_file(bad_value)
    bad_byte = tmp_path / "bad_byte.cfg"
    bad_byte.write_bytes(b"# undecodable byte in a value\nseed = 1\xff\n")
    with pytest.raises(ConfigError,
                       match="^.*bad_byte.cfg:2: seed: not an integer"):
        parse_config_file(bad_byte)


@pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_config_lines_end_only_at_line_ends(tmp_path, mark):
    # str.splitlines would break at these too, and report the bad value
    # as a missing "=" on a line that does not exist
    cfg = tmp_path / "marks.cfg"
    cfg.write_bytes(f"seed = 3{mark}bogus\nmin_r2 = 0.5\n".encode())
    with pytest.raises(ConfigError,
                       match="^.*marks.cfg:1: seed: not an integer"):
        parse_config_file(cfg)
    cfg.write_bytes(b"seed = 3\r\nmin_r2 = 0.5\r# end\n")
    assert parse_config_file(cfg) == {"seed": 3, "min_r2": 0.5}


# ---------------------------------------------------------------- errors


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


@pytest.mark.parametrize("flag", ["--calendar", "--bars"])
def test_missing_input_file_reports_cleanly(synth_inputs, tmp_path, capsys,
                                            flag):
    args = _args(synth_inputs, tmp_path / "out")
    missing = str(tmp_path / "nowhere.txt")
    args[args.index(flag) + 1] = missing
    rc = main(["run", *args])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob == {"error": "FileNotFoundError", "message":
                    f"[Errno 2] No such file or directory: {missing!r}"}


def _bad_byte(data: bytes) -> bytes:
    return data.replace(b"\nSYN", b"\nS\xffN", 1)


def _huge_field(data: bytes) -> bytes:
    return data.replace(b"\n", b"\n" + b"9" * 140_000, 1)


@pytest.mark.parametrize("name, damage", [
    ("bars.csv", _bad_byte), ("halts.csv", _bad_byte),
    ("bars.csv", _huge_field), ("halts.csv", _huge_field),
    ("run.cfg", _bad_byte),
])
def test_unreadable_input_reports_cleanly(synth_inputs, tmp_path, capsys,
                                          name, damage):
    root = tmp_path / "in"
    root.mkdir()
    for path in synth_inputs.iterdir():
        data = path.read_bytes()
        (root / path.name).write_bytes(damage(data) if path.name == name else data)
    extra = []
    if name == "run.cfg":
        config = root / name
        config.write_bytes(damage(b"seed = 9\nSYN = 1\n"))
        extra = ["--config", str(config)]
    rc = main(["run", *extra, *_args(root, tmp_path / "out")])
    assert rc == 1
    blob = _stderr_error(capsys)
    if extra:
        assert blob["error"] == "ConfigError"
        assert blob["message"].startswith(f"{config}:2: ")
    else:
        assert blob["error"] == "MalformedRow"
        assert blob["message"].startswith("line 2: ")


@pytest.mark.parametrize("command", ["run", "counts"])
def test_off_calendar_registry_row_reports_its_line(synth_inputs, tmp_path,
                                                    capsys, command):
    root = tmp_path / "in"
    root.mkdir()
    for path in synth_inputs.iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    halts = (root / "halts.csv").read_text()
    lineno = halts.count("\n") + 1
    (root / "halts.csv").write_text(halts + "SYN0099,2031-01-01,61,"
                                    "2031-01-01,121,0\n")
    rc = main([command, *_args(root, tmp_path / "out")])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob == {"error": "UnknownDay", "message":
                    f"line {lineno}: 2031-01-01 is not a trading day"}


def test_disallowed_trend_window(synth_inputs, tmp_path, capsys):
    rc = main(["run", *_args(synth_inputs, tmp_path / "out",
                             "--trend-window", "90")])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert "trend_window" in blob["message"]


@pytest.mark.parametrize("command, line, message", [
    ("run", "trend_window = 90",
     "trend_window: 90 is not one of (60, 120, 180, 240)"),
    ("robustness", "windows = 60,90",
     "windows: 90 is not one of (60, 120, 180, 240)"),
    ("synth", "groups = foo:1", "groups: bad group name 'foo'"),
])
def test_config_value_errors_report_their_line(synth_inputs, tmp_path, capsys,
                                               command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 9\n{line}\n")
    out = tmp_path / "out"
    args = (["--out", str(out)] if command == "synth"
            else _args(synth_inputs, out))
    assert main([command, "--config", str(cfg), *args]) == 1
    assert _stderr_error(capsys) == {"error": "ConfigError",
                                     "message": f"{cfg}:2: {message}"}
    assert not out.exists()


def test_missing_required_setting(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert blob["message"] == "missing required setting: bars"
    assert main(["synth", "--groups", "intraday_pos:1"]) == 1
    assert _stderr_error(capsys)["message"] == "missing required setting: out"


def test_bad_group_token(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--groups", "sideways_pos:2"])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert "sideways_pos" in blob["message"]


def test_worker_count_key_is_unknown(synth_inputs, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("n_workers = 2\n")
    rc = main(["run", "--config", str(cfg),
               *_args(synth_inputs, tmp_path / "out")])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert "unknown key 'n_workers'" in blob["message"]
    assert not (tmp_path / "out").exists()


def test_bad_robustness_window(flip_inputs, tmp_path, capsys):
    rc = main(["robustness", *_args(flip_inputs, tmp_path / "out",
                                    "--windows", "90")])
    assert rc == 1
    assert "90" in _stderr_error(capsys)["message"]
    rc = main(["robustness", *_args(flip_inputs, tmp_path / "out",
                                    "--windows", ",")])
    assert rc == 1
    assert "no robustness windows" in _stderr_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, needle", [
    ("--fit-range", "200:300", "post window"),
    ("--bootstrap", "-1", "n_bootstrap"),
    ("--lookback-days", "0", "lookback_days"),
    ("--fit-range", "0:10", "fit range"),
    ("--max-gap-fraction", "1.5", "max_gap_fraction"),
    ("--fit-range", "abc", "fit_range"),
    ("--windows", "6x", "windows"),
    # argparse usage errors: a value starting with "-" is read as an
    # option (pass it as --fit-range=-5:10), and an unknown flag
    ("--fit-range", "-5:10", "argument --fit-range: expected one argument"),
    ("--nope", "1", "unrecognized arguments: --nope 1"),
])
def test_bad_analysis_setting_reports_cleanly(synth_inputs, tmp_path, capsys,
                                              flag, value, needle):
    command = "robustness" if flag == "--windows" else "run"
    rc = main([command, *_args(synth_inputs, tmp_path / "out", flag, value)])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert needle in blob["message"]
    assert not (tmp_path / "out").exists()


def _synth_or_run(command, inputs, out, *extra):
    if command == "synth":
        return ["synth", "--out", str(out), *extra]
    return [command, *_args(inputs, out, *extra)]


@pytest.mark.parametrize("command, flag, value, key", [
    ("run", "--lookback-days", "abc", "lookback_days"),
    ("run", "--bootstrap", "2.5", "n_bootstrap"),
    ("synth", "--sigma", "lots", "sigma"),
])
def test_flags_are_parsed_like_file_values(synth_inputs, tmp_path, capsys,
                                           command, flag, value, key):
    out = tmp_path / "out"
    assert main(_synth_or_run(command, synth_inputs, out, flag, value)) == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "ConfigError"
    assert blob["message"].startswith(f"{key}: ")
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("synth", ("--sigma", "-1")),
    ("synth", ("--trend-magnitude", "0")),
    ("synth", ("--groups", "intraday_pos:0")),
    ("synth", ("--seed", "-1")),
    ("run", ("--seed", "-1", "--bootstrap", "5")),
    ("run", ("--seed", "-1", "--bootstrap", "0")),
    ("synth", ("--sigma", "inf")),
    # the calendar would run past date.max; a large valid value is never
    # run here, as it allocates whole-calendar arrays
    ("synth", ("--lookback-days", "100000000")),
])
def test_rejected_settings_report_before_any_work(synth_inputs, tmp_path,
                                                  capsys, command, extra):
    out = tmp_path / "out"
    assert main(_synth_or_run(command, synth_inputs, out, *extra)) == 1
    assert _stderr_error(capsys)["error"] == "ConfigError"
    assert not out.exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: haltstudy run [-h]")
