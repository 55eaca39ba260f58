"""Command-line behavior: subcommands, config layering, error reporting."""

import json
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
from haltstudy.cli import RunConfig, main, parse_config_file
from helpers import add_stock

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


@pytest.fixture(scope="module")
def flip_inputs(tmp_path_factory):
    # stock FLIP trends up for 185 minutes and down for the last 55, so
    # the 60-minute window reads negative while 120/180/240 read
    # positive; stock MONO trends up throughout; a faint alternating
    # wiggle keeps every per-minute baseline positive
    cal = make_calendar(43)
    n = cal.n_minutes
    builder = PanelBuilder(cal)
    for stock_id, down_leg in (("FLIP", 55), ("MONO", 0)):
        inc = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 2e-4
        inc[0] = 0.0
        inc[9660:9900] = 1e-3
        if down_leg:
            inc[9900 - down_leg:9900] = -1e-3
        inc[9900:9960] = 0.0
        add_stock(builder, cal, stock_id, price=10.0 * np.exp(np.cumsum(inc)),
                  volume=100.0, spread=0.02, absent=[slice(9900, 9960)])
    records = [HaltRecord(s, cal.trading_days[41], 61,
                          cal.trading_days[41], 121)
               for s in ("FLIP", "MONO")]
    root = tmp_path_factory.mktemp("flip")
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
    assert RunConfig().analysis() == AnalysisConfig()


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


# ---------------------------------------------------------------- errors


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def test_missing_input_file_reports_cleanly(synth_inputs, tmp_path, capsys):
    args = _args(synth_inputs, tmp_path / "out")
    args[3] = str(tmp_path / "nowhere.txt")     # the calendar path
    rc = main(["run", *args])
    assert rc == 1
    blob = _stderr_error(capsys)
    assert blob["error"] == "FileNotFoundError"
    assert "nowhere.txt" in blob["message"]


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
