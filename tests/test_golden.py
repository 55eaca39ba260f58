"""Golden digests of every file the command line writes for one fixed spec.

A small noisy synthetic dataset goes through ``synth``, ``run
--bootstrap 20`` and ``robustness --windows 60,240``; the SHA-256 of
the bar file, of all eight ``run`` artifacts and of ``sign_flips.csv``
are pinned. A second ``run --fit-range 5:60 --bootstrap 20`` pins the
fits and bootstrap errors off the default fit range. Any change to how
values are computed, ordered or formatted shows up here as a moved
digest. The digests hold for the IEEE double arithmetic of the
numpy/BLAS build they were taken with; a build that rounds a dot
product differently moves the fitted columns.
"""

import hashlib

import pytest

from haltstudy.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

GROUPS = ("intraday_pos:2,intraday_neg:2,oneday_pos:2,oneday_neg:1,"
          "interday_pos:1,interday_neg:2")

GOLDEN = {
    "bars.csv":
        "9f1725ae8468acd559ce14a5a91a83853d6eb2da5304d1e8456c12932a849673",
    "eligibility.csv":
        "da0595017c0659ee8e089dba3aeec0a473a27d6106617011681b899999bd2332",
    "counts.csv":
        "26e9cbaa711c892b0ed924da7092896f733dbb03e40f3cedcd917d6e441361d2",
    "curves.csv":
        "b4b787ca6e5f9eaa910eb3cae550209a6455cf5958f852e79c0d7a845c8e7681",
    "averages.csv":
        "756cea566be149741732ce2cfabda125fd8fd3b1454856a348fcead64e7fcd82",
    "excess.csv":
        "3f67421ccddf0dabbf0c5998bdb16fb934e68bed7c7ba8362e2fddf5993ee476",
    "loglog.csv":
        "f308ec58ad96252dd4bd33ad3af56f8924432d8a3f48e5a75a4d44ad50ad8677",
    "exponents.csv":
        "a4e96c978c0ae5a7b911d39dfc64e63a503aae559c0e7ba14f1d14b70e9eec54",
    "summary.json":
        "21bb1b4f24236d369ae281f1b0e81148794c8f3d62a0cc47d1de033c667f5b87",
    "sign_flips.csv":
        "3cdf36c22e1dd9573f7ae3e52d92be330f6f78db27c4aa0d85f1c2edceb40408",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN_FIT_RANGE = {
    "eligibility.csv": GOLDEN["eligibility.csv"],
    "counts.csv": GOLDEN["counts.csv"],
    "curves.csv": GOLDEN["curves.csv"],
    "averages.csv": GOLDEN["averages.csv"],
    "excess.csv": GOLDEN["excess.csv"],
    "loglog.csv":
        "5476ff7167b9206ba5c809c351bd202f680f4daf3f461cb2da99ae80e7a352dc",
    "exponents.csv":
        "49dfa63244c0f1df0135e521f8fbbc6efdb8972d4e282327521f60af5f888372",
    "summary.json":
        "c06dd0c65475a9e13d30e61efe1767d7feb6fec21feafa5a6dfc6d71cf45fcff",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = root / "in"
    assert main(["synth", "--out", str(data), "--seed", "11",
                 "--groups", GROUPS, "--sigma", "0.1"]) == 0
    return root, ["--bars", str(data / "bars.csv"),
                  "--calendar", str(data / "calendar.txt"),
                  "--halts", str(data / "halts.csv")]


@pytest.fixture(scope="module")
def digests(dataset):
    root, inputs = dataset
    data, run, rob = root / "in", root / "run", root / "rob"
    assert main(["run", *inputs, "--out", str(run), "--bootstrap", "20"]) == 0
    assert main(["robustness", *inputs, "--out", str(rob),
                 "--windows", "60,240", "--bootstrap", "0"]) == 0
    out = {"bars.csv": _sha256(data / "bars.csv"),
           "sign_flips.csv": _sha256(rob / "sign_flips.csv")}
    out.update((path.name, _sha256(path)) for path in run.iterdir())
    return out


def test_every_artifact_matches_its_golden_digest(digests):
    assert digests == GOLDEN


def test_fit_range_run_matches_its_golden_digests(dataset):
    root, inputs = dataset
    run = root / "run_fit_range"
    assert main(["run", *inputs, "--out", str(run), "--fit-range", "5:60",
                 "--bootstrap", "20"]) == 0
    got = {path.name: _sha256(path) for path in run.iterdir()}
    assert got == GOLDEN_FIT_RANGE
