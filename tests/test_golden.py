"""Golden digests of every file the command line writes for one fixed spec.

A small noisy synthetic dataset goes through ``synth``, ``run
--bootstrap 20`` and ``robustness --windows 60,240``; the SHA-256 of
all four ``synth`` files, of all eight ``run`` artifacts and of
``sign_flips.csv`` are pinned. A second ``run --fit-range 5:60 --bootstrap 20`` pins the
fits and bootstrap errors off the default fit range. That spec has one
halt per stock; a multi-halt spec, whose stocks halt every few days
through all six groups, pins ``run --bootstrap 20`` on cells of
several events of one stock each. Any change to how
values are computed, ordered or formatted shows up here as a moved
digest. The digests hold for the IEEE double arithmetic of the
numpy/BLAS build they were taken with; a build that rounds a dot
product differently moves the fitted columns.
"""

import hashlib

import pytest

from haltstudy import write_synthetic_dataset
from haltstudy.cli import main
from helpers import multi_halt_spec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

GROUPS = ("intraday_pos:2,intraday_neg:2,oneday_pos:2,oneday_neg:1,"
          "interday_pos:1,interday_neg:2")

GOLDEN = {
    "bars.csv":
        "9f1725ae8468acd559ce14a5a91a83853d6eb2da5304d1e8456c12932a849673",
    "halts.csv":
        "94a10ebe0902eea15096687173ad31a77e5a489d1c6b20f8a7f70856dec3e08f",
    "calendar.txt":
        "17ddc1a2680f63814b81d4caf8f5e4f25fe289ecb024ae674a31233d93a38bbf",
    "ground_truth.json":
        "241b9fac101fd9d87fcd4368f211dcdd0993c020d662a51fffb311aee011aadf",
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
        "dfe5aea3c259419bdd1e4af83dc589ab8ba75dfd4c4dcd4838e104e5fcbe1d99",
    "exponents.csv":
        "a5b27efe279e77fb8aba558c8e2517c1a749a1cfad9ab40db5dc263d226ba5ff",
    "summary.json":
        "07febd4f7bd495dab890fa682906d1f5846f984c7390cc9de75afd97a7cd23f5",
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
        "a1ea05130d950abba1d5112c73a8261fede0f5b982d0264d70c0cd15aa469fa5",
    "exponents.csv":
        "e23513c37c608a80bdf5b7b2ef3779e139eeb8fb3e3be7fd026df5dab7258648",
    "summary.json":
        "04fda32f6a6cf53fc2ac0b5c7120d72329c4570b84ee46c45644413406df9e98",
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
    out = {"sign_flips.csv": _sha256(rob / "sign_flips.csv")}
    out.update((name, _sha256(data / name)) for name in
               ("bars.csv", "halts.csv", "calendar.txt", "ground_truth.json"))
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


GOLDEN_MULTI = {
    "eligibility.csv":
        "9ef270f1fdf15b42bb641dde7479831cb42f61bdfd8ee3cdb05c994d60ec60e8",
    "counts.csv":
        "06557cab04baefe022c92507f736ce5d1b65b921f8e0d81f85275b9b38ad23f3",
    "curves.csv":
        "8f2d8ee7b4352b359c82875874c0ff7ab4d821683d52d1f8016d5ef0d1c0553e",
    "averages.csv":
        "57c1086e75cf1edc9b8d88b730e6dd7f8470cc2d5fc0dc3ad79ffb0814c7600a",
    "excess.csv":
        "c1930ef0fe292ed6f63534d8e052565fc212756df2b745ce384f71e3b93b7769",
    "loglog.csv":
        "2bace0c5f8011860f1cff87f55093afa54f4aa2b0ec3086607e7b021f54955a4",
    "exponents.csv":
        "51a04905826f617b2f82ea54fa39077a690151c71fd602d2b63d700abeb3f8d6",
    "summary.json":
        "5848d2c9152530691e2cd29b34b18794c5f023597e3acc981e47579eff5f957e",
}


def test_multi_halt_run_matches_its_golden_digests(tmp_path):
    data, run = tmp_path / "in", tmp_path / "run"
    # 4 stocks x 60 days: 5 halts each, 20 events in cells of 3-4
    write_synthetic_dataset(multi_halt_spec(4, 60, seed=23, sigma=0.2), data)
    assert main(["run", "--bars", str(data / "bars.csv"),
                 "--calendar", str(data / "calendar.txt"),
                 "--halts", str(data / "halts.csv"),
                 "--out", str(run), "--bootstrap", "20"]) == 0
    got = {path.name: _sha256(path) for path in run.iterdir()}
    assert got == GOLDEN_MULTI
