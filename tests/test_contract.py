"""Byte contracts of the CLI: sha256 of the sweep and measure outputs.

The CLI promises byte-identical output for identical invocations; these
digests pin that output so a refactor cannot move the last digit of a
17-significant-digit float unnoticed. The sweep CSV digests, of the two demo
grids and two tiny grids, are read from ``perfbench/golden.json``, which the
benchmark checks its sweep workload against.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quditbloch.cli import cli_main

with open(Path(__file__).resolve().parents[1] / "perfbench" / "golden.json") as _fh:
    SWEEP_CSV_SHA256 = json.load(_fh)["sweep_csv_sha256"]


def _sha256_stdout(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _point_ids(cases) -> list:
    """Test ids of digest cases, every field but the digest, so that a
    re-recorded digest keeps its test's name."""
    return ["-".join(map(str, case[:-1])) for case in cases]


def _grid_id(family, alpha, beta) -> str:
    return f"{family}-{alpha[2]}x{beta[2]}"


SWEEP_CSV_CASES = [
    (family, alpha, beta, SWEEP_CSV_SHA256[f"{family} {alpha[2]}x{beta[2]}"])
    for family, alpha, beta in (
        ("qubit2p", ("-1.3", "1.3", "105"), ("-2.2", "1.3", "141")),
        ("qutrit2p", ("-0.4", "1.1", "121"), ("-0.6", "1.2", "145")),
        ("qubit2p", ("-1.3", "1.3", "7"), ("-2.2", "1.3", "9")),
        ("qutrit2p", ("-0.4", "1.1", "9"), ("-0.6", "1.2", "11")),
    )
]


@pytest.mark.parametrize("family,alpha,beta,digest", SWEEP_CSV_CASES,
                         ids=[_grid_id(*case[:3]) for case in SWEEP_CSV_CASES])
def test_sweep_csv_demo_grid(tmp_path, family, alpha, beta, digest):
    path = tmp_path / "plane.csv"
    assert cli_main(["sweep", "--family", family, "--alpha", *alpha, "--beta", *beta,
                     "--format", "csv", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


SWEEP_JSON_CASES = [
    ("qubit2p", ("-1.3", "1.3", "105"), ("-2.2", "1.3", "141"),
     "351df04e226f382599913ec29e41a0e556a6ffc4067581997f5db76bfac2e812"),
    ("qutrit2p", ("-0.4", "1.1", "121"), ("-0.6", "1.2", "145"),
     "1b74669b789378936f09e8858c75db583294e4a5c03999a2845827e1859e9389"),
]


@pytest.mark.parametrize("family,alpha,beta,digest", SWEEP_JSON_CASES,
                         ids=[_grid_id(*case[:3]) for case in SWEEP_JSON_CASES])
def test_sweep_json_demo_grid(capsys, family, alpha, beta, digest):
    # recorded when the JSON sweep was written value by value by _json_dumps
    assert _sha256_stdout(capsys, "sweep", "--family", family, "--alpha", *alpha,
                          "--beta", *beta, "--format", "json") == digest


@pytest.mark.parametrize("argv,digest", [
    (("--family", "qutrit2p", "--alpha", "-0.4", "1.1", "7", "--beta", "-0.6", "1.2", "9"),
     "4f1b1910a42541a0a883aec62d564b426ce7f2951065d2ab13bf68c23ff9f4f7"),
    (("--family", "qubit2p", "--alpha", "-1.3", "1.3", "7", "--beta", "-2.2", "1.3", "9",
      "--outputs", "ppt_min_eigenvalue", "region"),
     "500c22e8fa25e9a531d0a9fe1dddc33a33c564afaeb7c97ab025515a522251d3"),
], ids=["qutrit2p-7x9", "qubit2p-7x9-ppt_min_eigenvalue-region"])
def test_sweep_json(capsys, argv, digest):
    assert _sha256_stdout(capsys, "sweep", *argv, "--format", "json") == digest


@pytest.mark.parametrize("kind,digest", [
    ("ggb", "1cd45f2dda1f921a3ca65fdacd8da61492d5f728a0cae8942c197b73c0e53d5b"),
    ("pob", "df9af617920370cb6c26f23c0e55ae658c8b50460ada6de53b7faa0ad1eccffc"),
    ("wob", "48dae20370156207d52b981dc84eaf92898f2dc44a4d4514a429eda532e74142"),
], ids=["ggb-3", "pob-3", "wob-3"])
def test_basis_dump_csv(capsys, kind, digest):
    # the sweep and basis writers share one CSV formatter
    assert _sha256_stdout(capsys, "basis", "dump", "--kind", kind, "--dim", "3",
                          "--format", "csv") == digest


MEASURE_PLANE_CASES = [
    ("qubit2p", 2.0, 0.0, "a677a5ddb1e392df7c5d0032d4ca45ddeae0026b644519737eef296d2de511ac"),
    ("qubit2p", 0.0, 0.0, "c48c98e71056adab0c96adcc4ee6d5dcd54dabb75654b75e39852dc4bb7b7638"),
    ("qubit2p", 0.8, 0.1, "cf034adea5344d09be6aacecf2c802db67ee0e15e9a92b0564e096f9f1b384bd"),
    ("qubit2p", -0.7, -1.5, "dc641cc038f4b62e4373c208789470c953fdea8f1adf07b6386027a249a08d0e"),
    ("qutrit2p", -0.4, 0.9, "f4876704c38e8145a96ba7cb916c81cc65018a9d26c8286ca49d08a063c27c8f"),
    ("qutrit2p", 0.0, 0.0, "e388f85291de512d0bddc22fbc382cd5d8b66df3f96ea89d564300c9e02386b0"),
    ("qutrit2p", 0.6, 0.0, "a63be0d7e5afee303f1fc5da6b66016eefefa2c34e26b94ea0cffbbe1d49edbd"),
    ("qutrit2p", 0.1, 0.7, "55dc4b212c76106789e0b9addd60566583df1ac8f23f54cdc36b9504036fc4f5"),
]


@pytest.mark.parametrize("family,alpha,beta,digest", MEASURE_PLANE_CASES,
                         ids=_point_ids(MEASURE_PLANE_CASES))
def test_measure_plane_regions(capsys, family, alpha, beta, digest):
    assert _sha256_stdout(capsys, "measure", "--family", family, "--alpha", repr(alpha),
                          "--beta", repr(beta)) == digest


MEASURE_ISOTROPIC_CASES = [
    (2, 0.9, "e4de660cae350090ebc99fc45fc98c458d3d4bdd30b7cbf462ee6488baac4369"),
    (3, 0.85, "9d14962c5100db4f555a4407b5737fa8302e33aeb642f5b4b2d70c8eb1dfe8cd"),
    (4, 0.9, "24dc830b2c575a22166bbda01eacf3db48d93494b7fcec5897ce8baa75161303"),
    (3, 0.2, "bc4e1e44646d7dfddb1904784d9324548db58622db3731df48f25a319036bd2f"),
    (3, -0.5, "9ae441c8b1d115aa48e98fc56dd17b3d137a51b0c2fd72ce3b7e0cc6fe8f06a1"),
]


@pytest.mark.parametrize("dim,alpha,digest", MEASURE_ISOTROPIC_CASES,
                         ids=["isotropic-" + i for i in _point_ids(MEASURE_ISOTROPIC_CASES)])
def test_measure_isotropic(capsys, dim, alpha, digest):
    assert _sha256_stdout(capsys, "measure", "--family", "isotropic", "--dim", str(dim),
                          "--alpha", repr(alpha)) == digest
