"""Byte contracts of the CLI: sha256 of the sweep and measure outputs.

The CLI promises byte-identical output for identical invocations; these
digests pin that output so a refactor cannot move the last digit of a
17-significant-digit float unnoticed. The two demo-grid CSV digests are the
ones the benchmark checks its sweep workload against.
"""

import hashlib

import pytest

from quditbloch.cli import cli_main


def _sha256_stdout(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("family,alpha,beta,digest", [
    ("qubit2p", ("-1.3", "1.3", "105"), ("-2.2", "1.3", "141"),
     "9e3affc671ad82ec3f4ea7fa0ae67482448a0162d96fc4c1e72fcec0f940c841"),
    ("qutrit2p", ("-0.4", "1.1", "121"), ("-0.6", "1.2", "145"),
     "ecd33631708e7645976eb4dde3646f311901a557be80349fa979e25589ed8a54"),
])
def test_sweep_csv_demo_grid(tmp_path, family, alpha, beta, digest):
    path = tmp_path / "plane.csv"
    assert cli_main(["sweep", "--family", family, "--alpha", *alpha, "--beta", *beta,
                     "--format", "csv", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("--family", "qutrit2p", "--alpha", "-0.4", "1.1", "7", "--beta", "-0.6", "1.2", "9"),
     "4f1b1910a42541a0a883aec62d564b426ce7f2951065d2ab13bf68c23ff9f4f7"),
    (("--family", "qubit2p", "--alpha", "-1.3", "1.3", "7", "--beta", "-2.2", "1.3", "9",
      "--outputs", "ppt_min_eigenvalue", "region"),
     "500c22e8fa25e9a531d0a9fe1dddc33a33c564afaeb7c97ab025515a522251d3"),
])
def test_sweep_json(capsys, argv, digest):
    assert _sha256_stdout(capsys, "sweep", *argv, "--format", "json") == digest


@pytest.mark.parametrize("kind,digest", [
    ("pob", "df9af617920370cb6c26f23c0e55ae658c8b50460ada6de53b7faa0ad1eccffc"),
    ("wob", "48dae20370156207d52b981dc84eaf92898f2dc44a4d4514a429eda532e74142"),
])
def test_basis_dump_csv(capsys, kind, digest):
    # the sweep and basis writers share one CSV formatter
    assert _sha256_stdout(capsys, "basis", "dump", "--kind", kind, "--dim", "3",
                          "--format", "csv") == digest


@pytest.mark.parametrize("family,alpha,beta,digest", [
    ("qubit2p", 2.0, 0.0, "a677a5ddb1e392df7c5d0032d4ca45ddeae0026b644519737eef296d2de511ac"),
    ("qubit2p", 0.0, 0.0, "c48c98e71056adab0c96adcc4ee6d5dcd54dabb75654b75e39852dc4bb7b7638"),
    ("qubit2p", 0.8, 0.1, "38e9db7d42316cb243353b138823af5cfc905077dfe66b0d5f00df2ef7bd1c57"),
    ("qubit2p", -0.7, -1.5, "319c8e0042514fddcfa205197aeb490f6947ae5a893b75e1a916a844473311d9"),
    ("qutrit2p", -0.4, 0.9, "f4876704c38e8145a96ba7cb916c81cc65018a9d26c8286ca49d08a063c27c8f"),
    ("qutrit2p", 0.0, 0.0, "e388f85291de512d0bddc22fbc382cd5d8b66df3f96ea89d564300c9e02386b0"),
    ("qutrit2p", 0.6, 0.0, "20e3ab0fe575381d61d891a8b11a9d26ab000d2220d2ff6ab15521379a8e3f4f"),
    ("qutrit2p", 0.1, 0.7, "62a9c91d8e313740a377daf948c2b319f9ded59643dbcf1b5dd824cb6260374a"),
])
def test_measure_plane_regions(capsys, family, alpha, beta, digest):
    assert _sha256_stdout(capsys, "measure", "--family", family, "--alpha", repr(alpha),
                          "--beta", repr(beta)) == digest


@pytest.mark.parametrize("dim,alpha,digest", [
    (2, 0.9, "eede6e6f5ff1eba1361c8eb656341f9bf98eadbcc8eaacaba84552b8d58ff169"),
    (3, 0.85, "3c85eae3b5c4ed311e79b4d868880ca2f1c11754e39ec5e95d87c06db52482af"),
    (4, 0.9, "cd0ad5a809fc45e0f9ab182b8fd8eb5ecc56bfdb46b0f7a33121c00d404d1c22"),
    (3, 0.2, "bc4e1e44646d7dfddb1904784d9324548db58622db3731df48f25a319036bd2f"),
    (3, -0.5, "9ae441c8b1d115aa48e98fc56dd17b3d137a51b0c2fd72ce3b7e0cc6fe8f06a1"),
])
def test_measure_isotropic(capsys, dim, alpha, digest):
    assert _sha256_stdout(capsys, "measure", "--family", "isotropic", "--dim", str(dim),
                          "--alpha", repr(alpha)) == digest
