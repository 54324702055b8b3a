import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import quditbloch as qb
from quditbloch import cli
from quditbloch.cli import _csv_blocks, _fmt, _json_dumps, _label_str, cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qutrit_sweep_peak(tmp_path, fmt, beta_steps):
    """The tracemalloc peak of a qutrit sweep of 121 alpha steps and
    ``beta_steps`` beta rows written to a file, after a small sweep has filled
    the caches."""
    def sweep(alpha, beta):
        return cli_main(["sweep", "--family", "qutrit2p", "--alpha", "-0.4", "1.1", alpha,
                         "--beta", "-0.6", "1.2", beta, "--format", fmt,
                         "--out", str(tmp_path / f"plane.{fmt}")])

    assert sweep("3", "3") == 0
    tracemalloc.start()
    try:
        assert sweep("121", beta_steps) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def qutrit_csv_peak(tmp_path_factory):
    """``qutrit_sweep_peak`` of the demo-grid CSV (121 x 145), traced once for
    every test that bounds it."""
    return qutrit_sweep_peak(tmp_path_factory.mktemp("sweep"), "csv", "145")


class TestBasisDump:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "dump", "--kind", "wob", "--dim", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3 and doc["ortho_const"] == 3
        assert len(doc["elements"]) == 9
        assert doc["elements"][0]["label"] == "0:0"
        first = qb.matrix_from_json(doc["elements"][0]["matrix"])
        assert np.abs(first - np.eye(3)).max() < 1e-15

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "dump", "--kind", "ggb", "--dim", "2",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "row", "col", "re", "im"]
        assert len(rows) == 1 + 4 * 4

    @pytest.mark.parametrize("kind", ["ggb", "pob", "wob"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_csv_has_no_negative_zero(self, capsys, kind, d):
        code, out, _ = run_cli(capsys, "basis", "dump", "--kind", kind, "--dim", str(d),
                               "--format", "csv")
        assert code == 0
        cells = [c for row in list(csv.reader(io.StringIO(out)))[1:] for c in row[3:]]
        assert not [c for c in cells if float(c) == 0 and c.startswith("-")]

    def test_bad_dim(self, capsys):
        code, _, err = run_cli(capsys, "basis", "dump", "--kind", "ggb", "--dim", "1")
        assert code == 2 and "error" in err


class TestStateMakeAndDecompose:
    def test_pipeline(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _, _ = run_cli(capsys, "state", "make", "--family", "isotropic",
                             "--dim", "2", "--alpha", "0.5", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "decompose", "--kind", "ggb", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4 and len(doc["labels"]) == 15
        assert doc["is_physical"] is True
        rho = qb.isotropic_state(2, 0.5)
        assert doc["purity"] == pytest.approx(qb.purity(rho), abs=1e-12)
        assert doc["radius"] == pytest.approx(
            qb.bloch_encode(rho.matrix, "ggb").radius, abs=1e-12)

    def test_expval_convention(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        run_cli(capsys, "state", "make", "--family", "bell", "--dim", "2",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "decompose", "--kind", "wob", "--in", str(path),
                               "--convention", "expval")
        assert code == 0
        assert json.loads(out)["convention"] == "expval"

    def test_unphysical_rejected_and_unchecked(self, capsys):
        code, _, err = run_cli(capsys, "state", "make", "--family", "qubit2p",
                               "--alpha", "-0.9", "--beta", "0")
        assert code == 2 and "unphysical" in err
        code, out, _ = run_cli(capsys, "state", "make", "--family", "qubit2p",
                               "--alpha", "-0.9", "--beta", "0", "--unchecked")
        assert code == 0
        mat = qb.matrix_from_json(json.loads(out))
        assert np.linalg.eigvalsh(mat)[0] < -1e-3

    def test_weylproj(self, capsys):
        code, out, _ = run_cli(capsys, "state", "make", "--family", "weylproj",
                               "--dim", "3", "--n", "1", "--k", "0")
        assert code == 0
        mat = qb.matrix_from_json(json.loads(out))
        assert np.abs(mat - qb.weyl_bell_projector(3, 1, 0).matrix).max() < 1e-15

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--kind", "ggb", "--in", "/nonexistent.json")
        assert code == 2 and "/nonexistent.json" in err

    @pytest.mark.parametrize("excess,code", [(5e-11, 0), (-5e-11, 0), (5e-10, 2), (-5e-10, 2),
                                             (5e-9, 2)])
    def test_trace_bound_is_tol_trace(self, capsys, tmp_path, excess, code):
        # decompose accepts |tr - 1| <= TOL_TRACE (1e-10), the bound of every
        # other unit-trace check; 5e-9 passed the looser 1e-8 it used to have
        mat = np.diag([0.5 + excess, 0.5])
        assert (abs(np.trace(mat) - 1) <= qb.TOL_TRACE) == (code == 0)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(qb.matrix_to_json(mat)))
        got, out, err = run_cli(capsys, "decompose", "--kind", "ggb", "--in", str(path))
        assert got == code
        if code:
            assert out == "" and "trace" in err
        else:
            assert json.loads(out)["dim"] == 2


class TestMeasure:
    def test_isotropic(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "isotropic",
                               "--dim", "3", "--alpha", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["region"] == "Entangled"
        assert doc["D"] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert doc["B"] == pytest.approx(doc["D"], abs=1e-10)
        assert doc["witness"]["verdict"] == "Witness"

    def test_qubit_plane_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "qubit2p",
                               "--alpha", "1.0", "--beta", "0.0")
        doc = json.loads(out)
        assert code == 0
        assert doc["region"] == "EntangledRegionI"
        assert doc["D"] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_separable_point(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "qubit2p",
                               "--alpha", "0.0", "--beta", "0.0")
        doc = json.loads(out)
        assert code == 0
        assert doc["region"] == "Separable" and doc["D"] is None

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "isotropic",
                               "--dim", "2", "--alpha", "1.0", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["oracle_D"] == pytest.approx(doc["D"], abs=1e-3)

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--family", "qubit2p", "--alpha", "0.5")
        assert code == 1 and "usage" in err

    def test_point_beyond_the_bound_exits_2_without_warnings(self, capsys):
        # finite, but above linalg.MAX_ENTRY: refused where it enters
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "measure", "--family", "qutrit2p",
                                     "--alpha", "1e308", "--beta", "1e308")
        assert (code, out) == (2, "")
        assert "must be finite" in err


class TestSweep:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "qubit2p",
                               "--alpha", "-1.2", "1.2", "5",
                               "--beta", "-1.2", "1.2", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha", "beta", "region", "D", "min_eig", "ppt_min_eig"]
        assert len(rows) == 1 + 25
        center = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert center[0][2] == "Separable" and center[0][3] == ""

    def test_beta_major_order_and_known_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "qubit2p",
                               "--alpha", "0", "1", "2", "--beta", "-1", "0", "2",
                               "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0, -1), (1, -1), (0, 0), (1, 0)]
        last = rows[-1]
        assert last[2] == "EntangledRegionI"
        assert float(last[3]) == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_qutrit_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "qutrit2p",
                               "--alpha", "0", "1", "2", "--beta", "0", "1", "2",
                               "--format", "csv")
        rows = {(float(r[0]), float(r[1])): r for r in list(csv.reader(io.StringIO(out)))[1:]}
        assert float(rows[(1.0, 0.0)][3]) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--family", "qutrit2p", "--alpha", "-0.2", "1", "4",
                "--beta", "-0.4", "1", "4", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "qubit2p",
                               "--alpha", "0", "1", "3", "--beta", "0", "1", "3",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["columns"] == ["alpha", "beta", "region", "D", "min_eig", "ppt_min_eig"]
        assert len(doc["rows"]) == 9

    def test_spec_validation(self, capsys):
        # a refused grid exits 2 with one error line and nothing on stdout
        for alpha, message in ((("0", "1", "1"), "alpha steps must be an integer >= 2, got 1"),
                               (("1", "0", "5"), "alpha range needs min < max, got [1.0, 0.0]"),
                               (("1", "1", "5"), "alpha range needs min < max, got [1.0, 1.0]")):
            assert run_cli(capsys, "sweep", "--family", "qubit2p", "--alpha", *alpha,
                           "--beta", "0", "1", "5") == (2, "", f"error: {message}\n")
        # a family with no plane is argparse's usage error
        code, out, err = run_cli(capsys, "sweep", "--family", "heisenberg",
                                 "--alpha", "0", "1", "5", "--beta", "0", "1", "5")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --family: invalid choice: 'heisenberg'")

    def test_boundaries_within_one_cell(self, capsys):
        # region transitions recovered from the dataset sit within one grid
        # cell of the analytic boundary lines
        code, out, _ = run_cli(capsys, "sweep", "--family", "qubit2p",
                               "--alpha", "-1.2", "1.2", "41", "--beta", "-1.2", "1.2", "41")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 41 * 41
        cell = 2.4 / 40
        for row in rows:
            a, b = float(row["alpha"]), float(row["beta"])
            if row["region"] == "EntangledRegionI":
                assert a > b / 3 + 1 / 3 - cell
            elif row["region"] == "Separable":
                assert a <= b / 3 + 1 / 3 + cell
                assert a >= -b - 1 - cell

    def test_sweep_memory_is_one_row(self, tmp_path, qutrit_csv_peak):
        # the sweep holds one beta row at a time, so four times the rows leave
        # the peak where it was (0.79 and 0.80 MB); whole-grid region and D
        # arrays took it from 0.97 to 2.67 MB
        large = qutrit_sweep_peak(tmp_path, "csv", "580")
        assert large - qutrit_csv_peak < 0.25e6


class TestCsvWriter:
    # _csv_blocks fills one row template and quotes nothing, so no cell it is
    # given may hold a character that csv.writer would quote
    QUOTED = set(',"\r\n')

    def test_no_cell_needs_quoting(self):
        cells = [label.value for label in qb.RegionLabel]
        for kind in qb.BasisKind:
            for d in range(2, 7):
                cells += [_label_str(lab) for lab in qb.get_basis(kind, d).labels]
        tiny = np.finfo(float).smallest_subnormal
        floats = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 2.2e-308,
                  np.finfo(float).tiny, np.finfo(float).max, np.finfo(float).min,
                  np.finfo(float).eps, np.float64(-tiny)]
        cells += [_fmt(v) for v in floats]
        assert not [c for c in cells if self.QUOTED & set(c)]

    @pytest.mark.parametrize("header,columns", [
        (["x", "y"], [["1.5", "", "-0", "", "nan"], ["", "", "2", "", ""]]),
        (["x"], [[0, 3, -2]]),
        (["x", "y"], [[""], [""]]),
        (["label", "row", "re", "im"],
         [["I", "s:0:1", "0:2"], [0, 1, 12], ["", "-inf", ""], ["", "", ""]]),
    ])
    def test_matches_csv_writer(self, header, columns):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))
        assert "".join(_csv_blocks(header, [zip(*columns)])) == out.getvalue()


class TestStreamedOutput:
    """``sweep`` and ``basis dump`` write one block at a time: the bytes of the
    whole document, in a memory that does not hold it."""

    @staticmethod
    def reference(kind, d, fmt):
        basis = qb.get_basis(kind, d)
        if fmt == "json":
            doc = {"kind": kind.value, "dim": d, "ortho_const": basis.ortho_const,
                   "elements": [{"label": _label_str(lab), "matrix": qb.matrix_to_json(el)}
                                for lab, el in zip(basis.labels, basis.elements)]}
            return _json_dumps(doc) + "\n"
        rows = [(_label_str(lab), r, c, _fmt(el[r, c].real), _fmt(el[r, c].imag))
                for lab, el in zip(basis.labels, basis.elements)
                for r in range(d) for c in range(d)]
        return "".join(_csv_blocks(["label", "row", "col", "re", "im"], [rows]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", list(qb.BasisKind))
    def test_basis_dump_bytes(self, capsys, tmp_path, kind, d, fmt):
        argv = ("basis", "dump", "--kind", kind.value, "--dim", str(d), "--format", fmt)
        expected = self.reference(kind, d, fmt)
        assert run_cli(capsys, *argv) == (0, expected, "")
        path = tmp_path / f"basis.{fmt}"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_peak_memory(self, tmp_path, qutrit_csv_peak, fmt):
        # the demo qutrit grid, 17,545 points: the peak is about 0.8 MB in
        # either format; a whole document in memory took it to 5.1 MB (CSV)
        # and 9.5 MB (JSON), and a dict per point to 10.7 MB (CSV)
        peak = qutrit_csv_peak if fmt == "csv" else qutrit_sweep_peak(tmp_path, fmt, "145")
        assert peak < 2e6

    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "qubit2p", "--alpha", "0", "1", "3", "--beta", "0", "1", "3"),
        ("basis", "dump", "--kind", "wob", "--dim", "3"),
    ])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output file")
        assert not path.parent.exists()


class TestDimensionBound:
    """A dimension above MAX_DIM is a domain error (exit 2), raised before the
    basis is built: at d = 400 a GGB or POB stack would take 410 GB."""

    @pytest.mark.parametrize("argv", [
        ("basis", "dump", "--kind", "pob", "--dim", "400"),
        ("basis", "dump", "--kind", "ggb", "--dim", "65", "--format", "csv"),
        ("measure", "--family", "isotropic", "--dim", "65", "--alpha", "0.9"),
        ("state", "make", "--family", "bell", "--dim", "65"),
    ])
    def test_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: dimension must be >= 2 and <= 64")


class TestOracleSeed:
    """--seed belongs to the oracle: without --oracle it is a usage error."""

    @pytest.mark.parametrize("family", [("isotropic", "--dim", "3", "--alpha", "0.9"),
                                        ("qubit2p", "--alpha", "0.0", "--beta", "0.0")])
    def test_seed_needs_oracle(self, capsys, family):
        code, out, err = run_cli(capsys, "measure", "--family", *family, "--seed", "3")
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "--oracle" in err

    def test_default_seed_is_zero(self, capsys):
        argv = ("measure", "--family", "isotropic", "--dim", "2", "--alpha", "1.0", "--oracle")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "basis", "dump", "--kind", "ggb", "--dim", "3",
                       "--frobnicate")[0] == 1

    def test_bad_choice(self, capsys):
        assert run_cli(capsys, "basis", "dump", "--kind", "pauli", "--dim", "2")[0] == 1


class TestFormatting:
    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "measure", "--family", "qubit2p",
                            "--alpha", "1.0", "--beta", "0.0")
        expected = format(np.sqrt(3) / 2 * (1 - 1 / 3), ".17g")
        assert len(expected.lstrip("0.")) >= 17
        assert f'"D": {expected}' in out

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out and out.count("PASS") == 4


class TestNegativeExponentArguments:
    def test_measure_reads_exponent_form(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--family", "qubit2p",
                                 "--alpha", "-5.5e-05", "--beta", "-1.5")
        assert code == 0 and err == ""
        assert run_cli(capsys, "measure", "--family", "qubit2p",
                       "--alpha=-5.5e-05", "--beta=-1.5") == (0, out, "")

    @pytest.mark.parametrize("alpha,beta", [
        (("-1e-1", "1.3", "5"), ("-2.2E0", "1.3", "3")),
        (("-.5e+0", "1e0", "4"), ("-22e-1", "-1.3e-1", "3")),
    ])
    def test_sweep_ranges_read_exponent_form(self, capsys, alpha, beta):
        code, out, _ = run_cli(capsys, "sweep", "--family", "qubit2p",
                               "--alpha", *alpha, "--beta", *beta)
        assert code == 0
        plain = [repr(float(x)) for x in alpha], [repr(float(x)) for x in beta]
        assert run_cli(capsys, "sweep", "--family", "qubit2p", "--alpha", *plain[0],
                       "--beta", *plain[1]) == (0, out, "")

    def test_option_names_still_options(self, capsys):
        for token in ("-e5", "-x"):
            assert run_cli(capsys, "measure", "--family", "qubit2p", "--alpha", token,
                           "--beta", "0")[0] == 1

    @pytest.mark.parametrize("token", ["-1.", "-1.e-1", "-Infinity", "-nan", "-1_0"])
    def test_every_float_spelling_is_a_number(self, capsys, token):
        # a token that float() reads and that starts with "-" is a number, and
        # exits as its positive spelling does: 0 if finite, 2 if not
        code = 0 if math.isfinite(float(token)) else 2
        for beta in (token, token[1:]):
            assert run_cli(capsys, "measure", "--family", "qubit2p", "--alpha", "0",
                           "--beta", beta)[0] == code
        assert run_cli(capsys, "sweep", "--family", "qubit2p", "--alpha", token, "1", "3",
                       "--beta", "0", "1", "3")[0] == code


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "quditbloch", *argv],
                          capture_output=True, text=True, env=env, check=False, timeout=60)


class TestModuleEntryPoint:
    def test_python_m_quditbloch(self, capsys):
        argv = ["measure", "--family", "isotropic", "--dim", "3", "--alpha", "0.9"]
        proc = run_module(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(capsys, *argv)[1]

    def test_package_import_loads_no_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, quditbloch; "
             "print(sorted({'quditbloch.cli', 'argparse'} & sys.modules.keys()))"],
            capture_output=True, text=True, env=env, check=False, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_module_exit_code(self):
        proc = run_module("frobnicate")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("usage error:")

    def test_reader_closing_the_pipe_early(self):
        # as `sweep | head -1`: the demo grid's 1.2 MB does not fit the pipe,
        # so writing stops at the closed pipe, with exit 0 and no traceback
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "quditbloch", "sweep", "--family", "qubit2p",
                                 "--alpha", "-1.3", "1.3", "105", "--beta", "-2.2", "1.3", "141"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"alpha,beta,region,D,min_eig,ppt_min_eig\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "qubit2p", "--alpha", "0", "1", "3", "--beta", "0", "1", "3"],
        ["measure", "--family", "isotropic", "--dim", "3", "--alpha", "0.9"],
        ["selftest"]], ids=["sweep", "measure", "selftest"])
    def test_full_stdout(self, argv):
        # a write error on stdout other than a closed pipe exits 2, with one
        # line on stderr and no traceback from the flush at exit
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "quditbloch", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write to standard output: ")
        assert proc.stderr.count("\n") == 1


class TestMissingFamilyParameters:
    """Each family's required parameters, checked by one rule in state make
    and measure alike: exit 1, nothing on stdout, a usage error on stderr."""

    @pytest.mark.parametrize("family,given,missing", [
        ("isotropic", (), ("--alpha",)),
        ("qubit2p", ("--alpha", "0.3"), ("--beta",)),
        ("qubit2p", ("--beta", "0.2"), ("--alpha",)),
        ("qubit2p", (), ("--alpha", "--beta")),
        ("qutrit2p", ("--alpha", "0.3"), ("--beta",)),
        ("qutrit2p", ("--beta", "0.2"), ("--alpha",)),
        ("qutrit2p", (), ("--alpha", "--beta")),
        ("weylproj", ("--n", "1"), ("--k",)),
        ("weylproj", ("--k", "1"), ("--n",)),
        ("weylproj", (), ("--n", "--k")),
    ])
    def test_state_make(self, capsys, family, given, missing):
        code, out, err = run_cli(capsys, "state", "make", "--family", family,
                                 "--dim", "3", *given)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")
        assert all(flag in err for flag in missing)

    @pytest.mark.parametrize("family,given,missing", [
        ("isotropic", ("--dim", "3"), ("--alpha",)),
        ("qubit2p", ("--alpha", "0.5"), ("--beta",)),
        ("qubit2p", ("--beta", "0.5"), ("--alpha",)),
        ("qubit2p", (), ("--alpha", "--beta")),
        ("qutrit2p", ("--alpha", "0.5"), ("--beta",)),
        ("qutrit2p", ("--beta", "0.5"), ("--alpha",)),
        ("qutrit2p", ("--oracle",), ("--alpha", "--beta")),
    ])
    def test_measure(self, capsys, family, given, missing):
        code, out, err = run_cli(capsys, "measure", "--family", family, *given)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")
        assert all(flag in err for flag in missing)


class TestWitnessNearRegionLines:
    """Entangled plane points within rounding of a region line have D below
    TOL_WIT, so the one verdict rule gives Inconclusive. Each region's one
    witness operator is built a unit away from its line, so no point divides
    rounding by its D."""

    def test_qutrit_plane_point_near_line_i(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "qutrit2p",
                               "--alpha=0.2706632663061225", "--beta=0.16530612244897958")
        assert code == 0
        assert json.loads(out)["witness"]["verdict"] == "Inconclusive"

    def test_qubit_plane_point_near_line_ii(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "qubit2p",
                               "--alpha=-0.25000000001", "--beta=-0.75")
        assert code == 0
        assert json.loads(out)["witness"]["verdict"] == "Inconclusive"


class TestExtraFamilyParameters:
    """A parameter the family does not take, given to state make or measure,
    exits 1 with a usage error that names it; nothing goes to stdout."""

    MAKE = {"bell": (), "isotropic": ("--alpha", "0.5"),
            "qubit2p": ("--alpha", "0.1", "--beta", "0.2"),
            "qutrit2p": ("--alpha", "0.1", "--beta", "0.7"),
            "weylproj": ("--dim", "3", "--n", "1", "--k", "0")}
    MEASURE = {"isotropic": ("--dim", "3", "--alpha", "0.9"),
               "qubit2p": ("--alpha", "1.0", "--beta", "0.0"),
               "qutrit2p": ("--alpha", "0.1", "--beta", "0.7")}

    @pytest.mark.parametrize("family,extra,flags", [
        ("bell", ("--alpha", "0.5"), "--alpha"),
        ("bell", ("--n", "1"), "--n"),
        ("bell", ("--unchecked",), "--unchecked"),
        ("isotropic", ("--beta", "0.4"), "--beta"),
        ("isotropic", ("--k", "0"), "--k"),
        ("qubit2p", ("--dim", "3"), "--dim"),
        ("qubit2p", ("--n", "0"), "--n"),
        ("qutrit2p", ("--dim", "5"), "--dim"),
        ("qutrit2p", ("--k", "2"), "--k"),
        ("weylproj", ("--alpha", "0.5"), "--alpha"),
        ("weylproj", ("--unchecked",), "--unchecked"),
        ("weylproj", ("--beta", "0", "--unchecked"), "--beta or --unchecked"),
    ])
    def test_state_make(self, capsys, family, extra, flags):
        code, out, err = run_cli(capsys, "state", "make", "--family", family,
                                 *self.MAKE[family], *extra)
        assert (code, out) == (1, "")
        assert err == f"usage error: {family} takes no {flags}\n"

    @pytest.mark.parametrize("family,extra,flags", [
        ("isotropic", ("--beta", "0.4"), "--beta"),
        ("isotropic", ("--n", "1"), "--n"),
        ("qubit2p", ("--dim", "3"), "--dim"),
        ("qubit2p", ("--k", "0"), "--k"),
        ("qutrit2p", ("--dim", "3"), "--dim"),
        ("qutrit2p", ("--n", "0", "--k", "0"), "--n or --k"),
    ])
    def test_measure(self, capsys, family, extra, flags):
        code, out, err = run_cli(capsys, "measure", "--family", family,
                                 *self.MEASURE[family], *extra)
        assert (code, out) == (1, "")
        assert err == f"usage error: {family} takes no {flags}\n"


class TestFailedAllocation:
    """A MemoryError is a domain error (exit 2), not a usage error."""

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "MemoryError"),
    ])
    def test_exit_code(self, capsys, monkeypatch, exc, message):
        def allocate(*args):
            raise exc

        monkeypatch.setattr("quditbloch.cli.hs_measure_isotropic", allocate)
        code, out, err = run_cli(capsys, "measure", "--family", "isotropic",
                                 "--dim", "3", "--alpha", "0.9")
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestNegativeSeed:
    """A seed is an integer >= 0: a negative one exits 2 with nothing on stdout."""

    @pytest.mark.parametrize("family", [("isotropic", "--dim", "2", "--alpha", "0.9"),
                                        ("qubit2p", "--alpha", "0.0", "--beta", "0.0")])
    def test_measure_names_the_seed(self, capsys, family):
        # also at a separable point, where the oracle does not run
        code, out, err = run_cli(capsys, "measure", "--family", *family,
                                 "--oracle", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be an integer >= 0, got -1\n")

    def test_selftest_prints_no_table(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_selftest_names_the_seed(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be an integer >= 0, got -1\n")


class TestSelftestFailure:
    def test_check_over_its_bound_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_selftest_checks",
                            lambda seed: [("over its bound", lambda: (1.0, 0.5))])
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert out.splitlines()[1].split() == ["over", "its", "bound", "1.000e+00", "5e-01",
                                               "FAIL"]


class TestNonFiniteJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf")])
    def test_raises(self, value):
        with pytest.raises(ValueError, match="not finite"):
            cli._json_dumps({"radius": value})

    def test_finite_floats_keep_their_digits(self):
        assert cli._json_dumps([0.1, np.float64(-2.5e-300)]) == "[0.10000000000000001, -2.5e-300]"
