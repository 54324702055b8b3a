"""Inputs that are not states or not finite grids raise ValueError (CLI exit 2)."""

import json
import math

import pytest

import quditbloch as qb
from quditbloch.cli import MAX_SWEEP_POINTS, SweepSpec, cli_main


class TestIsotropicDimension:
    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_library_rejects_d_below_two(self, d):
        with pytest.raises(ValueError, match="dimension"):
            qb.isotropic_state(d, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            qb.isotropic_state(d, 0.5, checked=False)
        with pytest.raises(ValueError, match="dimension"):
            qb.hs_measure_isotropic(d, 0.9)
        with pytest.raises(ValueError, match="dimension"):
            qb.classify_isotropic(d, 0.5)

    @pytest.mark.parametrize("argv", [
        ["measure", "--family", "isotropic", "--dim", "1", "--alpha", "0.5"],
        ["measure", "--family", "isotropic", "--dim", "0", "--alpha", "0.5"],
        ["state", "make", "--family", "isotropic", "--dim", "1", "--alpha", "0.5"],
    ])
    def test_cli_exit_code(self, capsys, argv):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dimension must be >= 2" in captured.err

    def test_classify_isotropic_boundaries(self):
        for d in (2, 3, 4):
            lo, threshold = -1 / (d * d - 1), 1 / (d + 1)
            assert qb.classify_isotropic(d, lo - 1e-9) is qb.RegionLabel.UNPHYSICAL
            assert qb.classify_isotropic(d, lo) is qb.RegionLabel.SEPARABLE
            assert qb.classify_isotropic(d, threshold) is qb.RegionLabel.SEPARABLE
            assert qb.classify_isotropic(d, threshold + 1e-9) is qb.RegionLabel.ENTANGLED
            assert qb.classify_isotropic(d, 1.0) is qb.RegionLabel.ENTANGLED
            assert qb.classify_isotropic(d, 1.1) is qb.RegionLabel.UNPHYSICAL
            with pytest.raises(ValueError):
                qb.hs_measure_isotropic(d, threshold)


class TestSweepSpec:
    @pytest.mark.parametrize("steps", [2.5, 2.0, "5"])
    def test_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="integer"):
            SweepSpec("qubit2p", (0, 1, steps), (0, 1, 3))

    @pytest.mark.parametrize("lo,hi", [(0, math.inf), (-math.inf, 1), (math.nan, 1)])
    def test_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec("qubit2p", (0, 1, 3), (lo, hi, 3))

    def test_grid_cap(self):
        # construction only: an oversized grid is never run
        with pytest.raises(ValueError, match="exceeds"):
            SweepSpec("qutrit2p", (0, 1, 10**9), (0, 1, 10**9))
        with pytest.raises(ValueError, match="exceeds"):
            SweepSpec("qutrit2p", (0, 1, MAX_SWEEP_POINTS // 2 + 1), (0, 1, 2))
        SweepSpec("qutrit2p", (0, 1, MAX_SWEEP_POINTS // 2), (0, 1, 2))

    @pytest.mark.parametrize("alpha", [("0", "1", "2.7"), ("0", "inf", "5"), ("nan", "1", "5")])
    def test_cli_exit_code(self, capsys, alpha):
        assert cli_main(["sweep", "--family", "qubit2p", "--alpha", *alpha,
                         "--beta", "0", "1", "3"]) == 2
        assert capsys.readouterr().out == ""


class TestMatrixJson:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        doc = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, bad], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="finite"):
            qb.matrix_from_json(doc)
        doc["re"][0][0], doc["im"][0][1] = bad, 0.0
        with pytest.raises(ValueError, match="finite"):
            qb.matrix_from_json(doc)

    def test_cli_decompose_exit_code(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]],
                                    "im": [[0.0, math.nan], [0.0, 0.0]]}))
        assert cli_main(["decompose", "--kind", "ggb", "--in", str(path)]) == 2
        assert "finite" in capsys.readouterr().err
