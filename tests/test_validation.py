"""Inputs that are not states or not finite grids raise ValueError (CLI exit 2)."""

import json
import math

import numpy as np
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


class TestOracleInputs:
    @pytest.mark.parametrize("name,matrix", [
        ("nan", np.full((4, 4), np.nan)),
        ("inf", np.diag([np.inf, 0.0, 0.0, 0.0])),
        ("non-Hermitian", np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) / 8),
        ("negative", -np.eye(4) / 4),
        ("trace 2", np.eye(4) / 2),
        ("not PSD", np.diag([1.5, -0.5, 0.0, 0.0])),
        ("not d x d", np.eye(6) / 6),
        ("not square", np.ones((4, 2)) / 4),
    ])
    def test_array_that_is_not_a_state_raises(self, name, matrix):
        with pytest.raises(ValueError):
            qb.nearest_separable_numeric(matrix, qb.GilbertConfig(max_iterations=2))

    def test_array_and_state_give_the_same_bits(self):
        cfg = qb.GilbertConfig(max_iterations=20, seed=4)
        state = qb.isotropic_state(2, 0.9)
        from_state = qb.nearest_separable_numeric(state, cfg)
        from_array = qb.nearest_separable_numeric(np.array(state.matrix), cfg)
        assert from_array.distance == from_state.distance
        assert from_array.gap == from_state.gap
        assert from_array.rho0.matrix.tobytes() == from_state.rho0.matrix.tobytes()


class TestGilbertConfig:
    @pytest.mark.parametrize("kwargs", [
        {"inner_sweeps": 0}, {"inner_sweeps": -3}, {"inner_sweeps": 2.5},
        {"restarts": -1}, {"confirm_restarts": -1}, {"max_iterations": -1},
        {"max_iterations": 10.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
        {"tolerance": -1e-9},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            qb.GilbertConfig(**kwargs)

    def test_accepts_defaults_and_edges(self):
        qb.GilbertConfig()
        qb.GilbertConfig(max_iterations=0, tolerance=0.0, restarts=0, inner_sweeps=1,
                         confirm_restarts=0)
        qb.GilbertConfig(max_iterations=np.int64(3), tolerance=1)

    def test_zero_iterations_returns_first_atom(self):
        res = qb.nearest_separable_numeric(qb.isotropic_state(2, 0.9),
                                           qb.GilbertConfig(max_iterations=0))
        assert not res.converged and res.iterations == 0
        assert res.distance >= qb.hs_measure_isotropic(2, 0.9).distance
