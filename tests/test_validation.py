"""Inputs that are not states or not finite grids raise ValueError (CLI exit 2)."""

import functools
import json
import math
import pickle
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import quditbloch as qb
from quditbloch.bases import MAX_DIM
from quditbloch.cli import MAX_SWEEP_POINTS, _grid_axes, cli_main
from quditbloch.linalg import MAX_ENTRY

# one step past the magnitude bound of matrix entries and family parameters
PAST_BOUND = float(np.nextafter(MAX_ENTRY, np.inf))


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


class TestDimensionBound:
    """One dimension rule, 2..MAX_DIM, checked before anything is built."""

    @pytest.mark.parametrize("build", [
        functools.partial(qb.get_basis, "ggb"),
        functools.partial(qb.get_basis, "pob"),
        functools.partial(qb.get_basis, "wob"),
        qb.bell_state,
        lambda d: qb.isotropic_state(d, 0.5),
        lambda d: qb.composite_operator("lambda", d),
    ], ids=["ggb", "pob", "wob", "bell_state", "isotropic_state", "composite_operator"])
    def test_above_max_dim(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"dimension must be >= 2 and <= {MAX_DIM}"):
                build(MAX_DIM + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bell_state_takes_integers_only(self):
        with pytest.raises(ValueError, match="an integer"):
            qb.bell_state(2.0)


class TestSamplerAndProjectorRules:
    """The random samplers check the dimension rule before their first draw,
    and the Weyl Bell projector checks it before its index rule."""

    @pytest.mark.parametrize("d", [0, 1, MAX_DIM + 1, 2.0])
    def test_dimension(self, d):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for build in (lambda: qb.random_density_matrix(d, rng),
                      lambda: qb.random_ket(d, rng),
                      lambda: qb.sample_separable(d, rng),
                      lambda: qb.sample_separable(d, rng, mixture_count=0),
                      lambda: qb.weyl_bell_projector(d, 0, 0)):
            with pytest.raises(ValueError, match=f"dimension must be >= 2 and <= {MAX_DIM}"):
                build()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mixture_count", [True, np.True_, 2.5, "3", 0, np.int64(-1)])
    def test_mixture_count(self, mixture_count):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mixture_count must be an integer >= 1"):
            qb.sample_separable(2, rng, mixture_count)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", [True, np.True_, -1, 2.5, "3", None])
    def test_separable_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            qb.sample_separable(2, seed)

    def test_separable_numpy_integers(self):
        a = qb.sample_separable(3, np.int64(5), np.int32(2))
        assert np.array_equal(a.matrix, qb.sample_separable(3, 5, 2).matrix)

    @pytest.mark.parametrize("n,k", [(0.5, 0), (0, 0.5), (3, 0), (0, -1), (True, 0)])
    def test_projector_index(self, n, k):
        with pytest.raises(ValueError, match="projector indices must be integers in 0..2"):
            qb.weyl_bell_projector(3, n, k)


class TestSweepSpec:
    """The sweep's grid spec, ``--alpha`` and ``--beta`` MIN MAX STEPS: a
    refused grid exits 2 with nothing on stdout and one error line."""

    @staticmethod
    def error(capsys, alpha, beta=("0", "1", "3")):
        assert cli_main(["sweep", "--family", "qutrit2p", "--alpha", *alpha,
                         "--beta", *beta]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    @pytest.mark.parametrize("steps", [2.5, math.inf])
    def test_non_integer_steps(self, capsys, steps):
        assert self.error(capsys, ("0", "1", repr(steps))) == (
            f"error: alpha steps must be an integer >= 2, got {steps!r}\n")

    @pytest.mark.parametrize("lo,hi", [(0, math.inf), (-math.inf, 1), (math.nan, 1),
                                       (-1e308, 1e308), (0, PAST_BOUND)])
    def test_non_finite_bounds(self, capsys, lo, hi):
        err = self.error(capsys, ("0", "1", "3"), (repr(lo), repr(hi), "3"))
        end, value = ("min", lo) if not abs(lo) <= MAX_ENTRY else ("max", hi)
        bound = f" and at most {MAX_ENTRY:g} in magnitude" if math.isfinite(value) else ""
        assert err == f"error: beta {end} must be finite{bound}, got {value}\n"

    def test_grid_cap(self, capsys):
        # the checks alone at the cap: a 10^6-point grid is never run
        assert _grid_axes((0.0, 1.0, float(MAX_SWEEP_POINTS // 2)), (0.0, 1.0, 2.0)) == [
            (0.0, 1.0, MAX_SWEEP_POINTS // 2), (0.0, 1.0, 2)]
        assert self.error(capsys, ("0", "1", str(MAX_SWEEP_POINTS // 2 + 1)), ("0", "1", "2")) == (
            f"error: sweep grid of {MAX_SWEEP_POINTS + 2} points exceeds {MAX_SWEEP_POINTS}\n")
        # refused before any coordinate is made
        tracemalloc.start()
        try:
            err = self.error(capsys, ("0", "1", "1e9"), ("0", "1", "1e9"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err == f"error: sweep grid of {10**18} points exceeds {MAX_SWEEP_POINTS}\n"
        assert peak < 1_000_000

    @pytest.mark.parametrize("alpha", [("0", "1", "2.7"), ("0", "inf", "5"), ("nan", "1", "5"),
                                       ("-1e308", "1e308", "2"), ("0", repr(PAST_BOUND), "5")])
    def test_cli_exit_code(self, capsys, alpha):
        assert cli_main(["sweep", "--family", "qubit2p", "--alpha", *alpha,
                         "--beta", "0", "1", "3"]) == 2
        assert capsys.readouterr().out == ""


class TestMatrixJson:
    # float() would read "1", " 1 ", true and false as numbers, and overflow on 10**400
    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, pytest.param("1", id="string"),
        pytest.param(" 1 ", id="padded-string"), pytest.param(True, id="true"),
        pytest.param(False, id="false"), pytest.param(10 ** 400, id="huge-int")])
    def test_non_finite_rejected(self, bad):
        doc = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, bad], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="finite"):
            qb.matrix_from_json(doc)
        doc["re"][0][0], doc["im"][0][1] = bad, 0.0
        with pytest.raises(ValueError, match="finite"):
            qb.matrix_from_json(doc)

    @pytest.mark.parametrize("re,im", [
        ([[0.5, 0.0], [0.0, 0.5]], [[0.0, math.nan], [0.0, 0.0]]),
        # read as numbers, each of these is the pure state |0><0|
        ([["1", "0"], ["0", "0"]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[" 1 ", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[10 ** 400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    ], ids=["nan", "string", "padded-string", "true", "false", "huge-int"])
    def test_cli_decompose_exit_code(self, capsys, tmp_path, re, im):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 2, "re": re, "im": im}))
        assert cli_main(["decompose", "--kind", "ggb", "--in", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [2.0, 2.5, True, math.inf, "2", None])
    def test_dim_must_be_an_integer(self, dim):
        # int() would read 2.5 as 2 and True as 1, and overflow on inf
        doc = {"dim": dim, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(ValueError, match="dim must be an integer"):
            qb.matrix_from_json(doc)

    @pytest.mark.parametrize("dim", ["1e400", "2.5", "true"])
    def test_cli_decompose_dim_exit_code(self, capsys, tmp_path, dim):
        # JSON reads 1e400 as inf
        path = tmp_path / "state.json"
        path.write_text(f'{{"dim": {dim}, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}}')
        assert cli_main(["decompose", "--kind", "ggb", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dim must be an integer" in captured.err


class TestOracleInputs:
    oracle = staticmethod(qb.nearest_separable_numeric)

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
            self.oracle(matrix, qb.GilbertConfig(max_iterations=2))

    def test_array_and_state_give_the_same_bits(self):
        cfg = qb.GilbertConfig(max_iterations=20, seed=4)
        state = qb.isotropic_state(2, 0.9)
        from_state = self.oracle(state, cfg)
        from_array = self.oracle(np.array(state.matrix), cfg)
        assert from_array.distance == from_state.distance
        assert from_array.gap == from_state.gap
        assert from_array.rho0.matrix.tobytes() == from_state.rho0.matrix.tobytes()


class TestWeylOracleInputs(TestOracleInputs):
    """The same inputs through the symmetry-reduced entry point."""

    oracle = staticmethod(qb.nearest_separable_weyl)


class TestGilbertConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": -7}, {"max_iterations": None}, {"max_iterations": "10"},
        {"tolerance": -math.inf}, {"tolerance": -1.0}, {"max_iterations": -1},
        {"max_iterations": 10.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
        {"tolerance": -1e-9}, {"max_iterations": True}, {"tolerance": True},
        {"tolerance": np.True_},
        # not numbers.Real: refused before Frank-Wolfe multiplies a Decimal by a float
        {"tolerance": "1e-6"}, {"tolerance": None}, {"tolerance": 1j},
        {"tolerance": Decimal("1e-6")},
        # past the float range, where math.isfinite overflows
        {"tolerance": 10 ** 400}, {"tolerance": Fraction(10 ** 400)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            qb.GilbertConfig(**kwargs)

    def test_accepts_defaults_and_edges(self):
        qb.GilbertConfig()
        qb.GilbertConfig(max_iterations=0, tolerance=0.0)
        qb.GilbertConfig(max_iterations=np.int64(3), tolerance=1)

    @pytest.mark.parametrize("tol", [Fraction(1, 10 ** 6), np.float64(1e-6), np.float32(1e-6)])
    def test_accepts_real_numbers(self, tol):
        assert qb.GilbertConfig(tolerance=tol).tolerance == tol

    def test_zero_iterations_returns_first_atom(self):
        res = qb.nearest_separable_numeric(qb.isotropic_state(2, 0.9),
                                           qb.GilbertConfig(max_iterations=0))
        assert not res.converged and res.iterations == 0
        assert res.distance >= qb.hs_measure_isotropic(2, 0.9).distance


class TestSeesawRunCounts:
    """``best_product_state`` takes ``sweeps`` as an integer >= 1 and
    ``restarts`` as one >= 0; a bool is neither."""

    @pytest.mark.parametrize("kwargs", [
        {"sweeps": 0}, {"sweeps": -3}, {"sweeps": 2.0}, {"sweeps": True},
        {"restarts": -5}, {"restarts": 1.5}, {"restarts": None}, {"restarts": False},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be an integer"):
            qb.best_product_state(np.eye(4), np.random.default_rng(0), **kwargs)


_STATE = qb.isotropic_state(2, 0.9)
# one argument per entry point is the bad matrix; the others are valid
ENTRY_POINTS = {
    "bloch_encode": lambda m: qb.bloch_encode(m, "ggb"),
    "hs_inner(a)": lambda m: qb.hs_inner(m, np.eye(4)),
    "hs_inner(b)": lambda m: qb.hs_inner(np.eye(4), m),
    "hs_norm": qb.hs_norm,
    "purity": qb.purity,
    "bipartite_decompose": lambda m: qb.bipartite_decompose(m, "ggb"),
    "partial_transpose": qb.partial_transpose,
    "partial_trace": qb.partial_trace,
    "witness_candidate(guess)": lambda m: qb.witness_candidate(m, _STATE),
    "witness_candidate(state)": lambda m: qb.witness_candidate(_STATE, m),
    "verify_witness(operator)": lambda m: qb.verify_witness(m, _STATE),
    "verify_witness(state)": lambda m: qb.verify_witness(np.eye(4), m),
    "min_eigenvalue": qb.min_eigenvalue,
    "ppt_verdict": qb.ppt_verdict,
    "best_product_state": lambda m: qb.best_product_state(m, np.random.default_rng(0)),
    "min_product_expectation": lambda m: qb.min_product_expectation(m, np.random.default_rng(0)),
    "DensityMatrix": qb.DensityMatrix,
    "nearest_separable_numeric": lambda m: qb.nearest_separable_numeric(
        m, qb.GilbertConfig(max_iterations=2)),
}
HERMITIAN_REQUIRED = ["verify_witness(operator)", "min_eigenvalue", "ppt_verdict",
                      "best_product_state", "min_product_expectation", "DensityMatrix",
                      "nearest_separable_numeric"]
NON_FINITE = {"nan": np.full((4, 4), np.nan), "inf": np.diag([np.inf, 0.0, 0.0, 0.0]),
              "past the bound": np.diag([PAST_BOUND, 0.0, 0.0, 0.0])}
NON_HERMITIAN = np.triu(np.ones((4, 4)))


def _raises_without_warnings(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


class TestEveryEntryPoint:
    """Each entry point raises ValueError for a non-finite matrix, and for a
    non-Hermitian one where it needs a Hermitian matrix, without a numeric
    warning on the way."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite(self, entry, name):
        _raises_without_warnings(lambda: ENTRY_POINTS[entry](NON_FINITE[name]), "finite")

    @pytest.mark.parametrize("entry", HERMITIAN_REQUIRED)
    def test_non_hermitian(self, entry):
        _raises_without_warnings(lambda: ENTRY_POINTS[entry](NON_HERMITIAN), "Hermitian")

    @pytest.mark.parametrize("matrix,match", [
        (NON_FINITE["nan"], "finite"), (NON_FINITE["inf"], "finite"),
        (NON_HERMITIAN / 4, "Hermitian"), (NON_FINITE["past the bound"], "finite"),
    ], ids=["nan", "inf", "non-Hermitian", "past the bound"])
    def test_cli_decompose(self, capsys, tmp_path, matrix, match):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 4, "re": matrix.real.tolist(),
                                    "im": matrix.imag.tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["decompose", "--kind", "ggb", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and match in captured.err

    def test_witness_candidate_dimension_mismatch(self):
        # a 1 x 1 state would broadcast against the 4 x 4 one
        with pytest.raises(ValueError, match="dimension mismatch"):
            qb.witness_candidate(_STATE, np.ones((1, 1)))

    def test_unvalidated_density_matrix_is_taken_as_it_is(self):
        rho = qb.DensityMatrix(np.diag([1.5, -0.5]), validate=False)
        vec = qb.bloch_encode(rho, "ggb")
        dec = qb.bloch_decode(vec)
        assert not qb.is_psd(dec.matrix)
        assert np.abs(dec.matrix - rho.matrix).max() <= 1e-15
        assert qb.purity(rho) == 2.5

    def test_valid_arrays_keep_their_bits(self):
        real = np.array([[0.75, 0.25], [0.25, 0.25]])
        assert qb.as_matrix(real).dtype == complex
        assert qb.as_matrix(real).tobytes() == np.asarray(real, dtype=complex).tobytes()
        assert qb.as_matrix(real.tolist()).tobytes() == np.asarray(real, dtype=complex).tobytes()
        assert qb.as_matrix(_STATE) is _STATE.matrix
        assert qb.as_hermitian(_STATE, "state") is _STATE.matrix

    def test_is_psd_reads_the_hermitian_part(self):
        assert qb.is_psd(np.diag([1.0, 0.0]))
        assert qb.is_psd(np.diag([1.0, -1e-10]))
        assert not qb.is_psd(np.diag([1.0, -1e-8]))
        # the Hermitian part of [[0, 2], [0, 0]] has eigenvalues -1 and 1
        assert not qb.is_psd(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestBasisLayerFiniteness:
    """Non-finite input to the basis and Bloch layer raises instead of
    flowing through as NaN."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, PAST_BOUND])
    def test_expand_matrix(self, bad):
        _raises_without_warnings(lambda: qb.expand_matrix(qb.ggb_basis(2), np.full((2, 2), bad)),
                                 "finite")

    def test_expand_matrix_keeps_its_shape_message(self):
        with pytest.raises(ValueError, match="does not match basis dim 2"):
            qb.expand_matrix(qb.ggb_basis(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_bloch_vector(self, bad):
        comps = np.array([0.1, bad, 0.2])
        _raises_without_warnings(
            lambda: qb.BlochVector(qb.BasisKind.GGB, 2, qb.Convention.EXPANSION, comps,
                                   qb.ggb_basis(2).labels[1:]), "finite")

    def test_bloch_vector_beyond_the_bound(self):
        # finite, but radius overflowed and decoding warned; an encoded bounded
        # matrix stays below d^2 MAX_ENTRY (4e100 here)
        comps = np.array([1e308, 1e308, 0.0])
        _raises_without_warnings(
            lambda: qb.BlochVector(qb.BasisKind.GGB, 2, qb.Convention.EXPANSION, comps,
                                   qb.ggb_basis(2).labels[1:]), "at most 4e\\+100")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.inf, 0)])
    def test_reconstruct(self, bad):
        coeffs = {("I",): 0.5, ("s", 1, 2): bad}
        _raises_without_warnings(lambda: qb.reconstruct(qb.ggb_basis(2), coeffs), "finite")

    def test_reconstruct_beyond_the_bound(self):
        # finite, but their sum overflowed to inf; the bound is Bloch-vector
        # components' d^2 MAX_ENTRY, 4e100 here, and inclusive
        coeffs = {("s", 1, 2): 1e308, ("a", 1, 2): 1e308j, ("l", 1): 1e308}
        _raises_without_warnings(lambda: qb.reconstruct(qb.ggb_basis(2), coeffs),
                                 "at most 4e\\+100")
        assert qb.reconstruct(qb.ggb_basis(2), {("s", 1, 2): 4e100})[0, 1] == 4e100

    def test_finite_input_keeps_its_bits(self):
        basis = qb.pob_basis(3)
        m = np.arange(9.0).reshape(3, 3) + 1j
        coeffs = dict(zip(basis.labels, qb.expand_matrix(basis, m)))
        assert np.abs(qb.reconstruct(basis, coeffs) - m).max() < 1e-12
        vec = qb.bloch_encode(qb.isotropic_state(2, 0.5).reduced(), "wob")
        assert qb.is_psd(qb.bloch_decode(vec).matrix)


_ISOTROPIC_ENTRY_POINTS = {
    "isotropic_physical": qb.isotropic_physical,
    "isotropic_state": qb.isotropic_state,
    "isotropic_state unchecked": lambda d, alpha: qb.isotropic_state(d, alpha, checked=False),
    "classify_isotropic": qb.classify_isotropic,
    "hs_measure_isotropic": qb.hs_measure_isotropic,
}

_PLANE_ENTRY_POINTS = {
    **{f"{name}.state": plane.state for name, plane in qb.PLANES.items()},
    **{f"{name}.state unchecked": functools.partial(plane.state, checked=False)
       for name, plane in qb.PLANES.items()},
    **{f"{fn.__name__} {name}": functools.partial(fn, plane)
       for name, plane in qb.PLANES.items()
       for fn in (qb.classify_plane, qb.plane_distance, qb.hs_measure_plane)},
    "two_param_qubit": qb.two_param_qubit,
    "two_param_qubit_pauli": qb.two_param_qubit_pauli,
    "two_param_qutrit unchecked": lambda a, b: qb.two_param_qutrit(a, b, checked=False),
    "classify_qubit_plane": qb.classify_qubit_plane,
    "classify_qutrit_plane": qb.classify_qutrit_plane,
    "hs_measure_qubit_plane": functools.partial(qb.hs_measure_plane, qb.QUBIT_PLANE),
    "hs_measure_qutrit_plane": functools.partial(qb.hs_measure_plane, qb.QUTRIT_PLANE),
}

_NON_FINITE = ["nan", "inf", "-inf", repr(PAST_BOUND)]


class TestNonFiniteFamilyParameters:
    """A NaN or infinite alpha or beta is not a point of any family: every
    single-point entry point raises ValueError, and the CLI exits 2 with
    nothing on stdout."""

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("name", _ISOTROPIC_ENTRY_POINTS)
    def test_isotropic(self, name, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            _ISOTROPIC_ENTRY_POINTS[name](3, float(bad))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("name", _PLANE_ENTRY_POINTS)
    def test_plane(self, name, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            _PLANE_ENTRY_POINTS[name](float(bad), 0.0)
        with pytest.raises(ValueError, match="beta must be finite"):
            _PLANE_ENTRY_POINTS[name](0.1, float(bad))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("argv", [
        ("measure", "--family", "isotropic", "--dim", "3", "--alpha={}"),
        ("measure", "--family", "qubit2p", "--alpha={}", "--beta", "0"),
        ("measure", "--family", "qutrit2p", "--alpha", "0.1", "--beta={}"),
        ("state", "make", "--family", "isotropic", "--dim", "3", "--alpha={}"),
        ("state", "make", "--family", "isotropic", "--dim", "3", "--alpha={}", "--unchecked"),
        ("state", "make", "--family", "qubit2p", "--alpha={}", "--beta", "0", "--unchecked"),
        ("state", "make", "--family", "qutrit2p", "--alpha", "0.1", "--beta={}"),
    ])
    def test_cli_exit_code(self, capsys, argv, bad):
        assert cli_main([arg.format(bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    @pytest.mark.parametrize("argv", [
        # finite parameters above linalg.MAX_ENTRY, refused where they enter
        ("state", "make", "--family", "qutrit2p", "--alpha", "1e308", "--beta", "1e308",
         "--unchecked"),
        ("state", "make", "--family", "qubit2p", "--alpha", "1e308", "--beta", "1e308",
         "--unchecked"),
        ("sweep", "--family", "qutrit2p", "--alpha", "1e307", "1e308", "2",
         "--beta", "1e307", "1e308", "2"),
        # "-nan" is a number, not an option name
        ("measure", "--family", "qubit2p", "--alpha", "-nan", "--beta", "0"),
    ])
    def test_cli_exit_code_fixed_argv(self, capsys, argv):
        assert cli_main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    @pytest.mark.parametrize("argv", [
        ("measure", "--family", "isotropic", "--alpha", "-inf"),
        ("state", "make", "--family", "qubit2p", "--alpha", "0.1", "--beta", "-inf"),
    ])
    def test_cli_reads_minus_inf_as_a_number(self, capsys, argv):
        # as "-5.5" is, not as an option name (which would be a usage error)
        assert cli_main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite, got -inf" in captured.err


class TestFamilyParameterTypes:
    """Family parameters are converted to Python floats before use: a numpy
    float32 or float16 gives the bits of the same value as a float, with no
    numeric warning (single-precision arithmetic left D 6.45e-9 off at
    qubit2p (0.8, 0.1)); an integer past the float range is refused as too
    large; a string or a complex is not a real number."""

    @staticmethod
    def _same_bits(call, *params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(*params)
        assert pickle.dumps(got) == pickle.dumps(call(*map(float, params)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("name", _ISOTROPIC_ENTRY_POINTS)
    def test_isotropic_numpy_scalar(self, name, dtype):
        self._same_bits(functools.partial(_ISOTROPIC_ENTRY_POINTS[name], 3), dtype(0.9))

    @pytest.mark.parametrize("point", [(0.8, 0.1), (0.1, 0.7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("name", _PLANE_ENTRY_POINTS)
    def test_plane_numpy_scalar(self, name, dtype, point):
        self._same_bits(_PLANE_ENTRY_POINTS[name], *map(dtype, point))

    @pytest.mark.parametrize("name", _ISOTROPIC_ENTRY_POINTS)
    def test_isotropic_integer_past_the_float_range(self, name):
        with pytest.raises(ValueError, match="alpha must be finite and at most"):
            _ISOTROPIC_ENTRY_POINTS[name](3, 10**400)

    @pytest.mark.parametrize("name", _PLANE_ENTRY_POINTS)
    def test_plane_integer_past_the_float_range(self, name):
        with pytest.raises(ValueError, match="alpha must be finite and at most"):
            _PLANE_ENTRY_POINTS[name](-10**400, 0.0)
        with pytest.raises(ValueError, match="beta must be finite and at most"):
            _PLANE_ENTRY_POINTS[name](0.1, 10**400)

    @pytest.mark.parametrize("bad", ["0.9", b"0.9", None, 0.9j, np.complex64(0.9), True,
                                     np.True_])
    def test_non_numbers(self, bad):
        for call in _ISOTROPIC_ENTRY_POINTS.values():
            with pytest.raises(TypeError):
                call(3, bad)
        for call in _PLANE_ENTRY_POINTS.values():
            with pytest.raises(TypeError):
                call(0.1, bad)


def _overflowing(d=2, entry=1e308):
    """A finite Hermitian unit-trace matrix whose corner entries lie above
    linalg.MAX_ENTRY (at 1e308 they would overflow in the Bloch transforms)."""
    m = np.eye(d) / d
    m[0, -1] = m[-1, 0] = entry
    return m


class TestOverflowingEntries:
    """Finite entries above linalg.MAX_ENTRY are refused where they enter: the
    library raises ValueError and decompose exits 2 with one error line, without
    a numpy warning, an inf or a nan on the way."""

    @pytest.mark.parametrize("kind", ["ggb", "wob"])
    def test_expand_matrix(self, kind):
        _raises_without_warnings(lambda: qb.expand_matrix(qb.get_basis(kind, 2), _overflowing()),
                                 "finite")

    @pytest.mark.parametrize("kind", ["ggb", "wob"])
    def test_bloch_encode(self, kind):
        _raises_without_warnings(lambda: qb.bloch_encode(_overflowing(), kind), "finite")

    @pytest.mark.parametrize("kind", ["ggb", "wob"])
    def test_bipartite_decompose(self, kind):
        _raises_without_warnings(lambda: qb.bipartite_decompose(_overflowing(4), kind), "finite")

    @pytest.mark.parametrize("kind,entry", [("ggb", 1e308), ("wob", 1e308), ("pob", 1e308),
                                            ("ggb", 1e200)])
    def test_cli_decompose(self, capsys, tmp_path, kind, entry):
        # refused by as_hermitian, before the encoder, radius or purity run
        m = _overflowing(entry=entry)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 2, "re": m.tolist(), "im": np.zeros((2, 2)).tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["decompose", "--kind", kind, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("kind", ["ggb", "pob", "wob"])
    def test_encode_and_expand_share_one_product(self, kind):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            basis = qb.get_basis(kind, d)
            rho = qb.random_density_matrix(d, rng)
            # equal values; the encoder alone turns -0.0 into +0.0
            assert np.array_equal(qb.bloch_encode(rho, kind).components,
                                  qb.expand_matrix(basis, rho.matrix)[1:])


def _at_the_bound(n):
    """Two Hermitian n x n matrices whose every entry has magnitude 0.999 MAX_ENTRY:
    all entries equal and positive (the largest coherent sums), and random phases."""
    rng = np.random.default_rng(n)
    upper = np.triu(np.exp(2j * np.pi * rng.random((n, n))), 1)
    phases = upper + upper.conj().T + np.diag(rng.choice([-1.0, 1.0], n))
    return [0.999 * MAX_ENTRY * np.ones((n, n)), 0.999 * MAX_ENTRY * phases]


class TestMagnitudeBound:
    """Matrix entries and family parameters up to MAX_ENTRY give finite results
    without a numpy warning, so no transform needs an overflow check of its own."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("kind", ["ggb", "pob", "wob"])
    @pytest.mark.parametrize("d", [2, 3, MAX_DIM])
    def test_one_qudit_transforms(self, kind, d):
        try:
            basis = qb.get_basis(kind, d)
            for m in _at_the_bound(d):
                assert np.isfinite(qb.expand_matrix(basis, m)).all()
                assert math.isfinite(qb.purity(m))
                qb.is_psd(m)
                for convention in qb.Convention:
                    vec = qb.bloch_encode(m, kind, convention)
                    assert math.isfinite(vec.radius)
                    assert np.isfinite(qb.bloch_decode(vec).matrix).all()
        finally:
            if d == MAX_DIM:    # its stack alone holds 268 MB
                getattr(qb.bases, f"{kind}_basis").cache_clear()

    @pytest.mark.parametrize("kind", ["ggb", "pob", "wob"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_qudit_transforms(self, kind, d):
        for m in _at_the_bound(d * d):
            dec = qb.bipartite_decompose(m, kind)
            for part in (dec.local_a, dec.local_b, dec.correlation, dec.reconstruct()):
                assert np.isfinite(part).all()
            assert math.isfinite(qb.ppt_verdict(m)[1])

    @pytest.mark.parametrize("alpha,beta", [(-MAX_ENTRY, -MAX_ENTRY), (-MAX_ENTRY, MAX_ENTRY),
                                            (MAX_ENTRY, -MAX_ENTRY), (MAX_ENTRY, MAX_ENTRY)])
    def test_family_parameters(self, alpha, beta):
        unphysical = qb.RegionLabel.UNPHYSICAL
        for plane in qb.PLANES.values():
            assert np.isfinite(plane.state(alpha, beta, checked=False).matrix).all()
            assert qb.classify_plane(plane, alpha, beta) is unphysical
            assert qb.hs_measure_plane(plane, alpha, beta) == (unphysical, None)
        assert np.isfinite(qb.two_param_qubit_pauli(alpha, beta)).all()
        for d in (2, 3):
            assert np.isfinite(qb.isotropic_state(d, alpha, checked=False).matrix).all()
            assert qb.classify_isotropic(d, alpha) is unphysical

    @pytest.mark.parametrize("family", list(qb.PLANES))
    def test_cli_at_the_bound(self, capsys, family):
        # the bound is inclusive
        assert cli_main(["sweep", "--family", family, "--alpha", "-1e100", "1e100", "3",
                         "--beta", "-1e100", "1e100", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 10 and "inf" not in out and "nan" not in out
        assert cli_main(["measure", "--family", family, "--alpha", "1e100", "--beta", "1e100"]) == 0
        assert json.loads(capsys.readouterr().out)["region"] == "Unphysical"


class TestGilbertConfigSeed:
    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3", True])
    def test_rejects(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            qb.GilbertConfig(seed=seed)

    def test_accepts_integers(self):
        assert qb.GilbertConfig(seed=np.int64(7)).seed == 7
        assert qb.GilbertConfig(seed=2 ** 70).seed == 2 ** 70
