import importlib
import pkgutil
import re

import numpy as np
import pytest

import quditbloch as qb
from quditbloch.linalg import _realign


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestHSInner:
    def test_identity(self):
        assert qb.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2)

    def test_pauli_orthogonality(self):
        assert abs(qb.hs_inner(qb.PAULI[1], qb.PAULI[2])) < 1e-15

    def test_composite_lambda_norm_sq_d3(self):
        lam = qb.composite_operator("lambda", 3)
        # squared norm of the GGB correlation operator is 4(d^2 - 1) = 32
        assert qb.hs_inner(lam, lam) == pytest.approx(32, abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        for d in (2, 3, 5):
            a, b = random_matrix(rng, d), random_matrix(rng, d)
            assert qb.hs_inner(a, b) == pytest.approx(np.conj(qb.hs_inner(b, a)), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qb.hs_inner(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            qb.hs_inner(np.ones((2, 3)), np.ones((2, 3)))


class TestHSNorm:
    def test_sigma_composite(self):
        assert qb.hs_norm(qb.composite_operator("sigma", 2)) == pytest.approx(2 * np.sqrt(3), abs=1e-12)

    def test_u_composite_qutrit(self):
        assert qb.hs_norm(qb.composite_operator("u", 3)) == pytest.approx(6 * np.sqrt(2), abs=1e-12)

    def test_zero(self):
        assert qb.hs_norm(np.zeros((3, 3))) == 0.0

    def test_triangle_and_homogeneity(self, rng):
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        assert qb.hs_norm(a + b) <= qb.hs_norm(a) + qb.hs_norm(b) + 1e-12
        assert qb.hs_norm(-2.5 * a) == pytest.approx(2.5 * qb.hs_norm(a), abs=1e-12)


class TestTensor:
    def test_identities(self):
        assert np.array_equal(qb.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma3_sigma3(self):
        assert np.allclose(qb.tensor(qb.PAULI[3], qb.PAULI[3]), np.diag([1, -1, -1, 1]))

    def test_bell_qubit_entries(self):
        # brute-force oracle: psi = (|00> + |11>)/sqrt(2)
        psi = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / np.sqrt(2)
        expected = np.outer(psi, psi)
        assert expected[0, 0] == expected[0, 3] == expected[3, 0] == expected[3, 3] == pytest.approx(0.5)
        assert np.allclose(qb.bell_state(2).matrix, expected, atol=1e-15)

    def test_bilinear(self, rng):
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        lhs = qb.tensor(a + b, c)
        rhs = qb.tensor(a, c) + qb.tensor(b, c)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_associative(self, rng):
        # small-integer entries keep float products exact
        a, b, c = (rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
                   for _ in range(3))
        assert np.array_equal(qb.tensor(qb.tensor(a, b), c), qb.tensor(a, qb.tensor(b, c)))


class TestPartialTranspose:
    def test_product_state(self, rng):
        ra = qb.random_density_matrix(3, rng).matrix
        rb = qb.random_density_matrix(3, rng).matrix
        pt = qb.partial_transpose(qb.tensor(ra, rb), "B")
        assert np.abs(pt - qb.tensor(ra, rb.T)).max() < 1e-14
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_bell_min_eigenvalue(self):
        pt = qb.partial_transpose(qb.bell_state(2))
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_isotropic_boundary(self):
        pt = qb.partial_transpose(qb.isotropic_state(2, 1 / 3))
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(0.0, abs=1e-12)

    def test_involution_and_trace(self, rng):
        rho = qb.random_density_matrix(9, rng).matrix
        for sub in ("A", "B"):
            pt = qb.partial_transpose(rho, sub)
            assert np.abs(qb.partial_transpose(pt, sub) - rho).max() < 1e-14
            assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            qb.partial_transpose(np.eye(6), "B")
        with pytest.raises(ValueError):
            qb.partial_transpose(np.eye(4), "C")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_realign_of_product_is_outer_product_of_vectorisations(d, rng):
    # R(A x B)[(a b), (c e)] = A[a, b] B[c, e]; realignment is its own inverse
    a, b = random_matrix(rng, d), random_matrix(rng, d)
    m = qb.tensor(a, b)
    assert np.array_equal(_realign(m, d), np.outer(a.ravel(), b.ravel()))
    assert np.array_equal(_realign(_realign(m, d), d), m)


class TestPartialTrace:
    def test_product_state(self, rng):
        ra = qb.random_density_matrix(2, rng).matrix
        rb = qb.random_density_matrix(2, rng).matrix
        assert np.abs(qb.partial_trace(qb.tensor(ra, rb), "B") - ra).max() < 1e-14
        assert np.abs(qb.partial_trace(qb.tensor(ra, rb), "A") - rb).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bell_reduction(self, d):
        red = qb.partial_trace(qb.bell_state(d), "B")
        assert np.abs(red - np.eye(d) / d).max() < 1e-14

    def test_weyl_projector_reduction(self):
        red = qb.partial_trace(qb.weyl_bell_projector(3, 1, 0), "B")
        assert np.abs(red - np.eye(3) / 3).max() < 1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError):
            qb.partial_trace(np.eye(8), "B")

    @pytest.mark.parametrize("fn", [qb.partial_trace, qb.partial_transpose])
    @pytest.mark.parametrize("subsystem", ["C", "b", ["B"], None])
    def test_subsystem_rule(self, fn, subsystem):
        with pytest.raises(ValueError, match=f"subsystem must be 'A' or 'B', got "
                                             f"{re.escape(repr(subsystem))}"):
            fn(np.eye(4) / 4, subsystem)


class TestDensityMatrix:
    def test_valid(self, rng):
        rho = qb.random_density_matrix(4, rng)
        again = qb.DensityMatrix(rho.matrix)
        assert again.dim == 4

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qb.DensityMatrix(np.array([[0.5, 1], [0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qb.DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            qb.DensityMatrix(np.diag([1.5, -0.5]))

    def test_unchecked(self):
        dm = qb.DensityMatrix(np.diag([1.5, -0.5]), validate=False)
        assert dm.dim == 2

    def test_immutable(self, rng):
        rho = qb.random_density_matrix(2, rng)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9

    def test_bipartite_subdim(self):
        state = qb.bell_state(3)
        assert state.subdim == 3 and state.dim == 9
        with pytest.raises(ValueError):
            qb.BipartiteState(np.eye(6) / 6)


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = random_matrix(rng, 3)
        doc = qb.matrix_to_json(m)
        assert doc["dim"] == 3
        assert np.abs(qb.matrix_from_json(doc) - m).max() < 1e-15

    def test_malformed(self):
        with pytest.raises(ValueError):
            qb.matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
        with pytest.raises(ValueError):
            qb.matrix_from_json({"re": [[1]]})


def _arrays(value, path):
    """(path, array) for every ndarray in ``value``, looking inside tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, x in enumerate(value):
            yield from _arrays(x, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, x in value.items():
            yield from _arrays(x, f"{path}[{k!r}]")


def test_module_level_arrays_are_read_only():
    # a writable module-level array is state every caller shares: one write,
    # as PAULI[3][1, 1] = 1, would change every later result built from it
    writable = []
    names = ["quditbloch", *(m.name for m in pkgutil.iter_modules(qb.__path__, "quditbloch."))]
    for module in map(importlib.import_module, names):
        for name, value in vars(module).items():
            writable += [path for path, a in _arrays(value, f"{module.__name__}.{name}")
                         if a.flags.writeable]
    assert writable == []
