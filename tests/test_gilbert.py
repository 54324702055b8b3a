import numpy as np
import pytest

import quditbloch as qb
from quditbloch import GilbertConfig


class TestBestProductState:
    def test_maximizes_on_product_operator(self, rng):
        # for A = |a><a| x |b><b| the optimum is 1
        a = qb.random_ket(3, rng)
        b = qb.random_ket(3, rng)
        ab = np.kron(a, b)
        op = np.outer(ab, ab.conj())
        val, _, _ = qb.best_product_state(op, 3, rng, restarts=5)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_min_product_expectation_values(self, rng):
        assert qb.min_product_expectation(np.eye(4) / 2, 2, rng) == pytest.approx(0.5, abs=1e-12)
        a = -qb.tensor(qb.PAULI[3], qb.PAULI[3])
        assert qb.min_product_expectation(a, 2, rng) == pytest.approx(-1.0, abs=1e-9)


class TestNearestSeparableNumeric:
    def test_separable_input(self):
        state = qb.sample_separable(2, seed=42, mixture_count=3)
        res = qb.nearest_separable_numeric(state)
        # gap <= tol guarantees distance <= sqrt(tol) for points inside the set
        assert res.converged
        assert res.distance <= 1e-3

    def test_isotropic_qubit(self):
        res = qb.nearest_separable_numeric(qb.isotropic_state(2, 1.0))
        expected = 1 / np.sqrt(3)
        assert expected - 1e-6 <= res.distance <= expected + 1e-3
        assert res.converged

    def test_qutrit_two_param_point(self):
        res = qb.nearest_separable_numeric(qb.two_param_qutrit(0.8, 0.1))
        expected = 2 * np.sqrt(2) / 3 * (0.8 - 0.25 - 0.0125)
        assert expected - 1e-6 <= res.distance <= expected + 1e-3

    def test_deterministic(self):
        cfg = GilbertConfig(max_iterations=60, seed=9)
        r1 = qb.nearest_separable_numeric(qb.isotropic_state(2, 0.8), cfg)
        r2 = qb.nearest_separable_numeric(qb.isotropic_state(2, 0.8), cfg)
        assert r1.distance == r2.distance
        assert np.array_equal(r1.rho0.matrix, r2.rho0.matrix)

    def test_result_is_separable_witnessed_by_ppt(self):
        res = qb.nearest_separable_numeric(qb.isotropic_state(3, 1.0))
        is_ppt, _ = qb.ppt_verdict(res.rho0)
        assert is_ppt
        assert np.trace(res.rho0.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound_property(self):
        # the numeric distance can never undercut the true measure
        res = qb.nearest_separable_numeric(qb.isotropic_state(3, 0.9))
        true_d = qb.hs_measure_isotropic(3, 0.9).distance
        assert res.distance >= true_d - 1e-6

    def test_nonconvergence_flag(self):
        cfg = GilbertConfig(max_iterations=3, tolerance=1e-14)
        res = qb.nearest_separable_numeric(qb.isotropic_state(3, 1.0), cfg)
        assert not res.converged
        assert res.iterations == 3

    def test_shape_error(self):
        with pytest.raises(ValueError):
            qb.nearest_separable_numeric(np.eye(6) / 6)



def _check_full_oracle_certificate(state, closed):
    """rho0 is a mixture of product states after any number of iterations,
    so the closed-form D never exceeds the distance, even when capped at 3."""
    res = qb.nearest_separable_numeric(state, GilbertConfig(max_iterations=3))
    rho0 = res.rho0.matrix
    assert closed - 1e-12 <= res.distance
    assert abs(res.distance - np.linalg.norm(state.matrix - rho0)) <= 1e-12
    hermitian = (rho0 + rho0.conj().T) / 2
    assert np.linalg.eigvalsh(hermitian)[0] >= -1e-9
    assert np.linalg.eigvalsh(qb.partial_transpose(hermitian, subdim=state.subdim))[0] >= -1e-9


@pytest.mark.parametrize("family,alpha,beta,region", [
    ("qubit2p", 0.8, 0.1, "EntangledRegionI"),
    ("qubit2p", 0.5, -0.3, "EntangledRegionI"),
    ("qubit2p", -0.7, -1.5, "EntangledRegionII"),
    ("qubit2p", -0.2, -0.9, "EntangledRegionII"),
    ("qutrit2p", 0.6, 0.0, "EntangledRegionI"),
    ("qutrit2p", 0.4, 0.3, "EntangledRegionI"),
    ("qutrit2p", 0.1, 0.7, "EntangledRegionII"),
    ("qutrit2p", 0.0, 0.6, "EntangledRegionII"),
])
def test_full_oracle_certificate_planes(family, alpha, beta, region):
    plane = qb.PLANES[family]
    label, closed = qb.plane_distance(plane, alpha, beta)
    assert label.value == region
    _check_full_oracle_certificate(plane.state(alpha, beta), closed)


@pytest.mark.parametrize("d,alpha", [(2, 0.9), (3, 0.85), (4, 0.6)])
def test_full_oracle_certificate_isotropic(d, alpha):
    _check_full_oracle_certificate(qb.isotropic_state(d, alpha),
                                   qb.hs_measure_isotropic(d, alpha).distance)
