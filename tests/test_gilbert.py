import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch import GilbertConfig
from quditbloch.gilbert import _solve_simplex_weights


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

    def test_separable_input_converges_quickly(self):
        # with a corrective step that could end on a non-optimal support, this
        # state cycled through all 5000 iterations without converging
        res = qb.nearest_separable_numeric(qb.sample_separable(2, seed=7, mixture_count=3))
        assert res.converged
        assert res.iterations <= 300

    @pytest.mark.parametrize("state", [
        pytest.param(qb.isotropic_state(3, 0.85), id="iso(3, 0.85)", marks=pytest.mark.xfail(
            strict=True, reason="the residual's product maximizers nearly fill the manifold "
                                "b = conj(a), which the seesaw samples rather than climbs: "
                                "the converged gap is 0.4-0.95 of a 200-restart one, with "
                                "the 1e-15 stop too")),
        pytest.param(qb.sample_separable(2, seed=7, mixture_count=3),
                     id="sample_separable(2, seed=7)")])
    def test_converged_gap_matches_a_thorough_seesaw(self, state):
        res, gap_of = _final_residual(state)
        assert res.converged
        gap = gap_of(1e-15)
        assert abs(res.gap - gap) <= 0.1 * gap

    @pytest.mark.parametrize("state", [qb.isotropic_state(3, 0.85),
                                       qb.sample_separable(2, seed=7, mixture_count=3)],
                             ids=["iso(3, 0.85)", "sample_separable(2, seed=7)"])
    def test_seesaw_stop_keeps_the_gap(self, state):
        # the oracle's seesaw stops at a sweep gain of tolerance / 1000; on the
        # final residual a 200-restart search with that stop finds the gap it
        # finds with the 1e-15 stop, to 1%
        res, gap_of = _final_residual(state)
        assert res.converged
        gap = gap_of(1e-15)
        assert abs(gap_of(GilbertConfig().tolerance * 1e-3) - gap) <= 0.01 * gap


def _final_residual(state):
    """A default oracle run on ``state``, and the gap that a 200-restart
    seesaw with a given stop finds on its final residual."""
    res = qb.nearest_separable_numeric(state)
    rho0 = res.rho0.matrix
    g = state.matrix - rho0

    def gap_of(stop):
        _, a, b = qb.best_product_state(g, state.subdim, np.random.default_rng(1),
                                        restarts=200, stop=stop)
        ab = np.kron(a, b)
        return np.real(ab.conj() @ g @ ab) - np.real(np.vdot(rho0, g))

    return res, gap_of


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(atoms=st.integers(1, 20), dim=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       warm=st.booleans())
def test_simplex_weights_meet_kkt(atoms, dim, seed, warm):
    # nearest point of the hull of random atoms: K is their Gram matrix
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, atoms)) / np.sqrt(dim)
    target = rng.standard_normal(dim) / np.sqrt(dim)
    w0 = np.eye(atoms)[0]
    if warm:     # any feasible start
        w0 = rng.dirichlet(np.ones(atoms)) * (rng.random(atoms) < 0.5)
        w0 = w0 / w0.sum() if w0.sum() > 0 else np.eye(atoms)[0]
    k, c = m.T @ m, m.T @ target
    w = _solve_simplex_weights(k, c, w0)
    assert (w >= 0).all()
    assert abs(w.sum() - 1) <= 1e-12
    grad = k @ w - c
    reduced = grad - w @ grad
    assert reduced.min() >= -1e-10
    assert np.abs(reduced[w > 0]).max() <= 1e-10


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
