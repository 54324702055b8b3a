"""The symmetry-reduced oracle against the closed forms, and its refusals.

``nearest_separable_weyl`` runs Frank-Wolfe on the d^2 Weyl Bell
populations of a Weyl-diagonal state. Its ``distance`` must be a certified
upper bound (never below the closed-form D beyond rounding) that is tight to
the convergence tolerance, and its ``rho0`` a Weyl-diagonal PPT state at
exactly that distance.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch.cli import cli_main
from test_properties import TRIANGLES

FAMILIES = [*TRIANGLES, 2, 3, 4]     # the two planes and isotropic d = 2..4


def _entangled_point(family, u, v):
    """(state, closed-form D) of a plane point or isotropic state; None if
    the point is not entangled."""
    if isinstance(family, int):
        d = family
        alpha = 1 / (d + 1) + u * (1 - 1 / (d + 1))
        if qb.classify_isotropic(d, alpha) is not qb.RegionLabel.ENTANGLED:
            return None
        return qb.isotropic_state(d, alpha), qb.hs_measure_isotropic(d, alpha).distance
    if u + v > 1:
        u, v = 1 - u, 1 - v
    (a0, b0), (a1, b1), (a2, b2) = TRIANGLES[family]
    alpha = a0 + u * (a1 - a0) + v * (a2 - a0)
    beta = b0 + u * (b1 - b0) + v * (b2 - b0)
    label, distance = qb.plane_distance(family, alpha, beta)
    if not label.value.startswith("Entangled"):
        return None
    return family.state(alpha, beta), distance


def _bell_frame(d):
    """Rows are the Weyl Bell kets (U_nk (x) 1)|Phi_00>, in WOB label order."""
    return qb.get_basis("wob", d).stacked.reshape(d * d, d * d) / np.sqrt(d)


def _check_result(state, closed, res):
    d = state.subdim
    rho0 = res.rho0.matrix
    assert closed - 1e-12 <= res.distance <= closed + 1e-6
    assert abs(res.distance - np.linalg.norm(state.matrix - rho0)) <= 1e-12
    hermitian = (rho0 + rho0.conj().T) / 2
    assert np.linalg.eigvalsh(hermitian)[0] >= -1e-9
    assert np.linalg.eigvalsh(qb.partial_transpose(hermitian))[0] >= -1e-9
    frame = _bell_frame(d)
    bell = frame.conj() @ rho0 @ frame.T
    assert np.abs(bell - np.diag(np.diag(bell))).max() <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FAMILIES), u=st.floats(0, 1), v=st.floats(0, 1),
       seed=st.integers(0, 2**31 - 1))
def test_agrees_with_closed_forms(family, u, v, seed):
    """A gap below tol bounds the excess over D by about tol / D, so the
    default tol = 1e-6 allows excesses above 1e-6 at D < 1 (2.3e-6 seen at a
    qutrit Region II point with D = 0.18); tol = 1e-8 keeps it within 1e-6
    for D >= 0.01, and points nearer the boundary converge further still."""
    point = _entangled_point(family, u, v)
    assume(point is not None)
    state, closed = point
    res = qb.nearest_separable_weyl(state, qb.GilbertConfig(seed=seed, tolerance=1e-8))
    _check_result(state, closed, res)


@pytest.mark.parametrize("d,alpha", [(5, 0.6), (6, 0.5), (7, 0.5), (8, 0.5)])
def test_isotropic_beyond_the_lemmas(d, alpha):
    state = qb.isotropic_state(d, alpha)
    res = qb.nearest_separable_weyl(state)
    assert res.converged
    _check_result(state, qb.hs_measure_isotropic(d, alpha).distance, res)


@pytest.mark.parametrize("state", [
    qb.sample_separable(2, 3),
    qb.random_density_matrix(9, np.random.default_rng(0)).matrix,
], ids=["sample_separable(2, 3)", "random 9x9"])
def test_refuses_states_that_are_not_weyl_diagonal(state):
    with pytest.raises(ValueError, match="not Weyl-diagonal"):
        qb.nearest_separable_weyl(state)


@pytest.mark.parametrize("size,refused", [(1e-10, True), (1e-14, False)])
def test_off_diagonal_tolerance(size, refused):
    """An off-diagonal Weyl Bell element above WEYL_DIAGONAL_TOL is refused."""
    frame = _bell_frame(3)
    coupling = np.outer(frame[0], frame[1].conj())
    rho = qb.isotropic_state(3, 0.5).matrix + size * (coupling + coupling.conj().T)
    config = qb.GilbertConfig(max_iterations=2)
    if refused:
        with pytest.raises(ValueError, match="not Weyl-diagonal"):
            qb.nearest_separable_weyl(rho, config)
    else:
        qb.nearest_separable_weyl(rho, config)


def test_cli_oracle_reports_the_reduced_run(capsys):
    assert cli_main(["measure", "--family", "qutrit2p", "--alpha", "0", "--beta", "0.6",
                     "--oracle", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    res = qb.nearest_separable_weyl(qb.two_param_qutrit(0.0, 0.6), qb.GilbertConfig(seed=3))
    assert doc["oracle_D"] == res.distance
    assert doc["oracle_iterations"] == res.iterations
    assert doc["oracle_converged"] is res.converged
    assert doc["oracle_gap"] == res.gap
