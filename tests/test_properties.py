"""Property tests of the Bloch transforms and the closed-form plane measures."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch.bloch import Convention

SEEDS = st.integers(0, 2**32 - 1)

# corners of each positivity triangle in the (alpha, beta) plane, where its
# three boundary lines (QUBIT_PLANE.physical, QUTRIT_PLANE.physical) meet
TRIANGLES = {
    qb.QUBIT_PLANE: ((1.0, 0.0), (0.0, 1.0), (-1.0, -2.0)),
    qb.QUTRIT_PLANE: ((1.0, 0.0), (0.0, 1.0), (-1 / 6, -1 / 3)),
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), kind=st.sampled_from(list(qb.BasisKind)),
       convention=st.sampled_from(list(Convention)), seed=SEEDS)
def test_encode_decode_round_trip(d, kind, convention, seed):
    rho = qb.random_density_matrix(d, np.random.default_rng(seed))
    vec = qb.bloch_encode(rho, kind, convention)
    dec = qb.bloch_decode(vec)
    assert dec.is_physical
    assert qb.hs_norm(dec.matrix - rho.matrix) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 7), seed=SEEDS)
def test_wob_conjugation_symmetry(d, seed):
    """b*_nm = exp(2 pi i n m / d) b_{-n,-m} for the WOB expectation values."""
    rho = qb.random_density_matrix(d, np.random.default_rng(seed))
    vec = qb.bloch_encode(rho, "wob", "expval")
    b = dict(zip(vec.labels, vec.components))
    for (n, m), value in b.items():
        partner = b[(-n) % d, (-m) % d]
        assert abs(np.conj(value) - np.exp(2j * np.pi * n * m / d) * partner) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(plane=st.sampled_from(list(TRIANGLES)), u=st.floats(0, 1), v=st.floats(0, 1))
def test_plane_optimal_witness_identities(plane, u, v):
    """D = B = -<rho_ent, A_opt> and <rho_0, A_opt> = 0 at entangled points."""
    if u + v > 1:
        u, v = 1 - u, 1 - v
    (a0, b0), (a1, b1), (a2, b2) = TRIANGLES[plane]
    alpha = a0 + u * (a1 - a0) + v * (a2 - a0)
    beta = b0 + u * (b1 - b0) + v * (b2 - b0)
    _, res = qb.hs_measure_plane(plane, alpha, beta)
    assume(res is not None)
    rho_ent = plane.state(alpha, beta)
    witness = res.witness.operator
    assert abs(res.max_violation - res.distance) <= 1e-10
    assert abs(qb.hs_inner(rho_ent.matrix, witness).real + res.distance) <= 1e-10
    assert abs(qb.hs_inner(res.nearest_separable.matrix, witness)) <= 1e-10
