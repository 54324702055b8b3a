"""Property tests of the Bloch transforms and the closed-form measures."""

import functools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch import WitnessMethod, WitnessVerdict
from quditbloch.bloch import Convention
from quditbloch.entanglement import TOL_WIT

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
    assert qb.is_psd(dec.matrix)
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



def _assert_certified(res):
    """The one certificate holds, and the verdict follows D alone."""
    report = res.witness
    assert report.method is WitnessMethod.PARTIAL_TRANSPOSE
    assert report.sep_min_estimate == 0.0
    expected = WitnessVerdict.WITNESS if res.distance > TOL_WIT else WitnessVerdict.INCONCLUSIVE
    assert report.verdict is expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(plane=st.sampled_from(list(TRIANGLES)), u=st.floats(0, 1), v=st.floats(0, 1),
       scale=st.floats(-11, 0).map(lambda e: 10.0 ** e))
def test_plane_witness_certified(plane, u, v, scale):
    """An entangled triangle point, moved towards its nearest separable point
    until its D is ``scale`` times as large (below TOL_WIT near the line)."""
    if u + v > 1:
        u, v = 1 - u, 1 - v
    (a0, b0), (a1, b1), (a2, b2) = TRIANGLES[plane]
    alpha = a0 + u * (a1 - a0) + v * (a2 - a0)
    beta = b0 + u * (b1 - b0) + v * (b2 - b0)
    label = qb.classify_plane(plane, alpha, beta)
    assume(label in (qb.RegionLabel.ENTANGLED_I, qb.RegionLabel.ENTANGLED_II))
    alpha0, beta0 = ((plane.line_i(beta), beta) if label is qb.RegionLabel.ENTANGLED_I
                     else plane.nearest_ii(alpha, beta))
    moved, res = qb.hs_measure_plane(plane, alpha0 + scale * (alpha - alpha0),
                                     beta0 + scale * (beta - beta0))
    assume(res is not None)
    assert moved is label
    _assert_certified(res)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), scale=st.floats(-11, 0).map(lambda e: 10.0 ** e))
def test_isotropic_witness_certified(d, scale):
    """alpha a fraction ``scale`` of the way from the threshold 1/(d+1) to 1."""
    threshold = 1 / (d + 1)
    alpha = threshold + scale * (1 - threshold)
    assume(qb.classify_isotropic(d, alpha) is qb.RegionLabel.ENTANGLED)
    _assert_certified(qb.hs_measure_isotropic(d, alpha))


@functools.cache
def _plane_of_dim(d):
    """The plane (1 - a - b)/d^2 * 1 + a P_00 + (b/2)(P_10 + P_01) at any d."""
    p, q, r = (qb.weyl_bell_projector(d, n, k).matrix for n, k in ((0, 0), (1, 0), (0, 1)))
    ops = (np.eye(d * d, dtype=complex), p, q + r)
    return qb.PlaneFamily(name=f"d{d}", subdim=d, line_ii=None, nearest_ii=None,
                          distance_ii=None, operators=lambda: ops, witness_ii=())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 8), alpha=st.floats(-0.5, 1.25), beta=st.floats(-0.5, 1.25))
def test_triangle_and_line_i_at_every_dimension(d, alpha, beta):
    """The triangle is where lambda_min(rho) >= 0, and line I is <rho, P> = 1/d."""
    plane = _plane_of_dim(d)
    ops = plane.operators()
    lo = np.linalg.eigvalsh(plane.mix(alpha, beta, ops))[0]
    if abs(lo) > 1e-9:
        assert bool(plane.physical(alpha, beta)) == (lo > 0)
    on_line = plane.mix(plane.line_i(beta), beta, ops)
    assert abs(qb.hs_inner(on_line, ops[1]).real - 1 / d) <= 1e-12
