"""Known answers off the Weyl simplex: local-unitary orbits of closed forms.

Conjugating a state by U (x) V changes neither its distance D to the
separable set nor the spectrum of its partial transpose, which turns by
U (x) V*, and it turns the optimal witness with the state. So each closed
form gives inputs that are not Weyl-diagonal and still have a known D, the
general oracle's only known nonzero answers off the simplex.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditbloch as qb

# the largest changes over the drawn orbits below: 3.9e-16 in the ppt_verdict
# minimum, and 1.3e-15 in the scaled correlation trace norms, across orbits and bases
PPT_BUDGET = 1e-15
TRACE_NORM_BUDGET = 4e-15


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random d x d unitary: the Q of a complex Ginibre matrix, each
    column's phase fixed by the diagonal of R (Mezzadri, Notices AMS 54, 592
    (2007))."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    diag = np.diag(r)
    return q * (diag / abs(diag))


def local_unitary(d: int, seed) -> np.ndarray:
    """A seeded Haar local unitary U (x) V on d (x) d."""
    rng = np.random.default_rng(seed)
    return np.kron(haar_unitary(d, rng), haar_unitary(d, rng))


def _closed_forms():
    """(state, closed-form measure) of each point whose orbit is taken."""
    cases = {f"iso({d}, {alpha})": (qb.isotropic_state(d, alpha),
                                    qb.hs_measure_isotropic(d, alpha))
             for d, alpha in ((2, 0.9), (3, 0.85))}
    for plane, points in ((qb.QUBIT_PLANE, ((0.8, 0.1), (-0.7, -1.5))),
                          (qb.QUTRIT_PLANE, ((0.6, 0.0), (0.1, 0.7)))):
        for alpha, beta in points:
            cases[f"{plane.name}({alpha}, {beta})"] = (plane.state(alpha, beta),
                                                       qb.hs_measure_plane(plane, alpha, beta)[1])
    return cases


CASES = _closed_forms()


def _orbit(name, seed=None):
    """The closed form's state, its measure, and one point of its orbit with
    the matching rotation of an operator; the seed defaults to one per case."""
    state, measure = CASES[name]
    d = state.subdim
    w = local_unitary(d, [2031, sorted(CASES).index(name)] if seed is None else seed)

    def rotate(m):
        return w @ m @ w.conj().T

    return state, measure, qb.BipartiteState(rotate(state.matrix)), rotate


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, np.random.default_rng(2031))
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbit_is_off_the_weyl_simplex(name):
    _, _, moved, _ = _orbit(name)
    with pytest.raises(ValueError, match="not Weyl-diagonal"):
        qb.nearest_separable_weyl(moved)


@pytest.mark.parametrize("name", sorted(CASES))
def test_partial_transpose_minimum_is_invariant(name):
    state, _, moved, _ = _orbit(name)
    assert qb.ppt_verdict(moved)[1] == pytest.approx(qb.ppt_verdict(state)[1], abs=1e-13)


@pytest.mark.parametrize("kind", list(qb.BasisKind))
@pytest.mark.parametrize("name", sorted(CASES))
def test_correlation_trace_norm_is_invariant(name, kind):
    # local unitaries act on the traceless components of each side unitarily
    state, _, moved, _ = _orbit(name)
    before, after = (np.linalg.norm(qb.bipartite_decompose(rho, kind).correlation, "nuc")
                     for rho in (state, moved))
    assert after == pytest.approx(before, abs=1e-13)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rotated_witness_is_certified(name):
    _, measure, moved, rotate = _orbit(name)
    report = qb.verify_witness(rotate(measure.witness.operator), moved)
    assert report.verdict is qb.WitnessVerdict.WITNESS
    assert report.method is qb.WitnessMethod.PARTIAL_TRANSPOSE
    assert report.ent_expectation == pytest.approx(measure.witness.ent_expectation, abs=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2**32 - 1))
def test_drawn_orbits_keep_the_invariants(name, seed):
    state, measure, moved, rotate = _orbit(name, seed)
    assert abs(qb.ppt_verdict(moved)[1] - qb.ppt_verdict(state)[1]) <= PPT_BUDGET
    # times ortho_const, the trace norm is one number in GGB, POB and WOB too
    norms = [np.linalg.norm(qb.bipartite_decompose(rho, kind).correlation, "nuc")
             * qb.get_basis(kind, state.subdim).ortho_const
             for kind in qb.BasisKind for rho in (state, moved)]
    assert max(norms) - min(norms) <= TRACE_NORM_BUDGET
    report = qb.verify_witness(rotate(measure.witness.operator), moved)
    assert report.verdict is qb.WitnessVerdict.WITNESS
    assert report.method is qb.WitnessMethod.PARTIAL_TRANSPOSE


@pytest.mark.parametrize("name", sorted(CASES))
def test_numeric_oracle_meets_the_closed_form(name):
    # as criterion 09 asks on the Weyl simplex; the distance is a certified
    # upper bound, so only the seesaw's misses can leave it high
    _, measure, moved, _ = _orbit(name)
    res = qb.nearest_separable_numeric(moved)
    assert measure.distance - 1e-6 <= res.distance <= measure.distance + 1e-3
