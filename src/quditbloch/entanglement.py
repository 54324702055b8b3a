"""Hilbert-Schmidt entanglement geometry.

Closed-form nearest separable states, distances and optimal witnesses for the
isotropic and two-parameter families, the witness-candidate construction and
its verification (analytically through the qubit/qutrit separable-expectation
lemmas, or numerically through a seesaw over product states), and PPT
verdicts.

For every closed-form result the optimal-witness identities hold:
D = B = -<rho_ent, A_opt> and <rho_0, A_opt> = 0, where B is the maximal
violation of the witness inequality over separable states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gilbert import min_product_expectation
from .linalg import (BipartiteState, _bipartite_matrix, as_hermitian, as_matrix, hs_inner,
                     hs_norm, min_eigenvalue, partial_transpose, TOL_PSD)
from .states import (QUBIT_PLANE, QUTRIT_PLANE, CompositeKind, PlaneFamily,
                     composite_operator, isotropic_physical, isotropic_state)

TOL_WIT = 1e-9
_EDGE = 1e-12   # boundary points count as separable


class RegionLabel(str, Enum):
    UNPHYSICAL = "Unphysical"
    SEPARABLE = "Separable"
    ENTANGLED = "Entangled"            # isotropic states
    ENTANGLED_I = "EntangledRegionI"
    ENTANGLED_II = "EntangledRegionII"


class WitnessVerdict(str, Enum):
    WITNESS = "Witness"
    NOT_WITNESS = "NotWitness"
    INCONCLUSIVE = "Inconclusive"


class WitnessMethod(str, Enum):
    LEMMA_QUBIT = "LemmaQubit"
    LEMMA_QUTRIT = "LemmaQutrit"
    SEESAW = "SeesawNumeric"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of testing a Hermitian operator against one entangled state.

    ``sep_min_estimate`` is 0 when a lemma certifies nonnegativity on all
    separable states, otherwise the smallest product-state expectation found
    by the seesaw (an upper bound on the true separable minimum).
    """

    operator: np.ndarray
    ent_expectation: float
    sep_min_estimate: float
    verdict: WitnessVerdict
    method: WitnessMethod


@dataclass(frozen=True)
class HSMeasureResult:
    """Distance to the separable set with its optimal-witness data."""

    distance: float
    nearest_separable: BipartiteState
    witness: WitnessReport
    max_violation: float


def ppt_verdict(rho, subdim: int | None = None) -> tuple[bool, float]:
    """(is_ppt, smallest eigenvalue of the partial transpose)."""
    pt = partial_transpose(rho, "B", subdim)
    lo = min_eigenvalue(pt)
    return lo >= -TOL_PSD, lo


def witness_candidate(rho_tilde, rho_ent) -> np.ndarray:
    """Witness candidate built from a separable guess and an entangled state.

    C = (rho_tilde - rho_ent - <rho_tilde, rho_tilde - rho_ent> 1) / ||rho_tilde - rho_ent||.
    By construction <rho_ent, C> = -||rho_tilde - rho_ent|| < 0; C is a
    genuine witness iff rho_tilde is the nearest separable state.
    """
    mt = as_matrix(rho_tilde)
    me = as_matrix(rho_ent)
    if mt.shape != me.shape:
        raise ValueError(f"dimension mismatch: {mt.shape} vs {me.shape}")
    diff = mt - me
    dist = hs_norm(diff)
    if dist <= 1e-14:
        raise ValueError("witness candidate undefined for coinciding states")
    shift = hs_inner(mt, diff).real
    return (diff - shift * np.eye(mt.shape[0])) / dist


def _match_lemma(a: np.ndarray, identity_weight: int, ops, tol: float = TOL_WIT):
    """Fit A = s(k 1 + c1 X1 + c2 X2), k = identity_weight, (X1, X2) = ops.

    s = Tr A / (k n) and c_i = <X_i, A> / (||X_i||^2 s) for traceless,
    mutually orthogonal X_i; None if A is not of that form with s > 0 and
    |c1|, |c2| <= 1.
    """
    n = a.shape[0]
    s = float(np.trace(a).real) / (identity_weight * n)
    if s <= tol:
        return None
    c1, c2 = (hs_inner(x, a).real / (hs_inner(x, x).real * s) for x in ops)
    form = s * (identity_weight * np.eye(n, dtype=complex) + c1 * ops[0] + c2 * ops[1])
    if np.abs(a - form).max() > 1e-9 or abs(c1) > 1 + tol or abs(c2) > 1 + tol:
        return None
    return s, c1, c2


# the plane whose lemma each lemma method fits; the method for each subsystem dimension
_LEMMA_PLANES = {WitnessMethod.LEMMA_QUBIT: QUBIT_PLANE,
                 WitnessMethod.LEMMA_QUTRIT: QUTRIT_PLANE}
_LEMMA_METHODS = {plane.subdim: method for method, plane in _LEMMA_PLANES.items()}


def verify_witness(a: np.ndarray, rho_ent, method=WitnessMethod.SEESAW,
                   restarts: int = 20, seed: int = 0) -> WitnessReport:
    """Test whether a Hermitian operator witnesses the entanglement of rho_ent.

    The lemma methods certify nonnegativity on all separable states when the
    operator matches the corresponding closed form; the seesaw only produces
    an upper bound on the separable minimum, so it can refute
    (``NotWitness``) but never certify (at best ``Inconclusive``).
    """
    a = as_hermitian(a, "witness operator")
    method = WitnessMethod(method)
    me, d = _bipartite_matrix(rho_ent, None)
    ent = hs_inner(me, a).real   # raises ValueError unless a and rho_ent have one shape

    plane = _LEMMA_PLANES.get(method)
    fit = None
    if plane is not None and d == plane.subdim:
        fit = _match_lemma(a, plane.lemma_identity, plane.operators()[3:])

    if fit is not None:
        sep_min = 0.0
        verdict = WitnessVerdict.WITNESS if ent < -TOL_WIT else WitnessVerdict.NOT_WITNESS
        return WitnessReport(a, ent, sep_min, verdict, method)

    # no lemma form matched: fall back to the one-sided numeric bound
    rng = np.random.default_rng(seed)
    sep_min = min_product_expectation(a, d, rng, restarts=restarts)
    if ent >= -TOL_WIT or sep_min < -TOL_WIT:
        verdict = WitnessVerdict.NOT_WITNESS
    else:
        verdict = WitnessVerdict.INCONCLUSIVE
    return WitnessReport(a, ent, sep_min, verdict, WitnessMethod.SEESAW)


def _isotropic_threshold(d: int) -> float:
    return 1.0 / (d + 1)


def classify_isotropic(d: int, alpha: float) -> RegionLabel:
    """Region of an isotropic state: entangled iff alpha > 1/(d+1); the
    boundary counts as separable. Raises ``ValueError`` for d < 2."""
    if not isotropic_physical(d, alpha):
        return RegionLabel.UNPHYSICAL
    if alpha > _isotropic_threshold(d) + _EDGE:
        return RegionLabel.ENTANGLED
    return RegionLabel.SEPARABLE


def hs_measure_isotropic(d: int, alpha: float) -> HSMeasureResult:
    """Closed-form measure for the entangled isotropic state (alpha > 1/(d+1)).

    The nearest separable state sits on the separability boundary
    alpha0 = 1/(d+1); the distance is sqrt(d^2-1)/d * (alpha - alpha0) and
    the optimal witness is
    (1/d) sqrt((d-1)/(d+1)) 1x1 - LAMBDA / (2 sqrt(d^2-1)).
    """
    if classify_isotropic(d, alpha) is not RegionLabel.ENTANGLED:
        raise ValueError(f"isotropic alpha={alpha} is not in the entangled range "
                         f"(1/(d+1), 1] of d={d}")
    threshold = _isotropic_threshold(d)
    rho_ent = isotropic_state(d, alpha)
    rho0 = isotropic_state(d, threshold)
    lam = composite_operator(CompositeKind.LAMBDA, d)
    a_opt = (np.sqrt((d - 1.0) / (d + 1.0)) / d * np.eye(d * d, dtype=complex)
             - lam / (2 * np.sqrt(d * d - 1.0)))
    distance = np.sqrt(d * d - 1.0) / d * (alpha - threshold)
    report = verify_witness(a_opt, rho_ent, _LEMMA_METHODS.get(d, WitnessMethod.SEESAW))
    return HSMeasureResult(float(distance), rho0, report, -report.ent_expectation)


def classify_plane(plane: PlaneFamily, alpha: float, beta: float) -> RegionLabel:
    """Region of a point of a two-parameter plane; boundaries count as separable."""
    if not plane.physical(alpha, beta):
        return RegionLabel.UNPHYSICAL
    if alpha > plane.line_i(beta) + _EDGE:
        return RegionLabel.ENTANGLED_I
    if alpha < plane.line_ii(beta) - _EDGE:
        return RegionLabel.ENTANGLED_II
    return RegionLabel.SEPARABLE


def plane_distance(plane: PlaneFamily, alpha: float,
                   beta: float) -> tuple[RegionLabel, float | None]:
    """Region label and, for entangled points, the closed-form distance D;
    builds no state."""
    label = classify_plane(plane, alpha, beta)
    if label is RegionLabel.ENTANGLED_I:
        return label, float(plane.distance_i(alpha, beta))
    if label is RegionLabel.ENTANGLED_II:
        return label, float(plane.distance_ii(alpha, beta))
    return label, None


def hs_measure_plane(plane: PlaneFamily, alpha: float,
                     beta: float) -> tuple[RegionLabel, HSMeasureResult | None]:
    """Region label and, for entangled points, the closed-form measure: the
    nearest separable state, D, and the optimal witness certified by the
    plane's separable-expectation lemma."""
    label, distance = plane_distance(plane, alpha, beta)
    if distance is None:
        return label, None
    nearest = plane.nearest_i if label is RegionLabel.ENTANGLED_I else plane.nearest_ii
    rho_ent = plane.state(alpha, beta)
    rho0 = plane.state(*nearest(alpha, beta))
    a_opt = witness_candidate(rho0, rho_ent)
    report = verify_witness(a_opt, rho_ent, _LEMMA_METHODS[plane.subdim])
    return label, HSMeasureResult(distance, rho0, report, -report.ent_expectation)


def classify_qubit_plane(alpha: float, beta: float) -> RegionLabel:
    """Region of a point of the two-qubit plane; boundaries count as separable."""
    return classify_plane(QUBIT_PLANE, alpha, beta)


def hs_measure_qubit_plane(alpha: float, beta: float) -> tuple[RegionLabel, HSMeasureResult | None]:
    """``hs_measure_plane`` on the two-qubit plane (Region I around phi+,
    Region II around phi-; formulas in ``QUBIT_PLANE``)."""
    return hs_measure_plane(QUBIT_PLANE, alpha, beta)


def classify_qutrit_plane(alpha: float, beta: float) -> RegionLabel:
    """Region of a point of the two-qutrit plane; for this family the PPT
    states are exactly the separable ones."""
    return classify_plane(QUTRIT_PLANE, alpha, beta)


def hs_measure_qutrit_plane(alpha: float, beta: float) -> tuple[RegionLabel, HSMeasureResult | None]:
    """``hs_measure_plane`` on the two-qutrit plane (formulas in ``QUTRIT_PLANE``)."""
    return hs_measure_plane(QUTRIT_PLANE, alpha, beta)
