"""Hilbert-Schmidt entanglement geometry.

Closed-form nearest separable states, distances and optimal witnesses for the
isotropic and two-parameter families, the witness-candidate construction and
its verification (certified by a positive semidefinite partial transpose, or
refuted numerically through a seesaw over product states), and PPT verdicts.

For every closed-form result the optimal-witness identities hold:
D = B = -<rho_ent, A_opt> and <rho_0, A_opt> = 0, where B is the maximal
violation of the witness inequality over separable states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gilbert import min_product_expectation
from .linalg import (BipartiteState, _bipartite_matrix, as_hermitian, as_matrix, hs_inner,
                     hs_norm, min_eigenvalue, partial_transpose, TOL_PSD)
from .states import (QUBIT_PLANE, QUTRIT_PLANE, TOL_EDGE, CompositeKind, PlaneFamily,
                     _check_finite, composite_operator, isotropic_physical, isotropic_state)

TOL_WIT = 1e-9


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
    """Provenance of a verdict: which test produced ``sep_min_estimate``."""

    PARTIAL_TRANSPOSE = "PartialTranspose"
    SEESAW = "SeesawNumeric"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of testing a Hermitian operator against one entangled state.

    ``sep_min_estimate`` is 0 when a positive semidefinite partial transpose
    proves nonnegativity on all separable states, otherwise the smallest
    product-state expectation found by the seesaw (an upper bound on the true
    separable minimum).
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

    Its error grows like rounding/D: at qutrit2p (0.2706632663061225,
    0.16530612244897958) and its line-I point, D = 9.4e-10, C misses the
    partial-transpose certificate and the seesaw says ``NotWitness`` where
    ``hs_measure_plane`` says ``Inconclusive``. Near a region line, use the
    closed-form measures (``hs_measure_plane``, ``hs_measure_isotropic``).
    """
    mt = as_matrix(rho_tilde)
    me = as_matrix(rho_ent)
    if mt.shape != me.shape:
        raise ValueError(f"dimension mismatch: {mt.shape} vs {me.shape}")
    diff = mt - me
    # the Hermitian part: rounding in two nearly equal states, divided by a
    # small distance, would otherwise leave C visibly non-Hermitian
    diff = (diff + diff.conj().T) / 2
    dist = hs_norm(diff)
    if dist <= 1e-14:
        raise ValueError("witness candidate undefined for coinciding states")
    shift = hs_inner(mt, diff).real
    return (diff - shift * np.eye(mt.shape[0])) / dist


def verify_witness(a: np.ndarray, rho_ent) -> WitnessReport:
    """Test whether a Hermitian operator witnesses the entanglement of rho_ent.

    A positive semidefinite partial transpose certifies nonnegativity on all
    separable states, as <ab|A|ab> = <a b*|A^Gamma|a b*> (Horodecki,
    Horodecki & Horodecki, PLA 223, 1 (1996)): ``PartialTranspose`` when
    lambda_min(A^Gamma) >= -TOL_WIT ||A||. Otherwise the report falls back to
    the seesaw (``SeesawNumeric``), which only produces an upper bound on the
    separable minimum, so it can refute but never certify. One rule gives the
    verdict: ``NotWitness`` if <rho_ent, A> > TOL_WIT or the seesaw finds a
    product state below -TOL_WIT; ``Witness`` if the certificate holds and
    <rho_ent, A> < -TOL_WIT; otherwise ``Inconclusive`` (an expectation
    within TOL_WIT of 0 decides nothing).
    """
    a = as_hermitian(a, "witness operator")
    me, d = _bipartite_matrix(rho_ent, None)
    ent = hs_inner(me, a).real   # raises ValueError unless a and rho_ent have one shape

    certified = ppt_verdict(a, d)[1] >= -TOL_WIT * hs_norm(a)
    if certified:
        method, sep_min = WitnessMethod.PARTIAL_TRANSPOSE, 0.0
    else:   # no certificate holds: fall back to the one-sided numeric bound
        method = WitnessMethod.SEESAW
        sep_min = min_product_expectation(a, d, np.random.default_rng(0))
    if ent > TOL_WIT or sep_min < -TOL_WIT:
        verdict = WitnessVerdict.NOT_WITNESS
    elif certified and ent < -TOL_WIT:
        verdict = WitnessVerdict.WITNESS
    else:
        verdict = WitnessVerdict.INCONCLUSIVE
    return WitnessReport(a, ent, sep_min, verdict, method)


def _isotropic_threshold(d: int) -> float:
    return 1.0 / (d + 1)


def classify_isotropic(d: int, alpha: float) -> RegionLabel:
    """Region of an isotropic state: entangled iff alpha > 1/(d+1); the
    boundary counts as separable. Raises ``ValueError`` for d < 2."""
    if not isotropic_physical(d, alpha):
        return RegionLabel.UNPHYSICAL
    if alpha > _isotropic_threshold(d) + TOL_EDGE:
        return RegionLabel.ENTANGLED
    return RegionLabel.SEPARABLE


@functools.cache
def _isotropic_witness(d: int) -> np.ndarray:
    """The optimal witness of the entangled isotropic states of dimension d,
    one read-only operator for every alpha, built in the GGB form
    (1/d) sqrt((d-1)/(d+1)) 1x1 - LAMBDA / (2 sqrt(d^2-1))."""
    lam = composite_operator(CompositeKind.LAMBDA, d)
    a_opt = (np.sqrt((d - 1.0) / (d + 1.0)) / d * np.eye(d * d, dtype=complex)
             - lam / (2 * np.sqrt(d * d - 1.0)))
    a_opt.setflags(write=False)
    return a_opt


def hs_measure_isotropic(d: int, alpha: float) -> HSMeasureResult:
    """Closed-form measure for the entangled isotropic state (alpha > 1/(d+1)).

    The nearest separable state sits on the separability boundary
    alpha0 = 1/(d+1); the distance is sqrt(d^2-1)/d * (alpha - alpha0) and
    the optimal witness is A_opt = (1x1 - d P+)/sqrt(d^2-1), the same
    read-only operator for every alpha. Its partial transpose
    2 P_antisym/sqrt(d^2-1) is positive semidefinite (Bertlmann, Narnhofer &
    Thirring, PRA 66, 032319 (2002)), which certifies it at every d.
    """
    if classify_isotropic(d, alpha) is not RegionLabel.ENTANGLED:
        raise ValueError(f"isotropic alpha={alpha} is not in the entangled range "
                         f"(1/(d+1), 1] of d={d}")
    threshold = _isotropic_threshold(d)
    rho_ent = isotropic_state(d, alpha)
    rho0 = isotropic_state(d, threshold)
    distance = np.sqrt(d * d - 1.0) / d * (alpha - threshold)
    report = verify_witness(_isotropic_witness(d), rho_ent)
    return HSMeasureResult(float(distance), rho0, report, -report.ent_expectation)


# plane regions by the codes _plane_region returns
_PLANE_REGIONS = (RegionLabel.UNPHYSICAL, RegionLabel.SEPARABLE,
                  RegionLabel.ENTANGLED_I, RegionLabel.ENTANGLED_II)


def _plane_region(plane: PlaneFamily, alpha, beta):
    """Region codes of plane points: physical ones above line I are in Region
    I, else those below line II in Region II, else separable, boundaries
    included. Plain operators only, so floats and arrays alike; ``^`` removes
    Region I, as ``~`` does not negate a Python bool."""
    physical = plane.physical(alpha, beta)
    region_i = physical & (alpha > plane.line_i(beta) + TOL_EDGE)
    region_ii = (physical ^ region_i) & (alpha < plane.line_ii(beta) - TOL_EDGE)
    return 1 * physical + region_i + 2 * region_ii


def classify_plane(plane: PlaneFamily, alpha: float, beta: float) -> RegionLabel:
    """Region of a point of a two-parameter plane; boundaries count as separable.
    Raises ``ValueError`` for a non-finite alpha or beta."""
    _check_finite(alpha=alpha, beta=beta)
    return _PLANE_REGIONS[_plane_region(plane, alpha, beta)]


def _plane_distances(plane: PlaneFamily, alpha: np.ndarray, beta: np.ndarray):
    """Region codes of plane points given as arrays, and their closed-form D
    as an object array: a float in Regions I and II, None elsewhere."""
    region = _plane_region(plane, alpha, beta)
    distance = np.full(region.shape, None, dtype=object)
    for code, formula in ((2, plane.distance_i), (3, plane.distance_ii)):
        mask = region == code
        distance[mask] = formula(alpha[mask], beta[mask]).tolist()
    return region, distance


def plane_distance(plane: PlaneFamily, alpha: float,
                   beta: float) -> tuple[RegionLabel, float | None]:
    """Region label and, for entangled points, the closed-form distance D;
    builds no state. Raises ``ValueError`` for a non-finite alpha or beta."""
    _check_finite(alpha=alpha, beta=beta)
    region, distance = _plane_distances(plane, np.array([alpha]), np.array([beta]))
    return _PLANE_REGIONS[region[0]], distance[0]


@functools.cache
def _region_witness(plane: PlaneFamily, label: RegionLabel) -> np.ndarray:
    """The optimal witness of an entangled plane region, one read-only
    operator for all its points (the region's nearest-point map projects onto
    its line). Built a unit beyond the line at beta = 0, outside the triangle,
    so no D close to 0 divides rounding into it."""
    if label is RegionLabel.ENTANGLED_I:
        alpha = plane.line_i(0.0)
        ent, sep = (alpha + 1, 0.0), (alpha, 0.0)
    else:
        alpha = plane.line_ii(0.0) - 1
        ent, sep = (alpha, 0.0), plane.nearest_ii(alpha, 0.0)
    a_opt = witness_candidate(plane.state(*sep, checked=False),
                              plane.state(*ent, checked=False))
    a_opt.setflags(write=False)
    return a_opt


def hs_measure_plane(plane: PlaneFamily, alpha: float,
                     beta: float) -> tuple[RegionLabel, HSMeasureResult | None]:
    """Region label and, for entangled points, the closed-form measure: the
    nearest separable state, D, and the region's optimal witness (the same
    read-only operator at every point of the region) certified by its
    positive semidefinite partial transpose."""
    label, distance = plane_distance(plane, alpha, beta)
    if distance is None:
        return label, None
    nearest = ((plane.line_i(beta), beta) if label is RegionLabel.ENTANGLED_I
               else plane.nearest_ii(alpha, beta))
    rho_ent = plane.state(alpha, beta)
    rho0 = plane.state(*nearest)
    report = verify_witness(_region_witness(plane, label), rho_ent)
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
