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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gilbert import min_product_expectation
from .linalg import (BipartiteState, as_hermitian, as_matrix, hs_norm, min_eigenvalue,
                     partial_transpose, TOL_PSD)
from .states import (QUBIT_PLANE, QUTRIT_PLANE, TOL_EDGE, PlaneFamily, _check_finite,
                     isotropic_physical, isotropic_state, line_i_alpha, region_i_distance)

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


def ppt_verdict(rho) -> tuple[bool, float]:
    """(is_ppt, smallest eigenvalue of the partial transpose)."""
    lo = min_eigenvalue(partial_transpose(rho))
    return lo >= -TOL_PSD, lo


def witness_candidate(rho_tilde, rho_ent) -> np.ndarray:
    """Witness candidate built from a separable guess and an entangled state.

    C = (rho_tilde - rho_ent - <rho_tilde, rho_tilde - rho_ent> 1) / ||rho_tilde - rho_ent||.
    By construction <rho_ent, C> = -||rho_tilde - rho_ent|| < 0; C is a
    genuine witness iff rho_tilde is the nearest separable state.

    Its error grows like rounding/D: at qutrit2p (0.2706632663061225,
    0.16530612244897958) and its line-I point, D = 9.4e-10, C misses the
    partial-transpose certificate and the seesaw says ``NotWitness``. The
    closed-form measures (``hs_measure_plane``, ``hs_measure_isotropic``) do
    not call it: their witnesses are exact operators, ``Inconclusive`` there.
    """
    mt = as_matrix(rho_tilde)
    me = as_matrix(rho_ent)
    if mt.shape != me.shape:
        raise ValueError(f"dimension mismatch: {mt.shape} vs {me.shape}")
    diff = mt - me
    # the Hermitian part: rounding in two nearly equal states, divided by a
    # small distance, would otherwise leave C visibly non-Hermitian
    diff = (diff + diff.conj().T) / 2
    # hs_norm and hs_inner by np.vdot, without their entry bound, which the
    # difference of two bounded inputs can exceed twofold
    dist = float(np.sqrt(np.vdot(diff, diff).real))
    if dist <= 1e-14:
        raise ValueError("witness candidate undefined for coinciding states")
    shift = np.vdot(mt, diff).real
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
    within TOL_WIT of 0 decides nothing). <rho_ent, A> is the exactly rounded
    sum of the entries' rounded products, whatever the BLAS kernel.
    """
    a = as_hermitian(a, "witness operator")
    me = as_matrix(rho_ent)
    if me.shape != a.shape:
        raise ValueError(f"dimension mismatch: {me.shape} vs {a.shape}")
    terms = me.real * a.real + me.imag * a.imag
    ent = math.fsum(terms[terms != 0])

    certified = ppt_verdict(a)[1] >= -TOL_WIT * hs_norm(a)
    if certified:
        method, sep_min = WitnessMethod.PARTIAL_TRANSPOSE, 0.0
    else:   # no certificate holds: fall back to the one-sided numeric bound
        method = WitnessMethod.SEESAW
        sep_min = min_product_expectation(a, np.random.default_rng(0))
    if ent > TOL_WIT or sep_min < -TOL_WIT:
        verdict = WitnessVerdict.NOT_WITNESS
    elif certified and ent < -TOL_WIT:
        verdict = WitnessVerdict.WITNESS
    else:
        verdict = WitnessVerdict.INCONCLUSIVE
    return WitnessReport(a, ent, sep_min, verdict, method)


def classify_isotropic(d: int, alpha: float) -> RegionLabel:
    """Region of an isotropic state: entangled iff alpha > 1/(d+1); the
    boundary counts as separable. Raises ``ValueError`` for a dimension
    outside 2..MAX_DIM, and where ``_check_finite`` does."""
    if not isotropic_physical(d, alpha):
        return RegionLabel.UNPHYSICAL
    (alpha,) = _check_finite(alpha=alpha)
    if alpha > line_i_alpha(d, 0.0) + TOL_EDGE:
        return RegionLabel.ENTANGLED
    return RegionLabel.SEPARABLE


def _isotropic_witness(d: int) -> np.ndarray:
    """The optimal witness (1x1 - d P+)/sqrt(d^2-1) of every entangled isotropic
    state of dimension d, built read-only on each call; d P+ is 1 at each
    (jj, kk), so no basis is built."""
    a_opt = np.eye(d * d, dtype=complex)
    jj = np.arange(d) * (d + 1)
    a_opt[np.ix_(jj, jj)] -= 1
    a_opt /= np.sqrt(d * d - 1.0)
    a_opt.setflags(write=False)
    return a_opt


def hs_measure_isotropic(d: int, alpha: float) -> HSMeasureResult:
    """Closed-form measure for the entangled isotropic state (alpha > 1/(d+1)).

    The nearest separable state sits on the separability boundary
    alpha0 = 1/(d+1); the distance is sqrt(d^2-1)/d * (alpha - alpha0) and
    the optimal witness is A_opt = (1x1 - d P+)/sqrt(d^2-1), the same
    operator for every alpha, built read-only on each call entry by entry
    without a basis: 0 at each (jj, jj), -1/sqrt(d^2-1) at each (jj, kk)
    with j != k, 1/sqrt(d^2-1) on the rest of the diagonal. Its partial transpose
    2 P_antisym/sqrt(d^2-1) is positive semidefinite (Bertlmann, Narnhofer &
    Thirring, PRA 66, 032319 (2002)), which certifies it at every d.
    """
    if classify_isotropic(d, alpha) is not RegionLabel.ENTANGLED:
        raise ValueError(f"isotropic alpha={alpha} is not in the entangled range "
                         f"(1/(d+1), 1] of d={d}")
    (alpha,) = _check_finite(alpha=alpha)
    rho_ent = isotropic_state(d, alpha)
    rho0 = isotropic_state(d, line_i_alpha(d, 0.0))
    distance = region_i_distance(d, alpha, 0.0)
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
    Raises ``ValueError`` where ``_check_finite`` does."""
    return _PLANE_REGIONS[_plane_region(plane, *_check_finite(alpha=alpha, beta=beta))]


def _plane_distances(plane: PlaneFamily, alpha: np.ndarray, beta: float):
    """Region codes of plane points, an alpha array at one beta, and their
    closed-form D as an object array: a float in Regions I and II, None elsewhere."""
    region = _plane_region(plane, alpha, beta)
    distance = np.full(region.shape, None, dtype=object)
    for code, formula in ((2, plane.distance_i), (3, plane.distance_ii)):
        mask = region == code
        distance[mask] = formula(alpha[mask], beta).tolist()
    return region, distance


def plane_distance(plane: PlaneFamily, alpha: float,
                   beta: float) -> tuple[RegionLabel, float | None]:
    """Region label and, for entangled points, the closed-form distance D;
    builds no state. Raises ``ValueError`` where ``_check_finite`` does."""
    alpha, beta = _check_finite(alpha=alpha, beta=beta)
    region, distance = _plane_distances(plane, np.array([alpha]), beta)
    return _PLANE_REGIONS[region[0]], distance[0]


def _region_witness(plane: PlaneFamily, label: RegionLabel) -> np.ndarray:
    """The optimal witness of an entangled plane region, one operator for all
    its points (the region's nearest-point map projects onto its line), built
    read-only on each call in closed form: line I is the isotropic threshold
    <rho, P> = 1/d, so Region I has the isotropic witness; Region II has the
    weights ``plane.witness_ii`` on ``plane.operators()``."""
    if label is RegionLabel.ENTANGLED_I:
        return _isotropic_witness(plane.subdim)
    a_opt = sum(w * op for w, op in zip(plane.witness_ii, plane.operators()))
    a_opt.setflags(write=False)
    return a_opt


def hs_measure_plane(plane: PlaneFamily, alpha: float,
                     beta: float) -> tuple[RegionLabel, HSMeasureResult | None]:
    """Region label and, for entangled points, the closed-form measure: the
    nearest separable state, D, and the region's optimal witness (the same
    operator at every point of the region, built read-only on each call)
    certified by its positive semidefinite partial transpose."""
    alpha, beta = _check_finite(alpha=alpha, beta=beta)
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
    """``classify_plane`` on the two-qubit plane (Region I around phi+, Region II
    around phi-). Kept only because ``perfbench/workloads.py`` reads it at import
    time; the benchmark revision of ROADMAP item 1 retires it."""
    return classify_plane(QUBIT_PLANE, alpha, beta)


def classify_qutrit_plane(alpha: float, beta: float) -> RegionLabel:
    """``classify_plane`` on the two-qutrit plane, whose PPT states are exactly
    the separable ones. Kept only because ``perfbench/workloads.py`` reads it at
    import time; the benchmark revision of ROADMAP item 1 retires it."""
    return classify_plane(QUTRIT_PLANE, alpha, beta)
