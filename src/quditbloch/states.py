"""State families and composite two-qudit operators.

Bell states, Weyl Bell projectors, isotropic states, the two-parameter
two-qubit and two-qutrit families, the composite basis operators that carry
their correlation parts, and samplers for random density matrices and random
separable states.

Parameterized constructors validate their physicality constraints by
default; ``checked=False`` skips the check so boundary and unphysical points
can be probed (the matrices are still built, they just may fail positivity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .bases import BasisKind, _check_dim, _check_indices, get_basis, wob_basis
from .linalg import MAX_ENTRY, BipartiteState, DensityMatrix, _check_count, _frozen, tensor

PAULI = {
    1: _frozen([[0, 1], [1, 0]]),
    2: _frozen([[0, -1j], [1j, 0]]),
    3: _frozen([[1, 0], [0, -1]]),
}

# slack of every family boundary: points on a positivity boundary count as
# physical, and points on a separability boundary as separable
TOL_EDGE = 1e-12


def _check_finite(**params: float) -> list[float]:
    """The family parameters as Python floats, so that a numpy float32 is
    computed in double precision; ``ValueError`` for one that is NaN, infinite
    or larger than ``MAX_ENTRY`` in magnitude, ``TypeError`` for one that is
    not a real number. Scalar, so single-point calls pay little for it."""
    values = []
    for name, value in params.items():
        # float() would parse a string, drop a numpy complex's imaginary part
        # and read a bool as 0 or 1
        if isinstance(value, (str, bytes, bytearray, np.complexfloating, bool, np.bool_)):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        try:
            x = float(value)         # TypeError for any other non-number
        except OverflowError:        # an int past the float range, as 10**400:
            x = 2 * MAX_ENTRY        # finite, and past the bound
        if not abs(x) <= MAX_ENTRY:
            bound = f" and at most {MAX_ENTRY:g} in magnitude" if math.isfinite(x) else ""
            raise ValueError(f"{name} must be finite{bound}, got {value}")
        values.append(x)
    return values


def bell_state(d: int) -> BipartiteState:
    """Projector onto the maximally entangled state (1/sqrt d) sum_j |jj>."""
    d = _check_dim(d)
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return BipartiteState(np.outer(psi, psi.conj()), validate=False)


def physical_triangle(d: int, a, b):
    """Positivity of the plane (1-a-b)/d^2 * 1 + a P + (b/2)(Q+R): its eigenvalues c + a,
    c + b/2 and c, c = (1-a-b)/d^2, are each >= 0; at b = 0 the isotropic range."""
    return ((a <= -b + 1 + TOL_EDGE) & (a >= b / (d * d - 1) - 1 / (d * d - 1) - TOL_EDGE)
            & (a <= (d * d / 2 - 1) * b + 1 + TOL_EDGE))


def line_i_alpha(d: int, b):
    """alpha on line I, <rho, P> = 1/d; at b = 0 the isotropic threshold 1/(d+1)."""
    return b / (d * d - 1) + 1 / (d + 1)


def region_i_distance(d: int, a, b):
    """D of a Region I point, whose nearest separable point is (line_i_alpha(d, b), b)."""
    return np.sqrt(d * d - 1.0) / d * (a - 1 / (d + 1) - b / (d * d - 1))


def isotropic_physical(d: int, alpha: float) -> bool:
    """Positivity of the isotropic state, -1/(d^2 - 1) <= alpha <= 1. Raises ``ValueError``
    where ``_check_finite`` does, or for a d outside 2..MAX_DIM (the family needs d >= 2)."""
    _check_dim(d)
    return physical_triangle(d, *_check_finite(alpha=alpha), 0.0)


def isotropic_state(d: int, alpha: float, checked: bool = True) -> BipartiteState:
    """alpha * Bell projector + (1 - alpha)/d^2 * identity.

    Positivity holds exactly for -1/(d^2 - 1) <= alpha <= 1; outside that
    range construction requires ``checked=False``. Raises ``ValueError`` for
    a dimension outside 2..MAX_DIM or an alpha ``_check_finite`` refuses either way.
    """
    d = _check_dim(d)
    (alpha,) = _check_finite(alpha=alpha)
    if checked and not physical_triangle(d, alpha, 0.0):
        raise ValueError(f"isotropic alpha={alpha} outside [-1/(d^2 - 1), 1] for d={d}")
    mat = alpha * bell_state(d).matrix + (1 - alpha) / (d * d) * np.eye(d * d)
    return BipartiteState(mat, validate=False)


def weyl_bell_projector(d: int, n: int, k: int) -> BipartiteState:
    """Maximally entangled projector P_nk = (U_nk (x) 1) P_00 (U_nk^dag (x) 1).
    Raises ``ValueError`` for a dimension outside 2..MAX_DIM or an index n, k
    that is not an integer in 0..d-1."""
    d = _check_dim(d)
    _check_indices(d, 0, "projector", n, k)
    u = wob_basis(d).element((n, k))
    a = tensor(u, np.eye(d))
    return BipartiteState(a @ bell_state(d).matrix @ a.conj().T, validate=False)


@dataclass(frozen=True)
class PlaneFamily:
    """The plane (1 - a - b)/d^2 * 1 + a P + (b/2)(Q + R) of two-qudit states,
    P, Q, R orthogonal maximally entangled projectors. Its triangle, line I and
    Region I's D are functions of d; Region II's are lambdas. All take floats or arrays."""

    name: str               # CLI family name
    subdim: int
    line_ii: Callable       # b -> alpha on the line below which Region II lies
    nearest_ii: Callable    # (a, b) -> nearest separable point of a Region II point
    distance_ii: Callable   # (a, b) -> its Hilbert-Schmidt distance D
    operators: Callable     # () -> (1, P, Q + R), built on first use
    witness_ii: tuple       # weights on operators() of Region II's optimal witness

    def physical(self, a, b):
        return physical_triangle(self.subdim, a, b)

    def line_i(self, b):    # a Region I point (a, b) is nearest to (line_i(b), b)
        return line_i_alpha(self.subdim, b)

    def distance_i(self, a, b):
        return region_i_distance(self.subdim, a, b)

    def mix(self, alpha, beta, ops) -> np.ndarray:
        """rho(alpha, beta) for ops = operators(), its partial transpose for theirs;
        an alpha column (m, 1, 1) stacks m points, bit for bit alike. Takes
        parameters its caller has checked (``_check_finite``, ``cli._grid_axes``)."""
        ident, p, qr = ops
        out = (1 - alpha - beta) / self.subdim ** 2 * ident
        out += alpha * p
        out += beta / 2 * qr
        return out

    def state(self, alpha: float, beta: float, checked: bool = True) -> BipartiteState:
        """rho(alpha, beta); ``checked`` rejects points outside the triangle,
        and ones ``_check_finite`` refuses are rejected either way."""
        alpha, beta = _check_finite(alpha=alpha, beta=beta)
        if checked and not self.physical(alpha, beta):
            raise ValueError(f"{self.name} plane point ({alpha}, {beta}) is unphysical")
        return BipartiteState(self.mix(alpha, beta, self.operators()), validate=False)


@functools.cache
def _qubit_plane_operators() -> tuple[np.ndarray, ...]:
    kets = 1 / np.sqrt(2) * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)
    phi_p, psi_p, psi_m = (np.outer(v, v.conj()) for v in kets)
    return tuple(map(_frozen, (np.eye(4), phi_p, psi_p + psi_m)))


@functools.cache
def _qutrit_plane_operators() -> tuple[np.ndarray, ...]:
    p00, p10, p20 = (weyl_bell_projector(3, n, 0).matrix for n in range(3))
    return tuple(map(_frozen, (np.eye(9), p00, p10 + p20)))


QUBIT_PLANE = PlaneFamily(
    name="qubit2p", subdim=2,
    line_ii=lambda b: -b - 1,
    nearest_ii=lambda a, b: ((-1 + 2 * a - b) / 3, (-2 - 2 * a + b) / 3),
    distance_ii=lambda a, b: (-a - 1 - b) / (2 * np.sqrt(3)),
    operators=_qubit_plane_operators,
    witness_ii=tuple(w / np.sqrt(3) for w in (-1, 2, 2)),
)

QUTRIT_PLANE = PlaneFamily(
    name="qutrit2p", subdim=3,
    line_ii=lambda b: 5 * b / 4 - 1 / 2,
    nearest_ii=lambda a, b: ((-2 + 20 * a + 5 * b) / 24, (2 + 4 * a + b) / 6),
    distance_ii=lambda a, b: (-4 * a - 2 + 5 * b) / (6 * np.sqrt(2)),
    operators=_qutrit_plane_operators,
    witness_ii=tuple(w / (2 * np.sqrt(2)) for w in (1, 1, -2)),
)

PLANES = {plane.name: plane for plane in (QUBIT_PLANE, QUTRIT_PLANE)}


def two_param_qubit(alpha: float, beta: float, checked: bool = True) -> BipartiteState:
    """Two-qubit mixture (1-a-b)/4 * 1 + a phi+ + (b/2)(psi+ + psi-), physical
    iff ``physical_triangle(2, a, b)``; the isotropic qubit state at b = 0."""
    return QUBIT_PLANE.state(alpha, beta, checked)


def two_param_qubit_pauli(alpha: float, beta: float) -> np.ndarray:
    """The same family written in the Pauli basis:
    (1/4)(1 + a(s1 x s1 - s2 x s2) + (a - b) s3 x s3)."""
    alpha, beta = _check_finite(alpha=alpha, beta=beta)
    mat = np.eye(4, dtype=complex)
    mat += alpha * (tensor(PAULI[1], PAULI[1]) - tensor(PAULI[2], PAULI[2]))
    mat += (alpha - beta) * tensor(PAULI[3], PAULI[3])
    return mat / 4


def two_param_qutrit(alpha: float, beta: float, checked: bool = True) -> BipartiteState:
    """Two-qutrit mixture (1-a-b)/9 * 1 + a P_00 + (b/2)(P_10 + P_20), physical
    iff ``physical_triangle(3, a, b)``. In the Weyl basis the state reads
    (1/9)(1 + (a - b/2) U1 + (a + b) U2)."""
    return QUTRIT_PLANE.state(alpha, beta, checked)


class CompositeKind(str, Enum):
    LAMBDA = "lambda"   # GGB correlation operator, any d
    T = "t"             # POB correlation operator, any d
    U = "u"             # WOB correlation operator, any d
    U1 = "u1"           # WOB shift part (m != 0), d = 3 only
    U2 = "u2"           # WOB clock part (m == 0, l != 0), d = 3 only
    SIGMA = "sigma"     # s1 x s1 - s2 x s2 + s3 x s3, d = 2 only

COMPOSITE_NORMS = {
    CompositeKind.LAMBDA: lambda d: 2 * np.sqrt(d * d - 1.0),
    CompositeKind.T: lambda d: np.sqrt(d * d - 1.0),
    CompositeKind.U: lambda d: d * np.sqrt(d * d - 1.0),
    CompositeKind.U1: lambda d: np.sqrt(54.0),
    CompositeKind.U2: lambda d: np.sqrt(18.0),
    CompositeKind.SIGMA: lambda d: 2 * np.sqrt(3.0),
}

# the basis each sum_i A_i (x) A_i^* runs over
_COMPOSITE_BASES = {
    CompositeKind.LAMBDA: BasisKind.GGB,
    CompositeKind.T: BasisKind.POB,
    CompositeKind.U: BasisKind.WOB,
    CompositeKind.U1: BasisKind.WOB,
    CompositeKind.U2: BasisKind.WOB,
    CompositeKind.SIGMA: BasisKind.GGB,
}
# the one dimension a kind is defined at, where it is not defined at every d
_COMPOSITE_DIMS = {CompositeKind.U1: 3, CompositeKind.U2: 3, CompositeKind.SIGMA: 2}


def composite_operator(kind, d: int) -> np.ndarray:
    """Hermitian traceless d^2 x d^2 correlation operators.

    LAMBDA, T and U are each sum_{i>=1} A_i (x) A_i^* over the non-identity
    elements of the GGB, POB and WOB: LAMBDA = sum S_jk x S_jk -
    sum A_jk x A_jk + sum D_l x D_l, T = sum T_LM x T_LM and
    U = sum U_lm x U_{-l,m}. They are proportional: LAMBDA = 2 T = (2/d) U.
    With P+ = ``bell_state(d)`` they are LAMBDA = 2d P+ - (2/d) 1,
    T = d P+ - 1/d and U = d^2 P+ - 1, so these sums check the entry-by-entry
    isotropic witness (1 - d P+)/sqrt(d^2-1) of ``entanglement``.
    U1 and U2 are the m != 0 and m == 0 parts of the sum for U at d = 3;
    SIGMA is LAMBDA at d = 2, the GGB sum s1 x s1 - s2 x s2 + s3 x s3.
    """
    kind = CompositeKind(kind)
    only = _COMPOSITE_DIMS.get(kind, d)
    if d != only:
        raise ValueError(f"{kind.name} is defined for d = {only} only")
    basis = get_basis(_COMPOSITE_BASES[kind], d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for label, el in zip(basis.labels[1:], basis.elements[1:]):
        if (kind is CompositeKind.U1 and label[1] == 0
                or kind is CompositeKind.U2 and label[1] != 0):
            continue
        out += tensor(el, el.conj())
    return out


def random_density_matrix(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-distributed random density matrix G G^dag / Tr(G G^dag).
    Raises ``ValueError`` for a dimension outside 2..MAX_DIM, before any draw."""
    d = _check_dim(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, validate=False)


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector. Raises ``ValueError`` for a dimension
    outside 2..MAX_DIM, before any draw."""
    d = _check_dim(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_separable(d: int, seed, mixture_count: int = 4) -> BipartiteState:
    """Random separable state: a convex mixture of Haar-random pure product
    states with flat-Dirichlet weights.

    A membership sampler for tests, not a uniform measure on the separable
    set. Deterministic for a given seed, a ``Generator`` or an integer >= 0;
    PPT by construction. Raises ``ValueError`` for a dimension outside 2..MAX_DIM,
    then for a ``mixture_count`` not an integer >= 1 or another seed, before any draw.
    """
    d = _check_dim(d)
    _check_count("mixture_count", mixture_count, 1)
    if not isinstance(seed, np.random.Generator):
        _check_count("seed", seed, 0)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(mixture_count))
    mat = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        ab = np.kron(random_ket(d, rng), random_ket(d, rng))   # draws a, then b
        mat += w * np.outer(ab, ab.conj())
    return BipartiteState(mat, validate=False)
