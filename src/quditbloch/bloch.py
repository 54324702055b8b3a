"""Bloch-vector encoding and decoding of density matrices.

Two component conventions are exposed because the orthogonality constant N
differs between bases:

* ``EXPANSION`` ("coeff"): c_i = Tr(A_i^dag rho) / N. These are the literal
  expansion coefficients, so ``decode(encode(rho)) == rho`` for every basis.
* ``EXPECTATION`` ("expval"): the component definitions used in closed-form
  work, per basis: Tr(L_i rho) for the Hermitian GGB (real), Tr(T_LM^dag rho)
  for the POB, and Tr(U_nm rho) for the WOB. Under this convention the WOB
  components of a Hermitian matrix satisfy the conjugation symmetry
  b*_nm = exp(2 pi i n m / d) b_{-n,-m}.

The conventions are related componentwise by the factor N plus, for the
non-Hermitian bases, complex conjugation bookkeeping: GGB b = N c,
POB b = c, WOB b = N conj(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bases import BasisKind, _frame, _frame_product, get_basis
from .linalg import MAX_ENTRY, _bipartite_matrix, _frozen, _realign, as_matrix, is_psd


class Convention(str, Enum):
    EXPANSION = "coeff"
    EXPECTATION = "expval"


def radius_bound(kind, d: int) -> float:
    """Radius of the Bloch hypersphere in the EXPANSION convention.

    Pure states saturate the bound: 1 = 1/d + N |b|^2.
    """
    kind = BasisKind(kind)
    n = get_basis(kind, d).ortho_const
    return float(np.sqrt((d - 1) / (d * n)))


@dataclass(frozen=True)
class BlochVector:
    """(d^2 - 1)-component coefficient vector tied to a basis and a convention."""

    kind: BasisKind
    dim: int
    convention: Convention
    components: np.ndarray
    labels: tuple

    def __post_init__(self):
        comp = _frozen(self.components)
        object.__setattr__(self, "components", comp)
        if comp.shape != (self.dim * self.dim - 1,):
            raise ValueError(
                f"Bloch vector of dimension {self.dim} needs {self.dim**2 - 1} components"
            )
        # encoding a matrix M with entries within MAX_ENTRY gives components of
        # modulus at most |Tr(A_i^dag M)| <= ||A_i|| d MAX_ENTRY, where ||A_i||^2 is
        # the expval factor N <= d (coeff divides by N >= 1): below d^2 MAX_ENTRY.
        # Larger components are refused, so radius and decoding cannot overflow
        # (NaN fails the comparison too)
        bound = self.dim ** 2 * MAX_ENTRY
        if not np.abs(comp).max(initial=0.0) <= bound:
            raise ValueError(f"Bloch vector components must be finite and at most {bound:g} "
                             "in modulus")

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.components))


def bloch_encode(rho, kind, convention=Convention.EXPANSION) -> BlochVector:
    """Bloch vector of a density matrix in the chosen basis and convention."""
    kind = BasisKind(kind)
    convention = Convention(convention)
    mat = as_matrix(rho)
    basis = get_basis(kind, mat.shape[0])
    # conj(Tr(A_i^dag rho)) without a conjugated copy of the stack
    comp = _frame_product(basis, mat)[1:]
    # WOB expectation values are Tr(U_nm rho) of a Hermitian rho, the product
    # itself; all other components are Tr(A_i^dag rho) (GGB Hermitian). The
    # + 0.0 comes last: it turns the -0.0 that conjugating a zero imaginary
    # part leaves back into +0.0
    if not (kind is BasisKind.WOB and convention is Convention.EXPECTATION):
        comp = comp.conj()
    comp = comp + 0.0
    if convention is Convention.EXPANSION:
        comp = comp / basis.ortho_const
    return BlochVector(kind, basis.dim, convention, comp, basis.labels[1:])


def _expansion_components(b: BlochVector) -> np.ndarray:
    if b.convention is Convention.EXPANSION:
        return np.asarray(b.components)
    if b.kind is BasisKind.WOB:
        return np.conj(b.components) / b.dim
    n = get_basis(b.kind, b.dim).ortho_const
    return np.asarray(b.components) / n


class DecodeResult(NamedTuple):
    matrix: np.ndarray
    is_physical: bool


def bloch_decode(b: BlochVector) -> DecodeResult:
    """Matrix 1/d + sum c_i A_i of a Bloch vector.

    The result always has unit trace but need not be positive; the
    ``is_physical`` flag reports whether the smallest eigenvalue of the
    Hermitian part is >= -TOL_PSD. Non-physical vectors are legal input.
    """
    d = b.dim
    f = _frame(get_basis(b.kind, d))
    mat = np.eye(d, dtype=complex) / d + (_expansion_components(b) @ f[1:]).reshape(d, d)
    return DecodeResult(mat, is_psd(mat))


def purity(rho) -> float:
    """Tr rho^2; equals 1/d + N |b|^2 for the EXPANSION Bloch vector b."""
    mat = as_matrix(rho)
    return float(np.vdot(mat, mat).real)


@dataclass(frozen=True)
class BipartiteBlochDecomposition:
    """Local and correlation parts of a d (x) d state in a product basis.

    ``local_a``/``local_b`` are the EXPANSION Bloch vectors of the reduced
    states; ``correlation[i, j] = Tr((A_i^dag (x) A_j^dag) rho) / N^2``. The
    state is reassembled as

        rho = 1(x)1/d^2 + (1/d) sum n_i A_i(x)1 + (1/d) sum m_j 1(x)A_j
              + sum c_ij A_i(x)A_j

    so a product state rho_A (x) rho_B has rank-one correlation
    c_ij = n_i m_j. Both directions change basis by F (rows: the flattened
    A_i, A_0 = a_0 1) on each side of the realigned matrix R(rho).
    """

    kind: BasisKind
    dim: int
    local_a: np.ndarray
    local_b: np.ndarray
    correlation: np.ndarray

    def reconstruct(self) -> np.ndarray:
        d = self.dim
        f = _frame(get_basis(self.kind, d))
        s = d * f[0, 0].real                  # d a_0
        k = np.block([[1 / (s * s), self.local_b / s],
                      [self.local_a[:, None] / s, self.correlation]])
        return _realign(f.T @ k @ f, d)


def bipartite_decompose(rho, kind, subdim: int | None = None) -> BipartiteBlochDecomposition:
    """Local Bloch vectors and correlations of a bipartite state, read-only views of
    K = conj(F) R(rho) F^dag / N: a_0 n_i in column 0, a_0 m_j in row 0, N c_ij elsewhere.
    ``subdim``, if given, must be the matrix's own d (``ValueError``); kept only because
    ``perfbench/workloads.py`` passes it, until the benchmark revision of ROADMAP item 1."""
    kind = BasisKind(kind)
    mat, d = _bipartite_matrix(rho)
    if subdim not in (None, d):
        raise ValueError(f"subdim {subdim} does not match a matrix of dimension {d * d}")
    basis = get_basis(kind, d)
    fc = _frame(basis).conj()
    k = fc @ _realign(mat, d) @ fc.T / basis.ortho_const
    k[1:, 0] /= fc[0, 0].real
    k[0, 1:] /= fc[0, 0].real
    k[1:, 1:] /= basis.ortho_const
    k = _frozen(k)
    return BipartiteBlochDecomposition(kind, d, k[1:, 0], k[0, 1:], k[1:, 1:])
