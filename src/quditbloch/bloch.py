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

from .bases import BasisKind, get_basis
from .linalg import _bipartite_matrix, as_matrix, is_psd, partial_trace


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
        comp = np.array(self.components, dtype=complex)
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)
        if comp.shape != (self.dim * self.dim - 1,):
            raise ValueError(
                f"Bloch vector of dimension {self.dim} needs {self.dim**2 - 1} components"
            )

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.components))


def bloch_encode(rho, kind, convention=Convention.EXPANSION) -> BlochVector:
    """Bloch vector of a density matrix in the chosen basis and convention."""
    kind = BasisKind(kind)
    convention = Convention(convention)
    mat = as_matrix(rho)
    basis = get_basis(kind, mat.shape[0])
    stack = basis.stacked[1:]
    comp = np.einsum("kab,ab->k", stack.conj(), mat)   # Tr(A_i^dag rho)
    if convention is Convention.EXPANSION:
        comp = comp / basis.ortho_const
    elif kind is BasisKind.WOB:
        comp = comp.conj()        # Tr(U_nm rho) for Hermitian-input symmetry
    # GGB/POB expectation values are Tr(A_i^dag rho) already (GGB Hermitian)
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
    basis = get_basis(b.kind, b.dim)
    coeff = _expansion_components(b)
    mat = np.eye(b.dim, dtype=complex) / b.dim
    mat += np.einsum("k,kab->ab", coeff, basis.stacked[1:])
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
    c_ij = n_i m_j.
    """

    kind: BasisKind
    dim: int
    local_a: np.ndarray
    local_b: np.ndarray
    correlation: np.ndarray

    def reconstruct(self) -> np.ndarray:
        basis = get_basis(self.kind, self.dim)
        d = self.dim
        stack = basis.stacked[1:]
        eye = np.eye(d, dtype=complex)
        locs_a = np.einsum("i,iab->ab", self.local_a, stack)
        locs_b = np.einsum("j,jce->ce", self.local_b, stack)
        corr = np.einsum("ij,iab,jce->acbe", self.correlation, stack, stack)
        out = np.einsum("ab,ce->acbe", eye / (d * d), eye)
        out += np.einsum("ab,ce->acbe", locs_a / d, eye)
        out += np.einsum("ab,ce->acbe", eye / d, locs_b)
        out += corr
        return out.reshape(d * d, d * d)


def bipartite_decompose(rho, kind, subdim: int | None = None) -> BipartiteBlochDecomposition:
    """Decompose a bipartite state into local Bloch vectors plus correlations."""
    kind = BasisKind(kind)
    mat, d = _bipartite_matrix(rho, subdim)
    basis = get_basis(kind, d)
    stack = basis.stacked[1:]
    n = basis.ortho_const
    local_a = bloch_encode(partial_trace(mat, "B", d), kind).components
    local_b = bloch_encode(partial_trace(mat, "A", d), kind).components
    r = mat.reshape(d, d, d, d)
    corr = np.einsum("iab,jce,acbe->ij", stack.conj(), stack.conj(), r) / (n * n)
    return BipartiteBlochDecomposition(kind, d, local_a, local_b, corr)
