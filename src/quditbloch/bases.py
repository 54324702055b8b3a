"""The three operator bases for d-dimensional systems.

* GGB -- generalized Gell-Mann basis: Hermitian SU(d) generators in symmetric,
  antisymmetric and diagonal families, plus the identity. Tr A_i A_j = 2 d_ij
  for the traceless elements.
* POB -- polarization operator basis: irreducible tensor operators T_LM built
  from Clebsch-Gordan coefficients; orthonormal (N = 1), generally
  non-Hermitian, T_00 = 1/sqrt(d) * identity.
* WOB -- Weyl operator basis: unitary shift-and-phase operators U_nm with
  Tr U_nm^dag U_lj = d d_nl d_mj.

Element 0 of every basis is the identity-type element. Each builder fills
one (d^2, d, d) stack in a fixed order, every element in its own row:

* GGB: identity, symmetric (j,k) lexicographic, antisymmetric (j,k)
  lexicographic, diagonal l ascending. Labels ``("I",)``, ``("s", j, k)``,
  ``("a", j, k)``, ``("l", l)`` with 1-based j < k. Pair p (0-based) goes to
  rows 1 + p and 1 + n + p (n = d(d-1)/2), diagonal l to row 2n + l.
* POB: labels ``(L, M)``, T_LM in row L^2 + L + M.
* WOB: labels ``(n, m)`` with 0-based indices, U_nm in row d n + m.

Standard-matrix expansion helpers return ``{label: coefficient}`` maps whose
reconstruction reproduces the standard matrix exactly. GGB and POB
expansions use the 1-based index convention ``1 <= j, k <= d``; the WOB
expansion uses 0-based ``0 <= j, k <= d - 1``.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache

import numpy as np

from .cg import clebsch_gordan
from .linalg import MAX_ENTRY, _frozen, as_matrix

Label = tuple


class BasisKind(str, Enum):
    GGB = "ggb"
    POB = "pob"
    WOB = "wob"


class OperatorBasis:
    """Ordered collection of d^2 basis matrices with their orthogonality constant.

    ``stacked`` is the one read-only (d^2, d, d) array of all elements;
    ``elements`` are its rows (views, read-only too).
    """

    __slots__ = ("kind", "dim", "stacked", "elements", "labels", "ortho_const", "_index")

    def __init__(self, kind: BasisKind, dim: int, elements, labels, ortho_const: float):
        self.kind = kind
        self.dim = dim
        self.stacked = _frozen(elements)
        self.elements = tuple(self.stacked)
        self.labels = tuple(labels)
        self.ortho_const = float(ortho_const)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if self.stacked.shape != (dim * dim, dim, dim) or len(self.labels) != dim * dim:
            raise ValueError("a basis of dimension d needs exactly d^2 elements")

    def element(self, label: Label) -> np.ndarray:
        return self.elements[self.index(label)]

    def index(self, label: Label) -> int:
        try:
            return self._index[tuple(label)]
        except KeyError:
            raise KeyError(f"no element labelled {label!r} in "
                           f"{self.kind.value} d={self.dim}") from None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"OperatorBasis({self.kind.value}, dim={self.dim}, N={self.ortho_const})"


def _frame(basis: OperatorBasis) -> np.ndarray:
    """F, the stack as a read-only (d^2, d^2) view with row i = vec(A_i): the
    change of basis behind every Bloch transform, Tr(A_i^dag M) =
    conj(F conj(vec M))_i and sum_i c_i A_i = unvec(c F)."""
    n = basis.dim * basis.dim
    return basis.stacked.reshape(n, n)


def _frame_product(basis: OperatorBasis, mat: np.ndarray) -> np.ndarray:
    """F conj(vec M), whose conjugate holds Tr(A_i^dag M) for every i. M comes
    from ``as_matrix``, whose entry bound keeps every sum far from overflow."""
    return _frame(basis) @ mat.reshape(-1).conj()


MAX_DIM = 64    # a GGB or POB stack holds d^4 complex entries: 268 MB at d = 64


def _check_dim(d: int) -> int:
    """The one dimension rule of bases and states: an integer in 2..MAX_DIM."""
    if not isinstance(d, (int, np.integer)) or not 2 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be >= 2 and <= {MAX_DIM}, an integer, got {d!r}")
    return int(d)


def _check_indices(d: int, first: int, what: str, *indices) -> None:
    """Matrix or operator indices are integers in first..first + d - 1; a bool is not one."""
    for x in indices:
        if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                or not first <= x < first + d):
            raise ValueError(f"{what} indices must be integers in "
                             f"{first}..{first + d - 1}, got {indices!r}")


@lru_cache(maxsize=None)
def ggb_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis in dimension d (N = 2)."""
    d = _check_dim(d)
    pairs = [(j, k) for j in range(1, d + 1) for k in range(j + 1, d + 1)]
    n = len(pairs)
    p = np.arange(n)
    j, k = np.array(pairs).T - 1        # pair p, 0-based
    stack = np.zeros((d * d, d, d), dtype=complex)
    stack[0] = np.eye(d)
    stack[1 + p, j, k] = stack[1 + p, k, j] = 1      # symmetric: |j><k| + |k><j|
    # antisymmetric: -i|j><k| + i|k><j|, with complex(0, -1) as -1j has real part -0.0
    stack[1 + n + p, j, k] = complex(0, -1)
    stack[1 + n + p, k, j] = 1j
    for l in range(1, d):              # diagonal: sqrt(2/(l(l+1))) (sum_j<=l |j><j| - l|l+1><l+1|)
        c = math.sqrt(2.0 / (l * (l + 1)))
        stack[2 * n + l, range(l), range(l)] = c
        stack[2 * n + l, l, l] = -l * c
    labels = ([("I",)] + [("s", j, k) for j, k in pairs] + [("a", j, k) for j, k in pairs]
              + [("l", l) for l in range(1, d)])
    return OperatorBasis(BasisKind.GGB, d, stack, labels, 2.0)


def _pob_entry(d: int, L: int, M: int, k: int) -> float:
    """<k|T_LM|k+M> = sqrt((2L+1)/d) <s m_{k+M}; L M | s m_k> (0-based k), with
    s = (d-1)/2 and m_k = s - k; every other entry of T_LM is 0, because the
    Clebsch-Gordan coefficient vanishes unless m_l + M = m_k."""
    s = (d - 1) / 2.0
    return math.sqrt((2 * L + 1) / d) * clebsch_gordan(s, s - (k + M), L, M, s, s - k)


@lru_cache(maxsize=None)
def pob_basis(d: int) -> OperatorBasis:
    """Polarization operator basis in dimension d (N = 1).

    T_LM = sqrt((2L+1)/d) * sum_{k,l} <s m_l; L M | s m_k> |k><l| with
    s = (d-1)/2, m_k = s - k, L = 0..2s, M = -L..L. The selection rule
    m_l + M = m_k puts every T_LM on one diagonal, l = k + M, so the build
    fills T_LM = sum_k <k|T_LM|k+M> |k><k+M| with d - M entries for M >= 0
    only. The entries are real, so T_{L,-M} = (-1)^M T_LM^dag is the mirror
    (-1)^M T_LM^T, and the negative-M half needs no Clebsch-Gordan lookup.
    The entries themselves come from exact integer arithmetic, one correctly
    rounded division and one square root (see ``cg``).
    """
    d = _check_dim(d)
    stack = np.zeros((d * d, d, d), dtype=complex)
    for L in range(0, d):
        for M in range(0, L + 1):
            # exchanging j1 and j (both s) gives <k|T_LM|k+M> as (-1)^(L+M) times
            # entry n - 1 - k of the same diagonal (n = d - M), with the same exact
            # rational square: only the first half is looked up
            n = d - M
            half = [_pob_entry(d, L, M, k) for k in range((n + 1) // 2)]
            half += [(-1) ** (L + M) * x + 0.0 for x in reversed(half[:n // 2])]
            t = stack[L * L + L + M]
            t[range(n), range(M, d)] = half
            if M:    # + 0.0 turns the -0.0 of a negated zero back into +0.0
                stack[L * L + L - M] = (-1) ** M * t.T + 0.0
    labels = [(L, M) for L in range(0, d) for M in range(-L, L + 1)]
    return OperatorBasis(BasisKind.POB, d, stack, labels, 1.0)


@lru_cache(maxsize=None)
def wob_basis(d: int) -> OperatorBasis:
    """Weyl operator basis in dimension d (N = d).

    U_nm = sum_k exp(2 pi i k n / d) |k><(k+m) mod d|.
    """
    d = _check_dim(d)
    # row n of the phases exp(2 pi i k n / d) is shared by U_n0 .. U_n,d-1
    phase = np.array([[cmath.exp(2j * cmath.pi * k * n / d) for k in range(d)]
                      for n in range(d)])
    n, m, k = np.ogrid[:d, :d, :d]
    stack = np.zeros((d, d, d, d), dtype=complex)
    stack[n, m, k, (k + m) % d] = phase[n, k]
    labels = [(n, m) for n in range(d) for m in range(d)]
    return OperatorBasis(BasisKind.WOB, d, stack.reshape(d * d, d, d), labels, float(d))


_BUILDERS = {
    BasisKind.GGB: ggb_basis,
    BasisKind.POB: pob_basis,
    BasisKind.WOB: wob_basis,
}


def get_basis(kind, d: int) -> OperatorBasis:
    """Basis of the given kind and dimension (memoized, immutable)."""
    return _BUILDERS[BasisKind(kind)](d)


def weyl_product(d: int, nm: tuple[int, int], lk: tuple[int, int]) -> tuple[complex, tuple[int, int]]:
    """Composition rule of Weyl operators.

    ``U_nm U_lk = phase * U_index`` with ``phase = exp(2 pi i m l / d)`` and
    ``index = ((n + l) mod d, (m + k) mod d)``. The four indices must be
    integers in 0..d - 1, else ``ValueError``.
    """
    d = _check_dim(d)
    n, m = nm
    l, k = lk
    _check_indices(d, 0, "Weyl", n, m, l, k)
    phase = cmath.exp(2j * cmath.pi * m * l / d)
    return phase, ((int(n) + int(l)) % d, (int(m) + int(k)) % d)


def expand_standard_ggb(d: int, j: int, k: int) -> dict[Label, complex]:
    """GGB coefficient map of the standard matrix |j><k| (1-based indices).

    For j < k: (1/2)(S_jk + i A_jk); for j > k the conjugate combination; the
    diagonal case combines the diagonal elements with the identity through
    the recurrence-derived formula.
    """
    d = _check_dim(d)
    _check_indices(d, 1, "standard-matrix", j, k)
    if j < k:
        return {("s", j, k): 0.5, ("a", j, k): 0.5j}
    if j > k:
        return {("s", k, j): 0.5, ("a", k, j): -0.5j}
    out: dict[Label, complex] = {("I",): 1.0 / d}
    if j > 1:
        out[("l", j - 1)] = -math.sqrt((j - 1) / (2.0 * j))
    for n in range(0, d - j):
        out[("l", j + n)] = 1.0 / math.sqrt(2.0 * (j + n) * (j + n + 1))
    return out


def expand_standard_pob(d: int, i: int, j: int) -> dict[Label, complex]:
    """POB coefficient map of |i><j| (1-based indices).

    Only M = j - i contributes, and the coefficients are the entries of the
    real, orthonormal T_LM: |i><j| = sum_L <i|T_LM|j> T_LM.
    """
    d = _check_dim(d)
    _check_indices(d, 1, "standard-matrix", i, j)
    M = j - i
    out: dict[Label, complex] = {}
    for L in range(abs(M), d):
        c = _pob_entry(d, L, M, i - 1)
        if c != 0.0:
            out[(L, M)] = c
    return out


def expand_standard_wob(d: int, j: int, k: int) -> dict[Label, complex]:
    """WOB coefficient map of |j><k| (0-based indices).

    |j><k| = (1/d) sum_l exp(-2 pi i l j / d) U_{l, (k-j) mod d}; every
    coefficient has modulus 1/d.
    """
    d = _check_dim(d)
    _check_indices(d, 0, "standard-matrix", j, k)
    m = (k - j) % d
    return {
        (l, m): cmath.exp(-2j * cmath.pi * l * j / d) / d
        for l in range(d)
    }


def reconstruct(basis: OperatorBasis, coeffs: dict[Label, complex]) -> np.ndarray:
    """Assemble sum coeff * element from a coefficient map of finite numbers of
    modulus at most d^2 ``MAX_ENTRY``, as Bloch-vector components, else ``ValueError``."""
    bound = basis.dim ** 2 * MAX_ENTRY
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for label, c in coeffs.items():
        if not np.abs(c) <= bound:    # NaN fails the comparison too
            raise ValueError(f"coefficient of {label!r} must be finite and at most "
                             f"{bound:g} in modulus, got {c!r}")
        out += c * basis.element(label)
    return out


def expand_matrix(basis: OperatorBasis, mat: np.ndarray) -> np.ndarray:
    """Coefficients of an arbitrary matrix over all d^2 basis elements.

    coeff_i = Tr(A_i^dag M) / Tr(A_i^dag A_i), so that
    sum_i coeff_i A_i == M for every basis (the GGB identity element has
    normalization d rather than N = 2).
    """
    mat = as_matrix(mat)
    if mat.shape != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {mat.shape} does not match basis dim {basis.dim}")
    f = _frame(basis)
    # Tr(A_i^dag A_i) is N by orthogonality, and d a_0^2 for A_0 = a_0 1
    norms = np.full(len(f), basis.ortho_const)
    norms[0] = basis.dim * f[0, 0].real ** 2
    return _frame_product(basis, mat).conj() / norms
