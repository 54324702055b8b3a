"""Dense complex-matrix substrate: Hilbert-Schmidt geometry, tensor products,
partial transpose/trace, and Hermitian eigendecomposition.

All functions operate on square ``numpy`` arrays of ``complex128``. Bipartite
matrices on a d x d space use the composite index ``i = d*i_A + i_B``
(subsystem A major).
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerances for matrices of dimension <= 16 in double precision.
TOL_NUM = 1e-12      # algebraic identities
TOL_HERM = 1e-10     # Hermiticity of density matrices
TOL_TRACE = 1e-10    # unit-trace check
TOL_PSD = 1e-9       # eigenvalue slack for positivity verdicts
TOL_EIG = 1e-12      # relative eigendecomposition reconstruction error


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr(a^dag a))."""
    a = _as_square(a)
    return float(np.sqrt(np.vdot(a, a).real))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _subdim(mat: np.ndarray, subdim: int | None) -> int:
    n = mat.shape[0]
    if subdim is None:
        subdim = math.isqrt(n)
    if subdim * subdim != n:
        raise ValueError(f"matrix of dimension {n} is not a d x d bipartite square")
    return subdim


def partial_transpose(rho, subsystem: str = "B", subdim: int | None = None) -> np.ndarray:
    """Partial transpose of a bipartite matrix on a d (x) d space.

    ``rho`` may be a plain square array of dimension d^2 or any object with a
    ``.matrix``/``.subdim`` pair (e.g. ``BipartiteState``). ``subsystem``
    selects which factor is transposed.
    """
    mat, subdim = _bipartite_matrix(rho, subdim)
    d = subdim
    r = mat.reshape(d, d, d, d)
    if subsystem == "B":
        r = r.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        r = r.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return r.reshape(d * d, d * d)


def partial_trace(rho, subsystem: str = "B", subdim: int | None = None) -> np.ndarray:
    """Trace out one subsystem of a bipartite matrix; returns a d x d matrix."""
    mat, subdim = _bipartite_matrix(rho, subdim)
    d = subdim
    r = mat.reshape(d, d, d, d)
    if subsystem == "B":
        return np.einsum("ikjk->ij", r)
    if subsystem == "A":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def _bipartite_matrix(rho, subdim: int | None) -> tuple[np.ndarray, int]:
    """``as_matrix(rho)`` and its subsystem dimension (``rho.subdim`` wins)."""
    mat = as_matrix(rho)
    return mat, _subdim(mat, getattr(rho, "subdim", subdim))


def as_matrix(x) -> np.ndarray:
    """The matrix of a state or array argument: a ``DensityMatrix`` is taken
    as it is, anything else must be a finite square array (``ValueError``)."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    a = _as_square(x)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def as_hermitian(x, what: str) -> np.ndarray:
    """``as_matrix(x)``, which must also be Hermitian within ``TOL_HERM``;
    ``what`` names the argument in the error message."""
    a = as_matrix(x)
    if not is_hermitian(a):
        raise ValueError(f"{what} is not Hermitian")
    return a


def is_psd(a: np.ndarray) -> bool:
    """Smallest eigenvalue of the Hermitian part of ``a`` >= -TOL_PSD."""
    a = np.asarray(a)
    return bool(np.linalg.eigvalsh((a + a.conj().T) / 2)[0] >= -TOL_PSD)


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    a = np.asarray(a)
    return bool(np.abs(a - a.conj().T).max() <= tol)


def hermitian_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with real eigenvalues ``w`` sorted in descending order
    and the matching eigenvectors as columns of ``V``. Raises ``ValueError``
    if the input is not finite or not Hermitian within ``TOL_HERM``.
    """
    w, v = np.linalg.eigh(as_hermitian(a, "hermitian_eigen input"))
    return w[::-1].copy(), v[:, ::-1].copy()


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(as_hermitian(a, "min_eigenvalue input"))[0])


def _frozen(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=complex, order="C")
    out.setflags(write=False)
    return out


class DensityMatrix:
    """A d x d density matrix: Hermitian, unit trace, positive semidefinite.

    Validation runs at construction; pass ``validate=False`` for internal
    intermediate values whose invariants are guaranteed by construction.
    The stored array is read-only, so instances are safe to share between
    threads.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        mat = _frozen(_as_square(matrix))
        if validate:
            as_hermitian(mat, "density matrix")
            tr = np.trace(mat)
            if abs(tr - 1.0) > TOL_TRACE:
                raise ValueError(f"density matrix trace {tr} is not 1")
            if not is_psd(mat):
                raise ValueError("density matrix is not positive semidefinite")
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class BipartiteState(DensityMatrix):
    """Density matrix on a d (x) d bipartite space, composite index d*i_A + i_B."""

    __slots__ = ("subdim",)

    def __init__(self, matrix, subdim: int | None = None, *, validate: bool = True):
        super().__init__(matrix, validate=validate)
        self.subdim = _subdim(self.matrix, subdim)

    def reduced(self, subsystem: str = "B") -> DensityMatrix:
        """Reduced state after tracing out ``subsystem``."""
        return DensityMatrix(partial_trace(self.matrix, subsystem, self.subdim),
                             validate=False)

    def __repr__(self):
        return f"BipartiteState(subdim={self.subdim})"


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a square complex matrix to ``{"dim", "re", "im"}`` (row-major)."""
    a = _as_square(a)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        d = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(f"matrix JSON arrays do not match dim={d}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix JSON has non-finite entries")
    return re + 1j * im
