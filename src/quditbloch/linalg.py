"""Dense complex-matrix substrate: Hilbert-Schmidt geometry, tensor products,
partial transpose/trace, and Hermitian and positivity checks.

All functions operate on square ``numpy`` arrays of ``complex128``. Bipartite
matrices on a d x d space use the composite index ``i = d*i_A + i_B``
(subsystem A major).
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerances for matrices of dimension <= 16 in double precision.
TOL_HERM = 1e-10     # Hermiticity of density matrices
TOL_TRACE = 1e-10    # unit-trace check
TOL_PSD = 1e-9       # eigenvalue slack for positivity verdicts

# largest magnitude of a matrix entry or family parameter. Density matrices
# have entries of at most 1, and no transform sums more than d^4 products of
# two such numbers (1.7e7 at d = 64), so no result comes near overflow
MAX_ENTRY = 1e100


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr(a^dag a))."""
    a = as_matrix(a)
    return float(np.sqrt(np.vdot(a, a).real))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _subdim(mat: np.ndarray) -> int:
    n = mat.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"matrix of dimension {n} is not a d x d bipartite square")
    return d


def partial_transpose(rho, subsystem: str = "B") -> np.ndarray:
    """Partial transpose of a bipartite matrix on a d (x) d space.

    ``rho`` may be a plain square array of dimension d^2 or a ``DensityMatrix``
    (e.g. ``BipartiteState``); d is read from its shape. ``subsystem``
    selects which factor is transposed.
    """
    mat, d = _bipartite_matrix(rho)
    r = mat.reshape(d, d, d, d)
    if subsystem == "B":
        r = r.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        r = r.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return r.reshape(d * d, d * d)


def _realign(m: np.ndarray, d: int) -> np.ndarray:
    """R(m)[(a b), (c e)] = m[(a c), (b e)]; realignment is its own inverse."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def partial_trace(rho, subsystem: str = "B") -> np.ndarray:
    """Trace out one subsystem of a bipartite matrix; returns a d x d matrix."""
    mat, d = _bipartite_matrix(rho)
    r = mat.reshape(d, d, d, d)
    if subsystem == "B":
        return np.einsum("ikjk->ij", r)
    if subsystem == "A":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def _bipartite_matrix(rho) -> tuple[np.ndarray, int]:
    """``as_matrix(rho)`` and its subsystem dimension."""
    mat = as_matrix(rho)
    return mat, _subdim(mat)


def as_matrix(x) -> np.ndarray:
    """The matrix of a state or array argument: a ``DensityMatrix`` is taken
    as it is, anything else must be a square array whose entries are finite
    and at most ``MAX_ENTRY`` in magnitude (``ValueError``)."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    a = _as_square(x)
    # NaN fails the comparison too
    if not np.abs(a).max(initial=0.0) <= MAX_ENTRY:
        raise ValueError(f"matrix entries must be finite and at most {MAX_ENTRY:g} in magnitude")
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


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return bool(np.abs(a - a.conj().T).max() <= TOL_HERM)


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

    def __init__(self, matrix, *, validate: bool = True):
        super().__init__(matrix, validate=validate)
        self.subdim = _subdim(self.matrix)

    def reduced(self, subsystem: str = "B") -> DensityMatrix:
        """Reduced state after tracing out ``subsystem``."""
        return DensityMatrix(partial_trace(self, subsystem), validate=False)

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


def _json_entries(rows) -> np.ndarray:
    """``rows`` as a float array. A string or bool entry raises ``ValueError``,
    as ``float`` would read "1" and true as numbers; so does an integer past
    the float range, where ``float`` raises ``OverflowError``."""
    for x in np.asarray(rows, dtype=object).flat:
        if isinstance(x, (str, bool, np.bool_)):
            raise ValueError(f"matrix JSON entries must be finite numbers, got {x!r}")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"matrix JSON entries must be finite numbers: {exc}") from exc


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; ``dim`` must be an integer, not a float or bool."""
    try:
        d = obj["dim"]
        re, im = _json_entries(obj["re"]), _json_entries(obj["im"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"matrix JSON dim must be an integer, got {d!r}")
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(f"matrix JSON arrays do not match dim={d}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix JSON has non-finite entries")
    return re + 1j * im
