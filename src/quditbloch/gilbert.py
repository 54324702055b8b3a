"""Numeric nearest-separable-state oracle.

A fully corrective Frank-Wolfe (Gilbert) iteration over the separable set:
each step finds the pure product state maximizing the overlap with the
current residual by alternating Hermitian eigenvector updates over the two
factors, appends it to an atom set, and re-solves the simplex-constrained
least-squares weights exactly on the active support. Because the iterate is
always an explicit convex combination of product states, the returned
distance is a certified upper bound on the true Hilbert-Schmidt measure.

The Frank-Wolfe gap <pi - rho_k, rho_ent - rho_k> is used as the convergence
proxy; an apparent convergence is re-checked with a burst of fresh random
restarts of the inner search before it is accepted, since the seesaw can
underestimate the gap from a bad starting point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteState
from .states import random_ket


@dataclass(frozen=True)
class GilbertConfig:
    max_iterations: int = 5000
    tolerance: float = 1e-6      # on the Frank-Wolfe duality-gap proxy
    restarts: int = 5            # random inits of the inner product-state search
    seed: int = 0
    inner_sweeps: int = 80
    confirm_restarts: int = 25   # extra inits before accepting convergence

    def __post_init__(self):
        for name, low in (("max_iterations", 0), ("restarts", 0), ("inner_sweeps", 1),
                          ("confirm_restarts", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")


@dataclass(frozen=True)
class GilbertResult:
    """Outcome of :func:`nearest_separable_numeric`.

    ``rho0`` is an explicit convex combination of product states, so
    ``distance`` (its Hilbert-Schmidt distance to the input) is a certified
    upper bound on the true measure. ``gap`` and ``converged`` rest on the
    seesaw's estimate of the Frank-Wolfe gap, a proxy rather than a
    certificate: the seesaw may miss the best product state, and then the
    gap is underestimated.
    """

    rho0: BipartiteState
    distance: float
    converged: bool
    iterations: int
    gap: float


def best_product_state(g: np.ndarray, d: int, rng: np.random.Generator,
                       restarts: int = 5, warm=None, sweeps: int = 80):
    """Approximately maximize <a b| G |a b> over product vectors.

    Alternating eigenvector ascent: with one factor fixed the objective is a
    Hermitian quadratic form on the other, maximized by its top eigenvector.
    Returns ``(value, a, b)`` for the best run over ``warm`` and ``restarts``
    random initializations; ties go to the earliest run.

    All runs advance together: each half-sweep is one einsum and one stacked
    ``eigh`` over the runs still live, and a run leaves the stack once its
    top eigenvalue rises by less than 1e-15. Each run's arithmetic is the
    same as when the runs went one at a time, so the result is too, bit for bit.
    """
    gr = g.reshape(d, d, d, d)
    inits = list(warm or [])
    for _ in range(max(restarts, 0 if inits else 1)):
        inits.append((random_ket(d, rng), random_ket(d, rng)))
    kets = np.array(inits)
    # the eigenvectors written back below take the einsum's dtype
    kets = kets.astype(np.result_type(gr, kets), copy=False)
    a, b = kets[:, 0], kets[:, 1]
    val = np.full(len(kets), -np.inf)
    live = np.arange(len(kets))
    for _ in range(sweeps):
        bl = b[live]
        w, v = np.linalg.eigh(np.einsum("ijkl,rj,rl->rik", gr, bl.conj(), bl))
        al = v[:, :, -1]
        w, v = np.linalg.eigh(np.einsum("ijkl,ri,rk->rjl", gr, al.conj(), al))
        a[live], b[live] = al, v[:, :, -1]
        top = w[:, -1]
        done = top - val[live] < 1e-15
        val[live] = top
        live = live[~done]
        if not live.size:
            break
    best = 0
    for r in range(1, len(val)):
        if val[r] > val[best]:
            best = r
    return val[best], a[best], b[best]


def min_product_expectation(a_op: np.ndarray, d: int, rng: np.random.Generator,
                            restarts: int = 20, sweeps: int = 80) -> float:
    """Smallest <a b| A |a b> found over product states (seesaw upper bound)."""
    val, _, _ = best_product_state(-np.asarray(a_op, dtype=complex), d, rng,
                                   restarts=restarts, sweeps=sweeps)
    return -val


def _solve_simplex_weights(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimize w'Kw - 2c'w subject to w >= 0, sum w = 1.

    Active-set iteration on the support: solve the equality-constrained KKT
    system, drop the most negative weight, repeat.
    """
    m = len(c)
    active = np.ones(m, dtype=bool)
    for _ in range(3 * m + 10):
        idx = np.flatnonzero(active)
        nk = len(idx)
        kkt = np.zeros((nk + 1, nk + 1))
        kkt[:nk, :nk] = 2 * k[np.ix_(idx, idx)]
        kkt[nk, :nk] = 1.0
        kkt[:nk, nk] = 1.0
        rhs = np.concatenate([2 * c[idx], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        w = sol[:nk]
        if (w >= -1e-12).all():
            out = np.zeros(m)
            out[idx] = np.maximum(w, 0.0)
            return out / out.sum()
        active[idx[np.argmin(w)]] = False
    out = np.zeros(m)
    out[np.argmax(c)] = 1.0
    return out


def _product_atom(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = np.kron(a, b)
    return np.outer(ab, ab.conj()).ravel()


def nearest_separable_numeric(rho_ent, config: GilbertConfig | None = None) -> GilbertResult:
    """Distance from a bipartite state to the separable set, from above.

    Deterministic for a given config seed. If the gap proxy does not reach
    ``config.tolerance`` within ``config.max_iterations``, the best iterate
    found so far is returned with ``converged=False``. A plain array input
    must be a d (x) d density matrix (finite, Hermitian, unit trace, PSD),
    else ``ValueError``; a ``BipartiteState`` is taken as it is.
    """
    cfg = config or GilbertConfig()
    if isinstance(rho_ent, BipartiteState):
        target = rho_ent.matrix
        d = rho_ent.subdim
    else:
        target = np.asarray(rho_ent, dtype=complex)
        d = BipartiteState(target).subdim   # raises ValueError unless a state
    rng = np.random.default_rng(cfg.seed)
    n = d * d
    te = target.ravel()

    _, a, b = best_product_state(target, d, rng, restarts=max(cfg.restarts, 5),
                                 sweeps=cfg.inner_sweeps)
    atoms = [_product_atom(a, b)]
    weights = np.array([1.0])
    warm = [(a, b)]
    gap = np.inf
    it = 0
    for it in range(cfg.max_iterations):
        rho = np.stack(atoms).T @ weights
        g = te - rho
        gmat = g.reshape(n, n)
        _, a, b = best_product_state(gmat, d, rng, restarts=cfg.restarts,
                                     warm=warm, sweeps=cfg.inner_sweeps)
        warm = [(a, b)]
        atom = _product_atom(a, b)
        gap = float(np.real(np.vdot(atom - rho, g)))
        if gap <= cfg.tolerance:
            # confirm with fresh restarts before trusting the inner search
            _, a2, b2 = best_product_state(gmat, d, rng,
                                           restarts=cfg.confirm_restarts,
                                           sweeps=cfg.inner_sweeps)
            atom2 = _product_atom(a2, b2)
            gap2 = float(np.real(np.vdot(atom2 - rho, g)))
            if gap2 <= cfg.tolerance:
                dist = float(np.sqrt(np.real(np.vdot(g, g))))
                rho0 = BipartiteState(rho.reshape(n, n), d, validate=False)
                return GilbertResult(rho0, dist, True, it, gap2)
            atom, gap, warm = atom2, gap2, [(a2, b2)]
        atoms.append(atom)
        mat = np.stack(atoms)
        gram = np.real(mat.conj() @ mat.T)
        overlap = np.real(mat.conj() @ te)
        weights = _solve_simplex_weights(gram, overlap)
        keep = weights > 1e-14
        if keep.sum() < len(weights):
            atoms = [at for at, kp in zip(atoms, keep) if kp]
            weights = weights[keep] / weights[keep].sum()

    rho = np.stack(atoms).T @ weights
    g = te - rho
    dist = float(np.sqrt(np.real(np.vdot(g, g))))
    rho0 = BipartiteState(rho.reshape(n, n), d, validate=False)
    return GilbertResult(rho0, dist, False, cfg.max_iterations, gap)
