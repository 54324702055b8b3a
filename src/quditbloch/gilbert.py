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

One loop serves two entry points. :func:`nearest_separable_numeric` takes
any state and iterates on its d^4 matrix entries. :func:`nearest_separable_weyl`
takes a Weyl-diagonal state, a mixture of the Weyl Bell projectors P_nk
(isotropic states and both two-parameter planes are), and iterates on its
d^2 populations: the twirl over {U_nk (x) U_nk^*} fixes such a state and
maps the separable set into itself without increasing distances, so the
nearest separable state is Weyl-diagonal too (Vollbrecht & Werner, PRA 64,
062307 (2001)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bases import _frame, get_basis
from .linalg import BipartiteState, _realign, _subdim, as_hermitian
from .states import PAULI

# largest off-diagonal Weyl Bell element |<Phi_nk|rho|Phi_n'k'>| that
# nearest_separable_weyl accepts
WEYL_DIAGONAL_TOL = 1e-12
# reduced-gradient slack at which the simplex weights count as optimal
KKT_TOL = 1e-13
# random inits of each product-state search of the oracle, and of the burst
# that must confirm an apparent convergence
RESTARTS = 5
CONFIRM_RESTARTS = 25
# the sweeps after which the oracle's own searches keep only the leading
# half of their live runs (successive halving); the confirming burst keeps all
_SCREEN_SWEEPS = frozenset({2, 4, 8, 16, 32, 64})


@dataclass(frozen=True)
class GilbertConfig:
    max_iterations: int = 5000
    # on the gap proxy of ||rho - sigma||^2 / 2, not of the distance; a seesaw
    # run also stops once a sweep gains less than tolerance / 1000
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_count("max_iterations", self.max_iterations, 0)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        _check_count("seed", self.seed, 0)


def _check_count(name: str, value, least: int) -> None:
    """``ValueError`` unless ``value`` is an integer >= ``least``; a bool is not one."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class GilbertResult:
    """Outcome of :func:`nearest_separable_numeric` or :func:`nearest_separable_weyl`.

    ``rho0`` is an explicit convex combination of product states, so
    ``distance`` (its Hilbert-Schmidt distance to the input) is a certified
    upper bound on the true measure. ``gap`` and ``converged`` rest on the
    seesaw's estimate of the Frank-Wolfe gap, a proxy rather than a
    certificate: the seesaw may miss the best product state, and then the
    gap is underestimated. The gap is that of ||rho - sigma||^2 / 2, so even
    an exact gap <= tolerance leaves ``distance`` above the true D by up to
    about 2 tolerance / (distance + D), which exceeds tolerance when D < 1.
    """

    rho0: BipartiteState
    distance: float
    converged: bool
    iterations: int
    gap: float


# row 4 mu + nu: conj(sigma_mu (x) sigma_nu) flattened, sigma_0 the identity,
# so that its dot with a flattened Hermitian G is Tr(G sigma_mu (x) sigma_nu)
_SIGMA = (np.eye(2), PAULI[1], PAULI[2], PAULI[3])
_PAULI_PRODUCTS = np.array([np.kron(s, t).conj().ravel() for s in _SIGMA for t in _SIGMA])


def _initial_kets(d: int, rng, restarts: int, warm) -> np.ndarray:
    """The (runs, 2, d) starting kets of the seesaw: ``warm``, then random
    unit kets drawn in one call, in the order of per-ket ``random_ket`` draws."""
    warm = list(warm or [])
    runs = max(restarts, 0 if warm else 1)
    kets = [np.array(warm).reshape(len(warm), 2, d)]
    if runs:
        x = rng.standard_normal((runs, 2, 2, d))       # a: re, im; b: re, im
        z = x[:, :, 0] + 1j * x[:, :, 1]
        kets.append(z / np.linalg.norm(z, axis=-1, keepdims=True))
    return np.concatenate(kets)


def _eigh_step(m: np.ndarray, fixed: np.ndarray, cur: np.ndarray):
    """One half-step at any d: the top eigenpair of each run's d x d matrix,
    the product of the fixed ket's outer product with a realigned G."""
    r, d = fixed.shape
    x = (fixed.conj()[:, :, None] * fixed[:, None, :]).reshape(r, 1, d * d)
    w, v = np.linalg.eigh((x @ m).reshape(r, d, d))
    return v[:, :, -1], w[:, -1]


def _bloch_step(t: np.ndarray, fixed: np.ndarray, cur: np.ndarray):
    """One qubit half-step in Bloch coordinates. With the fixed factor's
    (1, s), the matrix is sum_mu v_mu sigma_mu for v = t (1, s), whose top
    eigenpair is v_0 + |w| at the Bloch vector w / |w|, w = v[1:]. The
    current vector stays where w = 0, as every vector is optimal there."""
    v = (fixed[:, None, :] * t).sum(-1)
    n = np.hypot(np.hypot(v[:, 1], v[:, 2]), v[:, 3])
    value = v[:, 0] + n
    v[:, 0] = n
    return np.divide(v, n[:, None], out=np.array(cur), where=n[:, None] > 0), value


def _bloch_of(kets: np.ndarray) -> np.ndarray:
    """(1, x, y, z) for each qubit ket, its Bloch vector in homogeneous form."""
    n0, n1 = abs(kets[..., 0]) ** 2, abs(kets[..., 1]) ** 2
    p = kets[..., 0].conj() * kets[..., 1]
    h = np.stack([n0 + n1, 2 * p.real, 2 * p.imag, n0 - n1], axis=-1)
    return h / h[..., :1]


def _ket_of_bloch(h: np.ndarray) -> np.ndarray:
    """A unit qubit ket with Bloch vector ``h[1:]``; its larger component is
    real and positive."""
    _, x, y, z = h
    c = math.sqrt((1 + abs(z)) / 2)
    off = (x + 1j * y) / (2 * c)
    return np.array([c, off] if z >= 0 else [np.conj(off), c])


def _half_steps(g: np.ndarray, d: int, kets: np.ndarray):
    """The seesaw's kernel, its operators for the a and b half-steps, the
    runs' starting points in its coordinates, and the map back to kets."""
    if d == 2:
        t = (_PAULI_PRODUCTS * g.ravel()).sum(-1).real.reshape(4, 4) / 4
        return _bloch_step, (t, t.T.copy()), _bloch_of(kets), _ket_of_bloch
    r = _realign(g, d)
    return (_eigh_step, (np.ascontiguousarray(r.T), r),
            kets.astype(complex, copy=False), lambda k: k)


def best_product_state(g: np.ndarray, rng: np.random.Generator, restarts: int = 5,
                       warm=None, sweeps: int = 80, stop: float = 1e-15, *, _screen=frozenset()):
    """Approximately maximize <a b| G |a b> over product vectors.

    Alternating exact maximization: with one factor fixed the objective is a
    Hermitian quadratic form on the other, maximized by its top eigenvector.
    Returns ``(value, a, b)`` for the best run over ``warm`` and ``restarts``
    random initializations, drawn in one call; ties go to the earliest run.
    ``sweeps`` must be an integer >= 1 and ``restarts`` one >= 0, else ``ValueError``.

    All runs advance together, and a run leaves the stack once its value
    rises by less than ``stop`` in a sweep. At d > 2 each half-step is one
    stacked product of the fixed factor's outer product with G, realigned
    once per call, and one stacked ``eigh``. At d = 2 it is the same
    eigenpair in closed form, on Bloch vectors and the real 4 x 4 matrix
    T = Tr(G sigma_mu (x) sigma_nu) / 4. A run's arithmetic does not depend
    on the others, so the result equals that of one run at a time, bit for
    bit. ``g`` must be a finite Hermitian d^2 x d^2 matrix, else ``ValueError``.

    After each sweep numbered in the private ``_screen``, only the leading
    ceil(k / 2) of the k runs that have not stopped go on, ties to the
    earlier run; the others leave as a stopped run does (successive halving).
    The oracle screens its own searches so, not its confirming burst.
    """
    _check_count("sweeps", sweeps, 1)
    _check_count("restarts", restarts, 0)
    g = as_hermitian(g, "operator")
    d = _subdim(g)
    step, (op_a, op_b), start, ket_of = _half_steps(g, d, _initial_kets(d, rng, restarts, warm))
    a, b = start[:, 0], start[:, 1]
    val = np.full(len(start), -np.inf)
    # the live runs, compacted: their indices, factors and last values; a run
    # is written back to a, b and val only when it stops
    live, al, bl, vl = np.arange(len(start)), a, b, val
    for sweep in range(1, sweeps + 1):
        al, _ = step(op_a, bl, al)
        bl, w = step(op_b, al, bl)
        done = w - vl < stop
        vl = w
        if sweep in _screen:
            # the k runs that go on, best first and ties in run order; the
            # leading ceil(k / 2) stay
            order = np.argsort(np.where(done, np.inf, -vl), kind="stable")
            done[order[(np.count_nonzero(~done) + 1) // 2:]] = True
        if done.any():
            out = live[done]
            a[out], b[out], val[out] = al[done], bl[done], vl[done]
            keep = ~done
            live, al, bl, vl = live[keep], al[keep], bl[keep], vl[keep]
            if not live.size:
                break
    a[live], b[live], val[live] = al, bl, vl
    best = np.argmax(val)
    return val[best], ket_of(a[best]), ket_of(b[best])


def min_product_expectation(a_op: np.ndarray, rng: np.random.Generator) -> float:
    """Smallest <a b| A |a b> found over product states by a 20-restart
    seesaw (an upper bound on the separable minimum)."""
    val, _, _ = best_product_state(-np.asarray(a_op, dtype=complex), rng, restarts=20)
    return -val


def _face_minimizer(k: np.ndarray, c: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The minimizer of w'Kw - 2c'w over the weights on ``idx`` with sum 1."""
    nk = len(idx)
    kkt = np.ones((nk + 1, nk + 1))
    kkt[:nk, :nk] = k[np.ix_(idx, idx)]
    kkt[nk, nk] = 0.0
    rhs = np.append(c[idx], 1.0)
    try:
        return np.linalg.solve(kkt, rhs)[:nk]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:nk]


def _solve_simplex_weights(k: np.ndarray, c: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Minimize w'Kw - 2c'w subject to w >= 0, sum w = 1.

    Primal active-set method from the feasible weights ``w0``. Each step minimizes over the weights on the support. If that
    minimizer leaves the simplex, the weights move toward it only until the
    first of them reaches 0 (the ratio test), and that atom leaves the
    support. Otherwise they move onto it, and the atom off the support with
    the most negative reduced gradient r = (Kw - c) - w'(Kw - c) joins it.
    The loop ends when no r is below -``KKT_TOL``, the KKT conditions of the
    problem, and the objective never rises on the way.
    """
    w = np.array(w0, dtype=float)
    free = w > 0
    for _ in range(4 * len(c) + 10):
        idx = np.flatnonzero(free)
        z = _face_minimizer(k, c, idx)
        neg = z < 0
        if neg.any():
            wi = w[idx]
            ratios = wi[neg] / (wi[neg] - z[neg])
            w[idx] = np.maximum(wi + ratios.min() * (z - wi), 0.0)
            w[idx[neg][np.argmin(ratios)]] = 0.0
            free = w > 0
            continue
        w[idx] = z
        grad = k @ w - c
        r = np.where(free, np.inf, grad - w @ grad)
        j = np.argmin(r)
        if r[j] >= -KKT_TOL:
            break
        free[j] = True
    return w


def _product_atom(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = np.kron(a, b)
    return np.outer(ab, ab.conj()).ravel()


def _frank_wolfe(target: np.ndarray, atom_of, operator, cfg: GilbertConfig):
    """Fully corrective Frank-Wolfe from ``target`` (a vector) toward its
    nearest point in the hull of the atoms.

    ``atom_of(a, b)`` is the atom of a product pair, a vector like
    ``target``; ``operator(g)`` is the d^2 x d^2 matrix G of a residual g with
    <ab|G|ab> = <atom_of(a, b), g>, which the seesaw maximizes. Returns
    ``(iterate, converged, iterations, gap)``.
    """
    rng = np.random.default_rng(cfg.seed)
    # a seesaw run stops once a sweep gains less than this: a run whose gain
    # shrinks by a ratio q <= 0.99 per sweep then ends within tolerance / 10
    # of its limit, so the gap proxy keeps the precision it is compared at
    stop = max(1e-15, cfg.tolerance * 1e-3)
    _, a, b = best_product_state(operator(target), rng, restarts=RESTARTS, stop=stop,
                                 _screen=_SCREEN_SWEEPS)
    atoms = atom_of(a, b)[None, :]        # one row per atom, C-contiguous
    weights = np.array([1.0])
    warm = [(a, b)]
    gap = np.inf
    for it in range(cfg.max_iterations):
        rho = atoms.T @ weights
        g = target - rho
        gmat = operator(g)
        _, a, b = best_product_state(gmat, rng, restarts=RESTARTS, warm=warm, stop=stop,
                                     _screen=_SCREEN_SWEEPS)
        warm = [(a, b)]
        atom = atom_of(a, b)
        gap = float(np.real(np.vdot(atom - rho, g)))
        if gap <= cfg.tolerance:
            # confirm with fresh restarts before trusting the inner search
            _, a2, b2 = best_product_state(gmat, rng, restarts=CONFIRM_RESTARTS, stop=stop)
            atom2 = atom_of(a2, b2)
            gap2 = float(np.real(np.vdot(atom2 - rho, g)))
            if gap2 <= cfg.tolerance:
                return rho, True, it, gap2
            atom, gap, warm = atom2, gap2, [(a2, b2)]
        atoms = np.vstack((atoms, atom))
        gram = np.real(atoms.conj() @ atoms.T)
        overlap = np.real(atoms.conj() @ target)
        weights = _solve_simplex_weights(gram, overlap, np.append(weights, 0.0))
        keep = weights > 1e-14
        if keep.sum() < len(weights):
            atoms = atoms[keep]
            weights = weights[keep] / weights[keep].sum()
    return atoms.T @ weights, False, cfg.max_iterations, gap


def _checked_state(rho_ent) -> BipartiteState:
    """A state as it is, or a plain array as a d (x) d density matrix, else ``ValueError``."""
    return rho_ent if isinstance(rho_ent, BipartiteState) else BipartiteState(rho_ent)


def nearest_separable_numeric(rho_ent, config: GilbertConfig | None = None) -> GilbertResult:
    """Distance from a bipartite state to the separable set, from above.

    Frank-Wolfe over the d^4 entries of the density matrix, with product
    states |ab><ab| as atoms; the path for any input. Deterministic for a
    given config seed. If the gap proxy does not reach ``config.tolerance``
    within ``config.max_iterations``, the best iterate found so far is
    returned with ``converged=False``. A plain array input must be a d (x) d
    density matrix (finite, Hermitian, unit trace, PSD), else
    ``ValueError``; a ``BipartiteState`` is taken as it is.
    """
    cfg = config or GilbertConfig()
    target = _checked_state(rho_ent).matrix
    shape = target.shape
    te = target.ravel()
    rho, converged, iterations, gap = _frank_wolfe(te, _product_atom,
                                                   lambda g: g.reshape(shape), cfg)
    g = te - rho
    dist = float(np.sqrt(np.real(np.vdot(g, g))))
    return GilbertResult(BipartiteState(rho.reshape(shape), validate=False), dist,
                         converged, iterations, gap)


def nearest_separable_weyl(rho_ent, config: GilbertConfig | None = None) -> GilbertResult:
    """:func:`nearest_separable_numeric` for a Weyl-diagonal state, on the
    d^2 Weyl Bell populations instead of the d^4 matrix entries.

    The input must be a mixture of the Weyl Bell projectors
    |Phi_nk><Phi_nk|, |Phi_nk> = (U_nk (x) 1)|Phi_00>: every off-diagonal
    <Phi_nk|rho|Phi_n'k'> at most ``WEYL_DIAGONAL_TOL`` in modulus, else
    ``ValueError`` (as for a plain array that is not a state). The twirl over
    {U_nk (x) U_nk^*} fixes such a state, maps separable states to
    separable states and does not increase HS distance, so its nearest
    separable state is Weyl-diagonal too. Frank-Wolfe then runs on
    population vectors: the atom of a product pair is p_nk = |<Phi_nk|ab>|^2,
    the twirl of |ab><ab|, and the seesaw maximizes over G = sum g_nk P_nk.
    Each atom is a mixture of the product states (U_nk (x) U_nk^*)|ab>, so
    ``rho0`` = sum p_nk P_nk is separable and ``distance``, computed as
    ||rho - rho0|| on the matrices, is a certified upper bound as before.
    """
    cfg = config or GilbertConfig()
    state = _checked_state(rho_ent)
    target, d = state.matrix, state.subdim
    frame = _frame(get_basis("wob", d)) / math.sqrt(d)                 # rows: |Phi_nk>
    bell = frame.conj() @ target @ frame.T                             # <Phi_nk|rho|Phi_n'k'>
    off = float(np.abs(bell - np.diag(np.diag(bell))).max())
    if off > WEYL_DIAGONAL_TOL:
        raise ValueError(f"state is not Weyl-diagonal: an off-diagonal Weyl Bell "
                         f"element has modulus {off:.3e} > {WEYL_DIAGONAL_TOL}")

    def operator(g):     # sum_nk g_nk |Phi_nk><Phi_nk|
        return (frame.T * g) @ frame.conj()

    def atom_of(a, b):
        return np.abs(frame.conj() @ np.kron(a, b)) ** 2

    p, converged, iterations, gap = _frank_wolfe(np.diag(bell).real, atom_of, operator, cfg)
    rho0 = operator(p)
    return GilbertResult(BipartiteState(rho0, validate=False),
                         float(np.linalg.norm(target - rho0)), converged, iterations, gap)
