"""Bit-identity goldens of the seesaw and of the Frank-Wolfe oracle.

The goldens were recorded with the seesaw that draws all restarts in one
call and runs each half-step as a stacked matrix product and ``eigh`` at
d > 2, and in Bloch coordinates, with no ``eigh``, at d = 2. The oracle
goldens were recorded with its seesaw stop at tolerance / 1000, every search
a fresh draw of random restarts, and its own searches screened by successive
halving: after sweeps 2, 4, 8, ... only the leading half of the live runs go
on, while the confirming burst runs all 25 restarts to the stop. The CLI prints the seesaw's ``sep_min_estimate`` to 17
digits and the benchmark compares oracle iterates at equal seeds, so a change
that moves one bit must re-record them. Two property tests check the seesaw
against loops: one run at a time on the same kernels, bit for bit, and the
einsum and ``eigh`` loop that it replaced, to 1e-12 (1 + ||G||). The tests at
the end hold the screened search to the exhaustive one: the same draws, the
same single run, never a higher value, and kets that attain the value it
returns.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch import GilbertConfig, gilbert
from quditbloch.gilbert import (_SCREEN_SWEEPS, CONFIRM_RESTARTS, RESTARTS, _half_steps,
                                _initial_kets, best_product_state, min_product_expectation)
from quditbloch.states import random_ket


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return (m + m.conj().T) / 2


def _seesaw_inputs(d: int, seed: int):
    """A random Hermitian G and the generator the seesaw draws from."""
    rng = np.random.default_rng(seed)
    return _hermitian(d, rng), rng


def _einsum_seesaw(g, d, rng, restarts=5, sweeps=80):
    """The einsum and ``eigh`` loop that the seesaw replaced, one restart at a
    time: an independent reference for its values and its draws."""
    gr = g.reshape(d, d, d, d)
    inits = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(max(restarts, 1))]
    best = None
    for a, b in inits:
        val = -np.inf
        for _ in range(sweeps):
            ma = np.einsum("ijkl,j,l->ik", gr, b.conj(), b)
            w, v = np.linalg.eigh(ma)
            a = v[:, -1]
            mb = np.einsum("ijkl,i,k->jl", gr, a.conj(), a)
            w, v = np.linalg.eigh(mb)
            b = v[:, -1]
            if w[-1].real - val < 1e-15:
                val = w[-1].real
                break
            val = w[-1].real
        if best is None or val > best[0]:
            best = (val, a, b)
    return best


def _reference_seesaw(g, d, rng, restarts=5, sweeps=80):
    """The seesaw's own kernels, one run at a time."""
    step, (op_a, op_b), start, ket_of = _half_steps(g, d, _initial_kets(d, rng, restarts))
    best = None
    for a, b in start[:, :, None]:
        val = -np.inf
        for _ in range(sweeps):
            a, _ = step(op_a, b, a)
            b, w = step(op_b, a, b)
            if w[0] - val < 1e-15:
                val = w[0]
                break
            val = w[0]
        if best is None or val > best[0]:
            best = (val, a[0], b[0])
    return best[0], ket_of(best[1]), ket_of(best[2])


def seesaw_golden(d: int, restarts: int):
    g, rng = _seesaw_inputs(d, 100 + d)
    val, a, b = best_product_state(g, rng, restarts=restarts)
    # the generator's next draw pins how many kets the seesaw consumed
    return repr(float(val)), _sha256(a, b, rng.standard_normal(1))


def min_product_golden(d: int, alpha: float) -> str:
    op = qb.hs_measure_isotropic(d, alpha).witness.operator
    return repr(float(min_product_expectation(op, np.random.default_rng(5))))


def oracle_golden(state, config):
    res = qb.nearest_separable_numeric(state, config)
    return (repr(res.distance), res.iterations, repr(res.gap), res.converged,
            _sha256(res.rho0.matrix))


SEESAW_GOLDENS = [
    (2, 5, ("3.7628314294623726",
            "023ebda4a765247c451df34a8bc86e64a1ed5fa09dd11e186dfcee2b05cfcaed")),
    (2, 0, ("2.534871698308005",
            "8f94e8027e4ec8277d13b1625c4905b0e24922563c3495a1474116eec713f41a")),
    (3, 5, ("3.255651851780947",
            "3fc995fbea44adaab963758628cd2132a75ea84a02c51607df9f7ee9fabe0bee")),
    (3, 0, ("3.2556518517809403",
            "7ff98fd33608ac681df525795dd85d37e8d16e2428a1afc0d0ed1bf0f4fa9884")),
    (4, 5, ("4.816774710199188",
            "9a41a78669a7f37a89a06552c1ae7e2f24fc8c516df2d19a0c5320ed959ae55b")),
    (4, 0, ("4.816774710199187",
            "a54c6ee81a70ae1b5209d2fc05c8b35cb84f19f0da7eca50eaf9177be76d314b")),
    (5, 5, ("5.240661943237059",
            "63b04298da57f602cba08d8d52c2377c8cfba8e80b9c79ee1753b57111ac9ec7")),
    (5, 0, ("5.214089650292195",
            "7181bcdbe57d0d001e602e410390350a27fcef96f875853a570dc380e69fb6a5")),
    # the confirming burst's count
    (2, 25, ("3.7628314294623726",
             "7b964330a9052f011aff0992141c40b78eb3444ebe8306872f17aacece9df79f")),
    (3, 25, ("3.4513019880308855",
             "21baa4c3f5a8fcbda1924d3fb94371b6c80caab972ac292266c9ba61749ed4b8")),
    (4, 25, ("5.200709209645643",
             "27a75d16b521bf8c44ca31fcc728488e36a36cdeb15ed4917282b2c66e03f81c")),
    (5, 25, ("5.240661943237065",
             "f2a3865c435d047300a2928801b59205c5cbae1810b1e6442fca0598aac8fa87")),
]

MIN_PRODUCT_GOLDEN = "-1.1102230246252408e-16"

ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656855074051617", 35, "9.57665288587392e-07", True,
                     "a32939ffadb583804b026366673ebe72193832c04d3cf0cd2f56905a7142da35"),
    "sample_separable(3)": ("0.006785623841320259", 60, "0.00013068937618389216", False,
                            "9de166b655c13e0f404d2bed699e47b65df8cdce1a2adeaec763b3a48edb2017"),
    # d = 2: the seesaw's Bloch-coordinate step on the Pauli products
    "iso(2, 0.8)": ("0.404145190980125", 8, "7.550350075074579e-09", True,
                    "ae98d77b1550f3b3145d3d0c9213f9ce9c00ef14ef44e6913d90928ead5ec754"),
}


@pytest.mark.parametrize("d,restarts,expected", SEESAW_GOLDENS,
                         ids=[f"d{d}-restarts{r}" for d, r, _ in SEESAW_GOLDENS])
def test_best_product_state_golden(d, restarts, expected):
    assert seesaw_golden(d, restarts) == expected


def test_min_product_expectation_isotropic_witness_d5():
    assert min_product_golden(5, 0.9) == MIN_PRODUCT_GOLDEN


def _oracle_cases():
    return {
        "iso(3, 0.85)": (qb.isotropic_state(3, 0.85), None),
        "sample_separable(3)": (qb.sample_separable(3, seed=8),
                                GilbertConfig(max_iterations=60, seed=3)),
        "iso(2, 0.8)": (qb.isotropic_state(2, 0.8), GilbertConfig(seed=1)),
    }


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDENS))
def test_nearest_separable_numeric_golden(name):
    state, config = _oracle_cases()[name]
    assert oracle_golden(state, config) == ORACLE_GOLDENS[name]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), restarts=st.integers(0, 8),
       sweeps=st.integers(1, 80))
def test_batched_seesaw_matches_scalar_loop(d, seed, restarts, sweeps):
    g, _ = _seesaw_inputs(d, seed)
    want_val, want_a, want_b = _reference_seesaw(g, d, np.random.default_rng(seed), restarts,
                                                 sweeps)
    val, a, b = best_product_state(g, np.random.default_rng(seed), restarts, sweeps)
    assert val == want_val
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("complex_g", [True, False])
def test_real_and_complex_g_match_scalar_loop(complex_g):
    for d in (3, 2):
        g = _hermitian(d, np.random.default_rng(12))
        g = g if complex_g else g.real
        want_val, want_a, want_b = _reference_seesaw(g, d, np.random.default_rng(13), 3)
        val, a, b = best_product_state(g, np.random.default_rng(13), 3)
        assert a.dtype == b.dtype == complex
        assert val == want_val
        assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), real=st.booleans(),
       restarts=st.integers(0, 8))
def test_seesaw_matches_einsum_eigh_loop(d, seed, real, restarts):
    g, _ = _seesaw_inputs(d, seed)
    g = g.real if real else g
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _einsum_seesaw(g, d, want_rng, restarts)[0]
    val, a, b = best_product_state(g, rng, restarts)
    # the kets are complex for a real G too
    assert a.dtype == b.dtype == complex
    assert abs(val - want) <= 1e-12 * (1 + np.linalg.norm(g, 2))
    # one draw of all restarts leaves the generator where per-ket draws did
    assert rng.standard_normal() == want_rng.standard_normal()


@pytest.mark.parametrize("kind", ["zero", "identity", "A(x)1", "1(x)B"])
def test_degenerate_qubit_operators(kind):
    # a Bloch half-step with nothing to align to (w = 0) keeps its vector
    h = np.array([[0.3, 1 - 2j], [1 + 2j, -0.7]])
    g = {"zero": np.zeros((4, 4)), "identity": np.eye(4),
         "A(x)1": np.kron(h, np.eye(2)), "1(x)B": np.kron(np.eye(2), h)}[kind]
    val, a, b = best_product_state(g, np.random.default_rng(9))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert np.linalg.norm(a) == pytest.approx(1, abs=1e-15)
    assert np.linalg.norm(b) == pytest.approx(1, abs=1e-15)
    ab = np.kron(a, b)
    assert np.real(ab.conj() @ g @ ab) == pytest.approx(val, abs=1e-14)
    assert val == pytest.approx(np.linalg.eigvalsh(g)[-1], abs=1e-14)


def weyl_oracle_golden(state):
    res = qb.nearest_separable_weyl(state)
    return (repr(res.distance), res.iterations, repr(res.gap), res.converged,
            _sha256(res.rho0.matrix))


# recorded at the default GilbertConfig, with the seesaw stopped at tolerance / 1000,
# every search a fresh draw and the oracle's own searches screened by successive halving
WEYL_ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656854249900307", 3, "4.618390549995723e-11", True,
                     "ccc82882dc15fadd86ec73282b086c21a99eda12833c2dd5fc9ce22ceb129b72"),
    "iso(4, 0.9)": ("0.6777720928694139", 6, "4.771980963332034e-08", True,
                    "8578311265fde9f2d6d64f3c0ad80d968dfcf8282fea6375325af7c6bbf4200b"),
    "qutrit(0, 0.6)": ("0.11785189084822299", 10, "3.071270677943597e-07", True,
                       "c7c5896df5d08dbd4fe034facd281ebf64f5db2490fe20aa8e7b0d68ccdca8ea"),
    # d = 2: the seesaw's Bloch-coordinate step on the Pauli products
    "iso(2, 0.9)": ("0.49074772882854045", 2, "9.899232866040214e-11", True,
                    "1eb54bd4dd151d8d85b01335a595bf4ef5deaa7837883d8afdab50839ae1132f"),
    "qubit(0.7, 0.1)": ("0.2886751346732486", 2, "9.603388103603112e-11", True,
                        "0363a29003d58fc36583191989b30a35dab3036a2fbb5470f7b4b672f7ca9356"),
    "qubit(-0.7, -1.5)": ("0.34641016156596405", 2, "3.442238164060191e-11", True,
                          "b2117b3ff9c83828e3e86956e58be7860390a3432459e03ce57e495bd41f2983"),
}


@pytest.mark.parametrize("name", sorted(WEYL_ORACLE_GOLDENS))
def test_nearest_separable_weyl_golden(name):
    state = {"iso(3, 0.85)": qb.isotropic_state(3, 0.85),
             "iso(4, 0.9)": qb.isotropic_state(4, 0.9),
             "qutrit(0, 0.6)": qb.two_param_qutrit(0.0, 0.6),          # Region II
             "iso(2, 0.9)": qb.isotropic_state(2, 0.9),
             "qubit(0.7, 0.1)": qb.two_param_qubit(0.7, 0.1),          # Region I
             "qubit(-0.7, -1.5)": qb.two_param_qubit(-0.7, -1.5)}[name]  # Region II
    assert weyl_oracle_golden(state) == WEYL_ORACLE_GOLDENS[name]


def _screened_and_exhaustive(d, seed, restarts):
    """The seesaw's results on one input with and without the oracle's
    screening, and the next draw of each generator."""
    g, _ = _seesaw_inputs(d, seed)
    out = []
    for screen in (_SCREEN_SWEEPS, frozenset()):
        rng = np.random.default_rng(seed)
        val, a, b = best_product_state(g, rng, restarts, _screen=screen)
        out.append((val, a, b, rng.standard_normal()))
    return g, out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("restarts", [RESTARTS, CONFIRM_RESTARTS])
def test_screened_search_draws_as_an_exhaustive_one(d, restarts):
    _, (screened, exhaustive) = _screened_and_exhaustive(d, 200 + d, restarts)
    assert screened[3] == exhaustive[3]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("restarts", [0, 1])
def test_screening_keeps_a_single_run(d, restarts):
    _, (screened, exhaustive) = _screened_and_exhaustive(d, 300 + d, restarts)
    assert screened[0] == exhaustive[0]
    assert screened[1].tobytes() == exhaustive[1].tobytes()
    assert screened[2].tobytes() == exhaustive[2].tobytes()


def _screened_reference(g, d, rng, restarts):
    """The screened seesaw replayed per run: each run's values and kets after
    every sweep to its stop, on the seesaw's own kernels, then the halving
    applied to those records."""
    step, (op_a, op_b), start, ket_of = _half_steps(g, d, _initial_kets(d, rng, restarts))
    paths = []
    for a, b in start[:, :, None]:
        path, val = [], -np.inf
        while len(path) < 80:
            a, _ = step(op_a, b, a)
            b, w = step(op_b, a, b)
            path.append((w[0], a[0], b[0]))
            if w[0] - val < 1e-15:
                break
            val = w[0]
        paths.append(path)
    ends = [len(path) for path in paths]
    for sweep in sorted(_SCREEN_SWEEPS):
        going = sorted((i for i, n in enumerate(ends) if n > sweep),
                       key=lambda i: -paths[i][sweep - 1][0])
        for i in going[(len(going) + 1) // 2:]:
            ends[i] = sweep
    val, a, b = max((path[n - 1] for path, n in zip(paths, ends)), key=lambda r: r[0])
    return val, ket_of(a), ket_of(b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), restarts=st.integers(0, 8))
def test_screened_value_is_attained_and_at_most_exhaustive(d, seed, restarts):
    g, ((val, a, b, _), exhaustive) = _screened_and_exhaustive(d, seed, restarts)
    assert val <= exhaustive[0]
    ab = np.kron(a, b)
    assert abs(np.real(ab.conj() @ g @ ab) - val) <= 1e-14 * (1 + np.linalg.norm(g, 2))
    # the leading runs are the ones kept, and a run's arithmetic is its own
    want_val, want_a, want_b = _screened_reference(g, d, np.random.default_rng(seed), restarts)
    assert val == want_val
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


def test_confirming_burst_is_not_screened(monkeypatch):
    calls = []
    seesaw = gilbert.best_product_state

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return seesaw(*args, **kwargs)

    monkeypatch.setattr(gilbert, "best_product_state", recorded)
    assert qb.nearest_separable_weyl(qb.isotropic_state(3, 0.85)).converged
    confirm = [k for k in calls if k["restarts"] == CONFIRM_RESTARTS]
    steps = [k for k in calls if k["restarts"] == RESTARTS]
    assert confirm and steps and len(confirm) + len(steps) == len(calls)
    # every search is a fresh draw: no argument but these
    assert all(k.keys() == {"restarts", "stop"} for k in confirm)
    assert all(k.keys() == {"restarts", "stop", "_screen"} for k in steps)
    assert all(k["_screen"] == _SCREEN_SWEEPS for k in steps)
