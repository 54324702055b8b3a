"""Bit-identity goldens of the seesaw and of the Frank-Wolfe oracle.

The goldens were recorded with the seesaw that draws all restarts in one
call and runs each half-step as a stacked matrix product and ``eigh`` at
d > 2, and in Bloch coordinates, with no ``eigh``, at d = 2; the oracle
values with its seesaw stop at tolerance / 1000. The CLI prints the
seesaw's ``sep_min_estimate`` to 17 digits and the benchmark compares oracle
iterates at equal seeds, so a change that moves one bit must re-record them.
Two property tests at the end check the seesaw against loops: one run at a
time on the same kernels, bit for bit, and the einsum and ``eigh`` loop that
it replaced, to 1e-12 (1 + ||G||).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch import GilbertConfig
from quditbloch.gilbert import (_half_steps, _initial_kets, best_product_state,
                                min_product_expectation)
from quditbloch.states import random_ket


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return (m + m.conj().T) / 2


def _seesaw_inputs(d: int, seed: int, warm: bool):
    """A random Hermitian G, the generator the seesaw draws from, and warm kets."""
    rng = np.random.default_rng(seed)
    g = _hermitian(d, rng)
    warm_rng = np.random.default_rng([seed, 1])
    pairs = [(random_ket(d, warm_rng), random_ket(d, warm_rng))] if warm else None
    return g, rng, pairs


def _einsum_seesaw(g, d, rng, restarts=5, warm=None, sweeps=80):
    """The einsum and ``eigh`` loop that the seesaw replaced, one restart at a
    time: an independent reference for its values and its draws."""
    gr = g.reshape(d, d, d, d)
    inits = list(warm or [])
    for _ in range(max(restarts, 0 if inits else 1)):
        inits.append((random_ket(d, rng), random_ket(d, rng)))
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


def _reference_seesaw(g, d, rng, restarts=5, warm=None, sweeps=80):
    """The seesaw's own kernels, one run at a time."""
    step, (op_a, op_b), start, ket_of = _half_steps(g, d, _initial_kets(d, rng, restarts, warm))
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


def seesaw_golden(d: int, warm: bool, restarts: int):
    g, rng, pairs = _seesaw_inputs(d, 100 + d, warm)
    val, a, b = best_product_state(g, rng, restarts=restarts, warm=pairs)
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
    (2, False, 5, ("3.7628314294623726",
                   "023ebda4a765247c451df34a8bc86e64a1ed5fa09dd11e186dfcee2b05cfcaed")),
    (2, True, 5, ("3.7628314294623726",
                  "023ebda4a765247c451df34a8bc86e64a1ed5fa09dd11e186dfcee2b05cfcaed")),
    (2, True, 0, ("2.5348716982835797",
                  "0c4468e5f79027c85052a5be668b0402b85bd7bcda012662e3659d573ccb6e07")),
    (2, False, 0, ("2.534871698308005",
                   "8f94e8027e4ec8277d13b1625c4905b0e24922563c3495a1474116eec713f41a")),
    (3, False, 5, ("3.255651851780947",
                   "3fc995fbea44adaab963758628cd2132a75ea84a02c51607df9f7ee9fabe0bee")),
    (3, True, 5, ("3.255651851780947",
                  "3fc995fbea44adaab963758628cd2132a75ea84a02c51607df9f7ee9fabe0bee")),
    (3, True, 0, ("3.255651851780941",
                  "3440af92f7005f709628ee8a1b4184bc521bd974b0465ac24167a1c928d327ce")),
    (3, False, 0, ("3.2556518517809403",
                   "7ff98fd33608ac681df525795dd85d37e8d16e2428a1afc0d0ed1bf0f4fa9884")),
    (4, False, 5, ("4.816774710199188",
                   "9a41a78669a7f37a89a06552c1ae7e2f24fc8c516df2d19a0c5320ed959ae55b")),
    (4, True, 5, ("5.200709209645643",
                  "6089fd0d660f7380840339229ab344985bd11d2b7944588f1b44a6e8812b255a")),
    (4, True, 0, ("5.200709209645643",
                  "907de318e80d816f281e8eb519d65e9d637a49420a48acf839bde3f55c2d7c24")),
    (4, False, 0, ("4.816774710199187",
                   "a54c6ee81a70ae1b5209d2fc05c8b35cb84f19f0da7eca50eaf9177be76d314b")),
]

MIN_PRODUCT_GOLDEN = "-1.1102230246252408e-16"

ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656854477757081", 56, "2.147903904171367e-07", True,
                     "c7e21a803219d17e7989b6a8eebad670472cc7314f2efc680fd7f375f26b179e"),
    "sample_separable(3)": ("0.006859061125576777", 60, "0.00014477066735664045", False,
                            "a99aaf61a318322e8cf4a98ff1fb4b84d1eac3146ca4d0661f3ec39096b7843a"),
}


@pytest.mark.parametrize("d,warm,restarts,expected", SEESAW_GOLDENS)
def test_best_product_state_golden(d, warm, restarts, expected):
    assert seesaw_golden(d, warm, restarts) == expected


def test_min_product_expectation_isotropic_witness_d5():
    assert min_product_golden(5, 0.9) == MIN_PRODUCT_GOLDEN


def _oracle_cases():
    return {
        "iso(3, 0.85)": (qb.isotropic_state(3, 0.85), None),
        "sample_separable(3)": (qb.sample_separable(3, seed=8),
                                GilbertConfig(max_iterations=60, seed=3)),
    }


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDENS))
def test_nearest_separable_numeric_golden(name):
    state, config = _oracle_cases()[name]
    assert oracle_golden(state, config) == ORACLE_GOLDENS[name]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), warm=st.booleans(),
       restarts=st.integers(0, 8), sweeps=st.integers(1, 80))
def test_batched_seesaw_matches_scalar_loop(d, seed, warm, restarts, sweeps):
    g, _, pairs = _seesaw_inputs(d, seed, warm)
    want_val, want_a, want_b = _reference_seesaw(g, d, np.random.default_rng(seed), restarts,
                                                 pairs, sweeps)
    val, a, b = best_product_state(g, np.random.default_rng(seed), restarts, pairs, sweeps)
    assert val == want_val
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("complex_g", [True, False])
def test_real_warm_kets_match_scalar_loop(complex_g):
    for d in (3, 2):
        rng = np.random.default_rng(12)
        g = _hermitian(d, rng) if complex_g else _hermitian(d, rng).real
        warm = [(np.eye(d)[0], np.ones(d) / np.sqrt(d)), (np.eye(d)[1], np.eye(d)[d - 1])]
        want_val, want_a, want_b = _reference_seesaw(g, d, None, 0, warm)
        val, a, b = best_product_state(g, None, 0, warm)
        # the kets are complex for a real G too
        assert a.dtype == b.dtype == complex
        assert val == want_val
        assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), warm=st.booleans(),
       real=st.booleans(), restarts=st.integers(0, 8))
def test_seesaw_matches_einsum_eigh_loop(d, seed, warm, real, restarts):
    g, _, pairs = _seesaw_inputs(d, seed, warm)
    g = g.real if real else g
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _einsum_seesaw(g, d, want_rng, restarts, pairs)[0]
    val, _, _ = best_product_state(g, rng, restarts, pairs)
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


# recorded at the default GilbertConfig, with the seesaw stopped at tolerance / 1000
WEYL_ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656854249855956", 3, "4.5289290343777087e-11", True,
                     "355317462305ccbb81a2a6ef999d1c49480a9261e4d58ff2e175b33f81410a0b"),
    "iso(4, 0.9)": ("0.6777720876193918", 6, "1.077958425126091e-08", True,
                    "24b4720055653d4488d12f03d91cd0ad47dbf5bd8f063b48fae2f5e820054e93"),
    "qutrit(0, 0.6)": ("0.11785281665902803", 10, "3.57763627757995e-07", True,
                       "9169cd3132801a96ef97f5790d021dcc151e2b22efe1d4f4319f6b1f9adb56fe"),
}


@pytest.mark.parametrize("name", sorted(WEYL_ORACLE_GOLDENS))
def test_nearest_separable_weyl_golden(name):
    state = {"iso(3, 0.85)": qb.isotropic_state(3, 0.85),
             "iso(4, 0.9)": qb.isotropic_state(4, 0.9),
             "qutrit(0, 0.6)": qb.two_param_qutrit(0.0, 0.6)}[name]   # Region II
    assert weyl_oracle_golden(state) == WEYL_ORACLE_GOLDENS[name]
