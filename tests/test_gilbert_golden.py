"""Bit-identity goldens of the seesaw and of the Frank-Wolfe oracle.

The seesaw values were recorded with the per-restart seesaw loop that
preceded the batched one, the oracle values with the oracle's seesaw stop at
tolerance / 1000. Running the restarts as one stacked eigensolve must not move a
single bit: the CLI prints the seesaw's ``sep_min_estimate`` to 17 digits and
the benchmark compares oracle iterates at equal seeds. The property test at
the end compares the batched seesaw with a copy of that scalar loop.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch import GilbertConfig
from quditbloch.gilbert import best_product_state, min_product_expectation
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


def _reference_seesaw(g, d, rng, restarts=5, warm=None, sweeps=80):
    """The scalar loop the batched seesaw replaced: one restart at a time."""
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


def seesaw_golden(d: int, warm: bool, restarts: int):
    g, rng, pairs = _seesaw_inputs(d, 100 + d, warm)
    val, a, b = best_product_state(g, d, rng, restarts=restarts, warm=pairs)
    # the generator's next draw pins how many kets the seesaw consumed
    return repr(float(val)), _sha256(a, b, rng.standard_normal(1))


def min_product_golden(d: int, alpha: float) -> str:
    op = qb.hs_measure_isotropic(d, alpha).witness.operator
    return repr(float(min_product_expectation(op, d, np.random.default_rng(5))))


def oracle_golden(state, config):
    res = qb.nearest_separable_numeric(state, config)
    return (repr(res.distance), res.iterations, repr(res.gap), res.converged,
            _sha256(res.rho0.matrix))


SEESAW_GOLDENS = [
    (2, False, 5, ("3.7628314294623717",
                   "7524d27585dc2e144eb09927562db3f7a4a2d1917e726f712ef3e97f927ee373")),
    (2, True, 5, ("3.7628314294623717",
                  "7524d27585dc2e144eb09927562db3f7a4a2d1917e726f712ef3e97f927ee373")),
    (2, True, 0, ("2.53487169828358",
                  "9aa54254eb08aafb0e45670aee8ae1c3f8c9a43a6d16a7ab54f02c5a09a88527")),
    (2, False, 0, ("2.534871698308006",
                   "ab26448869e277192917474a02a117426cae4207861eeec56b274d92bb157f8a")),
    (3, False, 5, ("3.255651851780946",
                   "71ef97817879b4571b51b696a26732317b2312244a9eec2f71d9dcc3200e9f0b")),
    (3, True, 5, ("3.255651851780946",
                  "71ef97817879b4571b51b696a26732317b2312244a9eec2f71d9dcc3200e9f0b")),
    (3, True, 0, ("3.2556518517809416",
                  "f5573e8d15af4d1a01179ecfb8e5e4c0a8ba2b38e039b15f8e4d897c5c4331af")),
    (3, False, 0, ("3.255651851780946",
                   "3fca9cf7f929b59d55917407cbaf190c99ea6d46c532503868fefedc08daa211")),
    (4, False, 5, ("4.816774710199188",
                   "b559da245af91261d2ced0ff54cc38c2aeb8a3d01913940f7990560716f34d3c")),
    (4, True, 5, ("5.200709209645643",
                  "6efa83ac7a2d9f61821c9df836bf6c66558022aae427a95ac902d97f0e5bcde6")),
    (4, True, 0, ("5.200709209645643",
                  "c2daa154c94bfd869a80be6273d0dd6ca74125e59b019ffea27ba5c405ff20f3")),
    (4, False, 0, ("4.8167747101991845",
                   "11ce0bb79b43cada5752b06df9b3975abb2280fe6eea86428775b33b93e3f4a6")),
]

MIN_PRODUCT_GOLDEN = "-8.32667268468871e-17"

ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656854525110614", 54, "7.238480655884949e-07", True,
                     "b9b2217a8e0d3d66cee85d44ed4730f0ec0f358168269e056de65a25199ecc72"),
    "sample_separable(3)": ("0.006859061125559661", 60, "0.00014477066736255726", False,
                            "c0c5ce2b18c559b4490d6ba36d25d80209e536105a0326c9e43eda1b0870f655"),
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
    val, a, b = best_product_state(g, d, np.random.default_rng(seed), restarts, pairs, sweeps)
    assert val == want_val
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("complex_g", [True, False])
def test_real_warm_kets_match_scalar_loop(complex_g):
    rng = np.random.default_rng(12)
    g = _hermitian(3, rng) if complex_g else _hermitian(3, rng).real
    warm = [(np.eye(3)[0], np.ones(3) / np.sqrt(3)), (np.eye(3)[1], np.eye(3)[2])]
    want_val, want_a, want_b = _reference_seesaw(g, 3, None, 0, warm)
    val, a, b = best_product_state(g, 3, None, 0, warm)
    assert a.dtype == want_a.dtype and b.dtype == want_b.dtype
    assert val == want_val
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


def weyl_oracle_golden(state):
    res = qb.nearest_separable_weyl(state)
    return (repr(res.distance), res.iterations, repr(res.gap), res.converged,
            _sha256(res.rho0.matrix))


# recorded at the default GilbertConfig, with the seesaw stopped at tolerance / 1000
WEYL_ORACLE_GOLDENS = {
    "iso(3, 0.85)": ("0.5656854249855957", 3, "4.5289241836005086e-11", True,
                     "aeb6a59296fa0e9d4e71212eaf68182ee689618d201a0b76baa22e237c602167"),
    "iso(4, 0.9)": ("0.6777720876193918", 6, "1.0779584020542687e-08", True,
                    "c3f41e19417e59171e22b41b3a6f17edc9a293218b7685a902b867a0b3c6b02f"),
    "qutrit(0, 0.6)": ("0.1178528166590282", 10, "3.577636277446289e-07", True,
                       "22e46335e2ac4986ea8c5dcd11a6d2f0bdc359ae1ae0591d721336aaa2a25f04"),
}


@pytest.mark.parametrize("name", sorted(WEYL_ORACLE_GOLDENS))
def test_nearest_separable_weyl_golden(name):
    state = {"iso(3, 0.85)": qb.isotropic_state(3, 0.85),
             "iso(4, 0.9)": qb.isotropic_state(4, 0.9),
             "qutrit(0, 0.6)": qb.two_param_qutrit(0.0, 0.6)}[name]   # Region II
    assert weyl_oracle_golden(state) == WEYL_ORACLE_GOLDENS[name]
