"""Acceptance suite: one test per release criterion, each printed as a
PASS/FAIL line with its stated tolerance. Run with ``pytest -rP`` (or ``-s``)
to see the lines for passing criteria too."""

import time

import numpy as np
import pytest

import quditbloch as qb
from quditbloch import GilbertConfig, RegionLabel, WitnessVerdict

from reference_matrices import PRINTED
from test_entanglement import (QUBIT_REGION_I, QUBIT_REGION_II,
                               QUTRIT_REGION_I, QUTRIT_REGION_II,
                               qubit_region_i_distance, qubit_region_ii_distance,
                               qutrit_region_i_distance, qutrit_region_ii_distance)

KINDS = ["ggb", "pob", "wob"]


class _Criterion:
    def __init__(self, number, text):
        self.number = number
        self.text = text
        self.start = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.start
        print(f"CRITERION {self.number:2d} PASS ({elapsed:6.2f}s): {self.text} {detail}")

    def fail(self, exc):
        elapsed = time.monotonic() - self.start
        print(f"CRITERION {self.number:2d} FAIL ({elapsed:6.2f}s): {self.text} -- {exc}")


def test_criterion_01_basis_orthogonality():
    crit = _Criterion(1, "basis orthogonality for d=2..8, all three bases, <= 1e-12")
    try:
        worst_off, worst_diag = 0.0, 0.0
        for d in range(2, 9):
            for kind in KINDS:
                basis = qb.get_basis(kind, d)
                stack = basis.stacked
                gram = np.einsum("iab,jab->ij", stack.conj(), stack)
                off = np.abs(gram - np.diag(np.diag(gram))).max()
                # the GGB identity is normalized to d, not N; the traceless
                # elements carry the orthogonality constant
                lo = 1 if kind == "ggb" else 0
                diag = np.abs(np.diag(gram).real[lo:] - basis.ortho_const).max()
                worst_off = max(worst_off, float(off))
                worst_diag = max(worst_diag, float(diag))
        assert worst_off <= 1e-12, f"off-diagonal {worst_off}"
        assert worst_diag <= 1e-12, f"diagonal {worst_diag}"
        elapsed = time.monotonic() - crit.start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        crit.done(f"[off {worst_off:.2e}, diag {worst_diag:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_02_printed_matrix_fidelity():
    crit = _Criterion(2, "printed matrices for GGB(3,4), POB(2,3), WOB(3) <= 1e-12")
    try:
        worst = 0.0
        for (kind, d), table in PRINTED.items():
            basis = qb.get_basis(kind, d)
            assert len(table) in (len(basis), len(basis) - 1)  # GGB tables omit identity
            for label, expected in table.items():
                err = np.abs(basis.element(label) - np.asarray(expected, dtype=complex)).max()
                worst = max(worst, float(err))
        assert worst <= 1e-12, f"worst entry error {worst}"
        crit.done(f"[worst {worst:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_03_standard_matrix_expansions():
    crit = _Criterion(3, "standard-matrix expansion reconstruction, d=2..6, <= 1e-12")
    try:
        worst = 0.0
        for d in range(2, 7):
            bases = {k: qb.get_basis(k, d) for k in KINDS}
            for j in range(1, d + 1):
                for k in range(1, d + 1):
                    target = np.zeros((d, d), dtype=complex)
                    target[j - 1, k - 1] = 1
                    rebuilt = [
                        qb.reconstruct(bases["ggb"], qb.expand_standard_ggb(d, j, k)),
                        qb.reconstruct(bases["pob"], qb.expand_standard_pob(d, j, k)),
                        qb.reconstruct(bases["wob"], qb.expand_standard_wob(d, j - 1, k - 1)),
                    ]
                    for got in rebuilt:
                        worst = max(worst, float(np.abs(got - target).max()))
        assert worst <= 1e-12, f"worst reconstruction error {worst}"
        crit.done(f"[worst {worst:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_04_bloch_round_trip():
    crit = _Criterion(4, "Bloch round trip/purity <= 1e-10 and WOB conjugacy <= 1e-12, "
                         "200 Ginibre states per (d=2..5 x basis)")
    try:
        rng = np.random.default_rng(42)
        worst_rt, worst_pur, worst_conj = 0.0, 0.0, 0.0
        for d in range(2, 6):
            wob_labels = qb.wob_basis(d).labels[1:]
            partner = [wob_labels.index((((-n) % d), ((-m) % d))) for n, m in wob_labels]
            phases = np.array([np.exp(2j * np.pi * n * m / d) for n, m in wob_labels])
            for kind in KINDS:
                n_const = qb.get_basis(kind, d).ortho_const
                for _ in range(200):
                    rho = qb.random_density_matrix(d, rng)
                    vec = qb.bloch_encode(rho, kind)
                    dec = qb.bloch_decode(vec)
                    worst_rt = max(worst_rt, qb.hs_norm(dec.matrix - rho.matrix))
                    assert qb.is_psd(dec.matrix), (d, kind)
                    pur = abs(qb.purity(rho) - (1 / d + n_const * vec.radius ** 2))
                    worst_pur = max(worst_pur, pur)
                    if kind == "wob":
                        ev = qb.bloch_encode(rho, kind, "expval").components
                        resid = np.abs(np.conj(ev) - phases * ev[partner]).max()
                        worst_conj = max(worst_conj, float(resid))
        assert worst_rt <= 1e-10, f"round trip {worst_rt}"
        assert worst_pur <= 1e-10, f"purity identity {worst_pur}"
        assert worst_conj <= 1e-12, f"WOB conjugacy {worst_conj}"
        crit.done(f"[rt {worst_rt:.2e}, purity {worst_pur:.2e}, conj {worst_conj:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_05_bell_isotropic_expansions():
    crit = _Criterion(5, "Bell/isotropic composite expansions agree <= 1e-10 for d=2..6; "
                         "LAMBDA = 2T and T = U/d <= 1e-10")
    try:
        worst = 0.0
        for d in range(2, 7):
            lam = qb.composite_operator("lambda", d)
            t = qb.composite_operator("t", d)
            u = qb.composite_operator("u", d)
            worst = max(worst, float(np.abs(lam - 2 * t).max()))
            worst = max(worst, float(np.abs(t - u / d).max()))
            eye2 = np.eye(d * d) / d ** 2
            bell = qb.bell_state(d).matrix
            for form in (eye2 + lam / (2 * d), eye2 + t / d, eye2 + u / d ** 2):
                worst = max(worst, float(np.abs(bell - form).max()))
            for alpha in (-1 / (d * d - 1), 0.0, 0.3, 1 / (d + 1), 1.0):
                iso = qb.isotropic_state(d, alpha).matrix
                for form in (eye2 + alpha * lam / (2 * d),
                             eye2 + alpha * t / d,
                             eye2 + alpha * u / d ** 2):
                    worst = max(worst, float(np.abs(iso - form).max()))
        assert worst <= 1e-10, f"worst identity error {worst}"
        crit.done(f"[worst {worst:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_06_isotropic_entanglement():
    crit = _Criterion(6, "isotropic PPT flip at 1/(d+1) within 1e-9 (d=2..5); "
                         "D formula and optimal-witness identities <= 1e-10")
    try:
        for d in range(2, 6):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if qb.ppt_verdict(qb.isotropic_state(d, mid))[1] > 0:
                    lo = mid
                else:
                    hi = mid
            flip = (lo + hi) / 2
            assert abs(flip - 1 / (d + 1)) <= 1e-9, f"d={d} flip at {flip}"
            for alpha in (1 / (d + 1) + 0.05, 0.6, 0.9, 1.0):
                res = qb.hs_measure_isotropic(d, alpha)
                rho_ent = qb.isotropic_state(d, alpha)
                expected = np.sqrt(d * d - 1) / d * (alpha - 1 / (d + 1))
                assert abs(res.distance - expected) <= 1e-10
                direct = qb.hs_norm(res.nearest_separable.matrix - rho_ent.matrix)
                assert abs(res.distance - direct) <= 1e-10
                assert abs(res.max_violation - res.distance) <= 1e-10
                ent = qb.hs_inner(rho_ent.matrix, res.witness.operator).real
                assert abs(ent + res.distance) <= 1e-10
                sep = qb.hs_inner(res.nearest_separable.matrix, res.witness.operator).real
                assert abs(sep) <= 1e-10
        crit.done()
    except AssertionError as exc:
        crit.fail(exc)
        raise


def _plane_criterion(crit, family, region_i, region_ii, dist_i, dist_ii, ctilde_i, ctilde_ii):
    worst_d, worst_c = 0.0, 0.0
    for points, dist_fn, ctilde in ((region_i, dist_i, ctilde_i),
                                    (region_ii, dist_ii, ctilde_ii)):
        expected_label = RegionLabel.ENTANGLED_I if points is region_i else RegionLabel.ENTANGLED_II
        for alpha, beta in points:
            label, res = qb.hs_measure_plane(qb.PLANES[family], alpha, beta)
            assert label is expected_label, (family, alpha, beta, label)
            worst_d = max(worst_d, abs(res.distance - dist_fn(alpha, beta)))
            worst_c = max(worst_c, float(np.abs(res.witness.operator - ctilde).max()))
            assert res.witness.verdict is WitnessVerdict.WITNESS, (alpha, beta)
    assert worst_d <= 1e-12, f"distance error {worst_d}"
    assert worst_c <= 1e-12, f"witness-form error {worst_c}"
    return worst_d, worst_c


def _lemma_minimum(d, ops, offset, samples):
    """min over sampled separable states of offset - |t1| - |t2|, the exact
    minimum of offset + c1 t1 + c2 t2 over |c1|, |c2| <= 1. At least -5e-13
    means a (offset + c1 t1 + c2 t2) >= -1e-12 for every 0 < a <= 2."""
    t = np.empty((samples, len(ops)))
    for i in range(samples):
        rho = qb.sample_separable(d, seed=i, mixture_count=1 + i % 6)
        for j, op in enumerate(ops):
            t[i, j] = qb.hs_inner(op, rho.matrix).real
    return float((offset - np.abs(t).sum(axis=1)).min())


def test_criterion_07_qubit_plane():
    crit = _Criterion(7, "qubit plane: closed forms and witness forms <= 1e-12 at 10 "
                         "interior points per region; separable-expectation minimum >= -5e-13")
    try:
        sigma = qb.composite_operator("sigma", 2)
        ctilde_i = (np.eye(4) - sigma) / (2 * np.sqrt(3))
        ctilde_ii = (np.eye(4) + qb.tensor(qb.PAULI[1], qb.PAULI[1])
                     - qb.tensor(qb.PAULI[2], qb.PAULI[2])
                     - qb.tensor(qb.PAULI[3], qb.PAULI[3])) / (2 * np.sqrt(3))
        worst_d, worst_c = _plane_criterion(
            crit, "qubit2p", QUBIT_REGION_I, QUBIT_REGION_II,
            qubit_region_i_distance, qubit_region_ii_distance, ctilde_i, ctilde_ii)
        ops = [qb.tensor(qb.PAULI[1], qb.PAULI[1]) - qb.tensor(qb.PAULI[2], qb.PAULI[2]),
               qb.tensor(qb.PAULI[3], qb.PAULI[3])]
        low = _lemma_minimum(2, ops, 1.0, 10_000)
        assert low >= -5e-13, f"separable expectation {low}"
        elapsed = time.monotonic() - crit.start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
        crit.done(f"[D {worst_d:.2e}, C {worst_c:.2e}, lemma min {low:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_08_qutrit_plane():
    crit = _Criterion(8, "qutrit plane: closed forms and witness forms <= 1e-12 at 10 "
                         "interior points per region; separable-expectation minimum >= -5e-13; "
                         "composite norms <= 1e-12")
    try:
        u = qb.composite_operator("u", 3)
        u1 = qb.composite_operator("u1", 3)
        u2 = qb.composite_operator("u2", 3)
        ctilde_i = (2 * np.eye(9) - u) / (6 * np.sqrt(2))
        ctilde_ii = (2 * np.eye(9) + u1 - u2) / (6 * np.sqrt(2))
        worst_d, worst_c = _plane_criterion(
            crit, "qutrit2p", QUTRIT_REGION_I, QUTRIT_REGION_II,
            qutrit_region_i_distance, qutrit_region_ii_distance, ctilde_i, ctilde_ii)
        assert abs(qb.hs_norm(u) - 6 * np.sqrt(2)) <= 1e-12
        assert abs(qb.hs_norm(qb.composite_operator("sigma", 2)) - 2 * np.sqrt(3)) <= 1e-12
        low = _lemma_minimum(3, [u1, u2], 2.0, 10_000)
        assert low >= -5e-13, f"separable expectation {low}"
        elapsed = time.monotonic() - crit.start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
        crit.done(f"[D {worst_d:.2e}, C {worst_c:.2e}, lemma min {low:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_09_oracle_agreement():
    crit = _Criterion(9, "Gilbert oracle within [closed-form - 1e-6, closed-form + 1e-3] "
                         "at 5 points per family")
    try:
        cases = []
        for alpha in (0.5, 0.6, 0.75, 0.9, 1.0):
            cases.append((qb.isotropic_state(2, alpha),
                          qb.hs_measure_isotropic(2, alpha).distance))
        for alpha in (0.4, 0.5, 0.7, 0.85, 1.0):
            cases.append((qb.isotropic_state(3, alpha),
                          qb.hs_measure_isotropic(3, alpha).distance))
        for alpha, beta in ((0.5, 0.0), (0.7, 0.1), (0.8, -0.1), (0.9, 0.0), (0.6, 0.2)):
            cases.append((qb.two_param_qubit(alpha, beta),
                          qubit_region_i_distance(alpha, beta)))
        for alpha, beta in ((0.5, 0.0), (0.8, 0.1), (0.7, 0.0), (0.6, 0.2), (0.9, 0.05)):
            cases.append((qb.two_param_qutrit(alpha, beta),
                          qutrit_region_i_distance(alpha, beta)))
        worst_low, worst_high = 0.0, 0.0
        for state, closed in cases:
            res = qb.nearest_separable_numeric(state, GilbertConfig(seed=0))
            assert res.distance >= closed - 1e-6, f"undercuts closed form: {res.distance} < {closed}"
            assert res.distance <= closed + 1e-3, f"too loose: {res.distance} > {closed} + 1e-3"
            worst_low = max(worst_low, closed - res.distance)
            worst_high = max(worst_high, res.distance - closed)
        elapsed = time.monotonic() - crit.start
        assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2 min"
        crit.done(f"[max overshoot {worst_high:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise


def test_criterion_10_diagonal_term_identity():
    crit = _Criterion(10, "diagonal Bell term B = (1/2d) sum L^m x L^m + 1x1/d^2 and "
                          "B2 = B3 = B4 = 0, d=3..5, <= 1e-12")
    try:
        worst = 0.0
        for d in (3, 4, 5):
            basis = qb.ggb_basis(d)
            eye = np.eye(d)
            diag_elems = [basis.element(("l", m)) for m in range(1, d)]
            # gamma[j][m]: diagonal-family coefficients of |j><j|
            gammas = []
            for j in range(1, d + 1):
                coeffs = qb.expand_standard_ggb(d, j, j)
                gammas.append([coeffs.get(("l", m), 0.0) for m in range(1, d)])
            n2 = d * d
            b1 = np.zeros((n2, n2), dtype=complex)
            b2 = np.zeros((n2, n2), dtype=complex)
            b3 = np.zeros((n2, n2), dtype=complex)
            b4 = np.zeros((n2, n2), dtype=complex)
            for g in gammas:
                for m in range(d - 1):
                    for p in range(d - 1):
                        term = g[m] * g[p]
                        if term == 0:
                            continue
                        if m == p:
                            b1 += term * qb.tensor(diag_elems[m], diag_elems[p])
                        else:
                            b2 += term * qb.tensor(diag_elems[m], diag_elems[p])
                for m in range(d - 1):
                    b3 += g[m] / d * qb.tensor(diag_elems[m], eye)
                    b4 += g[m] / d * qb.tensor(eye, diag_elems[m])
            worst = max(worst, float(np.abs(b2).max()), float(np.abs(b3).max()),
                        float(np.abs(b4).max()))
            # direct definition of the diagonal Bell term
            direct = np.zeros((n2, n2), dtype=complex)
            for j in range(d):
                jj = np.zeros((d, d))
                jj[j, j] = 1
                direct += qb.tensor(jj, jj) / d
            assembled = (b1 + b2 + b3 + b4 + qb.tensor(eye, eye) / d) / d
            closed = sum(qb.tensor(el, el) for el in diag_elems) / (2 * d) \
                + qb.tensor(eye, eye) / d ** 2
            worst = max(worst, float(np.abs(direct - closed).max()))
            worst = max(worst, float(np.abs(assembled - closed).max()))
        assert worst <= 1e-12, f"worst identity error {worst}"
        crit.done(f"[worst {worst:.2e}]")
    except AssertionError as exc:
        crit.fail(exc)
        raise
