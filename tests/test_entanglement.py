import gc
import json
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import quditbloch as qb
from quditbloch import RegionLabel, WitnessMethod, WitnessVerdict, entanglement
from quditbloch.cli import cli_main
from quditbloch.entanglement import TOL_WIT, _isotropic_witness

QUBIT_REGION_I = [(0.5, 0.0), (0.7, 0.0), (0.9, 0.0), (0.6, 0.2), (0.7, 0.25),
                  (0.6, -0.2), (0.8, -0.1), (0.5, 0.3), (0.55, -0.35), (0.95, 0.02)]
QUBIT_REGION_II = [(-0.7, -1.5), (-0.6, -1.4), (-0.75, -1.6), (-0.55, -1.3), (-0.8, -1.7),
                   (-0.9, -1.85), (-0.65, -1.45), (-0.72, -1.55), (-0.58, -1.35), (-0.85, -1.75)]
QUTRIT_REGION_I = [(0.5, 0.0), (0.7, 0.0), (0.9, 0.0), (0.6, 0.2), (0.5, 0.4),
                   (0.4, 0.1), (0.8, 0.05), (0.35, -0.15), (0.6, -0.08), (0.45, 0.5)]
QUTRIT_REGION_II = [(0.0, 0.6), (0.1, 0.6), (0.0, 0.7), (0.1, 0.7), (0.2, 0.7),
                    (0.05, 0.65), (0.15, 0.8), (0.0, 0.8), (0.1, 0.85), (0.05, 0.75)]


def qubit_region_i_distance(alpha, beta):
    return np.sqrt(3) / 2 * (alpha - 1 / 3 - beta / 3)


def qubit_region_ii_distance(alpha, beta):
    return (-alpha - 1 - beta) / (2 * np.sqrt(3))


def qutrit_region_i_distance(alpha, beta):
    return 2 * np.sqrt(2) / 3 * (alpha - 1 / 4 - beta / 8)


def qutrit_region_ii_distance(alpha, beta):
    return (-4 * alpha - 2 + 5 * beta) / (6 * np.sqrt(2))


class TestPPTVerdict:
    def test_entangled_isotropic_qubit(self):
        is_ppt, lo = qb.ppt_verdict(qb.isotropic_state(2, 0.5))
        assert not is_ppt and lo < -1e-3

    def test_product_state(self, rng):
        ra = qb.random_density_matrix(3, rng).matrix
        rb = qb.random_density_matrix(3, rng).matrix
        is_ppt, lo = qb.ppt_verdict(qb.tensor(ra, rb))
        assert is_ppt and lo > -1e-12

    def test_qutrit_ppt_boundary(self):
        for beta in (-0.1, 0.0, 0.2):
            rho = qb.two_param_qutrit(beta / 8 + 0.25, beta)
            _, lo = qb.ppt_verdict(rho)
            assert lo == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_isotropic_flip_located_by_bisection(self, d):
        def pt_min_eig(alpha):
            return qb.ppt_verdict(qb.isotropic_state(d, alpha))[1]

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if pt_min_eig(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(1 / (d + 1), abs=1e-9)


class TestWitnessCandidate:
    def test_qubit_region_i_form(self):
        alpha, beta = 0.8, 0.1
        rho_ent = qb.two_param_qubit(alpha, beta)
        rho_tilde = qb.two_param_qubit(1 / 3 + beta / 3, beta)
        c = qb.witness_candidate(rho_tilde, rho_ent)
        sigma = qb.composite_operator("sigma", 2)
        assert np.abs(c - (np.eye(4) - sigma) / (2 * np.sqrt(3))).max() <= 1e-12

    def test_qubit_region_ii_form(self):
        alpha, beta = -0.7, -1.5
        rho_ent = qb.two_param_qubit(alpha, beta)
        rho_tilde = qb.two_param_qubit((-1 + 2 * alpha - beta) / 3, (-2 - 2 * alpha + beta) / 3)
        c = qb.witness_candidate(rho_tilde, rho_ent)
        expected = (np.eye(4)
                    + qb.tensor(qb.PAULI[1], qb.PAULI[1])
                    - qb.tensor(qb.PAULI[2], qb.PAULI[2])
                    - qb.tensor(qb.PAULI[3], qb.PAULI[3])) / (2 * np.sqrt(3))
        assert np.abs(c - expected).max() <= 1e-12

    def test_qutrit_region_i_form(self):
        alpha, beta = 0.6, 0.2
        rho_ent = qb.two_param_qutrit(alpha, beta)
        rho_tilde = qb.two_param_qutrit(0.25 + beta / 8, beta)
        c = qb.witness_candidate(rho_tilde, rho_ent)
        u = qb.composite_operator("u", 3)
        assert np.abs(c - (2 * np.eye(9) - u) / (6 * np.sqrt(2))).max() <= 1e-12

    def test_qutrit_region_ii_form(self):
        alpha, beta = 0.1, 0.7
        rho_ent = qb.two_param_qutrit(alpha, beta)
        rho_tilde = qb.two_param_qutrit((-2 + 20 * alpha + 5 * beta) / 24, (2 + 4 * alpha + beta) / 6)
        c = qb.witness_candidate(rho_tilde, rho_ent)
        u1 = qb.composite_operator("u1", 3)
        u2 = qb.composite_operator("u2", 3)
        assert np.abs(c - (2 * np.eye(9) + u1 - u2) / (6 * np.sqrt(2))).max() <= 1e-12

    def test_construction_identity(self):
        # <rho_ent, C> = -||rho_tilde - rho_ent|| by construction
        rho_ent = qb.two_param_qubit(0.9, 0.0)
        rho_tilde = qb.two_param_qubit(1 / 3, 0.0)
        c = qb.witness_candidate(rho_tilde, rho_ent)
        dist = qb.hs_norm(rho_tilde.matrix - rho_ent.matrix)
        assert qb.hs_inner(rho_ent.matrix, c).real == pytest.approx(-dist, abs=1e-12)

    def test_zero_distance_error(self):
        rho = qb.two_param_qubit(0.5, 0.0)
        with pytest.raises(ValueError):
            qb.witness_candidate(rho, rho)

    def test_bounded_inputs_whose_difference_exceeds_the_bound(self):
        # both inputs are within MAX_ENTRY, their difference reaches 2e100
        m = np.diag([1e100, -1e100, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = qb.witness_candidate(m, -m)
        expected = (2 * m - 4e200 * np.eye(4)) / (np.sqrt(8) * 1e100)
        assert np.abs(c - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_hermitian_for_nearly_equal_states(self):
        # D ~ 9.4e-10: the states' rounding, divided by D, used to leave the
        # candidate non-Hermitian by 1.5e-8, and verify_witness raised
        plane = qb.QUTRIT_PLANE
        alpha, beta = 0.2706632663061225, 0.16530612244897958
        rho = plane.state(alpha, beta)
        c = qb.witness_candidate(plane.state(plane.line_i(beta), beta), rho)
        assert qb.is_hermitian(c)
        report = qb.verify_witness(c, rho)
        assert isinstance(report, qb.WitnessReport)


class TestVerifyWitness:
    def test_qubit_region_i_witness(self):
        alpha, beta = 0.8, 0.1
        sigma = qb.composite_operator("sigma", 2)
        c = (np.eye(4) - sigma) / (2 * np.sqrt(3))
        report = qb.verify_witness(c, qb.two_param_qubit(alpha, beta))
        assert report.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert report.verdict is WitnessVerdict.WITNESS
        expected = -np.sqrt(3) / 2 * (alpha - 1 / 3 - beta / 3)
        assert report.ent_expectation == pytest.approx(expected, abs=1e-12)
        assert report.sep_min_estimate == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: \(9, 9\) vs \(4, 4\)"):
            qb.verify_witness(np.eye(4) / 2, qb.two_param_qutrit(0.6, 0.0))

    def test_positive_operator_is_not_witness(self):
        report = qb.verify_witness(np.eye(4) / 2, qb.two_param_qubit(0.9, 0.0))
        assert report.verdict is WitnessVerdict.NOT_WITNESS
        assert report.ent_expectation > 0

    def test_qutrit_region_ii_witness(self):
        alpha, beta = 0.0, 0.7
        u1 = qb.composite_operator("u1", 3)
        u2 = qb.composite_operator("u2", 3)
        c = (2 * np.eye(9) + u1 - u2) / (6 * np.sqrt(2))
        report = qb.verify_witness(c, qb.two_param_qutrit(alpha, beta))
        assert report.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert report.verdict is WitnessVerdict.WITNESS
        expected = (4 * alpha + 2 - 5 * beta) / (6 * np.sqrt(2))
        assert report.ent_expectation == pytest.approx(expected, abs=1e-12)
        assert expected < 0

    def test_seesaw_refutes(self):
        # -|00><00| at d = 3: <rho, A> < 0, but the product |00> reaches -1
        a = -np.diag(np.eye(9)[0])
        report = qb.verify_witness(a, qb.two_param_qutrit(0.6, 0.0))
        assert report.ent_expectation < -TOL_WIT
        assert report.verdict is WitnessVerdict.NOT_WITNESS
        assert report.sep_min_estimate == pytest.approx(-1.0, abs=1e-9)

    def test_seesaw_cannot_certify(self):
        # 1 - s1s1 + s2s2 is >= 0 on products (the qubit lemma with c1 = -1),
        # but its partial transpose has eigenvalue -1, so only the seesaw runs
        a = np.eye(4) - qb.tensor(qb.PAULI[1], qb.PAULI[1]) + qb.tensor(qb.PAULI[2], qb.PAULI[2])
        report = qb.verify_witness(a, qb.two_param_qubit(0.9, 0.0))
        assert report.method is WitnessMethod.SEESAW
        assert report.verdict is WitnessVerdict.INCONCLUSIVE
        assert report.sep_min_estimate > -1e-9

    def test_lemma_form_without_certificate_is_inconclusive(self):
        # A = 1 + s1s1 - s2s2 is >= 0 on products by the qubit lemma, and
        # <phi-|A|phi-> = -1; but lambda_min(A^Gamma) = -1, so no certificate
        # holds and the seesaw leaves the verdict open
        a = np.eye(4) + qb.tensor(qb.PAULI[1], qb.PAULI[1]) - qb.tensor(qb.PAULI[2], qb.PAULI[2])
        phi_m = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
        assert qb.ppt_verdict(a)[1] == pytest.approx(-1.0, abs=1e-12)
        report = qb.verify_witness(a, qb.BipartiteState(np.outer(phi_m, phi_m)))
        assert report.ent_expectation == pytest.approx(-1.0, abs=1e-12)
        assert report.method is WitnessMethod.SEESAW
        assert report.verdict is WitnessVerdict.INCONCLUSIVE
        assert abs(report.sep_min_estimate) <= TOL_WIT

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qb.verify_witness(np.diag([1j, 0, 0, 0]), qb.two_param_qubit(0.9, 0.0))


class TestPartialTransposeCertificate:
    """A^Gamma >= 0 certifies A on every product state; where it fails the
    method falls back to the seesaw, which can still refute."""

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_isotropic_witness_certified(self, d):
        res = qb.hs_measure_isotropic(d, 0.9)
        assert res.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert res.witness.verdict is WitnessVerdict.WITNESS
        assert res.witness.sep_min_estimate == 0.0

    @pytest.mark.parametrize("family,alpha,beta", [("qubit2p", 0.8, 0.1), ("qubit2p", -0.7, -1.5),
                                                   ("qutrit2p", 0.6, 0.0), ("qutrit2p", 0.1, 0.7)])
    def test_region_witnesses_certified(self, family, alpha, beta):
        plane = qb.PLANES[family]
        _, res = qb.hs_measure_plane(plane, alpha, beta)
        assert res.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert res.witness.verdict is WitnessVerdict.WITNESS

    def test_negative_partial_transpose_falls_back_to_seesaw(self):
        a = -qb.tensor(qb.PAULI[3], qb.PAULI[3])
        report = qb.verify_witness(a, qb.two_param_qubit(0.9, 0.0))
        assert report.method is WitnessMethod.SEESAW
        assert report.verdict is WitnessVerdict.NOT_WITNESS
        assert report.sep_min_estimate == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_slightly_negative_partial_transpose_is_not_certified(self, d):
        # A = 1 - (1 + eps)|00><00| is diagonal, so A^Gamma = A, and its least
        # eigenvalue -eps = -1e-6 ||A|| is far below -TOL_WIT ||A||: the
        # certificate must fail, and the product state |00> refutes A
        n = d * d
        eps = 1e-6 * np.sqrt(n - 1)         # ||A|| = sqrt(n - 1 + eps^2)
        a = np.eye(n)
        a[0, 0] = -eps
        assert qb.ppt_verdict(a)[1] == -eps
        assert eps / qb.hs_norm(a) == pytest.approx(1e-6, rel=1e-9)
        report = qb.verify_witness(a, qb.BipartiteState(np.diag(np.eye(n)[0])))
        assert report.ent_expectation == -eps
        assert report.method is WitnessMethod.SEESAW
        assert report.verdict is WitnessVerdict.NOT_WITNESS
        assert report.sep_min_estimate == pytest.approx(-eps, rel=1e-9)

    def test_near_threshold_is_inconclusive(self):
        # D ~ 1e-11 < TOL_WIT: certified, but the expectation decides nothing
        res = qb.hs_measure_isotropic(4, 0.2 + 1e-11)
        assert 0 < res.distance < TOL_WIT
        assert res.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert res.witness.verdict is WitnessVerdict.INCONCLUSIVE

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cached_isotropic_witness(self, d):
        op = qb.hs_measure_isotropic(d, 0.9).witness.operator
        assert not op.flags.writeable
        assert qb.hs_measure_isotropic(d, 0.7).witness.operator.tobytes() == op.tobytes()
        # (1 - d P+)/sqrt(d^2-1): every entry is exactly 0 or +-1/sqrt(d^2-1)
        root = np.sqrt(d * d - 1.0)
        assert set(op.ravel().tolist()) <= {0.0, 1 / root, -1 / root}
        # the paper's GGB, POB and WOB forms of the same operator
        shift = np.sqrt((d - 1.0) / (d + 1.0)) / d * np.eye(d * d)
        for kind, scale in (("lambda", 2 * root), ("t", root), ("u", d * root)):
            form = shift - qb.composite_operator(kind, d) / scale
            assert np.abs(op - form).max() <= 1e-14


def _exact_hermitian_part(a):
    """The Hermitian part of a complex float matrix in ``fractions``, as a real
    symmetric matrix: [[Re, -Im], [Im, Re]] where it has an imaginary entry,
    which is PSD exactly when the Hermitian part is."""
    re = [[(Fraction(a[i, k].real) + Fraction(a[k, i].real)) / 2 for k in range(len(a))]
          for i in range(len(a))]
    im = [[(Fraction(a[i, k].imag) - Fraction(a[k, i].imag)) / 2 for k in range(len(a))]
          for i in range(len(a))]
    if not any(x for row in im for x in row):
        return re
    return ([r + [-x for x in i] for r, i in zip(re, im)]
            + [i + r for r, i in zip(re, im)])


def _proven_positive_definite(m, eps):
    """Whether m + eps 1 has an exact LDL^T with positive pivots only, which
    proves it positive definite; m is a real symmetric list of Fractions."""
    m = [row[:] for row in m]
    for i, row in enumerate(m):
        row[i] += eps
    for k, pivot_row in enumerate(m):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in m[k + 1:]:
            if row[k]:
                ratio = row[k] / pivot
                for j in range(k + 1, len(row)):
                    row[j] -= ratio * pivot_row[j]
    return True


class TestExactPartialTransposeProof:
    """Every closed-form witness A is proven in exact arithmetic, with no
    tolerance: A^Gamma + 2^-50 1 is positive definite. Floats are binary
    rationals, and the partial transpose only moves entries, so its exact
    Hermitian part is that of the float operator."""

    EPS = Fraction(1, 2 ** 50)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_isotropic_witness(self, d):
        m = _exact_hermitian_part(qb.partial_transpose(_isotropic_witness(d)))
        assert _proven_positive_definite(m, self.EPS)
        # A^Gamma = 2 P_antisym / sqrt(d^2 - 1) is singular: no proof without the shift
        assert not _proven_positive_definite(m, Fraction(0))

    @pytest.mark.parametrize("family", ["qubit2p", "qutrit2p"])
    def test_region_ii_witness(self, family):
        a = entanglement._region_witness(qb.PLANES[family], RegionLabel.ENTANGLED_II)
        m = _exact_hermitian_part(qb.partial_transpose(a))
        assert _proven_positive_definite(m, self.EPS)


class TestIsotropicMeasure:
    def test_qubit_value(self):
        res = qb.hs_measure_isotropic(2, 1.0)
        assert res.distance == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS
        assert res.witness.method is WitnessMethod.PARTIAL_TRANSPOSE

    def test_qutrit_value(self):
        res = qb.hs_measure_isotropic(3, 1.0)
        assert res.distance == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS

    def test_boundary_continuity(self):
        for d in (2, 3, 4):
            eps = 1e-9
            res = qb.hs_measure_isotropic(d, 1 / (d + 1) + eps)
            assert res.distance == pytest.approx(0.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            qb.hs_measure_isotropic(3, 0.25)
        with pytest.raises(ValueError):
            qb.hs_measure_isotropic(3, 1.5)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bnt_identities(self, d):
        alpha = 0.9
        res = qb.hs_measure_isotropic(d, alpha)
        rho_ent = qb.isotropic_state(d, alpha)
        # distance against the matrix-norm oracle
        direct = qb.hs_norm(res.nearest_separable.matrix - rho_ent.matrix)
        assert res.distance == pytest.approx(direct, abs=1e-10)
        assert res.max_violation == pytest.approx(res.distance, abs=1e-10)
        a_opt = res.witness.operator
        assert qb.hs_inner(rho_ent.matrix, a_opt).real == pytest.approx(-res.distance, abs=1e-10)
        assert abs(qb.hs_inner(res.nearest_separable.matrix, a_opt).real) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_witness_basis_equivalent_forms(self, d):
        res = qb.hs_measure_isotropic(d, 0.8)
        shift = np.sqrt((d - 1) / (d + 1)) / d * np.eye(d * d)
        lam_form = shift - qb.composite_operator("lambda", d) / (2 * np.sqrt(d * d - 1))
        t_form = shift - qb.composite_operator("t", d) / np.sqrt(d * d - 1)
        u_form = shift - qb.composite_operator("u", d) / (d * np.sqrt(d * d - 1))
        for form in (lam_form, t_form, u_form):
            assert np.abs(res.witness.operator - form).max() <= 1e-10


class TestQubitPlane:
    def test_classification_points(self):
        assert qb.classify_qubit_plane(1.0, 0.0) is RegionLabel.ENTANGLED_I
        assert qb.classify_qubit_plane(0.0, 0.0) is RegionLabel.SEPARABLE
        assert qb.classify_qubit_plane(-0.7, -1.5) is RegionLabel.ENTANGLED_II
        # fails positivity (alpha < beta/3 - 1/3), PPT constraints notwithstanding
        assert qb.classify_qubit_plane(-0.9, 0.0) is RegionLabel.UNPHYSICAL
        assert qb.classify_qubit_plane(2.0, 0.0) is RegionLabel.UNPHYSICAL

    def test_boundary_assigned_separable(self):
        beta = 0.2
        assert qb.classify_qubit_plane(beta / 3 + 1 / 3, beta) is RegionLabel.SEPARABLE

    def test_measure_at_bell_point(self):
        label, res = qb.hs_measure_plane(qb.QUBIT_PLANE, 1.0, 0.0)
        assert label is RegionLabel.ENTANGLED_I
        assert res.distance == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        iso = qb.hs_measure_isotropic(2, 1.0)
        assert res.distance == pytest.approx(iso.distance, abs=1e-14)

    def test_separable_point_has_no_measure(self):
        label, res = qb.hs_measure_plane(qb.QUBIT_PLANE, 0.0, 0.0)
        assert label is RegionLabel.SEPARABLE and res is None

    @pytest.mark.parametrize("alpha,beta", QUBIT_REGION_I)
    def test_region_i_closed_form(self, alpha, beta):
        label, res = qb.hs_measure_plane(qb.QUBIT_PLANE, alpha, beta)
        assert label is RegionLabel.ENTANGLED_I
        assert res.distance == pytest.approx(qubit_region_i_distance(alpha, beta), abs=1e-12)
        direct = qb.hs_norm(res.nearest_separable.matrix - qb.two_param_qubit(alpha, beta).matrix)
        assert res.distance == pytest.approx(direct, abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS

    @pytest.mark.parametrize("alpha,beta", QUBIT_REGION_II)
    def test_region_ii_closed_form(self, alpha, beta):
        label, res = qb.hs_measure_plane(qb.QUBIT_PLANE, alpha, beta)
        assert label is RegionLabel.ENTANGLED_II
        assert res.distance == pytest.approx(qubit_region_ii_distance(alpha, beta), abs=1e-12)
        direct = qb.hs_norm(res.nearest_separable.matrix - qb.two_param_qubit(alpha, beta).matrix)
        assert res.distance == pytest.approx(direct, abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS
        assert abs(qb.hs_inner(res.nearest_separable.matrix, res.witness.operator).real) < 1e-12

    def test_region_consistency_with_ppt(self):
        for alpha in np.linspace(-1.1, 1.1, 23):
            for beta in np.linspace(-2.1, 1.1, 33):
                label = qb.classify_qubit_plane(alpha, beta)
                if label is RegionLabel.UNPHYSICAL:
                    continue
                is_ppt, _ = qb.ppt_verdict(qb.two_param_qubit(alpha, beta, checked=False))
                if label is RegionLabel.SEPARABLE:
                    assert is_ppt, (alpha, beta)
                else:
                    assert not is_ppt, (alpha, beta, label)


class TestQutritPlane:
    def test_classification_points(self):
        assert qb.classify_qutrit_plane(1.0, 0.0) is RegionLabel.ENTANGLED_I
        assert qb.classify_qutrit_plane(0.0, 0.0) is RegionLabel.SEPARABLE
        assert qb.classify_qutrit_plane(0.1, 0.7) is RegionLabel.ENTANGLED_II
        # alpha < beta/8 - 1/8: fails positivity outright
        assert qb.classify_qutrit_plane(-0.4, 0.9) is RegionLabel.UNPHYSICAL

    def test_measure_at_bell_point(self):
        label, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, 1.0, 0.0)
        assert label is RegionLabel.ENTANGLED_I
        assert res.distance == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", QUTRIT_REGION_I)
    def test_region_i_closed_form(self, alpha, beta):
        label, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, alpha, beta)
        assert label is RegionLabel.ENTANGLED_I
        assert res.distance == pytest.approx(qutrit_region_i_distance(alpha, beta), abs=1e-12)
        direct = qb.hs_norm(res.nearest_separable.matrix - qb.two_param_qutrit(alpha, beta).matrix)
        assert res.distance == pytest.approx(direct, abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS

    @pytest.mark.parametrize("alpha,beta", QUTRIT_REGION_II)
    def test_region_ii_closed_form(self, alpha, beta):
        label, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, alpha, beta)
        assert label is RegionLabel.ENTANGLED_II
        assert res.distance == pytest.approx(qutrit_region_ii_distance(alpha, beta), abs=1e-12)
        direct = qb.hs_norm(res.nearest_separable.matrix - qb.two_param_qutrit(alpha, beta).matrix)
        assert res.distance == pytest.approx(direct, abs=1e-12)
        assert res.witness.verdict is WitnessVerdict.WITNESS
        assert abs(qb.hs_inner(res.nearest_separable.matrix, res.witness.operator).real) < 1e-12

    def test_nearest_separable_is_ppt(self):
        for alpha, beta in QUTRIT_REGION_I + QUTRIT_REGION_II:
            _, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, alpha, beta)
            is_ppt, _ = qb.ppt_verdict(res.nearest_separable)
            assert is_ppt

    def test_region_consistency_with_ppt(self):
        for alpha in np.linspace(-0.3, 1.05, 19):
            for beta in np.linspace(-0.5, 1.05, 23):
                label = qb.classify_qutrit_plane(alpha, beta)
                if label is RegionLabel.UNPHYSICAL:
                    continue
                is_ppt, _ = qb.ppt_verdict(qb.two_param_qutrit(alpha, beta, checked=False))
                if label is RegionLabel.SEPARABLE:
                    assert is_ppt, (alpha, beta)
                else:
                    assert not is_ppt, (alpha, beta, label)


class TestSeparableExpectationLemmas:
    def test_lemma_qubit_monte_carlo_small(self, rng):
        sigma_ops = [qb.tensor(qb.PAULI[i], qb.PAULI[i]) for i in (1, 2, 3)]
        worst = np.inf
        for seed in range(1000):
            rho = qb.sample_separable(2, seed=seed, mixture_count=1 + seed % 6)
            t = [qb.hs_inner(op, rho.matrix).real for op in sigma_ops]
            for _ in range(10):
                a = rng.uniform(0.05, 2.0)
                c1, c2 = rng.uniform(-1, 1, size=2)
                worst = min(worst, a * (1 + c1 * (t[0] - t[1]) + c2 * t[2]))
        assert worst >= -1e-12

    def test_lemma_qutrit_monte_carlo_small(self, rng):
        u1 = qb.composite_operator("u1", 3)
        u2 = qb.composite_operator("u2", 3)
        worst = np.inf
        for seed in range(1000):
            rho = qb.sample_separable(3, seed=seed, mixture_count=1 + seed % 6)
            t1 = qb.hs_inner(u1, rho.matrix).real
            t2 = qb.hs_inner(u2, rho.matrix).real
            for _ in range(10):
                a = rng.uniform(0.05, 2.0)
                c1, c2 = rng.uniform(-1, 1, size=2)
                worst = min(worst, a * (2 + c1 * t1 + c2 * t2))
        assert worst >= -1e-12


class TestVerdictNearZero:
    """An expectation within TOL_WIT of 0 is Inconclusive, even where the
    partial transpose certifies the operator; just beyond TOL_WIT the
    certificate makes it a Witness."""

    # (alpha, beta) on the Region I line alpha = beta/3 + 1/3 and on the
    # Region II line alpha = -beta - 1 (which meets the triangle for beta in
    # [-1, -0.5]), with the direction into the region
    LINES = {"I": (0.23333333333333334, -0.3, 1.0), "II": (0.0, -1.0, -1.0)}

    @pytest.mark.parametrize("region", sorted(LINES))
    def test_lemma_path(self, region):
        alpha, beta, into = self.LINES[region]
        label, near = qb.hs_measure_plane(qb.QUBIT_PLANE, alpha + into * 1e-11, beta)
        assert label.value == "EntangledRegion" + region
        assert 0 < near.distance < TOL_WIT
        assert near.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert near.witness.verdict is WitnessVerdict.INCONCLUSIVE
        _, far = qb.hs_measure_plane(qb.QUBIT_PLANE, alpha + into * 1e-6, beta)
        assert far.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
        assert far.witness.verdict is WitnessVerdict.WITNESS

    def test_seesaw_path(self):
        # A = |phi+><phi+| >= 0 keeps products >= 0, but its partial transpose
        # (the swap over 2) is not PSD; <phi-|A|phi-> = 0 exactly
        a = 0.5 * np.array([[1.0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
        rho = qb.BipartiteState(
            0.5 * np.array([[1.0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]]))
        report = qb.verify_witness(a, rho)
        assert report.method is WitnessMethod.SEESAW
        assert report.ent_expectation == 0.0
        assert report.sep_min_estimate > -TOL_WIT
        assert report.verdict is WitnessVerdict.INCONCLUSIVE

    def test_cli_measure(self, capsys):
        base = ["measure", "--family", "qubit2p", "--beta", "-0.3", "--alpha"]
        verdicts = []
        for alpha in ("0.23333333334333334", "0.23333433333333334"):
            assert cli_main(base + [alpha]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["witness"]["verdict"])
        assert verdicts == ["Inconclusive", "Witness"]


class TestRegionWitnessNearLines:
    """Points 1e-11, 1e-9 and 1e-6 into each entangled region, along the
    whole of its line inside the triangle, get the region's one witness
    operator, certified by its partial transpose: no verdict is NotWitness
    and none raises, though D there is close to 0."""

    # beta range of each region line inside the triangle, and the direction
    # of alpha into the region
    SEGMENTS = {("qubit2p", "I"): (-1.0, 0.5, 1.0), ("qubit2p", "II"): (-1.0, -0.5, -1.0),
                ("qutrit2p", "I"): (-2 / 9, 2 / 3, 1.0), ("qutrit2p", "II"): (1 / 3, 2 / 3, -1.0)}

    @pytest.mark.parametrize("family,region", sorted(SEGMENTS))
    def test_one_lemma_witness_along_the_line(self, family, region):
        plane = qb.PLANES[family]
        lo, hi, into = self.SEGMENTS[family, region]
        line = plane.line_i if region == "I" else plane.line_ii
        witnesses = []
        for beta in np.linspace(lo, hi, 11)[1:-1]:
            for offset in (1e-11, 1e-9, 1e-6):
                label, res = qb.hs_measure_plane(plane, line(beta) + into * offset, beta)
                assert label.value == "EntangledRegion" + region
                assert res.witness.method is WitnessMethod.PARTIAL_TRANSPOSE
                assert res.witness.verdict is not WitnessVerdict.NOT_WITNESS
                witnesses.append(res.witness.operator.tobytes())
        assert set(witnesses) == {witnesses[0]}


class TestClosedFormRegionWitness:
    """Each entangled plane region's witness is a closed form: Region I's is
    the isotropic witness of the plane's dimension, Region II's one row of
    weights on the plane operators (1, P, Q + R)."""

    WEIGHTS_II = {"qubit2p": tuple(w / np.sqrt(3) for w in (-1, 2, 2)),
                  "qutrit2p": tuple(w / (2 * np.sqrt(2)) for w in (1, 1, -2))}
    POINTS = {("qubit2p", "I"): (0.8, 0.1), ("qubit2p", "II"): (-0.7, -1.5),
              ("qutrit2p", "I"): (0.6, 0.0), ("qutrit2p", "II"): (0.1, 0.7)}

    @pytest.mark.parametrize("family", ["qubit2p", "qutrit2p"])
    def test_region_i_is_the_isotropic_witness(self, family):
        plane = qb.PLANES[family]
        _, res = qb.hs_measure_plane(plane, *self.POINTS[family, "I"])
        assert res.witness.operator.tobytes() == _isotropic_witness(plane.subdim).tobytes()

    @pytest.mark.parametrize("alpha", [0.35, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("family", ["qubit2p", "qutrit2p"])
    def test_region_i_at_beta_zero_is_the_isotropic_measure(self, family, alpha):
        plane = qb.PLANES[family]
        label, res = qb.hs_measure_plane(plane, alpha, 0.0)
        iso = qb.hs_measure_isotropic(plane.subdim, alpha)
        assert label is RegionLabel.ENTANGLED_I
        assert res.distance.hex() == iso.distance.hex()
        assert res.nearest_separable.matrix.tobytes() == iso.nearest_separable.matrix.tobytes()
        assert res.witness.operator.tobytes() == iso.witness.operator.tobytes()
        assert res.max_violation.hex() == iso.max_violation.hex()

    @pytest.mark.parametrize("family", ["qubit2p", "qutrit2p"])
    def test_region_ii_is_its_weight_row(self, family):
        plane = qb.PLANES[family]
        weights = self.WEIGHTS_II[family]
        assert plane.witness_ii == weights
        row = sum(w * op for w, op in zip(weights, plane.operators()))
        _, res = qb.hs_measure_plane(plane, *self.POINTS[family, "II"])
        assert not res.witness.operator.flags.writeable
        assert res.witness.operator.tobytes() == row.tobytes()

    @pytest.mark.parametrize("family,region", [("isotropic", None), *POINTS])
    def test_measure_keeps_no_witness_alive(self, family, region):
        # the witness is built on each call, so it goes with the result
        if family == "isotropic":
            res = qb.hs_measure_isotropic(5, 0.9)
        else:
            res = qb.hs_measure_plane(qb.PLANES[family], *self.POINTS[family, region])[1]
        ref = weakref.ref(res.witness.operator)
        del res
        gc.collect()
        assert ref() is None

    def test_measures_call_no_composite_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("composite_operator called")

        for module in (qb, qb.states, entanglement):
            monkeypatch.setattr(module, "composite_operator", refuse, raising=False)
        res = qb.hs_measure_isotropic(5, 0.9)
        assert res.witness.verdict is WitnessVerdict.WITNESS
        for family in ("qubit2p", "qutrit2p"):
            label, res = qb.hs_measure_plane(qb.PLANES[family], *self.POINTS[family, "I"])
            assert label is RegionLabel.ENTANGLED_I
            assert res.witness.verdict is WitnessVerdict.WITNESS
            assert res.max_violation == pytest.approx(res.distance, abs=1e-15)

    def test_measure_builds_no_candidate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("witness_candidate called")

        monkeypatch.setattr(entanglement, "witness_candidate", refuse)
        for (family, region), point in self.POINTS.items():
            label, res = qb.hs_measure_plane(qb.PLANES[family], *point)
            assert label.value == "EntangledRegion" + region
            assert res.witness.verdict is WitnessVerdict.WITNESS
            assert res.max_violation == pytest.approx(res.distance, abs=1e-15)
