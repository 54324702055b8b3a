import numpy as np
import pytest

import quditbloch as qb
from quditbloch.bases import BasisKind

from reference_matrices import PRINTED

KINDS = ["ggb", "pob", "wob"]


def gram(basis):
    stack = basis.stacked
    return np.einsum("iab,jab->ij", stack.conj(), stack)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(2, 6))
class TestBasisStructure:
    def test_counts_and_identity_element(self, kind, d):
        basis = qb.get_basis(kind, d)
        assert len(basis) == d * d
        first = np.eye(d) / np.sqrt(d) if kind == "pob" else np.eye(d)
        assert np.abs(basis.elements[0] - first).max() < 1e-15

    def test_tracelessness(self, kind, d):
        basis = qb.get_basis(kind, d)
        for el in basis.elements[1:]:
            assert abs(np.trace(el)) < 1e-12

    def test_orthogonality(self, kind, d):
        basis = qb.get_basis(kind, d)
        g = gram(basis)
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() < 1e-12
        diag = np.diag(g).real
        assert np.abs(diag[1:] - basis.ortho_const).max() < 1e-12

    def test_completeness(self, kind, d, rng):
        basis = qb.get_basis(kind, d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeff = qb.expand_matrix(basis, m)
        rebuilt = np.einsum("k,kab->ab", coeff, basis.stacked)
        assert np.abs(rebuilt - m).max() < 1e-10


class TestBasisFamilies:
    @pytest.mark.parametrize("d", range(2, 6))
    def test_ggb_hermitian(self, d):
        for el in qb.ggb_basis(d).elements:
            assert np.abs(el - el.conj().T).max() < 1e-15

    @pytest.mark.parametrize("d", range(2, 6))
    def test_wob_unitary(self, d):
        for el in qb.wob_basis(d).elements:
            assert np.abs(el @ el.conj().T - np.eye(d)).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    def test_pob_dagger_relation(self, d):
        basis = qb.pob_basis(d)
        for (L, M) in basis.labels:
            el = basis.element((L, M))
            other = basis.element((L, -M))
            assert np.abs(el.conj().T - (-1) ** M * other).max() < 1e-12

    def test_ggb_counts(self):
        basis = qb.ggb_basis(5)
        tags = [lab[0] for lab in basis.labels]
        assert tags.count("s") == 10 and tags.count("a") == 10 and tags.count("l") == 4

    def test_label_order_d3(self):
        assert qb.ggb_basis(3).labels == (
            ("I",), ("s", 1, 2), ("s", 1, 3), ("s", 2, 3),
            ("a", 1, 2), ("a", 1, 3), ("a", 2, 3), ("l", 1), ("l", 2))
        assert qb.pob_basis(2).labels == ((0, 0), (1, -1), (1, 0), (1, 1))
        assert qb.wob_basis(2).labels == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_dimension_domain_error(self):
        for kind in KINDS:
            with pytest.raises(ValueError):
                qb.get_basis(kind, 1)

    def test_memoized_and_immutable(self):
        b1 = qb.ggb_basis(4)
        b2 = qb.get_basis(BasisKind.GGB, 4)
        assert b1 is b2
        with pytest.raises(ValueError):
            b1.elements[1][0, 0] = 5

    def test_unknown_label(self):
        with pytest.raises(KeyError, match=r"no element labelled \('x', 1, 2\) in ggb d=3"):
            qb.ggb_basis(3).element(("x", 1, 2))


@pytest.mark.parametrize("kind,d", sorted(PRINTED))
def test_printed_matrices(kind, d):
    basis = qb.get_basis(kind, d)
    for label, expected in PRINTED[(kind, d)].items():
        got = basis.element(label)
        assert np.abs(got - np.asarray(expected, dtype=complex)).max() <= 1e-12, (kind, d, label)


class TestQubitBasisEquivalences:
    def test_wob_is_pauli_like(self):
        basis = qb.wob_basis(2)
        expected = {
            (0, 0): np.eye(2),
            (0, 1): qb.PAULI[1],
            (1, 0): qb.PAULI[3],
            (1, 1): 1j * qb.PAULI[2],
        }
        for lab, m in expected.items():
            assert np.abs(basis.element(lab) - m).max() < 1e-12

    def test_ggb_is_pauli(self):
        basis = qb.ggb_basis(2)
        for lab, m in [(("s", 1, 2), qb.PAULI[1]), (("a", 1, 2), qb.PAULI[2]), (("l", 1), qb.PAULI[3])]:
            assert np.abs(basis.element(lab) - m).max() < 1e-15

    def test_pob_is_rotated_pauli(self):
        basis = qb.pob_basis(2)
        sp = (qb.PAULI[1] + 1j * qb.PAULI[2]) / 2
        sm = (qb.PAULI[1] - 1j * qb.PAULI[2]) / 2
        expected = {
            (0, 0): np.eye(2) / np.sqrt(2),
            (1, 1): -sp,
            (1, 0): qb.PAULI[3] / np.sqrt(2),
            (1, -1): sm,
        }
        for lab, m in expected.items():
            assert np.abs(basis.element(lab) - m).max() < 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_roots_of_unity_sum(d):
    for x in range(-3 * d, 3 * d + 1):
        total = sum(np.exp(2j * np.pi * n * x / d) for n in range(d))
        expected = d if x % d == 0 else 0.0
        assert abs(total - expected) < 1e-11


class TestWeylProduct:
    def test_identity(self):
        phase, idx = qb.weyl_product(4, (0, 0), (2, 3))
        assert phase == pytest.approx(1.0) and idx == (2, 3)

    def test_example_d3(self):
        # U_10 U_01: matrix-multiplication oracle
        basis = qb.wob_basis(3)
        prod = basis.element((1, 0)) @ basis.element((0, 1))
        phase, idx = qb.weyl_product(3, (1, 0), (0, 1))
        assert idx == (1, 1)
        assert phase == pytest.approx(1.0, abs=1e-14)
        assert np.abs(prod - phase * basis.element(idx)).max() < 1e-14

    def test_dagger_relation_example(self):
        # U_nm^dag = exp(2 pi i n m / d) U_{-n,-m} for d=3, (n,m) = (1,2)
        basis = qb.wob_basis(3)
        lhs = basis.element((1, 2)).conj().T
        phase = np.exp(4j * np.pi / 3)
        assert np.abs(lhs - phase * basis.element((2, 1))).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_consistency_with_matrices(self, d):
        basis = qb.wob_basis(d)
        for nm in basis.labels:
            for lk in basis.labels:
                phase, idx = qb.weyl_product(d, nm, lk)
                prod = basis.element(nm) @ basis.element(lk)
                assert np.abs(prod - phase * basis.element(idx)).max() < 1e-12

    def test_range_error(self):
        with pytest.raises(ValueError):
            qb.weyl_product(3, (3, 0), (0, 0))

    @pytest.mark.parametrize("nm,lk", [((0.5, 0), (1, 1.5)), ((1.0, 0), (0, 1)),
                                       ((0, 0), (np.float64(2), 0)), ((0, 1), (1, 1 + 0j)),
                                       ((True, 0), (0, 1))])
    def test_non_integer_indices_raise(self, nm, lk):
        with pytest.raises(ValueError, match="Weyl indices must be integers"):
            qb.weyl_product(3, nm, lk)

    @pytest.mark.parametrize("nm,lk", [((3, 0), (0, 0)), ((0, -1), (0, 0)),
                                       ((0, 0), (np.int64(3), 0)), ((0, 0), (1, 7))])
    def test_out_of_range_indices_raise(self, nm, lk):
        with pytest.raises(ValueError, match=r"integers in 0\.\.2"):
            qb.weyl_product(3, nm, lk)

    def test_numpy_integer_indices_are_accepted(self):
        phase, idx = qb.weyl_product(3, (np.int64(1), np.int32(2)), (np.int8(2), np.uint8(2)))
        assert (phase, idx) == qb.weyl_product(3, (1, 2), (2, 2))
        assert all(type(x) is int for x in idx)
