import numpy as np
import pytest

import quditbloch as qb


def standard_matrix(d, j, k):
    """|j><k| with 1-based indices."""
    m = np.zeros((d, d), dtype=complex)
    m[j - 1, k - 1] = 1
    return m


@pytest.mark.parametrize("d", range(2, 7))
def test_reconstruction_all_pairs(d):
    ggb, pob, wob = qb.ggb_basis(d), qb.pob_basis(d), qb.wob_basis(d)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            target = standard_matrix(d, j, k)
            for basis, coeffs in [
                (ggb, qb.expand_standard_ggb(d, j, k)),
                (pob, qb.expand_standard_pob(d, j, k)),
                (wob, qb.expand_standard_wob(d, j - 1, k - 1)),
            ]:
                got = qb.reconstruct(basis, coeffs)
                assert np.abs(got - target).max() <= 1e-12, (basis.kind, d, j, k)


class TestGGBExpansion:
    def test_offdiagonal_map(self):
        coeffs = qb.expand_standard_ggb(3, 1, 2)
        assert coeffs == {("s", 1, 2): 0.5, ("a", 1, 2): 0.5j}
        coeffs = qb.expand_standard_ggb(3, 2, 1)
        assert coeffs == {("s", 1, 2): 0.5, ("a", 1, 2): -0.5j}

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_last_diagonal_map(self, d):
        # |d><d| = (1/d)(identity - sqrt(d(d-1)/2) * last diagonal element)
        coeffs = qb.expand_standard_ggb(d, d, d)
        assert set(coeffs) == {("I",), ("l", d - 1)}
        assert coeffs[("I",)] == pytest.approx(1 / d)
        assert coeffs[("l", d - 1)] == pytest.approx(-np.sqrt(d * (d - 1) / 2) / d)

    def test_diagonal_reconstruction_d4(self):
        got = qb.reconstruct(qb.ggb_basis(4), qb.expand_standard_ggb(4, 2, 2))
        assert np.abs(got - np.diag([0, 1, 0, 0])).max() < 1e-14

    def test_range_errors(self):
        with pytest.raises(ValueError):
            qb.expand_standard_ggb(3, 0, 1)
        with pytest.raises(ValueError):
            qb.expand_standard_ggb(3, 1, 4)


class TestPOBExpansion:
    def test_qubit_projector(self):
        got = qb.reconstruct(qb.pob_basis(2), qb.expand_standard_pob(2, 1, 1))
        assert np.abs(got - np.diag([1, 0])).max() < 1e-14

    def test_corner_is_single_term(self):
        # |1><3| in d=3 touches only T_22
        coeffs = qb.expand_standard_pob(3, 1, 3)
        assert list(coeffs) == [(2, 2)]
        assert coeffs[(2, 2)] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_m_selection_rule(self, d):
        s = (d - 1) / 2
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                m_fixed = round((s - (i - 1)) - (s - (j - 1)))
                for (L, M) in qb.expand_standard_pob(d, i, j):
                    assert M == m_fixed

    def test_range_errors(self):
        with pytest.raises(ValueError):
            qb.expand_standard_pob(3, 1, 0)


class TestWOBExpansion:
    def test_qubit_projector_map(self):
        coeffs = qb.expand_standard_wob(2, 0, 0)
        assert coeffs[(0, 0)] == pytest.approx(0.5)
        assert coeffs[(1, 0)] == pytest.approx(0.5)
        assert len(coeffs) == 2

    def test_qutrit_offdiagonal_map(self):
        coeffs = qb.expand_standard_wob(3, 0, 1)
        assert set(coeffs) == {(0, 1), (1, 1), (2, 1)}
        for v in coeffs.values():
            assert v == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_coefficient_moduli(self, d):
        for j in range(d):
            for k in range(d):
                coeffs = qb.expand_standard_wob(d, j, k)
                assert len(coeffs) == d
                for v in coeffs.values():
                    assert abs(abs(v) - 1 / d) < 1e-15

    def test_range_errors(self):
        with pytest.raises(ValueError):
            qb.expand_standard_wob(3, -1, 0)
        with pytest.raises(ValueError):
            qb.expand_standard_wob(3, 0, 3)


@pytest.mark.parametrize("expand,j,k", [
    (qb.expand_standard_ggb, 1.5, 2),
    (qb.expand_standard_ggb, 2, 2.0),
    (qb.expand_standard_pob, 2.0, 2.0),
    (qb.expand_standard_pob, 1, 2.5),
    (qb.expand_standard_wob, 0.5, 1),
    (qb.expand_standard_wob, 0, 1.0),
    (qb.expand_standard_wob, np.float64(1), 0),
])
def test_non_integer_indices_raise(expand, j, k):
    with pytest.raises(ValueError, match="integers"):
        expand(3, j, k)


@pytest.mark.parametrize("kind,expand,first", [
    ("ggb", qb.expand_standard_ggb, 1),
    ("pob", qb.expand_standard_pob, 1),
    ("wob", qb.expand_standard_wob, 0),
])
def test_numpy_integer_indices_are_accepted(kind, expand, first):
    j, k = np.int64(first), np.int64(first + 1)
    coeffs = expand(3, j, k)
    assert coeffs == expand(3, int(j), int(k))
    want = np.zeros((3, 3))
    want[0, 1] = 1
    assert np.abs(qb.reconstruct(qb.get_basis(kind, 3), coeffs) - want).max() < 1e-14
