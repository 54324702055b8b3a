import numpy as np
import pytest

import quditbloch as qb
from quditbloch import Convention

KINDS = ["ggb", "pob", "wob"]


@pytest.mark.parametrize("kind", KINDS)
class TestEncode:
    def test_maximally_mixed_is_zero(self, kind):
        for d in (2, 3, 4):
            vec = qb.bloch_encode(np.eye(d) / d, kind)
            assert np.abs(vec.components).max() < 1e-15
            assert vec.radius == pytest.approx(0.0, abs=1e-15)

    def test_pure_state_saturates_radius(self, kind, rng):
        for d in (2, 3, 5):
            ket = qb.random_ket(d, rng)
            vec = qb.bloch_encode(np.outer(ket, ket.conj()), kind)
            assert vec.radius == pytest.approx(qb.radius_bound(kind, d), abs=1e-12)

    def test_mixed_states_inside(self, kind, rng):
        for _ in range(20):
            rho = qb.random_density_matrix(3, rng)
            vec = qb.bloch_encode(rho, kind)
            assert vec.radius < qb.radius_bound(kind, 3) - 1e-6

    def test_round_trip(self, kind, rng):
        for d in (2, 3, 4, 5):
            for _ in range(30):
                rho = qb.random_density_matrix(d, rng)
                dec = qb.bloch_decode(qb.bloch_encode(rho, kind))
                assert qb.hs_norm(dec.matrix - rho.matrix) <= 1e-10
                assert dec.is_physical

    def test_purity_identity(self, kind, rng):
        for d in (2, 3, 4):
            n = qb.get_basis(kind, d).ortho_const
            for _ in range(20):
                rho = qb.random_density_matrix(d, rng)
                vec = qb.bloch_encode(rho, kind)
                assert qb.purity(rho) == pytest.approx(1 / d + n * vec.radius ** 2, abs=1e-10)


def test_pure_qutrit_projector_in_ggb():
    # |1><1| touches only diagonal labels; coefficients from the expansion map
    vec = qb.bloch_encode(np.diag([1.0, 0, 0]), "ggb")
    comp = dict(zip(vec.labels, vec.components))
    expected = qb.expand_standard_ggb(3, 1, 1)
    for lab, v in comp.items():
        want = expected.get(lab, 0.0)
        assert v == pytest.approx(want, abs=1e-14), lab
        if lab[0] in ("s", "a"):
            assert abs(v) < 1e-15


class TestConventions:
    def test_ggb_expectation_real_and_scaled(self, rng):
        rho = qb.random_density_matrix(3, rng)
        ev = qb.bloch_encode(rho, "ggb", Convention.EXPECTATION)
        ec = qb.bloch_encode(rho, "ggb", Convention.EXPANSION)
        assert np.abs(ev.components.imag).max() < 1e-12
        assert np.abs(ev.components - 2 * ec.components).max() < 1e-14

    def test_pob_conventions_coincide(self, rng):
        rho = qb.random_density_matrix(4, rng)
        ev = qb.bloch_encode(rho, "pob", Convention.EXPECTATION)
        ec = qb.bloch_encode(rho, "pob", Convention.EXPANSION)
        assert np.abs(ev.components - ec.components).max() < 1e-14

    def test_wob_dagger_bookkeeping(self, rng):
        rho = qb.random_density_matrix(4, rng)
        ev = qb.bloch_encode(rho, "wob", Convention.EXPECTATION)
        ec = qb.bloch_encode(rho, "wob", Convention.EXPANSION)
        assert np.abs(ev.components - 4 * np.conj(ec.components)).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_wob_conjugacy_relation(self, d, rng):
        rho = qb.random_density_matrix(d, rng)
        ev = qb.bloch_encode(rho, "wob", Convention.EXPECTATION)
        comp = dict(zip(ev.labels, ev.components))
        comp[(0, 0)] = 1.0 + 0j      # Tr(U_00 rho)
        for (n, m), v in comp.items():
            partner = comp[((-n) % d, (-m) % d)]
            assert np.conj(v) == pytest.approx(np.exp(2j * np.pi * n * m / d) * partner,
                                               abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_decode_accepts_both_conventions(self, kind, rng):
        rho = qb.random_density_matrix(3, rng)
        for conv in Convention:
            dec = qb.bloch_decode(qb.bloch_encode(rho, kind, conv))
            assert qb.hs_norm(dec.matrix - rho.matrix) <= 1e-10


class TestDecode:
    def test_zero_vector(self):
        vec = qb.BlochVector(qb.BasisKind.GGB, 3, Convention.EXPANSION,
                             np.zeros(8), qb.ggb_basis(3).labels[1:])
        dec = qb.bloch_decode(vec)
        assert np.abs(dec.matrix - np.eye(3) / 3).max() < 1e-15
        assert dec.is_physical

    def test_qubit_sphere_surface(self):
        vec = qb.BlochVector(qb.BasisKind.GGB, 2, Convention.EXPANSION,
                             np.array([0.5, 0, 0]), qb.ggb_basis(2).labels[1:])
        dec = qb.bloch_decode(vec)
        assert np.abs(dec.matrix - (np.eye(2) + qb.PAULI[1]) / 2).max() < 1e-15
        assert dec.is_physical
        assert qb.purity(dec.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_nonphysical_direction_flagged(self):
        # radius-saturating vector along the first diagonal label:
        # eigenvalues 1/3 +- sqrt(1/3) and 1/3, one negative
        labels = qb.ggb_basis(3).labels[1:]
        comp = np.zeros(8)
        comp[labels.index(("l", 1))] = np.sqrt(1 / 3)
        dec = qb.bloch_decode(qb.BlochVector(qb.BasisKind.GGB, 3, Convention.EXPANSION, comp, labels))
        assert not dec.is_physical
        assert np.linalg.eigvalsh(dec.matrix)[0] == pytest.approx(1 / 3 - np.sqrt(1 / 3), abs=1e-12)
        assert np.trace(dec.matrix) == pytest.approx(1.0, abs=1e-14)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            qb.BlochVector(qb.BasisKind.GGB, 3, Convention.EXPANSION,
                           np.zeros(7), qb.ggb_basis(3).labels[1:8])


class TestPurity:
    def test_extremes(self, rng):
        assert qb.purity(np.eye(5) / 5) == pytest.approx(0.2, abs=1e-15)
        ket = qb.random_ket(4, rng)
        assert qb.purity(np.outer(ket, ket.conj())) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_isotropic_closed_form(self, d):
        for alpha in (-1 / (d * d - 1), 0.0, 0.25, 0.8, 1.0):
            rho = qb.isotropic_state(d, alpha)
            brute = np.trace(rho.matrix @ rho.matrix).real
            closed = 1 / d ** 2 + alpha ** 2 * (d * d - 1) / d ** 2
            assert brute == pytest.approx(closed, abs=1e-12)
            assert qb.purity(rho) == pytest.approx(closed, abs=1e-12)


class TestBipartiteDecompose:
    @pytest.mark.parametrize("kind", KINDS)
    def test_product_state_factorizes(self, kind, rng):
        ra = qb.random_density_matrix(3, rng)
        rb = qb.random_density_matrix(3, rng)
        dec = qb.bipartite_decompose(qb.tensor(ra.matrix, rb.matrix), kind, subdim=3)
        assert np.abs(dec.local_a - qb.bloch_encode(ra, kind).components).max() < 1e-12
        assert np.abs(dec.local_b - qb.bloch_encode(rb, kind).components).max() < 1e-12
        outer = np.outer(dec.local_a, dec.local_b)
        assert np.abs(dec.correlation - outer).max() < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_isotropic_locals_vanish(self, kind):
        dec = qb.bipartite_decompose(qb.isotropic_state(3, 0.7), kind)
        assert np.abs(dec.local_a).max() < 1e-13
        assert np.abs(dec.local_b).max() < 1e-13

    def test_isotropic_wob_correlation_pairs(self):
        d, alpha = 3, 0.6
        dec = qb.bipartite_decompose(qb.isotropic_state(d, alpha), "wob")
        labels = qb.wob_basis(d).labels[1:]
        for i, (l, m) in enumerate(labels):
            for j, (l2, m2) in enumerate(labels):
                expected = alpha / d ** 2 if (l2, m2) == ((-l) % d, m) else 0.0
                assert dec.correlation[i, j] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reconstruction(self, kind, rng):
        for d in (2, 3):
            rho = qb.random_density_matrix(d * d, rng)
            dec = qb.bipartite_decompose(rho.matrix, kind, subdim=d)
            assert np.abs(dec.reconstruct() - rho.matrix).max() < 1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError):
            qb.bipartite_decompose(np.eye(6) / 6, "ggb")

    def test_subdim_must_match(self):
        with pytest.raises(ValueError, match="subdim 2 does not match a matrix of dimension 9"):
            qb.bipartite_decompose(qb.isotropic_state(3, 0.7), "ggb", subdim=2)


def _dense_decompose(mat, kind, d):
    """Reference: the partial-trace and three-operand einsum formulas."""
    basis = qb.get_basis(kind, d)
    stack, n = basis.stacked[1:], basis.ortho_const
    local_a = qb.bloch_encode(qb.partial_trace(mat, "B"), kind).components
    local_b = qb.bloch_encode(qb.partial_trace(mat, "A"), kind).components
    r = mat.reshape(d, d, d, d)
    corr = np.einsum("iab,jce,acbe->ij", stack.conj(), stack.conj(), r) / (n * n)
    return local_a, local_b, corr


def _dense_reconstruct(dec):
    """Reference: the four outer-product einsums of the expansion."""
    d = dec.dim
    stack = qb.get_basis(dec.kind, d).stacked[1:]
    eye = np.eye(d, dtype=complex)
    locs_a = np.einsum("i,iab->ab", dec.local_a, stack)
    locs_b = np.einsum("j,jce->ce", dec.local_b, stack)
    out = np.einsum("ab,ce->acbe", eye / (d * d), eye)
    out += np.einsum("ab,ce->acbe", locs_a / d, eye)
    out += np.einsum("ab,ce->acbe", eye / d, locs_b)
    out += np.einsum("ij,iab,jce->acbe", dec.correlation, stack, stack)
    return out.reshape(d * d, d * d)


def _unit_trace_matrices(d, rng):
    """A random state and a random non-Hermitian unit-trace matrix."""
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return qb.random_density_matrix(d * d, rng).matrix, g / np.trace(g)


class TestRealignedTransform:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_dense_reference(self, kind, d, rng):
        for mat in _unit_trace_matrices(d, rng):
            dec = qb.bipartite_decompose(mat, kind, subdim=d)
            for got, want in zip((dec.local_a, dec.local_b, dec.correlation),
                                 _dense_decompose(mat, kind, d)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            want = _dense_reconstruct(dec)
            assert np.abs(dec.reconstruct() - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_to_d8(self, kind, rng):
        for d in range(2, 9):
            for mat in _unit_trace_matrices(d, rng):
                dec = qb.bipartite_decompose(mat, kind, subdim=d)
                assert np.abs(dec.reconstruct() - mat).max() < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_read_only(self, kind, rng):
        dec = qb.bipartite_decompose(qb.random_density_matrix(9, rng), kind)
        for field in (dec.local_a, dec.local_b, dec.correlation):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 0


def _dense_encode(mat, kind, convention):
    """Reference: Tr(A_i^dag M) as an einsum against the conjugated stack."""
    basis = qb.get_basis(kind, mat.shape[0])
    comp = np.einsum("kab,ab->k", basis.stacked[1:].conj(), mat)
    if convention == "coeff":
        return comp / basis.ortho_const
    return comp.conj() if kind == "wob" else comp


def _dense_decode(vec):
    """Reference: 1/d + sum_i c_i A_i as an einsum over the stack."""
    d = vec.dim
    basis = qb.get_basis(vec.kind, d)
    comp = np.asarray(vec.components)
    if vec.convention is Convention.EXPECTATION:
        comp = comp.conj() / d if vec.kind is qb.BasisKind.WOB else comp / basis.ortho_const
    return np.eye(d) / d + np.einsum("k,kab->ab", comp, basis.stacked[1:])


def _dense_expand(basis, mat):
    stack = basis.stacked
    return (np.einsum("kab,ab->k", stack.conj(), mat)
            / np.einsum("kab,kab->k", stack.conj(), stack).real)


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestFrameTransforms:
    """The frame products of encode, decode and expand_matrix against the
    dense einsum contraction they replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", range(2, 17))
    def test_match_dense_reference(self, kind, d, rng):
        basis = qb.get_basis(kind, d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for mat in (qb.random_density_matrix(d, rng).matrix, g):
            assert _close(qb.expand_matrix(basis, mat), _dense_expand(basis, mat))
            for conv in ("coeff", "expval"):
                vec = qb.bloch_encode(mat, kind, conv)
                assert _close(vec.components, _dense_encode(mat, kind, conv))
                assert _close(qb.bloch_decode(vec).matrix, _dense_decode(vec))
                # a random complex Bloch vector, not the image of any matrix
                c = rng.normal(size=d * d - 1) + 1j * rng.normal(size=d * d - 1)
                other = qb.BlochVector(vec.kind, d, vec.convention, c, vec.labels)
                assert _close(qb.bloch_decode(other).matrix, _dense_decode(other))

    @pytest.mark.parametrize("kind,conv", [(k, c) for k in KINDS for c in ("coeff", "expval")])
    def test_encode_leaves_no_negative_zero(self, kind, conv, rng):
        # conjugating a product whose imaginary part is exactly 0 gives -0.0;
        # encode turns it back into +0.0, as the einsum gave; diag(0.7, 0.3)
        # has components whose imaginary part is exactly 0
        states = [qb.random_density_matrix(d, rng) for d in (2, 3, 5, 8)]
        for rho in (*states, np.diag([0.7, 0.3])):
            comp = qb.bloch_encode(rho, kind, conv).components
            assert not np.signbit(comp.real[comp.real == 0]).any()
            assert not np.signbit(comp.imag[comp.imag == 0]).any()
