import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quditbloch import cg, clebsch_gordan


def half_range(two_j):
    return [m / 2 for m in range(-two_j, two_j + 1, 2)]


def test_frozen_value_from_printed_t10():
    # oracle: the printed qubit T_10 = diag(1, -1)/sqrt(2) and
    # T_10[0, 0] = sqrt(3/2) * C  =>  C = sqrt(2/3) / sqrt(2) = 1/sqrt(3)
    assert clebsch_gordan(0.5, 0.5, 1, 0, 0.5, 0.5) == pytest.approx(0.5773502691896258, abs=1e-15)


def test_frozen_value_from_printed_t11():
    # printed T_11 = -|1><2| with prefactor sqrt(3/2)  =>  C = -sqrt(2/3)
    assert clebsch_gordan(0.5, -0.5, 1, 1, 0.5, 0.5) == pytest.approx(-np.sqrt(2 / 3), abs=1e-15)


def test_projection_selection_rule():
    assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0


def test_triangle_rule():
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
    assert clebsch_gordan(2, 0, 0.5, 0.5, 1, 0.5) == 0.0


def test_parity_mismatch_is_zero():
    # j = 1 with half-integer m is off the projection lattice
    assert clebsch_gordan(1, 0.5, 0.5, 0, 1.5, 0.5) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        clebsch_gordan(-0.5, 0.5, 1, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)


@pytest.mark.parametrize("args", [
    (2 ** 1000, 0, 1, 0, 2 ** 1000, 0),
    (cg.MAX_J + 1, 0, 1, 0, cg.MAX_J + 1, 0),
    (1, 0, cg.MAX_J + 0.5, 0.5, cg.MAX_J + 0.5, 0.5),
    (cg.MAX_J, 0, cg.MAX_J, 0, 2 * cg.MAX_J, 0),
    (1, 0, 1, 0, 3e4, 0),
])
def test_angular_momenta_beyond_bound_fail_fast(args):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_J"):
        clebsch_gordan(*args)
    assert time.perf_counter() - start < 0.1


def test_slowest_coefficient_at_bound_is_computed():
    # j1 = j2 = j = MAX_J is the slowest case of the Racah sum within the bound
    j = cg.MAX_J
    start = time.perf_counter()
    value = cg._cg_cached.__wrapped__(2 * j, 0, 2 * j, 0, 2 * j, 0)
    assert time.perf_counter() - start < 1.0
    assert value == clebsch_gordan(j, 0, j, 0, j, 0) and value != 0.0


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_orthogonality_sum_rule_fixed_projections(two_s):
    # sum_{c,gamma} (2c+1)/(2b+1) C^{b beta}_{a alpha, c gamma} C^{b beta'}_{a alpha', c gamma}
    #   = delta_{alpha alpha'} delta_{beta beta'}  with a = b = s
    s = two_s / 2
    for alpha in half_range(two_s):
        for beta in half_range(two_s):
            for alpha2 in half_range(two_s):
                for beta2 in half_range(two_s):
                    total = 0.0
                    for two_c in range(0, 2 * two_s + 1, 2):
                        c = two_c / 2
                        for gamma in half_range(two_c):
                            total += ((two_c + 1) / (two_s + 1)
                                      * clebsch_gordan(s, alpha, c, gamma, s, beta)
                                      * clebsch_gordan(s, alpha2, c, gamma, s, beta2))
                    expected = float(alpha == alpha2 and beta == beta2)
                    assert total == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_orthogonality_sum_rule_fixed_ranks(two_s):
    # sum_{alpha,gamma} C^{c gamma}_{a alpha, b beta} C^{c gamma}_{a alpha, b' beta'}
    #   = (2c+1)/(2b+1) delta_{b b'} delta_{beta beta'}  with a = c = s
    s = two_s / 2
    for two_b in range(0, 2 * two_s + 1, 2):
        for two_b2 in range(0, 2 * two_s + 1, 2):
            b, b2 = two_b / 2, two_b2 / 2
            for beta in half_range(two_b):
                for beta2 in half_range(two_b2):
                    total = 0.0
                    for alpha in half_range(two_s):
                        for gamma in half_range(two_s):
                            total += (clebsch_gordan(s, alpha, b, beta, s, gamma)
                                      * clebsch_gordan(s, alpha, b2, beta2, s, gamma))
                    expected = 0.0
                    if two_b == two_b2 and beta == beta2:
                        expected = (two_s + 1) / (two_b + 1)
                    assert total == pytest.approx(expected, abs=1e-12)


def test_exchange_symmetry():
    # <j1 m1 j2 m2|J M> = (-1)^(j1+j2-J) <j2 m2 j1 m1|J M>
    cases = [(1, 0, 1, 1, 2, 1), (1.5, 0.5, 1, -1, 1.5, -0.5), (2, 1, 1, 0, 2, 1)]
    for j1, m1, j2, m2, j, m in cases:
        lhs = clebsch_gordan(j1, m1, j2, m2, j, m)
        rhs = (-1) ** int(round(j1 + j2 - j)) * clebsch_gordan(j2, m2, j1, m1, j, m)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_against_sympy_sample():
    sympy = pytest.importorskip("sympy")
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    cases = [
        (0.5, 0.5, 1, 0, 0.5, 0.5),
        (1, 1, 1, -1, 0, 0),
        (1.5, 0.5, 1.5, -0.5, 2, 0),
        (2, 0, 2, 0, 2, 0),
        (1.5, -1.5, 1, 1, 2.5, -0.5),
        (3.5, 2.5, 2, -1, 1.5, 1.5),
    ]
    for j1, m1, j2, m2, j, m in cases:
        ref = float(CG(Rational(2 * j1, 2), Rational(2 * m1, 2),
                       Rational(2 * j2, 2), Rational(2 * m2, 2),
                       Rational(2 * j, 2), Rational(2 * m, 2)).doit().evalf(20))
        assert clebsch_gordan(j1, m1, j2, m2, j, m) == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, float("nan")])
def test_non_finite_argument_raises(position, bad):
    args = [1, 0, 1, 0, 1, 0]
    args[position] = bad
    with pytest.raises(ValueError, match="finite"):
        clebsch_gordan(*args)


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("huge", [10**400, -10**400])
def test_integer_beyond_float_range_raises(position, huge):
    args = [1, 0, 1, 0, 1, 0]
    args[position] = huge
    with pytest.raises(ValueError, match="float range"):
        clebsch_gordan(*args)


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_])
def test_bool_argument_raises(position, bad):
    # (True, True, False, False, True, True) would read as <1 1; 0 0|1 1> = 1
    args = [1, 1, 0, 0, 1, 1]
    args[position] = bad
    with pytest.raises(ValueError, match="real number"):
        clebsch_gordan(*args)


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("offset", [1e-12, -1e-12])
def test_inexact_half_integer_raises(position, offset):
    args = [0.5, 0.5, 0, 0, 0.5, 0.5]
    args[position] += offset
    with pytest.raises(ValueError, match="half-integer"):
        clebsch_gordan(*args)


def test_module_keeps_no_shared_container():
    # a module-level list, dict or set is state that callers share across
    # threads; the kernel needs none
    shared = [name for name, value in vars(cg).items()
              if not name.startswith("__") and isinstance(value, (list, dict, set))]
    assert shared == []


def _cg_fraction(tj1, tm1, tj2, tm2, tj, tm):
    """The Racah sum term by term in ``fractions.Fraction`` arithmetic, as the
    textbook writes it; the reference the integer kernel must match bit for
    bit."""
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2):
        return 0.0
    if (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    def h(x):
        return x // 2

    f = math.factorial
    pre = Fraction(tj + 1) * Fraction(
        f(h(tj1 + tj2 - tj)) * f(h(tj1 - tj2 + tj)) * f(h(-tj1 + tj2 + tj)),
        f(h(tj1 + tj2 + tj) + 1),
    )
    pre *= (
        f(h(tj + tm)) * f(h(tj - tm))
        * f(h(tj1 + tm1)) * f(h(tj1 - tm1))
        * f(h(tj2 + tm2)) * f(h(tj2 - tm2))
    )
    kmin = max(0, -h(tj - tj2 + tm1), -h(tj - tj1 - tm2))
    kmax = min(h(tj1 + tj2 - tj), h(tj1 - tm1), h(tj2 + tm2))
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        total += Fraction(
            (-1) ** k,
            f(k)
            * f(h(tj1 + tj2 - tj) - k)
            * f(h(tj1 - tm1) - k)
            * f(h(tj2 + tm2) - k)
            * f(h(tj - tj2 + tm1) + k)
            * f(h(tj - tj1 - tm2) + k),
        )
    if total == 0:
        return 0.0
    value = math.sqrt(float(pre * total * total))
    return value if total > 0 else -value


def _pob_keys(dims):
    # the twice-value keys _pob_entry asks for: <s m_{k+M}; L M | s m_k>
    for d in dims:
        for L in range(d):
            for M in range(-L, L + 1):
                for k in range(max(0, -M), min(d, d - M)):
                    yield (d - 1, d - 1 - 2 * (k + M), 2 * L, 2 * M, d - 1, d - 1 - 2 * k)


def _lattice_keys(max_tj12, max_tj):
    for tj1 in range(max_tj12 + 1):
        for tj2 in range(max_tj12 + 1):
            for tj in range(max_tj + 1):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        yield (tj1, tm1, tj2, tm2, tj, tm1 + tm2)


@pytest.mark.parametrize("keys,count", [
    pytest.param(lambda: _pob_keys(range(2, 17)), 12375, id="pob-d2-16"),
    pytest.param(lambda: _lattice_keys(8, 16), 34425, id="lattice-2j12-le-8-2j-le-16"),
])
def test_integer_racah_sum_matches_fraction_reference(keys, count):
    n = 0
    for key in keys():
        got = cg._cg_cached.__wrapped__(*key)
        ref = _cg_fraction(*key)
        assert got == ref and np.signbit(got) == np.signbit(ref), key
        n += 1
    assert n == count
