"""Exact references for the closed forms ``measure`` prints.

Every float input is an exact binary rational, so the true D at a contract
point is an algebraic number that sympy computes exactly. Each printed D and
B (the optimal witness's expectation, equal to D in exact arithmetic) is
held to a budget of ulps of that exact value: a change that moves a last
digit shows whether it moved towards the true number or away from it. At
points drawn over the planes and the isotropic range, the library's D is held
to an absolute budget instead, since D cancels near the region lines.

The sweep's eigenvalue columns, the nearest separable state ``rho0`` that
``measure`` prints and the isotropic witness's entries are held to exact
references too, computed with ``fractions`` where they are rational.
"""

import csv
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditbloch import (PLANES, RegionLabel, classify_isotropic, hs_measure_isotropic,
                        plane_distance)
from quditbloch.cli import cli_main
from quditbloch.entanglement import _isotropic_witness

sympy = pytest.importorskip("sympy")

D_ULPS = 2
B_ULPS = 8
# |D - exact| at drawn points; a budget in ulps of D cannot hold there, as D
# cancels near the region lines (qutrit Region II reached 27 ulps with D >= 0.01)
D_ABS = 2 * 2.0 ** -52
# |min_eig - exact| and |ppt_min_eig - exact| on the 7 x 9 and 9 x 11 grids reached
# 2.8e-16 and 4.0e-16; in ulps they cannot hold, as the minima cancel near zero
EIG_ABS = 4 * 2.0 ** -52
# the isotropic witness's nonzero entries, one division by a rounded square root:
# 1.02 ulps at d = 5, at most 0.70 at the other d in 2..8
WITNESS_ULPS = 2
# rho0's real parts reached 4.3 ulps, its imaginary parts (exactly 0) 7.2e-17,
# both at qutrit2p (0.1, 0.7), where Q + R is a sum of Weyl projector products
RHO0_ULPS = 8
RHO0_IM_ABS = 2.0 ** -52


def _region_i(d, alpha, beta):
    """sqrt(d^2 - 1)/d * (alpha - 1/(d+1) - beta/(d^2 - 1)), Region I and the isotropic family."""
    return sympy.sqrt(d * d - 1) / d * (alpha - sympy.Rational(1, d + 1) - beta / (d * d - 1))


# Region II's D per plane, as in the paper
REGION_II = {
    "qubit2p": lambda alpha, beta: (-alpha - 1 - beta) / (2 * sympy.sqrt(3)),
    "qutrit2p": lambda alpha, beta: (-4 * alpha - 2 + 5 * beta) / (6 * sympy.sqrt(2)),
}

# each entangled measure point of tests/test_contract.py: family, d, alpha, beta, region
POINTS = [
    ("qubit2p", 2, 0.8, 0.1, "EntangledRegionI"),
    ("qubit2p", 2, -0.7, -1.5, "EntangledRegionII"),
    ("qutrit2p", 3, 0.6, 0.0, "EntangledRegionI"),
    ("qutrit2p", 3, 0.1, 0.7, "EntangledRegionII"),
    ("isotropic", 2, 0.9, 0.0, "Entangled"),
    ("isotropic", 3, 0.85, 0.0, "Entangled"),
    ("isotropic", 4, 0.9, 0.0, "Entangled"),
]


POINT_IDS = [f"{f}-{d}-{a}" if f == "isotropic" else f"{f}-{a}-{b}" for f, d, a, b, _ in POINTS]


def _ulps(printed: float, exact) -> float:
    """|printed - exact| in units of the last place of the exact value."""
    error = abs(sympy.Rational(printed) - exact)
    return float((error / sympy.Rational(math.ulp(float(exact.evalf(40))))).evalf(20))


def _stdout(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


def _measure(family, d, alpha, beta):
    argv = (["--dim", str(d), "--alpha", repr(alpha)] if family == "isotropic"
            else ["--alpha", repr(alpha), "--beta", repr(beta)])
    return json.loads(_stdout("measure", "--family", family, *argv))


@pytest.mark.parametrize("family,d,alpha,beta,region", POINTS, ids=POINT_IDS)
def test_printed_measure_within_ulps_of_exact(family, d, alpha, beta, region):
    result = _measure(family, d, alpha, beta)
    assert result["region"] == region
    # sympy.Rational of a float is its exact binary value
    a, b = sympy.Rational(alpha), sympy.Rational(beta)
    exact = REGION_II[family](a, b) if region == "EntangledRegionII" else _region_i(d, a, b)
    assert exact > 0
    assert _ulps(result["D"], exact) <= D_ULPS
    assert _ulps(result["B"], exact) <= B_ULPS


def _abs_error(computed: float, exact) -> float:
    """|computed - exact| at 40 significant digits: a float is exact there, and
    an exact D, a rational times a square root, is evaluated without cancellation."""
    return float(abs(sympy.Float(computed, 40) - exact.evalf(40)))


# the bounding box of each plane's physical triangle: (alpha range, beta range)
BOXES = {"qubit2p": ((-1, 1), (-2, 1)), "qutrit2p": ((-1 / 6, 1), (-1 / 3, 1))}


@pytest.mark.parametrize("family", list(BOXES))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_plane_distance_at_drawn_points(family, data):
    (a_lo, a_hi), (b_lo, b_hi) = BOXES[family]
    # ten points per example, of which the entangled ones have a D
    points = data.draw(st.lists(st.tuples(st.floats(a_lo, a_hi), st.floats(b_lo, b_hi)),
                                min_size=10, max_size=10))
    for alpha, beta in points:
        label, distance = plane_distance(PLANES[family], alpha, beta)
        if distance is None:
            continue
        a, b = sympy.Rational(alpha), sympy.Rational(beta)
        exact = (REGION_II[family](a, b) if label is RegionLabel.ENTANGLED_II
                 else _region_i(PLANES[family].subdim, a, b))
        assert _abs_error(distance, exact) <= D_ABS


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(2, 8))
def test_isotropic_distance_at_drawn_points(data, d):
    alpha = data.draw(st.floats(1 / (d + 1), 1, exclude_min=True))
    if classify_isotropic(d, alpha) is not RegionLabel.ENTANGLED:
        return      # within TOL_EDGE of the threshold, which counts as separable
    exact = _region_i(d, sympy.Rational(alpha), sympy.Rational(0))
    assert _abs_error(hs_measure_isotropic(d, alpha).distance, exact) <= D_ABS


def _plane_spectra(d, a, b):
    """The least eigenvalues of rho and of its partial transpose at the plane
    point (a, b): both spectra are linear in (a, b), with c = (1 - a - b)/d^2."""
    c = (1 - a - b) / (d * d)
    rho = (c + a, c + b / 2, c)
    pt = ((c - a / 2 + b / 2, c + a / 2, c + a / 2 + b / 2) if d == 2 else
          (c - a / 3 + b / 6, c + a / 3 - b / 6, c + a / 3 + b / 3))
    return min(rho), min(pt)


@pytest.mark.parametrize("family,alpha,beta", [
    ("qubit2p", ("-1.3", "1.3", "7"), ("-2.2", "1.3", "9")),
    ("qutrit2p", ("-0.4", "1.1", "9"), ("-0.6", "1.2", "11")),
])
def test_sweep_eigenvalue_columns_near_exact(family, alpha, beta):
    rows = list(csv.DictReader(io.StringIO(_stdout(
        "sweep", "--family", family, "--alpha", *alpha, "--beta", *beta, "--format", "csv"))))
    assert len(rows) == int(alpha[2]) * int(beta[2])
    for row in rows:
        # a printed float reads back to the input; Fraction of a float is exact
        exact = _plane_spectra(PLANES[family].subdim, Fraction(float(row["alpha"])),
                               Fraction(float(row["beta"])))
        for column, value in zip(("min_eig", "ppt_min_eig"), exact):
            assert abs(Fraction(float(row[column])) - value) <= EIG_ABS


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_witness_entries(d):
    # (1 - d P+)/sqrt(d^2 - 1): the numerator is [i == k] - [i and k both in jj]
    witness = _isotropic_witness(d)
    assert not witness.imag.any()
    jj = {j * (d + 1) for j in range(d)}
    for (i, k), value in np.ndenumerate(witness.real):
        numerator = (i == k) - (i in jj and k in jj)
        if numerator == 0:
            assert value == 0
        else:
            assert _ulps(value, numerator / sympy.sqrt(d * d - 1)) <= WITNESS_ULPS


# the nearest separable point of a Region II point, in exact arithmetic
NEAREST_II = {
    "qubit2p": lambda a, b: ((-1 + 2 * a - b) / 3, (-2 - 2 * a + b) / 3),
    "qutrit2p": lambda a, b: ((-2 + 20 * a + 5 * b) / 24, (2 + 4 * a + b) / 6),
}


def _plane_matrix(family, d, a, b):
    """(1 - a - b)/d^2 * 1 + a P + (b/2)(Q + R) as Fractions, P the Bell projector
    (1/d at each (jj, kk)); the isotropic state at b = 0. For qubit2p Q + R is
    psi+ + psi-, 1 at |01> and |10>; for qutrit2p it is P_10 + P_20, whose
    (jj, kk) entry (omega^(j-k) + omega^(k-j))/3 is 2/3 for j = k and -1/3 else."""
    n = d * d
    m = [[(1 - a - b) / n if i == k else Fraction(0) for k in range(n)] for i in range(n)]
    for j in range(d):
        for k in range(d):
            m[j * (d + 1)][k * (d + 1)] += a / d
            if family == "qutrit2p":
                m[j * (d + 1)][k * (d + 1)] += b / 2 * Fraction(d * (j == k) - 1, d)
    if family == "qubit2p":
        m[1][1] += b / 2
        m[2][2] += b / 2
    return m


@pytest.mark.parametrize("family,d,alpha,beta,region", POINTS, ids=POINT_IDS)
def test_printed_rho0_near_exact(family, d, alpha, beta, region):
    result = _measure(family, d, alpha, beta)
    a, b = Fraction(alpha), Fraction(beta)
    # Region I and the isotropic family project onto line I, <rho, P> = 1/d
    a0, b0 = (NEAREST_II[family](a, b) if region == "EntangledRegionII"
              else (b / (d * d - 1) + Fraction(1, d + 1), b))
    exact = _plane_matrix(family, d, a0, b0)
    rho0 = result["rho0"]
    assert rho0["dim"] == d * d
    for printed_row, exact_row in zip(rho0["re"], exact, strict=True):
        for printed, value in zip(printed_row, exact_row, strict=True):
            if value == 0:
                assert printed == 0
            else:
                assert _ulps(printed, sympy.Rational(value)) <= RHO0_ULPS
    assert max(abs(x) for row in rho0["im"] for x in row) <= RHO0_IM_ABS
