"""Exact references for the closed forms ``measure`` prints.

Every float input is an exact binary rational, so the true D at a contract
point is an algebraic number that sympy computes exactly. Each printed D and
B (the optimal witness's expectation, equal to D in exact arithmetic) is
held to a budget of ulps of that exact value: a change that moves a last
digit shows whether it moved towards the true number or away from it.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest

from quditbloch.cli import cli_main

sympy = pytest.importorskip("sympy")

D_ULPS = 2
B_ULPS = 8


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


def _ulps(printed: float, exact) -> float:
    """|printed - exact| in units of the last place of the exact value."""
    error = abs(sympy.Rational(printed) - exact)
    return float((error / sympy.Rational(math.ulp(float(exact.evalf(40))))).evalf(20))


@pytest.mark.parametrize("family,d,alpha,beta,region", POINTS,
                         ids=[f"{f}-{d}-{a}" if f == "isotropic" else f"{f}-{a}-{b}"
                              for f, d, a, b, _ in POINTS])
def test_printed_measure_within_ulps_of_exact(family, d, alpha, beta, region):
    argv = (["--dim", str(d), "--alpha", repr(alpha)] if family == "isotropic"
            else ["--alpha", repr(alpha), "--beta", repr(beta)])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(["measure", "--family", family, *argv]) == 0
    result = json.loads(out.getvalue())
    assert result["region"] == region
    # sympy.Rational of a float is its exact binary value
    a, b = sympy.Rational(alpha), sympy.Rational(beta)
    exact = REGION_II[family](a, b) if region == "EntangledRegionII" else _region_i(d, a, b)
    assert exact > 0
    assert _ulps(result["D"], exact) <= D_ULPS
    assert _ulps(result["B"], exact) <= B_ULPS
