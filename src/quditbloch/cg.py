"""Clebsch-Gordan coefficients in the Condon-Shortley convention.

Coefficients are evaluated from the Racah closed-form sum written in binomial
coefficients (Varshalovich, Moskalev & Khersonskii, *Quantum Theory of Angular
Momentum*, 1988, ch. 8): the sum is an exact integer S, and the square of a
coefficient is the rational S^2 * num / den, with num / den a factorial
prefactor, so one correctly rounded division and one square root follow. No
coefficient is tabulated: any half-integer key up to ``MAX_J`` is supported.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

# bound on every angular momentum of a direct clebsch_gordan call (pob_basis
# needs j <= d - 1, which bases.MAX_DIM = 64 already caps at 63); the slowest
# coefficient at the bound, (MAX_J, 0, MAX_J, 0, MAX_J, 0), takes about 2 ms
# (one core of a 2-core x86-64 Xeon host; about 50 ms at j = 1000)
MAX_J = 300


def _twice(x, name: str) -> int:
    """2 x as an int; ``ValueError`` unless x is a real number, not a bool, and 2 x an integer."""
    # exact ints and floats skip the slower abstract-class check
    if type(x) not in (int, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValueError(f"{name}={x!r} is not a real number")
    two = 2 * x
    try:
        finite = math.isfinite(two)
    except OverflowError:       # an integer beyond the float range
        raise ValueError(f"{name} is beyond the float range") from None
    if not finite:
        raise ValueError(f"{name}={x} is not finite")
    n = int(two)
    if n != two:
        raise ValueError(f"{name}={x!r} is not a half-integer")
    return n


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Equals C^{j m}_{j1 m1, j2 m2} in the tensor-coupling notation; arguments
    are half-integers (``0.5`` steps are exact in binary floating point). It is
    0 when ``m1 + m2 != m``, when ``|j1 - j2| <= j <= j1 + j2`` fails, or when
    a projection is not in the lattice of its angular momentum. It raises
    ``ValueError`` for a negative ``j``, ``j`` above ``MAX_J``, a bool or
    non-real value, or one whose double is not a finite integer.
    """
    tj1 = _twice(j1, "j1")
    tj2 = _twice(j2, "j2")
    tj = _twice(j, "j")
    if tj1 < 0 or tj2 < 0 or tj < 0:
        raise ValueError("angular momenta must be nonnegative")
    if max(tj1, tj2, tj) > 2 * MAX_J:
        raise ValueError(f"angular momenta above MAX_J={MAX_J} are not supported")
    tm1 = _twice(m1, "m1")
    tm2 = _twice(m2, "m2")
    tm = _twice(m, "m")
    return _cg_cached(tj1, tm1, tj2, tm2, tj, tm)


@lru_cache(maxsize=None)
def _cg_cached(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    # selection rules; all arguments are twice-values
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2):
        return 0.0
    if (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    # each m must live on the lattice of its j (j + m integer)
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    # the Racah sum over k of (-1)^k / (k! (a-k)! (b-k)! (c-k)! (e+k)! (g+k)!)
    # is S / (a! (b+e)! (c+g)!), with the exact integer
    # S = sum_k (-1)^k C(a, k) C(b+e, b-k) C(c+g, c-k)
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    e = (tj - tj2 + tm1) // 2
    g = (tj - tj1 - tm2) // 2
    comb, f = math.comb, math.factorial
    total = 0
    for k in range(max(0, -e, -g), min(a, b, c) + 1):
        term = comb(a, k) * comb(b + e, b - k) * comb(c + g, c - k)
        total += -term if k & 1 else term
    if total == 0:
        return 0.0
    num = ((tj + 1) * f((tj + tm) // 2) * f((tj - tm) // 2)
           * f((tj1 + tm1) // 2) * f(b) * f(c) * f((tj2 - tm2) // 2))
    den = f((tj1 + tj2 + tj) // 2 + 1) * f(a) * f(b + e) * f(c + g)
    # int / int is correctly rounded: the one rounding before the square root
    value = math.sqrt((num * total * total) / den)
    return value if total > 0 else -value
