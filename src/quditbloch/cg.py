"""Clebsch-Gordan coefficients in the Condon-Shortley convention.

Coefficients are evaluated from the Racah closed-form sum in exact integer
arithmetic, followed by one correctly rounded division and one square root:
the square of a coefficient is the rational num * S^2 / (den * P^2), where
num / den is the factorial prefactor and S / P the alternating sum over a
common integer scale P. Each term of the sum follows from the previous one by
an exact integer ratio, and factorials come from a table grown on demand. No
coefficient is tabulated, so any half-integer key up to ``MAX_J`` is
supported.
"""

from __future__ import annotations

import math
from functools import lru_cache

# bound on every angular momentum of a direct clebsch_gordan call (pob_basis
# needs j <= d - 1, which bases.MAX_DIM = 64 already caps at 63); the slowest
# coefficient at the bound, (MAX_J, 0, MAX_J, 0, MAX_J, 0), takes about 3 ms
# (one core of a 2-core x86-64 Xeon host; about 30 ms at j = 1000)
MAX_J = 300


# n! at index n, grown on demand; at most 3 MAX_J + 2 entries (about 0.44 MB)
_FACTORIALS = [1]


def _factorials(n: int) -> list:
    """The factorial table, holding at least 0! .. n!."""
    table = _FACTORIALS
    while len(table) <= n:
        table.append(table[-1] * len(table))
    return table


def _twice(x, name: str) -> int:
    two = 2 * x
    try:
        finite = math.isfinite(two)
    except OverflowError:       # an integer beyond the float range
        raise ValueError(f"{name} is beyond the float range") from None
    if not finite:
        raise ValueError(f"{name}={x} is not finite")
    n = int(round(float(two)))
    if abs(two - n) > 1e-9:
        raise ValueError(f"{name}={x} is not a half-integer")
    return n


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Equals C^{j m}_{j1 m1, j2 m2} in the tensor-coupling notation. Arguments
    are half-integers (``0.5`` steps are exact in binary floating point).
    Returns 0 when ``m1 + m2 != m``, when the triangle inequality
    ``|j1 - j2| <= j <= j1 + j2`` fails, or when a projection is not in the
    lattice of its angular momentum. Negative ``j``, ``j`` above ``MAX_J`` and
    non-finite or non-half-integer arguments raise ``ValueError``.
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

    # every factorial argument below is at most (j1 + j2 + j) + 1
    f = _factorials((tj1 + tj2 + tj) // 2 + 1)
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    e = (tj - tj2 + tm1) // 2
    g = (tj - tj1 - tm2) // 2
    num = (
        (tj + 1) * f[a] * f[(tj1 - tj2 + tj) // 2] * f[(tj2 - tj1 + tj) // 2]
        * f[(tj + tm) // 2] * f[(tj - tm) // 2]
        * f[(tj1 + tm1) // 2] * f[b] * f[c] * f[(tj2 - tm2) // 2]
    )
    den = f[(tj1 + tj2 + tj) // 2 + 1]

    # sum_k (-1)^k / (k! (a-k)! (b-k)! (c-k)! (e+k)! (g+k)!) = S / P, with P
    # the product of the largest factorial of each slot, which every
    # denominator divides; term k + 1 of S is term k times the exact integer
    # ratio -(a-k)(b-k)(c-k) / ((k+1)(e+k+1)(g+k+1))
    kmin = max(0, -e, -g)
    kmax = min(a, b, c)
    scale = f[kmax] * f[a - kmin] * f[b - kmin] * f[c - kmin] * f[e + kmax] * f[g + kmax]
    term = (-1) ** kmin * scale // (
        f[kmin] * f[a - kmin] * f[b - kmin] * f[c - kmin] * f[e + kmin] * f[g + kmin])
    total = term
    for k in range(kmin, kmax):
        term = -term * (a - k) * (b - k) * (c - k) // ((k + 1) * (e + k + 1) * (g + k + 1))
        total += term
    if total == 0:
        return 0.0
    # int / int is correctly rounded: the one rounding before the square root
    value = math.sqrt((num * total * total) / (den * scale * scale))
    return value if total > 0 else -value
