"""The two-parameter plane table: the batched sweep against the scalar path."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch.cli import SweepSpec, run_sweep

# bounding box of each positivity triangle, widened so unphysical points are drawn too
_WIDEN = 0.25
FAMILIES = {
    "qubit2p": ((-1.0, 1.0), (-2.0, 1.0), qb.classify_qubit_plane,
                qb.hs_measure_qubit_plane, qb.two_param_qubit),
    "qutrit2p": ((-1 / 6, 1.0), (-1 / 3, 1.0), qb.classify_qutrit_plane,
                 qb.hs_measure_qutrit_plane, qb.two_param_qutrit),
}


def _coordinate(lo, hi):
    return st.floats(lo - _WIDEN, hi + _WIDEN, allow_subnormal=False)


def _check_row(family, row):
    _, _, classify, measure, make = FAMILIES[family]
    alpha, beta = row["alpha"], row["beta"]
    assert row["region"] == classify(alpha, beta).value
    _, res = measure(alpha, beta)
    assert row["D"] == (None if res is None else res.distance)
    mat = make(alpha, beta, checked=False).matrix
    assert row["min_eig"] == float(np.linalg.eigvalsh(mat)[0])
    assert row["ppt_min_eig"] == float(np.linalg.eigvalsh(qb.partial_transpose(mat))[0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_rows_match_scalar_path(family):
    (alo, ahi), (blo, bhi) = FAMILIES[family][:2]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_coordinate(alo, ahi), _coordinate(alo, ahi),
           _coordinate(blo, bhi), _coordinate(blo, bhi))
    def check(a1, a2, b1, b2):
        assume(a1 < a2 and b1 < b2)
        # a two-step range holds exactly its two end points
        rows = run_sweep(SweepSpec(family, (a1, a2, 2), (b1, b2, 2)))
        assert [(r["alpha"], r["beta"]) for r in rows] == [(a1, b1), (a2, b1), (a1, b2), (a2, b2)]
        for row in rows:
            _check_row(family, row)

    check()


def test_operators_built_once_and_read_only():
    for plane in qb.PLANES.values():
        ops = plane.operators()
        assert plane.operators() is ops
        assert all(not op.flags.writeable for op in ops)
