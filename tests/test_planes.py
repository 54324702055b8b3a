"""The two-parameter plane table: the batched sweep against the scalar path."""

import contextlib
import csv
import functools
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quditbloch as qb
from quditbloch.cli import _csv_blocks, _float_cells, _json_dumps, cli_main

# bounding box of each positivity triangle, widened so unphysical points are drawn too
_WIDEN = 0.25
FAMILIES = {
    "qubit2p": ((-1.0, 1.0), (-2.0, 1.0), qb.classify_qubit_plane,
                functools.partial(qb.hs_measure_plane, qb.QUBIT_PLANE), qb.two_param_qubit),
    "qutrit2p": ((-1 / 6, 1.0), (-1 / 3, 1.0), qb.classify_qutrit_plane,
                 functools.partial(qb.hs_measure_plane, qb.QUTRIT_PLANE), qb.two_param_qutrit),
}


def _coordinate(lo, hi):
    return st.floats(lo - _WIDEN, hi + _WIDEN, allow_subnormal=False)


def _sweep_stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["sweep", *argv]) == 0
    return out.getvalue()


def _csv_sweep_rows(*argv) -> list[dict]:
    """The rows of the CSV the sweep command writes, its cells read back:
    float() of a 17-significant-digit cell is the float that was written."""
    rows = csv.DictReader(io.StringIO(_sweep_stdout(*argv, "--format", "csv")))
    return [{col: cell if col == "region" else None if cell == "" else float(cell)
             for col, cell in row.items()} for row in rows]


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
        rows = _csv_sweep_rows("--family", family, "--alpha", repr(a1), repr(a2), "2",
                               "--beta", repr(b1), repr(b2), "2")
        assert [(r["alpha"], r["beta"]) for r in rows] == [(a1, b1), (a2, b1), (a1, b2), (a2, b2)]
        for row in rows:
            _check_row(family, row)

    check()


def test_operators_built_once_and_read_only():
    for plane in qb.PLANES.values():
        ops = plane.operators()
        assert plane.operators() is ops
        assert all(not op.flags.writeable for op in ops)


# sweep output name -> column name, in column order
_OUTPUTS = {"region": "region", "hs_measure": "D", "min_eigenvalue": "min_eig",
            "ppt_min_eigenvalue": "ppt_min_eig"}


def _reference_rows(family, alpha_range, beta_range, outputs):
    """The sweep table one point at a time, from the scalar functions."""
    _, _, classify, measure, make = FAMILIES[family]
    rows = []
    for beta in np.linspace(*beta_range).tolist():
        for alpha in np.linspace(*alpha_range).tolist():
            _, res = measure(alpha, beta)
            mat = make(alpha, beta, checked=False).matrix
            values = {"region": classify(alpha, beta).value,
                      "D": None if res is None else res.distance,
                      "min_eig": float(np.linalg.eigvalsh(mat)[0]),
                      "ppt_min_eig": float(np.linalg.eigvalsh(qb.partial_transpose(mat))[0])}
            row = {"alpha": alpha, "beta": beta}
            row.update((col, values[col]) for o, col in _OUTPUTS.items() if o in outputs)
            rows.append(row)
    return rows


def _reference_csv(header, records):
    """The row-by-row CSV writer: 17 significant digits, empty cells for None."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow(["" if v is None else format(float(v), ".17g") if isinstance(v, float)
                         else v for v in rec])
    return out.getvalue()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_bytes_match_row_by_row_reference(family):
    below_zero = st.floats(-2.5, 0.0, allow_subnormal=False)
    above_zero = st.floats(0.0, 2.5, allow_subnormal=False, exclude_min=True)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(below_zero, above_zero, st.integers(2, 6), below_zero, above_zero, st.integers(2, 6),
           st.lists(st.sampled_from(sorted(_OUTPUTS)), min_size=1, max_size=4, unique=True))
    def check(alo, ahi, asteps, blo, bhi, bsteps, outputs):
        alpha_range, beta_range = (alo, ahi, asteps), (blo, bhi, bsteps)
        rows = _reference_rows(family, alpha_range, beta_range, outputs)
        columns = list(rows[0])
        argv = ["--family", family, "--alpha", *map(repr, alpha_range),
                "--beta", *map(repr, beta_range), "--outputs", *outputs]
        assert _sweep_stdout(*argv, "--format", "csv") == _reference_csv(
            columns, ([row[col] for col in columns] for row in rows))
        doc = {"family": family, "columns": columns, "rows": rows}
        assert _sweep_stdout(*argv, "--format", "json") == _json_dumps(doc) + "\n"

    check()


def test_signed_zeros_keep_their_sign_in_csv():
    # 0.0 == -0.0, so a formatter cached by value would write one for the other
    column = [0.0, -0.0, None, -0.0, 0.0]
    # a row of one empty cell is quoted, so it is not read as a blank line
    text = "".join(_csv_blocks(["x"], [zip(_float_cells(column))]))
    assert text == 'x\n0\n-0\n""\n-0\n0\n'
    assert text == _reference_csv(["x"], ([v] for v in column))
