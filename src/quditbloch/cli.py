"""Batch command-line front end.

Subcommands: ``basis dump``, ``state make``, ``decompose``, ``measure``,
``sweep``, ``selftest``. JSON goes to stdout as a single document, logs to
stderr. Exit codes: 0 success, 1 usage error, 2 domain/contract error or
failed allocation. Floats are emitted with 17 significant digits so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import repeat

import numpy as np

from .bases import BasisKind, get_basis
from .bloch import Convention, bloch_encode, purity
from .entanglement import (_PLANE_REGIONS, RegionLabel, _plane_distances, classify_isotropic,
                           hs_measure_isotropic, hs_measure_plane)
from .gilbert import GilbertConfig, nearest_separable_weyl
from .linalg import (TOL_TRACE, as_hermitian, is_psd, matrix_from_json, matrix_to_json,
                     partial_transpose)
from .states import PLANES, _check_finite, bell_state, isotropic_state, weyl_bell_projector


class _UsageError(Exception):
    pass


class _NegativeNumber:
    """argparse's negative-number test: a token that float reads and that starts with "-"."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-5.5e-05", "-inf" or "-1." for an option
        self._negative_number_matcher = _NegativeNumber

    def error(self, message):
        raise _UsageError(message)


# a float with 17 significant digits, as str; "%" reads numpy floats through __float__
_fmt = "%.17g".__mod__


def _float_cells(column, none=""):
    """Lazy cells of a column of floats: 17 significant digits, ``none`` for None."""
    return (none if v is None else _fmt(v) for v in column)


def _csv_blocks(header, blocks):
    """CSV text of the header, then of each block of rows (tuples of cells,
    strings or ints), one row template per row. No cell holds a comma, quote
    or line break, and the header has at least two columns, so no row is
    written as a blank line."""
    row = ",".join(["%s"] * len(header)) + "\n"
    yield row % tuple(header)
    for rows in blocks:
        yield "".join(map(row.__mod__, rows))


def _json_dumps(obj) -> str:
    """JSON with fixed 17-significant-digit float formatting; a non-finite
    float, which JSON cannot hold, raises ``ValueError``."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"result {obj} is not finite and has no JSON form")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_dumps(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json_dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _label_str(label) -> str:
    return ":".join(str(x) for x in label)


def _json_blocks(head: dict, key: str, blocks):
    """The text of ``_json_dumps({**head, key: items})`` and a newline, one
    block at a time: the head, then ``blocks``, each the JSON of some items
    joined by ``", "``, then the closing brackets."""
    yield f"{_json_dumps(head)[:-1]}, {json.dumps(key)}: ["
    for i, block in enumerate(blocks):
        yield ", " + block if i else block
    yield "]}\n"


def _emit(blocks, path: str | None) -> None:
    """Write a string, or the strings ``blocks`` yields, one at a time to
    stdout or to the file at ``path``; the text is never held whole. An error
    raised while the blocks are made or written leaves the output truncated.
    ``OSError`` from opening or writing the file or stdout is ``RuntimeError``,
    except that a reader that closes stdout early (``| head``) ends the writing
    without an error."""
    if isinstance(blocks, str):
        blocks = (blocks,)
    if path is None:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except OSError as exc:
            # the null device takes what is left in stdout's buffer, so that
            # the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise RuntimeError(f"cannot write to standard output: {exc}") from exc
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path!r}: {exc}") from exc


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise RuntimeError(f"cannot read input file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path!r}: {exc}") from exc
    return matrix_from_json(doc)


def _cmd_basis_dump(args) -> int:
    """One block per basis element, in JSON or CSV."""
    basis = get_basis(args.kind, args.dim)
    labels = map(_label_str, basis.labels)
    if args.format == "json":
        head = {"kind": basis.kind.value, "dim": basis.dim, "ortho_const": basis.ortho_const}
        _emit(_json_blocks(head, "elements", (
            _json_dumps({"label": label, "matrix": matrix_to_json(el)})
            for label, el in zip(labels, basis.elements))), args.out)
    else:
        d = basis.dim
        rows, cols = [r for r in range(d) for _ in range(d)], list(range(d)) * d
        _emit(_csv_blocks(["label", "row", "col", "re", "im"], (
            zip(repeat(label), rows, cols, map(_fmt, el.real.ravel().tolist()),
                map(_fmt, el.imag.ravel().tolist()))
            for label, el in zip(labels, basis.elements))), args.out)
    return 0


# the parameters each family takes, in the order its library functions take
# them; --dim defaults to 2, the others are required. Families with alpha have
# a physical range, which state make --unchecked leaves and measure classifies.
_FAMILY_PARAMS = {"bell": ("dim",), "isotropic": ("dim", "alpha"),
                  **{fam: ("alpha", "beta") for fam in PLANES}, "weylproj": ("dim", "n", "k")}
_MEASURED = [fam for fam, params in _FAMILY_PARAMS.items() if "alpha" in params]
_PARAM_TYPES = {"dim": int, "alpha": float, "beta": float, "n": int, "k": int}


def _require_params(args) -> dict:
    """The family's parameters by name, checked for missing ones, then for given
    ones the family does not take (each flag is None unless given)."""
    fam, takes = args.family, _FAMILY_PARAMS[args.family]
    needed = [name for name in takes if name != "dim"]
    if any(getattr(args, name) is None for name in needed):
        flags = " and ".join(f"--{name}" for name in needed)
        raise _UsageError(f"{flags} {'is' if len(needed) == 1 else 'are'} required for {fam}")
    allowed = (*takes, "unchecked") if fam in _MEASURED else takes
    extra = [f"--{name}" for name in (*_PARAM_TYPES, "unchecked")
             if name not in allowed and getattr(args, name, None) is not None]
    if extra:
        raise _UsageError(f"{fam} takes no {' or '.join(extra)}")
    return {name: 2 if name == "dim" and args.dim is None else getattr(args, name)
            for name in takes}


def _make_state(fam: str, params: dict, checked: bool = True):
    if fam in _MEASURED:
        build = isotropic_state if fam == "isotropic" else PLANES[fam].state
        return build(*params.values(), checked=checked)
    return (bell_state if fam == "bell" else weyl_bell_projector)(*params.values())


def _cmd_state_make(args) -> int:
    state = _make_state(args.family, _require_params(args), checked=not args.unchecked)
    _emit(_json_dumps(matrix_to_json(state.matrix)) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    mat = as_hermitian(_read_matrix(args.infile), "input state")
    tr = np.trace(mat)
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"input state trace {tr} is not 1")
    vec = bloch_encode(mat, args.kind, Convention(args.convention))
    doc = {
        "kind": args.kind,
        "dim": vec.dim,
        "convention": vec.convention.value,
        "labels": [_label_str(lab) for lab in vec.labels],
        "re": [float(x) for x in vec.components.real],
        "im": [float(x) for x in vec.components.imag],
        "radius": vec.radius,
        "purity": purity(mat),
        "is_physical": is_psd(mat),
    }
    _emit(_json_dumps(doc) + "\n", args.out)
    return 0


def _witness_json(report) -> dict:
    return {
        "operator": matrix_to_json(report.operator),
        "ent_expectation": report.ent_expectation,
        "sep_min_estimate": report.sep_min_estimate,
        "verdict": report.verdict.value,
        "method": report.method.value,
    }


def _cmd_measure(args) -> int:
    params = _require_params(args)
    if args.seed is not None and not args.oracle:
        raise _UsageError("--seed is the oracle's seed and needs --oracle")
    oracle_config = GilbertConfig(seed=args.seed or 0) if args.oracle else None
    if args.family == "isotropic":
        label = classify_isotropic(*params.values())
        result = hs_measure_isotropic(*params.values()) if label is RegionLabel.ENTANGLED else None
    else:
        label, result = hs_measure_plane(PLANES[args.family], *params.values())

    # alpha, the region, then the family's parameters, where alpha keeps its place
    doc = {"family": args.family, "alpha": params["alpha"], "region": label.value, **params}
    if result is not None:
        doc["D"] = result.distance
        doc["B"] = result.max_violation
        doc["rho0"] = matrix_to_json(result.nearest_separable.matrix)
        doc["witness"] = _witness_json(result.witness)
        if args.oracle:
            oracle = nearest_separable_weyl(_make_state(args.family, params), oracle_config)
            doc["oracle_D"] = oracle.distance
            doc["oracle_iterations"] = oracle.iterations
            doc["oracle_converged"] = oracle.converged
            doc["oracle_gap"] = oracle.gap
    else:
        doc["D"] = None
    _emit(_json_dumps(doc) + "\n", args.out)
    return 0


# sweep output name -> column name, in column order
_SWEEP_COLUMNS = {
    "region": "region",
    "hs_measure": "D",
    "min_eigenvalue": "min_eig",
    "ppt_min_eigenvalue": "ppt_min_eig",
}

# the sweep command computes and writes one beta row at a time, so its memory
# does not grow with the rows (a peak resident set of 36-37 MB at 10^6 qutrit
# points). The cap bounds run time: at 10^6 points a qutrit sweep took 12-15 s
# and a qubit sweep 4 s on a 2-core machine
MAX_SWEEP_POINTS = 1_000_000


def _grid_axes(alpha, beta) -> list[tuple[float, float, int]]:
    """``--alpha`` and ``--beta`` as (min, max, steps), each checked in turn, then
    the grid's size against ``MAX_SWEEP_POINTS``, before any coordinate is made."""
    axes = []
    for name, (lo, hi, steps) in (("alpha", alpha), ("beta", beta)):
        steps = int(steps) if steps.is_integer() else steps
        if not (isinstance(steps, int) and steps >= 2):
            raise ValueError(f"{name} steps must be an integer >= 2, got {steps!r}")
        # the family parameter rule, so max - min, linspace's step, is finite too
        lo, hi = _check_finite(**{f"{name} min": lo, f"{name} max": hi})
        if not lo < hi:
            raise ValueError(f"{name} range needs min < max, got [{lo}, {hi}]")
        axes.append((lo, hi, steps))
    points = axes[0][2] * axes[1][2]
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {points} points exceeds {MAX_SWEEP_POINTS}")
    return axes


def _sweep_rows(plane, alphas, betas, outputs):
    """The grid one beta row at a time: the alpha coordinates (one list for all
    rows), beta, and a list per output name in column order. Region codes (of
    ``_PLANE_REGIONS``) and D, None off the entangled regions, take the rule of
    ``plane_distance``; the row's states, built unchecked, and their partial
    transposes are diagonalized as one stack each."""
    alpha_list, alpha_column = alphas.tolist(), alphas[:, None, None]
    ops = plane.operators()
    pt_ops = [partial_transpose(op, "B", plane.subdim) for op in ops]
    # each requested stack's operators and one array for all its rows: a new array
    # per row, once freed, would let the allocator return pages and fault them in again
    stacks = {o: (stack_ops, np.empty((len(alphas), *ops[0].shape), complex))
              for o, stack_ops in (("min_eigenvalue", ops), ("ppt_min_eigenvalue", pt_ops))
              if o in outputs}
    outputs = [o for o in _SWEEP_COLUMNS if o in outputs]
    for beta in betas.tolist():
        columns = {o: np.linalg.eigvalsh(plane.mix(alpha_column, beta, *stack))[:, 0].tolist()
                   for o, stack in stacks.items()}
        region, distance = _plane_distances(plane, alphas, beta)
        columns.update(region=region.tolist(), hs_measure=distance.tolist())
        yield alpha_list, beta, [columns[o] for o in outputs]


def _cmd_sweep(args) -> int:
    alpha_axis, beta_axis = _grid_axes(args.alpha, args.beta)
    grid = _sweep_rows(PLANES[args.family], np.linspace(*alpha_axis), np.linspace(*beta_axis),
                       args.outputs)
    names = ["alpha", "beta", *(col for o, col in _SWEEP_COLUMNS.items() if o in args.outputs)]
    # cells as the JSON or CSV document writes them: null or empty for None,
    # region labels quoted or bare
    as_json = args.format == "json"
    labels = [json.dumps(label.value) if as_json else label.value for label in _PLANE_REGIONS]

    def cells(name, column):
        # of the float columns only D holds None
        if name == "D":
            return _float_cells(column, "null" if as_json else "")
        return map(labels.__getitem__ if name == "region" else _fmt, column)

    def blocks():
        # one block per beta row; the alphas, alike in every row, are formatted once
        alpha_cells = None
        for alphas, beta, columns in grid:
            alpha_cells = alpha_cells or list(map(_fmt, alphas))
            yield zip(alpha_cells, repeat(_fmt(beta)), *map(cells, names[2:], columns))

    if as_json:
        # the bytes of _json_dumps({"family": ..., "columns": ..., "rows": rows}),
        # with one row template filled per grid point
        row = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in names) + "}"
        _emit(_json_blocks({"family": args.family, "columns": names}, "rows",
                           (", ".join(map(row.__mod__, rows)) for rows in blocks())), args.out)
    else:
        _emit(_csv_blocks(names, blocks()), args.out)
    return 0


def _selftest_checks(seed: int):
    from .bases import expand_standard_ggb, expand_standard_pob, expand_standard_wob, reconstruct
    from .bloch import bloch_decode
    from .linalg import hs_inner, hs_norm
    from .states import random_density_matrix

    rng = np.random.default_rng(seed)

    def orthogonality():
        worst = 0.0
        for d in range(2, 7):
            for kind in BasisKind:
                basis = get_basis(kind, d)
                stack = basis.stacked
                gram = np.einsum("iab,jab->ij", stack.conj(), stack)
                off = np.abs(gram - np.diag(np.diag(gram))).max()
                # the GGB identity has norm d, not N; T_00 and U_00 have norm N
                lo = 1 if kind is BasisKind.GGB else 0
                diag = np.abs(np.diag(gram).real[lo:] - basis.ortho_const).max()
                worst = max(worst, off, diag)
        return worst, 1e-12

    def expansions():
        worst = 0.0
        # the GGB and POB expansions count matrix indices from 1, the WOB one from 0
        for kind, expand, first in ((BasisKind.GGB, expand_standard_ggb, 1),
                                    (BasisKind.POB, expand_standard_pob, 1),
                                    (BasisKind.WOB, expand_standard_wob, 0)):
            for d in range(2, 5):
                for j, k in np.ndindex(d, d):
                    got = reconstruct(get_basis(kind, d), expand(d, j + first, k + first))
                    got[j, k] -= 1          # less the target, the matrix unit |j><k|
                    worst = max(worst, float(np.abs(got).max()))
        return worst, 1e-12

    def round_trip():
        worst = 0.0
        for d in range(2, 5):
            for kind in BasisKind:
                for _ in range(20):
                    rho = random_density_matrix(d, rng)
                    dec = bloch_decode(bloch_encode(rho, kind))
                    worst = max(worst, hs_norm(dec.matrix - rho.matrix))
        return worst, 1e-10

    def isotropic_identities():
        worst = 0.0
        for d in range(2, 5):
            res = hs_measure_isotropic(d, 0.9)
            expected = np.sqrt(d * d - 1.0) / d * (0.9 - 1.0 / (d + 1))
            worst = max(worst, abs(res.distance - expected),
                        abs(res.max_violation - res.distance),
                        abs(hs_inner(res.nearest_separable.matrix, res.witness.operator).real))
        return worst, 1e-10

    return [("basis orthogonality (d=2..6)", orthogonality),
            ("standard-matrix expansions (d=2..4)", expansions),
            ("Bloch round trip (d=2..4)", round_trip),
            ("isotropic measure identities (d=2..4)", isotropic_identities)]


def _cmd_selftest(args) -> int:
    # the oracle's seed rule, then the generator, so that a bad seed exits
    # before the table header
    GilbertConfig(seed=args.seed)
    checks = _selftest_checks(args.seed)
    failed = []

    def lines():
        yield f"{'check':<40} {'worst':>12} {'bound':>9} result\n"
        for name, fn in checks:
            worst, bound = fn()
            ok = worst <= bound
            failed.append(not ok)
            yield f"{name:<40} {worst:>12.3e} {bound:>9.0e} {'PASS' if ok else 'FAIL'}\n"

    _emit(lines(), None)
    return 2 if any(failed) else 0


def _add_family_arguments(parser, families) -> None:
    parser.add_argument("--family", required=True, choices=families)
    for name, kind in _PARAM_TYPES.items():
        parser.add_argument(f"--{name}", type=kind)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = _Parser(prog="quditbloch",
                     description="Operator bases, Bloch vectors, and entanglement geometry for qudits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="operator basis utilities")
    basis_sub = p_basis.add_subparsers(dest="basis_command", required=True)
    p_dump = basis_sub.add_parser("dump", help="emit all basis elements with labels")
    p_dump.add_argument("--kind", required=True, choices=[k.value for k in BasisKind])
    p_dump.add_argument("--dim", required=True, type=int)
    p_dump.add_argument("--format", default="json", choices=["json", "csv"])
    p_dump.add_argument("--out", default=None, metavar="FILE")
    p_dump.set_defaults(fn=_cmd_basis_dump)

    p_state = sub.add_parser("state", help="state construction")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_make = state_sub.add_parser("make", help="build a state and emit its matrix JSON")
    _add_family_arguments(p_make, list(_FAMILY_PARAMS))
    p_make.add_argument("--unchecked", action="store_true", default=None,
                        help="skip the physicality check (boundary studies)")
    p_make.add_argument("--out", default=None, metavar="FILE")
    p_make.set_defaults(fn=_cmd_state_make)

    p_dec = sub.add_parser("decompose", help="Bloch decomposition of a state file")
    p_dec.add_argument("--kind", required=True, choices=[k.value for k in BasisKind])
    p_dec.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_dec.add_argument("--convention", default="coeff", choices=["coeff", "expval"])
    p_dec.add_argument("--out", default=None, metavar="FILE")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_meas = sub.add_parser("measure", help="HS measure, witness, and region")
    _add_family_arguments(p_meas, _MEASURED)
    p_meas.add_argument("--oracle", action="store_true",
                        help="also run the numeric oracle at entangled points")
    p_meas.add_argument("--seed", type=int, help="the oracle's seed (default 0)")
    p_meas.add_argument("--out", default=None, metavar="FILE")
    p_meas.set_defaults(fn=_cmd_measure)

    p_sweep = sub.add_parser("sweep", help="parameter-plane sweep dataset")
    p_sweep.add_argument("--family", required=True, choices=list(PLANES))
    p_sweep.add_argument("--alpha", nargs=3, type=float, required=True,
                         metavar=("MIN", "MAX", "STEPS"))
    p_sweep.add_argument("--beta", nargs=3, type=float, required=True,
                         metavar=("MIN", "MAX", "STEPS"))
    p_sweep.add_argument("--outputs", nargs="+", default=list(_SWEEP_COLUMNS),
                         choices=list(_SWEEP_COLUMNS))
    p_sweep.add_argument("--format", default="csv", choices=["json", "csv"])
    p_sweep.add_argument("--out", default=None, metavar="FILE")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the built-in verification suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
