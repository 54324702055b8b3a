"""Batch command-line front end.

Subcommands: ``basis dump``, ``state make``, ``decompose``, ``measure``,
``sweep``, ``selftest``. JSON goes to stdout as a single document, logs to
stderr. Exit codes: 0 success, 1 usage error, 2 domain/contract error.
Floats are emitted with 17 significant digits so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

from .bases import BasisKind, get_basis
from .bloch import Convention, bloch_encode, purity
from .entanglement import (RegionLabel, classify_isotropic, hs_measure_isotropic,
                           hs_measure_plane, plane_distance)
from .gilbert import GilbertConfig, nearest_separable_numeric
from .linalg import (as_hermitian, is_psd, matrix_from_json, matrix_to_json,
                     partial_transpose)
from .states import PLANES, bell_state, isotropic_state, weyl_bell_projector


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-5.5e-05" for an option; read it as a number, as it
        # reads "-5.5"
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text(header, records) -> str:
    """CSV with 17-significant-digit floats and empty cells for None."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow(["" if v is None else _fmt(v) if isinstance(v, float) else v
                         for v in rec])
    return out.getvalue()


def _json_dumps(obj) -> str:
    """JSON with fixed 17-significant-digit float formatting."""
    out = io.StringIO()
    _write_json(obj, out)
    return out.getvalue()


def _write_json(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif obj is True or obj is False:
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(k)))
            out.write(": ")
            _write_json(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(", ")
            _write_json(v, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _label_str(label) -> str:
    return ":".join(str(x) for x in label)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
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
    basis = get_basis(args.kind, args.dim)
    if args.format == "json":
        doc = {
            "kind": basis.kind.value,
            "dim": basis.dim,
            "ortho_const": basis.ortho_const,
            "elements": [
                {"label": _label_str(lab), "matrix": matrix_to_json(el)}
                for lab, el in zip(basis.labels, basis.elements)
            ],
        }
        _emit(_json_dumps(doc) + "\n", args.out)
    else:
        _emit(_csv_text(["label", "row", "col", "re", "im"],
                        ([_label_str(lab), r, c, el[r, c].real, el[r, c].imag]
                         for lab, el in zip(basis.labels, basis.elements)
                         for r in range(basis.dim) for c in range(basis.dim))), args.out)
    return 0


def _make_state(args):
    fam = args.family
    checked = not args.unchecked
    if fam == "bell":
        return bell_state(args.dim)
    if fam == "isotropic":
        if args.alpha is None:
            raise _UsageError("--alpha is required for isotropic states")
        return isotropic_state(args.dim, args.alpha, checked=checked)
    if fam in PLANES:
        if args.alpha is None or args.beta is None:
            raise _UsageError(f"--alpha and --beta are required for {fam}")
        return PLANES[fam].state(args.alpha, args.beta, checked=checked)
    if fam == "weylproj":
        if args.n is None or args.k is None:
            raise _UsageError("--n and --k are required for weylproj")
        return weyl_bell_projector(args.dim, args.n, args.k)
    raise _UsageError(f"unknown family {fam!r}")


def _cmd_state_make(args) -> int:
    state = _make_state(args)
    _emit(_json_dumps(matrix_to_json(state.matrix)) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    mat = as_hermitian(_read_matrix(args.infile), "input state")
    tr = np.trace(mat)
    if abs(tr - 1.0) > 1e-8:
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
    fam = args.family
    if fam == "isotropic":
        if args.alpha is None:
            raise _UsageError("--alpha is required")
        label = classify_isotropic(args.dim, args.alpha)
        entangled = label is RegionLabel.ENTANGLED
        result = hs_measure_isotropic(args.dim, args.alpha) if entangled else None
        make_state = functools.partial(isotropic_state, args.dim, args.alpha)
    else:
        if args.alpha is None or args.beta is None:
            raise _UsageError("--alpha and --beta are required")
        plane = PLANES[fam]
        label, result = hs_measure_plane(plane, args.alpha, args.beta)
        make_state = functools.partial(plane.state, args.alpha, args.beta)

    doc = {"family": fam, "alpha": args.alpha, "region": label.value}
    if fam != "isotropic":
        doc["beta"] = args.beta
    else:
        doc["dim"] = args.dim
    if result is not None:
        doc["D"] = result.distance
        doc["B"] = result.max_violation
        doc["rho0"] = matrix_to_json(result.nearest_separable.matrix)
        doc["witness"] = _witness_json(result.witness)
        if args.oracle:
            cfg = GilbertConfig(seed=args.seed)
            doc["oracle_D"] = nearest_separable_numeric(make_state(), cfg).distance
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

# run_sweep holds every row in memory and the writers build the whole output
# before emitting it, roughly 1 kB per point all told, so grids are capped.
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """Grid over the (alpha, beta) plane of a two-parameter family."""

    family: str                        # a key of states.PLANES
    alpha_range: tuple[float, float, int]
    beta_range: tuple[float, float, int]
    outputs: tuple[str, ...] = tuple(_SWEEP_COLUMNS)

    def __post_init__(self):
        if self.family not in PLANES:
            raise ValueError(f"unknown sweep family {self.family!r}")
        for name, (lo, hi, steps) in (("alpha", self.alpha_range), ("beta", self.beta_range)):
            if not (isinstance(steps, numbers.Integral) and steps >= 2):
                raise ValueError(f"{name} steps must be an integer >= 2, got {steps!r}")
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} range needs finite min < max, got [{lo}, {hi}]")
        points = self.alpha_range[2] * self.beta_range[2]
        if points > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep grid of {points} points exceeds {MAX_SWEEP_POINTS}")
        bad = set(self.outputs) - _SWEEP_COLUMNS.keys()
        if bad:
            raise ValueError(f"unknown sweep outputs: {sorted(bad)}")


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point, beta-major order.

    ``D`` is None for separable and unphysical points; eigenvalue columns are
    computed from the unchecked construction so unphysical points are probed
    too. Each beta row of states and of their partial transposes is built
    as one stack and diagonalized in one call; every value equals the one
    of the single-point functions bit for bit.
    """
    plane = PLANES[spec.family]
    alphas = np.linspace(*spec.alpha_range[:2], spec.alpha_range[2])
    betas = np.linspace(*spec.beta_range[:2], spec.beta_range[2])
    ops = plane.operators()[:3]
    pt_ops = [partial_transpose(op, "B", plane.subdim) for op in ops]
    column = alphas[:, None, None]
    rows = []
    for beta in betas.tolist():
        min_eigs = np.linalg.eigvalsh(plane.mix(column, beta, ops))[:, 0].tolist()
        pt_min_eigs = np.linalg.eigvalsh(plane.mix(column, beta, pt_ops))[:, 0].tolist()
        for alpha, min_eig, pt_min_eig in zip(alphas.tolist(), min_eigs, pt_min_eigs):
            label, distance = plane_distance(plane, alpha, beta)
            values = {"region": label.value, "hs_measure": distance,
                      "min_eigenvalue": min_eig, "ppt_min_eigenvalue": pt_min_eig}
            row = {"alpha": alpha, "beta": beta}
            row.update((_SWEEP_COLUMNS[o], v) for o, v in values.items() if o in spec.outputs)
            rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    def grid_range(lo, hi, steps):
        return lo, hi, int(steps) if steps.is_integer() else steps

    spec = SweepSpec(args.family, grid_range(*args.alpha), grid_range(*args.beta),
                     tuple(args.outputs))
    rows = run_sweep(spec)
    columns = ["alpha", "beta"] + [col for o, col in _SWEEP_COLUMNS.items() if o in spec.outputs]
    if args.format == "json":
        doc = {"family": spec.family, "columns": columns, "rows": rows}
        _emit(_json_dumps(doc) + "\n", args.out)
    else:
        _emit(_csv_text(columns, ([row.get(col) for col in columns] for row in rows)), args.out)
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
        for d in range(2, 5):
            for j in range(1, d + 1):
                for k in range(1, d + 1):
                    target = np.zeros((d, d), dtype=complex)
                    target[j - 1, k - 1] = 1
                    for kind, expand in ((BasisKind.GGB, expand_standard_ggb),
                                         (BasisKind.POB, expand_standard_pob)):
                        got = reconstruct(get_basis(kind, d), expand(d, j, k))
                        worst = max(worst, float(np.abs(got - target).max()))
                    got = reconstruct(get_basis(BasisKind.WOB, d),
                                      expand_standard_wob(d, j - 1, k - 1))
                    worst = max(worst, float(np.abs(got - target).max()))
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
    failures = 0
    print(f"{'check':<40} {'worst':>12} {'bound':>9} result", file=sys.stdout)
    for name, fn in _selftest_checks(args.seed):
        worst, bound = fn()
        ok = worst <= bound
        failures += 0 if ok else 1
        print(f"{name:<40} {worst:>12.3e} {bound:>9.0e} {'PASS' if ok else 'FAIL'}")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
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
    p_make.add_argument("--family", required=True,
                        choices=["bell", "isotropic", *PLANES, "weylproj"])
    p_make.add_argument("--dim", type=int, default=2)
    p_make.add_argument("--alpha", type=float, default=None)
    p_make.add_argument("--beta", type=float, default=None)
    p_make.add_argument("--n", type=int, default=None)
    p_make.add_argument("--k", type=int, default=None)
    p_make.add_argument("--unchecked", action="store_true",
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
    p_meas.add_argument("--family", required=True,
                        choices=["isotropic", *PLANES])
    p_meas.add_argument("--dim", type=int, default=2)
    p_meas.add_argument("--alpha", type=float, default=None)
    p_meas.add_argument("--beta", type=float, default=None)
    p_meas.add_argument("--oracle", action="store_true",
                        help="also run the numeric nearest-separable oracle")
    p_meas.add_argument("--seed", type=int, default=0)
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
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
