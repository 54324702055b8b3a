"""Two-parameter state planes: separability geometry datasets.

Sweeps the (alpha, beta) planes of the two-qubit and two-qutrit families with
the ``sweep`` subcommand, which writes figure-ready CSV files with the region
label, the Hilbert-Schmidt measure, and the eigenvalue diagnostics at every
grid point (17 significant digits, as every CLI output). Also spot-checks
the closed-form witnesses in both entangled regions, and exits non-zero
unless each of them is certified as a ``Witness``.
"""

import collections
import csv
import os

import quditbloch as qb
from quditbloch.cli import cli_main

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

# ---------------------------------------------------------------------------
# Sweep both planes through the CLI (these files plot directly with any CSV tool)
# ---------------------------------------------------------------------------
for family, a_rng, b_rng in (("qubit2p", (-1.3, 1.3, 105), (-2.2, 1.3, 141)),
                             ("qutrit2p", (-0.4, 1.1, 121), (-0.6, 1.2, 145))):
    path = os.path.join(OUT_DIR, f"{family}_plane.csv")
    if cli_main(["sweep", "--family", family, "--alpha", *map(repr, a_rng),
                 "--beta", *map(repr, b_rng), "--out", path]) != 0:
        raise SystemExit(f"sweep of {family} failed")
    with open(path, newline="") as fh:
        counts = collections.Counter(row["region"] for row in csv.DictReader(fh))
    print(f"{family}: {sum(counts.values())} grid points -> {path}")
    for label, count in sorted(counts.items()):
        print(f"  {label:<20} {count}")

# ---------------------------------------------------------------------------
# Closed forms at one representative point per region
# ---------------------------------------------------------------------------
verdicts = []
print("\nqubit plane:")
for alpha, beta in ((0.8, 0.1), (-0.7, -1.5)):
    label, res = qb.hs_measure_plane(qb.QUBIT_PLANE, alpha, beta)
    verdicts.append(res.witness.verdict)
    print(f"  ({alpha:+.2f}, {beta:+.2f}): {label.value:<18} D = {res.distance:.6f} "
          f"witness {res.witness.verdict.value}")

print("qutrit plane:")
for alpha, beta in ((0.6, 0.0), (0.1, 0.7)):
    label, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, alpha, beta)
    verdicts.append(res.witness.verdict)
    print(f"  ({alpha:+.2f}, {beta:+.2f}): {label.value:<18} D = {res.distance:.6f} "
          f"witness {res.witness.verdict.value}")
if any(verdict is not qb.WitnessVerdict.WITNESS for verdict in verdicts):
    raise SystemExit("expected a Witness verdict at every region point, got "
                     + ", ".join(verdict.value for verdict in verdicts))

# the nearest separable state always sits on the PPT boundary
label, res = qb.hs_measure_plane(qb.QUTRIT_PLANE, 0.6, 0.0)
_, pt_min = qb.ppt_verdict(res.nearest_separable)
print(f"\nnearest separable state of (0.6, 0.0): PT min eigenvalue {pt_min:+.2e}")

# and the numeric oracle, which uses no closed form or witness, agrees with it
res_num = qb.nearest_separable_numeric(qb.two_param_qutrit(0.6, 0.0))
print(f"oracle distance {res_num.distance:.8f} vs closed form {res.distance:.8f}")
