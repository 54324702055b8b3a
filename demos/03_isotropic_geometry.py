"""Entanglement geometry of isotropic two-qudit states.

For alpha above 1/(d+1) the isotropic state is entangled; the nearest
separable state sits on that boundary and everything (distance, optimal
witness, maximal inequality violation) has a closed form. The script checks
those identities numerically, exits non-zero unless the witness agrees with
its GGB, POB and WOB forms to 1e-12, and cross-validates the distance with
the Frank-Wolfe oracle.
"""

import numpy as np

import quditbloch as qb

# ---------------------------------------------------------------------------
# Distance to the separable set as a function of alpha
# ---------------------------------------------------------------------------
for d in (2, 3):
    print(f"d = {d}: separability threshold alpha0 = 1/{d + 1}")
    for alpha in (0.5, 0.75, 1.0):
        if alpha <= 1 / (d + 1):
            continue
        res = qb.hs_measure_isotropic(d, alpha)
        print(f"  alpha = {alpha:4.2f}: D = {res.distance:.6f}, "
              f"B = {res.max_violation:.6f}, witness: {res.witness.verdict.value}")

# ---------------------------------------------------------------------------
# The optimal-witness identities: D = B = -<rho_ent, A_opt>, <rho_0, A_opt> = 0
# ---------------------------------------------------------------------------
d, alpha = 3, 0.9
res = qb.hs_measure_isotropic(d, alpha)
rho_ent = qb.isotropic_state(d, alpha)
a_opt = res.witness.operator
print(f"\nd = {d}, alpha = {alpha}:")
print(f"  D                    = {res.distance:.12f}")
print(f"  ||rho0 - rho_ent||   = {qb.hs_norm(res.nearest_separable.matrix - rho_ent.matrix):.12f}")
print(f"  -<rho_ent, A_opt>    = {-qb.hs_inner(rho_ent.matrix, a_opt).real:.12f}")
print(f"  <rho0, A_opt>        = {qb.hs_inner(res.nearest_separable.matrix, a_opt).real:+.2e}")

# the witness looks the same in all three bases
shift = np.sqrt((d - 1) / (d + 1)) / d * np.eye(d * d)
forms = {
    "GGB": shift - qb.composite_operator("lambda", d) / (2 * np.sqrt(d * d - 1)),
    "POB": shift - qb.composite_operator("t", d) / np.sqrt(d * d - 1),
    "WOB": shift - qb.composite_operator("u", d) / (d * np.sqrt(d * d - 1)),
}
errors = {name: np.abs(a_opt - form).max() for name, form in forms.items()}
for name, error in errors.items():
    print(f"  A_opt vs {name} form: {error:.2e}")
if max(errors.values()) > 1e-12:
    raise SystemExit(f"A_opt differs from a basis form by more than 1e-12: {errors}")

# ---------------------------------------------------------------------------
# PPT transition located numerically
# ---------------------------------------------------------------------------
for d in (2, 3, 4):
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if qb.ppt_verdict(qb.isotropic_state(d, mid))[1] > 0 else (lo, mid)
    print(f"d = {d}: PPT flips at alpha = {(lo + hi) / 2:.9f} (exact {1 / (d + 1):.9f})")

# ---------------------------------------------------------------------------
# Independent check: conditional-gradient projection onto the separable set
# ---------------------------------------------------------------------------
print("\nFrank-Wolfe oracle vs closed form:")
for d, alpha in ((2, 1.0), (3, 0.8)):
    res = qb.nearest_separable_numeric(qb.isotropic_state(d, alpha))
    closed = qb.hs_measure_isotropic(d, alpha).distance
    print(f"  d = {d}, alpha = {alpha}: numeric {res.distance:.8f} vs closed {closed:.8f} "
          f"(converged: {res.converged}, {res.iterations} iterations)")
