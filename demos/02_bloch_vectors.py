"""Bloch vectors for qudits.

Encodes density matrices into the three bases, demonstrates the two
component conventions, the purity/radius relation, decoding of non-physical
vectors, and the local/correlation split of bipartite states.
"""

import numpy as np

import quditbloch as qb
from quditbloch import Convention

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# Encoding a qutrit state
# ---------------------------------------------------------------------------
rho = qb.random_density_matrix(3, rng)
for kind in ("ggb", "pob", "wob"):
    vec = qb.bloch_encode(rho, kind)
    bound = qb.radius_bound(kind, 3)
    print(f"{kind}: |b| = {vec.radius:.6f}  (pure-state bound {bound:.6f})")
    dec = qb.bloch_decode(vec)
    print(f"     decode residual {qb.hs_norm(dec.matrix - rho.matrix):.2e}, "
          f"physical: {qb.is_psd(dec.matrix)}")

purity = qb.purity(rho)
vec = qb.bloch_encode(rho, "wob")
print(f"\npurity {purity:.6f} == 1/d + N |b|^2 = {1 / 3 + 3 * vec.radius ** 2:.6f}")

# expectation-value components of the Hermitian basis are real
ev = qb.bloch_encode(rho, "ggb", Convention.EXPECTATION)
print("max |Im| of GGB expectation components:", np.abs(ev.components.imag).max())

# ---------------------------------------------------------------------------
# Not every vector in the hypersphere is a state: a radius-saturating vector
# along a diagonal direction decodes to a matrix with a negative eigenvalue
# ---------------------------------------------------------------------------
labels = qb.ggb_basis(3).labels[1:]
comp = np.zeros(8)
comp[labels.index(("l", 1))] = np.sqrt(1 / 3)
dec = qb.bloch_decode(qb.BlochVector(qb.BasisKind.GGB, 3, Convention.EXPANSION, comp, labels))
print(f"\nhypersphere-surface vector along ('l', 1): physical = {qb.is_psd(dec.matrix)}, "
      f"min eigenvalue = {np.linalg.eigvalsh(dec.matrix)[0]:+.4f}")

# ---------------------------------------------------------------------------
# Bipartite decomposition: isotropic states have no local parts and a
# one-pairing-per-row correlation matrix in the Weyl basis
# ---------------------------------------------------------------------------
iso = qb.isotropic_state(3, 0.6)
dec = qb.bipartite_decompose(iso, "wob")
print(f"\nisotropic state, WOB: |local_a| = {np.abs(dec.local_a).max():.2e}, "
      f"|local_b| = {np.abs(dec.local_b).max():.2e}")
nz = np.argwhere(np.abs(dec.correlation) > 1e-12)
labels = qb.wob_basis(3).labels[1:]
print("nonzero correlation pairs (value alpha/d^2 = 0.0667):")
for i, j in nz[:4]:
    print(f"  U_{labels[i]} (x) U_{labels[j]} -> {dec.correlation[i, j].real:.4f}")
print(f"  ... {len(nz)} pairs in total")

print(f"reconstruction residual: {np.abs(dec.reconstruct() - iso.matrix).max():.2e}")
