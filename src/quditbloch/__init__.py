"""quditbloch: operator bases, Bloch vectors, and Hilbert-Schmidt
entanglement geometry for d-dimensional quantum systems.

The package provides the generalized Gell-Mann, polarization, and Weyl
operator bases, Bloch-vector encoding/decoding of density matrices in any of
them, the Bell/isotropic and two-parameter state families, closed-form
Hilbert-Schmidt entanglement measures with optimal witnesses, and an
independent Frank-Wolfe numeric oracle for the nearest separable state.
The batch command line, ``quditbloch.cli.cli_main``, is a front end that
importing the package does not load.
"""

from .linalg import (
    TOL_HERM, TOL_PSD, TOL_TRACE, BipartiteState, DensityMatrix,
    as_hermitian, as_matrix, hs_inner, hs_norm, is_hermitian, is_psd,
    matrix_from_json, matrix_to_json, min_eigenvalue,
    partial_trace, partial_transpose, tensor,
)
from .cg import clebsch_gordan
from .bases import (
    BasisKind, OperatorBasis,
    expand_matrix, expand_standard_ggb, expand_standard_pob, expand_standard_wob,
    get_basis, ggb_basis, pob_basis, reconstruct, weyl_product, wob_basis,
)
from .bloch import (
    BipartiteBlochDecomposition, BlochVector, Convention, DecodeResult,
    bipartite_decompose, bloch_decode, bloch_encode, purity, radius_bound,
)
from .states import (
    PAULI, PLANES, QUBIT_PLANE, QUTRIT_PLANE, CompositeKind, COMPOSITE_NORMS, PlaneFamily,
    bell_state, composite_operator, isotropic_physical, isotropic_state,
    random_density_matrix, random_ket, sample_separable, two_param_qubit, two_param_qubit_pauli,
    two_param_qutrit, weyl_bell_projector,
)
from .entanglement import (
    TOL_WIT, HSMeasureResult, RegionLabel, WitnessMethod, WitnessReport,
    WitnessVerdict, classify_isotropic, classify_plane, classify_qubit_plane,
    classify_qutrit_plane, hs_measure_isotropic, hs_measure_plane, plane_distance,
    ppt_verdict, verify_witness, witness_candidate,
)
from .gilbert import (
    WEYL_DIAGONAL_TOL, GilbertConfig, GilbertResult, best_product_state,
    min_product_expectation, nearest_separable_numeric, nearest_separable_weyl,
)

__version__ = "0.1.0"
