"""Numerical toolkit for radius and matricial-range computations on dense
complex matrices: support-function radius evaluation, extremal operator
factorizations, explicit unitary and nilpotent power dilations, completely
positive map construction through Choi-matrix feasibility, spectral
factorization of trigonometric polynomials, and circle moment problems.
"""

__version__ = "0.1.0"

from .ando import AndoDecomposition, ando_X, ando_decompose, radius_lmi, ucp_from_e21
from .cpmaps import (
    ChoiMat,
    Feasible,
    KrausSet,
    MapOnUnits,
    StinespringForm,
    Undetermined,
    amplify,
    apply_map,
    choi,
    cstar_convex,
    identity_map,
    is_cp,
    kraus_from_choi,
    map_from_choi,
    map_on_units,
    solve_feasibility,
    solve_map_problem,
    stinespring,
    transpose_map,
)
from .dilation import (
    BilateralModelReport,
    NilpotentDilation,
    WindowedOperator,
    bilateral_e21_model,
    halmos_unitary,
    halved_power_blocks,
    nilpotent_condition,
    nilpotent_dilation,
    pd_function_check,
    two_dilation,
)
from .linalg import (
    EigResult,
    Tolerances,
    default_tolerances,
    direct_sum,
    herm_eig,
    kron,
    matrix_unit,
    op_norm,
    pinv,
    psd_check,
    random_hermitian,
    random_isometry,
    random_matrix,
    shift,
    sqrt_psd,
)
from .matrange import (
    EquivalenceReport,
    MembershipVerdict,
    ProbeReport,
    equivalence_suite,
    member_e21,
    member_normal,
    member_shift_ball,
    opsys_probe,
    smith_ward_nu,
    spatial_samples,
)
from .numrange import RadiusReport, num_radius, radius_characterizations, range_boundary
from .toeplitz import (
    AtomicMeasure,
    BlockToeplitzSpec,
    ToeplitzSpec,
    TrigPoly,
    block_measure_from_toeplitz,
    fejer_riesz,
    measure_from_toeplitz,
    toeplitz_assemble,
    toeplitz_from_measure,
    toeplitz_psd,
    trig_poly_from_factor,
)
