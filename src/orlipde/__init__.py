"""Orlicz-space calculus and a parametrix-based local elliptic solver.

The package turns the classical machinery of N-functions, Orlicz norms,
Boyd indices, fundamental solutions and frozen-coefficient corrections into
runnable desk-scale numerics on periodized cube grids, together with a
declarative experiment CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    CalibrationError,
    CapabilityError,
    ConfigError,
    DivergenceError,
    EmbeddingWindowError,
    InvalidKernelError,
    InvalidYoungFunctionError,
    NotEllipticError,
    OrlipdeError,
    RangeError,
    ResolutionError,
    UnstableEstimateError,
)
from .grid import (
    GridDomain,
    GridFunction,
    ShiftVector,
    convolve,
    mollifier_kernel,
    read_grid_function,
    read_mask,
    shift,
    write_grid_function,
    write_mask,
)
from .kernels import (
    FundamentalSolution,
    SingularKernel,
    ball_integral,
    fundamental_solution,
    potential,
    shift_invariance_probe,
    singular_integral,
    singular_potential,
    verify_fundamental,
)
from .operators import (
    EllipticOperator,
    MultiIndex,
    bilaplacian,
    characteristic_form,
    coefficient_continuity_check,
    diff,
    ellipticity_check,
    freeze_leading,
    laplacian,
    multi_indices,
    second_order,
    sobolev_norms,
)
from .parametrix import (
    ContractionProfile,
    ParametrixOperator,
    SolveReport,
    bounded_multiplier_check,
    cap_bump,
    contraction_profile,
    neumann_solve,
)
from .space import (
    characteristic_norm_value,
    dual_norm_lower_bound,
    inequality_suite,
    l1_norm,
    luxemburg_norm,
    modular,
    mollify,
    orlicz_norm,
    pairing,
    shift_modulus,
)
from .young import (
    BoydIndices,
    Delta2Report,
    YoungFunction,
    boyd_indices,
    check_delta2,
    complementary,
    embedding_exponents,
    exp_young,
    from_density,
    power,
    power_log,
)
