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
    convolve,
    mollifier_kernel,
    read_grid_function,
    shift,
    write_grid_function,
)
from .kernels import (
    FundamentalSolution,
    fundamental_solution,
    potential_rows,
    verify_fundamental,
)
from .operators import (
    EllipticOperator,
    MultiIndex,
    characteristic_form,
    coefficient_continuity_check,
    combine,
    difference_rows,
    ellipticity_check,
    freeze_leading,
    multi_indices,
    sobolev_norms,
)
from .parametrix import (
    ContractionProfile,
    ParametrixOperator,
    SolveReport,
    contraction_profile,
    frozen_operator,
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
