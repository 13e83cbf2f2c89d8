"""Orlicz-space calculus and a parametrix-based local elliptic solver.

The package turns the classical machinery of N-functions, Orlicz norms,
Boyd indices, fundamental solutions and frozen-coefficient corrections into
runnable desk-scale numerics on periodized cube grids, together with a
declarative experiment CLI.

The exports are lazy (PEP 562): ``from orlipde import X`` imports the one
module of ``_EXPORTS`` that defines X, and ``import orlipde`` imports none.
So a command loads only the modules it runs:

- ``young``, ``norms``, ``shift`` and ``mollify`` load ``cli``, ``config``,
  ``errors``, ``expressions``, ``grid``, ``space`` and ``young``;
- ``solve`` and ``contraction`` also load the solver stack (``operators``,
  ``kernels``, ``parametrix``), inside ``load_config``.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, imported on first access
_EXPORTS = {
    "errors": (
        "BracketError",
        "CalibrationError",
        "CapabilityError",
        "ConfigError",
        "DivergenceError",
        "EmbeddingWindowError",
        "InvalidYoungFunctionError",
        "NotEllipticError",
        "OrlipdeError",
        "RangeError",
        "ResolutionError",
        "UnstableEstimateError",
    ),
    "grid": (
        "GridDomain",
        "GridFunction",
        "convolve",
        "mollifier_kernel",
        "read_grid_function",
        "shift",
        "write_grid_function",
    ),
    "kernels": (
        "FundamentalSolution",
        "fundamental_solution",
        "potential_rows",
        "verify_fundamental",
    ),
    "operators": (
        "EllipticOperator",
        "MultiIndex",
        "characteristic_form",
        "coefficient_continuity_check",
        "combine",
        "difference_rows",
        "ellipticity_check",
        "multi_indices",
        "sobolev_norms",
    ),
    "parametrix": (
        "ContractionProfile",
        "ParametrixOperator",
        "SolveReport",
        "contraction_profile",
        "frozen_operator",
    ),
    "space": (
        "characteristic_norm_value",
        "dual_norm_lower_bound",
        "inequality_suite",
        "l1_norm",
        "luxemburg_norm",
        "modular",
        "mollify",
        "orlicz_norm",
        "pairing",
        "shift_modulus",
    ),
    "young": (
        "BoydIndices",
        "Delta2Report",
        "YoungFunction",
        "boyd_indices",
        "check_delta2",
        "complementary",
        "embedding_exponents",
        "exp_young",
        "from_density",
        "power",
        "power_log",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
