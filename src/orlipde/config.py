"""Line-oriented experiment configuration: parsing, defaults, canonical hashing.

A config is a sequence of ``key = value`` lines plus repeated operator
coefficient lines ``coeff p=(p1,...,pn) expr=<expression>``.  Comments start
with ``#``.  Unknown keys are rejected with their line number.  Every run
echoes the fully resolved config (defaults materialized) so equal hashes
mean equal inputs.

``_SCHEMAS`` is the one place for each key's default, type and range, and
``parse_config`` checks every value, so a config error is raised before a
run writes anything; only grid samples (data, coefficients) are checked later.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import young as young_mod
from .errors import ConfigError, InvalidYoungFunctionError
from .expressions import compile_expression
from .grid import GridFunction, read_grid_function
from .operators import EllipticOperator, coefficient_name
from .parametrix import PAD, PROFILE_N

# sizes (cube sides, radii, widths) and |coordinates| stay within these, so
# that their squares and products neither overflow nor underflow
SIZE_RANGE = (1e-30, 1e30)
COORDINATE_BOUND = 1e100
# |x0_i| <= LATTICE_REACH * h for the finest lattice spacing h of a solve, so
# that the node coordinates x0_i + k h keep h to about 1e-6 relative
LATTICE_REACH = 2**32


def _typed(convert, ok, expects):
    """A key type: text that ``convert`` takes to a value ``ok`` accepts; else ConfigError."""

    def parse(key, text):
        try:
            value = convert(text)
            accepted = ok(value)
        except ValueError:
            accepted = False
        if not accepted:
            raise ConfigError(f"key {key} expects {expects}, got {text}")
        return value

    return parse


def _numbers(text):
    """Comma-separated numbers; none for an empty text."""
    return [float(t) for t in text.split(",")] if text else []


def _is_size(v):
    return SIZE_RANGE[0] <= v <= SIZE_RANGE[1]


def _are_coordinates(vs):
    return all(abs(v) <= COORDINATE_BOUND for v in vs)


_IN_SIZE_RANGE = "in [{:g}, {:g}]".format(*SIZE_RANGE)
_IN_COORDINATES = f"in [{-COORDINATE_BOUND:g}, {COORDINATE_BOUND:g}]"
_INTEGER = _typed(int, lambda v: True, "an integer")
_COUNT = _typed(int, lambda v: v >= 1, "an integer >= 1")
_DIMENSION = _typed(int, lambda v: v in (1, 2, 3), "1, 2 or 3")
_SIZE = _typed(float, _is_size, f"a number {_IN_SIZE_RANGE}")
_SIZES = _typed(_numbers, lambda vs: all(map(_is_size, vs)), f"numbers {_IN_SIZE_RANGE}")
_COORDINATES = _typed(_numbers, _are_coordinates, f"numbers {_IN_COORDINATES}")
_CELLS = _typed(
    lambda text: [int(t) for t in text.split(",")] if text else [],
    _are_coordinates,
    f"integers {_IN_COORDINATES}",
)
_TOLERANCE = _typed(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_AUTO = _typed(str, lambda v: v == "auto", "auto")
_TEXT = _typed(str, lambda v: True, "text")

# (default, type) per key and command; a None default marks a required key
_COMMON = {"seed": ("0", _INTEGER), "young": ("power:p=2", lambda key, spec: build_young(spec))}
_GRID = {
    **_COMMON,
    "n": ("1", _DIMENSION),
    "grid.N": ("64", _INTEGER),
    "d": ("2.0", _SIZE),
    "f": (None, _TEXT),
}
_SOLVE = {
    **_COMMON,
    "n": ("2", _DIMENSION),
    "grid.N": ("64", _INTEGER),
    "r": ("0.2", _SIZE),
    "x0": ("", _COORDINATES),
    "tol": ("1e-6", _TOLERANCE),
    "k_max": ("200", _COUNT),
    # the only value, the fundamental solution of the frozen L0; the key
    # stays so that configs which set it keep their hash
    "kernel": ("auto", _AUTO),
    "f": (None, _TEXT),
    "radii": ("0.4,0.2,0.1,0.05", _SIZES),
    "probes": ("8", _COUNT),
}
_SCHEMAS = {
    "young": _COMMON,
    # deltas (norms, shift): shifts along the first axis, in whole cells of width d / grid.N
    "norms": {**_GRID, "g": ("", _TEXT), "deltas": ("8,4,2,1", _CELLS), "trials": ("8", _COUNT)},
    # contraction reads the solve schema, and renders and hashes as itself
    "solve": _SOLVE,
    "contraction": _SOLVE,
    "mollify": {**_GRID, "eps": ("0.2", _SIZE)},
    "shift": {**_GRID, "deltas": ("8,4,2,1", _CELLS)},
}

_COEFF_LINE = re.compile(r"coeff\s+p=\(([^)]*)\)\s+expr=(.+)")


@dataclass
class ExperimentConfig:
    """A checked config.

    ``cfg[key]`` is a key's parsed value and ``values`` holds its text, which
    ``render`` and ``hash`` read; ``operator`` is None but for solve and contraction.
    """

    command: str
    values: dict
    coeff_lines: list
    parsed: dict
    operator: EllipticOperator | None

    def __getitem__(self, key):
        return self.parsed[key]

    def render(self):
        """Canonical text: sorted keys, then coefficient lines in input order."""
        lines = [f"command = {self.command}"]
        for key in sorted(self.values):
            lines.append(f"{key} = {self.values[key]}")
        lines.extend(self.coeff_lines)
        return "\n".join(lines) + "\n"

    def hash(self):
        return hashlib.sha256(self.render().encode()).hexdigest()


def parse_config(text, command, overrides=None):
    """Parse config text for a command, applying defaults and overrides.

    Every value is parsed by its key's type, then the rules that join two
    keys are checked and the operator is built; any fault raises ConfigError.
    """
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = _SCHEMAS[command]
    values = {}
    coeff_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _COEFF_LINE.fullmatch(line)
        if m:
            coeff_lines.append(line)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = value
    for key, value in (overrides or {}).items():
        if key not in schema:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = str(value)
    for key, (default, _) in schema.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"missing required key {key!r} for command {command}")
            values[key] = default
    parsed = {key: kind(key, values[key]) for key, (_, kind) in schema.items()}
    operator = None
    if schema is _SOLVE:  # solve and contraction
        n, N = parsed["n"], parsed["grid.N"]
        operator = build_operator(n, coeff_lines)
        if command == "solve" and N < 4 * operator.m:
            raise ConfigError(
                f"grid: solve needs grid.N >= {4 * operator.m} for the order-{operator.m} "
                f"difference stencils, got {N}"
            )
        parsed["x0"] = parsed["x0"] or [0.0] * n
        if len(parsed["x0"]) != n:
            raise ConfigError(f"key x0 expects {n} coordinates, got {len(parsed['x0'])}")
        # the finest lattice the command builds: a profile radius's, or for
        # solve its grid's or that of the profile at r
        spacings = [PAD * rho / PROFILE_N for rho in parsed["radii"]]
        if command == "solve":
            spacings.append(PAD * parsed["r"] / max(N, PROFILE_N))
        h = min(spacings, default=math.inf)
        if any(abs(c) > LATTICE_REACH * h for c in parsed["x0"]):
            raise ConfigError(
                f"key x0 expects |entries| <= 2^32 h = {LATTICE_REACH * h:g} for the finest "
                f"lattice spacing h = {h:g}, got {values['x0']}"
            )
    elif "d" in parsed and parsed["grid.N"] < 4:  # a grid command
        raise ConfigError("grid: need at least 4 points per axis")
    return ExperimentConfig(command, values, coeff_lines, parsed, operator)


def load_config(path, command, overrides=None):
    with open(path) as fh:
        return parse_config(fh.read(), command, overrides)


# -- builders -----------------------------------------------------------------


def build_young(spec):
    """young = power:p=3 | power-log:p=2 | exp | table:<path>.

    A table file that cannot be read as two columns t,p(t) and a parameter
    the family rejects raise ConfigError naming the spec.
    """
    spec = spec.strip()
    try:
        if spec == "exp":
            return young_mod.exp_young()
        if spec.startswith("power-log:"):
            return young_mod.power_log(_param(spec, "p"))
        if spec.startswith("power:"):
            return young_mod.power(_param(spec, "p"))
        if spec.startswith("table:"):
            path = spec.split(":", 1)[1]
            data = _density_table(spec, path)
            return young_mod.from_density(data[:, 0], data[:, 1], name=f"table:{path}")
    except InvalidYoungFunctionError as exc:
        raise ConfigError(f"young function spec {spec!r}: {exc}") from exc
    raise ConfigError(f"cannot parse young function spec {spec!r}")


def _density_table(spec, path):
    """The (t, p(t)) rows of a density table file, as an array with two columns."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not by numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"young function spec {spec!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"young function spec {spec!r}: expected two columns t,p(t)")
    return data


def _param(spec, name):
    body = spec.split(":", 1)[1]
    for part in body.split(":"):
        k, _, v = part.partition("=")
        if k.strip() == name:
            try:
                return float(v)
            except ValueError as exc:
                raise ConfigError(f"bad parameter {part!r} in {spec!r}") from exc
    raise ConfigError(f"young spec {spec!r} misses parameter {name}")


def build_operator(n, coeff_lines):
    """Operator in n variables from its coefficient lines.

    An index that is not n integers >= 0 raises ConfigError naming the
    coefficient as written.
    """
    if not coeff_lines:
        raise ConfigError("no coefficient lines; the operator is undefined")
    coeffs = {}
    for line in coeff_lines:
        m = _COEFF_LINE.fullmatch(line)
        try:
            idx = tuple(int(t) for t in m.group(1).split(","))
        except ValueError:
            idx = ()
        if len(idx) != n or min(idx) < 0:
            raise ConfigError(f"coefficient p=({m.group(1)}): expects {n} integers >= 0")
        expr = m.group(2).strip()
        if idx in coeffs:
            raise ConfigError(f"duplicate coefficient for index {idx}")
        try:
            coeffs[idx] = float(expr)
        except ValueError:
            coeffs[idx] = compile_expression(expr, n, coefficient_name(idx))
    m_order = max(sum(p) for p in coeffs)
    if m_order % 2 or m_order < 2:
        raise ConfigError(f"operator order must be even and >= 2, got {m_order}")
    return EllipticOperator(n, m_order, coeffs)


def build_field(spec, domain, operator=None, restrict=True):
    """f = expr:<expression> | file:<path> | manufactured:<expression>.

    Returns (field, manufactured_reference): for the manufactured form, the
    reference solution is the sampled expression and the field is the
    operator applied to it.  A non-finite sample of either raises
    ConfigError naming the first such node.
    """
    spec = spec.strip()
    what = f"data {spec!r}"
    if spec.startswith("expr:"):
        fn = compile_expression(spec[5:], domain.n, what)
        return GridFunction.from_callable(domain, fn, restrict=restrict).require_finite(what), None
    if spec.startswith("file:"):
        g = read_grid_function(spec[5:])
        if g.domain.N != domain.N or g.domain.n != domain.n:
            raise ConfigError("grid file geometry does not match the configured grid")
        out = GridFunction(domain, g.values)
        return (out.restricted() if restrict else out).require_finite(what), None
    if spec.startswith("manufactured:"):
        if operator is None:
            raise ConfigError("manufactured data requires an operator")
        fn = compile_expression(spec[len("manufactured:"):], domain.n, what)
        reference = GridFunction.from_callable(domain, fn, restrict=True).require_finite(what)
        f = operator.apply(reference).restricted()
        return f.require_finite(f"the operator applied to {spec!r}"), reference
    raise ConfigError(f"cannot parse data spec {spec!r}")
