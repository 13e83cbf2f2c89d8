"""Line-oriented experiment configuration: parsing, defaults, canonical hashing.

A config is a sequence of ``key = value`` lines plus repeated operator
coefficient lines ``coeff p=(p1,...,pn) expr=<expression>``.  Comments start
with ``#``.  Unknown keys are rejected with their line number.  Every run
echoes the fully resolved config (defaults materialized) so equal hashes
mean equal inputs.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import young as young_mod
from .errors import ConfigError, InvalidYoungFunctionError
from .expressions import compile_expression
from .grid import GridFunction, read_grid_function
from .operators import EllipticOperator

# defaults per command; a None default marks a required key
_COMMON = {"seed": "0", "young": "power:p=2"}
_SCHEMAS = {
    "young": {**_COMMON},
    "norms": {
        **_COMMON,
        "n": "1",
        "grid.N": "64",
        "d": "2.0",
        "f": None,
        "g": "",
        "deltas": "8,4,2,1",
        "trials": "8",
    },
    "solve": {
        **_COMMON,
        "n": "2",
        "grid.N": "64",
        "r": "0.2",
        "x0": "",
        "tol": "1e-6",
        "k_max": "200",
        # the only value, the fundamental solution of the frozen L0; the key
        # stays so that configs which set it keep their hash
        "kernel": "auto",
        "f": None,
        "radii": "0.4,0.2,0.1,0.05",
        "probes": "8",
    },
    "mollify": {
        **_COMMON,
        "n": "1",
        "grid.N": "64",
        "d": "2.0",
        "f": None,
        "eps": "0.2",
    },
    "shift": {
        **_COMMON,
        "n": "1",
        "grid.N": "64",
        "d": "2.0",
        "f": None,
        "deltas": "8,4,2,1",
    },
}

_COEFF_LINE = re.compile(r"coeff\s+p=\(([^)]*)\)\s+expr=(.+)")


@dataclass
class ExperimentConfig:
    command: str
    values: dict
    coeff_lines: list = field(default_factory=list)

    def get(self, key):
        return self.values[key]

    def get_float(self, key):
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"key {key} expects a number, got {self.values[key]!r}") from exc

    def get_int(self, key):
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"key {key} expects an integer, got {self.values[key]!r}") from exc

    def get_count(self, key):
        """An integer >= 1, such as a number of probes or trials."""
        value = self.get_int(key)
        if value < 1:
            raise ConfigError(f"key {key} expects an integer >= 1, got {value}")
        return value

    def get_floats(self, key):
        """Comma-separated finite numbers, such as shifts; none for an empty value."""
        text = self.values[key].strip()
        if not text:
            return []
        try:
            values = [float(t) for t in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"key {key} expects comma-separated numbers") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"key {key} expects finite numbers, got {text}")
        return values

    def get_size(self, key):
        """A finite number > 0, such as a radius."""
        value = self.get_float(key)
        if not 0.0 < value < np.inf:
            raise ConfigError(f"key {key} expects a finite number > 0, got {self.values[key]}")
        return value

    def get_sizes(self, key):
        """Comma-separated finite numbers > 0, such as radii."""
        values = self.get_floats(key)
        if not all(v > 0.0 for v in values):
            raise ConfigError(f"key {key} expects finite numbers > 0, got {self.values[key]}")
        return values

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
    """Parse config text for a command, applying defaults and overrides."""
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
    for key, default in schema.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"missing required key {key!r} for command {command}")
            values[key] = default
    return ExperimentConfig(command=command, values=values, coeff_lines=coeff_lines)


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


def build_operator(cfg):
    """Operator from the config's coefficient lines."""
    n = cfg.get_int("n")
    if not cfg.coeff_lines:
        raise ConfigError("no coefficient lines; the operator is undefined")
    coeffs = {}
    for line in cfg.coeff_lines:
        m = _COEFF_LINE.fullmatch(line)
        idx = tuple(int(t) for t in m.group(1).split(","))
        if len(idx) != n:
            raise ConfigError(f"coefficient index {idx} does not match n={n}")
        expr = m.group(2).strip()
        if idx in coeffs:
            raise ConfigError(f"duplicate coefficient for index {idx}")
        try:
            const = float(expr)
            coeffs[idx] = const
            continue
        except ValueError:
            pass
        coeffs[idx] = compile_expression(expr, n, f"coefficient p=({','.join(map(str, idx))})")
    m_order = max(sum(p) for p in coeffs)
    if m_order % 2:
        raise ConfigError("operator order must be even")
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
