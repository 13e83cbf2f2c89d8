"""The benchmark's workloads: generated configs and output checks.

Each workload is one config for one CLI command.  The config carries no
seed; the benchmark passes its ``--seed`` to the CLI, which is what the CLI
seeds its probes and witnesses from.  The checks read the run directory the
CLI wrote and compare against ``reference.json``, whose values were taken at
the default seed.  Tolerances are relative and stated in that file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# the operator, data and radius ladder of configs/perturbed_laplace.cfg at
# grid.N = 128: the gauge norm dominates, and the N = 128 solve gives the
# FFT path weight
_LAPLACE = """\
young = power:p=2
n = 2
grid.N = 128
r = 0.2
x0 = 0,0
tol = 1e-6
k_max = 200
kernel = auto
radii = 0.4,0.2,0.1,0.05
probes = 8
f = manufactured:exp(-(x1^2+x2^2)/0.00245)
coeff p=(2,0) expr=-(1+0.2*x1)
coeff p=(0,2) expr=-(1+0.2*x1)
coeff p=(0,0) expr=-0.5
"""

# fourth order: 15 derivative channels, so kernel compilation, sampling and
# calibration carry their largest share
_BIHARMONIC = """\
young = power:p=2
n = 2
grid.N = 64
r = 0.2
x0 = 0,0
tol = 1e-6
k_max = 200
kernel = auto
radii = 0.4,0.2,0.1,0.05
probes = 8
f = manufactured:exp(-(x1^2+x2^2)/0.00245)
coeff p=(4,0) expr=1+0.1*x1
coeff p=(0,4) expr=1+0.1*x1
coeff p=(2,2) expr=2+0.2*x1
coeff p=(0,0) expr=0.5
"""

# a non-power N-function whose dual bound takes gauges in the numerical
# conjugate space; no kernel is built and only 13 FFTs run
_ORLICZ = """\
young = exp
n = 2
grid.N = 32
d = 2.0
f = expr:sin(3*x1)*cos(2*x2)+0.5*x1*x2
trials = 8
deltas = 8,4,2,1
"""


def _read_table(path):
    """name,value CSV (header skipped) as a dict of strings."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        name, _, value = line.partition(",")
        rows[name] = value
    return rows


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def check_solve(name, run_dir):
    """Failures of a solve run and its manufactured-solution error."""
    ref = REFERENCE["workloads"][name]
    summary = _read_table(run_dir / "summary.csv")
    resolved = dict(
        line.split(" = ", 1) for line in (run_dir / "resolved.cfg").read_text().splitlines()
        if " = " in line
    )
    tol = float(resolved["tol"])
    failures = []
    if summary.get("converged") != "true":
        failures.append("not converged")
    certificate = float(summary.get("certificate", "nan"))
    if not certificate <= 2 * tol:
        failures.append(f"certificate {certificate:g} > 2*tol")
    error = float(summary.get("manufactured_error", "nan"))
    if not _close(error, ref["solution_error"], ref["rtol"]):
        failures.append(f"solution_error {error!r} differs from reference {ref['solution_error']!r}")
    return failures, error


def check_orlicz(name, run_dir):
    """Failures of an orlicz-exp2d run and its relative duality gap."""
    ref = REFERENCE["workloads"][name]
    rtol = ref["rtol"]
    norms = {k: float(v) for k, v in _read_table(run_dir / "norms.csv").items()}
    failures = []
    lux, orl, dual = norms["luxemburg"], norms["orlicz"], norms["dual_lower_bound"]
    if not lux <= orl <= 2 * lux:
        failures.append(f"luxemburg {lux!r} <= orlicz {orl!r} <= 2*luxemburg fails")
    if not dual <= orl:
        failures.append(f"dual_lower_bound {dual!r} exceeds orlicz {orl!r}")
    for key in ("modular", "luxemburg", "orlicz", "l1", "sup"):
        if not _close(norms[key], ref[key], rtol):
            failures.append(f"{key} {norms[key]!r} differs from reference {ref[key]!r}")
    # the reference bound comes from a deterministic witness that every seed
    # tries, so another seed can only match or beat it
    if dual < ref["dual_lower_bound"] * (1 - rtol):
        failures.append(f"dual_lower_bound {dual!r} below reference {ref['dual_lower_bound']!r}")
    for line in (run_dir / "inequalities.csv").read_text().splitlines()[1:]:
        if line.rsplit(",", 1)[-1] != "false":
            failures.append(f"inequality violated: {line}")
    return failures, (orl - dual) / orl


class Workload(NamedTuple):
    name: str
    command: str  # the CLI subcommand
    config: str  # config text, without a seed
    check: Callable  # (name, run directory) -> (failures, solution_error)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-laplace2d", "solve", _LAPLACE, check_solve),
        Workload("solve-biharmonic2d", "solve", _BIHARMONIC, check_solve),
        Workload("orlicz-exp2d", "norms", _ORLICZ, check_orlicz),
    )
}
