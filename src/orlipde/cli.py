"""Experiment runner: every module surface as a subcommand emitting CSV tables.

Usage: orlipde <young|norms|solve|contraction|mollify|shift>
           --config <path> [more paths] [--out <dir>] [--seed <int>]
           [--force] [--jobs <k>]

Each run writes into an output directory named by the resolved config hash:
the resolved config, the result CSVs (12 significant digits, byte-stable
for equal config and seed), and a manifest with checksums and timings.

Exit codes (each failure prints one line to stderr):

    0  success
    2  config error (``ConfigError``), or ``--jobs`` below 1
    3  numerical divergence (``DivergenceError``, or a solve that did not
       converge with a certificate within 2*tol)
    4  capability error (``CapabilityError``)
    5  any other library error (``OrlipdeError``: ``RangeError``,
       ``NotEllipticError``, ``CalibrationError``, ...)

Exits 2, 4 and 5 create no run directory or leave none behind, so a rerun
without ``--force`` meets the same fault again.  Without ``--force``, a
second run of one resolved config, concurrent or not, exits 2 and leaves
the first run's directory alone.

A run loads only what its command runs.  ``run_config`` parses no
arguments: ``argparse`` is imported by ``main`` alone.  ``young``, ``norms``,
``shift`` and ``mollify`` load the Orlicz calculus (``young``, ``grid``,
``space``, ``expressions``).  ``solve`` and ``contraction`` also load the
solver stack (``operators``, ``kernels``, ``parametrix``), which
``load_config`` imports to build the operator.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_field, load_config
from .errors import CapabilityError, ConfigError, DivergenceError, OrlipdeError, RangeError
from .grid import GridDomain, write_grid_function
from .space import (
    characteristic_norm_value,
    dual_norm_lower_bound,
    inequality_suite,
    l1_norm,
    luxemburg_norm,
    modular,
    mollify,
    orlicz_norm,
    shift_modulus,
)
from .young import boyd_indices, check_delta2


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):  # NaN formats as "nan"
        return format(float(x), ".12g")
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- command handlers ----------------------------------------------------------


def _cmd_young(cfg, out):
    """Every table is computed before the first is written, so a failure writes none."""
    spec, M = cfg.values["young"], cfg["young"]
    vs = np.logspace(-2, 2, 81)
    N = M.complementary()
    tables = {"complementary.csv": (["v", "conjugate"], [(v, N(v)) for v in vs])}
    boyd_header = ["alpha", "beta", "fit_residual", "note"]
    try:
        bi = boyd_indices(M)
        tables["boyd.csv"] = (boyd_header, [(bi.alpha, bi.beta, bi.fit_residual, "ok")])
        tables["boyd_trace.csv"] = (["t", "h_hat"], [tuple(r) for r in bi.h_samples])
    except OrlipdeError as exc:
        nan = float("nan")
        tables["boyd.csv"] = (boyd_header, [(nan, nan, nan, type(exc).__name__)])
    try:
        rep = check_delta2(M)
    except RangeError as exc:
        raise RangeError(f"young function spec {spec!r}: {exc}") from exc
    verdict = "pass" if rep.satisfied else "fail"
    tables["delta2.csv"] = (
        ["verdict", "k_hat", "u0", "u_max"],
        [(verdict, rep.k_hat, rep.u0, rep.u_max)],
    )
    trace = rep.worst_ratio_trace
    tables["delta2_trace.csv"] = (
        ["u", "ratio"],
        [tuple(r) for r in trace[:: max(1, len(trace) // 40)]],
    )
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)


def _grid_data(cfg):
    """The N-function, the unmasked cube and the data f of a grid command."""
    domain = GridDomain(cfg["n"], cfg["grid.N"], cfg["d"])
    f, _ = build_field(cfg["f"], domain)
    return cfg["young"], domain, f


def _write_shift_modulus(out, M, domain, f, cells):
    """shift_modulus.csv: the modulus of f under shifts by ``cells`` whole cells along axis 1."""
    shifts = [[c] + [0] * (domain.n - 1) for c in cells]
    _write_csv(out / "shift_modulus.csv", ["delta", "modulus"], shift_modulus(f, M, shifts))


def _is_indicator(values):
    """Whether the values take at most two values, each 0 or 1 to 12 decimals."""
    # ufunc tests, not np.unique, which imports numpy.ma on every cold run
    flat = values.ravel()
    others = flat[flat != flat[0]]
    if others.size and not np.all(others == others[0]):
        return False
    pair = [flat[0], others[0] if others.size else flat[0]]
    return set(np.round(pair, 12).tolist()) <= {0.0, 1.0}


def _cmd_norms(cfg, out):
    M, domain, f = _grid_data(cfg)
    g = f if not cfg["g"] else build_field(cfg["g"], domain)[0]
    rows = [
        ("modular", modular(f, M)),
        ("luxemburg", luxemburg_norm(f, M)),
        ("orlicz", orlicz_norm(f, M)),
        ("dual_lower_bound", dual_norm_lower_bound(f, M, cfg["trials"], cfg["seed"])),
        ("l1", l1_norm(f)),
        ("sup", f.sup_norm()),
    ]
    mes = float(np.count_nonzero(f.values)) * domain.cell_volume
    if mes > 0 and _is_indicator(f.values):
        formula = characteristic_norm_value(M, mes)
        amemiya = dict(rows)["orlicz"]
        rows.append(("indicator_measure", mes))
        rows.append(("characteristic_formula", formula))
        rows.append(("formula_vs_amemiya", abs(formula - amemiya) / amemiya))
    _write_csv(out / "norms.csv", ["name", "value"], rows)
    rep = inequality_suite(f, g, M, cfg["seed"])
    _write_csv(
        out / "inequalities.csv",
        ["name", "lhs", "rhs", "violated"],
        [(r.name, r.lhs, r.rhs, r.violated) for r in rep.rows],
    )
    _write_shift_modulus(out, M, domain, f, cfg["deltas"])


def _cmd_solve(cfg, out, contraction_only=False):
    from .parametrix import PROFILE_N, ParametrixOperator, contraction_profile, frozen_operator

    M, L = cfg["young"], cfg.operator
    seed, radii, probes = cfg["seed"], cfg["radii"], cfg["probes"]
    # one frozen point at x0, with the one kernel of its frozen operator,
    # serves every radius and the solve
    point = frozen_operator(L, cfg["x0"])
    prof = contraction_profile(point, radii, probes, seed, PROFILE_N, M)
    _write_csv(out / "sigma_profile.csv", ["r", "sigma_hat"], zip(prof.radii, prof.sigma_hat))
    if contraction_only:
        return 0
    r, tol, k_max = cfg["r"], cfg["tol"], cfg["k_max"]
    P = ParametrixOperator(point, r, cfg["grid.N"], M)
    f, reference = build_field(cfg["f"], P.domain, operator=L)
    # sigma_hat at r: the ladder's entry, or a ladder of r alone with the same seed
    at_r = prof if r in radii else contraction_profile(point, [r], probes, seed, PROFILE_N, M)
    sigma_r = at_r.sigma_hat[at_r.radii.index(r)]
    estimate = f"contraction estimate {sigma_r:.3g} >= 1 at r={r:g}" if sigma_r >= 1.0 else None
    failure = None
    try:
        u, rep = P.solve(f, tol, k_max)
    except DivergenceError as exc:
        rep, u, failure = exc.report, None, str(exc)
    _write_csv(
        out / "iterations.csv",
        ["k", "weighted_norm", "step_norm", "residual"],
        [(row.k, row.norm, row.step, row.residual) for row in rep.iterations],
    )
    summary = [
        ("converged", rep.converged),
        ("iterations", len(rep.iterations)),
        ("empirical_ratio", rep.empirical_ratio),
        ("final_residual", rep.final_residual),
        ("certificate", rep.certificate),
        ("sign_flipped", point.ellipticity.sign_flipped),
        ("sigma_hat_at_r", sigma_r),
    ]
    if reference is not None and u is not None:
        summary.append(("manufactured_error", P.solution_error(rep.channels, reference)))
    _write_csv(out / "summary.csv", ["name", "value"], summary)
    if u is not None:
        write_grid_function(u.restricted(), out / "solution.grid")  # the solution on the ball
    if failure is None and not rep.converged:
        failure = f"no convergence within k_max = {k_max} iterations"
    elif failure is None and not rep.certificate <= 2 * tol:
        failure = f"certificate {_fmt(rep.certificate)} exceeds 2*tol = {_fmt(2 * tol)}"
    if failure is None:
        if estimate:
            print(f"warning: {estimate}", file=sys.stderr)
        return 0
    print(f"divergence: {failure}" + (f"; {estimate}" if estimate else ""), file=sys.stderr)
    return 3


def _cmd_mollify(cfg, out):
    M, _, f = _grid_data(cfg)
    eps = cfg["eps"]
    smoothed = mollify(f, eps)
    write_grid_function(smoothed, out / "mollified.grid")
    _write_csv(
        out / "summary.csv",
        ["name", "value"],
        [
            ("eps", eps),
            ("sup_change", (smoothed - f).sup_norm()),
            ("gauge_change", luxemburg_norm(smoothed - f, M)),
        ],
    )


def _cmd_shift(cfg, out):
    M, domain, f = _grid_data(cfg)
    _write_shift_modulus(out, M, domain, f, cfg["deltas"])


_HANDLERS = {
    "young": _cmd_young,
    "norms": _cmd_norms,
    "solve": _cmd_solve,
    "contraction": lambda cfg, out: _cmd_solve(cfg, out, contraction_only=True),
    "mollify": _cmd_mollify,
    "shift": _cmd_shift,
}


def run_config(command, config_path, out_root, seed=None, force=False):
    """Run one experiment; returns the process exit code."""
    t0 = time.time()
    made = None
    try:
        overrides = {} if seed is None else {"seed": seed}
        cfg = load_config(config_path, command, overrides)
        digest = cfg.hash()
        out = Path(out_root) / digest[:12]
        try:  # one atomic claim: without --force, two runs never share a directory
            out.mkdir(parents=True, exist_ok=force)
        except FileExistsError:
            raise ConfigError(f"output directory {out} exists; rerun with --force")
        made = out
        for stale in out.iterdir():
            stale.unlink()
        (out / "resolved.cfg").write_text(cfg.render())
        handler = _HANDLERS[command]
        code = handler(cfg, out) or 0
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OrlipdeError as exc:
        if made is not None:  # a fault only the run shows: the directory goes with it
            shutil.rmtree(made)
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, CapabilityError):
            print(f"capability error: {exc}", file=sys.stderr)
            return 4
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    outputs = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    manifest = {
        "config_hash": digest,
        "seed": cfg["seed"],
        "version": __version__,
        "outputs": outputs,
        "timings": {"total_s": round(time.time() - t0, 6)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"{command}: wrote {out} ({len(outputs)} files)")
    return code


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="orlipde", description="Orlicz-space calculus and local elliptic solves"
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", nargs="+", required=True, help="config file path(s)")
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--force", action="store_true", help="allow overwriting a run directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers across config files")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"config error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2

    workers = min(args.jobs, len(args.config))
    if workers > 1:
        import concurrent.futures  # here only: it also imports logging

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(
                pool.map(
                    _run_star,
                    [(args.command, path, args.out, args.seed, args.force) for path in args.config],
                )
            )
    else:
        codes = [
            run_config(args.command, path, args.out, seed=args.seed, force=args.force)
            for path in args.config
        ]
    return max(codes)


def _run_star(params):
    return run_config(*params)


if __name__ == "__main__":
    sys.exit(main())
