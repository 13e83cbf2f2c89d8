import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import orlipde
from orlipde import cli

from conftest import assert_pinned_outputs, negated

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SIZES = "[1e-30, 1e+30]"  # the range of every size key: d, eps, r and radii
CELLS = "integers in [-1e+100, 1e+100]"  # the range of every deltas entry


def run(tmp_path, command, text, capsys):
    """Run one config through the CLI; returns (exit code, stderr lines)."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    code = cli.run_config(command, cfg, tmp_path / "runs")
    return code, capsys.readouterr().err.splitlines()


def with_key(text, key, value):
    """A config text with one key set to value."""
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(f"{key} =")) + f"{key} = {value}\n"


class TestExitCodes:
    def test_range_error_exits_5(self, tmp_path, capsys):
        # the conjugate of a density bounded on [0, 2] ends its range at 2,
        # so the indicator formula's M^-1(1/mes) lies beyond it
        table = tmp_path / "density.csv"
        np.savetxt(table, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], delimiter=",")
        code, err = run(tmp_path, "norms", (
            f"young = table:{table}\n"
            "n = 1\ngrid.N = 64\nd = 2.0\n"
            "f = expr:(1+x1/abs(x1))/2*(1-(x1-0.1)/abs(x1-0.1))/2\n"
        ), capsys)
        assert code == 5
        assert len(err) == 1 and err[0].startswith("error: RangeError:"), err

    def test_hyperbolic_solve_exits_5(self, tmp_path, capsys):
        code, err = run(tmp_path, "solve", (
            "n = 2\ngrid.N = 32\nf = expr:1\n"
            "coeff p=(2,0) expr=-1\ncoeff p=(0,2) expr=1\n"
        ), capsys)
        assert code == 5
        assert len(err) == 1 and err[0].startswith("error: NotEllipticError:"), err

    def test_order_zero_operator_exits_2(self, tmp_path, capsys):
        code, err = run(tmp_path, "solve", "n = 2\nf = expr:1\ncoeff p=(0,0) expr=1\n", capsys)
        assert code == 2
        assert err == ["config error: operator order must be even and >= 2, got 0"], err
        assert not (tmp_path / "runs").exists()

    def test_config_error_still_exits_2(self, tmp_path, capsys):
        code, err = run(tmp_path, "norms", "n = 1\n", capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("spec", ["expr:log(x1)", "manufactured:log(x1)"])
    def test_non_finite_data_exits_2(self, tmp_path, capsys, spec):
        # the ball of radius 0.2 around 0 holds nodes with x1 < 0
        code, err = run(tmp_path, "solve", (
            f"n = 2\ngrid.N = 32\nf = {spec}\n"
            "coeff p=(2,0) expr=-1\ncoeff p=(0,2) expr=-1\n"
        ), capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "not finite at node (8, 13), x = (-0.1875, -0.0625)" in err[0], err

    def test_data_error_leaves_no_directory(self, tmp_path, capsys):
        # f is sampled only once the run directory exists; the directory goes
        # with the error, so the same config fails the same way again
        text = "n = 1\ngrid.N = 16\nf = expr:log(x1)\n"
        for _ in range(2):
            code, err = run(tmp_path, "norms", text, capsys)
            assert code == 2
            assert err == [
                "config error: data 'expr:log(x1)' is not finite at node (0,), x = (-0.9375)"
            ], err
            assert not list((tmp_path / "runs").iterdir())
        code, err = run(tmp_path, "norms", text.replace("log(x1)", "x1"), capsys)
        assert code == 0, err

    @pytest.mark.parametrize("command, text, message", [
        ("shift", "n = 1\nf = expr:x1+\n", "data 'expr:x1+': unexpected end of expression"),
        ("shift", "n = 1\nf = expr:sin(x1\n",
         "data 'expr:sin(x1': expected ')', found end of expression"),
        ("solve", "n = 2\nf = manufactured:x1 x2\ncoeff p=(2,0) expr=-1\ncoeff p=(0,2) expr=-1\n",
         "data 'manufactured:x1 x2': expected end of expression, found 'x2'"),
        ("solve", "n = 2\nf = expr:1\ncoeff p=(2,0) expr=-(1+x1\ncoeff p=(0,2) expr=-1\n",
         "coefficient p=(2,0): expected ')', found end of expression"),
    ], ids=["trailing_op", "open_call", "trailing_name", "coefficient"])
    def test_malformed_expression_exits_2(self, tmp_path, capsys, command, text, message):
        code, err = run(tmp_path, command, text, capsys)
        assert code == 2
        assert err == [f"config error: {message}"], err

    def test_non_finite_grid_file_exits_2(self, tmp_path, capsys):
        values = np.linspace(0.0, 1.0, 64)
        values[5] = np.inf
        grid = tmp_path / "f.grid"
        grid.write_text("1,64,2.0\n" + "".join(f"{float(v)!r}\n" for v in values))
        code, err = run(tmp_path, "norms", f"n = 1\nf = file:{grid}\n", capsys)
        assert code == 2
        assert len(err) == 1 and "not finite at node (5,), x = (-0.828125)" in err[0], err


    @pytest.mark.parametrize("body, fault", [
        ("1,64,2.0\nabc\n", "could not convert string 'abc'"),
        ("2,2,2.0\n1\n2\n3\n4\n", "need at least 4 points per axis"),
        (None, "No such file or directory"),
    ], ids=["value", "header", "missing"])
    def test_bad_grid_file_exits_2(self, tmp_path, capsys, body, fault):
        grid = tmp_path / "f.grid"
        if body is not None:
            grid.write_text(body)
        code, err = run(tmp_path, "norms", f"n = 1\nf = file:{grid}\n", capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"config error: grid file {grid}: "), err
        assert fault in err[0], err

    @pytest.mark.parametrize("coeffs, where", [
        # log(x1) is -inf at x0 itself
        ("coeff p=(2,0) expr=-1-log(x1)\ncoeff p=(0,2) expr=-1\n",
         "coefficient p=(2,0) is not finite at x0 = (0, 0)"),
        # finite at x0, NaN on the cube of the first radius (x1 < -0.7)
        ("coeff p=(2,0) expr=-1\ncoeff p=(0,2) expr=-1\ncoeff p=(0,0) expr=log(x1+0.7)\n",
         "coefficient p=(0,0) is not finite at node (0, 0), x = (-0.775, -0.775)"),
    ], ids=["at_x0", "on_cube"])
    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys, coeffs, where):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run(
                tmp_path, "solve", "n = 2\ngrid.N = 32\nx0 = 0,0\nf = expr:1\n" + coeffs, capsys
            )
        assert code == 2
        assert err == [f"config error: {where}"], err


    @pytest.mark.parametrize("spec, fault", [
        ("table:nope.csv", "nope.csv not found"),
        ("table:{empty}", "expected two columns"),
        ("table:{bad}", "could not convert string"),
        ("table:{rising}", "density must vanish at t = 0"),
        ("power:p=0.5", "power family requires p > 1"),
        ("power-log:p=1", "power-log family requires p > 1"),
    ], ids=["missing", "empty", "value", "invalid", "power", "power_log"])
    def test_bad_young_spec_exits_2(self, tmp_path, capsys, spec, fault):
        files = {"empty": "", "bad": "0,0\n1,abc\n", "rising": "0,1\n1,2\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        spec = spec.format(**{name: tmp_path / f"{name}.csv" for name in files})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run(tmp_path, "young", f"young = {spec}\n", capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"config error: young function spec {spec!r}"), err
        assert fault in err[0], err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("text, fault", [
        ("n = 1\ngrid.N = 2\nf = expr:x1\n", "config error: grid: need at least 4 points per axis"),
        ("n = 1\nf = file:{grid}\n", "holds 0 values, expected 64"),
    ], ids=["coarse", "header_only"])
    def test_grid_fault_exits_2_without_warning(self, tmp_path, capsys, text, fault):
        grid = tmp_path / "f.grid"
        grid.write_text("1,64,2.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run(tmp_path, "norms", text.format(grid=grid), capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:") and fault in err[0], err
        assert not caught, [str(w.message) for w in caught]


    @pytest.mark.parametrize("command", ["norms", "mollify", "shift"])
    @pytest.mark.parametrize("d", ["0", "-1", "1e100"])
    def test_bad_cube_size_exits_2(self, tmp_path, capsys, command, d):
        text = f"n = 1\ngrid.N = 16\nd = {d}\nf = expr:x1\n"
        code, err = run(tmp_path, command, text, capsys)
        assert code == 2
        assert err == [f"config error: key d expects a number in {SIZES}, got {d}"], err

    DELTAS = f"key deltas expects {CELLS}, got"
    EPS = f"key eps expects a number in {SIZES}, got"

    @pytest.mark.parametrize("command, key, value, message, extra", [
        ("norms", "deltas", "8,nan", f"{DELTAS} 8,nan", ""),
        ("shift", "deltas", "inf", f"{DELTAS} inf", ""),
        ("mollify", "eps", "nan", f"{EPS} nan", ""),
        ("mollify", "eps", "0", f"{EPS} 0", ""),
        ("mollify", "eps", "-1", f"{EPS} -1", ""),
        # a finite entry that is no whole number of cells
        ("shift", "deltas", "1e308", f"{DELTAS} 1e308", "d = 1000\n"),
        ("norms", "deltas", "1e308", f"{DELTAS} 1e308", "d = 1000\n"),
        # a fraction of a cell, which no lattice translation gives
        ("shift", "deltas", "2.5,1", f"{DELTAS} 2.5,1", ""),
        ("norms", "deltas", "2.5,1", f"{DELTAS} 2.5,1", ""),
        ("shift", "deltas", "1" + "0" * 101, f"{DELTAS} 1{'0' * 101}", ""),
    ], ids=["deltas_nan", "deltas_inf", "eps_nan", "eps_zero", "eps_negative",
            "deltas_wide_shift", "deltas_wide_norms", "deltas_fraction_shift",
            "deltas_fraction_norms", "deltas_beyond_bound"])
    def test_bad_grid_key_exits_2(self, tmp_path, capsys, command, key, value, message, extra):
        # checked before the run directory is made
        text = f"n = 1\ngrid.N = 16\n{extra}f = expr:x1\n{key} = {value}\n"
        code, err = run(tmp_path, command, text, capsys)
        assert code == 2
        assert err == [f"config error: {message}"], err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("N", [2, 7])
    def test_coarse_solve_grid_exits_2(self, tmp_path, capsys, N):
        # the second-order stencils need N >= 4m = 8
        text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        assert "grid.N = 64\n" in text
        code, err = run(tmp_path, "solve", text.replace("grid.N = 64\n", f"grid.N = {N}\n"), capsys)
        assert code == 2
        assert err == [
            "config error: grid: solve needs grid.N >= 8 for the order-2 difference stencils, "
            f"got {N}"
        ], err

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "probes", "0"),
        ("contraction", "probes", "-3"),
        ("norms", "trials", "0"),
    ])
    def test_count_below_one_exits_2(self, tmp_path, capsys, monkeypatch, command, key, value):
        # checked before any kernel is built
        monkeypatch.setattr(cli, "fundamental_solution", lambda *args: pytest.fail("kernel built"))
        name = "indicator_norms.cfg" if command == "norms" else "perturbed_laplace.cfg"
        text = with_key((CONFIGS / name).read_text(), key, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run(tmp_path, command, text, capsys)
        assert code == 2
        assert err == [f"config error: key {key} expects an integer >= 1, got {value}"], err
        assert not caught, [str(w.message) for w in caught]

    FAR = ("key x0 expects |entries| <= 2^32 h = 2.68435e+07 "
           "for the finest lattice spacing h = 0.00625, got")

    @pytest.mark.parametrize("key, value, message", [
        ("x0", "0", "key x0 expects 2 coordinates, got 1"),
        ("x0", "0,nan", "key x0 expects numbers in [-1e+100, 1e+100], got 0,nan"),
        ("x0", "1e308,0", "key x0 expects numbers in [-1e+100, 1e+100], got 1e308,0"),
        ("r", "-0.2", f"key r expects a number in {SIZES}, got -0.2"),
        ("r", "1e308", f"key r expects a number in {SIZES}, got 1e308"),
        ("r", "1e-300", f"key r expects a number in {SIZES}, got 1e-300"),
        ("r", "1e100", f"key r expects a number in {SIZES}, got 1e100"),
        ("r", "1e-100", f"key r expects a number in {SIZES}, got 1e-100"),
        # x0 beyond 2^32 cells of the finest lattice, h = 4 * 0.05 / 32
        ("x0", "1e16,0", f"{FAR} 1e16,0"),
        ("x0", "1e12,0", f"{FAR} 1e12,0"),
        ("radii", "-0.1,0.2", f"key radii expects numbers in {SIZES}, got -0.1,0.2"),
        ("radii", "1e308", f"key radii expects numbers in {SIZES}, got 1e308"),
        ("k_max", "0", "key k_max expects an integer >= 1, got 0"),
        ("tol", "nan", "key tol expects a finite number >= 0, got nan"),
        ("tol", "inf", "key tol expects a finite number >= 0, got inf"),
        ("tol", "-1e-6", "key tol expects a finite number >= 0, got -1e-6"),
        ("n", "4", "key n expects 1, 2 or 3, got 4"),
        ("coeff", "p=(a,0) expr=-1", "coefficient p=(a,0): expects 2 integers >= 0"),
        ("coeff", "p=() expr=-1", "coefficient p=(): expects 2 integers >= 0"),
        ("coeff", "p=(2,-1) expr=-1", "coefficient p=(2,-1): expects 2 integers >= 0"),
    ], ids=["x0", "x0_nan", "x0_huge", "r", "r_huge", "r_tiny", "r_1e100", "r_1e-100", "x0_far",
            "x0_1e12", "radii", "radii_huge", "k_max",
            "tol_nan", "tol_inf", "tol_negative", "n", "coeff_letter", "coeff_empty",
            "coeff_negative"])
    def test_bad_solve_key_exits_2(self, tmp_path, capsys, monkeypatch, key, value, message):
        # checked before the run directory is made, so no kernel is built
        monkeypatch.setattr(cli, "fundamental_solution", lambda *args: pytest.fail("kernel built"))
        text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        # a coefficient line joins the shipped ones; a key replaces its line
        text = text + f"coeff {value}\n" if key == "coeff" else with_key(text, key, value)
        code, err = run(tmp_path, "solve", text, capsys)
        assert code == 2
        assert err == [f"config error: {message}"], err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"tol": "0", "k_max": "3"}, "divergence: no convergence within k_max = 3 iterations"),
        ({"r": "5"}, "divergence: step norms increased three times in a row at k=4"),
    ], ids=["k_max", "step_norms_rose"])
    def test_unconverged_solve_exits_3_with_one_line(self, tmp_path, capsys, changes, message):
        # the run still writes its tables and manifest
        text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        for key, value in changes.items():
            text = with_key(text, key, value)
        code, err = run(tmp_path, "solve", text, capsys)
        assert code == 3
        assert err == [message], err
        (run_dir,) = (tmp_path / "runs").iterdir()
        written = {p.name for p in run_dir.iterdir()}
        assert {"iterations.csv", "summary.csv", "manifest.json"} <= written

    def test_divergence_names_the_contraction_estimate(self, tmp_path, capsys):
        # sigma_hat(20) = 11.2 >= 1, and the solve diverges: one line names both
        text = with_key((CONFIGS / "perturbed_laplace.cfg").read_text(), "r", "20")
        code, err = run(tmp_path, "solve", text, capsys)
        assert code == 3
        assert err == [
            "divergence: step norms increased three times in a row at k=4; "
            "contraction estimate 11.2 >= 1 at r=20"
        ], err

    def test_loose_certificate_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a converged solve whose certificate exceeds 2*tol names both
        real = cli.ParametrixOperator.solve

        def loose(self, f, tol, k_max):
            u, rep = real(self, f, tol=tol, k_max=k_max)
            rep.certificate = 3 * tol
            return u, rep

        monkeypatch.setattr(cli.ParametrixOperator, "solve", loose)
        code, err = run(tmp_path, "solve", (CONFIGS / "perturbed_laplace.cfg").read_text(), capsys)
        assert code == 3
        assert err == ["divergence: certificate 3e-06 exceeds 2*tol = 2e-06"], err

    def test_short_trusted_range_exits_5_without_tables(self, tmp_path, capsys):
        # power:p=1e6 trusts M only up to 10^(250/p), so the Delta2 test
        # from u0 = 1 has no range left
        code, err = run(tmp_path, "young", "young = power:p=1e6\n", capsys)
        assert code == 5
        assert len(err) == 1 and err[0].startswith(
            "error: RangeError: young function spec 'power:p=1e6': trusted range ends at"), err
        assert not list((tmp_path / "runs").rglob("*.csv"))


# constant-coefficient operators and tiny problems at the ends of the size range
LAPLACE2 = "coeff p=(2,0) expr=-1\ncoeff p=(0,2) expr=-1\n"
BILAPLACE2 = "coeff p=(4,0) expr=1\ncoeff p=(0,4) expr=1\ncoeff p=(2,2) expr=2\n"
TINY_SOLVE = "n = 2\ngrid.N = 16\nr = {s}\nradii = {s}\nprobes = 2\nf = expr:1\n"
TINY_NORMS = "n = 3\ngrid.N = 8\nd = {s}\nf = expr:x1\n"


class TestSizeRange:
    @pytest.mark.parametrize("command, text", [
        ("solve", TINY_SOLVE.format(s="1e-30") + LAPLACE2),
        ("solve", TINY_SOLVE.format(s="1e30") + LAPLACE2),
        ("solve", TINY_SOLVE.format(s="1e-30") + BILAPLACE2),
        ("solve", TINY_SOLVE.format(s="1e30") + BILAPLACE2),
        ("norms", TINY_NORMS.format(s="1e-30")),
        ("norms", TINY_NORMS.format(s="1e30")),
        # eps at the bottom of the range, and d at its top
        ("mollify", "n = 2\ngrid.N = 16\nd = 6e-30\neps = 1e-30\nf = expr:x1\n"),
        ("mollify", "n = 2\ngrid.N = 16\nd = 1e30\neps = 2e29\nf = expr:x1\n"),
    ], ids=["solve2_low", "solve2_high", "solve4_low", "solve4_high", "norms_low", "norms_high",
            "mollify_low", "mollify_high"])
    def test_ends_of_the_range_run(self, tmp_path, capsys, command, text):
        # no float overflow or underflow: exit 0, at most one warning line
        code, err = run(tmp_path, command, text, capsys)
        assert code == 0, err
        assert len(err) <= 1 and all(line.startswith("warning:") for line in err), err

    def test_far_x0_still_runs(self, tmp_path, capsys):
        # 1000 lies within 2^32 cells of the finest lattice
        text = with_key((CONFIGS / "perturbed_laplace.cfg").read_text(), "x0", "1000,0")
        text = with_key(with_key(text, "radii", "0.05"), "probes", "2")
        code, err = run(tmp_path, "contraction", text, capsys)
        assert code == 0 and not err, err
        (profile,) = (tmp_path / "runs").glob("*/sigma_profile.csv")
        assert len(profile.read_text().splitlines()) == 2


# the operator of the solve-biharmonic2d benchmark workload, at grid.N = 32
BIHARMONIC = """\
n = 2
grid.N = 32
radii = 0.4,0.2
probes = 4
f = manufactured:exp(-(x1^2+x2^2)/0.00245)
coeff p=(4,0) expr=1+0.1*x1
coeff p=(0,4) expr=1+0.1*x1
coeff p=(2,2) expr=2+0.2*x1
coeff p=(0,0) expr=0.5
"""


@pytest.mark.parametrize("text", [
    (CONFIGS / "perturbed_laplace.cfg").read_text().replace("grid.N = 64\n", "grid.N = 32\n"),
    BIHARMONIC,
], ids=["perturbed_laplace", "biharmonic"])
def test_negated_operator_writes_the_same_solution(tmp_path, capsys, text):
    # u = S0 sigma is that of (-L, -f): the fundamental solution of L0
    # changes sign with L0; manufactured data change sign with L
    files = {}
    for sign, t in (("plus", text), ("minus", negated(text))):
        for command in ("solve", "contraction"):
            root = tmp_path / sign / command
            root.mkdir(parents=True)
            code, err = run(root, command, t, capsys)
            assert code == 0 and not err, err
            (run_dir,) = (root / "runs").iterdir()
            files[sign, command] = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    for command, names in (("solve", ["iterations.csv", "sigma_profile.csv", "solution.grid"]),
                           ("contraction", ["sigma_profile.csv"])):
        for name in names:
            assert files["plus", command][name] == files["minus", command][name], name
    plus, minus = (files[sign, "solve"]["summary.csv"].decode().splitlines() for sign in
                   ("plus", "minus"))
    changed = [(a, b) for a, b in zip(plus, minus) if a != b]
    assert len(plus) == len(minus)
    assert changed == [("sign_flipped,false", "sign_flipped,true")], changed


class TestOrliczSolve:
    def test_converges_outside_lebesgue(self, tmp_path, capsys):
        # the shipped solve under power-log:p=3, an N-function of no power type
        code = cli.run_config("solve", CONFIGS / "orlicz_laplace.cfg", tmp_path)
        assert code == 0, capsys.readouterr().err
        (summary,) = tmp_path.glob("*/summary.csv")
        rows = dict(line.split(",") for line in summary.read_text().splitlines()[1:])
        tol = 1e-6
        assert rows["converged"] == "true"
        assert float(rows["certificate"]) <= 2 * tol
        assert_pinned_outputs(summary.parent, "orlicz_laplace.cfg")


class TestReruns:
    def test_byte_stable_and_jobs_match_serial(self, tmp_path):
        configs = [str(CONFIGS / "exp_young.cfg"), str(CONFIGS / "power2_young.cfg")]
        trees = []
        for root, jobs in (("first", 1), ("again", 1), ("jobs2", 2)):
            out = tmp_path / root
            args = ["young", "--config", *configs, "--out", str(out), "--jobs", str(jobs)]
            assert cli.main(args) == 0
            trees.append(outputs(out))
        assert len(trees[0]) == 2 * 7  # six tables and a manifest per config
        assert trees[1] == trees[0]
        assert trees[2] == trees[0]

    def test_solve_and_contraction_keep_separate_directories(self, tmp_path, capsys):
        text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        for key, value in (("grid.N", "64"), ("radii", "0.4,0.2,0.1,0.05"), ("probes", "8")):
            assert f"{key} = {value}\n" in text
        text = text.replace("grid.N = 64\n", "grid.N = 32\n")
        text = text.replace("radii = 0.4,0.2,0.1,0.05\n", "radii = 0.2\n")
        text = text.replace("probes = 8\n", "probes = 2\n")
        cfg = tmp_path / "one.cfg"
        cfg.write_text(text)
        runs = tmp_path / "runs"
        assert cli.run_config("solve", cfg, runs) == 0, capsys.readouterr().err
        solved = {p.name: p.read_bytes() for p in next(runs.iterdir()).iterdir()}
        assert cli.run_config("contraction", cfg, runs) == 0, capsys.readouterr().err
        (solve_dir,) = [d for d in runs.iterdir() if (d / "summary.csv").exists()]
        (contraction_dir,) = [d for d in runs.iterdir() if d != solve_dir]
        assert {p.name: p.read_bytes() for p in solve_dir.iterdir()} == solved
        assert {"iterations.csv", "solution.grid"} <= set(solved)
        assert (contraction_dir / "resolved.cfg").read_text().startswith("command = contraction\n")
        assert (contraction_dir / "sigma_profile.csv").read_bytes() == solved["sigma_profile.csv"]


def outputs(root):
    """{path: bytes} of every file a run wrote, less the manifest's timings."""
    tree = {}
    for path in sorted(root.rglob("*")):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            assert set(manifest.pop("timings")) == {"total_s"}
            tree[path.relative_to(root)] = manifest
        elif path.is_file():
            tree[path.relative_to(root)] = path.read_bytes()
    return tree


COLD_MODULES = ("sympy", "numpy.ma", "concurrent.futures", "numpy.random")


def cold_run_modules(tmp_path, command, text):
    """Which of COLD_MODULES one run of the config text loads in a fresh interpreter."""
    paths = [str(Path(orlipde.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    code = (
        "import sys, orlipde.cli\n"
        f"assert orlipde.cli.run_config({command!r}, {str(cfg)!r}, {str(tmp_path / 'runs')!r}) == 0\n"
        f"print(*(m for m in {COLD_MODULES!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_import_leaves_sympy_out(tmp_path):
    # a fresh interpreter, since this one may have imported these already:
    # a norms run imports neither sympy nor numpy.ma (np.unique would) nor
    # numpy.random (the witnesses come from grid.SeededStream), and
    # concurrent.futures only for --jobs > 1
    text = "n = 1\ngrid.N = 16\nf = expr:(1+x1/abs(x1))/2\n"
    assert cold_run_modules(tmp_path, "norms", text) == []
    assert len(list((tmp_path / "runs").glob("*/norms.csv"))) == 1


TINY_SOLVE = """\
n = 2
grid.N = 16
r = 0.2
radii = 0.2
probes = 2
f = manufactured:exp(-(x1^2+x2^2)/0.00245)
coeff p=(2,0) expr=-(1+0.2*x1)
coeff p=(0,2) expr=-(1+0.2*x1)
"""


@pytest.mark.parametrize("command, table", [
    ("solve", "solution.grid"),
    ("contraction", "sigma_profile.csv"),
])
def test_solve_import_leaves_numpy_random_out(tmp_path, command, table):
    # the probes come from grid.SeededStream, so no cold solve imports numpy.random
    assert cold_run_modules(tmp_path, command, TINY_SOLVE) == []
    assert len(list((tmp_path / "runs").glob(f"*/{table}"))) == 1


def unique_rule(values):
    """The indicator test of the norms command before it avoided np.unique."""
    values = np.unique(values)
    return bool(values.size <= 2 and set(np.round(values, 12)) <= {0.0, 1.0})


class TestIndicatorNorms:
    INDICATOR_ROWS = ["indicator_measure", "characteristic_formula", "formula_vs_amemiya"]

    def norms(self, tmp_path, cfg):
        assert cli.run_config("norms", cfg, tmp_path / "runs") == 0
        (table,) = (tmp_path / "runs").glob("*/norms.csv")
        return [line.split(",")[0] for line in table.read_text().splitlines()[1:]]

    def test_indicator_writes_formula_rows(self, tmp_path):
        names = self.norms(tmp_path, CONFIGS / "indicator_norms.cfg")
        assert names[-3:] == self.INDICATOR_ROWS

    def test_zero_field_writes_none(self, tmp_path):
        # the zero field takes only the value 0, but its support has measure 0
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("n = 1\ngrid.N = 16\nf = expr:0*x1\n")
        names = self.norms(tmp_path, cfg)
        assert not set(self.INDICATOR_ROWS) & set(names), names
        assert "dual_lower_bound" in names

    def test_three_valued_field_writes_none(self, tmp_path):
        text = (CONFIGS / "indicator_norms.cfg").read_text()
        f = "f = expr:(1+x1/abs(x1))/2*(1-(x1-1)/abs(x1-1))/2\n"
        assert f in text
        cfg = tmp_path / "three.cfg"
        cfg.write_text(text.replace(f, "f = expr:(1+x1/abs(x1))/2+(1+(x1-0.5)/abs(x1-0.5))/2\n"))
        names = self.norms(tmp_path, cfg)
        assert not set(self.INDICATOR_ROWS) & set(names), names

    @pytest.mark.parametrize("values, verdict", [
        ([-0.0, 1.0, 0.0, -0.0], True),
        ([0.0, -0.0, 0.0], True),
        ([1.0, 1.0, 1.0], True),
        ([1.0 + 1e-13, 0.0, 1.0 + 1e-13], True),
        ([1.0 + 1e-13, 0.0, 1.0], False),
        ([1.0 + 1e-11, 0.0], False),
        ([0.5, 0.5], False),
        ([-1.0, 0.0, 1.0], False),
        ([0.0, 1.0, 2.0], False),
    ], ids=["signed-zeros", "zeros", "ones", "near-one", "near-one-and-one", "off-one",
            "single-half", "three", "three-positive"])
    def test_matches_unique_rule(self, values, verdict):
        values = np.array(values).reshape(-1, 1)
        assert cli._is_indicator(values) == unique_rule(values) == verdict
