import numpy as np

from orlipde import cli


def run(tmp_path, command, text, capsys):
    """Run one config through the CLI; returns (exit code, stderr lines)."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    code = cli.run_config(command, cfg, tmp_path / "runs")
    return code, capsys.readouterr().err.splitlines()


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

    def test_config_error_still_exits_2(self, tmp_path, capsys):
        code, err = run(tmp_path, "norms", "n = 1\n", capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
