import numpy as np
import pytest

from orlipde import EllipticOperator, GridDomain, GridFunction


# constant-coefficient operators the tests build kernels and solves from
def laplacian(n, sign=-1.0):
    """sign * sum of second derivatives (sign=-1 gives the positive form)."""
    coeffs = {}
    for a in range(n):
        p = [0] * n
        p[a] = 2
        coeffs[tuple(p)] = float(sign)
    return EllipticOperator(n, 2, coeffs)


def bilaplacian(n, scale=1.0):
    """Squared Laplacian: sum of fourth derivatives plus mixed terms."""
    coeffs = {}
    for a in range(n):
        p = [0] * n
        p[a] = 4
        coeffs[tuple(p)] = float(scale)
    for a in range(n):
        for b in range(a + 1, n):
            p = [0] * n
            p[a] = 2
            p[b] = 2
            coeffs[tuple(p)] = 2.0 * float(scale)
    return EllipticOperator(n, 4, coeffs)


def second_order(matrix):
    """Operator -sum b_ij d_i d_j from a symmetric positive-definite matrix."""
    B = np.asarray(matrix, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n) or not np.allclose(B, B.T):
        raise ValueError("coefficient matrix must be square symmetric")
    coeffs = {}
    for i in range(n):
        p = [0] * n
        p[i] = 2
        coeffs[tuple(p)] = -float(B[i, i])
    for i in range(n):
        for j in range(i + 1, n):
            if B[i, j] != 0.0:
                p = [0] * n
                p[i] = 1
                p[j] = 1
                coeffs[tuple(p)] = -2.0 * float(B[i, j])
    return EllipticOperator(n, 2, coeffs)


@pytest.fixture
def line64():
    return GridDomain(1, 64, 2.0)


@pytest.fixture
def square32():
    return GridDomain(2, 32, 1.0)


@pytest.fixture
def square64():
    return GridDomain(2, 64, 1.0)


def cap_profile(domain, radius, center=None):
    grids = domain.node_grids()
    c = np.zeros(domain.n) if center is None else np.asarray(center, dtype=float)
    r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
    vals = np.zeros(domain.shape)
    inside = r2 < radius**2
    vals[inside] = np.exp(-(radius**2) / (radius**2 - r2[inside]))
    return GridFunction(domain, vals)


@pytest.fixture
def bump():
    return cap_profile


# Outputs of the shipped solves, pinned to catch numerical drift: sigma_hat
# along the ladder, the weighted norm of every iterate and the
# manufactured-solution error.
PINNED_SOLVES = {
    "perturbed_laplace.cfg": (
        [0.0347989550655, 0.016996337645, 0.00840107486138, 0.00417659501659],
        [18.5661819546, 18.5715458413, 18.5719634982, 18.5719629076],
        0.00850400727327,
    ),
    "orlicz_laplace.cfg": (
        [0.0379609312662, 0.0186771879608, 0.00926220613287, 0.00461000284063],
        [49.7639440106, 49.7785006129, 49.7791853579],
        0.00793111712908,
    ),
}


def assert_pinned_outputs(run_dir, name, rtol=1e-9):
    """A solve run directory of a shipped config reproduces its pinned outputs."""
    sigma_hat, weighted_norms, error = PINNED_SOLVES[name]

    def rows(csv):
        return [line.split(",") for line in (run_dir / csv).read_text().splitlines()[1:]]

    profile = rows("sigma_profile.csv")
    assert [float(r) for r, _ in profile] == [0.4, 0.2, 0.1, 0.05]
    assert [float(s) for _, s in profile] == pytest.approx(sigma_hat, rel=rtol)
    assert [float(row[1]) for row in rows("iterations.csv")] == pytest.approx(
        weighted_norms, rel=rtol)
    summary = dict(rows("summary.csv"))
    assert float(summary["manufactured_error"]) == pytest.approx(error, rel=rtol)
