import math

import numpy as np
import pytest

from orlipde import (
    CapabilityError,
    EllipticOperator,
    FundamentalSolution,
    GridDomain,
    GridFunction,
    convolve,
    fundamental_solution,
    luxemburg_norm,
    multi_indices,
    potential_rows,
    power,
    shift,
    shift_modulus,
    verify_fundamental,
)
from orlipde.operators import gauss_legendre, sphere_points

from conftest import bilaplacian, cap_profile, laplacian, second_order


def masked_domain(n, N, d=1.0, R=0.28):
    dom = GridDomain(n, N, d)
    return dom.with_mask(dom.ball_mask([0.0] * n, R * d))


ANISO2 = [[2.0, 0.5], [0.5, 1.0]]
ANISO3 = [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]

# every shipped family, plus a negative-definite and a scaled operator
FAMILIES = {
    "laplace1d": lambda: laplacian(1),
    "laplace2d": lambda: laplacian(2),
    "laplace3d": lambda: laplacian(3),
    "aniso2d": lambda: second_order(ANISO2),
    "aniso2d_negative": lambda: second_order(-np.array(ANISO2)),
    "aniso3d": lambda: second_order(ANISO3),
    "biharmonic2d": lambda: bilaplacian(2),
    "biharmonic2d_scaled": lambda: bilaplacian(2, scale=1.7),
    "biharmonic3d": lambda: bilaplacian(3),
}


def held_arrays(obj):
    """Every array an object's attributes hold, through dicts, lists and tuples."""
    found, todo = [], list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return found


def random_points(rng, n, count):
    """Seeded points of the cube [-1, 1]^n with 0.1 <= |x|, as an (n, count) array."""
    X = rng.uniform(-1.0, 1.0, size=(n, 4 * count))
    X = X[:, np.linalg.norm(X, axis=0) >= 0.1]
    return X[:, :count]


def derivative(J, p, *x):
    """d^p J at the points x, one coordinate array per axis."""
    return J.derivative(p, x, log_coefficient=False)


def kernel_samples(J, dom, p):
    """The offset-lattice samples of the one channel d^p J."""
    return J.kernel_array(dom, [p])[p, False]


def value(J, *x):
    """J itself (the order-0 derivative) at x."""
    return derivative(J, (0,) * J.n, *x)


def decay_constant(J):
    """Sampled sup of |d^p J(x)| |x|^(n+|p|-m), |p| <= m, over the annulus 1e-3 <= |x| <= 1."""
    pts, _ = sphere_points(J.n)
    if J.n == 2:
        pts = pts[::4]  # 64 directions
    radii = np.logspace(-3, 0, 25)
    X = [np.multiply.outer(radii, pts[:, a]) for a in range(J.n)]
    best = 0.0
    for p in multi_indices(J.n, J.m):
        sup = np.abs(derivative(J, p, *X)).max(axis=1)
        best = max(best, float(np.max(sup * radii ** (J.n + p.order - J.m))))
    return best


class TestClosedForms:
    def test_point_values(self):
        J3 = fundamental_solution(laplacian(3))
        assert value(J3, 0.5, 0.0, 0.0) == pytest.approx(1.0 / (4 * math.pi * 0.5))
        J2 = fundamental_solution(laplacian(2))
        assert value(J2, 0.5, 0.0) == pytest.approx(-math.log(0.5) / (2 * math.pi))
        J1 = fundamental_solution(laplacian(1))
        assert value(J1, 0.25) == pytest.approx(-0.125)
        B2 = fundamental_solution(bilaplacian(2))
        assert value(B2, 0.5, 0.0) == pytest.approx(0.25 * math.log(0.5) / (8 * math.pi))
        B3 = fundamental_solution(bilaplacian(3))
        assert value(B3, 0.5, 0.0, 0.0) == pytest.approx(-0.5 / (8 * math.pi))

    def test_branches(self):
        assert isinstance(fundamental_solution(laplacian(1)), FundamentalSolution)
        assert fundamental_solution(laplacian(1)).branch == "power"
        assert fundamental_solution(laplacian(2)).branch == "log"
        assert fundamental_solution(laplacian(3)).branch == "power"
        assert fundamental_solution(bilaplacian(2)).branch == "log"
        assert fundamental_solution(bilaplacian(3)).branch == "power"

    def test_power_branch_homogeneity(self):
        # d^p J(t x) = t^(m-n-|p|) d^p J(x) for every |p| <= m; the scale
        # |J(x)| / |x|^|p| covers channels that vanish, such as J'' in 1d
        rng = np.random.default_rng(3)
        for name, op in FAMILIES.items():
            J = fundamental_solution(op())
            if J.branch != "power":
                continue
            x = random_points(rng, J.n, 1)[:, 0]
            r = np.linalg.norm(x)
            for p in multi_indices(J.n, J.m):
                base = derivative(J, p, *x)
                scale = max(abs(base), abs(value(J, *x)) / r**p.order)
                for t in (0.5, 2.0, 10.0):
                    factor = t ** (J.m - J.n - p.order)
                    scaled = derivative(J, p, *(t * x))
                    assert abs(scaled - factor * base) <= 1e-12 * factor * scale, (name, p, t)

    def test_derivative_decay(self):
        J = fundamental_solution(laplacian(2))
        assert math.isfinite(decay_constant(J))

    def test_capability_errors(self):
        with pytest.raises(CapabilityError):
            fundamental_solution(EllipticOperator(2, 2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 1.0}))
        with pytest.raises(CapabilityError):
            fundamental_solution(EllipticOperator(2, 4, {(4, 0): 1.0, (0, 4): 1.0}))
        with pytest.raises(CapabilityError):
            fundamental_solution(EllipticOperator(2, 2, {(2, 0): 1.0, (0, 2): -1.0}))

    def test_variable_coefficients_rejected(self):
        L = EllipticOperator(2, 2, {(2, 0): lambda x, y: -1.0 - 0 * x, (0, 2): -1.0})
        with pytest.raises(CapabilityError):
            fundamental_solution(L)


# d^p J of the kernels as the symbolic evaluator they replace gave them
PINNED = [
    ("biharmonic2d", (0, 0), (0.3, -0.4), -0.0068948625047703625),
    ("biharmonic2d", (2, 1), (0.3, -0.4), -0.035650707252584554),
    ("biharmonic2d", (4, 0), (0.3, -0.4), -0.09014535976724969),
    ("biharmonic2d", (1, 3), (-0.7, 0.2), 0.21402110203051813),
    ("aniso3d", (1, 1, 0), (0.2, -0.1, 0.35), -0.3649957843921544),
    ("aniso3d", (0, 0, 2), (0.2, -0.1, 0.35), 0.7650398946606428),
    ("aniso2d", (1, 1), (0.25, 0.6), 0.06277786355140344),
    ("laplace1d", (1,), (-0.3,), 0.5),
    ("laplace3d", (0, 1, 1), (0.1, 0.2, -0.3), -1.953181274108013),
    ("biharmonic3d", (2, 1, 1), (0.1, 0.2, -0.3), 0.6278082666775756),
    ("biharmonic3d", (0, 0, 4), (0.1, 0.2, -0.3), -1.8020422469448918),
]


class TestDerivatives:
    """Kernel derivatives against oracles that do not use the term tables."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_operator_annihilates_kernel(self, name):
        # L0 J = 0 away from the origin; the scale |a_p| |J| / |x|^|p| per
        # term covers the 1d Laplacian, whose single term is itself zero
        J = fundamental_solution(FAMILIES[name]())
        X = random_points(np.random.default_rng(11), J.n, 64)
        r = np.linalg.norm(X, axis=0)
        total = np.zeros(r.shape)
        scale = np.zeros(r.shape)
        for p, a in J.operator.coeffs.items():
            term = a * derivative(J, p, *X)
            total += term
            scale += np.maximum(np.abs(term), abs(a) * np.abs(value(J, *X)) / r ** sum(p))
        assert np.all(np.abs(total) <= 1e-10 * scale)

    def test_laplace2d_gradient(self):
        J = fundamental_solution(laplacian(2))
        X = random_points(np.random.default_rng(5), 2, 64)
        r2 = X[0] ** 2 + X[1] ** 2
        for axis, p in enumerate(((1, 0), (0, 1))):
            expect = -X[axis] / (2 * math.pi * r2)
            assert np.allclose(derivative(J, p, *X), expect, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name,p,x,value", PINNED)
    def test_pinned_values(self, name, p, x, value):
        J = fundamental_solution(FAMILIES[name]())
        assert derivative(J, p, *x) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("name", ["laplace3d", "aniso2d", "biharmonic2d"])
    def test_cell_average_matches_per_radius_loop(self, name):
        # reference: one evaluation per radial Gauss node, summed in order;
        # odd channels average to rounding, so the tolerance is relative to
        # the mean of |d^p J|
        J = fundamental_solution(FAMILIES[name]())
        h = 0.03
        nodes, w_r = gauss_legendre(48)
        s = 0.25 * h * (nodes + 1.0)
        w_s = 0.25 * h * w_r
        pts, w_th = sphere_points(J.n)
        for p in multi_indices(J.n, J.m - 1):
            total = 0.0
            size = 0.0
            for si, wi in zip(s, w_s):
                vals = derivative(J, p, *[si * pts[:, a] for a in range(J.n)])
                total += wi * si ** (J.n - 1) * float(np.dot(w_th, vals))
                size += wi * si ** (J.n - 1) * float(np.dot(w_th, np.abs(vals)))
            got = J.cell_average(p, h)
            assert abs(got - total / h**J.n) <= 1e-12 * size / h**J.n, p


def one_channel_samples(J, dom, p, log_coefficient):
    """One channel alone: ``derivative`` on the offset lattice, the seam mean, ``cell_average``."""
    n, N = dom.n, dom.N
    line = dom.offset_lattice()[0].reshape(N, -1)[:, 0]
    if N % 2 == 0:
        line = np.append(line, -line[N // 2])
    vals = J.derivative(p, np.meshgrid(*[line] * n, indexing="ij"), log_coefficient)
    if N % 2 == 0:
        for axis in range(n):
            lo = (slice(None),) * axis + (N // 2,)
            hi = (slice(None),) * axis + (N,)
            vals[lo] = 0.5 * (vals[lo] + vals[hi])
        vals = vals[(slice(0, N),) * n]
    vals[(0,) * n] = 0.0 if p.order == J.m else J.cell_average(p, dom.h, log_coefficient)
    return vals


class TestSampling:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_stacked_rows_match_one_channel_sampling(self, name):
        # one kernel_array call shares its node and radial factors among all
        # rows, which changes no sample by a bit
        J = fundamental_solution(FAMILIES[name]())
        orders = multi_indices(J.n, J.m)
        rows = [(p, False) for p in orders] + [(p, True) for p in orders if J._carries_log(p)]
        for N in (8, 9) if J.n == 3 else (15, 16):
            dom = GridDomain(J.n, N, 0.7)
            samples = J.kernel_array(dom, orders)
            assert list(samples) == rows
            for (p, log_coefficient), row in samples.items():
                assert np.array_equal(row, one_channel_samples(J, dom, p, log_coefficient)), (N, p)


class TestScaledSpectra:
    """Spectra scaled from the unit lattice against sampling on the grid itself."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_direct_sampling(self, name):
        # the tolerance is relative to the family's largest channel spectrum:
        # the (2,) channel of laplace1d is identically zero, so on both
        # sides it is rounding residue
        J = fundamental_solution(FAMILIES[name]())
        for N in (16,) if J.n == 3 else (32, 64):
            for d in (1.6, 0.8, 0.3, 0.05, 7.0):
                dom = GridDomain(J.n, N, d)
                orders = multi_indices(J.n, J.m)
                scaled = J.channel_spectra(dom, orders)
                samples = J.kernel_array(dom, orders)
                direct = [np.fft.rfftn(samples[p, False]) for p in orders]
                scale = max(np.max(np.abs(v)) for v in direct)
                for p, row, ref in zip(orders, scaled, direct):
                    assert np.max(np.abs(row - ref)) <= 1e-13 * scale, (N, d, p)

    @pytest.mark.parametrize("name, logs", [
        ("laplace2d", [(0, 0)]),
        ("aniso2d", [(0, 0)]),
        ("biharmonic2d", [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)]),
        ("laplace3d", []),
        ("biharmonic3d", []),
    ])
    def test_log_part_only_where_q_to_the_a_survives(self, name, logs):
        # c d^p(q^a) is zero on the power branch and for |p| > 2a, and
        # d1 d2 |x|^2 = 0
        J = fundamental_solution(FAMILIES[name]())
        assert [p for p in multi_indices(J.n, J.m) if J._carries_log(p)] == logs

    def test_one_sampling_per_lattice_size(self, monkeypatch):
        J = fundamental_solution(bilaplacian(2))
        calls = []
        real = J.kernel_array
        monkeypatch.setattr(J, "kernel_array", lambda *a, **k: calls.append(a) or real(*a, **k))
        orders = multi_indices(2, 4)
        for N, d in ((32, 1.6), (32, 0.8), (16, 0.8), (32, 0.4), (16, 0.2), (32, 0.2)):
            J.channel_spectra(GridDomain(2, N, d), multi_indices(2, 4, 4))  # order m alone
            J.channel_spectra(GridDomain(2, N, d), orders)
        # one stacked sampling per lattice size, on the unit lattice, of
        # every channel (and with them the 5 log parts)
        assert [(dom.N, dom.h, list(ps)) for dom, ps in calls] == [
            (32, 1.0, orders), (16, 1.0, orders)
        ]
        # of the ladder's stacks, the kernel holds only the last
        stacks = [a for a in held_arrays(J) if a.shape == (15, 32, 17)]
        assert len(stacks) == 1
        assert stacks[0] is J.channel_spectra(GridDomain(2, 32, 0.2), orders)


class TestReproduction:
    @pytest.mark.parametrize(
        "name,op,n,N,rho,R",
        [
            ("laplace1d", lambda: laplacian(1), 1, 64, 0.2, 0.28),
            ("laplace2d", lambda: laplacian(2), 2, 64, 0.2, 0.28),
            ("laplace3d", lambda: laplacian(3), 3, 32, 0.2, 0.28),
            ("biharmonic2d", lambda: bilaplacian(2), 2, 64, 0.2, 0.28),
            ("biharmonic3d", lambda: bilaplacian(3), 3, 32, 0.2, 0.28),
            ("aniso2d", lambda: second_order(ANISO2), 2, 64, 0.2, 0.28),
            ("aniso3d", lambda: second_order(ANISO3), 3, 32, 0.24, 0.25),
        ],
    )
    def test_reference_resolution(self, name, op, n, N, rho, R):
        J = fundamental_solution(op())
        dom = masked_domain(n, N, R=R)
        rep = verify_fundamental(J, [cap_profile(dom, rho)])
        assert rep.passed, f"{name}: e = {rep.max_error:.4f}"

    def test_refinement_halves_error(self):
        J = fundamental_solution(laplacian(2))
        errs = []
        for N in (32, 64):
            dom = masked_domain(2, N)
            errs.append(verify_fundamental(J, [cap_profile(dom, 0.2)]).max_error)
        assert errs[1] <= errs[0] / 2.0

    def test_trivial_input(self):
        J = fundamental_solution(laplacian(2))
        dom = masked_domain(2, 32)
        rep = verify_fundamental(J, [GridFunction.zeros(dom)])
        assert rep.rows[0].trivial


def one_channel(J, psi, p):
    """One derivative channel d^p of the potential of psi, as a grid function."""
    (values,) = potential_rows(J, psi.values[None], psi.domain, [p])[p]
    return GridFunction(psi.domain, values)


class TestPotential:
    def test_linearity(self, square32, bump):
        J = fundamental_solution(laplacian(2))
        a = bump(square32, 0.2)
        b = bump(square32, 0.15, center=[0.05, 0.0])
        for p in multi_indices(2, 2):
            lhs = one_channel(J, a * 2.0 + b * (-1.5), p).values
            rhs = 2.0 * one_channel(J, a, p).values - 1.5 * one_channel(J, b, p).values
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0), p

    def test_zero_density(self, square32):
        J = fundamental_solution(laplacian(2))
        out = one_channel(J, GridFunction.zeros(square32), (0, 0))
        assert np.all(out.values == 0.0)

    def test_order_guard(self, square32, bump):
        # channels run up to the kernel order m and no further
        for J, p in ((fundamental_solution(laplacian(2)), (3, 0)),
                     (fundamental_solution(bilaplacian(2)), (4, 1))):
            with pytest.raises(ValueError):
                one_channel(J, bump(square32, 0.2), p)


class TestSingularPotential:
    def test_inversion_identity_fresh_probe(self, square64):
        J = fundamental_solution(laplacian(2))
        psi = cap_profile(square64, 0.18, center=[0.05, -0.03])
        acc = np.zeros(square64.shape)
        for (ch,) in potential_rows(J, psi.values[None], square64, [(2, 0), (0, 2)]).values():
            acc += -ch
        err = np.max(np.abs(acc - psi.values)) / psi.sup_norm(masked=False)
        assert err <= 0.05

    def test_calibrated_constants_match_theory(self, square64):
        # ball-exclusion constants of the log kernel are -1/2 per axis
        J = fundamental_solution(laplacian(2))
        consts = J.local_constants(square64)
        assert consts.constants[(2, 0)] == pytest.approx(-0.5, abs=0.02)
        assert consts.constants[(0, 2)] == pytest.approx(-0.5, abs=0.02)
        assert consts.residual <= 0.05

    def test_pure_pv_annihilates_constants(self, square64):
        J = fundamental_solution(laplacian(2))
        c = GridFunction.from_callable(square64, lambda x, y: np.full_like(x, 4.0))
        out = convolve(GridFunction(square64, kernel_samples(J, square64, (2, 0))), c)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_zero_density(self, square32):
        J = fundamental_solution(laplacian(2))
        out = one_channel(J, GridFunction.zeros(square32), (2, 0))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_order_m_kernels_mean_zero(self, name):
        # the cancellation that makes every order-m channel a
        # Calderon-Zygmund operator: d^p J, |p| = m, has mean zero over the sphere
        J = fundamental_solution(FAMILIES[name]())
        pts, w = sphere_points(J.n)
        for p in multi_indices(J.n, J.m, J.m):
            values = derivative(J, p, *pts.T)
            assert abs(w @ values) <= 1e-12 * (w @ np.abs(values)), p

    @pytest.mark.parametrize("p", [(1, 1), (2, 0)], ids=["p11", "p20"])
    def test_shift_commutation(self, square32, bump, p):
        # to rounding: the FFT convolution is not bit-exact under lattice shifts
        J = fundamental_solution(laplacian(2))
        f = bump(square32, 0.2)
        lhs = one_channel(J, shift(f, [5, 9]), p).values
        rhs = shift(one_channel(J, f, p), [5, 9]).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    def test_odd_density_vanishes_at_symmetry_node(self, square32):
        # odd data about a lattice node pairs off against the even kernel;
        # the wrap seam (offset -d/2 is its own negation) must carry zeros
        J = fundamental_solution(laplacian(2))
        offs = square32.offset_lattice()
        odd = offs[0] * np.exp(-40 * (offs[0] ** 2 + offs[1] ** 2))
        odd[square32.N // 2, :] = 0.0
        odd[:, square32.N // 2] = 0.0
        center = (8, 8)
        f = GridFunction(square32, np.roll(np.roll(odd, center[0], 0), center[1], 1))
        for p in multi_indices(2, 2, 2):
            out = one_channel(J, f, p)
            assert abs(out.values[center]) < 1e-9 * f.sup_norm(masked=False), p

    def test_bounded_in_orlicz_norm(self):
        # the Calderon-Zygmund channel is bounded on L_M: its norm ratio is
        # stable under grid refinement
        J = fundamental_solution(laplacian(2))
        M = power(2)
        ratios = []
        for N in (32, 64):
            f = cap_profile(GridDomain(2, N, 1.0), 0.2)
            ratios.append(luxemburg_norm(one_channel(J, f, (1, 1)), M) / luxemburg_norm(f, M))
        assert all(math.isfinite(r) for r in ratios)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.2)


class TestSingularKernel:
    def test_constants_annihilated(self, square32):
        # the cos(2 theta) kernel and its rotation: the pure pv parts of the
        # (2, 0) and (0, 2) channels sum to zero over the lattice
        J = fundamental_solution(laplacian(2))
        c = GridFunction.from_callable(square32, lambda x, y: np.full_like(x, 3.0))
        for p in ((2, 0), (0, 2)):
            out = convolve(GridFunction(square32, kernel_samples(J, square32, p)), c)
            assert np.max(np.abs(out.values)) < 1e-12, p

    @pytest.mark.parametrize("name", ["laplace2d", "laplace3d", "biharmonic2d", "biharmonic3d"])
    def test_seam_images_annihilate_constants(self, name):
        # on an even lattice the seam offset -d/2 is also +d/2; sampling it as
        # the mean of both images makes a kernel odd in an axis sum to zero,
        # and the harmonic order-2 kernels sum to zero by the cube's symmetry.
        # (The even order-4 kernels do not: the lattice sum of a mean-zero
        # kernel over a cube, not a ball, is not zero.)
        J = fundamental_solution(FAMILIES[name]())
        dom = GridDomain(J.n, 32 if J.n == 2 else 16, 1.0)
        c = GridFunction(dom, np.full(dom.shape, 3.0))
        for p in multi_indices(J.n, J.m, J.m):
            if J.m == 2 or any(k % 2 for k in p):
                K = kernel_samples(J, dom, p)
                out = convolve(GridFunction(dom, K), c).values
                assert np.max(np.abs(out)) <= 1e-12 * 3.0 * dom.cell_volume * np.max(np.abs(K)), p


class TestShiftInvarianceProbe:
    """L_M modulus of continuity of a Calderon-Zygmund channel under shifts."""

    def test_modulus_decays_with_input(self, square64):
        J = fundamental_solution(laplacian(2))
        M = power(2)
        channel = one_channel(J, cap_profile(square64, 0.25), (1, 1))
        cells = [24, 16, 8, 4, 2, 1]
        mods = [modulus for _, modulus in shift_modulus(channel, M, [[c, 0] for c in cells])]
        assert all(a > b for a, b in zip(mods, mods[1:]))
        assert mods[-1] < 0.1 * mods[0]

    def test_zero_shift_row(self, square32, bump):
        J = fundamental_solution(laplacian(2))
        M = power(2)
        channel = one_channel(J, bump(square32, 0.2), (1, 1))
        rows = shift_modulus(channel, M, [[0, 0]])
        assert rows[0][1] == 0.0
