import math

import numpy as np
import pytest

from orlipde import (
    EllipticOperator,
    GridDomain,
    GridFunction,
    MultiIndex,
    NotEllipticError,
    characteristic_form,
    coefficient_continuity_check,
    difference_rows,
    ellipticity_check,
    exp_young,
    frozen_operator,
    luxemburg_norm,
    multi_indices,
    power,
    sobolev_norms,
)

from orlipde.operators import gauss_legendre, sphere_points

from conftest import bilaplacian, diff, laplacian


# second-order central stencils {offset: coefficient} for d^k/dx^k
STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


class TestMultiIndex:
    def test_order(self):
        assert MultiIndex((2, 1)).order == 3

    def test_enumeration(self):
        idx = multi_indices(2, 2)
        assert len(idx) == 6
        assert MultiIndex((1, 1)) in idx

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((-1, 0))

    def test_index_returned_unchanged(self):
        p = MultiIndex((2, 1))
        assert MultiIndex(p) is p


class TestApply:
    def test_laplacian_eigenfunction(self, square64):
        L = laplacian(2)
        u = GridFunction.from_callable(
            square64, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        )
        lam = 2 * (2 * np.pi) ** 2
        err = np.max(np.abs(L.apply(u).values - lam * u.values)) / lam
        assert err < (1.0 / 64) ** 2 * 50

    def test_zero_order_term(self, square64):
        L = EllipticOperator(2, 2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 3.0})
        u = GridFunction.from_callable(square64, lambda x, y: np.cos(2 * np.pi * y))
        out = L.apply(u).values
        expect = (2 * np.pi) ** 2 * u.values + 3.0 * u.values
        assert np.max(np.abs(out - expect)) / np.max(np.abs(expect)) < 1e-2

    def test_bilaplacian_fourth_derivative(self, square64):
        B = bilaplacian(2)
        u = GridFunction.from_callable(square64, lambda x, y: np.sin(2 * np.pi * x))
        lam = (2 * np.pi) ** 4
        err = np.max(np.abs(B.apply(u).values - lam * u.values)) / lam
        assert err < 5e-3

    def test_linearity(self, square32):
        rng = np.random.default_rng(0)
        L = laplacian(2)
        u = GridFunction(square32, rng.standard_normal(square32.shape))
        v = GridFunction(square32, rng.standard_normal(square32.shape))
        lhs = L.apply(u * 2.0 + v * (-3.0)).values
        rhs = 2.0 * L.apply(u).values - 3.0 * L.apply(v).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_matches_the_per_index_loop(self, square32, bump):
        # the reference sums, in coefficient order, each coefficient times
        # its one-index difference; apply equals it bit for bit
        L = EllipticOperator(2, 2, {
            (0, 2): lambda x, y: -(1.0 + 0.2 * x), (2, 0): -1.0, (0, 0): lambda x, y: 0.5 + y,
        })
        u = bump(square32, 0.3)
        ref = np.zeros(square32.shape)
        for p, a in L.coeffs.items():
            ref += (a(*square32.node_grids()) if callable(a) else a) * diff(u, p).values
        assert np.array_equal(L.apply(u).values, ref)
        # one table per grid geometry, whatever the mask
        masked = square32.with_mask(square32.ball_mask([0.0, 0.0], 0.3))
        assert L.coefficients(masked) is L.coefficients(square32)
        assert list(L.coefficients(square32)) == sorted(L.coeffs)

    def test_resolution_guard(self):
        dom = GridDomain(2, 8, 1.0)
        u = GridFunction.zeros(dom)
        with pytest.raises(ValueError):
            bilaplacian(2).apply(u)

    def test_frozen_annihilates_low_degree_polynomials(self):
        # stencil exactness on the interior, away from the periodic seam
        dom = GridDomain(1, 64, 2.0)
        L0 = frozen_operator(laplacian(1), [0.0]).L0
        u = GridFunction.from_callable(dom, lambda x: 0.7 + 0.3 * x)
        out = L0.apply(u).values
        x = dom.node_grids()[0]
        interior = np.abs(x) < 0.7
        assert np.max(np.abs(out[interior])) < 1e-10


class TestCharacteristicForm:
    def test_negative_laplacian(self):
        L = laplacian(2)
        eta = np.array([0.6, -0.8])
        assert characteristic_form(L, [0, 0], eta) == pytest.approx(-1.0)

    def test_homogeneity_degree_m(self):
        rng = np.random.default_rng(1)
        B = bilaplacian(2)
        eta = rng.standard_normal(2)
        q1 = characteristic_form(B, [0, 0], eta)
        q2 = characteristic_form(B, [0, 0], 2 * eta)
        assert q2 == pytest.approx(2**4 * q1, rel=1e-12)

    def test_bilaplacian_axis_value(self):
        assert characteristic_form(bilaplacian(2), [0, 0], [1.0, 0.0]) == pytest.approx(1.0)


class TestQuadrature:
    @pytest.mark.parametrize("k", [32, 48])
    def test_gauss_legendre_matches_numpy(self, k):
        # the polar rule of the sphere (k = 32) and the radial rule of the
        # inscribed ball (k = 48); numpy's own k = 48 weights are 1.3e-12
        # from the exact ones
        x, w = gauss_legendre(k)
        ref_x, ref_w = np.polynomial.legendre.leggauss(k)
        assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(np.abs(ref_x)))
        assert np.all(np.abs(w - ref_w) <= 1e-11 * ref_w)


class TestEllipticity:
    def test_positive_form_passes(self):
        rep = ellipticity_check(laplacian(2), [[0.0, 0.0]])
        assert rep.passed and not rep.sign_flipped
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_flipped_form_normalized(self):
        rep = ellipticity_check(laplacian(2, sign=+1.0), [[0.0, 0.0]])
        assert rep.passed and rep.sign_flipped

    def test_wave_operator_rejected(self):
        L = EllipticOperator(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
        with pytest.raises(NotEllipticError):
            ellipticity_check(L, [[0.0, 0.0]])

    def test_direction_scale_invariance(self):
        L = EllipticOperator(2, 2, {(2, 0): -2.0, (0, 2): -1.0, (1, 1): -0.5})
        dirs = sphere_points(2)[0]
        r1 = ellipticity_check(L, [[0.0, 0.0]], dirs)
        r2 = ellipticity_check(L, [[0.0, 0.0]], 3.0 * dirs)
        assert r1.sign_flipped == r2.sign_flipped
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)

    def test_matches_characteristic_form_per_direction(self):
        # one coefficient evaluation per point gives the per-direction
        # report bit for bit, over the default sphere nodes and over others
        variable = EllipticOperator(2, 4, {
            (4, 0): lambda x, y: 1 + 0.1 * x, (0, 4): lambda x, y: 1 + 0.1 * x,
            (2, 2): lambda x, y: 2 + 0.2 * x + 0.3 * y, (3, 1): 0.1, (0, 0): 0.5})
        points = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3))
        for L in (variable, bilaplacian(3), laplacian(2, sign=+1.0)):
            x = points[:, :L.n]
            nodes = sphere_points(L.n)[0]
            for dirs, given in ((nodes, None), (3.0 * nodes[::15], 3.0 * nodes[::15])):
                ref = np.array([(-1.0) ** L.half_order * characteristic_form(L, xi, eta)
                                for xi in x for eta in dirs])
                rep = ellipticity_check(L, x, given)
                assert rep.sign_flipped == bool(np.all(ref < 0))
                assert (rep.ratio, rep.min_abs, rep.max_abs) == (
                    float(np.abs(ref).min() / np.abs(ref).max()),
                    float(np.abs(ref).min()), float(np.abs(ref).max()))

    def test_sign_change_between_coarse_directions_rejected(self):
        # Q = (eta2 - s eta1)(eta2 - t eta1) is negative only for angles in
        # (1, 3) degrees, between two of 64 evenly spaced directions; the
        # sphere rule's 256 directions hold two inside
        s, t = math.tan(math.radians(1.0)), math.tan(math.radians(3.0))
        L = EllipticOperator(2, 2, {(2, 0): s * t, (1, 1): -(s + t), (0, 2): 1.0})
        assert ellipticity_check(L, [[0.0, 0.0]], sphere_points(2)[0][::4]).passed
        with pytest.raises(NotEllipticError):
            ellipticity_check(L, [[0.0, 0.0]])


class TestFreeze:
    def test_variable_coefficient_at_origin(self):
        c = lambda x, y: -(1.0 + 0.1 * (x**2 + y**2))
        L = EllipticOperator(2, 2, {(2, 0): c, (0, 2): c, (0, 0): -1.0})
        F = frozen_operator(L, [0.0, 0.0]).L0
        assert F.is_constant()
        assert F.coeffs[MultiIndex((2, 0))] == pytest.approx(-1.0)
        assert MultiIndex((0, 0)) not in F.coeffs

    def test_idempotent(self):
        L = EllipticOperator(2, 2, {(2, 0): -2.0, (0, 2): -1.0})
        F1 = frozen_operator(L, [0.3, 0.1]).L0
        F2 = frozen_operator(F1, [0.3, 0.1]).L0
        assert F1.coeffs == F2.coeffs


class TestCoefficientContinuity:
    def test_lipschitz_passes(self):
        L = EllipticOperator(1, 2, {(2,): lambda x: 1.0 + x})
        rep = coefficient_continuity_check(L, [0.0], [0.4, 0.2, 0.1, 0.05])
        assert rep.passed
        oscs = [row.oscillation for row in rep.rows]
        assert oscs[-1] == pytest.approx(0.05, rel=0.05)

    def test_jump_fails(self):
        L = EllipticOperator(1, 2, {(2,): lambda x: np.sign(x)})
        rep = coefficient_continuity_check(L, [0.0], [0.4, 0.2, 0.1])
        assert not rep.passed
        oscs = [row.oscillation for row in rep.rows]
        assert max(oscs) == min(oscs)

    def test_root_modulus_passes(self):
        # continuous but not Lipschitz: oscillation decays like sqrt(r)
        L = EllipticOperator(1, 2, {(2,): lambda x: 1.0 + np.sqrt(np.abs(x))})
        rep = coefficient_continuity_check(L, [0.0], [0.4, 0.2, 0.1, 0.05])
        assert rep.passed
        oscs = [row.oscillation for row in rep.rows]
        assert oscs[-1] == pytest.approx(math.sqrt(0.05), rel=0.05)

    def test_radii_must_decrease(self):
        L = laplacian(1)
        with pytest.raises(ValueError):
            coefficient_continuity_check(L, [0.0], [0.1, 0.2])


def differences(u, m):
    """{p: D^p u} for every |p| <= m."""
    return {p: diff(u, p) for p in multi_indices(u.domain.n, m)}


def sobolev_norm(channels, M, d_omega):
    """``sobolev_norms`` of one dictionary {p: grid function}, as a stack of one."""
    domain = next(iter(channels.values())).domain
    (norm,) = sobolev_norms({p: ch.values[None] for p, ch in channels.items()}, M, d_omega, domain)
    return norm


class TestSobolevNorms:
    def test_constant_function(self, square32):
        u = GridFunction.from_callable(square32, lambda x, y: np.full_like(x, 2.0))
        weighted = sobolev_norm(differences(u, 2), power(2), d_omega=0.7)
        assert weighted == pytest.approx(luxemburg_norm(u, power(2)))

    def test_unit_weight_collapses(self, square32, bump):
        u = bump(square32, 0.3)
        channels = differences(u, 2)
        plain = sum(luxemburg_norm(ch, power(2)) for ch in channels.values())
        assert sobolev_norm(channels, power(2), d_omega=1.0) == plain

    def test_sine_channels(self):
        dom = GridDomain(1, 128, 2.0)
        u = GridFunction.from_callable(dom, lambda x: np.sin(np.pi * x))
        w = math.pi
        base = 1.0  # L2 norm of sin(pi x) over one period of length 2
        for k, expect in ((0, base), (1, w * base), (2, w**2 * base)):
            p = MultiIndex((k,))
            got = sobolev_norm({p: diff(u, p)}, power(2), d_omega=1.0)
            assert got == pytest.approx(expect, rel=5e-3)

    def test_any_channel_dictionary(self, square32, bump):
        # one term per entry, weighted by its order, whatever the keys
        u = bump(square32, 0.3)
        channels = {(0, 0): u, (2, 1): diff(u, (1, 0)) * 0.5}
        expect = luxemburg_norm(u, power(2)) + 0.7**3 * luxemburg_norm(channels[2, 1], power(2))
        assert sobolev_norm(channels, power(2), d_omega=0.7) == expect

    def test_reads_the_mask_only(self, bump):
        # values outside the working ball do not enter the norm
        dom = GridDomain(2, 32, 1.0)
        dom = dom.with_mask(dom.ball_mask([0.0, 0.0], 0.3))
        u = bump(dom, 0.3)
        noisy = GridFunction(dom, np.where(dom.mask, u.values, 1e3))
        assert sobolev_norm({(0, 0): noisy}, power(2), 0.7) == sobolev_norm(
            {(0, 0): u}, power(2), 0.7)

    def test_weight_bracket(self, square32, bump):
        u = bump(square32, 0.3)
        channels = differences(u, 2)
        plain = sobolev_norm(channels, power(2), d_omega=1.0)
        for d_omega in (0.3, 1.0, 2.5):
            weighted = sobolev_norm(channels, power(2), d_omega=d_omega)
            lo = min(1.0, d_omega**2) * plain
            hi = max(1.0, d_omega**2) * plain
            assert lo * (1 - 1e-12) <= weighted <= hi * (1 + 1e-12)


class TestDiff:
    def test_first_derivative_of_sine(self, line64):
        u = GridFunction.from_callable(line64, lambda x: np.sin(np.pi * x))
        du = diff(u, (1,))
        ref = math.pi * np.cos(np.pi * line64.node_grids()[0])
        # second-order stencil: error bounded by (pi h)^2 pi / 6
        assert np.max(np.abs(du.values - ref)) < (math.pi * line64.h) ** 2 * math.pi / 5

    def test_order_guard(self, line64):
        u = GridFunction.zeros(line64)
        with pytest.raises(ValueError):
            diff(u, (5,))
        with pytest.raises(ValueError):
            difference_rows(u.values[None], line64, [(1,), (5,)])

    @pytest.mark.parametrize("n, N", [(1, 4), (1, 64), (2, 32), (3, 16)])
    def test_channels_match_rolled_stencils(self, n, N, bump):
        # the reference applies each stencil tap as np.roll, axis by axis;
        # the shared-prefix dictionary reproduces it and diff bit for bit
        dom = GridDomain(n, N, 1.0)
        u = bump(dom, 0.35, center=[0.05] * n)
        u = u * GridFunction.from_callable(dom, lambda *X: 1.0 + 0.7 * X[0] - 0.4 * X[-1] ** 2)
        orders = multi_indices(n, 4)
        channels = difference_rows(u.values[None], dom, orders)
        assert list(channels) == orders
        for p in orders:
            ref = u.values
            for axis, k in enumerate(p):
                if k:
                    out = np.zeros(dom.shape)
                    for off, c in STENCILS[k].items():
                        out += c * np.roll(ref, -off, axis=axis)
                    ref = out / dom.h**k
            assert np.array_equal(channels[p][0], ref), p
            assert np.array_equal(diff(u, p).values, ref), p

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
    def test_stacked_rows_match_one_function_calls(self, n, N, bump):
        # every row of a stacked call, differences and weighted norms, equals
        # that function's stack of one, bit for bit
        dom = GridDomain(n, N, 1.0)
        dom = dom.with_mask(dom.ball_mask([0.0] * n, 0.4))
        funcs = [1e-3 * (1.0 + k) * bump(dom, 0.3, center=[0.02 * k] * n) for k in range(3)]
        funcs.append(GridFunction.zeros(dom))
        orders = multi_indices(n, 4)
        rows = difference_rows(np.stack([u.values for u in funcs]), dom, orders)
        assert list(rows) == orders
        for M in (power(2), exp_young()):
            norms = sobolev_norms(rows, M, 0.7, dom)
            for i, u in enumerate(funcs):
                channels = difference_rows(u.values[None], dom, orders)
                for p in orders:
                    assert np.array_equal(rows[p][i], channels[p][0]), (i, p)
                assert norms[i] == sobolev_norms(channels, M, 0.7, dom)[0], (M, i)
        assert norms[-1] == 0.0
