import math

import numpy as np
import pytest

from orlipde import space
from orlipde import (
    BracketError,
    GridDomain,
    GridFunction,
    characteristic_norm_value,
    complementary,
    convolve,
    dual_norm_lower_bound,
    exp_young,
    from_density,
    inequality_suite,
    l1_norm,
    luxemburg_norm,
    modular,
    mollify,
    multi_indices,
    orlicz_norm,
    pairing,
    power,
    power_log,
    shift,
    shift_modulus,
    sobolev_norms,
)

from conftest import diff


def bisection_gauge(u, M, rtol=1e-15):
    """Independent oracle: log-bisection of modular(u / lam) <= 1."""
    hi = 1.0
    while modular(u * (1.0 / hi), M) > 1.0:
        hi *= 2.0
    lo = hi
    while modular(u * (1.0 / lo), M) <= 1.0:
        lo *= 0.5
    while hi - lo > rtol * hi:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        if modular(u * (1.0 / mid), M) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def amemiya_oracle(u, M):
    """Independent oracle: zoomed log-grid minimum of (1 + modular(k u)) / k.

    The objective is unimodal in log k, so the true minimum lies within one
    grid step of the best node; each level zooms to two steps around it.
    M is evaluated once per level, on the stack of k|u| over the level's
    nodes, and each node's modular is one row sum (+inf where M overflows).
    """
    vals = np.abs(u.masked_values())
    center, half = -math.log(luxemburg_norm(u, M)), 40.0
    while half > 1e-12:
        grid = center + np.linspace(-half, half, 41)
        ks = np.exp(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = M(ks[:, None] * vals)
        finite = np.isfinite(stack).all(axis=1)
        rhos = np.where(finite, stack.sum(axis=1) * u.domain.cell_volume, np.inf)
        values = (1.0 + rhos) / ks
        center = grid[int(np.argmin(values))]
        half /= 10.0
    return min(values)


@pytest.fixture
def passes(monkeypatch):
    """Each row's modular in every pass, recorded by a wrapper around space.modulars.

    Every gauge pass is one ``modulars`` call on the stack of its open rows,
    so a one-row gauge records one value per pass.
    """
    seen = []
    real = space.modulars

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.extend(out[0] if isinstance(out, tuple) else out)
        return out

    monkeypatch.setattr(space, "modulars", recording)
    return seen


def interval_indicator(domain, a, b):
    x = domain.node_grids()[0]
    return GridFunction(domain, np.where((x >= a) & (x < b), 1.0, 0.0))


class TestModular:
    def test_constant(self, line64):
        x = line64.node_grids()[0]
        dom = line64.with_mask((x >= 0) & (x < 1))
        u = GridFunction.from_callable(dom, lambda x: np.full_like(x, 3.0), restrict=True)
        assert modular(u, power(2)) == pytest.approx(9.0 * 1.0)

    def test_zero(self, line64):
        assert modular(GridFunction.zeros(line64), power(2)) == 0.0

    def test_midpoint_convergence(self):
        # integral of x^2 over [0, 1] with second-order accuracy
        errs = []
        for N in (32, 64, 128):
            dom = GridDomain(1, N, 2.0)
            x = dom.node_grids()[0]
            dom = dom.with_mask((x >= 0) & (x < 1))
            u = GridFunction.from_callable(dom, lambda x: x, restrict=True)
            errs.append(abs(modular(u, power(2)) - 1.0 / 3.0))
        assert errs[0] < (2.0 / 32) ** 2
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_overflow_sentinel(self, line64):
        u = GridFunction.from_callable(line64, lambda x: np.full_like(x, 800.0))
        assert modular(u, exp_young()) == math.inf


class TestLuxemburg:
    def test_power_is_pnorm(self, line64):
        rng = np.random.default_rng(0)
        for p in (1.5, 2.0, 3.0):
            u = GridFunction(line64, rng.standard_normal(64))
            pn = (np.sum(np.abs(u.values) ** p) * line64.cell_volume) ** (1.0 / p)
            assert abs(luxemburg_norm(u, power(p)) - pn) <= 1e-10 * pn

    def test_constant_on_cube(self, line64):
        u = GridFunction.from_callable(line64, lambda x: np.ones_like(x))
        assert luxemburg_norm(u, power(2)) == pytest.approx(math.sqrt(2.0), rel=1e-11)

    def test_indicator_gauge(self, line64):
        # gauge of an indicator is 1 / Minv(1 / measure)
        u = interval_indicator(line64, 0.0, 0.25)
        assert luxemburg_norm(u, power(2)) == pytest.approx(0.5, rel=1e-10)

    def test_zero(self, line64):
        assert luxemburg_norm(GridFunction.zeros(line64), power(2)) == 0.0

    def test_homogeneity(self, line64):
        rng = np.random.default_rng(1)
        u = GridFunction(line64, rng.standard_normal(64))
        M = power(2.5)
        base = luxemburg_norm(u, M)
        for c in (-2.0, 0.5, 10.0):
            assert luxemburg_norm(u * c, M) == pytest.approx(abs(c) * base, rel=1e-8)

    def test_triangle(self, line64):
        rng = np.random.default_rng(2)
        M = power(3)
        for _ in range(5):
            u = GridFunction(line64, rng.standard_normal(64))
            v = GridFunction(line64, rng.standard_normal(64))
            assert luxemburg_norm(u + v, M) <= (
                luxemburg_norm(u, M) + luxemburg_norm(v, M) + 1e-8
            )


class TestGaugeSolver:
    # density kinked at t = 1 and bounded by 2: its conjugate is +inf
    # beyond v = 2, so modular passes overflow and the solver bisects
    KINKED = ([0.0, 1.0, 3.0], [0.0, 2.0, 2.0])

    def fields(self, line64, square32):
        rng = np.random.default_rng(8)
        out = [GridFunction(line64, rng.standard_normal(64)),
               GridFunction(square32, rng.standard_normal((32, 32))),
               interval_indicator(line64, 0.0, 0.25) * 3.0]
        return out + [f * 40.0 for f in out]

    def test_agrees_with_bisection_oracle(self, line64, square32):
        table = from_density(*self.KINKED)
        for M in (power(1.5), power_log(3), exp_young(), table):
            for u in self.fields(line64, square32):
                ref = bisection_gauge(u, M)
                assert abs(luxemburg_norm(u, M) - ref) <= 1e-11 * ref, (M, u)

    def test_bisection_fallback_on_overflow(self, line64, square32, passes):
        # the gauge sits where rho jumps to +inf (e^t sup = N.domain_cap),
        # which the solver tries before bisecting
        N = complementary(from_density(*self.KINKED))
        for u in self.fields(line64, square32):
            ref = bisection_gauge(u, N)
            passes.clear()
            assert abs(luxemburg_norm(u, N) - ref) <= 1e-11 * ref
            assert math.inf in passes
            assert len(passes) <= 6, len(passes)

    def test_few_passes(self, line64, square32, passes):
        for M, most in ((power(1.5), 4), (power(2), 4), (power(3), 4),
                        (exp_young(), 8), (power_log(2), 8), (power_log(3), 8)):
            for u in self.fields(line64, square32):
                passes.clear()
                luxemburg_norm(u, M)
                assert len(passes) <= most, (M, len(passes))

    def test_one_pass_power_gauges(self, line64, square32, passes):
        # a homogeneous M gives each gauge in closed form from one pass
        for M in (power(1.5), power(2), power(3)):
            for M in (M, M.complementary()):
                for u in self.fields(line64, square32):
                    ref = bisection_gauge(u, M)
                    passes.clear()
                    assert abs(luxemburg_norm(u, M) - ref) <= 1e-11 * ref, (M, u)
                    assert len(passes) == 1

    def test_batched_rows_one_pass_each(self, square32, passes):
        # every row of a power gauge records exactly one pass; zero rows none
        rng = np.random.default_rng(9)
        rows = np.abs(rng.standard_normal((5, 1024))) * np.array([[1.0], [0.0], [3.0], [1e-3], [40.0]])
        for M in (power(2), power(3).complementary()):
            passes.clear()
            got = space.gauges(rows, M, square32)
            assert len(passes) == 4
            assert got[1] == 0.0
            for row, g in zip(rows, got):
                assert g == luxemburg_norm(GridFunction(square32, row.reshape(32, 32)), M)

    def test_batched_rows_match_one_row_calls(self, square32, bump):
        # a dictionary's gauges, taken together, are each row's alone, bit for bit
        u = bump(square32, 0.4)
        channels = {p: diff(u, p) for p in multi_indices(2, 2)}
        channels[(0, 0)] = channels[(0, 0)] * 40.0
        for M in (power_log(3), exp_young(), from_density(*self.KINKED)):
            alone = sum(0.7 ** sum(p) * luxemburg_norm(ch, M) for p, ch in channels.items())
            stack = {p: ch.values[None] for p, ch in channels.items()}
            assert sobolev_norms(stack, M, 0.7, square32) == [alone], M
        # under them, the row sums of a modular pass: pairwise over nonnegative
        # terms, within ceil(log2 n) 2^-53 of the exact sum, alike alone or stacked
        rng = np.random.default_rng(5)
        for n in (1, 7, 8, 9, 128, 129, 208, 1024, 2**16):
            rows = np.exp(rng.uniform(-40.0, 5.0, size=(3, n)))
            rows[1, n // 2] = math.inf
            rows[2, 0] = math.nan
            stacked = np.vstack([rows, rows[:1] * 0.5])
            got = space._row_sums(stacked, 0.25)
            assert got[1:3] == [math.inf, math.inf], n
            for row, g in zip(stacked, got):
                assert g == space._row_sums(row[None, :], 0.25)[0], n
                if math.isfinite(g):
                    exact = 0.25 * math.fsum(row.tolist())
                    assert abs(g - exact) <= math.ceil(math.log2(n)) * 2.0**-53 * exact, n

    def test_non_finite_field_raises(self, line64):
        for bad in (math.nan, math.inf):
            vals = np.ones(64)
            vals[5] = bad
            with pytest.raises(BracketError):
                luxemburg_norm(GridFunction(line64, vals), power(2))


class TestOrlicz:
    def test_characteristic_norm_formula(self, line64):
        # quadratic pair: mes E = 0.5 gives dual norm mes * Ninv(1/mes) = 1
        M = power(2, coeff=0.5)
        u = interval_indicator(line64, 0.0, 0.5)
        formula = characteristic_norm_value(M, 0.5)
        assert formula == pytest.approx(1.0, rel=1e-9)
        assert orlicz_norm(u, M) == pytest.approx(formula, rel=1e-8)

    def test_gauge_dual_bracket(self, line64):
        rng = np.random.default_rng(3)
        M = power(2)
        for _ in range(10):
            u = GridFunction(line64, rng.standard_normal(64))
            lux = luxemburg_norm(u, M)
            orl = orlicz_norm(u, M)
            assert lux <= orl * (1 + 1e-9)
            assert orl <= 2 * lux * (1 + 1e-9)

    def test_zero(self, line64):
        assert orlicz_norm(GridFunction.zeros(line64), power(2)) == 0.0

    def test_agrees_with_grid_oracle(self, line64, square32):
        # closed form (power), root of the optimality condition (power-log,
        # exp, kinked table), the k -> oo limit of a bounded density (the
        # table on a support of measure < 1) and the jump of its conjugate
        table = from_density(*TestGaugeSolver.KINKED)
        for M in (power(1.5), power(3), power_log(3), exp_young(), table, table.complementary()):
            for u in TestGaugeSolver().fields(line64, square32):
                ref = amemiya_oracle(u, M)
                got = orlicz_norm(u, M)
                assert abs(got - ref) <= 1e-9 * ref, (M, u, got, ref)
                lux = luxemburg_norm(u, M)
                assert lux <= got * (1 + 1e-9) and got <= 2 * lux * (1 + 1e-9), (M, u)

    def test_few_passes(self, line64, square32, passes):
        # a power takes one pass in closed form, the root solve at most 10
        # (the table's k -> oo limit takes none)
        table = from_density(*TestGaugeSolver.KINKED)
        for M in (power(1.5), power_log(2), power_log(3), exp_young(), table,
                  table.complementary()):
            expected = [1] if M.degree is not None else range(11)
            for u in TestGaugeSolver().fields(line64, square32):
                passes.clear()
                orlicz_norm(u, M)
                assert len(passes) in expected, (M, len(passes))


class TestPairing:
    def test_midpoint_sum_and_holder(self, line64):
        # the pairing is the midpoint rule of u v, and |<u, v>| is bounded
        # by the Orlicz norm of u times the conjugate gauge of v
        rng = np.random.default_rng(6)
        u = GridFunction(line64, rng.standard_normal(64))
        v = GridFunction(line64, rng.standard_normal(64))
        assert pairing(u, v) == pytest.approx(np.sum(u.values * v.values) * line64.h, rel=1e-12)
        assert pairing(u, v) == pairing(v, u)
        for M in (power(3), power_log(3), exp_young()):
            bound = orlicz_norm(u, M) * luxemburg_norm(v, M.complementary())
            assert abs(pairing(u, v)) <= bound * (1 + 1e-12), M


class TestDualLowerBound:
    def test_below_dual_norm(self, line64):
        rng = np.random.default_rng(4)
        M = power(2, coeff=0.5)
        for seed in range(4):
            u = GridFunction(line64, rng.standard_normal(64))
            bound = dual_norm_lower_bound(u, M, trials=8, seed=seed)
            assert bound <= orlicz_norm(u, M) * (1 + 1e-6)

    def test_indicator_witness_is_sharp(self, line64):
        M = power(2, coeff=0.5)
        u = interval_indicator(line64, 0.0, 0.5)
        bound = dual_norm_lower_bound(u, M, trials=4, seed=0)
        assert bound == pytest.approx(orlicz_norm(u, M), rel=1e-6)

    def test_zero(self, line64):
        assert dual_norm_lower_bound(GridFunction.zeros(line64), power(2), 3, 0) == 0.0


class TestShiftDiagnostics:
    def test_lattice_shift_invariance(self, line64):
        rng = np.random.default_rng(5)
        u = GridFunction(line64, rng.standard_normal(64))
        M = power(2.5)
        base = luxemburg_norm(u, M)
        moved = luxemburg_norm(shift(u, [7]), M)
        assert moved == base

    def test_modulus_zero_row(self, line64, bump):
        f = bump(line64, 0.4)
        rows = shift_modulus(f, power(2), [[0]])
        assert rows[0] == (0.0, 0.0)

    def test_smooth_modulus_linear_decay(self, line64, bump):
        f = bump(line64, 0.5)
        cells = [16, 8, 4, 2, 1]
        rows = shift_modulus(f, power(2), [[c] for c in cells])
        mags = np.array([r[0] for r in rows])
        mods = np.array([r[1] for r in rows])
        assert np.all(np.diff(mods) < 0)
        # bounded by a gradient-scale multiple of the displacement
        grad_scale = np.max(np.abs(np.gradient(f.values, line64.h)))
        assert np.all(mods <= grad_scale * mags * math.sqrt(line64.d))

    def test_indicator_modulus_sqrt_scaling(self, line64):
        u = interval_indicator(line64, -0.5, 0.5)
        cells = [16, 4, 1]
        rows = shift_modulus(u, power(2), [[c] for c in cells])
        # symmetric difference has measure 2 delta; the gauge scales as its root
        for (mag, mod) in rows:
            assert mod == pytest.approx(math.sqrt(2 * mag), rel=1e-6)


class TestMollify:
    def test_constant_preserved(self, square32):
        f = GridFunction.from_callable(square32, lambda x, y: np.full_like(x, 2.5))
        out = mollify(f, 0.2)
        assert np.max(np.abs(out.values - 2.5)) < 1e-12

    def test_gauge_convergence(self, line64, bump):
        f = bump(line64, 0.5)
        M = power(2)
        errs = [luxemburg_norm(mollify(f, eps) - f, M) for eps in (0.4, 0.2, 0.1)]
        assert errs[0] > errs[1] > errs[2]

    def test_smooths_indicator(self, line64):
        u = interval_indicator(line64, -0.5, 0.5)
        out = mollify(u, 0.2)
        jump = np.max(np.abs(np.diff(out.values)))
        assert jump < 0.5 * np.max(np.abs(np.diff(u.values)))


def violations(rep):
    """The rows of an inequality report that are violated."""
    return [(r.name, r.lhs, r.rhs) for r in rep.rows if r.violated]


class TestInequalitySuite:
    def test_zero_input(self, line64):
        rep = inequality_suite(GridFunction.zeros(line64), GridFunction.zeros(line64), power(2), 0)
        assert not violations(rep)
        assert all(r.lhs == 0.0 for r in rep.rows)

    def test_unit_mass_smoothing(self, line64, bump):
        f = bump(line64, 0.6)
        M = power(2)
        ker = mollify(f, 0.2)  # exercised through the suite bound below
        g = GridFunction(line64, np.abs(np.random.default_rng(6).standard_normal(64)))
        g = g * (1.0 / l1_norm(g))
        conv = convolve(f, g)
        assert luxemburg_norm(conv, M) <= luxemburg_norm(f, M) * (1 + 1e-9)

    def test_indicator_pair(self, line64):
        chi = interval_indicator(line64, 0.0, 1.0)
        rep = inequality_suite(chi, chi, power(2), 0)
        assert not violations(rep)
        row = {r.name: r for r in rep.rows}["holder_sup_bound"]
        assert row.lhs == pytest.approx(1.0, abs=1e-12)

    def test_random_fields_pass(self, line64, square32):
        rng = np.random.default_rng(7)
        for seed in range(6):
            dom = line64 if seed % 2 == 0 else square32
            f = GridFunction(dom, rng.standard_normal(dom.shape))
            g = GridFunction(dom, rng.standard_normal(dom.shape))
            M = power(1.5 + seed / 4.0)
            rep = inequality_suite(f, g, M, seed=seed)
            assert not violations(rep), violations(rep)
