from pathlib import Path

import numpy as np
import pytest

from orlipde import (
    ContractionProfile,
    EllipticOperator,
    GridDomain,
    GridFunction,
    ParametrixOperator,
    SolveReport,
    cli,
    combine,
    config,
    contraction_profile,
    difference_rows,
    frozen_operator,
    fundamental_solution,
    kernels,
    multi_indices,
    parametrix,
    potential_rows,
    power,
    sobolev_norms,
)
from orlipde.grid import SeededStream, convolve

from conftest import assert_pinned_outputs, bilaplacian, cap_profile, laplacian, negated

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_table(path):
    """name,value (or r,sigma_hat) CSV without its header, as a list of rows."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def operator_at(L, x0, r, N, M):
    """The ParametrixOperator of L on B_r(x0), with its own frozen point and kernel."""
    return ParametrixOperator(frozen_operator(L, x0), r, N, M)


def profile(L, x0, radii, probes, seed, N, M):
    """The contraction profile of L at x0, with its own frozen point and kernel."""
    return contraction_profile(frozen_operator(L, x0), radii, probes, seed, N, M)


class TestPotentialChannels:
    @pytest.mark.parametrize("operator", [laplacian(2), bilaplacian(2)], ids=repr)
    def test_matches_single_channel_potentials(self, operator):
        # every channel equals the channel computed alone, bit for bit (one
        # batched inverse transform against the stacked spectra), and a
        # fresh convolution with its sampled kernel, plus the calibrated
        # local term on the order-m channels
        J = fundamental_solution(operator)
        dom = GridDomain(2, 32, 1.0)
        dom = dom.with_mask(dom.ball_mask([0.0, 0.0], 0.3))
        psi = cap_profile(dom, 0.25, center=[0.03, -0.02])
        channels = potential_rows(J, psi.values[None], dom, multi_indices(2, J.m))
        assert len(channels) == len(multi_indices(2, J.m))
        local = J.local_constants(dom).constants
        samples = J.kernel_array(dom, list(channels))
        for p, (ch,) in channels.items():
            (single,) = potential_rows(J, psi.values[None], dom, [p])[p]
            full = convolve(GridFunction(dom, samples[p, False]), psi.restricted())
            if p.order == J.m:
                full = full + psi.restricted() * local[p]
            scale = np.max(np.abs(ch))
            assert np.array_equal(ch, single), p
            assert np.max(np.abs(ch - full.values)) <= 1e-12 * scale, p

    @pytest.mark.parametrize("operator, N, count", [
        (laplacian(2), 32, 3),
        (bilaplacian(2), 32, 6),  # 4 densities per transform, then 2
        (bilaplacian(2), 64, 2),  # one density per transform
        (laplacian(3), 32, 2),  # 2 channels per transform
    ], ids=["laplace2d-32", "biharmonic2d-32", "biharmonic2d-64", "laplace3d-32"])
    def test_stacked_rows_match_one_row_calls(self, operator, N, count):
        # each row of a stacked call equals that density's stack of one, bit
        # for bit, however the densities and channels are chunked into transforms
        J = fundamental_solution(operator)
        n = operator.n
        dom = GridDomain(n, N, 1.0)
        dom = dom.with_mask(dom.ball_mask([0.0] * n, 0.3))
        rows = np.stack([
            (1.0 + k) * cap_profile(dom, 0.35, center=[0.03 * k] * n).values for k in range(count)
        ])
        rows[-1] = 0.0
        orders = multi_indices(n, J.m)
        stacked = potential_rows(J, rows, dom, orders)
        assert list(stacked) == orders
        for i in range(count):
            single = potential_rows(J, rows[i : i + 1], dom, orders)
            for p in orders:
                assert stacked[p].shape == (count, *dom.shape)
                assert np.array_equal(stacked[p][i], single[p][0]), (i, p)

    def test_order_above_m_rejected(self, square32):
        J = fundamental_solution(laplacian(2))
        with pytest.raises(ValueError):
            potential_rows(J, cap_profile(square32, 0.2).values[None], square32, [(2, 1)])

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("operator, sizes", [
        (bilaplacian(2), (32, 64, 32)),
        (laplacian(3), (16, 32, 16)),
    ], ids=["biharmonic2d", "laplace3d"])
    def test_out_stack_holds_the_channels(self, operator, sizes, count):
        # with out=, every channel is a view of the caller's stack and equals
        # the allocating call bit for bit; one kernel runs at N, 2N, then N
        # again, and every earlier result is unchanged afterwards, so none is
        # a view of the kernel's scratch
        J = fundamental_solution(operator)
        n, orders = operator.n, multi_indices(operator.n, operator.m)
        rng = np.random.default_rng(5)
        results = []
        for N in sizes:
            dom = GridDomain(n, N, 1.0)
            dom = dom.with_mask(dom.ball_mask([0.0] * n, 0.3))
            rows = rng.standard_normal((count, *dom.shape))
            fresh = potential_rows(J, rows, dom, orders)
            buf = np.full((len(orders), count, *dom.shape), np.nan)
            into = potential_rows(J, rows, dom, orders, out=buf)
            assert list(into) == orders
            for k, p in enumerate(orders):
                assert np.shares_memory(into[p], buf[k]), p
                assert into[p].tobytes() == fresh[p].tobytes(), (N, p)
            results += [(r, {p: ch.tobytes() for p, ch in r.items()}) for r in (fresh, into)]
        for channels, saved in results:
            assert all(channels[p].tobytes() == saved[p] for p in orders)

    @pytest.mark.parametrize("operator, N, count", [
        (bilaplacian(2), 32, 4),
        (laplacian(3), 16, 1),
    ], ids=["biharmonic2d", "laplace3d"])
    def test_out_stack_call_allocates_under_a_tenth_of_it(self, operator, N, count):
        # after one warm-up call, a same-shape call into the caller's stack
        # takes its densities, spectra and transform products from the
        # kernel's scratch: its peak allocation is under 10% of the stack
        import tracemalloc

        J = fundamental_solution(operator)
        n, orders = operator.n, multi_indices(operator.n, operator.m)
        dom = GridDomain(n, N, 1.0)
        dom = dom.with_mask(dom.ball_mask([0.0] * n, 0.3))
        rows = np.random.default_rng(6).standard_normal((count, *dom.shape))
        buf = np.empty((len(orders), count, *dom.shape))
        potential_rows(J, rows, dom, orders, out=buf)
        tracemalloc.start()
        try:
            potential_rows(J, rows, dom, orders, out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * buf.nbytes, (peak, buf.nbytes)


def identity_defect(P, phi):
    """Relative sup defect of phi = correction(phi) + potential(L phi) over the ball.

    phi must vanish outside the ball.  The correction is the potential of
    the remainder applied to phi by central differences; both potentials
    are taken at once, as channel 0 of the potential of the summed density.
    """
    assert not np.any(phi.values[~P.domain.mask])
    differences = difference_rows(phi.values[None], P.domain, P.remainder_coeffs)
    density = combine(P.remainder_coeffs, differences) + P.L.apply(phi).values
    origin = (0,) * P.L.n
    (rec,) = potential_rows(P.J, density, P.domain, [origin])[origin]
    defect = np.abs((rec - phi.values)[P.domain.mask])
    return float(np.max(defect)) / phi.sup_norm(masked=False)


class TestIdentityDefect:
    def test_representation_converges_with_the_grid(self):
        # phi = correction(phi) + potential(L phi) holds up to quadrature
        # error, which shrinks as the grid is refined
        L = config.load_config(CONFIGS / "perturbed_laplace.cfg", "solve").operator
        defects = []
        for N in (32, 64):
            P = operator_at(L, [0.0, 0.0], 0.2, N, power(2))
            defects.append(identity_defect(P, cap_profile(P.domain, 0.15)))
        assert defects[1] <= 0.05
        assert defects[1] <= 0.6 * defects[0]


class TestSolve:
    def test_converges_with_certificate(self):
        L = config.load_config(CONFIGS / "perturbed_laplace.cfg", "solve").operator
        P = operator_at(L, [0.0, 0.0], 0.2, 32, power(2))
        u, rep = P.solve(cap_profile(P.domain, 0.15), tol=1e-6, k_max=200)
        assert isinstance(rep, SolveReport)
        assert rep.converged and rep.certificate <= 2e-6
        assert u.domain is P.domain and np.all(np.isfinite(u.values))
        # the report holds the final channel dictionary, channel 0 the solution
        assert list(rep.channels) == P.orders
        assert np.array_equal(rep.channels[(0, 0)][0], u.values)

    def test_results_outlive_later_potentials(self):
        # the solution and the report's channels live in the solve's own
        # stacks: later potentials and a profile on the same frozen point
        # leave them as they were, bit for bit
        L = config.load_config(CONFIGS / "perturbed_laplace.cfg", "solve").operator
        point = frozen_operator(L, [0.0, 0.0])
        P = ParametrixOperator(point, 0.2, 32, power(2))
        u, rep = P.solve(cap_profile(P.domain, 0.15), tol=1e-6, k_max=200)
        saved = {p: ch.tobytes() for p, ch in rep.channels.items()}
        solution = u.values.tobytes()
        rows = np.random.default_rng(3).standard_normal((2, *P.domain.shape))
        potential_rows(point.J, rows, P.domain, P.orders)
        contraction_profile(point, [0.2, 0.1], 4, 0, 32, power(2))
        P.solve(cap_profile(P.domain, 0.1), tol=1e-6, k_max=200)
        assert all(rep.channels[p].tobytes() == saved[p] for p in P.orders)
        assert u.values.tobytes() == solution


# the variable-coefficient squared Laplacian of the benchmark's biharmonic solve
BIHARMONIC = """\
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
seed = 0
f = manufactured:exp(-(x1^2+x2^2)/0.00245)
coeff p=(4,0) expr=1+0.1*x1
coeff p=(0,4) expr=1+0.1*x1
coeff p=(2,2) expr=2+0.2*x1
coeff p=(0,0) expr=0.5
"""


def test_one_calibration_per_lattice(tmp_path, monkeypatch):
    # the ladder's four grids are one N = 32 lattice scaled by the radius,
    # so the solve calibrates twice: once for the ladder, once at N = 64
    calls = []
    real = kernels._calibrate_local_constants

    def counting(J, domain, *args, **kwargs):
        calls.append(domain.N)
        return real(J, domain, *args, **kwargs)

    monkeypatch.setattr(kernels, "_calibrate_local_constants", counting)
    cfg = tmp_path / "biharmonic.cfg"
    cfg.write_text(BIHARMONIC)
    assert cli.run_config("solve", cfg, tmp_path / "runs") == 0
    assert sorted(calls) == [32, 64]
    # each radius's constants match a calibration on its own masked grid
    L = config.load_config(cfg, "solve").operator
    point = frozen_operator(L, [0.0, 0.0])
    J = point.J
    for r in (0.4, 0.2, 0.1, 0.05):
        P = ParametrixOperator(point, r, 32, power(2))
        direct = real(J, P.domain).constants
        for p, c in J.local_constants(P.domain).constants.items():
            assert c == pytest.approx(direct[p], abs=1e-14), (r, p)


def test_one_ellipticity_check_per_solve(tmp_path, monkeypatch):
    # the frozen point's one check serves the ladder, the solve and, for an r
    # off the ladder, the profile of r alone
    calls = []
    real = parametrix.ellipticity_check
    monkeypatch.setattr(
        parametrix, "ellipticity_check", lambda *args: calls.append(args) or real(*args)
    )
    text = (CONFIGS / "perturbed_laplace.cfg").read_text()
    assert "r = 0.2\n" in text
    for r in ("0.2", "0.15"):
        cfg = tmp_path / f"r{r}.cfg"
        cfg.write_text(text.replace("r = 0.2\n", f"r = {r}\n"))
        calls.clear()
        assert cli.run_config("solve", cfg, tmp_path / "runs") == 0
        assert len(calls) == 1, r
    # the point of -L records the flip, and keeps -L as it is
    L = config.parse_config(negated(text), "solve").operator
    point = frozen_operator(L, [0.0, 0.0])
    assert point.ellipticity.sign_flipped and point.L is L


def test_one_evaluation_at_x0_per_frozen_point():
    # frozen_operator evaluates each coefficient at x0 once; L0, its
    # ellipticity check, its kernel and the remainder of every radius of the
    # profile and of the solve read those values
    x0 = (0.02, -0.01)
    at_x0 = []

    def coefficient(name, scale):
        def a(x, y):
            if np.ndim(x) == 0:
                assert (x, y) == x0
                at_x0.append(name)
            return -(1.0 + scale * x)
        return a

    L = EllipticOperator(2, 2, {(2, 0): coefficient("a20", 0.2),
                                (0, 2): coefficient("a02", 0.1),
                                (0, 0): coefficient("a00", 0.5)})
    point = frozen_operator(L, x0)
    assert at_x0 == ["a00", "a02", "a20"]
    assert point.L0.coeffs == {(0, 2): -1.002, (2, 0): -1.004}
    M = power(2)
    contraction_profile(point, [0.4, 0.2], 2, 0, 32, M)
    P = ParametrixOperator(point, 0.2, 32, M)
    f = GridFunction.from_callable(P.domain, lambda x, y: np.exp(-(x**2 + y**2) / 0.01))
    _, rep = P.solve(f, 1e-6, 200)
    assert rep.converged and P.J is point.J
    assert at_x0 == ["a00", "a02", "a20"]


def _reference_probe(domain, radius, center, degree=None, stream=None):
    """The probe of the per-probe profile: a cap bump, times 1 + a random polynomial.

    The polynomial's exponents are drawn first, term by term, then its
    coefficients.
    """
    grids = domain.node_grids()
    c = np.asarray(center, dtype=float)
    r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
    vals = np.zeros(domain.shape)
    inside = r2 < radius**2
    vals[inside] = np.exp(-(radius**2) / (radius**2 - r2[inside]))
    if degree is not None:
        exponents = stream.integers(0, degree + 1, size=(degree + 1, domain.n))
        coefficients = stream.uniform(-1.0, 1.0, size=degree + 1)
        poly = np.zeros(domain.shape)
        for ks, coefficient in zip(exponents, coefficients):
            term = np.ones(domain.shape)
            for g, ci, k in zip(grids, c, ks):
                term = term * ((g - ci) / radius) ** k
            poly += coefficient * term
        vals = vals * (1.0 + poly)
    return GridFunction(domain, vals)


def _per_probe_profile(L, x0, radii, probes, seed, N, M):
    """Reference: every probe built and differenced alone on the unit lattice, scaled, normed."""
    point = frozen_operator(L, x0)
    J = point.J
    unit = J._unit_domain(N)
    rho = 0.75 * N / parametrix.PAD
    sigma = []
    for r in radii:
        stream = SeededStream(seed)
        P = ParametrixOperator(point, r, N, M)
        worst = 0.0
        for j in range(probes):
            if j == 0:
                phi = _reference_probe(unit, rho, unit.center)
            else:
                phi = _reference_probe(unit, rho, unit.center, degree=3, stream=stream)
            units = difference_rows(phi.values[None], unit, P.orders)
            differences = {p: units[p] * P.domain.h ** -p.order for p in P.orders}
            (norm,) = sobolev_norms(differences, M, P.d_omega, P.domain)
            if norm == 0.0:
                continue
            remainder = combine(P.remainder_coeffs, differences)
            potentials = potential_rows(J, remainder, P.domain, P.orders)
            (corrected,) = sobolev_norms(potentials, M, P.d_omega, P.domain)
            worst = max(worst, corrected / norm)
        sigma.append(worst)
    return sigma


class TestBatchedProfile:
    @pytest.mark.parametrize("young", ["power:p=2", "exp", "power-log:p=3"])
    @pytest.mark.parametrize("family", ["laplace2d", "biharmonic2d"])
    def test_matches_per_probe_loop(self, family, young):
        # 9 probes: one batch of 6 laplace2d channels, batches of 8 and 1
        # for the 15 biharmonic2d channels
        if family == "laplace2d":
            text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        else:
            text = BIHARMONIC
        L = config.parse_config(text, "solve").operator
        M = config.build_young(young)
        x0, radii = [0.0, 0.0], [0.2, 0.05]
        batched = profile(L, x0, radii, 9, 3, 32, M)
        assert batched.sigma_hat == _per_probe_profile(L, x0, radii, 9, 3, 32, M)

    def test_potentials_batched_by_probe(self, monkeypatch):
        # 8 probes of 15 channels on the N = 32 ladder: at most 2 stacked
        # potential calls per radius, not one per probe
        calls = []
        real = parametrix.potential_rows

        def counting(J, rows, *args):
            calls.append(len(rows))
            return real(J, rows, *args)

        monkeypatch.setattr(parametrix, "potential_rows", counting)
        L = config.parse_config(BIHARMONIC, "solve").operator
        prof = profile(L, [0.0, 0.0], [0.4, 0.2, 0.1, 0.05], 8, 0, 32, power(2))
        assert len(prof.radii) == 4
        assert len(calls) <= 2 * 4 and sum(calls) == 8 * 4, calls


class TestUnitLatticeProbes:
    @pytest.mark.parametrize("operator", [bilaplacian(2), laplacian(3)],
                             ids=["biharmonic2d", "laplace3d"])
    @pytest.mark.parametrize("radii, at", [
        ((0.4, 0.2, 0.1, 0.05), ()),
        ((0.15,), (0.3, -0.1)),
    ], ids=["ladder", "off_ladder"])
    def test_scaled_unit_differences_match_each_radius(self, operator, radii, at):
        # the probes built and differenced once on the unit lattice, times
        # h^-|p|, are those built and differenced on each radius's own grid
        n, N, seed, count = operator.n, 32, 5, 3
        x0 = np.zeros(n)
        x0[: len(at)] = at
        orders = multi_indices(n, operator.m)
        unit = fundamental_solution(operator)._unit_domain(N)
        (rows,) = parametrix.probe_family(
            unit, 0.75 * N / parametrix.PAD, unit.center, count, SeededStream(seed), count)
        units = difference_rows(rows, unit, orders)
        for r in radii:
            dom = GridDomain(n, N, parametrix.PAD * r, center=x0)
            (own,) = parametrix.probe_family(dom, 0.75 * r, x0, count, SeededStream(seed), count)
            for p, want in difference_rows(own, dom, orders).items():
                got = units[p] * dom.h ** -p.order
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (r, p)

    def test_one_difference_per_batch_per_ladder(self, monkeypatch):
        # 9 probes of 15 channels on the N = 32 ladder: batches of 8 and 1,
        # each differenced once for all four radii
        calls = []
        real = parametrix.difference_rows

        def counting(rows, *args):
            calls.append(len(rows))
            return real(rows, *args)

        monkeypatch.setattr(parametrix, "difference_rows", counting)
        L = config.parse_config(BIHARMONIC, "solve").operator
        prof = profile(L, [0.0, 0.0], [0.4, 0.2, 0.1, 0.05], 9, 0, 32, power(2))
        assert len(prof.sigma_hat) == 4
        assert calls == [8, 1], calls


def test_manufactured_error_is_second_order():
    # halving the grid spacing divides the error by about 4 (3.87 measured)
    cfg = config.load_config(CONFIGS / "perturbed_laplace.cfg", "solve")
    L = cfg.operator
    errors = []
    for N in (64, 128):
        P = operator_at(L, cfg["x0"], cfg["r"], N, cfg["young"])
        f, reference = config.build_field(cfg["f"], P.domain, operator=L)
        _, rep = P.solve(f, cfg["tol"], cfg["k_max"])
        errors.append(P.solution_error(rep.channels, reference))
    assert errors == pytest.approx([8.504e-3, 2.196e-3], rel=1e-3)
    assert errors[0] / errors[1] >= 3.5


def test_profile_rejects_coarse_grid():
    # the fourth-order difference stencils need N >= 4m = 16
    with pytest.raises(ValueError, match="grid too coarse"):
        profile(bilaplacian(2), [0.0, 0.0], [0.2], 8, 0, 12, power(2))


def _run(tmp_path, command, kernel, monkeypatch):
    """Run the shipped perturbed-Laplace config with a kernel value.

    Returns (exit code, fundamental_solution calls, run directory or None).
    """
    calls = []
    real = kernels.fundamental_solution

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (kernels, parametrix):
        monkeypatch.setattr(module, "fundamental_solution", counting)
    text = (CONFIGS / "perturbed_laplace.cfg").read_text()
    assert "kernel = auto" in text
    cfg = tmp_path / f"{command}-{kernel}.cfg"
    cfg.write_text(text.replace("kernel = auto", f"kernel = {kernel}"))
    out_root = tmp_path / f"runs-{command}-{kernel}"
    code = cli.run_config(command, cfg, out_root)
    run_dirs = list(out_root.glob("*"))
    assert len(run_dirs) <= 1
    return code, len(calls), next(iter(run_dirs), None)


class TestShippedSolve:
    @pytest.fixture(scope="class")
    def auto_run(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            return _run(tmp_path_factory.mktemp("solve"), "solve", "auto", mp)

    def test_converges_with_certificate(self, auto_run):
        code, _, run_dir = auto_run
        summary = dict(read_table(run_dir / "summary.csv"))
        assert code == 0
        assert summary["converged"] == "true"
        assert int(summary["iterations"]) == 4
        assert float(summary["certificate"]) <= 2 * 1e-6

    def test_sigma_hat_halves_with_radius(self, auto_run):
        # Lipschitz coefficients: the contraction factor is linear in r
        _, _, run_dir = auto_run
        profile = [(float(r), float(s)) for r, s in read_table(run_dir / "sigma_profile.csv")]
        assert [r for r, _ in profile] == [0.4, 0.2, 0.1, 0.05]
        for (r1, s1), (r2, s2) in zip(profile, profile[1:]):
            assert s2 / s1 == pytest.approx(r2 / r1, rel=0.10)

    def test_sigma_hat_at_r_on_ladder(self, auto_run):
        # the generator is re-seeded per radius, so a ladder of r alone
        # gives the ladder's entry at r = 0.2
        _, _, run_dir = auto_run
        summary = dict(read_table(run_dir / "summary.csv"))
        ladder = dict(read_table(run_dir / "sigma_profile.csv"))
        assert summary["sigma_hat_at_r"] == ladder["0.2"]
        L = config.load_config(CONFIGS / "perturbed_laplace.cfg", "solve").operator
        alone = profile(L, [0.0, 0.0], [0.2], 8, 7, 32, power(2))
        assert isinstance(alone, ContractionProfile)
        assert cli._fmt(alone.sigma_hat[0]) == ladder["0.2"]

    def test_sigma_hat_at_r_off_ladder(self, tmp_path, auto_run):
        # r = 0.15 is not on the ladder: sigma_hat is taken at r itself, not
        # at the nearest ladder radius
        text = (CONFIGS / "perturbed_laplace.cfg").read_text()
        assert "r = 0.2\n" in text
        cfg = tmp_path / "r015.cfg"
        cfg.write_text(text.replace("r = 0.2\n", "r = 0.15\n"))
        assert cli.run_config("solve", cfg, tmp_path / "runs") == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        at_r = float(dict(read_table(run_dir / "summary.csv"))["sigma_hat_at_r"])
        L = config.load_config(cfg, "solve").operator
        alone = profile(L, [0.0, 0.0], [0.15], 8, 7, 32, power(2))
        assert at_r == pytest.approx(alone.sigma_hat[0], rel=1e-11)
        ladder = {float(r): float(s) for r, s in read_table(auto_run[2] / "sigma_profile.csv")}
        assert ladder[0.1] < at_r < ladder[0.2]

    def test_pinned_outputs(self, auto_run):
        assert_pinned_outputs(auto_run[2], "perturbed_laplace.cfg")

    def test_one_kernel_for_auto(self, auto_run):
        _, calls, _ = auto_run
        assert calls == 1
        # the frozen point builds the one kernel; the CLI builds none
        assert not hasattr(cli, "fundamental_solution")

    @pytest.mark.parametrize(
        "kernel", ["laplace2d", "biharmonic2d", "aniso2:1,0,2", "laplace3d", "aniso2:x,0,1", "bogus"])
    @pytest.mark.parametrize("command", ["solve", "contraction"])
    def test_other_kernel_exits_2(self, tmp_path, monkeypatch, capsys, command, kernel):
        # the kernel is the fundamental solution of the frozen operator, so
        # any other value is a config error, read before the run directory
        # is made
        code, calls, run_dir = _run(tmp_path, command, kernel, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: key kernel expects auto, got {kernel}"], err
        assert calls == 0
        assert run_dir is None
