"""Fundamental solutions, weakly singular potentials and principal-value integrals.

Every shipped kernel is J = c * g(q) with g(q) = q^a (log q)^b and q = x^T A x:
the isotropic and anisotropic second-order families in one to three
dimensions and the squared-Laplacian family in two and three dimensions.  So
d^p J = c * sum_k g^(k)(q) P_{p,k}(x), with polynomials P_{p,k} that follow
from those of the next-lower derivative by the product rule.  Convolution
kernels are sampled on the offset lattice; the singular cell is either
replaced by its inscribed-ball average (weakly singular regime) or excluded
symmetrically (principal value), with the local multiple of the identity
calibrated against the exact inversion identity of the generating operator.
The order-m channels of ``potential_rows`` are the one singular-integral
path: Calderon-Zygmund operators (kernels of mean zero over the sphere) as
FFT convolutions of their principal-value samples.

Since q(t y) = t^2 q(y) and 2a = m - n, the lattice of spacing t is the unit
lattice scaled: d^p J(t y) = t^(m-n-|p|) (d^p J(y) + 2 log t V_p(y)), where
V_p = c d^p(q^a) is the coefficient of log q (zero on the power branch).  So
a kernel samples each channel, and calibrates its local constants, once per
lattice size N on the unit lattice, and every grid of that size (a whole
radius ladder) takes its spectra by that scaling.  ``potential_rows``
evaluates every derivative channel of a stack of densities, one density per
row (a single density is a stack of one), from one forward transform of the
stack and batched inverse transforms.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CapabilityError
from .grid import GridDomain, cap_bump
from .operators import MultiIndex, combine, difference_rows, multi_indices


# Gauss-Legendre nodes and weights on [-1, 1], memoized; callers must not mutate them
_gauss_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def sphere_points(n):
    """Quadrature nodes and weights integrating over the unit sphere.

    1d: two endpoints.  2d: trapezoid on the circle (spectrally accurate),
    256 nodes.  3d: 32 Gauss-Legendre nodes in the polar cosine times a
    64-node trapezoid in azimuth.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        k = 256
        th = np.linspace(0.0, 2 * math.pi, k, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        return pts, np.full(k, 2 * math.pi / k)
    k_mu = 32
    k_phi = 64
    mu, w_mu = _gauss_legendre(k_mu)
    phi = np.linspace(0.0, 2 * math.pi, k_phi, endpoint=False)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    s = np.sqrt(1 - MU**2)
    pts = np.column_stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), MU.ravel()])
    W = np.broadcast_to(w_mu[:, None] * (2 * math.pi / k_phi), MU.shape)
    return pts, W.ravel().copy()


# -- closed-form families -----------------------------------------------------

# (m, n) -> (a, b, c0, q -> q^a): the kernel is c0 * q^a (log q)^b, divided
# by sqrt(det B) for -sum b_ij d_i d_j (q = x^T B^-1 x) and by the scale for
# a multiple of the squared Laplacian (q = |x|^2).  q^a avoids a float power,
# which costs several times more.
_FAMILIES = {
    (2, 1): (0.5, 0, -0.5, np.sqrt),
    (2, 2): (0.0, 1, -1.0 / (4 * math.pi), np.ones_like),
    (2, 3): (-0.5, 0, 1.0 / (4 * math.pi), lambda q: 1.0 / np.sqrt(q)),
    (4, 2): (1.0, 1, 1.0 / (16 * math.pi), lambda q: q),
    (4, 3): (0.5, 0, -1.0 / (8 * math.pi), np.sqrt),
}


class FundamentalSolution:
    """Closed-form kernel J = c * g(q), g(q) = q^a (log q)^b, q = x^T A x.

    ``branch`` is "power" when J is positively homogeneous of degree m-n
    (b = 0) and "log" otherwise (b = 1).  d^p J = c * sum_k g^(k)(q) P_{p,k}(x)
    is carried as a term table {k: P_{p,k}} of polynomials {exponent tuple:
    coefficient}, derived once from the cached table of p - e_last (e_last
    the last axis with a nonzero entry) by d_i[g^(k) P] = g^(k+1) 2(Ax)_i P +
    g^(k) d_i P.  One instance serves every grid.  It keeps one spectra
    store: the half spectra of d^p J and of its log-q coefficient, sampled
    once per (p, N) on the unit lattice (h = 1), from which
    ``channel_spectra`` scales the stack of a grid, keeping only the last
    stack it scaled.  The local constants are calibrated once per (N, mask)
    there.  So one frozen operator shares one kernel across all radii and
    iterates.
    """

    def __init__(self, operator, A, c, name):
        self.operator = operator
        self.n = operator.n
        self.m = operator.m
        self.A = np.asarray(A, dtype=float)
        self.a, self.b, _, self._q_pow = _FAMILIES[self.m, self.n]
        self.c = c
        self.branch = "log" if self.b else "power"
        self.name = name
        self._tables = {MultiIndex((0,) * self.n): {0: {(0,) * self.n: 1.0}}}
        self._spectra = {}
        self._scaled = None  # (key, stack) of the last channel_spectra call
        self._cell_means = {}
        self._ball = None  # ``_ball_nodes`` of one h while channel_spectra samples
        self._local_cache = {}

    def _table(self, p):
        """Term table {k: P_{p,k}} of d^p J, derived from the table of p - e_last."""
        if p not in self._tables:
            axis = max(i for i, k in enumerate(p) if k)
            lower = self._table(MultiIndex(k - (i == axis) for i, k in enumerate(p)))
            terms = collections.defaultdict(lambda: collections.defaultdict(float))
            for k, P in lower.items():
                for e, v in P.items():
                    for j in range(self.n):
                        if self.A[axis, j]:
                            up = tuple(d + (i == j) for i, d in enumerate(e))
                            terms[k + 1][up] += 2.0 * self.A[axis, j] * v
                    if e[axis]:
                        terms[k][tuple(d - (i == axis) for i, d in enumerate(e))] += e[axis] * v
            self._tables[p] = {k: dict(terms[k]) for k in sorted(terms)}
        return self._tables[p]

    def _carries_log(self, p):
        """Whether d^p J has a log q part: b = 1 and some term with alpha_k != 0.

        That part, c d^p(q^a), vanishes on the power branch and for |p| > 2a.
        """
        return bool(self.b) and any(
            math.prod(self.a - j for j in range(k)) for k in self._table(MultiIndex(p))
        )

    def derivative(self, p, coords, log_coefficient):
        """d^p J at nonzero points, or with ``log_coefficient`` its log-q coefficient.

        ``coords`` holds one array per axis; the result is vectorized over
        them.  g^(k)(q) = q^(a-k) (alpha_k log q + beta_k), alpha_(k+1) =
        (a-k) alpha_k, beta_(k+1) = (a-k) beta_k + alpha_k.  Every factor is
        a product of q^a, 1/q, log q and powers of the coordinates, each
        computed once per set of points (``_node_factors``).  The log-q
        coefficient c d^p(q^a) is the same term table with alpha_k as the
        radial factor.
        """
        return self._derivative(p, self._node_factors(coords), log_coefficient)

    def _node_factors(self, coords):
        """q, 1/q, q^a, log q and the coordinate powers, shared by every d^p J at coords."""
        xs = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
        A, axes = self.A, range(self.n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = sum(A[i, j] * xs[i] * xs[j] for i in axes for j in axes if A[i, j])
            log_q = np.log(q) if self.b else None
            return q, 1.0 / q, self._q_pow(q), log_q, [[None, x] for x in xs]

    def _derivative(self, p, factors, log_coefficient):
        table = self._table(MultiIndex(p))
        q, inv_q, q_pow, log_q, powers = factors
        for i, row in enumerate(powers):
            for _ in range(len(row), max(e[i] for P in table.values() for e in P) + 1):
                row.append(row[-1] * row[1])
        out = np.zeros(q.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha, beta = (1.0, 0.0) if self.b else (0.0, 1.0)
            for k in range(max(table) + 1):
                if k:
                    alpha, beta = (self.a - k + 1) * alpha, (self.a - k + 1) * beta + alpha
                    q_pow = q_pow * inv_q
                if k in table and (alpha or not log_coefficient):
                    poly = sum(
                        math.prod((powers[i][d] for i, d in enumerate(e) if d), start=v)
                        for e, v in table[k].items()
                    )
                    if log_coefficient:
                        radial = self.c * alpha
                    else:
                        radial = self.c * beta + (self.c * alpha * log_q if alpha else 0.0)
                    out += q_pow * radial * poly
        return float(out) if out.shape == () else out

    def cell_average(self, p, h, log_coefficient=False):
        """Mean of d^p J, or of its log-q coefficient, over the singular cell's inscribed ball.

        Radial Gauss-Legendre times a sphere rule, every node in one
        evaluation; valid in the weakly singular regime |p| < m.  Normalized
        by the cell volume so it can replace the kernel value at the zero
        offset.  Memoized: the unit lattices of every N share one value,
        and the calls of one h share the nodes and their factors.
        """
        key = (MultiIndex(p), h, log_coefficient)
        if key not in self._cell_means:
            if self._ball is None or self._ball[0] != h:
                self._ball = self._ball_nodes(h)
            _, s, w_s, w_th, factors = self._ball
            vals = self._derivative(p, factors, log_coefficient) @ w_th
            total = sum(wi * si ** (self.n - 1) * float(ti) for si, wi, ti in zip(s, w_s, vals))
            self._cell_means[key] = total / h**self.n
        return self._cell_means[key]

    def _ball_nodes(self, h):
        """(h, radii, radial weights, sphere weights, node factors) of the inscribed-ball rule."""
        rho = h / 2.0
        nodes, w_r = _gauss_legendre(48)
        s = 0.5 * rho * (nodes + 1.0)
        pts, w_th = sphere_points(self.n)
        coords = [np.multiply.outer(s, pts[:, a]) for a in range(self.n)]
        return h, s, 0.5 * rho * w_r, w_th, self._node_factors(coords)

    def kernel_array(self, domain, p, log_coefficient=False):
        """Offset-lattice samples of d^p J with the singular cell handled.

        For |p| < m (weakly singular) the zero-offset entry is replaced by
        the inscribed-ball average; for |p| = m (principal value) it is
        zeroed (symmetric exclusion).  With ``log_coefficient`` the samples
        are those of the log-q coefficient.
        On an even lattice the seam offset -d/2 is also +d/2, so a sample
        with seam coordinates is the mean of d^p J over its +-d/2 images
        along those axes: for A = I a kernel odd in an axis then sums to
        zero over the lattice, and an even kernel is unchanged.
        Sampled afresh on every call; ``channel_spectra`` holds the cache.
        """
        p = MultiIndex(p)
        n, N = domain.n, domain.N
        line = domain.offset_lattice()[0].reshape(N, -1)[:, 0]  # the offsets of one axis
        seam = N % 2 == 0
        if seam:
            line = np.append(line, -line[N // 2])
        vals = self.derivative(p, np.meshgrid(*[line] * n, indexing="ij"), log_coefficient)
        if seam:
            for axis in range(n):
                lo = (slice(None),) * axis + (N // 2,)
                hi = (slice(None),) * axis + (N,)
                vals[lo] = 0.5 * (vals[lo] + vals[hi])
            vals = vals[(slice(0, N),) * n]
        origin = (0,) * n
        if p.order == self.m:
            vals[origin] = 0.0
        else:
            vals[origin] = self.cell_average(p, domain.h, log_coefficient)
        if not np.all(np.isfinite(vals)):
            raise CapabilityError("kernel samples are not finite off the origin")
        return vals

    def _unit_domain(self, N, mask=None):
        """The N^n lattice of spacing 1 centred at 0."""
        return GridDomain(self.n, N, float(N), mask=mask)

    def channel_spectra(self, domain, orders):
        """Stacked half spectra of ``kernel_array(domain, p)`` for p in orders.

        Order-m channels take the principal-value kernel, lower ones the
        weakly singular kernel.  Row p is t^(m-n-|p|) (U + 2 log t V) with
        t = domain.h, where U and V are the half spectra of d^p J and of its
        log-q coefficient on the unit lattice, sampled once per (p, N).  The
        stack is read-only and kept until a call with other (orders, N, d).
        """
        key = (tuple(orders), domain.N, round(domain.d, 12))
        if self._scaled is None or self._scaled[0] != key:
            t = domain.h
            rows = []
            for p in orders:
                if (p, domain.N) not in self._spectra:
                    unit = self._unit_domain(domain.N)
                    U = np.fft.rfftn(self.kernel_array(unit, p))
                    V = None
                    if self._carries_log(p):
                        V = np.fft.rfftn(self.kernel_array(unit, p, log_coefficient=True))
                    self._spectra[p, domain.N] = U, V
                U, V = self._spectra[p, domain.N]
                scale = t ** (self.m - self.n - p.order)
                rows.append(scale * U if V is None else scale * (U + 2.0 * math.log(t) * V))
            stack = np.stack(rows)
            stack.flags.writeable = False
            self._scaled = key, stack
            self._ball = None  # its cell averages are memoized
        return self._scaled[1]

    def local_constants(self, domain):
        """Calibrated identity coefficients for the order-m derivative kernels.

        The principal-value operators are scale invariant, so the constants
        depend on the grid only through N and the mask: they are calibrated
        once per (N, mask) on the unit lattice centred at 0 under that mask.
        """
        key = (domain.N, domain.mask.tobytes())
        if key not in self._local_cache:
            unit = self._unit_domain(domain.N, domain.mask)
            self._local_cache[key] = _calibrate_local_constants(self, unit)
        return self._local_cache[key]

    def __repr__(self):
        return f"FundamentalSolution({self.name}, n={self.n}, m={self.m}, {self.branch})"


def _second_order_matrix(L0):
    B = np.zeros((L0.n, L0.n))
    for p, a in L0.coeffs.items():
        nz = [i for i, e in enumerate(p) if e]
        if p.order != 2:
            raise CapabilityError("pure second-order operator expected")
        if len(nz) == 1:
            B[nz[0], nz[0]] = -float(a)
        else:
            i, j = nz
            B[i, j] = B[j, i] = -float(a) / 2.0
    return B


def _bilaplacian_scale(L0):
    scale = None
    for p, a in L0.coeffs.items():
        nz = sorted(e for e in p if e)
        if nz == [4]:
            c = float(a)
        elif nz == [2, 2]:
            c = float(a) / 2.0
        else:
            raise CapabilityError("fourth-order support is limited to the squared Laplacian")
        if scale is None:
            scale = c
        elif not math.isclose(scale, c, rel_tol=1e-12):
            raise CapabilityError("fourth-order support is limited to the squared Laplacian")
    # every squared-Laplacian term must be present: n pure plus n(n-1)/2 mixed
    if len(L0.coeffs) != L0.n + L0.n * (L0.n - 1) // 2:
        raise CapabilityError("fourth-order support is limited to the squared Laplacian")
    return scale


def fundamental_solution(L0):
    """Closed-form fundamental solution of a constant-coefficient operator.

    Supported: second order -sum b_ij d_i d_j with definite symmetric B in
    n = 1, 2, 3, and multiples of the squared Laplacian in n = 2, 3.  Signs
    are fixed so convolving the kernel with L0(phi) reproduces phi.  Raises
    CapabilityError for anything else.
    """
    if not L0.is_constant():
        raise CapabilityError("fundamental solutions require constant coefficients")
    if any(p.order < L0.m for p in L0.coeffs):
        raise CapabilityError("fundamental solutions require a pure-order operator")
    n = L0.n
    if (L0.m, n) not in _FAMILIES:
        raise CapabilityError(f"no fundamental solution shipped for (n={n}, m={L0.m})")
    c0 = _FAMILIES[L0.m, n][2]
    if L0.m == 2:
        B = _second_order_matrix(L0)
        eig = np.linalg.eigvalsh(B)
        sign = 1.0
        if np.all(eig < 0):
            B = -B
            sign = -1.0
        elif not np.all(eig > 0):
            raise CapabilityError("second-order coefficient matrix is not definite")
        Binv = np.linalg.inv(B)
        c = sign * c0 / math.sqrt(float(np.linalg.det(B)))
        name = f"laplace{n}d" if np.allclose(B, B[0, 0] * np.eye(n)) else f"aniso{n}d"
        return FundamentalSolution(L0, (Binv + Binv.T) / 2.0, c, name)
    return FundamentalSolution(L0, np.eye(n), c0 / _bilaplacian_scale(L0), f"biharmonic{n}d")


# -- potentials ---------------------------------------------------------------


# most grid nodes per batched inverse transform: batching saves the per-call
# overhead of small grids (15 channels at N = 32 in 2-d run 2.8x faster as
# one batch than one by one), while one large batch loses cache locality
# (35 channels at N = 32 in 3-d run 1.5x slower as one batch).  The leading
# axes of a transform are densities (the probes of a contraction profile)
# times channels: as many whole dictionaries as fit, 4 probes of 15 channels
# at N = 32 in 2-d, else one density's channels in chunks that fit (one
# dictionary at 2-d N = 64, 2 channels at a time at 3-d N = 32).
_BATCH_NODES = 2**16


def densities_per_transform(domain, channels):
    """How many densities' dictionaries of ``channels`` channels fit one transform; at least 1."""
    return max(1, _BATCH_NODES // (channels * domain.N**domain.n))


def _convolve_channels(J, psi_hats, domain, orders):
    """Convolutions of the stacked kernels of orders with stacked half spectra.

    ``psi_hats`` holds one half spectrum per density along its leading
    axis; the result lists one array per channel, of shape (densities,
    *domain.shape).  Batched inverse transforms of up to ``_BATCH_NODES``
    nodes each: the whole dictionaries of ``densities_per_transform``
    densities where they fit, else chunks of one density's channels.  Each
    entry equals, bit for bit, the inverse transform of its kernel spectrum
    times its density's half spectrum, taken alone.
    """
    stack = J.channel_spectra(domain, orders)
    per_density = densities_per_transform(domain, len(stack))
    per_channel = max(1, _BATCH_NODES // domain.N**domain.n)
    axes = tuple(range(-domain.n, 0))
    out = [np.empty((len(psi_hats), *domain.shape)) for _ in stack]
    for i in range(0, len(psi_hats), per_density):
        for j in range(0, len(stack), per_channel):
            prod = stack[j : j + per_channel] * psi_hats[i : i + per_density, None]
            vals = np.fft.irfftn(prod, s=domain.shape, axes=axes)
            for k in range(vals.shape[1]):
                out[j + k][i : i + per_density] = vals[:, k] * domain.cell_volume
    return out


def potential_rows(J, rows, domain, orders):
    """Derivative channels d^p of the potentials of stacked densities, keyed by p.

    ``rows`` holds one density on ``domain`` per row, shape (count,
    *domain.shape), and each channel is a stack of the same shape.  The
    densities are restricted to the domain mask and transformed once, all
    together; all channels then come from batched inverse transforms
    against the stacked kernel spectra of ``J.channel_spectra``.
    Channels with |p| < m use the weakly singular kernel, whose singular
    cell holds the inscribed-ball average.  Order-m channels are the
    principal value plus the local multiple of the restricted density, with
    the constants calibrated against the inversion identity of the
    generating operator.  Linear in each density; every row equals that
    density's stack of one, bit for bit.
    """
    orders = tuple(MultiIndex(p) for p in orders)
    for p in orders:
        if p.order > J.m:
            raise ValueError(f"channel {p} exceeds the kernel order {J.m}")
    psi = np.where(domain.mask, rows, 0.0)
    psi_hats = np.fft.rfftn(psi, axes=tuple(range(-domain.n, 0)))
    channels = dict(zip(orders, _convolve_channels(J, psi_hats, domain, orders)))
    for p, ch in channels.items():
        if p.order == J.m:
            ch += psi * J.local_constants(domain).constants[p]
    return channels


@dataclass
class LocalConstants:
    constants: dict
    residual: float
    gamma: float


def _probe_bumps(domain):
    """Three calibration probes, stacked: two to fit, the last held out."""
    grids = domain.node_grids()
    probes = np.stack([
        cap_bump(grids, domain.center + cells * domain.h, domain.d / width)
        for width, cells in ((5.0, 0.0), (6.5, 3.0), (5.5, -2.0))
    ])
    probes[2] *= 1.0 + 0.5 * np.sin(2 * np.pi * grids[0] / domain.d)
    return probes


CALIBRATION_THRESHOLD = 0.05  # largest held-out identity residual of a calibration
REPRODUCTION_THRESHOLD = 0.05  # largest error ``verify_fundamental`` passes


def _calibrate_local_constants(J, domain):
    """Fit the local identity coefficients of the order-m kernels.

    Stage 1 estimates each coefficient from the requirement that the
    principal value plus local term equals a difference derivative of the
    next-lower potential.  Stage 2 rescales all coefficients jointly by
    least squares so the operator applied to its own potential reproduces
    the density, and reports the held-out relative residual.
    """
    probes = _probe_bumps(domain)
    fit, holdout = probes[:2], probes[2]
    orders = multi_indices(J.n, J.m, J.m)
    lowers = multi_indices(J.n, J.m - 1, J.m - 1)
    # principal values act on the probes as they are, the lower potentials on
    # their restriction to the mask
    probe_hats = np.fft.rfftn(probes, axes=tuple(range(-J.n, 0)))
    pv = dict(zip(orders, _convolve_channels(J, probe_hats, domain, orders)))
    lower = potential_rows(J, fit, domain, lowers)
    raw = {}
    for p in orders:
        axis = next(i for i, e in enumerate(p) if e)
        unit = MultiIndex(1 if a == axis else 0 for a in range(J.n))
        q = MultiIndex(e - u for e, u in zip(p, unit))
        resid = difference_rows(lower[q], domain, [unit])[unit] - pv[p][:2]
        num = sum(float(np.sum(r * psi)) for r, psi in zip(resid, fit))
        den = sum(float(np.sum(psi**2)) for psi in fit)
        raw[p] = num / den
    # joint rescale against the inversion identity on the fit probes; the
    # identity involves only the operator's own leading indices
    a0 = J.operator.coefficients(domain)
    csum = sum(a0[p] * raw[p] for p in a0)
    pv_total = combine(a0, pv)
    num = sum(float(np.sum((psi - t) * (csum * psi))) for psi, t in zip(fit, pv_total))
    den = sum(float(np.sum((csum * psi) ** 2)) for psi in fit)
    gamma = num / den
    constants = {p: gamma * raw[p] for p in raw}
    # held-out residual of the inversion identity
    local = sum(a0[p] * constants[p] for p in a0)
    recon = pv_total[2] + local * holdout
    residual = float(np.max(np.abs(recon - holdout)) / np.max(np.abs(holdout)))
    if residual > CALIBRATION_THRESHOLD:
        raise CalibrationError(
            f"kernel calibration failed: identity residual {residual:.3g} > {CALIBRATION_THRESHOLD}"
        )
    return LocalConstants(constants=constants, residual=residual, gamma=gamma)


@dataclass
class ReproductionRow:
    label: str
    error: float
    trivial: bool = False


@dataclass
class ReproductionReport:
    rows: list
    threshold: float

    @property
    def passed(self):
        return all(r.trivial or r.error <= self.threshold for r in self.rows)

    @property
    def max_error(self):
        errs = [r.error for r in self.rows if not r.trivial]
        return max(errs) if errs else 0.0


def verify_fundamental(J, phis):
    """Reproduction check: convolving the kernel with L0(phi) returns phi.

    The error is the masked sup-norm defect relative to sup|phi|; inputs
    with vanishing sup are reported as trivial.
    """
    rows = []
    for i, phi in enumerate(phis):
        sup = phi.sup_norm(masked=False)
        if sup == 0.0:
            rows.append(ReproductionRow(label=f"phi{i}", error=math.nan, trivial=True))
            continue
        origin = (0,) * J.n
        density = J.operator.apply(phi).values[None]
        recon = potential_rows(J, density, phi.domain, [origin])[origin][0]
        err = float(np.max(np.abs((recon - phi.values)[phi.domain.mask]))) / sup
        rows.append(ReproductionRow(label=f"phi{i}", error=err))
    return ReproductionReport(rows=rows, threshold=REPRODUCTION_THRESHOLD)

