"""Elliptic operators of even order on the periodic grid.

An operator is a coefficient map {multi-index p: a_p(.)} applied through
tensor-product second-order central differences; ``difference_rows``
takes a whole dictionary of them for a stack of functions, differencing each
shared prefix of the multi-indices once.  A channel dictionary maps each
multi-index p to such a stack, shape (count, *domain.shape), one function
per row; a single function is a stack of one.  Every operator application
is ``combine`` of a coefficient table (``EllipticOperator.coefficients``)
over a channel dictionary.  The module also provides the characteristic
form, the one Gauss-Legendre rule and the one sphere rule
(``gauss_legendre``, ``sphere_points``), ellipticity and
coefficient-regularity checks, and the weighted Orlicz-Sobolev norms of
channel dictionaries (``sobolev_norms``).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import NotEllipticError
from .grid import GridFunction, SeededStream
from .space import gauges


class MultiIndex(tuple):
    """Tuple of nonnegative integer exponents with a total order."""

    def __new__(cls, entries):
        if isinstance(entries, MultiIndex):
            return entries
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative")
        return super().__new__(cls, entries)

    @property
    def order(self):
        return sum(self)


def multi_indices(n, max_order, min_order=0):
    """All multi-indices in n variables with min_order <= |p| <= max_order."""
    out = []
    for total in range(min_order, max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) == total:
                out.append(MultiIndex(combo))
    return out


# second-order central stencils for d^k/dx^k, as {offset: coefficient}
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


def _axis_diff(values, k, axis, h):
    """Order-k stencil along one axis, its taps summed in ``_STENCILS`` order.

    Every tap is a view of one periodically padded copy of values, which
    gives the samples np.roll would, without a copy per tap.
    """
    if k == 0:
        return values
    n = values.shape[axis]
    padded = np.take(values, np.arange(-2, n + 2) % n, axis=axis)
    window = [slice(None)] * values.ndim
    out = np.zeros_like(values)
    for off, c in _STENCILS[k].items():
        window[axis] = slice(2 + off, 2 + off + n)
        out += c * padded[tuple(window)]
    return out / h**k


def difference_rows(rows, domain, orders):
    """{p: D^p of every row} for a stack of grid arrays, shape (count, *domain.shape).

    The axes are differenced in order, so indices that agree on their first
    entries share those passes: each distinct prefix is differenced once,
    for the whole stack at a time.  Every row is differenced alone as it
    would be in a stack of one, and each index alone, bit for bit.
    """
    partial = {(): rows}
    out = {}
    for p in orders:
        p = MultiIndex(p)
        if len(p) != domain.n:
            raise ValueError("multi-index dimension mismatch")
        if max(p) > 4:
            raise ValueError("stencils shipped up to fourth order per axis")
        for axis, k in enumerate(p):
            if p[: axis + 1] not in partial:
                partial[p[: axis + 1]] = _axis_diff(
                    partial[p[:axis]], k, axis - domain.n, domain.h
                )
        out[p] = partial[p]
    return out


def combine(coeffs, channels):
    """sum_p coeffs[p] * channels[p], summed in the order of ``coeffs``, for stacked rows.

    ``channels`` maps p to a stack of grid arrays, one function per row; so
    does the result.  A coefficient is a float or an array on the grid, as
    in ``EllipticOperator.coefficients``.
    """
    out = np.zeros(next(iter(channels.values())).shape)
    for p, c in coeffs.items():
        out += c * channels[p]
    return out


def coefficient_name(p):
    """A coefficient as the config writes it: coefficient p=(2,0)."""
    return f"coefficient p=({','.join(map(str, p))})"


class EllipticOperator:
    """Sum over |p| <= m of a_p(x) D^p with even order m.

    Coefficients are floats (constant) or callables of the node coordinate
    arrays; ``coefficients`` samples the callables once per grid geometry.
    """

    def __init__(self, n, m, coeffs):
        if m % 2 != 0 or m < 2:
            raise ValueError("operator order must be even and >= 2")
        self.n = int(n)
        self.m = int(m)
        self.coeffs = {}
        for p, a in coeffs.items():
            p = MultiIndex(p)
            if len(p) != self.n:
                raise ValueError(f"coefficient index {p} has wrong dimension")
            if p.order > m:
                raise ValueError(f"coefficient index {p} exceeds order {m}")
            self.coeffs[p] = a
        if not any(p.order == m for p in self.coeffs):
            raise ValueError("no leading coefficient of full order present")
        self._tables = {}

    @property
    def half_order(self):
        return self.m // 2

    def leading_indices(self):
        return [p for p in sorted(self.coeffs) if p.order == self.m]

    def lower_indices(self):
        return [p for p in sorted(self.coeffs) if p.order < self.m]

    def is_constant(self):
        return all(not callable(a) for a in self.coeffs.values())

    def coeff_at(self, p, x):
        """Coefficient value at a point."""
        a = self.coeffs[MultiIndex(p)]
        if callable(a):
            return float(a(*np.asarray(x, dtype=float)))
        return float(a)

    def coefficients(self, domain):
        """{p: a_p} in sorted index order: a float, or the samples on the whole cube.

        Cached per grid geometry.  A sample that is not finite raises
        ConfigError naming the first such coefficient and node.
        """
        key = (domain.n, domain.N, domain.d, tuple(domain.center))
        if key not in self._tables:
            table = {}
            for p in sorted(self.coeffs):
                a = self.coeffs[p]
                if callable(a):
                    with np.errstate(all="ignore"):
                        samples = GridFunction.from_callable(domain, a)
                    table[p] = samples.require_finite(coefficient_name(p)).values
                else:
                    table[p] = float(a)
            self._tables[key] = table
        return self._tables[key]

    def apply(self, u):
        """Operator action by central differences, summed in coefficient order; linear in u."""
        if u.domain.N < 4 * self.m:
            raise ValueError("grid too coarse for the difference stencils")
        table = self.coefficients(u.domain)
        channels = difference_rows(u.values[None], u.domain, self.coeffs)
        return GridFunction(u.domain, combine({p: table[p] for p in self.coeffs}, channels)[0])

    def __repr__(self):
        kind = "constant" if self.is_constant() else "variable"
        return f"EllipticOperator(n={self.n}, m={self.m}, {kind}, {len(self.coeffs)} terms)"


def characteristic_form(L, x, eta):
    """Leading-symbol polynomial sum over |p| = m of a_p(x) eta^p, summed in index order.

    eta is one direction or an array of them along its last axis; each
    leading coefficient is evaluated once.
    """
    eta = np.asarray(eta, dtype=float)
    total = 0.0
    for p in L.leading_indices():
        total = total + L.coeff_at(p, x) * np.prod(eta ** np.asarray(p), axis=-1)
    return total


def gauss_legendre(k):
    """Nodes (ascending) and weights of the k-point Gauss-Legendre rule on [-1, 1].

    Newton steps on P_k from the Chebyshev nodes, all nodes at once, until
    none moves by more than 2^-52, with P_k' = k (P_(k-1) - x P_k) / (1 - x^2);
    the weights are 2 / ((1 - x^2) P_k'^2).
    """
    x = np.cos(math.pi * (np.arange(k, 0, -1) - 0.5) / k)
    for _ in range(100):
        p_prev, p = np.ones(k), x
        for j in range(2, k + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = k * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.all(np.abs(step) <= np.spacing(1.0)):
            break
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)


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
    mu, w_mu = gauss_legendre(k_mu)
    phi = np.linspace(0.0, 2 * math.pi, k_phi, endpoint=False)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    s = np.sqrt(1 - MU**2)
    pts = np.column_stack([(s * np.cos(PHI)).ravel(), (s * np.sin(PHI)).ravel(), MU.ravel()])
    W = np.broadcast_to(w_mu[:, None] * (2 * math.pi / k_phi), MU.shape)
    return pts, W.ravel().copy()


class EllipticityReport(NamedTuple):
    passed: bool
    sign_flipped: bool
    ratio: float
    min_abs: float
    max_abs: float


def ellipticity_check(L, x_samples, eta_samples=None):
    """Verify a uniform sign of (-1)^(m/2) Q(x, eta) over sampled directions.

    The directions default to the nodes of ``sphere_points``.  A uniformly
    negative form passes with the sign-flip flag set (nothing is negated:
    the fundamental solution of the frozen operator changes sign with the
    form); a sign change raises NotEllipticError.  Reports the ellipticity
    ratio min|Q|/max|Q|.  Q over all directions at one sample point is one
    ``characteristic_form`` call.
    """
    if eta_samples is None:
        eta_samples = sphere_points(L.n)[0]
    eta_samples = np.atleast_2d(np.asarray(eta_samples, dtype=float))
    sgn = (-1.0) ** L.half_order
    vals = np.concatenate([
        sgn * characteristic_form(L, x, eta_samples)
        for x in np.atleast_2d(np.asarray(x_samples, dtype=float))
    ])
    if np.all(vals > 0):
        flipped = False
    elif np.all(vals < 0):
        flipped = True
    else:
        raise NotEllipticError(
            f"characteristic form changes sign over samples "
            f"(min={vals.min():.3g}, max={vals.max():.3g})"
        )
    av = np.abs(vals)
    return EllipticityReport(
        passed=True,
        sign_flipped=flipped,
        ratio=float(av.min() / av.max()),
        min_abs=float(av.min()),
        max_abs=float(av.max()),
    )


def _ball_points(n, count, seed):
    stream = SeededStream(seed)
    pts = stream.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = stream.uniform(0.0, 1.0, size=count) ** (1.0 / n)
    return pts * radii[:, None]


class RegularityRow(NamedTuple):
    radius: float
    sup_bound: float
    oscillation: float


class RegularityReport(NamedTuple):
    rows: list
    passed: bool
    note: str = ""


CONTINUITY_SAMPLES = 256  # seeded sample points per ball
CONTINUITY_SEED = 0


def coefficient_continuity_check(L, x0, radii):
    """Boundedness of all coefficients near x0 and continuity of the leading ones.

    For each radius the report records the sampled sup of |a_p| over the
    ball and the leading-coefficient oscillation max |a_p(x) - a_p(x0)|.
    Passing requires finite sups and an oscillation that decays toward zero
    along the (decreasing) radius list; no rate is asserted.
    """
    x0 = np.asarray(x0, dtype=float)
    radii = list(radii)
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must decrease")
    base = _ball_points(L.n, CONTINUITY_SAMPLES, CONTINUITY_SEED)
    rows = []
    all_p = sorted(L.coeffs)
    lead = L.leading_indices()
    a0 = {p: L.coeff_at(p, x0) for p in lead}
    for r in radii:
        pts = x0[None, :] + r * base
        sup = 0.0
        osc = 0.0
        for p in all_p:
            vals = np.array([L.coeff_at(p, x) for x in pts])
            sup = max(sup, float(np.max(np.abs(vals))))
            if p in lead:
                osc = max(osc, float(np.max(np.abs(vals - a0[p]))))
        rows.append(RegularityRow(radius=r, sup_bound=sup, oscillation=osc))
    finite = all(math.isfinite(row.sup_bound) for row in rows)
    osc_first = rows[0].oscillation
    osc_last = rows[-1].oscillation
    if osc_first <= 1e-12:
        decays = True
    else:
        non_increasing = all(
            rows[i + 1].oscillation <= rows[i].oscillation * 1.05 for i in range(len(rows) - 1)
        )
        decays = non_increasing and osc_last <= 0.75 * osc_first
    passed = finite and decays
    note = "" if passed else "leading coefficient oscillation does not vanish"
    return RegularityReport(rows=rows, passed=passed, note=note)


def sobolev_norms(channels, M, d_omega, domain, minus=None):
    """Weighted Orlicz-Sobolev norms sum_p d_omega^|p| ||channels[p][i]||_M of stacked rows.

    ``channels`` maps each multi-index p to a stack of grid arrays on
    ``domain``, shape (count, *domain.shape), row i belonging to function
    i; the result lists the count norms, each summed over the dictionary in
    its order.  d_omega is the diameter of the working domain.  The gauges
    of all rows of all channels are one ``gauges`` call, one evaluation of
    M per pass, and each reads only the masked nodes (one gather of their
    flat indices per channel), so the channels need no restriction.  With
    ``minus``, a dictionary of the same stacks, they are the norms of
    channels - minus, differenced at the gathered nodes only.
    """
    orders, nodes, size = list(channels), np.flatnonzero(domain.mask), domain.mask.size
    rows = [channels[p].reshape(-1, size).take(nodes, axis=1) for p in orders]
    if minus is not None:
        rows = [r - minus[p].reshape(-1, size).take(nodes, axis=1) for r, p in zip(rows, orders)]
    stack = np.abs(np.stack(rows, axis=1))
    count, width = stack.shape[:2]
    norms = gauges(stack.reshape(count * width, -1), M, domain)
    weights = [d_omega ** MultiIndex(p).order for p in orders]
    return [
        sum(w * g for w, g in zip(weights, norms[i * width : (i + 1) * width]))
        for i in range(count)
    ]
