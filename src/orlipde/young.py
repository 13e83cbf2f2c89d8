"""Calculus of N-functions (Young functions).

An N-function is an even, continuous, convex function M with
M(u)/u -> 0 as u -> 0 and M(u)/u -> oo as u -> oo.  This module provides
the closed-form families used throughout the library, tabulated densities,
complementary functions as exact Legendre pairs, doubling (Delta-2)
classification, inversion, and Boyd index estimation.  ``Bracket`` is the
package's one scalar root search: M^{-1} here, and the Luxemburg gauges and
the Amemiya root in ``space``, take safeguarded Newton steps in log scale
inside it, and each closes within ULP_WIDTH max(1, |t|) of its root in t.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    EmbeddingWindowError,
    InvalidYoungFunctionError,
    RangeError,
    UnstableEstimateError,
)

MAX_PASSES = 200  # most passes of one ``Bracket`` search
ULP_WIDTH = 4.0 * 2.0**-52  # a ``Bracket`` closes within this times max(1, |t|)
DELTA2_SAMPLES = 240  # log-spaced points of the doubling trace of ``check_delta2``
BOYD_X_DECADES = (3, 9)  # decades of x, and of t x for t < 1, in ``boyd_indices``
BOYD_X_SAMPLES = 25  # their log-spaced points
BOYD_MONOTONE_TOL = 0.05  # largest relative rise of the dilation trace before it is unstable
EMBEDDING_MARGIN = 0.05  # least distance of the Boyd indices from 0 and from 1


class YoungFunction:
    """An N-function with evaluator, density, inverse density and trusted range.

    ``name`` is the family and its parameters, as ``repr`` shows them.
    ``density`` is the right-continuous nondecreasing derivative p with
    M(u) = int_0^|u| p(t) dt.  ``inverse_density`` is its
    right-continuous inverse q(s) = sup{ t : p(t) <= s }, which is the
    density of the complementary function.  ``domain_cap`` is the largest
    |u| at which evaluation is numerically trusted.  ``degree`` is the
    homogeneity degree q with M(lam u) = lam^q M(u) for every lam > 0 (p for
    ``power(p)``, p/(p-1) for its conjugate) and None for every other
    family; gauge and Amemiya norms take a closed form when it is set.
    """

    def __init__(self, evaluate, density, inverse_density, domain_cap, name, degree=None):
        self._evaluate = evaluate
        self._density = density
        self._inverse_density = inverse_density
        self.domain_cap = float(domain_cap)
        self.name = name
        self.degree = degree
        self._conjugate = None
        self._inverse_memo = {}

    def __call__(self, u):
        """Evaluate M(u); accepts scalars or arrays, even in u."""
        return _apply(self._evaluate, np.abs(np.asarray(u, dtype=float)))

    def density(self, t):
        """Right-continuous density p(t) on t >= 0."""
        return _apply(self._density, t)

    def inverse_density(self, s):
        """Right-continuous inverse density q(s) = sup{ t : p(t) <= s } on s >= 0."""
        return _apply(self._inverse_density, s)

    def __repr__(self):
        return f"YoungFunction({self.name})"

    # -- inversion ---------------------------------------------------------

    def inverse(self, y):
        """Inverse of M on the positive half line: Newton steps in a ``Bracket``.

        Solves log M(e^t) = log y, of slope x p(x) / M(x) at x = e^t, from
        t = min(0, log domain_cap) until the bracket closes within a few ulp
        of t, and returns e^t at its midpoint (0 at y = 0).  Elementwise over
        arrays, memoized per y, since gauges ask for M^{-1}(1/mes) again and
        again.  Raises RangeError for y < 0 or y beyond M(domain_cap).
        """
        if np.ndim(y) > 0:
            return np.vectorize(self.inverse, otypes=[float])(y)
        y = float(y)
        if y in self._inverse_memo:
            return self._inverse_memo[y]
        if y < 0:
            raise RangeError("inverse requested at a negative value")
        cap_val = self(self.domain_cap)
        if y > cap_val:
            raise RangeError(f"y={y:g} exceeds M(domain_cap)={cap_val:g}")
        if y == 0.0:
            return 0.0
        log_y, t_jump = math.log(y), math.log(self.domain_cap)
        bracket = Bracket()
        t = min(0.0, t_jump)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while t is not None:
                x = np.exp(t)
                m = float(self._evaluate(x))
                step = None
                if 0.0 < m < math.inf:
                    slope = float(x * self._density(x)) / m
                    if 0.0 < slope < math.inf:
                        step = -(math.log(m) - log_y) / slope
                t = bracket.next(t, m <= y, step, t_jump if m == math.inf else None)
        self._inverse_memo[y] = math.exp(0.5 * (bracket.a + bracket.b))
        return self._inverse_memo[y]

    def complementary(self):
        """Conjugate N-function, cached; see :func:`complementary`."""
        if self._conjugate is None:
            self._conjugate = complementary(self)
        return self._conjugate


class Bracket:
    """[a, b] around a scalar root in log scale t: the condition holds at a, fails at b.

    ``next`` takes a pass at t: whether the condition held, the solver's step
    (or None) and, if M overflowed, the t where M's range jumps to +inf (the
    conjugate of a bounded density).  It returns the next t, or None once
    b - a <= width = ULP_WIDTH max(1, |t|), the one close of every search,
    or after MAX_PASSES passes; ``closed`` says which.  A step below width/2
    is pushed width/4 past the root, to close the bracket next pass; another
    is taken inside [a, b] unless both ends are finite and it is not below
    half the previous move (rtsafe, Numerical Recipes 9.4).  Then come
    t_jump, width/4 inside the jump, after an overflow (width/2 past a once
    a >= t_jump), doubling, and bisection.
    """

    def __init__(self):
        self.a, self.b = -math.inf, math.inf
        self.t_jump = None
        self.closed = False
        self.passes = 0
        self._last = math.inf  # t of the previous pass

    def next(self, t, holds, step, jump=None):
        if holds:
            self.a = t
        else:
            self.b = t
        a, b = self.a, self.b
        width = ULP_WIDTH * max(1.0, abs(t))
        if jump is not None:
            self.t_jump = jump - 0.25 * width
        move, self._last = abs(t - self._last), t
        self.passes += 1
        self.closed = b - a <= width
        if self.closed or self.passes >= MAX_PASSES:
            return None
        if step is not None and abs(step) < 0.5 * width:
            step += 0.25 * width if holds else -0.25 * width
        elif step is not None and math.isfinite(b - a) and abs(step) >= 0.5 * move:
            step = None
        if self.t_jump is not None and a >= self.t_jump:
            return a + 0.5 * width
        if step is not None and a <= t + step <= b:
            return t + step
        if jump is not None and a < self.t_jump < b:
            return self.t_jump
        if math.isinf(a):
            return b - math.log(2.0)
        if math.isinf(b):
            return a + math.log(2.0)
        return 0.5 * (a + b)


def _apply(fn, x):
    # evaluate M or a density-like function on scalars or arrays
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = fn(x)
    if np.ndim(x) == 0:
        return float(out)
    return out


# -- closed-form families ---------------------------------------------------


def power(p, coeff=1.0):
    """M(u) = coeff * |u|**p with finite p > 1."""
    if not 1.0 < p < math.inf:
        raise InvalidYoungFunctionError("power family requires p > 1 and finite")
    cap = (1e300 / coeff) ** (1.0 / p)
    return YoungFunction(
        evaluate=lambda u: coeff * u**p,
        density=lambda t: coeff * p * t ** (p - 1.0),
        inverse_density=lambda s: (s / (coeff * p)) ** (1.0 / (p - 1.0)),
        domain_cap=cap,
        name=f"power(p={p:g}" + (f",c={coeff:g})" if coeff != 1.0 else ")"),
        degree=p,
    )


def power_log(p):
    """M(u) = |u|**p * log(e + |u|) with finite p > 1."""
    if not 1.0 < p < math.inf:
        raise InvalidYoungFunctionError("power-log family requires p > 1 and finite")
    e = math.e

    def evaluate(u):
        return u**p * np.log(e + u)

    def density(t):
        return p * t ** (p - 1.0) * np.log(e + t) + t**p / (e + t)

    def inverse_density(s):
        # p t^(p-1) <= density(t) < t^(p-1) (p log(e+t) + 1) brackets the
        # root; bisect on log t through geometric midpoints
        hi = (s / p) ** (1.0 / (p - 1.0))
        lo = hi * ((p * np.log(e + hi) + 1.0) / p) ** (-1.0 / (p - 1.0))
        for _ in range(200):
            if np.all(hi - lo <= 4.5e-16 * hi):
                break
            mid = np.sqrt(lo) * np.sqrt(hi)
            below = density(mid) <= s
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return lo

    return YoungFunction(
        evaluate=evaluate,
        density=density,
        inverse_density=inverse_density,
        domain_cap=10.0 ** (250.0 / p),
        name=f"power-log(p={p:g})",
    )


def exp_young():
    """M(u) = exp(|u|) - |u| - 1."""
    return YoungFunction(
        evaluate=lambda u: np.expm1(u) - u,
        density=lambda t: np.expm1(t),
        inverse_density=lambda s: np.log1p(s),
        domain_cap=700.0,
        name="exp",
    )


def from_density(ts, ps, name="table"):
    """Density-sampled N-function from samples (t_i, p(t_i)).

    The density is interpolated linearly (and extrapolated with the last
    slope), so M is piecewise quadratic; the trusted range ends at the last
    sample.  The inverse density swaps the table axes: a flat piece of p
    becomes a jump of q, where q takes the right limit.  Beyond the last
    sample the linear extrapolation is inverted; when its slope is 0, q is
    +inf past ps[-1] and ts[-1] at ps[-1], so the conjugate stays finite at
    the end of its range.
    """
    ts = np.asarray(ts, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if ts.ndim != 1 or ts.shape != ps.shape or ts.size < 2 or not np.isfinite([ts, ps]).all():
        raise InvalidYoungFunctionError("density table needs matching, finite 1-d samples")
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise InvalidYoungFunctionError("density sample points must increase from >= 0")
    if np.any(ps < 0) or np.any(np.diff(ps) < -1e-12 * max(1.0, ps.max())):
        raise InvalidYoungFunctionError("density must be nonnegative and nondecreasing")
    if ts[0] > 0:
        ts = np.concatenate([[0.0], ts])
        ps = np.concatenate([[0.0], ps])
    if ps[0] != 0.0:
        raise InvalidYoungFunctionError("density must vanish at t = 0")
    # cumulative trapezoid: exact integral of the linear interpolant
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ts))])
    last_slope = (ps[-1] - ps[-2]) / (ts[-1] - ts[-2]) if ps[-1] > ps[-2] else 0.0
    # the tolerated round-off decreases are removed before inversion
    mono = np.maximum.accumulate(ps)

    def density(t):
        t = np.asarray(t, dtype=float)
        inside = np.interp(t, ts, ps)
        out = np.where(t > ts[-1], ps[-1] + last_slope * (t - ts[-1]), inside)
        return out

    def inverse_density(s):
        # last sample with p <= s; the next one has p > s unless i is the last
        i = np.clip(np.searchsorted(mono, s, side="right") - 1, 0, ts.size - 1)
        j = np.minimum(i, ts.size - 2)
        inside = ts[j] + (s - mono[j]) * (ts[j + 1] - ts[j]) / (mono[j + 1] - mono[j])
        if last_slope > 0.0:
            tail = ts[-1] + (s - mono[-1]) / last_slope
        else:
            tail = np.where(s > mono[-1], np.inf, ts[-1])
        return np.where(i == ts.size - 1, tail, inside)

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(ts, u, side="right") - 1, 0, ts.size - 2)
        t0 = ts[idx]
        p0 = ps[idx]
        slope = (ps[idx + 1] - ps[idx]) / (ts[idx + 1] - ts[idx])
        du = u - t0
        inside = cum[idx] + p0 * du + 0.5 * slope * du**2
        over = u - ts[-1]
        tail = cum[-1] + ps[-1] * over + 0.5 * last_slope * over**2
        return np.where(u > ts[-1], tail, inside)

    return YoungFunction(
        evaluate=evaluate,
        density=density,
        inverse_density=inverse_density,
        domain_cap=float(ts[-1]),
        name=name,
    )


# -- complementary functions ---------------------------------------------------


def complementary(M):
    """Complementary N-function N(v) = sup_{u >= 0} ( u |v| - M(u) ).

    M and N form a Legendre pair: the supremum is attained at u = q(|v|),
    the inverse density of M, so Young's equality gives
    N(v) = |v| q(|v|) - M(q(|v|)) (clamped at 0 against round-off).  N has
    density q and inverse density p, so conjugating twice evaluates M again.
    N is +inf where q is, i.e. beyond the bound of a bounded density.  The
    trusted range of N ends at p(M.domain_cap), where N is finite.  The
    conjugate of a function homogeneous of degree p is homogeneous of degree
    p/(p-1).
    """

    def evaluate(v):
        t = M.inverse_density(v)
        out = np.maximum(v * t - M(t), 0.0)
        return np.where(np.isinf(t), np.inf, out)

    return YoungFunction(
        evaluate=evaluate,
        density=M.inverse_density,
        inverse_density=M.density,
        domain_cap=M.density(M.domain_cap),
        name=f"conjugate[{M.name}]",
        degree=None if M.degree is None else M.degree / (M.degree - 1.0),
    )


# -- Delta-2 classification ----------------------------------------------------


class Delta2Report(NamedTuple):
    """Outcome of the doubling check M(2u) <= k M(u) on [u0, u_max]."""

    satisfied: bool
    k_hat: float
    u0: float
    u_max: float
    worst_ratio_trace: np.ndarray  # columns (u, M(2u)/M(u))


def check_delta2(M):
    """Classify doubling behaviour of M for large arguments.

    k_hat is the sampled sup of M(2u)/M(u) on log-spaced points of
    [u0, u_max] = [1, min(1e6, M.domain_cap / 2.0000001)], so that 2u stays
    trusted; an empty window raises RangeError.  The verdict is "satisfied"
    when the trace is finite and non-diverging: the sup over the last decade
    must stay within 10% of the sup over the earlier samples.  (A diverging
    ratio always attains its sup in the last decade, so comparing against
    the overall sup would be vacuous.)
    """
    u0, u_max = 1.0, min(1e6, M.domain_cap / 2.0000001)
    if not u0 < u_max:
        raise RangeError(
            f"trusted range ends at {M.domain_cap:g}, too short for the Delta2 test from u0 = 1"
        )
    us = np.logspace(math.log10(u0), math.log10(u_max), DELTA2_SAMPLES)
    m1 = M(us)
    if np.any(m1 == 0):
        raise InvalidYoungFunctionError("M vanishes at a positive sample point")
    m2 = M(2 * us)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = m2 / m1
    trace = np.column_stack([us, ratios])
    finite = np.all(np.isfinite(ratios))
    k_hat = float(np.max(ratios)) if finite else math.inf
    last = us >= u_max / 10.0
    if last.all() or not last.any():
        satisfied = finite
    else:
        sup_last = float(np.max(ratios[last]))
        sup_early = float(np.max(ratios[~last]))
        satisfied = finite and sup_last <= 1.10 * sup_early
    return Delta2Report(satisfied, k_hat, u0, u_max, trace)


# -- Boyd indices --------------------------------------------------------------


class BoydIndices(NamedTuple):
    """Estimated Boyd indices with the sampled dilation trace and fit residual."""

    alpha: float
    beta: float
    h_samples: np.ndarray  # columns (t, h_hat(t))
    fit_residual: float


def boyd_indices(M):
    """Estimate the Boyd indices of the Orlicz space generated by M.

    h_hat(t) approximates limsup_x M^{-1}(x) / M^{-1}(t x) at infinity by a
    max over log-spaced x in 1e3..1e9, times 1/t for t < 1, so that t x too
    stays at infinity; the indices are least-squares slopes of
    log h_hat(t) against log t over fixed decades (t in 1e2..1e6 for the
    upper index, 1e-6..1e-2 for the lower one).  The fit residual is
    reported rather than asserting that the defining limits exist.
    """
    window = np.logspace(*BOYD_X_DECADES, BOYD_X_SAMPLES)
    t_upper = np.logspace(2, 6, 5)
    t_lower = np.logspace(-6, -2, 5)
    all_t = np.concatenate([t_lower, t_upper])

    def h_hat(t):
        xs = window / min(t, 1.0)
        return float(np.max(M.inverse(xs) / M.inverse(t * xs)))

    hs = np.array([h_hat(t) for t in all_t])
    # h is nonincreasing in t (all_t ascends); reject noisy traces
    rel_increase = np.diff(hs) / hs[:-1]
    if np.any(rel_increase > BOYD_MONOTONE_TOL):
        raise UnstableEstimateError(
            "unstable limsup estimate: non-monotone dilation trace",
            trace=np.column_stack([all_t, hs]),
        )

    def fit(ts):
        sel = np.isin(all_t, ts)
        lt = np.log(all_t[sel])
        lh = np.log(hs[sel])
        slope, intercept = np.polyfit(lt, lh, 1)
        resid = float(np.sqrt(np.mean((lh - (slope * lt + intercept)) ** 2)))
        return -slope, resid

    a_raw, res_a = fit(t_upper)
    b_raw, res_b = fit(t_lower)
    a = min(max(a_raw, 0.0), 1.0)
    b = min(max(b_raw, 0.0), 1.0)
    alpha, beta = min(a, b), max(a, b)
    return BoydIndices(
        alpha=alpha,
        beta=beta,
        h_samples=np.column_stack([all_t, hs]),
        fit_residual=max(res_a, res_b),
    )


def embedding_exponents(M, indices=None):
    """Lebesgue exponents (p, q) with L_q inside L_M inside L_p, from Boyd indices.

    Raises EmbeddingWindowError in the non-reflexive regime (lower index
    estimate near 0 or upper estimate near 1), where no such window exists.
    """
    bi = indices if indices is not None else boyd_indices(M)
    margin = EMBEDDING_MARGIN
    if bi.alpha < margin or bi.beta > 1.0 - margin:
        raise EmbeddingWindowError(
            f"no reflexive embedding window: index estimates "
            f"({bi.alpha:.3f}, {bi.beta:.3f}) touch the range edge"
        )
    p = max(1.0, (1.0 / bi.beta) * (1.0 - margin))
    q = (1.0 / bi.alpha) * (1.0 + margin)
    return p, q
