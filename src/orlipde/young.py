"""Calculus of N-functions (Young functions).

An N-function is an even, continuous, convex function M with
M(u)/u -> 0 as u -> 0 and M(u)/u -> oo as u -> oo.  This module provides
the closed-form families used throughout the library, tabulated densities,
complementary functions as exact Legendre pairs, doubling (Delta-2)
classification, inversion, and Boyd index estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmbeddingWindowError,
    InvalidYoungFunctionError,
    RangeError,
    UnstableEstimateError,
)


class YoungFunction:
    """An N-function with evaluator, density, inverse density and trusted range.

    ``kind`` is one of ``power``, ``power-log``, ``exp``, ``density-sampled``
    or ``conjugate``.  ``density`` is the right-continuous nondecreasing
    derivative p with M(u) = int_0^|u| p(t) dt.  ``inverse_density`` is its
    right-continuous inverse q(s) = sup{ t : p(t) <= s }, which is the
    density of the complementary function.  ``domain_cap`` is the largest
    |u| at which evaluation is numerically trusted.
    """

    def __init__(self, kind, evaluate, density, inverse_density, domain_cap,
                 params=None, name=None):
        self.kind = kind
        self._evaluate = evaluate
        self._density = density
        self._inverse_density = inverse_density
        self.domain_cap = float(domain_cap)
        self.params = dict(params or {})
        self.name = name or kind
        self._conjugate = None
        self._inverse_memo = {}

    def __call__(self, u):
        """Evaluate M(u); accepts scalars or arrays, even in u."""
        x = np.abs(np.asarray(u, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._evaluate(x)
        if np.isscalar(u) or np.ndim(u) == 0:
            return float(out)
        return out

    def density(self, t):
        """Right-continuous density p(t) on t >= 0."""
        return _apply(self._density, t)

    def inverse_density(self, s):
        """Right-continuous inverse density q(s) = sup{ t : p(t) <= s } on s >= 0."""
        return _apply(self._inverse_density, s)

    def __repr__(self):
        return f"YoungFunction({self.name})"

    # -- inversion ---------------------------------------------------------

    def inverse(self, y, rtol=1e-10, max_iter=200):
        """Inverse of M on the positive half line, by bracketing + bisection.

        Vectorized over y; scalar results are memoized per (y, rtol,
        max_iter), since gauges ask for M^{-1}(1/mes) again and again.
        Raises RangeError when y exceeds M(domain_cap).
        """
        scalar = np.ndim(y) == 0
        if scalar:
            key = (float(y), rtol, max_iter)
            if key in self._inverse_memo:
                return self._inverse_memo[key]
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(ya < 0):
            raise RangeError("inverse requested at a negative value")
        cap_val = self(self.domain_cap)
        if np.any(ya > cap_val):
            raise RangeError(
                f"y={float(np.max(ya)):g} exceeds M(domain_cap)={cap_val:g}"
            )
        out = np.zeros_like(ya)
        pos = ya > 0
        if pos.any():
            target = ya[pos]
            hi = np.ones_like(target)
            # expand until M(hi) >= y, capped by the trusted range
            for _ in range(1200):
                vals = self(hi)
                need = vals < target
                if not need.any():
                    break
                hi[need] = np.minimum(hi[need] * 2.0, self.domain_cap)
            lo = np.zeros_like(target)
            for _ in range(max_iter):
                mid = 0.5 * (lo + hi)
                below = self(mid) < target
                lo[below] = mid[below]
                hi[~below] = mid[~below]
                if np.all(hi - lo <= rtol * np.maximum(hi, 1e-300)):
                    break
            out[pos] = 0.5 * (lo + hi)
        if scalar:
            self._inverse_memo[key] = float(out[0])
            return self._inverse_memo[key]
        return out

    def complementary(self):
        """Conjugate N-function, cached; see :func:`complementary`."""
        if self._conjugate is None:
            self._conjugate = complementary(self)
        return self._conjugate


def _apply(fn, x):
    # evaluate a density-like function on scalars or arrays
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = fn(x)
    if np.ndim(x) == 0:
        return float(out)
    return out


# -- closed-form families ---------------------------------------------------


def power(p, coeff=1.0):
    """M(u) = coeff * |u|**p with p > 1."""
    if p <= 1.0:
        raise InvalidYoungFunctionError("power family requires p > 1")
    cap = (1e300 / coeff) ** (1.0 / p)
    return YoungFunction(
        kind="power",
        evaluate=lambda u: coeff * u**p,
        density=lambda t: coeff * p * t ** (p - 1.0),
        inverse_density=lambda s: (s / (coeff * p)) ** (1.0 / (p - 1.0)),
        domain_cap=cap,
        params={"p": p, "coeff": coeff},
        name=f"power(p={p:g}" + (f",c={coeff:g})" if coeff != 1.0 else ")"),
    )


def power_log(p):
    """M(u) = |u|**p * log(e + |u|) with p > 1."""
    if p <= 1.0:
        raise InvalidYoungFunctionError("power-log family requires p > 1")
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
        kind="power-log",
        evaluate=evaluate,
        density=density,
        inverse_density=inverse_density,
        domain_cap=10.0 ** (250.0 / p),
        params={"p": p},
        name=f"power-log(p={p:g})",
    )


def exp_young():
    """M(u) = exp(|u|) - |u| - 1."""
    return YoungFunction(
        kind="exp",
        evaluate=lambda u: np.expm1(u) - u,
        density=lambda t: np.expm1(t),
        inverse_density=lambda s: np.log1p(s),
        domain_cap=700.0,
        params={},
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
    if ts.ndim != 1 or ts.shape != ps.shape or ts.size < 2:
        raise InvalidYoungFunctionError("density table needs matching 1-d samples")
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
        kind="density-sampled",
        evaluate=evaluate,
        density=density,
        inverse_density=inverse_density,
        domain_cap=float(ts[-1]),
        params={"samples": ts.size},
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
    trusted range of N ends at p(M.domain_cap), where N is finite.
    """

    def evaluate(v):
        t = M.inverse_density(v)
        out = np.maximum(v * t - M(t), 0.0)
        return np.where(np.isinf(t), np.inf, out)

    return YoungFunction(
        kind="conjugate",
        evaluate=evaluate,
        density=M.inverse_density,
        inverse_density=M.density,
        domain_cap=M.density(M.domain_cap),
        params={"conjugate_of": M.name},
        name=f"conjugate[{M.name}]",
    )


# -- Delta-2 classification ----------------------------------------------------


@dataclass
class Delta2Report:
    """Outcome of the doubling check M(2u) <= k M(u) on [u0, u_max]."""

    satisfied: bool
    k_hat: float
    u0_used: float
    worst_ratio_trace: np.ndarray  # columns (u, M(2u)/M(u))

    def ratio_near(self, u):
        """Trace ratio at the sample point closest to u."""
        idx = int(np.argmin(np.abs(self.worst_ratio_trace[:, 0] - u)))
        return float(self.worst_ratio_trace[idx, 1])


def check_delta2(M, u0=1.0, u_max=1e6, samples=240):
    """Classify doubling behaviour of M for large arguments.

    k_hat is the sampled sup of M(2u)/M(u) on log-spaced points of
    [u0, u_max].  The verdict is "satisfied" when the trace is finite and
    non-diverging: the sup over the last decade must stay within 10% of the
    sup over the earlier samples.  (A diverging ratio always attains its sup
    in the last decade, so comparing against the overall sup would be
    vacuous.)
    """
    if not (0 < u0 < u_max):
        raise ValueError("need 0 < u0 < u_max")
    if 2 * u_max > M.domain_cap:
        raise ValueError("u_max exceeds half the trusted range of M")
    us = np.logspace(math.log10(u0), math.log10(u_max), samples)
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
    return Delta2Report(satisfied=satisfied, k_hat=k_hat, u0_used=u0, worst_ratio_trace=trace)


# -- Boyd indices --------------------------------------------------------------


@dataclass
class BoydIndices:
    """Estimated Boyd indices with the sampled dilation trace and fit residual."""

    alpha: float
    beta: float
    h_samples: np.ndarray  # columns (t, h_hat(t))
    fit_residual: float


def boyd_indices(M, x_window=(1e3, 1e9), x_samples=25, monotone_tol=0.05):
    """Estimate the Boyd indices of the Orlicz space generated by M.

    h_hat(t) approximates limsup_x M^{-1}(x) / M^{-1}(t x) by a max over a
    log-spaced x window; the indices are least-squares slopes of
    log h_hat(t) against log t over fixed decades (t in 1e2..1e6 for the
    upper index, 1e-6..1e-2 for the lower one).  The fit residual is
    reported rather than asserting that the defining limits exist.
    """
    xs = np.logspace(math.log10(x_window[0]), math.log10(x_window[1]), x_samples)
    inv_x = M.inverse(xs)
    t_upper = np.logspace(2, 6, 5)
    t_lower = np.logspace(-6, -2, 5)
    all_t = np.concatenate([t_lower, t_upper])

    def h_hat(t):
        return float(np.max(inv_x / M.inverse(t * xs)))

    hs = np.array([h_hat(t) for t in all_t])
    order = np.argsort(all_t)
    h_sorted = hs[order]
    # h is nonincreasing in t; reject noisy traces
    rel_increase = np.diff(h_sorted) / h_sorted[:-1]
    if np.any(rel_increase > monotone_tol):
        raise UnstableEstimateError(
            "unstable limsup estimate: non-monotone dilation trace",
            trace=np.column_stack([all_t[order], h_sorted]),
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


def embedding_exponents(M, margin=0.05, indices=None):
    """Lebesgue exponents (p, q) with L_q inside L_M inside L_p, from Boyd indices.

    Raises EmbeddingWindowError in the non-reflexive regime (lower index
    estimate near 0 or upper estimate near 1), where no such window exists.
    """
    bi = indices if indices is not None else boyd_indices(M)
    if bi.alpha < margin or bi.beta > 1.0 - margin:
        raise EmbeddingWindowError(
            f"no reflexive embedding window: index estimates "
            f"({bi.alpha:.3f}, {bi.beta:.3f}) touch the range edge"
        )
    p = max(1.0, (1.0 / bi.beta) * (1.0 - margin))
    q = (1.0 / bi.alpha) * (1.0 + margin)
    return p, q
