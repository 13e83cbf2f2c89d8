"""Discrete Orlicz-space engine: modulars, norms, shift diagnostics, mollification.

The Luxemburg gauge is the workhorse norm.  ``gauges`` is its one
implementation: it takes the gauges of several functions on one domain
together, evaluating M once per pass on the stack of their values
(``modulars``), in one pass when M is homogeneous and by a Newton solve per
row otherwise.  ``luxemburg_norm`` is its one-row call.  The dual (Orlicz)
norm is the Amemiya infimum, in closed form for a homogeneous M and at the
root of its optimality condition otherwise, found by a secant solve.  Both
solves step in log scale inside one safeguarded bracket, ``_Bracket``, which
holds the close, the push past the root, the jump of a conjugate's range and
the doubling and bisection fallbacks once for both norms.  A witness search
provides certified lower bounds for the dual norm.  The seeded draws (the
random witnesses and the shifts of the triangle check) come from
``grid.SeededStream``, a SplitMix64 stream in numpy integer arithmetic.  All
integrals are midpoint-rule sums over the domain mask.  Modular integrals
(every gauge and Amemiya pass) sum nonnegative terms, so numpy's pairwise
row sum is accurate to O(log n) 2^-53 relative (Higham 1993), far below
RTOL; the signed sum of ``pairing`` and the sums of ``l1_norm`` and the
bounded-density Amemiya limit keep the compensated ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError
from .grid import GridFunction, SeededStream, convolve, kernel_convolve, mollifier_kernel, shift


RTOL = 1e-12  # relative width at which a gauge or Amemiya root bracket closes
GAUGE_MAX_PASSES = 400  # most modular passes of one gauge solve
AMEMIYA_MAX_PASSES = 200  # most modular passes of one Amemiya root solve
MINKOWSKI_TERMS = 6  # shifted copies of f in the triangle check of ``inequality_suite``
INEQUALITY_SLACK = 1e-6  # relative slack before an inequality row counts as violated


def _csum(arr):
    # exact (compensated) sum of a float array
    return math.fsum(arr.tolist())


def modulars(rows, M, cell_volume, slope=False):
    """rho_M of every row of a stack, from one evaluation of M on the stack.

    ``rows`` is a 2-d array holding |u| on the masked cells, one function
    per row.  Returns the list of each row's rho, +inf for a row where M
    overflows.  With ``slope=True`` returns the pair (rhos, integrals of
    |u| p(|u|)), the latter +inf where they overflow.  This is the one
    modular pass every gauge takes.

    Each row is one numpy pairwise sum along its contiguous axis, not a
    compensated ``math.fsum``: the terms are nonnegative, so the relative
    error is O(log n) 2^-53, far below RTOL, and a row sums alike alone
    or in a stack, so a batched gauge equals its one-row call bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mv = M(rows)
    rhos = _row_sums(mv, cell_volume)
    if not slope:
        return rhos
    with np.errstate(over="ignore", invalid="ignore"):
        xp = rows * M.density(rows)
    return rhos, _row_sums(xp, cell_volume)


def _row_sums(arr, cell_volume):
    # a row holding inf or nan sums to a non-finite value, which reads +inf
    sums = np.ascontiguousarray(arr).sum(axis=1) * cell_volume
    return np.where(np.isfinite(sums), sums, math.inf).tolist()


def modular(u, M):
    """rho_M(u) = integral of M(u(x)) over the masked cells.

    Returns +inf when M overflows at some node (the function then lies
    outside the Orlicz class).
    """
    return modulars(np.abs(u.masked_values())[None, :], M, u.domain.cell_volume)[0]


def l1_norm(u):
    return _csum(np.abs(u.masked_values())) * u.domain.cell_volume


def pairing(u, v):
    """Discrete duality pairing over the masked cells."""
    prod = u.masked_values() * v.masked_values()
    return _csum(prod) * u.domain.cell_volume


def gauges(rows, M, domain):
    """Gauge norms inf{ lam > 0 : rho(u/lam) <= 1 } of several functions at once.

    ``rows`` holds |u| on the masked cells of ``domain``, one function per
    row.  A zero row has gauge 0; a non-finite value raises BracketError.
    Every pass evaluates M (and its density) once on the stack of the rows
    still open, through ``modulars``, so a channel dictionary costs the
    passes of its slowest row, not their sum.

    When M is homogeneous of degree q, one pass gives every gauge in closed
    form: ||u|| = sup * rho(u / sup)^(1/q).

    Otherwise each row takes Newton steps on log rho(e^t |u|) = 0 in
    t = -log(lam), whose slope is int |u| p(|u|) / int M(|u|) at e^t u, in its
    own ``_Bracket``, and ends at exp(-(a + b) / 2) once b - a <= RTOL (a
    power gauge then meets the discrete p-norm to ~1e-12 relative).  A row
    open after GAUGE_MAX_PASSES passes ends the same way, or at 0 while b is
    open (only u = 0 does that).  No row's result depends on the others.
    """
    rows = np.asarray(rows, dtype=float)
    sups = rows.max(axis=1)
    out = [0.0] * len(rows)
    live = []
    for i, sup in enumerate(sups.tolist()):
        if not math.isfinite(sup):
            raise BracketError("no upper gauge bracket: function exceeds the trusted range")
        if sup != 0.0:
            live.append(i)
    if not live:
        return out
    cell_volume = domain.cell_volume
    if M.degree is not None:
        rhos = modulars(rows[live] / sups[live, None], M, cell_volume)
        for i, rho in zip(live, rhos):
            out[i] = float(sups[i]) * rho ** (1.0 / M.degree)
        return out
    measure = domain.measure()
    ts = {i: _start(M, measure, float(sups[i])) for i in live}
    brackets = {i: _Bracket(M, float(sups[i])) for i in live}
    for _ in range(GAUGE_MAX_PASSES):
        if not ts:
            break
        open_rows = list(ts)
        scales = np.array([math.exp(ts[i]) for i in open_rows])
        rhos, drhos = modulars(rows[open_rows] * scales[:, None], M, cell_volume, slope=True)
        for i, rho, drho in zip(open_rows, rhos, drhos):
            step = None
            if 0.0 < rho < math.inf and 0.0 < drho < math.inf:
                step = -math.log(rho) * rho / drho
            ts[i] = brackets[i].next(ts[i], rho <= 1.0, step, rho == math.inf)
            if ts[i] is None:
                del ts[i]
    for i, bracket in brackets.items():
        if math.isinf(bracket.a):
            raise BracketError("no upper gauge bracket: function exceeds the trusted range")
        out[i] = 0.0 if math.isinf(bracket.b) else math.exp(-0.5 * (bracket.a + bracket.b))
    return out


def _start(M, measure, sup):
    """log(M^{-1}(1/mes) / sup): rho(e^t u) <= mes * M(e^t sup) <= 1 there."""
    return math.log(M.inverse(1.0 / measure) / sup)


class _Bracket:
    """[a, b] around a root in log scale t: the condition holds at a, fails at b.

    ``next`` takes one pass at t: whether the condition held, the solver's
    step (or None) and whether M overflowed.  It returns the next t, or None
    once b - a <= RTOL.  A step below RTOL is pushed RTOL/4 past the root,
    so the next pass closes the bracket; a step that leaves [a, b] falls
    back to t_jump after an overflow, to doubling while a side is open, and
    then to bisection.  t_jump sits RTOL/4 inside the jump to +inf of M's
    range (the conjugate of a bounded density), e^t sup = M.domain_cap,
    where the root may sit; if the condition holds there, the next pass goes
    RTOL/4 past it, which closes the bracket.
    """

    def __init__(self, M, sup):
        self.a, self.b = -math.inf, math.inf
        self.t_jump = math.log(M.domain_cap / sup) - 0.25 * RTOL

    def next(self, t, holds, step, overflow):
        if holds:
            self.a = t
        else:
            self.b = t
        a, b = self.a, self.b
        if b - a <= RTOL:
            return None
        if step is not None and abs(step) < 0.5 * RTOL:
            step += 0.25 * RTOL if holds else -0.25 * RTOL
        if a == self.t_jump:
            return a + 0.5 * RTOL
        if step is not None and a <= t + step <= b:
            return t + step
        if overflow and a < self.t_jump < b:
            return self.t_jump
        if math.isinf(a):
            return b - math.log(2.0)
        if math.isinf(b):
            return a + math.log(2.0)
        return 0.5 * (a + b)


def luxemburg_norm(u, M):
    """Gauge norm inf{ lam > 0 : modular(u/lam) <= 1 }: the one-row ``gauges``.

    One pass in closed form when M is homogeneous (``M.degree``), otherwise
    a Newton solve in t = -log(lam) inside a ``_Bracket``; see ``gauges``.
    """
    return gauges(np.abs(u.masked_values())[None, :], M, u.domain)[0]


def orlicz_norm(u, M):
    """Dual norm via the Amemiya form inf_{k>0} (1 + modular(k u)) / k.

    When M is homogeneous of degree p, rho(k u) = k^p rho(u) and the
    infimum is p/(p-1) * sup * ((p-1) rho(u / sup))^(1/p) in closed form.

    Otherwise the derivative of the objective in k is
    (g(k) - 1) / k^2 with g(k) = int (k|u| p(k|u|) - M(k|u|)), the
    ``drho - rho`` of one slope pass.  g is nondecreasing (it is the
    complementary modular of p(k|u|)), so the infimum sits at the root of
    g = 1, found by secant steps for log g in s = log k inside a
    ``_Bracket``, as the gauge's Newton steps are (Krasnosel'skii &
    Rutickii, Sec. 10; Hudzik & Maligranda 2000).  The
    norm is (1 + rho(k u)) / k at the root.  Two cases have no root:
    - a density bounded by B whose g stays <= 1: the objective falls toward
      its k -> oo limit B ||u||_1, which is returned;
    - M jumps to +inf (the conjugate of a bounded density): the infimum may
      sit at the jump, which the bracket tries after an overflowing pass.
    Satisfies luxemburg <= orlicz <= 2 luxemburg.
    """
    vals = np.abs(u.masked_values())
    sup = float(np.max(vals))
    if sup == 0.0:
        return 0.0
    if not math.isfinite(sup):
        raise BracketError("no Amemiya bracket: function exceeds the trusted range")
    cell_volume = u.domain.cell_volume
    q = M.degree
    if q is not None:
        rho = modulars((vals / sup)[None, :], M, cell_volume)[0]
        return q / (q - 1.0) * sup * ((q - 1.0) * rho) ** (1.0 / q)
    bound = M.density(M.domain_cap)
    if math.isinf(M.inverse_density(2.0 * bound)):
        support = float(np.count_nonzero(vals)) * cell_volume
        if support * M.complementary()(bound) <= 1.0:
            return bound * _csum(vals) * cell_volume
    s = _start(M, u.domain.measure(), sup)
    bracket = _Bracket(M, sup)
    value = math.inf
    last = None  # (s, log g) of the previous finite pass
    for _ in range(AMEMIYA_MAX_PASSES):
        k = math.exp(s)
        rhos, drhos = modulars((vals * k)[None, :], M, cell_volume, slope=True)
        rho, drho = rhos[0], drhos[0]
        g = drho - rho if drho < math.inf else math.inf
        if g <= 1.0:
            value = (1.0 + rho) / k
        step = None
        if 0.0 < g < math.inf:
            log_g = math.log(g)
            slope = (log_g - last[1]) / (s - last[0]) if last is not None else 0.0
            if not slope > 0.0 and 0.0 < rho < math.inf:
                # d log g / ds is d log rho / ds for a power function
                slope = drho / rho
            if slope > 0.0:
                step = -log_g / slope
            last = (s, log_g)
        s = bracket.next(s, g <= 1.0, step, g == math.inf)
        if s is None:
            return value
    raise BracketError(f"Amemiya root not bracketed within {AMEMIYA_MAX_PASSES} passes")


def characteristic_norm_value(M, measure):
    """Closed-form dual norm of an indicator: mes * Ninv(1/mes)."""
    N = M.complementary()
    return measure * N.inverse(1.0 / measure)


def dual_norm_lower_bound(u, M, trials, seed):
    """Certified lower bound for the dual norm from witness candidates.

    Candidates are normalized to unit complementary modular, so each pairing
    is dominated by the dual norm (weak duality).  The first candidates are
    deterministic (sign pattern, density witness, support indicator); the
    rest are smooth random fields: standard normals drawn field after field
    from ``SeededStream(seed)``, low-pass filtered to |k| <= N/4 per axis.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    N = M.complementary()
    sup = u.sup_norm()
    if sup == 0.0:
        return 0.0
    lux = luxemburg_norm(u, M)
    dom = u.domain
    candidates = []
    signs = np.sign(u.values)
    signs[signs == 0.0] = 1.0
    candidates.append(GridFunction(dom, signs))
    with np.errstate(over="ignore", invalid="ignore"):
        dens = M.density(np.abs(u.values) / lux) * signs
    if np.all(np.isfinite(dens)):
        candidates.append(GridFunction(dom, dens))
    candidates.append(GridFunction(dom, np.where(np.abs(u.values) > 0, signs, 0.0)))
    keep = np.abs(np.fft.fftfreq(dom.N) * dom.N) <= dom.N // 4
    low = np.all(np.meshgrid(*[keep] * dom.n, indexing="ij"), axis=0)
    axes = tuple(range(1, dom.n + 1))
    noise = SeededStream(seed).standard_normal((max(trials - len(candidates), 0), *dom.shape))
    fields = np.fft.ifftn(np.fft.fftn(noise, axes=axes) * low, axes=axes).real
    candidates += [GridFunction(dom, v) for v in fields]
    norms = gauges([np.abs(v.masked_values()) for v in candidates], N, dom)
    return max([0.0] + [abs(pairing(u, v * (1.0 / s))) for v, s in zip(candidates, norms) if s])


def shift_modulus(f, M, shifts):
    """Table of (|delta|, ||T_delta f - f||_M) rows for whole-cell shifts.

    Each shift is a list of integer cell counts, one per axis, and delta is
    cells * h; these translations are the ones the periodic lattice holds
    (``grid.shift``).  The gauges of all differences are taken together.
    """
    magnitudes, diffs = [], []
    for cells in shifts:
        magnitudes.append(float(np.hypot.reduce([float(c) * f.domain.h for c in cells])))
        diffs.append(np.abs((shift(f, cells) - f).masked_values()))
    return list(zip(magnitudes, gauges(diffs, M, f.domain))) if diffs else []


def mollify(f, eps):
    """Smooth f by convolution with the unit-mass compact bump of width eps."""
    ker = mollifier_kernel(f.domain, eps)
    return kernel_convolve(ker, f)


@dataclass
class InequalityRow:
    name: str
    lhs: float
    rhs: float
    violated: bool


@dataclass
class InequalityReport:
    rows: list = field(default_factory=list)

    def add(self, name, lhs, rhs):
        violated = lhs > rhs + INEQUALITY_SLACK * (1.0 + rhs)
        self.rows.append(InequalityRow(name, lhs, rhs, violated))


def inequality_suite(f, g, M, seed):
    """Evaluate both sides of the convolution and embedding inequalities.

    Checked with the full cube as the domain: the sup bound for f*g against
    the product of dual and gauge norms, the L1 convolution bound, the
    product bound with the indicator-norm constant, the L1 embedding, and a
    discrete instance of the integral triangle inequality.  Violations
    beyond the relative slack are recorded, not raised.
    """
    dom = f.domain
    N = M.complementary()
    rep = InequalityReport()

    conv = convolve(f, g)
    sup_conv = float(np.max(np.abs(conv.values)))
    lux_f, lux_g, lux_conv = gauges([np.abs(v.masked_values()) for v in (f, g, conv)], M, dom)
    orl_f = orlicz_norm(f, M)
    lux_g_N = luxemburg_norm(g, N)
    l1_f = l1_norm(f)
    l1_g = l1_norm(g)

    rep.add("holder_sup_bound", sup_conv, orl_f * lux_g_N)
    rep.add("convolution_l1_bound", lux_conv, lux_f * l1_g)
    # ||.||_1 <= C ||.||_M with C the dual indicator norm of the
    # complementary space: mes * M^{-1}(1/mes)
    embed_const = dom.measure() * M.inverse(1.0 / dom.measure())
    rep.add("l1_embedding", l1_f, embed_const * lux_f)
    rep.add("convolution_product_bound", lux_conv, embed_const * lux_f * lux_g)

    stream = SeededStream(seed)
    ks = stream.integers(0, dom.N, size=(MINKOWSKI_TERMS, dom.n))
    coeffs = stream.uniform(-1.0, 1.0, size=MINKOWSKI_TERMS)
    acc = GridFunction.zeros(dom)
    rhs = 0.0
    for k_row, c in zip(ks, coeffs):
        term = shift(f, k_row) * float(c)
        acc = acc + term
        rhs += abs(float(c)) * lux_f
    rep.add("integral_triangle", luxemburg_norm(acc, M), rhs)
    return rep
