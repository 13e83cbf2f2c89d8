"""Discrete Orlicz-space engine: modulars, norms, shift diagnostics, mollification.

The Luxemburg gauge is the workhorse norm; the dual (Orlicz) norm is
computed through the Amemiya infimum, and a randomized witness search
provides certified lower bounds for it.  All integrals are midpoint-rule
sums over the domain mask with compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError
from .grid import GridFunction, ShiftVector, convolve, kernel_convolve, mollifier_kernel, shift


def _csum(arr):
    # exact (compensated) sum of a float array
    return math.fsum(arr.tolist())


def modular(u, M, slope=False):
    """rho_M(u) = integral of M(u(x)) over the masked cells.

    Returns +inf when M overflows at some node (the function then lies
    outside the Orlicz class).  With ``slope=True`` returns the pair
    (rho, integral of |u| p(|u|)), the second +inf when it overflows; their
    ratio is the derivative of log rho(e^t u) in t.
    """
    vals = np.abs(u.masked_values())
    with np.errstate(over="ignore", invalid="ignore"):
        mv = M(vals)
    rho = _csum(mv) * u.domain.cell_volume if np.all(np.isfinite(mv)) else math.inf
    if not slope:
        return rho
    with np.errstate(over="ignore", invalid="ignore"):
        xp = vals * M.density(vals)
    drho = _csum(xp) * u.domain.cell_volume if np.all(np.isfinite(xp)) else math.inf
    return rho, drho


def l1_norm(u):
    return _csum(np.abs(u.masked_values())) * u.domain.cell_volume


def pairing(u, v):
    """Discrete duality pairing over the masked cells."""
    prod = u.masked_values() * v.masked_values()
    return _csum(prod) * u.domain.cell_volume


def luxemburg_norm(u, M, rtol=1e-12, max_iter=400):
    """Gauge norm inf{ lam > 0 : modular(u/lam) <= 1 }, by safeguarded Newton.

    Solves log rho(e^t |u|) = 0 in t = -log(lam), whose slope is
    int |u| p(|u|) / int M(|u|) at e^t u.  The start t0 = log(M^{-1}(1/mes)
    / sup) has rho <= 1.  Every pass narrows a bracket [a, b] with
    rho(e^a u) <= 1 < rho(e^b u); a Newton step that leaves it, or a pass
    with a non-finite or zero sum, falls back to bisection (or to doubling
    while one side is open).  Once a step is below rtol it is pushed rtol/4
    past the root, so the next pass closes the bracket.  The result is
    exp(-(a + b) / 2) with b - a <= rtol, tight enough that the gauge of a
    power function coincides with the discrete p-norm to ~1e-12 relative.
    """
    sup = u.sup_norm()
    if sup == 0.0:
        return 0.0
    if not math.isfinite(sup):
        raise BracketError("no upper gauge bracket: function exceeds the trusted range")
    # modular(e^t u) <= mes * M(e^t sup) <= 1 once e^t sup <= M^{-1}(1/mes)
    t = math.log(M.inverse(1.0 / u.domain.measure()) / sup)
    a, b = -math.inf, math.inf
    for _ in range(max_iter):
        rho, drho = modular(u * math.exp(t), M, slope=True)
        if rho <= 1.0:
            a = t
        else:
            b = t
        if b - a <= rtol:
            return math.exp(-0.5 * (a + b))
        step = None
        if 0.0 < rho < math.inf and 0.0 < drho < math.inf:
            step = -math.log(rho) * rho / drho
            if abs(step) < 0.5 * rtol:
                step += 0.25 * rtol if rho <= 1.0 else -0.25 * rtol
        if step is not None and a <= t + step <= b:
            t += step
        elif math.isinf(a):
            t = b - math.log(2.0)
        elif math.isinf(b):
            t = a + math.log(2.0)
        else:
            t = 0.5 * (a + b)
    if math.isinf(a):
        raise BracketError("no upper gauge bracket: function exceeds the trusted range")
    if math.isinf(b):
        # modular stays <= 1 for arbitrarily small gauges: only for u = 0
        return 0.0
    return math.exp(-0.5 * (a + b))


def orlicz_norm(u, M, rtol=1e-10, iters=90):
    """Dual norm via the Amemiya form inf_{k>0} (1 + modular(k u)) / k.

    The objective is unimodal in log k; a golden-section search locates the
    infimum.  Satisfies luxemburg <= orlicz <= 2 luxemburg.
    """
    lux = luxemburg_norm(u, M)
    if lux == 0.0:
        return 0.0

    def objective(logk):
        k = math.exp(logk)
        return (1.0 + modular(u * k, M)) / k

    a = math.log(1.0 / lux) - 5.0
    b = math.log(1.0 / lux) + 5.0
    x1 = b - (b - a) * 0.6180339887498949
    x2 = a + (b - a) * 0.6180339887498949
    f1, f2 = objective(x1), objective(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - (b - a) * 0.6180339887498949
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + (b - a) * 0.6180339887498949
            f2 = objective(x2)
        if b - a < rtol:
            break
    return min(f1, f2)


def characteristic_norm_value(M, measure):
    """Closed-form dual norm of an indicator: mes * Ninv(1/mes)."""
    N = M.complementary()
    return measure * N.inverse(1.0 / measure)


def dual_norm_lower_bound(u, M, trials=16, seed=0):
    """Certified lower bound for the dual norm from witness candidates.

    Candidates are normalized to unit complementary modular, so each pairing
    is dominated by the dual norm (weak duality).  The first candidates are
    deterministic (sign pattern, density witness, support indicator); the
    rest are seeded smooth random fields.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    N = M.complementary()
    sup = u.sup_norm()
    if sup == 0.0:
        return 0.0
    lux = luxemburg_norm(u, M)
    dom = u.domain
    rng = np.random.default_rng(seed)
    candidates = []
    signs = np.sign(u.values)
    signs[signs == 0.0] = 1.0
    candidates.append(GridFunction(dom, signs))
    with np.errstate(over="ignore", invalid="ignore"):
        dens = M.density(np.abs(u.values) / lux) * signs
    if np.all(np.isfinite(dens)):
        candidates.append(GridFunction(dom, dens))
    candidates.append(GridFunction(dom, np.where(np.abs(u.values) > 0, signs, 0.0)))
    while len(candidates) < trials:
        noise = rng.standard_normal(dom.shape)
        # low-pass filter for smooth witnesses
        spec = np.fft.fftn(noise)
        cut = dom.N // 4
        for axis in range(dom.n):
            k = np.fft.fftfreq(dom.N) * dom.N
            shp = [1] * dom.n
            shp[axis] = dom.N
            spec = spec * (np.abs(k.reshape(shp)) <= cut)
        candidates.append(GridFunction(dom, np.fft.ifftn(spec).real))
    best = 0.0
    for v in candidates[:max(trials, 3)]:
        s = luxemburg_norm(v, N)
        if s == 0.0:
            continue
        val = abs(pairing(u, v * (1.0 / s)))
        best = max(best, val)
    return best


def shift_modulus(f, M, deltas):
    """Table of (|delta|, ||T_delta f - f||_M) rows for the given shifts."""
    rows = []
    for delta in deltas:
        if not isinstance(delta, ShiftVector):
            delta = ShiftVector(tuple(np.atleast_1d(np.asarray(delta, dtype=float))))
        diff = shift(f, delta) - f
        rows.append((delta.magnitude(), luxemburg_norm(diff, M)))
    return rows


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

    def add(self, name, lhs, rhs, slack=1e-6):
        self.rows.append(InequalityRow(name, lhs, rhs, lhs > rhs + slack * (1.0 + rhs)))

    @property
    def all_pass(self):
        return not any(r.violated for r in self.rows)

    def violations(self):
        return [r for r in self.rows if r.violated]


def inequality_suite(f, g, M, minkowski_terms=6, seed=0):
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
    lux_f = luxemburg_norm(f, M)
    lux_g = luxemburg_norm(g, M)
    orl_f = orlicz_norm(f, M)
    lux_g_N = luxemburg_norm(g, N)
    l1_f = l1_norm(f)
    l1_g = l1_norm(g)
    lux_conv = luxemburg_norm(conv, M)

    rep.add("holder_sup_bound", sup_conv, orl_f * lux_g_N)
    rep.add("convolution_l1_bound", lux_conv, lux_f * l1_g)
    # ||.||_1 <= C ||.||_M with C the dual indicator norm of the
    # complementary space: mes * M^{-1}(1/mes)
    embed_const = dom.measure() * M.inverse(1.0 / dom.measure())
    rep.add("l1_embedding", l1_f, embed_const * lux_f)
    rep.add("convolution_product_bound", lux_conv, embed_const * lux_f * lux_g)

    rng = np.random.default_rng(seed)
    ks = rng.integers(0, dom.N, size=(minkowski_terms, dom.n))
    coeffs = rng.uniform(-1.0, 1.0, size=minkowski_terms)
    acc = GridFunction.zeros(dom)
    rhs = 0.0
    for k_row, c in zip(ks, coeffs):
        sv = ShiftVector.from_cells(dom, k_row)
        term = shift(f, sv) * float(c)
        acc = acc + term
        rhs += abs(float(c)) * lux_f
    rep.add("integral_triangle", luxemburg_norm(acc, M), rhs)
    return rep
