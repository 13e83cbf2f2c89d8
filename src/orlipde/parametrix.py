"""Local solver built from frozen-coefficient potentials.

Around a point x0 the operator is split into its frozen leading part and a
remainder; convolving the remainder with the frozen kernel defines a
correction operator whose weighted-Sobolev norm shrinks with the ball
radius.  The fixed-point iteration u <- correction(u) + potential(f) then
converges to a local solution of the original equation for small radii.

The frozen operator does not depend on the radius.  ``frozen_operator``
freezes L at x0 once: its record holds L, x0, the frozen leading part L0
and the one ellipticity report, and every ``ParametrixOperator`` and
``contraction_profile`` at x0 takes that record and the one fundamental
solution of L0, whatever the radius.  The ladder's
grids are one lattice scaled by the radius, so the kernel samples and
calibrates once per lattice size, not once per radius.  The potential of a
density is carried as one dictionary of derivative channels
{p: d^p S sigma}, computed from one forward transform of the density
(``potential_rows``).  The correction density and the residual are
coefficient combinations over that dictionary (``operators.combine``), and
every weighted norm (probe, correction, iterate, step, error) is
``sobolev_norms`` of one.  L is never negated: when its characteristic form
is negative, so is the fundamental solution of L0, and the local solution
u = S0 sigma of (L, f) is that of (-L, -f).

Every channel dictionary is stacked: each channel holds one function per row
along a leading axis.  The contraction profile builds each radius's probes
as one stack (``probe_family``) and runs them in batches of as many probes
as fit one inverse transform of their channels: each batch is differenced,
normed, combined and taken through its potentials as one stack.  The solve
carries its density and its iterate's channels as stacks of one row through
the same routines, so both take the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .grid import GridDomain, GridFunction, SeededStream, cap_bump
from .kernels import densities_per_transform, potential_rows
from .operators import (
    EllipticityReport,
    EllipticOperator,
    coefficient_name,
    combine,
    difference_rows,
    ellipticity_check,
    freeze_leading,
    multi_indices,
    sobolev_norms,
)
from .space import luxemburg_norm

PAD = 4.0  # cube side over ball radius, so that periodic images stay separated
PROFILE_N = 32  # points per axis of every contraction-profile grid, whatever grid.N


@dataclass(frozen=True)
class FrozenPoint:
    """An operator frozen at x0: what every radius of a solve at x0 shares.

    ``L`` is the operator as configured, whatever the sign of its
    characteristic form at x0 (``ellipticity.sign_flipped`` records it);
    ``L0`` is its leading part frozen at x0, the operator the kernel inverts.
    """

    L: EllipticOperator
    x0: np.ndarray
    L0: EllipticOperator
    ellipticity: EllipticityReport


def frozen_operator(L, x0):
    """The one frozen point of L at x0, after its one ellipticity check.

    Every coefficient must be finite at x0, where the characteristic form
    is evaluated; otherwise ConfigError names the first one that is not.
    """
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(all="ignore"):
        for p in sorted(L.coeffs):
            if not math.isfinite(L.coeff_at(p, x0)):
                at = ", ".join(f"{float(c):.6g}" for c in x0)
                raise ConfigError(f"{coefficient_name(p)} is not finite at x0 = ({at})")
    rep = ellipticity_check(L, [x0])
    return FrozenPoint(L=L, x0=x0, L0=freeze_leading(L, x0), ellipticity=rep)


PROBE_DEGREE = 3  # highest power per axis in a probe's random polynomial factor


def probe_family(domain, radius, center, count, stream, batch):
    """The profile's count probes, as stacks of at most ``batch`` grid arrays.

    Yields the stacks in order, one probe per row.  Probe 0 is the cap bump
    exp(-rho^2 / (rho^2 - |x - c|^2)) on |x - c| < rho with rho = radius;
    every further probe is that bump times 1 + a random
    polynomial, a sum of PROBE_DEGREE + 1 terms, each a coefficient uniform
    in [-1, 1) times prod_i ((x_i - c_i) / radius)^k_i with k_i in
    {0, ..., PROBE_DEGREE}.  Each probe takes two calls of the
    ``SeededStream`` ``stream``: first every exponent, term by term in the
    order k_1, ..., k_n, then the coefficients of its terms in order.  The
    bump and the powers are computed once for the whole family, the powers
    along their axis only.
    """
    c = np.asarray(center, dtype=float)
    bump = cap_bump(domain.node_grids(), c, radius)
    powers = []
    for axis in range(domain.n):
        x = domain.axis_coords(axis).reshape([-1 if a == axis else 1 for a in range(domain.n)])
        powers.append([((x - c[axis]) / radius) ** k for k in np.arange(PROBE_DEGREE + 1)])
    for start in range(0, count, batch):
        yield np.stack([
            bump if j == 0 else bump * (1.0 + _random_polynomial(powers, domain.shape, stream))
            for j in range(start, min(start + batch, count))
        ])


def _random_polynomial(powers, shape, stream):
    exponents = stream.integers(0, PROBE_DEGREE + 1, size=(PROBE_DEGREE + 1, len(powers)))
    coefficients = stream.uniform(-1.0, 1.0, size=PROBE_DEGREE + 1)
    poly = np.zeros(shape)
    for ks, coefficient in zip(exponents, coefficients):
        term = np.ones(shape)
        for axis_powers, k in zip(powers, ks):
            term = term * axis_powers[k]
        poly += coefficient * term
    return poly


class ParametrixOperator:
    """Frozen-kernel machinery for one ball B_r(x0) inside the padded cube.

    ``point`` is the ``frozen_operator`` record of L at x0 and ``J`` the
    fundamental solution of its L0; both are shared by every radius.  The
    cube side is PAD*r so periodic images stay separated.

    Two coefficient tables drive everything: ``remainder_coeffs`` of the
    (frozen - full) operator and ``operator_coeffs``, L's ``coefficients``
    on the cube; ``combine`` of either over the channels of u applies that
    operator to u.  Only the values in the ball matter: potentials restrict
    their density and gauges read the masked nodes.
    """

    def __init__(self, point, J, r, N, M):
        self.L, x0 = point.L, point.x0
        self.M = M
        self.J = J
        dom = GridDomain(self.L.n, N, PAD * r, center=x0)
        self.domain = dom.with_mask(dom.ball_mask(x0, r))
        self.d_omega = 2.0 * float(r)
        self.orders = multi_indices(self.L.n, self.L.m)
        self.operator_coeffs = self.L.coefficients(self.domain)
        self.remainder_coeffs = {
            p: self.L.coeff_at(p, x0) - self.operator_coeffs[p]
            for p in self.L.leading_indices()
        }
        self.remainder_coeffs.update(
            {p: -self.operator_coeffs[p] for p in self.L.lower_indices()}
        )

    def solution_error(self, channels, reference):
        """Weighted-norm distance between the potential of a channel dictionary and a reference.

        ``channels`` is a one-row channel dictionary of a potential, such as
        the solve's final ``SolveReport.channels``; the reference is
        differenced directly (it is expected to be a smooth grid function).
        """
        dom = self.domain
        refs = difference_rows(reference.values[None], dom, self.orders)
        diffs = {p: channels[p] - refs[p] for p in self.orders}
        (error,) = sobolev_norms(diffs, self.M, self.d_omega, dom)
        (ref_norm,) = sobolev_norms(refs, self.M, self.d_omega, dom)
        return error / ref_norm if ref_norm > 0 else error

    def solve(self, f, tol, k_max):
        """Fixed-point iteration on source densities.

        The iterate is the potential of sigma_k with sigma_{k+1} =
        remainder(S0 sigma_k) + f, where sigma and the channels of its
        potential are stacks of one row.  Each iterate's channels are
        computed once and serve its correction density, its norm and its
        residual; the step norm is that of the difference of consecutive
        channel dictionaries.  Stops when the weighted-Sobolev step norm
        drops below tol times the iterate norm; three consecutive step-norm
        increases raise DivergenceError carrying the partial report.
        Returns the solution u = S0 sigma as a grid function and the report,
        which holds the final channel dictionary.
        """
        f = f.restricted()
        J, dom, orders, M, d_omega = self.J, self.domain, self.orders, self.M, self.d_omega
        rows = []
        sigma = f.values[None]
        channels = potential_rows(J, sigma, dom, orders)
        prev_step = math.inf
        increases = 0
        converged = False
        den_f = luxemburg_norm(f, M)
        for k in range(1, k_max + 1):
            sigma_next = combine(self.remainder_coeffs, channels) + f.values
            channels_next = potential_rows(J, sigma_next, dom, orders)
            steps = {p: channels_next[p] - channels[p] for p in orders}
            (step,) = sobolev_norms(steps, M, d_omega, dom)
            (u_norm,) = sobolev_norms(channels, M, d_omega, dom)
            # L u - f with L applied through the kernel channels
            Lu = combine(self.operator_coeffs, channels)[0]
            r = luxemburg_norm(GridFunction(dom, Lu - f.values), M)
            residual = r / den_f if den_f > 0 else r
            rows.append(IterationRow(k=k, norm=u_norm, step=step, residual=residual))
            if step > prev_step:
                increases += 1
                if increases >= 3:
                    raise DivergenceError(
                        f"step norms increased three times in a row at k={k}",
                        report=self._report(rows, False),
                    )
            else:
                increases = 0
            sigma, channels = sigma_next, channels_next
            if step <= tol * max(u_norm, 1e-300):
                converged = True
                break
            prev_step = step
        report = self._report(rows, converged)
        # fixed-point certificate: one more half-step of the density map,
        # normed through the channels of the density defect itself, since
        # the difference of two channel dictionaries cancels here
        sigma_next = combine(self.remainder_coeffs, channels) + f.values
        defects = potential_rows(J, sigma_next - sigma, dom, orders)
        (defect,) = sobolev_norms(defects, M, d_omega, dom)
        (norm,) = sobolev_norms(channels, M, d_omega, dom)
        report.certificate = defect / norm if norm > 0 else defect
        report.channels = channels
        return GridFunction(dom, channels[(0,) * self.L.n][0]), report

    def _report(self, rows, converged):
        ratios = [b.step / a.step for a, b in zip(rows, rows[1:]) if a.step > 0]
        tail = ratios[-3:] if ratios else []
        emp = float(np.exp(np.mean(np.log(tail)))) if tail else 0.0
        return SolveReport(
            iterations=rows,
            converged=converged,
            empirical_ratio=emp,
            final_residual=rows[-1].residual if rows else math.nan,
        )


@dataclass
class IterationRow:
    k: int
    norm: float
    step: float
    residual: float


@dataclass
class SolveReport:
    iterations: list
    converged: bool
    empirical_ratio: float
    final_residual: float
    certificate: float = math.nan
    # the final iterate's channel dictionary {p: d^p S0 sigma}, each a stack
    # of one row; channel 0 is the solution
    channels: dict = None


@dataclass
class ContractionProfile:
    radii: list
    sigma_hat: list


def contraction_profile(point, J, radii, probes, seed, N, M):
    """Empirical norm profile of the correction operator along a radius ladder.

    For every radius the ratio of weighted-Sobolev norms correction(phi) to
    phi is maximized over a seeded family of probe functions (cap bumps
    times random polynomials of degree at most three, supported inside the
    ball; ``probe_family``).  Deterministic for equal seeds; the estimate is
    a lower bound on the true operator norm.  Every radius shares the one
    frozen point and its one kernel J.  Every radius's grid is the same
    N-lattice scaled by PAD*r/N, so J samples and calibrates once for the
    whole ladder and each radius only rescales the spectra.  Every radius
    draws its probes from a fresh ``SeededStream(seed)``, so a ladder of one
    radius reproduces that radius's entry of a longer ladder.

    The probes run as stacks with a leading probe axis, chunked so that one
    batch's potentials fit one inverse transform
    (``densities_per_transform``: 4 probes of the 15 biharmonic channels at
    N = 32 in 2-d, one probe at a time on a 3-d N = 32 ladder).  A batch is
    differenced once (``difference_rows``), which gives both the probes'
    norms and the remainder applied to them; the norms of all probes and
    channels are one ``gauges`` call, and the potentials of all remainders
    one ``potential_rows`` call.  Every ratio equals that of the probe run
    alone, bit for bit.
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    if N < 4 * point.L.m:
        raise ValueError("grid too coarse for the difference stencils")
    radii = list(radii)
    sigma = []
    for r in radii:
        P = ParametrixOperator(point, J, r, N, M)
        dom = P.domain
        stream = SeededStream(seed)
        batch = densities_per_transform(dom, len(P.orders))
        worst = 0.0
        for rows in probe_family(dom, 0.75 * r, point.x0, probes, stream, batch):
            differences = difference_rows(rows, dom, P.orders)
            norms = sobolev_norms(differences, M, P.d_omega, dom)
            remainders = combine(P.remainder_coeffs, differences)
            potentials = potential_rows(J, remainders, dom, P.orders)
            corrected = sobolev_norms(potentials, M, P.d_omega, dom)
            del potentials  # freed before the next batch's potentials are taken
            for norm, c in zip(norms, corrected):
                if norm != 0.0:
                    worst = max(worst, c / norm)
        sigma.append(worst)
    return ContractionProfile(radii=radii, sigma_hat=sigma)
