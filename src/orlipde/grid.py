"""Uniform periodic grids on a cube and real-valued functions sampled on them.

Nodes sit at cell centers: along each axis x_i = center - d/2 + (i + 1/2) h
with h = d/N, so a masked sum of values times cell volume is the midpoint
rule over the cells whose centers are selected.  Index arithmetic is
periodic with period N per axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError

ON_LATTICE_TOL = 1e-9  # largest distance, in cells, of a lattice shift from an integer count
WRITE_CHUNK = 1 << 16  # values per write of ``write_grid_function``


class GridDomain:
    """Periodized cube [center - d/2, center + d/2)^n sampled by N^n cells.

    ``mask`` selects the nodes belonging to the working subdomain; it
    defaults to the whole cube.
    """

    def __init__(self, n, N, d, center=None, mask=None):
        if n not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if N < 4:
            raise ValueError("need at least 4 points per axis")
        self.n = int(n)
        self.N = int(N)
        self.d = float(d)
        self.h = self.d / self.N
        self.cell_volume = self.h**self.n
        self.shape = (self.N,) * self.n
        self.center = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != (self.n,):
            raise ValueError("center must have one entry per axis")
        if mask is None:
            mask = np.ones(self.shape, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.shape:
            raise ValueError("mask shape does not match the grid")
        if not mask.any():
            raise ValueError("mask selects no nodes")
        self.mask = mask
        self.mask.flags.writeable = False
        self._grids = None

    def axis_coords(self, a):
        return self.center[a] - self.d / 2 + (np.arange(self.N) + 0.5) * self.h

    def node_grids(self):
        """Meshgrid of node coordinates, one array per axis (cached)."""
        if self._grids is None:
            axes = [self.axis_coords(a) for a in range(self.n)]
            self._grids = np.meshgrid(*axes, indexing="ij")
        return self._grids

    def offset_lattice(self):
        """Pairwise node differences k*h, wrapped to [-d/2, d/2) per axis.

        Offset index 0 is the zero difference (the singular point of
        convolution kernels).
        """
        off = (np.arange(self.N) * self.h + self.d / 2) % self.d - self.d / 2
        return np.meshgrid(*([off] * self.n), indexing="ij")

    def ball_mask(self, center, radius):
        """Boolean mask of nodes inside the ball; the ball must fit in the cube."""
        center = np.asarray(center, dtype=float)
        if np.any(np.abs(center - self.center) + radius >= self.d / 2):
            raise ValueError("ball is not strictly inside the cube")
        grids = self.node_grids()
        r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        return r2 < radius**2

    def measure(self):
        """Lebesgue measure of the masked cell union."""
        return float(np.count_nonzero(self.mask)) * self.cell_volume

    def with_mask(self, mask):
        return GridDomain(self.n, self.N, self.d, center=self.center, mask=mask)

    def same_geometry(self, other):
        return (
            self.n == other.n
            and self.N == other.N
            and self.d == other.d
            and np.array_equal(self.center, other.center)
        )

    def __repr__(self):
        return f"GridDomain(n={self.n}, N={self.N}, d={self.d:g})"


class GridFunction:
    """Real samples on a GridDomain, indexed periodically."""

    def __init__(self, domain, values):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise ValueError("values shape does not match the grid")
        self.domain = domain
        self.values = values.copy()
        self.values.flags.writeable = False

    @classmethod
    def from_callable(cls, domain, fn, restrict=False):
        """Sample fn(*coordinate grids); optionally zero outside the mask."""
        vals = np.asarray(fn(*domain.node_grids()), dtype=float)
        vals = np.broadcast_to(vals, domain.shape).copy()
        if restrict:
            vals[~domain.mask] = 0.0
        return cls(domain, vals)

    @classmethod
    def zeros(cls, domain):
        return cls(domain, np.zeros(domain.shape))

    def masked_values(self):
        return self.values[self.domain.mask]

    def restricted(self):
        """Copy with values zeroed outside the domain mask."""
        return GridFunction(self.domain, np.where(self.domain.mask, self.values, 0.0))

    def sup_norm(self, masked=True):
        vals = self.masked_values() if masked else self.values
        return float(np.max(np.abs(vals)))

    def require_finite(self, what):
        """self when every sample is finite; otherwise ConfigError at the first bad node."""
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            node = tuple(int(i) for i in bad[0])
            x = ", ".join(f"{float(axis[node]):.6g}" for axis in self.domain.node_grids())
            raise ConfigError(f"{what} is not finite at node {node}, x = ({x})")
        return self

    # arithmetic conveniences used heavily by callers and tests
    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if not self.domain.same_geometry(other.domain):
                raise ValueError("grid geometry mismatch")
            return GridFunction(self.domain, op(self.values, other.values))
        return GridFunction(self.domain, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: np.add(b, a))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.domain, -self.values)

    def __repr__(self):
        return f"GridFunction({self.domain!r}, sup={self.sup_norm(masked=False):g})"


@dataclass(frozen=True)
class ShiftVector:
    """A displacement, stored in physical units."""

    delta: tuple

    @classmethod
    def from_cells(cls, domain, cells):
        cells = np.atleast_1d(np.asarray(cells, dtype=float))
        if cells.size != domain.n:
            raise ValueError("one shift entry per axis required")
        return cls(tuple(float(c) * domain.h for c in cells))

    def magnitude(self):
        return float(np.hypot.reduce(np.asarray(self.delta)))

    def cell_shifts(self, domain):
        """Integer cell counts when on-lattice, else None."""
        out = []
        for c in self.delta:
            s = c / domain.h
            si = round(s)
            if abs(s - si) > ON_LATTICE_TOL:
                return None
            out.append(int(si) % domain.N)
        return tuple(out)


def shift(f, delta):
    """Translate f by delta: result(x) = f(x + delta), periodically.

    On-lattice shifts (integer multiples of the cell width) are exact index
    rolls; off-lattice shifts fall back to linear interpolation and emit an
    off-lattice warning.
    """
    if len(delta.delta) != f.domain.n:
        raise ValueError("shift dimension mismatch")
    cells = delta.cell_shifts(f.domain)
    if cells is not None:
        out = f.values
        for axis, s in enumerate(cells):
            if s:
                out = np.roll(out, -s, axis=axis)
        return GridFunction(f.domain, out)
    warnings.warn("off-lattice shift: using linear interpolation", stacklevel=2)
    out = f.values
    for axis, c in enumerate(delta.delta):
        s = c / f.domain.h
        lo = int(np.floor(s))
        frac = s - lo
        a = np.roll(out, -lo, axis=axis)
        b = np.roll(out, -(lo + 1), axis=axis)
        out = (1.0 - frac) * a + frac * b
    return GridFunction(f.domain, out)


def _spectral_product(f, g):
    # numpy's complex multiply is not commutative bit for bit (with numpy
    # 2.4 the imaginary parts of F*G and G*F differ in the last bit), so
    # the symmetrized product keeps convolution commutative bit for bit
    F = np.fft.fftn(f)
    G = np.fft.fftn(g)
    return 0.5 * (F * G + G * F)


def convolve(f, g):
    """Periodic convolution over the cube, scaled by the cell volume.

    The returned samples live on the offset lattice (node differences); all
    norms are invariant under that half-cell relabeling, and kernel-type
    integrands should use the dedicated kernel paths instead.  Commutative
    bit for bit, linear in each argument to rounding.
    """
    if not f.domain.same_geometry(g.domain):
        raise ValueError("convolution requires identical grid geometry")
    vals = np.fft.ifftn(_spectral_product(f.values, g.values)).real
    return GridFunction(f.domain, vals * f.domain.cell_volume)


def kernel_convolve(kernel_values, f):
    """Convolve an offset-lattice kernel array with a grid function.

    ``kernel_values[m]`` must hold the kernel at the wrapped difference
    m*h, so the output lives on the original nodes; it is scaled by the
    cell volume.
    """
    domain = f.domain
    axes = tuple(range(domain.n))
    prod = np.fft.rfftn(kernel_values, axes=axes) * np.fft.rfftn(f.values, axes=axes)
    vals = np.fft.irfftn(prod, s=domain.shape, axes=axes)
    return GridFunction(domain, vals * domain.cell_volume)


class SeededStream:
    """SplitMix64 draws (Steele, Lea & Flood, OOPSLA 2014), in numpy uint64 arithmetic.

    Raw draw i = 0, 1, ... of seed s (any integer, taken mod 2^64) mixes the
    state s + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64, so it is a pure function
    of (s, i).  Each value takes the next raw draw (a normal the next two), so
    k values and then j values equal k + j values in one call.
    """

    def __init__(self, seed):
        self._seed, self._drawn = np.uint64(int(seed) % 2**64), 0

    def _raw(self, count):
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z = z * np.uint64(0x9E3779B97F4A7C15) + self._seed
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def integers(self, low, high, size=None):
        """Integers in [low, high), by Lemire's multiply-shift of each draw's top 32 bits."""
        if not 0 < high - low <= 2**32:
            raise ValueError("need 0 < high - low <= 2^32")
        top = self._raw(1 if size is None else int(np.prod(size))) >> np.uint64(32)
        k = low + ((top * np.uint64(high - low)) >> np.uint64(32)).astype(np.int64)
        return int(k[0]) if size is None else k.reshape(size)

    def uniform(self, low, high, size=None):
        """Doubles in [low, high) from the top 53 bits of each draw."""
        u = (self._raw(1 if size is None else int(np.prod(size))) >> np.uint64(11)) * 2.0**-53
        u = low + (high - low) * u
        return float(u[0]) if size is None else u.reshape(size)

    def standard_normal(self, shape):
        """Box-Muller, the cosine branch, on 1 - u in (0, 1] so that the log stays finite."""
        u = self.uniform(0.0, 1.0, (2 * int(np.prod(shape)),))
        z = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return z.reshape(shape)


def cap_bump(grids, center, radius):
    """The cap bump exp(-rho^2 / (rho^2 - |x - c|^2)) on |x - c| < rho, zero elsewhere.

    ``grids`` holds one coordinate array per axis, such as
    ``GridDomain.node_grids`` or ``GridDomain.offset_lattice``; rho is
    ``radius`` and c is ``center``.
    """
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    vals = np.zeros(r2.shape)
    inside = r2 < radius**2
    with np.errstate(over="ignore"):
        vals[inside] = np.exp(-(radius**2) / (radius**2 - r2[inside]))
    return vals


def mollifier_kernel(domain, eps):
    """Compactly supported smooth bump on the offset lattice, unit discrete mass.

    The profile is exp(-eps^2 / (eps^2 - |z|^2)) inside |z| < eps and zero
    outside (``cap_bump`` about the zero offset); the normalizing constant is
    fixed so the discrete integral is exactly one.
    """
    if eps < 2 * domain.h:
        raise ResolutionError(f"mollifier width {eps:g} under-resolved (h={domain.h:g})")
    if eps >= domain.d / 4:
        raise ResolutionError("mollifier width must stay below a quarter period")
    vals = cap_bump(domain.offset_lattice(), np.zeros(domain.n), eps)
    mass = vals.sum() * domain.cell_volume
    return vals / mass


# -- text file format ---------------------------------------------------------


def write_grid_function(f, path):
    """Write header 'n,N,d' then one value per line (its ``repr``) in lexicographic order.

    The lines go out in writes of WRITE_CHUNK values, so the text held at once is bounded.
    """
    flat = f.values.ravel(order="C")
    with open(path, "w") as fh:
        fh.write(f"{f.domain.n},{f.domain.N},{float(f.domain.d)!r}\n")
        for start in range(0, flat.size, WRITE_CHUNK):
            fh.write("\n".join(map(repr, flat[start:start + WRITE_CHUNK].tolist())) + "\n")


def read_grid_function(path):
    """Read the format of ``write_grid_function``.

    A missing file, a bad header, a geometry that ``GridDomain`` rejects, a
    value that is not a number or a wrong value count raises ConfigError
    naming the file.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"grid file {path}: {exc.strerror}") from exc
    with fh:
        header = fh.readline().strip()
        try:
            n_s, N_s, d_s = header.split(",")
            n, N, d = int(n_s), int(N_s), float(d_s)
        except ValueError as exc:
            raise ConfigError(f"grid file {path}: bad header {header!r}") from exc
        try:
            domain = GridDomain(n, N, d)
            with warnings.catch_warnings():
                # a file without values is reported by the count check below
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=float, ndmin=1)
        except ValueError as exc:
            raise ConfigError(f"grid file {path}: {exc}") from exc
    if values.size != N**n:
        raise ConfigError(f"grid file {path} holds {values.size} values, expected {N**n}")
    return GridFunction(domain, values.reshape(domain.shape))
