"""Uniform periodic grids on a cube and real-valued functions sampled on them.

Nodes sit at cell centers: along each axis x_i = center - d/2 + (i + 1/2) h
with h = d/N, so a masked sum of values times cell volume is the midpoint
rule over the cells whose centers are selected.  Index arithmetic is
periodic with period N per axis; ``convolve`` is the one periodic convolution.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, ResolutionError

WRITE_CHUNK = 1 << 12  # values per write of ``write_grid_function``


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
    def from_callable(cls, domain, fn):
        """Sample fn(*coordinate grids) on every node of the cube."""
        vals = np.asarray(fn(*domain.node_grids()), dtype=float)
        return cls(domain, np.broadcast_to(vals, domain.shape))

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

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridFunction({self.domain!r}, sup={self.sup_norm(masked=False):g})"


def shift(f, cells):
    """Translate f by whole cells: result(x) = f(x + cells * h), periodically.

    ``cells`` holds one integer count per axis; the translation is one
    index roll, so the result holds exactly the samples of f.
    """
    if len(cells) != f.domain.n:
        raise ValueError("shift dimension mismatch")
    rolls = tuple(-int(c) % f.domain.N for c in cells)
    return GridFunction(f.domain, np.roll(f.values, rolls, axis=tuple(range(f.domain.n))))


def convolve(f, g):
    """Periodic convolution h^n sum_j f[j] g[k - j] over the cube, by half spectra.

    Two node functions convolve to samples on the offset lattice, a
    half-cell relabeling under which every norm is invariant; a kernel on
    the offset lattice (``mollifier_kernel``) and a node function convolve
    to samples on the nodes.  numpy's complex multiply is not commutative
    bit for bit (with numpy 2.4 the imaginary parts of F*G and G*F differ in
    the last bit), so the symmetrized product keeps convolution commutative
    bit for bit.  Linear in each argument to rounding.
    """
    domain = f.domain
    if not domain.same_geometry(g.domain):
        raise ValueError("convolution requires identical grid geometry")
    axes = tuple(range(domain.n))
    with np.errstate(over="ignore", invalid="ignore"):  # the gauges reject what overflows
        F = np.fft.rfftn(f.values, axes=axes)
        G = np.fft.rfftn(g.values, axes=axes)
        vals = np.fft.irfftn(0.5 * (F * G + G * F), s=domain.shape, axes=axes)
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
    """Write header 'n,N,d' then one value per line in lexicographic order.

    A node on the domain mask takes its value's ``repr``, any other "0.0",
    so the file holds f restricted to the mask.  The lines go out in writes
    of WRITE_CHUNK values, so the text held at once is bounded.
    """
    flat, mask = f.values.ravel(order="C"), f.domain.mask.ravel(order="C")
    with open(path, "w") as fh:
        fh.write(f"{f.domain.n},{f.domain.N},{float(f.domain.d)!r}\n")
        for start in range(0, flat.size, WRITE_CHUNK):
            chunk = slice(start, start + WRITE_CHUNK)
            lines = zip(flat[chunk].tolist(), mask[chunk].tolist())
            fh.write("\n".join(repr(v) if on else "0.0" for v, on in lines) + "\n")


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
