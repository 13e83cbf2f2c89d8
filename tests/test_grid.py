import numpy as np
import pytest

from orlipde import grid
from orlipde.grid import SeededStream
from orlipde import (
    GridDomain,
    GridFunction,
    ResolutionError,
    convolve,
    mollifier_kernel,
    read_grid_function,
    shift,
    write_grid_function,
)


class TestDomain:
    def test_cell_volume_covers_cube(self):
        dom = GridDomain(2, 32, 1.5)
        assert dom.cell_volume * dom.N**dom.n == pytest.approx(dom.d**dom.n)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            GridDomain(1, 3, 1.0)

    def test_mask_must_be_nonempty(self):
        with pytest.raises(ValueError):
            GridDomain(1, 8, 1.0, mask=np.zeros(8, dtype=bool))

    def test_nodes_are_cell_centers(self):
        dom = GridDomain(1, 8, 2.0)
        x = dom.axis_coords(0)
        assert x[0] == pytest.approx(-1.0 + dom.h / 2)
        assert np.allclose(np.diff(x), dom.h)

    def test_offset_lattice_origin(self):
        dom = GridDomain(2, 16, 1.0)
        offs = dom.offset_lattice()
        assert offs[0][0, 0] == 0.0 and offs[1][0, 0] == 0.0
        assert np.all(np.abs(offs[0]) <= dom.d / 2)

    def test_ball_mask_inside(self):
        dom = GridDomain(2, 32, 1.0)
        mask = dom.ball_mask([0.0, 0.0], 0.3)
        assert mask.any()
        with pytest.raises(ValueError):
            dom.ball_mask([0.4, 0.0], 0.2)

    def test_measure(self):
        dom = GridDomain(1, 64, 2.0)
        x = dom.node_grids()[0]
        assert dom.with_mask((x >= 0) & (x < 1)).measure() == pytest.approx(1.0)


class TestShift:
    def test_zero_shift_identity(self, line64):
        f = GridFunction(line64, np.random.default_rng(0).standard_normal(64))
        out = shift(f, [0])
        assert np.array_equal(out.values, f.values)

    def test_full_period_identity(self, line64):
        f = GridFunction(line64, np.random.default_rng(1).standard_normal(64))
        out = shift(f, [64])
        assert np.array_equal(out.values, f.values)

    def test_lattice_shift_is_roll(self, line64):
        f = GridFunction(line64, np.arange(64.0))
        out = shift(f, [3])
        assert np.array_equal(out.values, np.roll(np.arange(64.0), -3))

    def test_periodic_index_arithmetic(self, line64):
        f = GridFunction(line64, np.random.default_rng(2).standard_normal(64))
        s1 = shift(f, [64 + 5])
        s2 = shift(f, [5])
        assert np.array_equal(s1.values, s2.values)


class TestConvolve:
    def test_indicator_hat(self, line64):
        x = line64.node_grids()[0]
        chi = GridFunction(line64, np.where((x >= 0) & (x < 1), 1.0, 0.0))
        conv = convolve(chi, chi)
        # triangular profile with exact unit peak at lattice offset distance
        k_star = int(np.argmax(conv.values))
        assert conv.values[k_star] == pytest.approx(1.0, abs=1e-12)
        z_peak = line64.offset_lattice()[0][k_star]
        assert min(abs(abs(z_peak) - 1.0), abs(z_peak - 1.0)) <= line64.h
        m = np.arange(64)
        dist = np.minimum((m - k_star) % 64, (k_star - m) % 64)
        ref = np.maximum(0.0, 1.0 - line64.h * dist)
        assert np.max(np.abs(conv.values - ref)) < 1e-12

    def test_commutative_bit_exact(self, square32):
        rng = np.random.default_rng(3)
        f = GridFunction(square32, rng.standard_normal(square32.shape))
        g = GridFunction(square32, rng.standard_normal(square32.shape))
        assert np.array_equal(convolve(f, g).values, convolve(g, f).values)

    def test_bilinear(self, line64):
        rng = np.random.default_rng(4)
        f1 = GridFunction(line64, rng.standard_normal(64))
        f2 = GridFunction(line64, rng.standard_normal(64))
        g = GridFunction(line64, rng.standard_normal(64))
        lhs = convolve(f1 * 2.0 + f2 * (-0.5), g).values
        rhs = 2.0 * convolve(f1, g).values - 0.5 * convolve(f2, g).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_cosine_eigenpair(self, line64):
        # convolving a pure mode with itself keeps the mode, scaled by d/2
        f = GridFunction.from_callable(line64, lambda x: np.cos(np.pi * x))
        conv = convolve(f, f)
        assert np.max(np.abs(conv.values)) == pytest.approx(1.0, rel=1e-10)

    def test_geometry_mismatch(self, line64):
        other = GridDomain(1, 32, 2.0)
        f = GridFunction.zeros(line64)
        g = GridFunction.zeros(other)
        with pytest.raises(ValueError):
            convolve(f, g)


class TestMollifierKernel:
    def test_unit_mass(self, square32):
        ker = mollifier_kernel(square32, 0.2)
        assert ker.sum() * square32.cell_volume == pytest.approx(1.0, abs=1e-12)

    def test_compact_support(self, square32):
        ker = mollifier_kernel(square32, 0.2)
        offs = square32.offset_lattice()
        r2 = offs[0] ** 2 + offs[1] ** 2
        assert np.all(ker[r2 >= 0.04] == 0.0)

    def test_resolution_guards(self, square32):
        with pytest.raises(ResolutionError):
            mollifier_kernel(square32, 0.5 * square32.h)
        with pytest.raises(ResolutionError):
            mollifier_kernel(square32, square32.d / 2)


class TestFileFormat:
    def test_roundtrip(self, tmp_path, square32, bump):
        f = bump(square32, 0.2)
        path = tmp_path / "f.grid"
        write_grid_function(f, path)
        g = read_grid_function(path)
        assert g.domain.n == 2 and g.domain.N == 32 and g.domain.d == 1.0
        assert np.array_equal(g.values, f.values)
        header = path.read_text().splitlines()[0]
        assert header == "2,32,1.0"

    def test_lexicographic_order(self, tmp_path):
        dom = GridDomain(2, 4, 1.0)
        vals = np.arange(16.0).reshape(4, 4)
        write_grid_function(GridFunction(dom, vals), tmp_path / "g.grid")
        lines = (tmp_path / "g.grid").read_text().splitlines()
        assert [float(v) for v in lines[1:]] == list(range(16))


    @pytest.mark.parametrize("chunk", [1, 7, 16, 1 << 16])
    def test_chunked_writes_match_one_line_per_value(self, tmp_path, monkeypatch, chunk):
        # chunks that split the values unevenly, evenly, and hold them all
        monkeypatch.setattr(grid, "WRITE_CHUNK", chunk)
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 0.1, 1 / 3]
        vals = np.concatenate([special, np.linspace(-3.0, 3.0, 8)]).reshape(4, 4)
        write_grid_function(GridFunction(GridDomain(2, 4, 1.0), vals), tmp_path / "g.grid")
        lines = ["2,4,1.0"] + [f"{float(v)!r}" for v in vals.ravel()]
        assert (tmp_path / "g.grid").read_text() == "\n".join(lines) + "\n"
        assert np.array_equal(read_grid_function(tmp_path / "g.grid").values, vals)

    def test_write_holds_one_chunk_of_text(self, tmp_path):
        # a 3-d N = 32 solution: 32^3 values of full-length reprs, about 3.5 MB
        # of floats and text at once if formatted as one chunk
        import tracemalloc

        f = GridFunction(GridDomain(3, 32, 1.0), np.sin(np.arange(32.0**3)).reshape((32,) * 3))
        tracemalloc.start()
        try:
            write_grid_function(f, tmp_path / "g.grid")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert np.array_equal(read_grid_function(tmp_path / "g.grid").values, f.values)


class TestSeededStream:
    def test_published_splitmix64_values(self):
        # the first outputs of SplitMix64 from seed 0 (Steele, Lea & Flood 2014)
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [int(z) for z in SeededStream(0)._raw(3)] == published
        # integers in [0, 2^32) are the top 32 bits, uniforms the top 53
        assert SeededStream(0).integers(0, 2**32, size=3).tolist() == [z >> 32 for z in published]
        assert SeededStream(0).uniform(0.0, 1.0, size=3).tolist() == [
            (z >> 11) * 2.0**-53 for z in published]

    @staticmethod
    def draws(stream):
        return [
            stream.integers(-3, 5, size=(4, 2)).tolist(),
            stream.uniform(-1.0, 1.0),
            stream.standard_normal((3, 3)).tolist(),
            stream.integers(0, 7),
        ]

    def test_equal_seeds_give_equal_draws(self):
        assert self.draws(SeededStream(11)) == self.draws(SeededStream(11))
        assert self.draws(SeededStream(11)) != self.draws(SeededStream(12))

    @pytest.mark.parametrize("method, args", [
        ("integers", (0, 10)),
        ("uniform", (-2.0, 3.0)),
        ("standard_normal", ()),
    ])
    @pytest.mark.parametrize("k, j", [(1, 1), (3, 5), (10, 0)])
    def test_split_draws_equal_one_call(self, method, args, k, j):
        split = SeededStream(4)
        parts = [getattr(split, method)(*args, (count,)) for count in (k, j)]
        whole = getattr(SeededStream(4), method)(*args, (k + j,))
        assert np.array_equal(np.concatenate(parts), whole)

    def test_draws_lie_in_their_ranges(self):
        stream = SeededStream(3)
        k = stream.integers(-2, 3, size=20000)
        assert k.min() == -2 and k.max() == 2 and k.dtype == np.int64
        u = stream.uniform(-1.0, 1.0, size=20000)
        assert u.min() >= -1.0 and u.max() < 1.0
        # one value without a size is a Python number
        assert isinstance(stream.integers(0, 4), int)
        assert isinstance(stream.uniform(0.0, 1.0), float)
        assert np.all(np.isfinite(stream.standard_normal(20000)))

    def test_normal_moments(self):
        z = SeededStream(0).standard_normal((200000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02


class TestImmutability:
    def test_values_locked(self, line64):
        f = GridFunction.zeros(line64)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_finite_enforced_by_construction(self, line64):
        f = GridFunction.from_callable(line64, lambda x: np.sin(x))
        assert np.all(np.isfinite(f.values))
