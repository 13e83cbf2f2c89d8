import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlipde import (
    EmbeddingWindowError,
    InvalidYoungFunctionError,
    RangeError,
    boyd_indices,
    check_delta2,
    complementary,
    embedding_exponents,
    exp_young,
    from_density,
    power,
    power_log,
)


def brute_force_conjugate(M, v, lo=1e-8, hi=1e8, count=200_000):
    """Independent oracle: dense log-spaced maximization of u v - M(u)."""
    u = np.logspace(math.log10(lo), math.log10(hi), count)
    return float(np.max(u * v - M(u)))


class TestFamilies:
    def test_even(self):
        for M in (power(2), power_log(2), exp_young()):
            u = np.linspace(-5, 5, 41)
            assert np.array_equal(M(u), M(-u))

    def test_convexity_on_samples(self):
        u = np.linspace(0, 20, 201)
        for M in (power(1.5), power_log(3), exp_young()):
            mid = M((u[:-1] + u[1:]) / 2)
            assert np.all(mid <= (M(u[:-1]) + M(u[1:])) / 2 + 1e-12)

    def test_limit_behaviour(self):
        for M in (power(2), power_log(2), exp_young()):
            assert M(1e-8) / 1e-8 < 1e-4
            assert M(1e4) / 1e4 > 1e3

    def test_density_integrates_to_value(self):
        for M in (power(2.5), power_log(2), exp_young()):
            t = np.linspace(0, 7.0, 20_001)
            integral = np.trapezoid(M.density(t), t)
            assert integral == pytest.approx(M(7.0), rel=1e-6)

    def test_power_requires_superlinear(self):
        with pytest.raises(InvalidYoungFunctionError):
            power(1.0)

    def test_density_table_roundtrip(self):
        t = np.linspace(0, 10, 2000)
        M = from_density(t, 3 * t**2)  # density of u^3
        u = np.linspace(0.5, 9.5, 31)
        assert np.max(np.abs(M(u) - u**3) / u**3) < 1e-3

    def test_density_table_rejects_decreasing(self):
        with pytest.raises(InvalidYoungFunctionError):
            from_density([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


class TestComplementary:
    def test_quadratic_self_conjugate(self):
        M = power(2, coeff=0.5)
        N = complementary(M)
        v = np.linspace(0.01, 10, 200)
        err = np.abs(N(v) - v**2 / 2)
        assert np.max(err) <= 1e-8

    def test_cubic_pair_against_brute_force(self):
        M = power(3, coeff=1.0 / 3.0)
        N = complementary(M)
        for v in np.logspace(-2, 2, 25):
            ref = abs(v) ** 1.5 / 1.5
            assert N(v) == pytest.approx(ref, rel=1e-6)
            assert brute_force_conjugate(M, v) == pytest.approx(ref, rel=1e-6)

    def test_exponential_pair(self):
        N = complementary(exp_young())
        v = np.linspace(0.05, 50, 60)
        ref = (1 + v) * np.log(1 + v) - v
        assert np.max(np.abs(N(v) - ref) / ref) < 1e-10

    def test_range_error_beyond_trusted_range(self):
        # the density is bounded by 1, so N is finite up to v = 1 only
        t = np.linspace(0.0, 2.0, 21)
        N = complementary(from_density(t, np.minimum(t, 1.0)))
        assert N.domain_cap == 1.0
        assert N(1.0) == pytest.approx(0.5, rel=1e-12)
        assert N(1.5) == math.inf
        with pytest.raises(RangeError):
            N.inverse(0.6)

    def test_tiny_argument_not_flushed(self):
        # N(v) = v^2 / 4 for M(u) = u^2, far below any sampling window
        assert complementary(power(2))(1e-14) == pytest.approx(2.5e-29, rel=1e-12)

    def test_flat_density_piece(self):
        # p = 1 on [1, 2]: q jumps from 1 to 2 at s = 1 and takes the right limit
        M = from_density([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 3.0])
        N = complementary(M)
        assert N.density(1.0) == 2.0
        assert N.density(1.0 - 1e-9) == pytest.approx(1.0, rel=1e-8)
        u = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        v = M.density(u)
        assert np.max(np.abs(u * v - M(u) - N(v)) / (u * v)) < 1e-14

    def test_trusted_range_ends_where_finite(self):
        t = np.linspace(0.0, 2.0, 21)
        families = (power(1.5), power(3, coeff=1.0 / 3.0), power_log(2), exp_young(),
                    from_density(t, t**2), from_density(t, np.minimum(t, 1.0)))
        for M in families:
            N = complementary(M)
            assert N.domain_cap <= M.density(M.domain_cap)
            assert math.isfinite(N(N.domain_cap))

    def test_biconjugation(self):
        M = power_log(2)
        Mbb = complementary(complementary(M))
        v = np.logspace(-2, 2, 40)
        assert np.max(np.abs(Mbb(v) - M(v)) / M(v)) < 1e-5

    def test_density_relation(self):
        # conjugate density s -> sup{t : p(t) <= s}, checked against finite
        # differences of the conjugate values
        M = power(3)
        N = complementary(M)
        s = np.linspace(0.5, 40, 25)
        eps = 1e-4
        fd = (N(s + eps) - N(s - eps)) / (2 * eps)
        assert np.max(np.abs(N.density(s) - fd) / fd) < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=50.0),
        v=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_young_inequality(self, u, v):
        M = power(3, coeff=1.0 / 3.0)
        N = M.complementary()
        assert u * v <= M(u) + N(v) + 1e-9

    def test_power_family_oracle(self):
        for p in (1.5, 2.0, 3.0, 4.0):
            q = p / (p - 1.0)
            M = power(p, coeff=1.0 / p)
            N = complementary(M)
            v = np.logspace(-2, 2, 60)
            ref = v**q / q
            assert np.max(np.abs(N(v) - ref) / ref) < 1e-6


class TestInverse:
    def test_simple_values(self):
        assert power(2).inverse(4.0) == pytest.approx(2.0, rel=1e-9)
        assert power(3, coeff=1 / 3).inverse(9.0) == pytest.approx(3.0, rel=1e-9)
        assert exp_young().inverse(math.e - 2.0) == pytest.approx(1.0, rel=1e-9)

    def test_monotone(self):
        M = power_log(2)
        ys = np.logspace(-3, 8, 50)
        us = M.inverse(ys)
        assert np.all(np.diff(us) > 0)

    def test_range_error(self):
        M = from_density(np.linspace(0, 2, 50), np.linspace(0, 2, 50) ** 2)
        with pytest.raises(RangeError):
            M.inverse(1e9)

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            power(2).inverse(-1.0)


class TestBoyd:
    def test_quadratic(self):
        bi = boyd_indices(power(2))
        assert bi.alpha == pytest.approx(0.5, abs=0.02)
        assert bi.beta == pytest.approx(0.5, abs=0.02)

    def test_conjugate_index_sum(self):
        M = power(3)
        bi_M = boyd_indices(M)
        bi_N = boyd_indices(complementary(M))
        assert bi_M.alpha + bi_N.beta == pytest.approx(1.0, abs=0.03)

    def test_power_log_slowly_varying(self):
        bi = boyd_indices(power_log(2))
        assert bi.alpha == pytest.approx(0.5, abs=0.05)
        assert bi.beta == pytest.approx(0.5, abs=0.05)

    def test_ordering_invariant(self):
        for M in (power(1.5), power(4), power_log(3), exp_young()):
            bi = boyd_indices(M)
            assert 0.0 <= bi.alpha <= bi.beta <= 1.0

    def test_residual_reported(self):
        assert boyd_indices(power(2)).fit_residual < 1e-6


class TestEmbedding:
    def test_quadratic_window(self):
        p, q = embedding_exponents(power(2))
        assert p == pytest.approx(1.9, abs=0.05)
        assert q == pytest.approx(2.1, abs=0.05)

    def test_cubic_window(self):
        p, q = embedding_exponents(power(3))
        assert p == pytest.approx(2.85, abs=0.1)
        assert q == pytest.approx(3.15, abs=0.1)

    def test_exponential_has_no_window(self):
        with pytest.raises(EmbeddingWindowError):
            embedding_exponents(exp_young())

    def test_strict_bracketing(self):
        bi = boyd_indices(power(2.5))
        p, q = embedding_exponents(power(2.5), indices=bi)
        assert 1.0 <= p < 1.0 / bi.beta <= 1.0 / bi.alpha < q


class TestDelta2:
    def test_power_doubling_exact(self):
        for p in (1.5, 2.0, 3.0):
            rep = check_delta2(power(p), 1.0, 1e6)
            assert rep.satisfied
            assert rep.k_hat == pytest.approx(2.0**p, abs=1e-10)

    def test_exponential_fails(self):
        rep = check_delta2(exp_young(), 1.0, 100.0)
        assert not rep.satisfied
        assert rep.ratio_near(50.0) > 1e6

    def test_power_log_passes(self):
        rep = check_delta2(power_log(2), 1.0, 1e6)
        assert rep.satisfied
        # the sampled sup approaches the doubling constant 4 from above
        assert 4.0 < rep.k_hat < 5.5

    def test_zero_value_rejected(self):
        t = np.linspace(0, 10, 50)
        dead = from_density(t, np.where(t < 5, 0.0, t - 5))  # vanishes on [0, 5]
        with pytest.raises(InvalidYoungFunctionError):
            check_delta2(dead, 1.0, 4.9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            check_delta2(power(2), 10.0, 1.0)
        with pytest.raises(ValueError):
            check_delta2(exp_young(), 1.0, 1e6)
