"""Unit tests for the per-sample scoring kernel."""

import numpy as np
import pytest

from mast import Barriers, mast_increment, page_increment


def random_barriers(rng):
    lo = rng.uniform(0.5, 1.5)
    return Barriers(lo, lo + rng.uniform(0.0, 0.5))


class TestBarriers:
    def test_valid_pairs(self):
        Barriers(0.9, 1.1)
        Barriers(1.0, 1.0)
        assert Barriers.single(0.7) == Barriers(0.7, 0.7)
        assert Barriers.around_unity(0.05) == Barriers(0.95, 1.05)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.5, 1.0), (1.2, 1.1), (1.0, float("inf"))])
    def test_invalid_pairs(self, lo, hi):
        with pytest.raises(ValueError):
            Barriers(lo, hi)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            Barriers.around_unity(1.0)
        with pytest.raises(ValueError):
            Barriers.around_unity(0.0)


class TestMastIncrement:
    def test_single_barrier_values(self):
        b = Barriers.single(1.0)
        assert mast_increment(1.0, b, 0.1) == 0.0
        assert mast_increment(1.2, b, 0.1) == pytest.approx(2.0)
        assert mast_increment(0.8, b, 0.1) == pytest.approx(-2.0)

    def test_two_barrier_values(self):
        b = Barriers(0.95, 1.05)
        # midpoint of the linear branch is the zero of the score
        assert mast_increment(1.0, b, 0.1) == pytest.approx(0.0, abs=1e-15)
        # upper barrier: linear branch and quadratic limit agree at 0.5
        assert mast_increment(1.05, b, 0.1) == pytest.approx(0.5)

    def test_continuity_at_barriers(self):
        rng = np.random.default_rng(2001)
        for _ in range(200):
            b = random_barriers(rng)
            sigma = rng.uniform(0.01, 1.0)
            s2 = sigma * sigma
            at_lower = mast_increment(b.lower, b, sigma)
            at_upper = mast_increment(b.upper, b, sigma)
            # closed-form branch values evaluated at each boundary
            lower_expect = -((b.lower - b.upper) ** 2) / (2 * s2)
            upper_expect = (b.upper - b.lower) / s2 * (b.upper - b.midpoint)
            scale = max(1.0, abs(lower_expect))
            assert abs(at_lower - lower_expect) <= 1e-12 * scale
            assert abs(at_upper - upper_expect) <= 1e-12 * max(1.0, abs(upper_expect))

    def test_nondecreasing_in_x(self):
        rng = np.random.default_rng(2002)
        for _ in range(50):
            b = random_barriers(rng)
            sigma = rng.uniform(0.01, 1.0)
            x = np.linspace(b.lower - 2.0, b.upper + 2.0, 4001)
            g = mast_increment(x, b, sigma)
            assert np.all(np.diff(g) >= -1e-12 * np.maximum(1.0, np.abs(g[:-1])))

    def test_sign_structure(self):
        rng = np.random.default_rng(2003)
        for _ in range(50):
            b = random_barriers(rng)
            sigma = rng.uniform(0.01, 1.0)
            below = rng.uniform(b.lower - 1.0, b.lower - 1e-9, 100)
            above = rng.uniform(b.upper + 1e-9, b.upper + 1.0, 100)
            assert np.all(mast_increment(below, b, sigma) < 0)
            assert np.all(mast_increment(above, b, sigma) > 0)
            if b.upper > b.lower:
                mid = rng.uniform(b.lower + 1e-9, b.upper, 100)
                g = mast_increment(mid, b, sigma)
                assert np.all(np.sign(g) == np.sign(mid - b.midpoint))

    def test_page_reduction_on_band(self):
        # on [1-alpha, 1+alpha] the score is exactly the Page increment
        rng = np.random.default_rng(2004)
        for _ in range(100):
            alpha = rng.uniform(0.01, 0.5)
            sigma = rng.uniform(0.01, 1.0)
            b = Barriers.around_unity(alpha)
            x = rng.uniform(1.0 - alpha, 1.0 + alpha, 1000)
            g = mast_increment(x, b, sigma)
            q = page_increment(x, alpha, sigma)
            assert np.all(np.abs(g - q) <= 1e-12 * np.maximum(1.0, np.abs(g)))

    def test_degenerate_barrier_closed_form(self):
        rng = np.random.default_rng(2005)
        for _ in range(100):
            delta = rng.uniform(0.5, 1.5)
            sigma = rng.uniform(0.01, 1.0)
            x = rng.uniform(delta - 1.0, delta + 1.0, 500)
            g = mast_increment(x, Barriers.single(delta), sigma)
            expect = np.sign(x - delta) * (x - delta) ** 2 / (2 * sigma * sigma)
            np.testing.assert_allclose(g, expect, rtol=1e-13, atol=0.0)

    def test_sigma_scaling(self):
        # the score times sigma^2 does not depend on sigma
        rng = np.random.default_rng(2006)
        b = Barriers(0.9, 1.1)
        x = rng.uniform(0.0, 2.0, 200)
        base = mast_increment(x, b, 1.0)
        for sigma in (0.01, 0.08, 0.3, 2.5):
            np.testing.assert_allclose(mast_increment(x, b, sigma) * sigma**2, base, rtol=1e-12)

    def test_scalar_and_array_agree(self):
        b = Barriers(0.9, 1.1)
        x = np.array([0.5, 0.95, 1.0, 1.07, 1.5])
        arr = mast_increment(x, b, 0.2)
        assert isinstance(mast_increment(1.07, b, 0.2), float)
        np.testing.assert_array_equal(arr, [mast_increment(v, b, 0.2) for v in x])


class TestPageIncrement:
    def test_values(self):
        assert page_increment(1.0, 0.05, 0.1) == 0.0
        assert page_increment(1.02, 0.05, 0.1) == pytest.approx(0.2)
        assert page_increment(0.98, 0.05, 0.1) == pytest.approx(-0.2)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2007)
        x = rng.uniform(0.0, 2.0, 100)
        up = page_increment(1.0 + x, 0.05, 0.1)
        down = page_increment(1.0 - x, 0.05, 0.1)
        np.testing.assert_allclose(up, -down, rtol=1e-12)

