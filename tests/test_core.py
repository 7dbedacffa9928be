"""Unit tests for the per-sample scoring kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mast.core import Barriers, mast_increment, page_increment


def random_barriers(rng):
    lo = rng.uniform(0.5, 1.5)
    return Barriers(lo, lo + rng.uniform(0.0, 0.5))


class TestBarriers:
    def test_valid_pairs(self):
        Barriers(0.9, 1.1)
        Barriers(1.0, 1.0)
        Barriers(0.7, 0.7)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.5, 1.0), (1.2, 1.1), (1.0, float("inf"))])
    def test_invalid_pairs(self, lo, hi):
        with pytest.raises(ValueError):
            Barriers(lo, hi)

    def test_bad_alpha(self):
        # the symmetric pair (1 - alpha, 1 + alpha) needs alpha < 1; alpha = 0
        # is the legal single barrier here, and Page rejects it
        with pytest.raises(ValueError):
            Barriers(1.0 - 1.0, 1.0 + 1.0)


class TestMastIncrement:
    def test_single_barrier_values(self):
        b = Barriers(1.0, 1.0)
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
            b = Barriers(1.0 - alpha, 1.0 + alpha)
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
            g = mast_increment(x, Barriers(delta, delta), sigma)
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



def reference_mast_increment(x, barriers, sigma):
    """The score as three whole-array branches selected by two ``np.where``
    calls: the arithmetic the in-place kernel must reproduce bit for bit."""
    x = np.asarray(x, dtype=float)
    lo, hi = barriers.lower, barriers.upper
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    below = -((x - hi) ** 2) * inv2s2
    between = (hi - lo) * 2.0 * inv2s2 * (x - barriers.midpoint)
    above = (x - lo) ** 2 * inv2s2
    return np.where(x <= lo, below, np.where(x <= hi, between, above))


def reference_page_increment(x, alpha, sigma):
    return 2.0 * alpha * (np.asarray(x, dtype=float) - 1.0) / (sigma * sigma)


@st.composite
def mast_cases(draw):
    """Samples, a barrier pair (``lower == upper`` often) and sigma; the
    samples include the barriers and the midpoint exactly."""
    lower = draw(st.floats(0.01, 5.0))
    upper = draw(st.one_of(st.just(lower), st.floats(lower, 10.0)))
    barriers = Barriers(lower, upper)
    special = st.sampled_from([lower, upper, barriers.midpoint, 1.0, 0.0, -0.0])
    xs = draw(st.lists(st.one_of(special, st.floats(-1e3, 1e3)), max_size=40))
    return np.array(xs, dtype=float), barriers, draw(st.floats(1e-3, 10.0))


@st.composite
def page_cases(draw):
    special = st.sampled_from([1.0, 0.0, -0.0])
    xs = draw(st.lists(st.one_of(special, st.floats(-1e3, 1e3)), max_size=40))
    alpha = draw(st.floats(1e-3, 0.999))
    return np.array(xs, dtype=float), alpha, draw(st.floats(1e-3, 10.0))


def assert_in_place_bit_exact(score, x, expect):
    """``score(x, out)`` equals ``expect`` byte for byte (so -0.0 != 0.0)
    with a fresh result, with ``out`` a separate array, with ``out`` the
    input itself, and on a strided view whose neighbours it must not touch."""
    expect = expect.tobytes()
    assert score(x, None).tobytes() == expect
    kept = x.copy()
    other = np.empty_like(x)
    assert score(x, other) is other
    assert other.tobytes() == expect
    assert x.tobytes() == kept.tobytes()
    assert score(kept, kept) is kept
    assert kept.tobytes() == expect
    grid = np.full((x.size, 3), 7.0)
    grid[:, 1] = x
    view = grid[:, 1]
    score(view, view)
    assert view.tobytes() == expect
    assert (grid[:, [0, 2]] == 7.0).all()
    for value, want in zip(x[:3].tolist(), np.frombuffer(expect)[:3]):
        assert np.float64(score(value, None)).tobytes() == want.tobytes()


class TestIncrementInPlace:
    @settings(max_examples=300, deadline=None)
    @given(case=mast_cases())
    @example(case=(np.array([1.0, 0.5, 1.5, -0.0]), Barriers(1.0, 1.0), 0.05))
    @example(case=(np.array([0.99, 1.005, 1.02, 0.5, 1.5]), Barriers(0.99, 1.02), 0.05))
    def test_mast_matches_reference_bytes(self, case):
        x, barriers, sigma = case
        assert_in_place_bit_exact(
            lambda v, out: mast_increment(v, barriers, sigma, out=out),
            x,
            reference_mast_increment(x, barriers, sigma),
        )

    @settings(max_examples=200, deadline=None)
    @given(case=page_cases())
    @example(case=(np.array([1.0, 0.95, 1.05, -0.0]), 0.05, 0.05))
    def test_page_matches_reference_bytes(self, case):
        x, alpha, sigma = case
        assert_in_place_bit_exact(
            lambda v, out: page_increment(v, alpha, sigma, out=out),
            x,
            reference_page_increment(x, alpha, sigma),
        )
