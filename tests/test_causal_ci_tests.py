"""Unit tests for the conditional-independence tests."""

import math

import numpy as np
import pytest

from repro.causal import fisher_z_test, g_squared_test, regression_invariance_test
from repro.causal.ci_tests import ks_pvalue
from repro.causal.engine import _two_sided_t_pvalue
from repro.causal.kstwo import kstwo_sf
from repro.utils.errors import ValidationError


class TestFisherZ:
    def test_independent_high_p(self, rng):
        data = rng.standard_normal((500, 2))
        assert fisher_z_test(data, 0, 1) > 0.01

    def test_dependent_low_p(self, rng):
        x = rng.standard_normal(500)
        data = np.column_stack([x, x + 0.2 * rng.standard_normal(500)])
        assert fisher_z_test(data, 0, 1) < 1e-6

    def test_conditioning_on_common_cause(self, rng):
        z = rng.standard_normal(800)
        x = z + 0.5 * rng.standard_normal(800)
        y = z + 0.5 * rng.standard_normal(800)
        data = np.column_stack([x, y, z])
        assert fisher_z_test(data, 0, 1) < 1e-4          # marginally dependent
        assert fisher_z_test(data, 0, 1, (2,)) > 0.01    # independent given Z

    def test_collider_conditioning_induces_dependence(self, rng):
        x = rng.standard_normal(800)
        y = rng.standard_normal(800)
        c = x + y + 0.2 * rng.standard_normal(800)
        data = np.column_stack([x, y, c])
        assert fisher_z_test(data, 0, 1) > 0.01
        assert fisher_z_test(data, 0, 1, (2,)) < 1e-4

    def test_too_small_sample_returns_one(self, rng):
        data = rng.standard_normal((5, 4))
        assert fisher_z_test(data, 0, 1, (2, 3)) == 1.0

    def test_rejects_overlapping_indices(self, rng):
        data = rng.standard_normal((50, 3))
        with pytest.raises(ValidationError):
            fisher_z_test(data, 0, 0)
        with pytest.raises(ValidationError):
            fisher_z_test(data, 0, 1, (0,))

    def test_rejects_bad_index(self, rng):
        with pytest.raises(ValidationError):
            fisher_z_test(rng.standard_normal((50, 2)), 0, 5)

    def test_constant_column_independent(self, rng):
        data = np.column_stack([np.ones(100), rng.standard_normal(100)])
        assert fisher_z_test(data, 0, 1) == 1.0


class TestGSquared:
    def test_independent(self, rng):
        x = rng.integers(0, 2, 1000)
        y = rng.integers(0, 3, 1000)
        assert g_squared_test(x, y) > 0.01

    def test_dependent(self, rng):
        x = rng.integers(0, 2, 1000)
        y = np.where(rng.random(1000) < 0.9, x, 1 - x)
        assert g_squared_test(x, y) < 1e-6

    def test_conditional_independence(self, rng):
        z = rng.integers(0, 2, 2000)
        flip = lambda v, p: np.where(rng.random(len(v)) < p, v, 1 - v)  # noqa: E731
        x = flip(z, 0.85)
        y = flip(z, 0.85)
        assert g_squared_test(x, y) < 1e-4
        assert g_squared_test(x, y, z) > 0.01

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            g_squared_test(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestRegressionInvariance:
    def test_same_distribution_high_p(self, rng):
        xs = rng.standard_normal(600)
        xt = rng.standard_normal(60)
        assert regression_invariance_test(xs, xt) > 0.01

    def test_shifted_target_low_p(self, rng):
        xs = rng.standard_normal(600)
        xt = rng.standard_normal(60) + 3.0
        assert regression_invariance_test(xs, xt) < 1e-4

    def test_scale_change_detected(self, rng):
        xs = rng.standard_normal(600)
        xt = 4.0 * rng.standard_normal(100)
        assert regression_invariance_test(xs, xt) < 1e-3

    def test_conditioning_explains_parent_shift(self, rng):
        # child = 0.9 * parent + noise; only the parent is intervened
        z_s = rng.standard_normal(800)
        x_s = 0.9 * z_s + 0.3 * rng.standard_normal(800)
        z_t = rng.standard_normal(80) + 3.0
        x_t = 0.9 * z_t + 0.3 * rng.standard_normal(80)
        # marginally the child looks shifted
        assert regression_invariance_test(x_s, x_t) < 1e-3
        # conditionally on its parent it is invariant
        p = regression_invariance_test(x_s, x_t, z_s[:, None], z_t[:, None])
        assert p > 0.01

    def test_intervened_child_stays_dependent(self, rng):
        z_s = rng.standard_normal(800)
        x_s = 0.9 * z_s + 0.3 * rng.standard_normal(800)
        z_t = rng.standard_normal(80)
        x_t = 0.9 * z_t + 0.3 * rng.standard_normal(80) + 2.5  # own shift
        p = regression_invariance_test(x_s, x_t, z_s[:, None], z_t[:, None])
        assert p < 1e-3

    def test_tiny_target_sample_conservative(self, rng):
        xs = rng.standard_normal(600)
        xt = rng.standard_normal(1)
        assert regression_invariance_test(xs, xt) == 1.0

    def test_constant_columns(self):
        assert regression_invariance_test(np.ones(100), np.ones(10)) == 1.0
        assert regression_invariance_test(np.ones(100), np.zeros(10)) == 0.0

    def test_mismatched_conditioning_rejected(self, rng):
        with pytest.raises(ValidationError):
            regression_invariance_test(
                rng.standard_normal(10),
                rng.standard_normal(5),
                rng.standard_normal((4, 1)),
                rng.standard_normal((5, 1)),
            )

    def test_few_shot_power_grows_with_samples(self, rng):
        """Smaller shifts need more target samples — the paper's §VI-C effect."""
        xs = rng.standard_normal(2000)
        shift = 0.8
        p_small = np.median([
            regression_invariance_test(xs, rng.standard_normal(8) + shift)
            for _ in range(20)
        ])
        p_large = np.median([
            regression_invariance_test(xs, rng.standard_normal(120) + shift)
            for _ in range(20)
        ])
        assert p_large < p_small


#: (source, target) sample counts of the FS shapes: the presets' source
#: sizes at 1, 5 and 10 shots, and the drift schedule's 480-row source
#: against its 96-row prior and the 64-256 shots of a hop (effective n 1-167)
FS_SHAPES = [(n1, n2) for n1 in (480, 800, 3645) for n2 in (1, 5, 10)] + [
    (480, n2) for n2 in (64, 96, 128, 192, 256)
]

#: n * x**2 cut points of scipy's method choice
NX2_CUTS = (0.754693, 2.2, 4.0, 18.0, 370.0)


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def _boundaries(n):
    """D values at and next to every branch boundary of the tail at ``n``."""
    xs = [0.0, -0.25, 0.5, 1.0, 1.5, np.inf, np.nan]
    for v in (0.5 / n, 1.0 / n, (n - 1) / n, 0.5, (1.4 / n) ** (2 / 3)):
        xs += _around(v)
    for c in NX2_CUTS:
        xs += _around(math.sqrt(c / n))
    return np.array(xs)


def _effective_n(n1, n2):
    return float(np.round(n1 * n2 / (n1 + n2)))


class TestTailEquivalence:
    """The FS tails equal scipy.stats' bit for bit, so FS never imports it.

    The exact KS tail is a port of scipy 1.17.1's ``kstwo.sf`` path; a
    scipy whose tails change fails here rather than moving FS p-values.
    """

    @pytest.mark.parametrize("n", list(range(1, 301)) + [100000, 100001])
    def test_kstwo_branch_boundaries(self, n):
        from scipy import stats

        x = _boundaries(n)
        if n <= 300:
            x = np.concatenate([x, np.arange(n + 1) / n, np.linspace(0, 1, 41)])
        assert np.array_equal(kstwo_sf(x, float(n)), stats.kstwo.sf(x, n), equal_nan=True)

    @pytest.mark.parametrize("n1,n2", FS_SHAPES)
    def test_kstwo_on_the_two_sample_lattice(self, n1, n2):
        """Every D a two-sample test can return is a multiple of 1/lcm."""
        from scipy import stats

        lcm = math.lcm(n1, n2)
        d = np.arange(lcm + 1) / lcm
        expected = stats.kstwo.sf(d, _effective_n(n1, n2))
        assert np.array_equal(kstwo_sf(d, _effective_n(n1, n2)), expected)
        assert np.array_equal(ks_pvalue(d, n1, n2), np.clip(expected, 0.0, 1.0))

    def test_kstwo_outside_its_support(self):
        from scipy import stats

        x = np.array([0.0, 0.3, 1.0, 2.0, np.nan])
        for n in (0.0, 0.4, 2.5, np.nan):
            assert np.array_equal(kstwo_sf(x, n), stats.kstwo.sf(x, n), equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_welch_tail_matches_t_sf(self, rng, dtype):
        from scipy import stats

        t = np.concatenate([
            rng.standard_t(3, 400), 50 * rng.standard_normal(100),
            [0.0, -0.0, 1e-30, np.inf, -np.inf, np.nan],
        ]).astype(dtype)
        df = np.concatenate([
            rng.uniform(0.5, 900, 500), [1.0, np.inf, 2.0, 0.0, -1.0, np.nan]
        ]).astype(dtype)
        for tt, dd in ((t, df), (t, np.full_like(df, np.inf)), (t[::-1], df)):
            expected = 2.0 * stats.t.sf(np.abs(tt), dd)
            assert np.array_equal(_two_sided_t_pvalue(tt, dd), expected, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stephens_tail_matches_kstwobign(self, dtype):
        from scipy import special, stats

        d = np.concatenate([np.linspace(-0.1, 1.2, 1001), [np.inf, np.nan]]).astype(dtype)
        for n1, n2 in FS_SHAPES:
            en = n1 * n2 / (n1 + n2)
            root = np.sqrt(en)
            expected = np.clip(
                stats.kstwobign.sf((root + 0.12 + 0.11 / root) * np.asarray(d)), 0.0, 1.0
            )
            got = ks_pvalue(d, n1, n2, mode="stephens")
            assert np.array_equal(got, expected, equal_nan=True)
        x = np.array([-1.0, 0.0, 1e-300, 0.3, 1.0, 3.0, 40.0, np.inf, np.nan])
        assert np.array_equal(special.kolmogorov(x), stats.kstwobign.sf(x), equal_nan=True)
