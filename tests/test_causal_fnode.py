"""Unit tests for F-node intervention-target discovery."""

import numpy as np
import pytest

from repro.causal import FNodeDiscovery, FNodeResult, discover_targets_pc
from repro.core.config import FSConfig
from repro.utils.errors import ValidationError


def make_two_domain_data(rng, n_s=1000, n_t=120):
    """Five-node system: z (root) → x1, x1 → x2; x3, x4 independent.

    Target-domain interventions: shift x1 (the true target).  The child x2
    shifts marginally through x1; z, x3, x4 are untouched.
    """
    def sample(n, intervene):
        z = rng.standard_normal(n)
        x1 = 0.9 * z + 0.4 * rng.standard_normal(n)
        if intervene:
            x1 = x1 + 3.0
        x2 = 0.9 * x1 + 0.4 * rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        x4 = rng.standard_normal(n)
        return np.column_stack([z, x1, x2, x3, x4])

    return sample(n_s, False), sample(n_t, True)


class TestFNodeDiscovery:
    def test_finds_true_target_only(self, rng):
        X_s, X_t = make_two_domain_data(rng)
        result = FNodeDiscovery(FSConfig(alpha=0.01)).discover(X_s, X_t)
        assert 1 in result.variant_indices  # the intervened node
        assert 2 not in result.variant_indices  # child cleared by conditioning
        assert 0 not in result.variant_indices  # parent cleared by empty set
        assert 3 not in result.variant_indices
        assert 4 not in result.variant_indices

    def test_no_drift_no_targets(self, rng):
        X = rng.standard_normal((800, 6))
        X_t = rng.standard_normal((100, 6))
        result = FNodeDiscovery(FSConfig(alpha=0.001)).discover(X, X_t)
        assert result.n_variant <= 1  # at most a false positive

    def test_result_partition(self, rng):
        X_s, X_t = make_two_domain_data(rng)
        result = FNodeDiscovery().discover(X_s, X_t)
        merged = np.sort(
            np.concatenate([result.variant_indices, result.invariant_indices])
        )
        np.testing.assert_array_equal(merged, np.arange(X_s.shape[1]))

    def test_variant_mask(self, rng):
        X_s, X_t = make_two_domain_data(rng)
        result = FNodeDiscovery().discover(X_s, X_t)
        mask = result.variant_mask(X_s.shape[1])
        assert mask.sum() == result.n_variant

    def test_feature_count_mismatch(self, rng):
        with pytest.raises(ValidationError):
            FNodeDiscovery().discover(
                rng.standard_normal((50, 3)), rng.standard_normal((10, 4))
            )

    def test_single_feature(self, rng):
        result = FNodeDiscovery().discover(
            rng.standard_normal((200, 1)), rng.standard_normal((30, 1)) + 3.0
        )
        assert result.n_variant == 1

    def test_power_grows_with_target_samples(self, tiny_5gc):
        """More shots → more variant features found (§VI-C progression)."""
        from repro.ml import MinMaxScaler

        scaler = MinMaxScaler().fit(tiny_5gc.X_source)
        Xs = scaler.transform(tiny_5gc.X_source)
        counts = []
        for shots in (1, 10):
            X_few, _, _, _ = tiny_5gc.few_shot_split(shots, random_state=0)
            result = FNodeDiscovery().discover(Xs, scaler.transform(X_few))
            counts.append(result.n_variant)
        assert counts[0] <= counts[1]

    def test_recovers_scm_ground_truth(self, tiny_5gc):
        from repro.ml import MinMaxScaler

        scaler = MinMaxScaler().fit(tiny_5gc.X_source)
        Xs = scaler.transform(tiny_5gc.X_source)
        X_few, _, _, _ = tiny_5gc.few_shot_split(10, random_state=0)
        result = FNodeDiscovery().discover(Xs, scaler.transform(X_few))
        truth = set(tiny_5gc.true_variant_indices.tolist())
        flagged = set(result.variant_indices.tolist())
        recall = len(flagged & truth) / len(truth)
        precision = len(flagged & truth) / max(1, len(flagged))
        assert recall > 0.6
        assert precision > 0.6

    def test_max_parents_zero_is_marginal_test(self, rng):
        X_s, X_t = make_two_domain_data(rng)
        result = FNodeDiscovery(FSConfig(max_parents=0)).discover(X_s, X_t)
        # without conditioning, the child of the target is also flagged
        assert 1 in result.variant_indices
        assert 2 in result.variant_indices


class TestDiscoverTargetsPC:
    def test_small_system(self, rng):
        X_s, X_t = make_two_domain_data(rng, n_s=800, n_t=150)
        result, pc_result = discover_targets_pc(X_s, X_t, alpha=0.01)
        assert isinstance(result, FNodeResult)
        assert 1 in result.variant_indices
        assert 3 not in result.variant_indices
        # the F-node must only have outgoing edges
        from repro.causal import F_NODE

        assert pc_result.graph.parents(F_NODE) == set()

    def test_feature_names(self, rng):
        X_s, X_t = make_two_domain_data(rng, n_s=500, n_t=100)
        names = ["z", "x1", "x2", "x3", "x4"]
        result, pc_result = discover_targets_pc(
            X_s, X_t, alpha=0.01, feature_names=names
        )
        assert set(pc_result.graph.nodes) == set(names) | {"F"}

    def test_name_length_checked(self, rng):
        X_s, X_t = make_two_domain_data(rng, n_s=200, n_t=50)
        with pytest.raises(ValidationError):
            discover_targets_pc(X_s, X_t, feature_names=["a", "b"])
