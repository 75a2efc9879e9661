"""Tests for secondary uncertainty (the paper's future-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.secondary import SecondaryUncertainty
from repro.core.vectorized import layer_trial_batch, layer_trial_batch_secondary
from repro.data.layer import LayerTerms
from repro.lookup.factory import build_layer_lookups


class TestSecondaryUncertainty:
    def test_multiplier_mean_is_one(self):
        su = SecondaryUncertainty(4.0, 4.0)
        draws = su.multipliers_for_span(20130812, 0, 200_000, 1)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_multipliers_nonnegative(self):
        su = SecondaryUncertainty(2.0, 5.0)
        assert np.all(su.quantile_table() >= 0)
        assert np.all(su.multipliers_for_span(5, 0, 10_000, 3) >= 0)

    def test_cv_decreases_with_concentration(self):
        loose = SecondaryUncertainty(2.0, 2.0)
        tight = SecondaryUncertainty(20.0, 20.0)
        assert tight.multiplier_cv < loose.multiplier_cv

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SecondaryUncertainty(alpha=0.0)
        with pytest.raises(ValueError):
            SecondaryUncertainty(beta=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.5, 20.0),
        beta=st.floats(0.5, 20.0),
    )
    def test_rescaled_mean_always_one(self, alpha, beta):
        su = SecondaryUncertainty(alpha, beta)
        assert su.quantile_table().mean() == pytest.approx(1.0, abs=1e-12)
        draws = su.multipliers_for_span(0, 0, 50_000, 1)
        assert abs(draws.mean() - 1.0) < 0.05


class TestSecondaryKernel:
    def _setup(self, workload):
        layer = workload.portfolio.layers[0]
        lookups = build_layer_lookups(
            workload.portfolio.elts_of(layer), workload.catalog.n_events
        )
        return layer, lookups, workload.yet.to_dense()

    def test_deterministic_given_seed(self, tiny_workload):
        layer, lookups, dense = self._setup(tiny_workload)
        su = SecondaryUncertainty()
        a = layer_trial_batch_secondary(dense, lookups, layer.terms, su, 1)
        b = layer_trial_batch_secondary(dense, lookups, layer.terms, su, 1)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, tiny_workload):
        layer, lookups, dense = self._setup(tiny_workload)
        su = SecondaryUncertainty()
        a = layer_trial_batch_secondary(dense, lookups, layer.terms, su, 1)
        b = layer_trial_batch_secondary(dense, lookups, layer.terms, su, 2)
        assert not np.array_equal(a, b)

    def test_mean_preserved_with_identity_layer_terms(
        self, tiny_identity_workload
    ):
        """With linear (identity) terms E[loss] is invariant to mean-1
        multipliers; check the sample mean lands close."""
        w = tiny_identity_workload
        layer, lookups, dense = self._setup(w)
        base = layer_trial_batch(dense, lookups, layer.terms)
        # Average many independent secondary draws.
        totals = np.zeros_like(base)
        n_draws = 30
        for stream_key in range(n_draws):
            totals += layer_trial_batch_secondary(
                dense, lookups, layer.terms,
                SecondaryUncertainty(8.0, 8.0), stream_key,
            )
        mean_secondary = totals / n_draws
        # Aggregate over trials: relative error shrinks with pooling.
        assert mean_secondary.sum() == pytest.approx(
            base.sum(), rel=0.05
        )

    def test_tight_uncertainty_converges_to_base(self, tiny_workload):
        layer, lookups, dense = self._setup(tiny_workload)
        base = layer_trial_batch(dense, lookups, layer.terms)
        tight = layer_trial_batch_secondary(
            dense, lookups, layer.terms,
            SecondaryUncertainty(5000.0, 5000.0), 3,
        )
        # ~1% loss multipliers can be amplified by the retention clamps
        # near thresholds, so compare with a scale-based absolute
        # tolerance rather than purely relative.
        scale = max(base.mean(), 1.0)
        assert np.allclose(tight, base, rtol=0.3, atol=0.05 * scale)
        assert tight.sum() == pytest.approx(base.sum(), rel=0.02)

    def test_rejects_1d_matrix(self, tiny_workload):
        layer, lookups, _ = self._setup(tiny_workload)
        with pytest.raises(ValueError):
            layer_trial_batch_secondary(
                np.array([1, 2]), lookups, layer.terms,
                SecondaryUncertainty(), 0,
            )

    def test_year_losses_respect_aggregate_limit(self, tiny_workload):
        layer, lookups, dense = self._setup(tiny_workload)
        terms = LayerTerms(agg_limit=1e7)
        out = layer_trial_batch_secondary(
            dense, lookups, terms, SecondaryUncertainty(2.0, 2.0), 5
        )
        assert np.all(out <= 1e7 + 1e-6)

    @pytest.mark.parametrize("split", [1, 17, 150, 299])
    def test_split_blocks_match_one_block(self, small_workload, split):
        """Decomposition invariance: trials [0, n) as one block equal two
        blocks cut at any trial, the second starting at the global
        occurrence index of its first trial."""
        yet = small_workload.yet
        layer, lookups, _ = self._setup(small_workload)
        su = SecondaryUncertainty(4.0, 4.0)
        n = 300
        whole = layer_trial_batch_secondary(
            yet.slice_trials(0, n).to_dense(), lookups, layer.terms, su, 11
        )
        head = layer_trial_batch_secondary(
            yet.slice_trials(0, split).to_dense(), lookups, layer.terms, su, 11
        )
        tail = layer_trial_batch_secondary(
            yet.slice_trials(split, n).to_dense(),
            lookups,
            layer.terms,
            su,
            11,
            occ_base=int(yet.offsets[split]),
        )
        np.testing.assert_array_equal(np.concatenate([head, tail]), whole)

    def test_rejects_negative_occ_base(self, tiny_workload):
        layer, lookups, dense = self._setup(tiny_workload)
        with pytest.raises(ValueError):
            layer_trial_batch_secondary(
                dense, lookups, layer.terms, SecondaryUncertainty(), 0,
                occ_base=-1,
            )
