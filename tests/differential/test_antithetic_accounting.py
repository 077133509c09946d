"""Exact draw accounting for the antithetic odd-``n_paths`` case.

With antithetic variates an odd path count cannot form complete mirror
pairs, so the simulation rounds ``n_paths`` up to the next even total and
reports exactly what it consumed -- never a phantom path, never a silently
dropped one.  These tests count the *raw base-generator draws* of the
stacked kernel (via the ``record`` hook, which sits below the antithetic
wrapper) and the pair-averaged samples delivered to the payoff estimator,
for ``n_paths`` in {1, 2, 3, 999, 1000}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing.kernel import run_groups
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.models import BlackScholesModel
from repro.pricing.products import EuropeanCall

from .loop_reference import price_many_loop

_MODEL = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)
_PRODUCT = EuropeanCall(strike=100.0, maturity=1.0)
_FLOAT_BYTES = np.dtype(float).itemsize


def _stacked_run(n_paths: int, antithetic: bool, batch_size: int = 256):
    """Run the stacked kernel; return (base draw count, samples, result)."""
    method = MonteCarloEuropean(
        n_paths=n_paths, seed=11, antithetic=antithetic, batch_size=batch_size,
    )
    drawn = []
    samples = []
    sinks = {0: lambda index, batch: samples.append(np.asarray(batch, dtype=float))}
    [[result]] = run_groups(
        [(method, _MODEL, [_PRODUCT])],
        sample_sinks=sinks,
        record=lambda raw: drawn.append(len(raw) // _FLOAT_BYTES),
    )
    return sum(drawn), int(sum(len(batch) for batch in samples)), result


class TestAntitheticDrawCounts:
    def test_n_paths_one_is_rejected(self):
        with pytest.raises(PricingError, match="n_paths must be at least 2"):
            MonteCarloEuropean(n_paths=1, seed=11)

    @pytest.mark.parametrize("n_paths", [2, 3, 999, 1000])
    def test_antithetic_counts(self, n_paths):
        n_total = n_paths + (n_paths % 2)  # odd counts round up to full pairs
        drawn, n_samples, result = _stacked_run(n_paths, antithetic=True)
        assert drawn == n_total // 2  # one base draw seeds each mirror pair
        assert n_samples == n_total // 2  # estimator sees pair averages
        assert result.extra["n_paths"] == n_total
        assert result.n_evaluations == n_total

    @pytest.mark.parametrize("n_paths", [2, 3, 999, 1000])
    def test_plain_counts(self, n_paths):
        drawn, n_samples, result = _stacked_run(n_paths, antithetic=False)
        assert drawn == n_paths
        assert n_samples == n_paths
        assert result.extra["n_paths"] == n_paths
        assert result.n_evaluations == n_paths

    @pytest.mark.parametrize("batch_size", [2, 3, 97, 1024])
    def test_counts_invariant_to_batching(self, batch_size):
        """Chunking changes how draws are split, never how many are made."""
        drawn, n_samples, _ = _stacked_run(999, antithetic=True, batch_size=batch_size)
        assert (drawn, n_samples) == (500, 500)

    def test_loop_reference_agrees_on_accounting(self):
        method = MonteCarloEuropean(n_paths=999, seed=11, antithetic=True, batch_size=256)
        [loop_result] = price_many_loop(method, _MODEL, [_PRODUCT])
        _, _, stacked_result = _stacked_run(999, antithetic=True)
        assert loop_result.extra["n_paths"] == stacked_result.extra["n_paths"] == 1000
        assert loop_result.n_evaluations == stacked_result.n_evaluations
        assert loop_result.price == stacked_result.price
