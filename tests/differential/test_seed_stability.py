"""Seed stability: the stacked kernel's random stream is pinned by digest.

The differential suite proves the stacked kernel agrees with its loop
reference -- but both could drift *together* (a numpy upgrade changing the
bit-stream, an accidental extra draw) and still agree.  These tests pin the
SHA-256 digest of the raw base-generator draws for three fixed seeds, so
any change to what is drawn -- order, shape, count or content -- fails
loudly even if it is internally consistent.
"""

from __future__ import annotations

from repro.pricing.kernel import draw_digest
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.models import BlackScholesModel
from repro.pricing.products import AsianCall, DigitalCall, EuropeanCall, EuropeanPut

#: seed -> (terminal-mode digest, paths-mode digest); regenerate ONLY for an
#: intentional, documented change of the sampling scheme
PINNED_DIGESTS = {
    0: (
        "2ec90204e0bff6642584cff42803fbb6561575f80a9f76b230c6ee358ef3c7a3",
        "a6bf7f1a04b78179d7cb9562aaa1d1ad0ccf8489a5405e7d24db14198b0eeb8f",
    ),
    1: (
        "6e8252d8ccfdb7ce0f700a3443e506fc92b4a4214089e47080e89b7aa64c9cae",
        "e2bad8135df48fbcc2ce374d6ef3ae3822870650ad4a965dd10866bfe6e2fd2a",
    ),
    123456789: (
        "eda75dbe45705228663dad7daa71eeb394845378f4b4a4ed93bc2ed06895b859",
        "7797cab36937c84eaaa23457be7dff3918a356bfad8329c7469a206ed2e8be1c",
    ),
}

_MODEL = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)


def _terminal_digest(seed: int) -> str:
    method = MonteCarloEuropean(n_paths=2001, seed=seed, batch_size=1000)
    return draw_digest(method, _MODEL, [EuropeanCall(strike=100.0, maturity=1.0)])


def _paths_digest(seed: int) -> str:
    method = MonteCarloEuropean(n_paths=1001, n_steps=8, seed=seed, batch_size=512)
    return draw_digest(method, _MODEL, [AsianCall(strike=100.0, maturity=1.0, n_fixings=8)])


class TestSeedStability:
    def test_pinned_digests(self):
        for seed, (terminal_expected, paths_expected) in PINNED_DIGESTS.items():
            assert _terminal_digest(seed) == terminal_expected, f"seed {seed} (terminal)"
            assert _paths_digest(seed) == paths_expected, f"seed {seed} (paths)"

    def test_digests_distinct_across_seeds(self):
        digests = [_terminal_digest(seed) for seed in PINNED_DIGESTS]
        assert len(set(digests)) == len(digests)

    def test_digest_independent_of_payoffs(self):
        """The stream depends only on the simulation, never on the payoffs."""
        method = MonteCarloEuropean(n_paths=2001, seed=0, batch_size=1000)
        one = draw_digest(method, _MODEL, [EuropeanCall(strike=100.0, maturity=1.0)])
        other = draw_digest(
            method,
            _MODEL,
            [EuropeanPut(strike=90.0, maturity=1.0),
             DigitalCall(strike=110.0, maturity=1.0)],
        )
        assert one == other
        assert one == PINNED_DIGESTS[0][0]

    def test_digest_reproducible_within_process(self):
        assert _terminal_digest(1) == _terminal_digest(1)
