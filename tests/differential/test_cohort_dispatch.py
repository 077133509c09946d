"""Dispatch shape of batched session runs: one job per draw cohort and worker.

A batched session coalesces every signature group of one draw cohort into
at most ``n_workers`` :class:`~repro.pricing.batch.ProblemBatch` jobs, each
priced with one stacked-kernel call.  These tests pin that shape (kernel
call counts, job counts) and check that the coalesced runs stay ``==`` to
the in-process references -- ``price_problems``, ``portfolio_greeks`` and
``historical_var`` on the same inputs -- and to the loop reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pricing.kernel as kernel_module
from repro.api import ValuationSession
from repro.core.portfolio import Portfolio, Position
from repro.core.risk import historical_var, portfolio_greeks
from repro.errors import PricingError, ValuationError
from repro.pricing import (
    PricingProblem,
    ProblemBatch,
    flat_correlation,
    price_problems,
    simulation_signature,
)

from .loop_reference import price_many_loop

N_FAMILIES, N_STRIKES = 6, 3


def _grid(seed: int = 11) -> Portfolio:
    """Volatility scenarios x strikes of a 3-asset basket put: one cohort."""
    portfolio = Portfolio(name="cohort_grid")
    corr = flat_correlation(3, 0.3).tolist()
    for family in range(N_FAMILIES):
        vols = [0.15 + 0.01 * family, 0.2, 0.25]
        for j in range(N_STRIKES):
            strike = 90.0 + 10.0 * j
            problem = PricingProblem(label=f"f{family}_K{strike}")
            problem.set_asset("equity")
            problem.set_model("BlackScholesND", spot=[100.0] * 3, rate=0.03,
                              volatilities=vols, correlation=corr, dividends=0.0)
            problem.set_option("BasketPutEuro", strike=strike, maturity=1.0,
                               weights=[1.0 / 3] * 3)
            problem.set_method("MC_European", n_paths=2_000, n_steps=1,
                               antithetic=False, control_variate=False, seed=seed,
                               rng_kind="sobol")
            portfolio.add(Position(problem=problem, category="scenario_mc",
                                   label=problem.label))
    return portfolio


def _call_book(n_positions: int = 4, n_paths: int = 2_000) -> Portfolio:
    portfolio = Portfolio(name="calls")
    for index in range(n_positions):
        problem = PricingProblem(label=f"call{index}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.04, volatility=0.22)
        problem.set_option("CallEuro", strike=90.0 + 5.0 * index, maturity=1.0)
        problem.set_method("MC_European", n_paths=n_paths, n_steps=1,
                           antithetic=False, control_variate=False, seed=7,
                           rng_kind="sobol")
        portfolio.add(Position(problem=problem, quantity=1.0 + index,
                               category="vanilla_mc", label=problem.label))
    return portfolio


def _counting_run_groups(monkeypatch) -> list[int]:
    """Patch ``kernel.run_groups`` to record the group count of every call."""
    calls: list[int] = []
    original = kernel_module.run_groups

    def counting(groups, *args, **kwargs):
        calls.append(len(groups))
        return original(groups, *args, **kwargs)

    monkeypatch.setattr(kernel_module, "run_groups", counting)
    return calls


class TestLocalCohortDispatch:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_one_kernel_call_per_worker_share(self, monkeypatch, n_workers):
        expected = [r.price for r in price_problems([p.problem for p in _grid()])]
        calls = _counting_run_groups(monkeypatch)
        result = ValuationSession("local", n_workers=n_workers).run(_grid(), batch=True)
        assert result.ok
        assert 1 <= len(calls) <= n_workers
        assert sum(calls) == N_FAMILIES
        prices = result.prices()
        assert [prices[i] for i in range(len(expected))] == expected

    def test_batched_session_equals_loop_reference(self):
        problems = [p.problem for p in _grid()]
        expected = []
        for family in range(N_FAMILIES):
            members = problems[family * N_STRIKES:(family + 1) * N_STRIKES]
            expected += [r.price for r in price_many_loop(
                members[0].method, members[0].model, [p.product for p in members])]
        result = ValuationSession("local", n_workers=2).run(_grid(), batch=True)
        prices = result.prices()
        assert [prices[i] for i in range(len(expected))] == expected

    def test_batch_group_size_caps_the_job(self, monkeypatch):
        calls = _counting_run_groups(monkeypatch)
        result = ValuationSession("local", n_workers=2).run(
            _grid(), batch=True, batch_group_size=6)
        assert result.ok
        # 18 members, at most 6 a job: three jobs even though n_workers is 2
        assert len(calls) == 3 and sum(calls) == N_FAMILIES


class TestMultiprocessingRisk:
    def test_session_greeks_equal_portfolio_greeks(self):
        session = ValuationSession("multiprocessing", n_workers=2)
        assert session.greeks(_call_book()) == portfolio_greeks(_call_book())

    def test_session_risk_equals_historical_var(self):
        returns = [-0.02, 0.011, -0.004, 0.007, -0.015]
        session = ValuationSession("multiprocessing", n_workers=2)
        batched = session.risk(_call_book(), spot_returns=returns)
        assert batched == historical_var(_call_book(), returns)


class TestCohortBatchIsolation:
    def _poison(self) -> PricingProblem:
        from repro.pricing.engine import register_product
        from repro.pricing.products.basket import BasketPut

        class PoisonBasketPut(BasketPut):
            option_name = "PoisonBasketPutTest"

            def terminal_payoff(self, spot):
                return np.full(np.shape(spot)[0], np.nan)

        register_product(PoisonBasketPut)
        problem = _grid().positions[4].problem
        problem.set_option(PoisonBasketPut(strike=95.0, maturity=1.0,
                                           weights=[1.0 / 3] * 3))
        return problem

    def test_poison_member_fails_alone(self):
        problems = [position.problem for position in _grid()]
        problems[4] = self._poison()
        batch = ProblemBatch(problems)
        assert len({simulation_signature(p) for p in problems}) == N_FAMILIES
        out = batch.compute()
        assert set(out) == set(range(len(problems)))
        assert "error" in out[4] and "price" not in out[4]
        healthy = [i for i in range(len(problems)) if i != 4]
        expected = price_problems([_grid().positions[i].problem for i in healthy])
        assert [out[i]["price"] for i in healthy] == [r.price for r in expected]

    def test_mixed_seeds_cannot_share_a_batch(self):
        a = _grid(seed=11).positions[0].problem
        b = _grid(seed=12).positions[1].problem
        with pytest.raises(PricingError, match="draw cohort"):
            ProblemBatch([a, b])


class TestKernelKeyword:
    """``kernel`` survives on two entry points and only names the stacked engine."""

    def test_stacked_is_accepted(self):
        expected = [r.price for r in price_problems([p.problem for p in _call_book()])]
        assert [r.price for r in price_problems(
            [p.problem for p in _call_book()], kernel="stacked")] == expected
        result = ValuationSession("local").run(_call_book(), kernel="stacked")
        prices = result.prices()
        assert [prices[i] for i in range(len(expected))] == expected

    @pytest.mark.parametrize("kernel", ["loop", "warp"])
    def test_price_problems_rejects_other_kernels(self, kernel):
        with pytest.raises(PricingError, match="unknown kernel"):
            price_problems([p.problem for p in _call_book()], kernel=kernel)

    @pytest.mark.parametrize("kernel", ["loop", "warp"])
    def test_session_run_rejects_other_kernels(self, kernel):
        with pytest.raises(ValuationError, match="unknown kernel"):
            ValuationSession("local").run(_call_book(), kernel=kernel)
