"""Correctness checks, run outside the timed region.

Two kinds of check, both independent of pinned golden values:

* **cross-path identity** at the same commit: what the public entry point
  returned must equal (``==``) what the library computes in-process on a
  fresh copy of the same inputs (``price_problems``, ``portfolio_greeks``,
  ``historical_var``, ``problem.compute()``, ``compute_greeks``);
* **tolerance** against independent references: Black-Scholes Monte-Carlo
  calls within ``4 * std_error + tol`` of the closed form, and closed-form
  calls equal to :mod:`repro.pricing.analytics`.

A mismatch is a failed operation; it never raises.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

from repro.core.portfolio import Portfolio
from repro.core.risk import historical_var, portfolio_greeks
from repro.pricing import analytics, price_problems
from repro.pricing.greeks import compute_greeks
from repro.serve.parse import problem_from_request

#: absolute slack added to the ``4 * se`` Monte-Carlo tolerance
MC_TOL = 1e-3
_GREEK_FIELDS = ("total_value", "total_delta", "total_gamma", "total_vega",
                 "total_rho", "total_theta")
_VAR_FIELDS = ("base_value", "var", "expected_shortfall", "scenario_values")


class Tally:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.check(False, message)


def _bs_reference(problem: Any) -> float:
    model, product = problem.model, problem.product
    return float(analytics.bs_call_price(
        model.spot, product.strike, model.rate, model.volatility,
        product.maturity, model.dividend,
    ))


def check_mc_call(tally: Tally, problem: Any, price: float, std_error: float) -> None:
    """A Black-Scholes Monte-Carlo call lies within ``4 se + tol`` of closed form."""
    reference = _bs_reference(problem)
    tally.check(abs(price - reference) <= 4.0 * std_error + MC_TOL,
                f"{problem.label}: MC {price} vs closed form {reference} (se {std_error})")


def check_prices(tally: Tally, label: str, got: Sequence[float | None],
                 expected: Sequence[float]) -> None:
    """Per-position ``==`` of two price vectors (``None`` = errored position)."""
    if len(got) != len(expected):
        tally.fail(f"{label}: {len(got)} prices for {len(expected)} positions")
        return
    for index, (a, b) in enumerate(zip(got, expected)):
        tally.check(a == b, f"{label}[{index}]: {a!r} != {b!r}")


def run_prices(result: Any, n_positions: int) -> list[float | None]:
    """Submission-ordered prices of a ``RunResult`` (``None`` where it errored)."""
    prices = result.prices()
    return [None if i in result.report.errors else prices.get(i)
            for i in range(n_positions)]


def reference_prices(portfolio: Portfolio) -> list[float]:
    """In-process plan-level prices of a fresh copy of the inputs."""
    return [r.price for r in price_problems([p.problem for p in portfolio],
                                            kernel="stacked")]


def check_grid_shape(tally: Tally, portfolio: Portfolio, prices: Sequence[float],
                     n_strikes: int) -> None:
    """Basket puts: within ``[0, K e^{-rT}]`` and non-decreasing in strike."""
    for index, (position, price) in enumerate(zip(portfolio, prices)):
        problem = position.problem
        bound = problem.product.strike * math.exp(
            -problem.model.rate * problem.product.maturity)
        ok = 0.0 <= price <= bound
        if index % n_strikes:
            ok = ok and price >= prices[index - 1]
        tally.check(ok, f"{problem.label}: put price {price} out of shape (bound {bound})")


def check_vanilla_cf(tally: Tally, portfolio: Portfolio, prices: Sequence[float | None],
                     category: str = "vanilla_cf") -> None:
    """The closed-form slice equals :mod:`repro.pricing.analytics`."""
    for position, price in zip(portfolio, prices):
        if position.category == category:
            reference = _bs_reference(position.problem)
            tally.check(price == reference,
                        f"{position.label}: CF {price} != analytics {reference}")


def check_greeks(tally: Tally, reports: Sequence[Any], fresh_book: Portfolio) -> None:
    """``session.greeks`` == ``portfolio_greeks``; base MC prices near closed form."""
    expected = portfolio_greeks(fresh_book)
    for report in reports:
        for name in _GREEK_FIELDS:
            got, want = getattr(report, name), getattr(expected, name)
            tally.check(got == want, f"greeks {name}: {got} != {want}")
        check_prices(tally, "greeks.positions", [p.price for p in report.positions],
                     [p.price for p in expected.positions])
    for position in fresh_book:
        result = position.problem.get_method_results()
        check_mc_call(tally, position.problem, result.price, result.std_error)


def check_var(tally: Tally, summaries: Sequence[dict], fresh_book: Portfolio,
              returns: Sequence[float]) -> None:
    """``session.risk`` == ``historical_var`` on a fresh copy of the book."""
    expected = historical_var(fresh_book, returns)
    for summary in summaries:
        for name in _VAR_FIELDS:
            got, want = summary.get(name), expected.get(name)
            same = list(got) == list(want) if name == "scenario_values" else got == want
            tally.check(same, f"historical VaR {name} differs")


class RequestOracle:
    """Expected answers of the request mix, computed in-process and memoised
    per body so repeated bodies are checked without recomputing."""

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], Any] = {}

    def expected(self, kind: str, body: dict) -> Any:
        key = kind, json.dumps(body, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = self._compute(kind, body)
        return self._memo[key]

    @staticmethod
    def _compute(kind: str, body: dict) -> Any:
        if kind == "price":
            problem = problem_from_request(body)
            return problem, problem.compute()
        if kind == "greeks":
            problem = problem_from_request(body)
            return compute_greeks(problem.model, problem.product, problem.method).as_dict()
        problems = [problem_from_request(entry) for entry in body["positions"]]
        return problems, [problem.compute().price for problem in problems]

    def check(self, tally: Tally, kind: str, body: dict, answer: Any) -> None:
        """Check one answer: a price dict, a Greek dict or a list of run prices."""
        expected = self.expected(kind, body)
        if kind == "price":
            problem, result = expected
            if tally.check(answer["price"] == result.price
                           and answer["std_error"] == result.std_error,
                           f"{body['label']}: price {answer['price']} != {result.price}"):
                check_mc_call(tally, problem, answer["price"], answer["std_error"])
        elif kind == "greeks":
            fields = ("price", "delta", "gamma", "vega", "rho", "theta")
            tally.check(all(answer.get(f) == expected.get(f) for f in fields),
                        f"{body['label']}: greeks differ from compute_greeks")
        else:
            problems, prices = expected
            check_prices(tally, body["name"], answer, prices)
            for problem, price in zip(problems, answer):
                if problem.method_name == "CF_Call":
                    tally.check(price == _bs_reference(problem),
                                f"{problem.label}: CF {price} != analytics")

