"""Portfolio risk measures: present value, Greeks, sensitivity sweeps, VaR.

The motivation of the paper is daily risk evaluation: "it is necessary to
price the contingent claims for various values of these model parameters to
measure their sensibilities to the parameters.  As a consequence, a huge
number of atomic computations (around 10^6) is necessary to evaluate the risk
of the whole portfolio."  This module provides the post-treatment layer that
turns the per-position prices produced by the benchmark runs into
portfolio-level risk numbers:

* :func:`portfolio_value` -- present value of the portfolio;
* :func:`portfolio_greeks` -- aggregated delta / gamma / vega / rho / theta;
* :func:`sensitivity_sweep` -- revalue the portfolio on a grid of bumped
  model parameters (the "various values of these model parameters");
* :func:`scenario_jobs` -- expand a portfolio x scenarios into the flat job
  list that the cluster values (this is what multiplies a few thousand
  claims into ~10^6 atomic computations);
* :func:`historical_var` -- one-day value-at-risk from historical spot
  returns, revaluing the portfolio under each historical shock.

Each measure has two engines.  ``engine="batched"`` (default) expands the
(portfolio x scenarios) grid through :mod:`repro.pricing.scenarios` and
prices it as one stacked-kernel campaign: every bumped cell of a position
joins its base's draw cohort, so a Greek ladder or a thousand-scenario VaR
campaign costs a couple of simulations instead of one per cell, with common
random numbers by construction.  ``engine="serial"`` is the original
position-by-position bump-and-revalue loop, kept as the differential oracle
(base prices agree with ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.portfolio import Portfolio, Position
from repro.errors import PortfolioError
from repro.pricing.engine import PricingProblem
from repro.pricing.greeks import GreekReport, bump_model, compute_greeks

__all__ = [
    "PositionRisk",
    "PortfolioRiskReport",
    "portfolio_value",
    "portfolio_greeks",
    "sensitivity_sweep",
    "scenario_jobs",
    "historical_var",
]


@dataclass
class PositionRisk:
    """Risk numbers of one position (scaled by its quantity)."""

    label: str
    category: str
    quantity: float
    price: float
    delta: float | None = None
    gamma: float | None = None
    vega: float | None = None
    rho: float | None = None
    theta: float | None = None

    @property
    def value(self) -> float:
        return self.quantity * self.price


@dataclass
class PortfolioRiskReport:
    """Aggregated portfolio risk."""

    total_value: float
    total_delta: float
    total_gamma: float
    total_vega: float
    total_rho: float
    total_theta: float = 0.0
    positions: list[PositionRisk] = field(default_factory=list)
    by_category: dict[str, float] = field(default_factory=dict)


def _price_position(position: Position) -> float:
    problem = position.problem
    if problem.has_result:
        return float(problem.get_method_results().price)
    return float(problem.compute().price)


def portfolio_value(
    portfolio: Portfolio, prices: dict[int, float] | None = None
) -> float:
    """Present value ``sum_i quantity_i * price_i``.

    ``prices`` may carry prices already computed by a cluster run (job id ->
    price, job ids being position indices); positions without a supplied
    price are priced locally.
    """
    total = 0.0
    for index, position in enumerate(portfolio):
        if prices is not None and index in prices:
            price = prices[index]
        else:
            price = _price_position(position)
        total += position.quantity * price
    return total


def _truncated(portfolio: Portfolio, max_positions: int | None) -> list[Position]:
    positions = portfolio.positions
    if max_positions is not None:
        positions = positions[:max_positions]
    return positions


def _aggregate_greeks(
    pairs: Sequence[tuple[Position, GreekReport]],
) -> PortfolioRiskReport:
    """Fold per-position Greek reports into one portfolio report."""
    rows: list[PositionRisk] = []
    by_category: dict[str, float] = {}
    totals = {"value": 0.0, "delta": 0.0, "gamma": 0.0, "vega": 0.0,
              "rho": 0.0, "theta": 0.0}
    for position, report in pairs:
        row = PositionRisk(
            label=position.label,
            category=position.category,
            quantity=position.quantity,
            price=report.price,
            delta=report.delta,
            gamma=report.gamma,
            vega=report.vega,
            rho=report.rho,
            theta=report.theta,
        )
        rows.append(row)
        totals["value"] += row.value
        totals["delta"] += position.quantity * (report.delta or 0.0)
        totals["gamma"] += position.quantity * (report.gamma or 0.0)
        totals["vega"] += position.quantity * (report.vega or 0.0)
        totals["rho"] += position.quantity * (report.rho or 0.0)
        totals["theta"] += position.quantity * (report.theta or 0.0)
        by_category[position.category] = by_category.get(position.category, 0.0) + row.value
    return PortfolioRiskReport(
        total_value=totals["value"],
        total_delta=totals["delta"],
        total_gamma=totals["gamma"],
        total_vega=totals["vega"],
        total_rho=totals["rho"],
        total_theta=totals["theta"],
        positions=rows,
        by_category=by_category,
    )


def portfolio_greeks(
    portfolio: Portfolio,
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    max_positions: int | None = None,
    *,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
    engine: str = "batched",
) -> PortfolioRiskReport:
    """Bump-and-revalue Greeks aggregated over the portfolio.

    ``engine="batched"`` expands the whole book against one
    :func:`~repro.pricing.scenarios.greek_ladder` and prices it as a single
    scenario campaign: all bumped cells of the stackable positions share
    their base's draw cohort, so a 50-position single-model ladder costs two
    simulations instead of ~500 serial repricings.  Positions whose model
    has no volatility-like parameter simply report ``vega=None`` (their
    cells are skipped), matching the serial behaviour.

    ``max_positions`` truncates the portfolio (useful for smoke tests on the
    realistic portfolio, where full Greeks would require ~10x the pricing
    work of a plain valuation).
    """
    positions = _truncated(portfolio, max_positions)
    if not positions:
        raise PortfolioError("cannot compute Greeks of an empty portfolio")

    if engine == "batched":
        from repro.pricing.scenarios import (
            VOL_PARAM,
            greek_ladder,
            greeks_from_prices,
            price_scenarios,
        )

        ladder = greek_ladder(
            spot_bump=spot_bump, vol_bump=vol_bump, rate_bump=rate_bump,
            theta_bump=theta_bump, vol_param=VOL_PARAM,
        )
        problems = [position.problem for position in positions]
        grids = price_scenarios(problems, ladder, on_missing="skip")
        pairs = [
            (
                position,
                greeks_from_prices(
                    position.problem.model, position.problem.product, prices,
                    spot_bump=spot_bump, vol_bump=vol_bump,
                    rate_bump=rate_bump, theta_bump=theta_bump,
                ),
            )
            for position, prices in zip(positions, grids)
        ]
        return _aggregate_greeks(pairs)

    pairs = []
    for position in positions:
        problem = position.problem
        report: GreekReport = compute_greeks(
            problem.model, problem.product, problem.method,
            spot_bump=spot_bump, vol_bump=vol_bump, rate_bump=rate_bump,
            theta_bump=theta_bump, engine="serial",
        )
        pairs.append((position, report))
    return _aggregate_greeks(pairs)


def _bumped_problem(problem: PricingProblem, param: str, bump: float, relative: bool) -> PricingProblem:
    """Copy a problem with one bumped model parameter."""
    bumped_model = bump_model(problem.model, param, bump, relative=relative)
    clone = PricingProblem(label=problem.label)
    clone.set_asset(problem.asset)
    clone.set_model(bumped_model)
    clone.set_option(problem.product)
    clone.set_method(problem.method)
    return clone


def sensitivity_sweep(
    portfolio: Portfolio,
    param: str,
    bumps: Sequence[float],
    relative: bool = True,
    max_positions: int | None = None,
    value_function: Callable[[Portfolio], float] | None = None,
    *,
    engine: str = "batched",
) -> dict[float, float]:
    """Portfolio value as a function of a bumped model parameter.

    Positions whose model does not expose ``param`` are kept unbumped (their
    value still enters the total), so the sweep is well defined on mixed
    portfolios.  The batched engine prices the whole (positions x bumps)
    grid as one stacked campaign; passing ``value_function`` forces the
    serial per-scenario loop, since an arbitrary valuer cannot be expressed
    as batched cell prices.
    """
    positions = _truncated(portfolio, max_positions)

    if engine == "batched" and value_function is None and positions:
        from repro.pricing.scenarios import price_scenarios, shock_scenarios

        scenarios = shock_scenarios(bumps, param=param, relative=relative)
        if not scenarios:
            return {}
        problems = [position.problem for position in positions]
        grids = price_scenarios(problems, scenarios, on_missing="base")
        out: dict[float, float] = {}
        for scenario, bump in zip(scenarios, bumps):
            out[float(bump)] = sum(
                position.quantity * grid[scenario.name]
                for position, grid in zip(positions, grids)
            )
        return out

    valuer = value_function or portfolio_value
    out = {}
    for bump in bumps:
        bumped_positions = []
        for position in positions:
            try:
                bumped = _bumped_problem(position.problem, param, bump, relative)
            except Exception:
                bumped = position.problem
            bumped_positions.append(
                Position(
                    problem=bumped,
                    quantity=position.quantity,
                    category=position.category,
                    label=position.label,
                )
            )
        out[float(bump)] = valuer(Portfolio(name=f"{portfolio.name}_bump", positions=bumped_positions))
    return out


def scenario_jobs(
    portfolio: Portfolio,
    param: str,
    bumps: Sequence[float],
    relative: bool = True,
    max_positions: int | None = None,
) -> list[PricingProblem]:
    """Expand a portfolio into one pricing problem per (position, scenario).

    This is the workload multiplication the paper's introduction describes: a
    portfolio of a few thousand claims times a few hundred parameter
    scenarios yields the ~10^6 atomic computations of a full risk run.  The
    returned problems can be wrapped into a :class:`Portfolio` and fed to the
    cluster runner like any other workload.
    """
    positions = _truncated(portfolio, max_positions)
    problems: list[PricingProblem] = []
    for position in positions:
        for bump in bumps:
            try:
                clone = _bumped_problem(position.problem, param, bump, relative)
            # repro-lint: disable=except-swallow -- a position whose model lacks the bumped parameter is skipped by design; the sensitivity grid stays dense for the rest
            except Exception:
                continue
            clone.label = f"{position.label}|{param}{bump:+g}"
            problems.append(clone)
    return problems


def historical_var(
    portfolio: Portfolio,
    spot_returns: Sequence[float],
    confidence: float = 0.99,
    max_positions: int | None = None,
    *,
    engine: str = "batched",
) -> dict[str, Any]:
    """One-day historical value-at-risk of the portfolio.

    Each historical return ``r`` defines a scenario in which every underlying
    spot is shocked by ``(1 + r)``; the portfolio is revalued under each
    scenario and the VaR is the ``confidence``-quantile of the loss
    distribution relative to the base value.

    The batched engine prices base and all shocked states as **one**
    scenario campaign: spot shocks leave the time grid and method untouched,
    so a thousand historical scenarios of a stackable book share a single
    draw cohort instead of a thousand portfolio revaluations.
    """
    if not 0.5 < confidence < 1.0:
        raise PortfolioError("confidence must lie in (0.5, 1)")
    returns = np.asarray(list(spot_returns), dtype=float)
    if returns.size == 0:
        raise PortfolioError("need at least one historical return")
    positions = _truncated(portfolio, max_positions)

    if engine == "batched" and positions:
        from repro.pricing.scenarios import historical_scenarios, price_scenarios

        scenarios = historical_scenarios(returns.tolist())
        problems = [position.problem for position in positions]
        grids = price_scenarios(problems, scenarios, on_missing="base")
        base_value = sum(
            position.quantity * grid["base"]
            for position, grid in zip(positions, grids)
        )
        scenario_values = np.asarray([
            sum(
                position.quantity * grid[scenario.name]
                for position, grid in zip(positions, grids)
            )
            for scenario in scenarios[1:]
        ])
    else:
        base_portfolio = Portfolio(name=f"{portfolio.name}_base", positions=positions)
        base_value = portfolio_value(base_portfolio)

        values = []
        for shock in returns:
            shocked_positions = []
            for position in positions:
                try:
                    bumped = _bumped_problem(position.problem, "spot", float(shock), relative=True)
                except Exception:
                    bumped = position.problem
                shocked_positions.append(
                    Position(problem=bumped, quantity=position.quantity,
                             category=position.category, label=position.label)
                )
            values.append(
                portfolio_value(Portfolio(name="scenario", positions=shocked_positions))
            )
        scenario_values = np.asarray(values)

    return _var_summary(float(base_value), scenario_values, confidence)


def _var_summary(
    base_value: float, scenario_values: np.ndarray, confidence: float
) -> dict[str, Any]:
    """Loss-distribution summary shared by the engines (and the session API)."""
    losses = base_value - scenario_values
    var = float(np.quantile(losses, confidence))
    expected_shortfall = float(losses[losses >= var].mean()) if np.any(losses >= var) else var
    return {
        "base_value": float(base_value),
        "var": var,
        "expected_shortfall": expected_shortfall,
        "confidence": confidence,
        "n_scenarios": int(scenario_values.size),
        "worst_loss": float(losses.max()),
        "scenario_values": scenario_values.tolist(),
    }
