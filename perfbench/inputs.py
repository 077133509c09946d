"""Seeded workload inputs.

Every function here is a pure function of ``seed``: the same seed gives the
same portfolios and request bodies, another seed moves the market parameters,
the strikes and the random-number seeds but keeps every size, method and
grid, so the amount of work per campaign does not depend on the seed.  The
correctness checks make fresh copies by calling the same function again.
"""

from __future__ import annotations

import numpy as np

from repro.core.portfolio import Portfolio, Position, build_realistic_portfolio
from repro.pricing import PricingProblem, flat_correlation

#: workload sizes (see README.md for how they were chosen)
GRID_FAMILIES = 30
GRID_STRIKES = 7
GRID_PATHS = 20_000
GRID_DIMENSION = 10
REALISTIC_SCALE = 0.05
LADDER_POSITIONS = 50
LADDER_PATHS = 100_000
VAR_PATHS = 20_000
VAR_RETURNS = 50
REQUEST_PATHS = 100_000
RUN_POSITIONS = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def scenario_grid(seed: int) -> Portfolio:
    """30 volatility scenarios x 7 strikes of a 10-asset basket put.

    One Sobol stream for the whole grid, so every scenario family is one
    shared-simulation group and all groups form one draw cohort.
    """
    rng = _rng(seed, 1)
    corr = flat_correlation(GRID_DIMENSION, float(rng.uniform(0.2, 0.4))).tolist()
    base_vols = rng.uniform(0.10, 0.20, GRID_DIMENSION)
    rate = float(rng.uniform(0.02, 0.06))
    mc_seed = _mc_seed(rng)
    weights = [1.0 / GRID_DIMENSION] * GRID_DIMENSION
    portfolio = Portfolio(name="scenario_grid")
    for fam in range(GRID_FAMILIES):
        vols = (base_vols + 0.004 * fam).tolist()
        for j in range(GRID_STRIKES):
            strike = 80.0 + 40.0 * j / (GRID_STRIKES - 1)
            problem = PricingProblem(label=f"scen{fam:02d}_K{strike:.2f}")
            problem.set_asset("equity")
            problem.set_model(
                "BlackScholesND", spot=[100.0] * GRID_DIMENSION, rate=rate,
                volatilities=vols, correlation=corr, dividends=0.0,
            )
            problem.set_option("BasketPutEuro", strike=strike, maturity=1.0,
                               weights=weights)
            problem.set_method(
                "MC_European", n_paths=GRID_PATHS, n_steps=1, antithetic=False,
                control_variate=False, seed=mc_seed, rng_kind="sobol",
            )
            portfolio.add(Position(problem=problem, category="scenario_mc",
                                   label=problem.label))
    return portfolio


def realistic_book(seed: int) -> Portfolio:
    """The paper's Table III book (six method families), ``fast`` profile."""
    rng = _rng(seed, 2)
    return build_realistic_portfolio(
        profile="fast", scale=REALISTIC_SCALE,
        volatility=float(rng.uniform(0.2, 0.3)),
        rate=float(rng.uniform(0.03, 0.06)),
        seed=_mc_seed(rng),
    )


def _call_ladder(n_positions: int, n_paths: int, vol: float, rate: float,
                 mc_seed: int) -> Portfolio:
    portfolio = Portfolio(name="risk_ladder")
    for index in range(n_positions):
        strike = 80.0 + 40.0 * index / (n_positions - 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=rate, volatility=vol)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method(
            "MC_European", n_paths=n_paths, n_steps=1, antithetic=False,
            control_variate=False, seed=mc_seed, rng_kind="sobol",
        )
        portfolio.add(Position(problem=problem, category="vanilla_mc",
                               label=problem.label))
    return portfolio


def risk_books(seed: int) -> tuple[Portfolio, Portfolio, list[float]]:
    """The Greek-ladder book, the VaR book and the historical spot returns."""
    rng = _rng(seed, 3)
    vol = float(rng.uniform(0.18, 0.26))
    rate = float(rng.uniform(0.03, 0.06))
    mc_seed = _mc_seed(rng)
    ladder = _call_ladder(LADDER_POSITIONS, LADDER_PATHS, vol, rate, mc_seed)
    var_book = _call_ladder(LADDER_POSITIONS, VAR_PATHS, vol, rate, mc_seed)
    returns = rng.normal(0.0, 0.012, VAR_RETURNS).tolist()
    return ladder, var_book, returns


# -- the HTTP request mix (also the small-request probes of session workloads)


def _mc_call_body(rng: np.random.Generator, market: dict, label: str) -> dict:
    return {
        "category": "vanilla_mc",
        "model": "BlackScholes1D",
        "model_params": dict(market["model_params"]),
        "option": "CallEuro",
        "option_params": {"strike": round(float(rng.uniform(80.0, 120.0)), 6),
                          "maturity": float(rng.choice([0.5, 1.0, 1.5]))},
        "method": "MC_European",
        "method_params": {"n_paths": REQUEST_PATHS, "n_steps": 1,
                          "seed": market["mc_seed"]},
        "label": label,
    }


def _cf_call_body(rng: np.random.Generator, market: dict, label: str) -> dict:
    return {
        "category": "vanilla_cf",
        "model": "BlackScholes1D",
        "model_params": dict(market["model_params"]),
        "option": "CallEuro",
        "option_params": {"strike": round(float(rng.uniform(80.0, 120.0)), 6),
                          "maturity": float(rng.choice([0.5, 1.0, 1.5]))},
        "method": "CF_Call",
        "label": label,
    }


#: one block of the request mix: 6 price, 2 greeks, 2 run requests; half of
#: each kind repeat a body sent earlier (the daemon caches prices and runs;
#: a repeated Greek ladder is recomputed, but checked from the oracle's memo)
_MIX_BLOCK = (("price", False),) * 3 + (("price", True),) * 3 + (
    ("greeks", False), ("greeks", True), ("run", False), ("run", True))


def request_mix(seed: int, n_requests: int) -> list[tuple[str, dict]]:
    """``n_requests`` seeded ``(kind, body)`` pairs: 60% price, 20% greeks,
    20% run (8 positions), in shuffled blocks of ten so every seed sends the
    same proportions.  Half of the bodies of each kind repeat a body sent
    earlier, so a result cache sees hits beside fills.

    Every Monte-Carlo body shares one market and one MC seed per benchmark
    seed: fresh bodies differ in strike and maturity only.
    """
    rng = _rng(seed, 4)
    market = {
        "model_params": {"spot": 100.0, "rate": round(float(rng.uniform(0.02, 0.06)), 6),
                         "volatility": round(float(rng.uniform(0.15, 0.3)), 6)},
        "mc_seed": _mc_seed(rng),
    }
    sent: dict[str, list[dict]] = {"price": [], "greeks": [], "run": []}
    mix: list[tuple[str, dict]] = []
    while len(mix) < n_requests:
        for slot in rng.permutation(len(_MIX_BLOCK)):
            kind, repeat = _MIX_BLOCK[slot]
            index = len(mix)
            if repeat and sent[kind]:
                body = sent[kind][int(rng.integers(len(sent[kind])))]
            elif kind == "run":
                body = {
                    "name": f"run{index}",
                    "positions": [
                        (_mc_call_body if i % 2 else _cf_call_body)(rng, market,
                                                                   f"r{index}p{i}")
                        for i in range(RUN_POSITIONS)
                    ],
                    "wait": True,
                }
            else:
                body = _mc_call_body(rng, market, f"{kind}{index}")
            sent[kind].append(body)
            mix.append((kind, body))
    return mix[:n_requests]
