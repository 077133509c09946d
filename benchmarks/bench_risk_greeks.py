"""Benchmark R1 -- CRN risk campaigns: batched Greek ladders and historical VaR.

The workload is the paper's daily-risk motivation on a 50-position
single-model Monte-Carlo call ladder:

* **Greek ladder**: the full finite-difference report (delta, gamma, vega,
  rho, theta) for every position.  The serial bump-and-revalue oracle pays
  ~8 simulations per position (400 Sobol draws in all); the batched CRN
  scenario grid (:mod:`repro.pricing.scenarios`) expands the same ladder
  into one ``price_problems`` campaign whose spot/vol/rate
  bumps all share **one** draw cohort (the theta roll-down is the second),
  so the whole book costs two simulations;
* **historical VaR**: a 1000-scenario spot-return campaign over the same
  book -- 50,050 cells, serially 50,050 simulations, batched **one** shared
  draw cohort swept per-scenario.

Both paths must agree *bit for bit* -- base prices, assembled Greeks and
every scenario value -- because the CRN cohorts replay the very same seeded
draws the serial path generates (common random numbers by construction, not
by seed-reuse convention).  The batched ladder must beat serial by
``MIN_LADDER_SPEEDUP``; results land in
``benchmarks/results/BENCH_risk.json``.

Run standalone for the CI smoke check (tiny sizes, relaxed floors)::

    PYTHONPATH=src python benchmarks/bench_risk_greeks.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from benchmarks.conftest import write_bench_json  # noqa: E402
from repro.core.portfolio import Portfolio, Position  # noqa: E402
from repro.core.risk import historical_var, portfolio_greeks  # noqa: E402
from repro.pricing import PricingProblem  # noqa: E402

#: full-profile sizes (the acceptance configuration)
FULL_POSITIONS = 50
FULL_LADDER_PATHS = 100_000
FULL_VAR_SCENARIOS = 1_000
FULL_VAR_PATHS = 20_000
#: smoke-profile sizes for the CI check (seconds, not minutes)
SMOKE_POSITIONS = 8
SMOKE_LADDER_PATHS = 16_000
SMOKE_VAR_SCENARIOS = 64
SMOKE_VAR_PATHS = 8_000

MIN_LADDER_SPEEDUP = 5.0
MIN_VAR_SPEEDUP = 3.0

_GREEK_FIELDS = ("total_value", "total_delta", "total_gamma", "total_vega",
                 "total_rho", "total_theta")


def build_ladder_book(n_positions: int, n_paths: int) -> Portfolio:
    """A single-model Monte-Carlo call ladder: one Black-Scholes model, one
    Sobol stream, ``n_positions`` strikes -- the configuration where CRN
    batching collapses the whole Greek grid into two draw cohorts."""
    portfolio = Portfolio(name="risk_ladder")
    for index in range(n_positions):
        strike = 80.0 + 40.0 * index / max(n_positions - 1, 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method(
            "MC_European", n_paths=n_paths, n_steps=1, antithetic=False,
            control_variate=False, seed=7, rng_kind="sobol",
        )
        portfolio.add(
            Position(problem=problem, category="vanilla_mc", label=problem.label)
        )
    return portfolio


def run_risk_benchmark(
    n_positions: int, ladder_paths: int, var_scenarios: int, var_paths: int
) -> dict:
    """Time the serial oracle against the batched CRN engine on both campaigns."""
    ladder_book = build_ladder_book(n_positions, ladder_paths)

    start = time.perf_counter()
    serial = portfolio_greeks(ladder_book, engine="serial")
    ladder_serial_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = portfolio_greeks(ladder_book, engine="batched")
    ladder_batched_s = time.perf_counter() - start

    base_prices_identical = all(
        b.price == s.price for b, s in zip(batched.positions, serial.positions)
    )
    greeks_identical = all(
        getattr(batched, field) == getattr(serial, field) for field in _GREEK_FIELDS
    )

    var_book = build_ladder_book(n_positions, var_paths)
    returns = np.random.default_rng(42).normal(0.0, 0.012, var_scenarios).tolist()

    start = time.perf_counter()
    var_serial = historical_var(var_book, returns, engine="serial")
    var_serial_s = time.perf_counter() - start

    start = time.perf_counter()
    var_batched = historical_var(var_book, returns, engine="batched")
    var_batched_s = time.perf_counter() - start

    var_identical = (
        var_batched["base_value"] == var_serial["base_value"]
        and var_batched["var"] == var_serial["var"]
        and var_batched["expected_shortfall"] == var_serial["expected_shortfall"]
        and var_batched["scenario_values"] == var_serial["scenario_values"]
    )
    return {
        "n_positions": n_positions,
        "ladder_paths": ladder_paths,
        "rng_kind": "sobol",
        "ladder_serial_wall_s": round(ladder_serial_s, 4),
        "ladder_batched_wall_s": round(ladder_batched_s, 4),
        "speedup_ladder": round(ladder_serial_s / ladder_batched_s, 2),
        "base_prices_identical": base_prices_identical,
        "greeks_identical": greeks_identical,
        "portfolio_value": round(batched.total_value, 6),
        "portfolio_delta": round(batched.total_delta, 6),
        "portfolio_theta": round(batched.total_theta, 6),
        "var_scenarios": var_scenarios,
        "var_paths": var_paths,
        "var_cells": n_positions * (var_scenarios + 1),
        "var_serial_wall_s": round(var_serial_s, 4),
        "var_batched_wall_s": round(var_batched_s, 4),
        "speedup_var": round(var_serial_s / var_batched_s, 2),
        "var_identical": var_identical,
        "var_99": round(var_batched["var"], 6),
        "expected_shortfall_99": round(var_batched["expected_shortfall"], 6),
    }


def test_risk_greeks_speedup(benchmark):
    """Full profile: >=5x CRN ladder, >=3x VaR campaign, everything bit-equal."""
    payload = benchmark.pedantic(
        run_risk_benchmark,
        args=(FULL_POSITIONS, FULL_LADDER_PATHS, FULL_VAR_SCENARIOS, FULL_VAR_PATHS),
        rounds=1, iterations=1,
    )
    write_bench_json("risk", payload)

    assert payload["base_prices_identical"], "base prices must match bit-for-bit"
    assert payload["greeks_identical"], "assembled Greeks must match the oracle"
    assert payload["var_identical"], "every VaR scenario value must match"
    assert payload["speedup_ladder"] >= MIN_LADDER_SPEEDUP
    assert payload["speedup_var"] >= MIN_VAR_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (CI smoke: tiny sizes, relaxed speedup floors)."""
    smoke = "--smoke" in (argv if argv is not None else sys.argv[1:])
    sizes = (
        (SMOKE_POSITIONS, SMOKE_LADDER_PATHS, SMOKE_VAR_SCENARIOS, SMOKE_VAR_PATHS)
        if smoke
        else (FULL_POSITIONS, FULL_LADDER_PATHS, FULL_VAR_SCENARIOS, FULL_VAR_PATHS)
    )
    payload = run_risk_benchmark(*sizes)
    name = "risk_smoke" if smoke else "risk"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    for key, value in payload.items():
        print(f"  {key} = {value}")
    for flag, message in (
        ("base_prices_identical", "base prices differ between engines"),
        ("greeks_identical", "assembled Greeks differ from the serial oracle"),
        ("var_identical", "VaR scenario values differ between engines"),
    ):
        if not payload[flag]:
            print(f"FAIL: {message}", file=sys.stderr)
            return 1
    ladder_floor = 1.2 if smoke else MIN_LADDER_SPEEDUP
    if payload["speedup_ladder"] < ladder_floor:
        print(f"FAIL: ladder speedup {payload['speedup_ladder']} < {ladder_floor}",
              file=sys.stderr)
        return 1
    var_floor = 1.0 if smoke else MIN_VAR_SPEEDUP
    if payload["speedup_var"] < var_floor:
        print(f"FAIL: VaR speedup {payload['speedup_var']} < {var_floor}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
