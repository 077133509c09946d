"""Benchmark B1 -- shared-path batch pricing, the stacked kernel and the cache.

The portfolio is a risk-management scenario grid priced with common random
numbers: ``N_FAMILIES`` volatility scenarios on one 10-dimensional basket,
each scenario valued at ``N_STRIKES`` strikes with the *same* quasi-random
(Sobol) stream -- the textbook setup for scenario sensitivities, and the
worst case for naive pricing because every position nominally re-draws and
re-inverts the identical 10^5-point Sobol sample.  It is valued five ways:

* **unbatched**: a session run in which every position simulates its own
  path set;
* **batched** (``batch=True``): the session coalesces the grid's one draw
  cohort into at most ``n_workers`` batch jobs, each priced with one
  stacked-kernel call;
* **per-problem / plan**: the same grid in-process, once problem by problem
  (``problem.compute()``) and once through the batch planner
  (``price_problems``), which runs *all* groups as one stacked-array
  computation in which every family consumes one shared draw cohort;
* **cached**: a second batched run against a warm digest-keyed result cache.

Prices must be *bit-identical* across the session runs (``bit_identical``)
and across the plan-level, per-problem and batched-session valuations
(``plan_bit_identical``); the differential suite under
``tests/differential/`` checks the engine against its loop reference.  The
batched run must beat unbatched by ``MIN_BATCH_SPEEDUP``, the plan must beat
per-problem pricing by ``MIN_PLAN_SPEEDUP``, and the cached run must answer
every position from the cache.  Results land in
``benchmarks/results/BENCH_batch_pricing.json``.

Run standalone for the CI smoke check (tiny sizes, 0-ULP identity check)::

    PYTHONPATH=src python benchmarks/bench_batch_pricing.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.conftest import write_bench_json  # noqa: E402
from repro.api import ValuationSession  # noqa: E402
from repro.core.portfolio import Portfolio, Position  # noqa: E402
from repro.pricing import (  # noqa: E402
    PricingProblem,
    flat_correlation,
    plan_batches,
    price_problems,
)

#: full-profile grid (the acceptance configuration): 30 scenarios x 7 strikes
FULL_FAMILIES = 30
FULL_STRIKES = 7
FULL_PATHS = 100_000
#: smoke-profile sizes for the CI check (seconds, not minutes)
SMOKE_FAMILIES = 10
SMOKE_STRIKES = 3
SMOKE_PATHS = 4_096

DIMENSION = 10
MIN_BATCH_SPEEDUP = 5.0
MIN_PLAN_SPEEDUP = 5.0


def build_scenario_grid(n_families: int, n_strikes: int, n_paths: int) -> Portfolio:
    """``n_families`` vol scenarios x ``n_strikes`` basket puts, one Sobol seed.

    Every position uses the same quasi-random stream (common random numbers,
    seed 7), so each scenario family forms one shared-simulation group and
    all groups form a single draw cohort for the stacked kernel.
    """
    corr = flat_correlation(DIMENSION, 0.3).tolist()
    weights = [1.0 / DIMENSION] * DIMENSION
    portfolio = Portfolio(name="scenario_grid")
    for fam in range(n_families):
        vols = [0.12 + 0.004 * fam + 0.01 * (i % 10) for i in range(DIMENSION)]
        for j in range(n_strikes):
            strike = 80.0 + 40.0 * j / max(n_strikes - 1, 1)
            problem = PricingProblem(label=f"scen{fam:02d}_K{strike:.2f}")
            problem.set_asset("equity")
            problem.set_model(
                "BlackScholesND",
                spot=[100.0] * DIMENSION,
                rate=0.045,
                volatilities=vols,
                correlation=corr,
                dividends=0.0,
            )
            problem.set_option("BasketPutEuro", strike=strike, maturity=1.0,
                               weights=weights)
            problem.set_method(
                "MC_European", n_paths=n_paths, n_steps=1, antithetic=False,
                control_variate=False, seed=7, rng_kind="sobol",
            )
            portfolio.add(Position(problem=problem, category="scenario_mc",
                                   label=problem.label))
    return portfolio


def run_batch_benchmark(n_families: int, n_strikes: int, n_paths: int) -> dict:
    """Time unbatched vs batched vs per-problem vs plan vs cached on one grid."""
    portfolio = build_scenario_grid(n_families, n_strikes, n_paths)
    n_positions = n_families * n_strikes
    plan = plan_batches([position.problem for position in portfolio])

    start = time.perf_counter()
    unbatched = ValuationSession(backend="local").run(portfolio)
    unbatched_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = ValuationSession(backend="local").run(portfolio, batch=True)
    batched_s = time.perf_counter() - start

    # in-process: fresh problems per run so no result is reused; the plan
    # prices the whole grid with one stacked call, per-problem pricing
    # simulates every position alone
    solo_grid = build_scenario_grid(n_families, n_strikes, n_paths)
    start = time.perf_counter()
    solo_results = [position.problem.compute() for position in solo_grid]
    per_problem_s = time.perf_counter() - start

    plan_grid = build_scenario_grid(n_families, n_strikes, n_paths)
    start = time.perf_counter()
    plan_results = price_problems([p.problem for p in plan_grid])
    plan_s = time.perf_counter() - start

    cached_session = ValuationSession(backend="local", cache=True)
    cached_session.run(portfolio, batch=True)  # warm the cache
    start = time.perf_counter()
    cached = cached_session.run(portfolio, batch=True)
    cached_s = time.perf_counter() - start
    warm_lookups = n_positions  # the second run's lookups
    warm_hits = sum(
        1 for entry in cached.report.results.values()
        if entry is not None and entry.get("cache_hit")
    )

    prices = unbatched.prices()
    batched_prices = batched.prices()
    plan_bit_identical = (
        [r.price for r in plan_results]
        == [r.price for r in solo_results]
        == [batched_prices[job_id] for job_id in sorted(batched_prices)]
    )
    return {
        "n_positions": n_positions,
        "n_families": n_families,
        "n_paths": n_paths,
        "dimension": DIMENSION,
        "rng_kind": "sobol",
        "n_groups": len(plan.groups),
        "n_simulations_saved": plan.n_simulations_saved,
        "unbatched_wall_s": round(unbatched_s, 4),
        "batched_wall_s": round(batched_s, 4),
        "per_problem_wall_s": round(per_problem_s, 4),
        "plan_wall_s": round(plan_s, 4),
        "cached_wall_s": round(cached_s, 4),
        "speedup_batched": round(unbatched_s / batched_s, 2),
        "speedup_plan": round(per_problem_s / plan_s, 2),
        "speedup_cached": round(unbatched_s / cached_s, 2),
        "bit_identical": prices == batched_prices == cached.prices(),
        "plan_bit_identical": plan_bit_identical,
        "cache_hit_rate_warm": warm_hits / warm_lookups,
        "portfolio_value": round(sum(prices.values()), 6),
    }


def test_batch_pricing_speedup(benchmark):
    """Full grid: >=5x batched and >=5x plan-over-per-problem, bit-equal."""
    payload = benchmark.pedantic(
        run_batch_benchmark, args=(FULL_FAMILIES, FULL_STRIKES, FULL_PATHS),
        rounds=1, iterations=1,
    )
    write_bench_json("batch_pricing", payload)

    assert payload["bit_identical"], "batched prices must match unbatched bit-for-bit"
    assert payload["plan_bit_identical"], "plan, per-problem and batched prices must match"
    assert payload["n_groups"] == FULL_FAMILIES, "one group per scenario family"
    assert payload["n_simulations_saved"] == FULL_FAMILIES * (FULL_STRIKES - 1)
    assert payload["speedup_batched"] >= MIN_BATCH_SPEEDUP
    assert payload["speedup_plan"] >= MIN_PLAN_SPEEDUP
    assert payload["cache_hit_rate_warm"] == 1.0
    assert payload["speedup_cached"] >= payload["speedup_batched"]


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (CI smoke: tiny sizes, relaxed speedup bounds)."""
    smoke = "--smoke" in (argv if argv is not None else sys.argv[1:])
    n_families = SMOKE_FAMILIES if smoke else FULL_FAMILIES
    n_strikes = SMOKE_STRIKES if smoke else FULL_STRIKES
    n_paths = SMOKE_PATHS if smoke else FULL_PATHS
    payload = run_batch_benchmark(n_families, n_strikes, n_paths)
    name = "batch_pricing_smoke" if smoke else "batch_pricing"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    for key, value in payload.items():
        print(f"  {key} = {value}")
    if not payload["bit_identical"]:
        print("FAIL: batched prices differ from unbatched prices", file=sys.stderr)
        return 1
    if not payload["plan_bit_identical"]:
        print("FAIL: plan-level, per-problem and batched prices differ (ULP != 0)",
              file=sys.stderr)
        return 1
    if payload["cache_hit_rate_warm"] != 1.0:
        print("FAIL: warm cache run did not hit on every position", file=sys.stderr)
        return 1
    batch_floor = 1.2 if smoke else MIN_BATCH_SPEEDUP
    if payload["speedup_batched"] < batch_floor:
        print(f"FAIL: batched speedup {payload['speedup_batched']} < {batch_floor}",
              file=sys.stderr)
        return 1
    plan_floor = 1.0 if smoke else MIN_PLAN_SPEEDUP
    if payload["speedup_plan"] < plan_floor:
        print(f"FAIL: plan speedup {payload['speedup_plan']} < {plan_floor}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
