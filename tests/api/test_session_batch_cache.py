"""Session-level tests of batch pricing and result caching."""

from __future__ import annotations

import pytest

from repro.api import ResultCache, RunConfig, ValuationSession
from repro.cli import build_parser
from repro.core import build_realistic_portfolio
from repro.core.portfolio import Portfolio, Position
from repro.errors import ValuationError
from repro.pricing import PricingProblem, ProblemBatch, simulation_signature


def _mc_family(n: int = 6, n_paths: int = 1_500) -> Portfolio:
    portfolio = Portfolio(name="family")
    for index in range(n):
        problem = PricingProblem(label=f"fam_{index}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        problem.set_option("CallEuro", strike=90.0 + 4.0 * index, maturity=1.0)
        problem.set_method("MC_European", n_paths=n_paths, seed=4)
        portfolio.add(Position(problem=problem, category="mc", label=problem.label))
    return portfolio


def _vol_families(n_families: int = 4, n_strikes: int = 3) -> Portfolio:
    """Volatility families of one seeded call ladder: one draw cohort."""
    portfolio = Portfolio(name="vol_families")
    for family in range(n_families):
        for j in range(n_strikes):
            problem = PricingProblem(label=f"v{family}_K{j}")
            problem.set_asset("equity")
            problem.set_model("BlackScholes1D", spot=100.0, rate=0.05,
                              volatility=0.15 + 0.05 * family)
            problem.set_option("CallEuro", strike=90.0 + 10.0 * j, maturity=1.0)
            problem.set_method("MC_European", n_paths=1_500, seed=4)
            portfolio.add(Position(problem=problem, category="mc", label=problem.label))
    return portfolio


@pytest.fixture
def mixed_portfolio() -> Portfolio:
    return build_realistic_portfolio(profile="fast", scale=0.005)


class TestBatchRuns:
    def test_batched_run_matches_unbatched(self, mixed_portfolio):
        plain = ValuationSession(backend="local").run(mixed_portfolio)
        batched = ValuationSession(backend="local").run(mixed_portfolio, batch=True)
        assert plain.ok and batched.ok
        assert batched.n_jobs == plain.n_jobs == len(mixed_portfolio)
        assert batched.prices() == plain.prices()
        assert batched.value() == plain.value()

    def test_batch_group_size_split_is_price_neutral(self):
        family = _mc_family(7)
        plain = ValuationSession(backend="local").run(family)
        split = ValuationSession(backend="local").run(
            family, batch=True, batch_group_size=3
        )
        assert split.prices() == plain.prices()
        assert split.n_jobs == len(family)

    def test_run_config_routes_batch_options(self):
        family = _mc_family(4)
        config = RunConfig(batch=True, batch_group_size=2)
        result = ValuationSession(backend="local").run(family, config=config)
        plain = ValuationSession(backend="local").run(family)
        assert result.prices() == plain.prices()

    def test_simulated_backend_is_batch_aware(self):
        # the simulated cluster prices a ProblemBatch job as one shared
        # simulation plus per-member payoff sweeps, so batching shortens the
        # simulated makespan without changing the position count
        family = _mc_family(8)
        plain = ValuationSession(backend="simulated", n_workers=2).run(family)
        batched = ValuationSession(backend="simulated", n_workers=2).run(
            family, batch=True
        )
        assert batched.n_jobs == plain.n_jobs == len(family)
        assert batched.total_time < plain.total_time

    def test_simulated_sweep_with_batching_is_faster(self):
        family = _mc_family(12)
        session = ValuationSession(backend="simulated")
        plain = session.sweep(family, [2, 4])
        batched = session.sweep(family, [2, 4], batch=True, batch_group_size=3)
        assert all(
            batched.times()[n] < plain.times()[n] for n in (2, 4)
        )

    def test_batch_rejects_nfs_strategy(self, mixed_portfolio):
        session = ValuationSession(backend="local", strategy="nfs")
        with pytest.raises(ValuationError, match="nfs"):
            session.run(mixed_portfolio, batch=True)

    def test_bad_batch_group_size_rejected(self):
        with pytest.raises(ValuationError):
            RunConfig(batch=True, batch_group_size=1)

    def test_batched_run_isolates_member_errors(self):
        import numpy as np

        from repro.pricing.engine import register_product
        from repro.pricing.products.vanilla import EuropeanCall

        class ExplodingSessionCall(EuropeanCall):
            option_name = "ExplodingSessionCallTest"

            def terminal_payoff(self, spot):
                return np.full(np.shape(spot)[0], np.inf)

        register_product(ExplodingSessionCall)
        family = _mc_family(4)
        bad = PricingProblem(label="bad")
        bad.set_asset("equity")
        bad.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        bad.set_option(ExplodingSessionCall(strike=100.0, maturity=1.0))
        bad.set_method("MC_European", n_paths=1_500, seed=4)
        family.add(Position(problem=bad, category="mc", label="bad"))

        result = ValuationSession(backend="local").run(family, batch=True)
        plain = ValuationSession(backend="local").run(family.subset(4))
        assert result.n_errors == 1
        bad_id = len(family) - 1
        assert bad_id in result.errors
        assert result.prices() == plain.prices()  # healthy members unharmed

    def test_batched_multiprocessing_matches_local(self):
        family = _mc_family(5, n_paths=800)
        local = ValuationSession(backend="local").run(family, batch=True)
        remote = ValuationSession(backend="multiprocessing", n_workers=2).run(
            family, batch=True, batch_group_size=3
        )
        assert remote.ok
        assert remote.prices() == local.prices()


class TestSessionCache:
    def test_second_run_is_all_hits(self):
        family = _mc_family(4)
        session = ValuationSession(backend="local", cache=True)
        first = session.run(family)
        second = session.run(family)
        assert second.prices() == first.prices()
        assert second.n_jobs == len(family)
        assert session.cache.stats.hits == len(family)
        hits = [
            entry for entry in second.report.results.values()
            if entry is not None and entry.get("cache_hit")
        ]
        assert len(hits) == len(family)
        assert second.report.scheduler == "cache"

    def test_cache_and_batch_compose(self):
        family = _mc_family(4)
        session = ValuationSession(backend="local", cache=True)
        first = session.run(family, batch=True)
        second = session.run(family, batch=True)
        assert second.prices() == first.prices()
        assert session.cache.stats.hit_rate == pytest.approx(0.5)

    def test_price_uses_the_cache(self):
        session = ValuationSession(backend="local", cache=True)
        kwargs = dict(
            model="BlackScholes1D", option="CallEuro", method="MC_European",
            model_params={"spot": 100.0, "rate": 0.05, "volatility": 0.2},
            option_params={"strike": 100.0, "maturity": 1.0},
            method_params={"n_paths": 1_000, "seed": 1},
        )
        first = session.price(**kwargs)
        second = session.price(**kwargs)
        assert second.price == first.price
        assert session.cache.stats.hits == 1
        assert session.cache.stats.puts == 1

    def test_run_config_cache_flag(self):
        family = _mc_family(3)
        session = ValuationSession(backend="local", cache=True)
        session.run(family)
        bypassed = session.run(family, config=RunConfig(cache=False))
        assert session.cache.stats.hits == 0  # second run bypassed the cache
        assert bypassed.ok

        with pytest.raises(ValuationError, match="no result cache"):
            ValuationSession(backend="local").run(family, config=RunConfig(cache=True))

    def test_run_cache_false_bypasses_the_worker_disk_cache(self, tmp_path):
        family = _mc_family(3)
        session = ValuationSession(backend="local", cache=tmp_path)
        session.run(family)  # populates the shared on-disk store
        bypassed = session.run(family, cache=False)
        assert bypassed.ok
        # neither the master pass nor the worker-side cache may answer hits
        assert not any(
            entry.get("cache_hit")
            for entry in bypassed.report.results.values()
            if entry is not None
        )

    def test_disk_cache_shared_across_sessions(self, tmp_path):
        family = _mc_family(3)
        first = ValuationSession(backend="local", cache=tmp_path)
        warm = first.run(family)
        second = ValuationSession(backend="local", cache=tmp_path)
        replay = second.run(family)
        assert replay.prices() == warm.prices()
        assert second.cache.stats.disk_hits == len(family)

    def test_with_options_carries_the_cache(self):
        session = ValuationSession(backend="local", cache=True)
        derived = session.with_options(strategy="full_load")
        assert derived.cache is session.cache

    def test_invalid_cache_option_rejected(self):
        with pytest.raises(ValuationError):
            ValuationSession(backend="local", cache=123)

    def test_cache_accepts_instance(self):
        cache = ResultCache(max_entries=8)
        session = ValuationSession(backend="local", cache=cache)
        assert session.cache is cache


class TestCliFlags:
    def test_run_parser_accepts_batch_and_cache(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--positions", "8", "--batch", "--cache", "--repeat", "2"]
        )
        assert args.batch is True
        assert args.cache is True
        assert args.repeat == 2

        args = parser.parse_args(["run", "--no-batch", "--cache-dir", "/tmp/c"])
        assert args.batch is False
        assert args.cache_dir == "/tmp/c"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.batch is False
        assert args.cache is False
        assert args.cache_dir is None


class TestSweepShape:
    """Batched sweeps ship one ProblemBatch per signature group.

    The four volatility families share one draw cohort, so cohort packing
    would merge them into a single job; the sweep keeps the per-group
    unit its cost model prices, without any ``batch_group_size`` cap.
    """

    def test_one_batch_job_per_signature_group(self):
        jobs = ValuationSession(backend="simulated")._sweep_jobs(
            _vol_families(), batch=True)
        assert [type(job.problem) for job in jobs] == [ProblemBatch] * 4
        for job in jobs:
            assert len(job.problem) == 3
            assert len({simulation_signature(p) for p in job.problem.problems}) == 1

    def test_batched_sweep_and_compare_tables_are_pinned(self):
        session = ValuationSession(backend="simulated")
        sweep = session.sweep(_vol_families(), [2, 4], batch=True)
        assert sweep.times() == {2: 0.00237906064957265, 4: 0.0013152140854700855}
        tables = session.compare(_vol_families(), [2, 4], batch=True).tables
        assert {name: table.times() for name, table in tables.items()} == {
            "full_load": {2: 0.0031588846495726503, 4: 0.002061119555555556},
            "nfs": {2: 0.005599921692307693, 4: 0.001565644606837607},
            "serialized_load": {2: 0.00237906064957265, 4: 0.0013152140854700855},
        }
