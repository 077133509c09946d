"""Command-line interface of the benchmark.

``repro-bench`` exposes the main workflows without writing Python; every
subcommand is a thin veneer over the unified
:class:`~repro.api.session.ValuationSession` facade:

* ``repro-bench list`` -- registered models, options, methods, backends
  and schedulers;
* ``repro-bench price`` -- price one option from the command line;
* ``repro-bench table1|table2|table3`` -- regenerate the paper's tables on
  the simulated cluster;
* ``repro-bench run`` -- actually value a (scaled-down) portfolio, either on
  local multiprocessing workers or on remote TCP workers
  (``--backend remote --hosts host:port ...``; see the ``repro-worker``
  console script in :mod:`repro.cluster.worker`);
* ``repro-bench risk`` -- portfolio Greeks and a historical-VaR campaign on
  the CRN scenario-grid engine (:mod:`repro.pricing.scenarios`);
  ``--smoke`` cross-checks the batched grid against the serial
  bump-and-revalue oracle and fails loudly on any bit difference;
* ``repro-bench sweep`` -- simulate one portfolio over a list of CPU counts
  and print the speedup table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]

_PORTFOLIO_CHOICES = ("toy", "realistic", "regression")


def _add_portfolio_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--portfolio", choices=_PORTFOLIO_CHOICES, default="toy")
    cmd.add_argument("--positions", type=int, default=64, help="number of positions")


def _add_scheduler_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--scheduler",
        default=None,
        help="registered scheduler name (see repro.core.scheduler.SCHEDULERS; "
        "default robin_hood)",
    )
    cmd.add_argument(
        "--scheduler-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="scheduler constructor option, repeatable (e.g. "
        "--scheduler chunked_robin_hood --scheduler-opt chunk_size=25); "
        "values parse as int/float/bool when they look like one",
    )


def _parse_opt_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _scheduler_factory(args: argparse.Namespace):
    """Build a validated scheduler factory from --scheduler/--scheduler-opt.

    Validation rides on :class:`~repro.api.config.RunConfig` (the same path
    programmatic configuration uses): unknown names fail there, bad option
    values fail on the eager trial construction below.  Returns ``None``
    when no scheduler flags were given.
    """
    from repro.api import RunConfig

    options: dict = {}
    for pair in args.scheduler_opt or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--scheduler-opt {pair!r} is not KEY=VALUE")
        options[key] = _parse_opt_value(value)
    if options and not args.scheduler:
        raise ValueError("--scheduler-opt needs --scheduler")
    if not args.scheduler:
        return None
    config = RunConfig(scheduler=args.scheduler, scheduler_options=options)
    factory = config.scheduler_factory()
    factory()  # fail on bad options here, with the constructor's message
    return factory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Risk-management benchmark for parallel architectures "
        "(Premia/Nsp/MPI reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list registered models, options, methods, backends and schedulers",
    )

    price = sub.add_parser("price", help="price a single option")
    price.add_argument("--model", default="BlackScholes1D")
    price.add_argument("--option", default="CallEuro")
    price.add_argument("--method", default="CF_Call")
    price.add_argument("--spot", type=float, default=100.0)
    price.add_argument("--strike", type=float, default=100.0)
    price.add_argument("--maturity", type=float, default=1.0)
    price.add_argument("--rate", type=float, default=0.05)
    price.add_argument("--volatility", type=float, default=0.2)

    for table, help_text in (
        ("table1", "regenerate Table I (non-regression tests speedup)"),
        ("table2", "regenerate Table II (toy portfolio, strategy comparison)"),
        ("table3", "regenerate Table III (realistic portfolio, strategy comparison)"),
    ):
        cmd = sub.add_parser(table, help=help_text)
        cmd.add_argument(
            "--cpus",
            type=int,
            nargs="+",
            default=None,
            help="CPU counts to simulate (default: the paper's counts)",
        )
        cmd.add_argument("--strategy", default=None, help="restrict to one strategy")
        cmd.add_argument(
            "--batch",
            action="store_true",
            help="regenerate the table with shared-simulation batching "
            "(coalesced families cost one path simulation plus per-member "
            "payoff sweeps in the simulated cluster)",
        )
        _add_scheduler_args(cmd)

    run = sub.add_parser("run", help="value a scaled-down portfolio for real")
    _add_portfolio_args(run)
    run.add_argument("--workers", type=int, default=2, help="worker processes")
    run.add_argument("--strategy", default="serialized_load")
    run.add_argument(
        "--backend",
        default="multiprocessing",
        help="registered execution backend name (see `repro-bench list`); "
        "'remote' talks to repro-worker TCP servers",
    )
    run.add_argument(
        "--hosts",
        nargs="+",
        default=None,
        metavar="HOST:PORT",
        help="remote worker addresses for --backend remote (default: spawn "
        "--workers loopback workers on 127.0.0.1)",
    )
    run.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="group same-simulation positions and price them against shared "
        "path sets (--no-batch prices every position independently)",
    )
    run.add_argument(
        "--cache",
        action="store_true",
        help="enable the digest-keyed result cache for this run",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="back the result cache with an on-disk store shared by the "
        "workers (implies --cache)",
    )
    run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="value the portfolio N times (with --cache the repeats are "
        "answered from the cache; useful to measure hit rates)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="stream per-position completion as results land (count + "
        "running mean std-error), built on session.stream",
    )
    _add_scheduler_args(run)

    risk = sub.add_parser(
        "risk",
        help="portfolio Greeks and a historical-VaR campaign on the CRN "
        "scenario-grid engine",
    )
    risk.add_argument(
        "--positions", type=int, default=8, help="Monte-Carlo call ladder size"
    )
    risk.add_argument(
        "--paths", type=int, default=16_000, help="Monte-Carlo paths per simulation"
    )
    risk.add_argument(
        "--var-scenarios",
        type=int,
        default=100,
        help="historical spot-return scenarios in the VaR campaign",
    )
    risk.add_argument("--confidence", type=float, default=0.99)
    risk.add_argument(
        "--seed", type=int, default=0, help="seed for the synthetic return history"
    )
    risk.add_argument(
        "--smoke",
        action="store_true",
        help="differential check: also run the serial bump-and-revalue oracle "
        "and verify the batched engine matches it bit-for-bit (exit 1 on "
        "mismatch)",
    )

    sweep = sub.add_parser(
        "sweep", help="simulate one portfolio over a list of CPU counts"
    )
    _add_portfolio_args(sweep)
    sweep.add_argument(
        "--cpus",
        type=int,
        nargs="+",
        default=[2, 4, 8, 16],
        help="CPU counts to simulate",
    )
    sweep.add_argument("--strategy", default="serialized_load")
    _add_scheduler_args(sweep)
    sweep.add_argument(
        "--cold-nfs-cache",
        action="store_true",
        help="give every CPU count an independent cold NFS cache",
    )
    sweep.add_argument(
        "--batch",
        action="store_true",
        help="coalesce shared-simulation families before sweeping",
    )
    return parser


def _build_cli_portfolio(args: argparse.Namespace):
    from repro.core import PORTFOLIO_BUILDERS

    if args.portfolio == "toy":
        return PORTFOLIO_BUILDERS["toy"](n_options=args.positions)
    if args.portfolio == "realistic":
        return PORTFOLIO_BUILDERS["realistic"](
            profile="fast", scale=max(args.positions / 7931.0, 1e-3)
        )
    return PORTFOLIO_BUILDERS["regression"](profile="fast")


def _cmd_list() -> int:
    from repro.cluster.backends import list_backends
    from repro.core.scheduler import SCHEDULERS
    from repro.pricing import list_methods, list_models, list_products

    print("Models:")
    for name in list_models():
        print(f"  {name}")
    print("Options:")
    for name in list_products():
        print(f"  {name}")
    print("Methods (including aliases):")
    for name in list_methods():
        print(f"  {name}")
    print("Backends:")
    for name in list_backends():
        print(f"  {name}")
    print("Schedulers:")
    for name in sorted(SCHEDULERS):
        print(f"  {name}")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    from repro.api import ValuationSession

    session = ValuationSession(backend="local")
    result = session.price(
        model=args.model,
        option=args.option,
        method=args.method,
        model_params={"spot": args.spot, "rate": args.rate, "volatility": args.volatility},
        option_params={"strike": args.strike, "maturity": args.maturity},
    )
    print(f"price  = {result.price:.6f}")
    if result.delta is not None:
        print(f"delta  = {result.delta:.6f}")
    if result.std_error is not None:
        print(f"stderr = {result.std_error:.6f}")
    return 0


def _resolve_scheduler(args: argparse.Namespace):
    """``(factory, error)``: the validated scheduler factory or a message."""
    from repro.errors import ReproError

    try:
        return _scheduler_factory(args), None
    except (ValueError, TypeError, ReproError) as exc:
        return None, str(exc)


def _cmd_table(table: str, args: argparse.Namespace) -> int:
    from repro.api import ValuationSession
    from repro.cluster import paper_cost_model
    from repro.core import (
        build_realistic_portfolio,
        build_regression_portfolio,
        build_toy_portfolio,
    )

    scheduler, error = _resolve_scheduler(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = ValuationSession(
        backend="simulated", cost_model=paper_cost_model(), scheduler=scheduler
    )
    if table == "table1":
        cpus = args.cpus or [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256]
        portfolio = build_regression_portfolio(profile="paper")
        result = session.sweep(
            portfolio, cpus, strategy=args.strategy or "serialized_load",
            batch=args.batch,
        )
        print(result.format())
        return 0

    if table == "table2":
        cpus = args.cpus or [2, 4, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 45, 50]
        portfolio = build_toy_portfolio(n_options=10_000)
    else:
        cpus = args.cpus or [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 512]
        portfolio = build_realistic_portfolio(profile="paper")
    strategies = [args.strategy] if args.strategy else ["full_load", "nfs", "serialized_load"]
    comparison = session.compare(portfolio, cpus, strategies=strategies, batch=args.batch)
    if args.batch:
        print(f"({table} regenerated with shared-simulation batching)")
    print(comparison.format())
    return 0


def _run_with_progress(session, portfolio, batch: bool):
    """Stream a portfolio run, rendering per-position completion lines.

    Results land in completion order (the paper's master collecting from any
    source); each tick shows the collected count and the running mean
    standard error over the Monte-Carlo positions seen so far.
    """
    streamed = session.stream(portfolio, batch=batch)
    total = streamed.n_total
    count = 0
    se_sum = 0.0
    se_count = 0
    for price in streamed:
        count += 1
        if price.std_error is not None:
            se_sum += price.std_error
            se_count += 1
        mean_se = f"{se_sum / se_count:.6f}" if se_count else "-"
        label = price.label or f"job {price.job_id}"
        print(
            f"\r  [{count}/{total}] {label:<28.28s} price={price.price:>10.4f} "
            f"mean stderr={mean_se}",
            end="",
            flush=True,
        )
    print()
    return streamed.result()


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.api import ValuationSession
    from repro.cluster.backends import list_backends

    if args.backend not in list_backends():
        # validated against the live registry, not a hard-coded list, so
        # backends registered by plugins/sitecustomize work from the CLI too
        print(
            f"error: unknown backend {args.backend!r}; registered backends: "
            f"{', '.join(list_backends())}",
            file=sys.stderr,
        )
        return 2
    if args.hosts and args.backend != "remote":
        print("error: --hosts only applies to --backend remote", file=sys.stderr)
        return 2
    scheduler, error = _resolve_scheduler(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    portfolio = _build_cli_portfolio(args)
    cache: object = args.cache_dir if args.cache_dir else bool(args.cache)
    with ExitStack() as stack:
        backend_options = None
        if args.backend == "remote":
            hosts = args.hosts
            if not hosts:
                # no external workers given: spawn a loopback pool so the
                # remote path is exercisable from a single machine
                from repro.cluster.worker import spawn_local_workers

                pool = stack.enter_context(
                    spawn_local_workers(args.workers, cache_dir=args.cache_dir)
                )
                print(f"spawned {len(pool)} loopback workers: {', '.join(pool)}")
                hosts = pool.hosts
            backend_options = {"hosts": hosts}
        session = ValuationSession(
            backend=args.backend,
            strategy=args.strategy,
            n_workers=args.workers,
            scheduler=scheduler,
            cache=cache,
            backend_options=backend_options,
        )
        repeats = max(1, args.repeat)
        for iteration in range(repeats):
            if args.progress:
                result = _run_with_progress(session, portfolio, batch=args.batch)
            else:
                result = session.run(portfolio, batch=args.batch)
            report = result.report
            prefix = f"[{iteration + 1}/{repeats}] " if repeats > 1 else ""
            print(
                f"{prefix}valued {report.n_jobs} positions on {report.n_workers} workers "
                f"in {report.total_time:.2f}s ({len(report.errors)} errors, "
                f"batch={'on' if args.batch else 'off'})"
            )
    print(f"portfolio value = {result.value():.2f}")
    if session.cache is not None:
        stats = session.cache.stats
        print(
            f"cache: {stats.hits} hits / {stats.lookups} lookups "
            f"(hit rate {stats.hit_rate:.0%}, {stats.evictions} evictions)"
        )
    return 0


def _build_risk_portfolio(n_positions: int, n_paths: int):
    """A single-model Monte-Carlo call ladder: the CRN engine's best case.

    Every position shares one Black-Scholes model and one seeded method
    configuration, so the whole bumped scenario grid collapses into a
    handful of shared-draw stacked simulations.
    """
    from repro.core import Portfolio, Position
    from repro.pricing import PricingProblem

    portfolio = Portfolio(name="risk_ladder")
    for index in range(n_positions):
        strike = 80.0 + 40.0 * index / max(n_positions - 1, 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method("MC_European", n_paths=n_paths, seed=0)
        portfolio.add(
            Position(problem=problem, category="vanilla_mc", label=problem.label)
        )
    return portfolio


def _cmd_risk(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.core.risk import historical_var, portfolio_greeks

    portfolio = _build_risk_portfolio(args.positions, args.paths)
    returns = np.random.default_rng(args.seed).normal(0.0, 0.01, args.var_scenarios)

    start = time.perf_counter()
    batched = portfolio_greeks(portfolio, engine="batched")
    greeks_elapsed = time.perf_counter() - start
    print(f"portfolio Greeks (batched CRN engine, {args.positions} positions):")
    print(
        f"  value = {batched.total_value:.4f}  delta = {batched.total_delta:.4f}  "
        f"gamma = {batched.total_gamma:.6f}"
    )
    print(
        f"  vega  = {batched.total_vega:.4f}  rho   = {batched.total_rho:.4f}  "
        f"theta = {batched.total_theta:.4f}"
    )
    print(f"  elapsed {greeks_elapsed:.3f}s")

    start = time.perf_counter()
    var = historical_var(
        portfolio, returns.tolist(), confidence=args.confidence,
        engine="batched",
    )
    var_elapsed = time.perf_counter() - start
    print(
        f"historical VaR ({args.var_scenarios} scenarios, "
        f"{args.confidence:.0%} confidence):"
    )
    print(
        f"  base value = {var['base_value']:.4f}  VaR = {var['var']:.4f}  "
        f"ES = {var['expected_shortfall']:.4f}  worst = {var['worst_loss']:.4f}"
    )
    print(f"  elapsed {var_elapsed:.3f}s")

    if not args.smoke:
        return 0

    # differential smoke: the serial bump-and-revalue oracle must agree
    # bit-for-bit (the CRN grid replays the very same seeded draws)
    start = time.perf_counter()
    serial = portfolio_greeks(portfolio, engine="serial")
    serial_var = historical_var(
        portfolio, returns.tolist(), confidence=args.confidence, engine="serial"
    )
    serial_elapsed = time.perf_counter() - start
    failures = []
    for field in ("total_value", "total_delta", "total_gamma", "total_vega",
                  "total_rho", "total_theta"):
        got, want = getattr(batched, field), getattr(serial, field)
        if got != want:
            failures.append(f"{field}: batched {got!r} != serial {want!r}")
    for pair in zip(batched.positions, serial.positions):
        if pair[0].price != pair[1].price:
            failures.append(
                f"position {pair[0].label!r}: base price {pair[0].price!r} "
                f"!= {pair[1].price!r}"
            )
    for key in ("base_value", "var", "expected_shortfall", "worst_loss"):
        if var[key] != serial_var[key]:
            failures.append(f"VaR {key}: batched {var[key]!r} != serial {serial_var[key]!r}")
    print(
        f"smoke: serial oracle elapsed {serial_elapsed:.3f}s "
        f"(speedup {serial_elapsed / max(greeks_elapsed + var_elapsed, 1e-9):.1f}x)"
    )
    if failures:
        for line in failures:
            print(f"  MISMATCH {line}", file=sys.stderr)
        print("smoke: FAIL", file=sys.stderr)
        return 1
    print("smoke: PASS (batched CRN risk == serial bump-and-revalue)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import ValuationSession

    scheduler, error = _resolve_scheduler(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    portfolio = _build_cli_portfolio(args)
    session = ValuationSession(
        backend="simulated", strategy=args.strategy, scheduler=scheduler
    )
    result = session.sweep(
        portfolio,
        args.cpus,
        share_nfs_cache=not args.cold_nfs_cache,
        label=f"{args.portfolio}/{args.strategy}",
    )
    print(result.format())
    best = result.best_cpu_count()
    print(f"fastest configuration: {best} CPUs ({result.times()[best]:.3f}s simulated)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-bench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "price":
        return _cmd_price(args)
    if args.command in ("table1", "table2", "table3"):
        return _cmd_table(args.command, args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "risk":
        return _cmd_risk(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
