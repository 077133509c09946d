"""Monte-Carlo pricing of European (possibly path-dependent) products.

This pricer covers the Monte-Carlo slices of the realistic portfolio:

* 525 put options on a 40-dimensional basket ("We usually use 10^6 samples
  for the Monte-Carlo simulations");
* 1025 call options in a local volatility model;

and additionally prices barrier and Asian options by path simulation, and any
European product under the Heston and Merton models (used in the
non-regression workload).

Variance reduction: antithetic variates (model-agnostic, through
:class:`~repro.pricing.rng.AntitheticGenerator`) and a martingale control
variate (the discounted terminal underlying / basket value, whose expectation
is known in every risk-neutral model of the library).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import IncompatibleMethodError, PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import Model, MultiAssetModel
from repro.pricing.models.black_scholes import BlackScholesModel
from repro.pricing.products.barrier import BarrierOption
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.products.basket import BasketOption

__all__ = ["MonteCarloEuropean", "price_groups_stacked"]


def _stamp_and_validate(
    method: "MonteCarloEuropean",
    model: Model,
    products: list[Product],
    results: list[PricingResult],
    elapsed: float,
) -> None:
    """Share the wall-clock time across members and reject non-finite prices."""
    share = elapsed / len(results)
    for product, result in zip(products, results):
        result.elapsed = share
        result.method_name = method.method_name
        if not np.isfinite(result.price):
            raise IncompatibleMethodError(
                f"method {method.method_name!r} produced a non-finite price for "
                f"{product.option_name!r} under {model.model_name!r}"
            )


def price_groups_stacked(
    groups: Sequence[tuple["MonteCarloEuropean", Model, Sequence[Product]]],
    sample_sinks: dict[int, Any] | None = None,
) -> list[list[PricingResult]]:
    """Price several shared-simulation groups through the stacked kernel.

    The one Monte-Carlo evaluation path: solo pricing, ``price_many`` and
    batch pricing all land here.  All groups go to
    :func:`repro.pricing.kernel.run_groups` together, so groups whose
    methods draw identical random streams share one stacked simulation
    (cross-group draw cohorts).  Results are bit-identical to pricing each
    group on its own; elapsed time is measured here (the kernel module is
    wall-clock-free by contract) and shared across each group's members.
    """
    from repro.pricing.kernel import run_groups

    start = time.perf_counter()
    all_results = run_groups(groups, sample_sinks=sample_sinks)
    elapsed = time.perf_counter() - start
    n_members = sum(len(results) for results in all_results) or 1
    for (method, model, products), results in zip(groups, all_results):
        _stamp_and_validate(method, model, list(products), results, elapsed * len(results) / n_members)
    return all_results


@dataclass
class _MemberState:
    """Per-product accumulators of one shared-path pricing pass."""

    product: Product
    product_adj: Product
    use_cv: bool
    discount: float
    sum_payoff: float = 0.0
    sum_payoff2: float = 0.0
    sum_control: float = 0.0
    sum_control2: float = 0.0
    sum_cross: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

#: Broadie-Glasserman-Kou continuity-correction constant for discretely
#: monitored barriers: ``beta = -zeta(1/2) / sqrt(2 pi)``.
BARRIER_CORRECTION_BETA = 0.5826


class MonteCarloEuropean(PricingMethod):
    """Monte-Carlo pricer for European-exercise products.

    Parameters
    ----------
    n_paths:
        Number of simulated paths (after antithetic doubling).
    n_steps:
        Number of time steps for path-dependent products or models without an
        exact terminal law.  ``None`` lets the pricer choose: 1 step for
        terminal-law products under exactly samplable models, otherwise
        a grid fine enough for the product (e.g. 2-day steps for barriers).
    antithetic:
        Use antithetic variates (default True).
    control_variate:
        Use the discounted terminal underlying as a control variate
        (default True; only applied to non-path-dependent payoffs).
    rng_kind / seed:
        Random number generator family (``"pcg64"`` or ``"sobol"``) and seed.
    barrier_correction:
        Apply the Broadie-Glasserman continuity correction to barrier levels
        so that discretely monitored paths approximate a continuously
        monitored barrier (default True).
    batch_size:
        Paths are simulated in batches of at most this size to bound memory
        (important for the 40-dimensional baskets).
    """

    method_name = "MC_European"

    def __init__(
        self,
        n_paths: int = 100_000,
        n_steps: int | None = None,
        antithetic: bool = True,
        control_variate: bool = True,
        rng_kind: str = "pcg64",
        seed: int = 0,
        barrier_correction: bool = True,
        batch_size: int = 65_536,
    ):
        if n_paths < 2:
            raise PricingError("n_paths must be at least 2")
        if n_steps is not None and n_steps < 1:
            raise PricingError("n_steps must be >= 1 when given")
        if batch_size < 2:
            raise PricingError("batch_size must be at least 2")
        self.n_paths = int(n_paths)
        self.n_steps = None if n_steps is None else int(n_steps)
        self.antithetic = bool(antithetic)
        self.control_variate = bool(control_variate)
        self.rng_kind = str(rng_kind)
        self.seed = int(seed)
        self.barrier_correction = bool(barrier_correction)
        self.batch_size = int(batch_size)

    def to_params(self) -> dict[str, Any]:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "antithetic": self.antithetic,
            "control_variate": self.control_variate,
            "rng_kind": self.rng_kind,
            "seed": self.seed,
            "barrier_correction": self.barrier_correction,
            "batch_size": self.batch_size,
        }

    # -- compatibility ---------------------------------------------------------
    def supports(self, model: Model, product: Product) -> bool:
        if product.exercise != ExerciseStyle.EUROPEAN:
            return False
        if product.dimension > 1:
            return isinstance(model, MultiAssetModel) and model.dimension == product.dimension
        return model.dimension == 1

    # -- helpers -----------------------------------------------------------------
    def _effective_steps(self, model: Model, product: Product) -> int:
        if self.n_steps is not None:
            return self.n_steps
        if isinstance(product, BarrierOption):
            # one monitoring date every 2 (business) days, as in the paper
            return max(2, int(np.ceil(product.maturity * 126)))
        if product.path_dependent:
            n_fixings = getattr(product, "n_fixings", 12)
            return max(1, int(n_fixings))
        return 1

    def _adjusted_product(self, model: Model, product: Product, n_steps: int) -> Product:
        """Apply the barrier continuity correction when appropriate."""
        if (
            not self.barrier_correction
            or not isinstance(product, BarrierOption)
            or not isinstance(model, BlackScholesModel)
            or n_steps < 1
        ):
            return product
        # To emulate a continuously monitored barrier with discretely
        # monitored paths, move the barrier *towards* the spot by
        # exp(beta * sigma * sqrt(dt)) (Broadie-Glasserman-Kou): up for a
        # down barrier, down for an up barrier.
        dt = product.maturity / n_steps
        shift = np.exp(
            (1 if product.is_down else -1)
            * BARRIER_CORRECTION_BETA
            * model.volatility
            * np.sqrt(dt)
        )
        adjusted = BarrierOption(
            strike=product.strike,
            maturity=product.maturity,
            barrier=product.barrier * shift,
            barrier_type=product.barrier_type,
            payoff_type=product.payoff_type,
            rebate=product.rebate,
        )
        return adjusted

    def _control_value(self, model: Model, terminal: np.ndarray, product: Product) -> np.ndarray:
        """Per-path control variate: terminal (basket) value."""
        if isinstance(product, BasketOption) and terminal.ndim == 2:
            return terminal @ product.weights
        if terminal.ndim == 2:
            return terminal.mean(axis=1)
        return terminal

    def _control_expectation(self, model: Model, product: Product) -> float:
        forward = model.forward(product.maturity)
        if isinstance(product, BasketOption) and np.ndim(forward) == 1:
            return float(np.sum(product.weights * forward))
        return float(np.mean(forward))

    # -- pricing -----------------------------------------------------------------
    def _price(self, model: Model, product: Product) -> PricingResult:
        # single-product pricing is the one-member case of the shared-path
        # engine, so batched portfolio pricing is bit-identical by construction
        return self.price_many(model, [product])[0]

    def shares_simulation(self, model: Model, a: Product, b: Product) -> bool:
        """Whether ``a`` and ``b`` can be priced against one shared path set.

        Two products share the simulation when they induce the same effective
        time grid and the same sampling mode (full paths vs exact terminal
        law); the payoffs themselves are free to differ.
        """
        if self._effective_steps(model, a) != self._effective_steps(model, b):
            return False
        if a.maturity != b.maturity:
            return False
        n_steps = self._effective_steps(model, a)
        return (a.path_dependent or n_steps > 1) == (b.path_dependent or n_steps > 1)

    def price_many(
        self,
        model: Model,
        products: Sequence[Product],
        *,
        sample_sink: Any = None,
    ) -> list[PricingResult]:
        """Price several products against **one** shared simulated path set.

        All products must be supported under ``model`` and share the same
        simulation grid (see :meth:`shares_simulation`); the
        :mod:`repro.pricing.batch` planner guarantees this by grouping on the
        simulation signature.  Each returned :class:`PricingResult` is
        bit-identical to what :meth:`price` would return for that product
        alone -- the paths are a deterministic function of (model, rng kind,
        seed, batching), which every member reproduces independently.

        The products form one group of the stacked engine
        (:func:`repro.pricing.kernel.run_groups`).  ``sample_sink``, when
        given, receives ``(member_index, payoff_batch)`` for every simulated
        batch (payoffs pair-averaged when antithetic) -- the differential
        harness uses it to compare per-path samples with its loop reference.
        """
        products = list(products)
        if not products:
            return []
        sinks = None if sample_sink is None else {0: sample_sink}
        return price_groups_stacked([(self, model, products)], sample_sinks=sinks)[0]

    def _finalize_member(
        self,
        model: Model,
        member: _MemberState,
        n_samples: int,
        n_paths_used: int,
        n_steps: int,
    ) -> PricingResult:
        n = n_samples
        mean_payoff = member.sum_payoff / n
        var_payoff = max(member.sum_payoff2 / n - mean_payoff**2, 0.0)

        if member.use_cv:
            mean_control = member.sum_control / n
            var_control = max(member.sum_control2 / n - mean_control**2, 0.0)
            cov = member.sum_cross / n - mean_payoff * mean_control
            expected_control = self._control_expectation(model, member.product)
            if var_control > 1e-14:
                beta = cov / var_control
                adjusted_mean = mean_payoff - beta * (mean_control - expected_control)
                adjusted_var = max(var_payoff - cov**2 / var_control, 0.0)
            else:
                beta = 0.0
                adjusted_mean = mean_payoff
                adjusted_var = var_payoff
        else:
            beta = 0.0
            adjusted_mean = mean_payoff
            adjusted_var = var_payoff

        price = member.discount * adjusted_mean
        std_error = member.discount * np.sqrt(adjusted_var / n)
        half_width = 1.96 * std_error
        return PricingResult(
            price=float(price),
            std_error=float(std_error),
            confidence_interval=(float(price - half_width), float(price + half_width)),
            n_evaluations=n_paths_used * max(n_steps, 1),
            extra={
                "n_paths": n_paths_used,
                "n_paths_requested": self.n_paths,
                "n_steps": n_steps,
                "control_variate_beta": float(beta),
                "antithetic": self.antithetic,
            },
        )
