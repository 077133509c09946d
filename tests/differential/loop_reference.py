"""Loop reference: the per-member Monte-Carlo loop the stacked engine must equal.

This is the original shared-path pricing loop of
:class:`~repro.pricing.methods.montecarlo.MonteCarloEuropean`: one
``simulate_paths`` / ``sample_terminal`` call per batch and one payoff
expression per member, accumulated member by member.  Production code no
longer runs it -- :func:`repro.pricing.kernel.run_groups` is the only
Monte-Carlo engine -- but it stays here, unchanged, as the oracle of the
differential suite: every stacked result must equal it bit for bit.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingResult
from repro.pricing.methods.montecarlo import MonteCarloEuropean, _MemberState
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product
from repro.pricing.rng import AntitheticGenerator, create_generator


def _make_rng(method: MonteCarloEuropean, dimension: int):
    rng = create_generator(method.rng_kind, seed=method.seed, dimension=dimension)
    if method.antithetic:
        rng = AntitheticGenerator(rng)
    return rng


def price_many_loop(
    method: MonteCarloEuropean,
    model: Model,
    products: Sequence[Product],
    sample_sink: Any = None,
) -> list[PricingResult]:
    """Price ``products`` against one shared path set, member by member."""
    products = list(products)
    for product in products:
        method.check_supports(model, product)
    n_steps = method._effective_steps(model, products[0])
    maturity = products[0].maturity
    mode_paths = products[0].path_dependent or n_steps > 1
    for product in products[1:]:
        if not method.shares_simulation(model, products[0], product):
            raise PricingError(
                "products in a shared-path batch must induce the same "
                "simulation grid and sampling mode"
            )
    members = [
        _MemberState(
            product=product,
            product_adj=method._adjusted_product(model, product, n_steps),
            use_cv=method.control_variate and not product.path_dependent,
            discount=model.discount_factor(product.maturity),
        )
        for product in products
    ]

    n_total = method.n_paths
    if method.antithetic and n_total % 2:
        n_total += 1

    n_done = 0
    n_samples = 0
    rng = _make_rng(method, dimension=max(model.dimension, 1))
    times = np.linspace(0.0, maturity, n_steps + 1)

    # simulate batch by batch (bounding memory) and evaluate every
    # member's payoff against the same path array
    while n_done < n_total:
        batch = min(method.batch_size, n_total - n_done)
        if method.antithetic:
            # keep antithetic pairs inside one batch; n_total is even, so
            # flooring (rather than padding past batch_size) never stalls
            # and the memory bound is respected even for odd batch sizes
            batch -= batch % 2
        if mode_paths:
            paths = model.simulate_paths(rng, batch, times)
            terminal = paths[:, -1] if paths.ndim == 2 else paths[:, -1, :]
        else:
            paths = None
            terminal = model.sample_terminal(rng, batch, maturity)
        half = batch // 2
        for index, member in enumerate(members):
            if mode_paths:
                payoffs = member.product_adj.path_payoff(paths, times)
            else:
                payoffs = member.product_adj.terminal_payoff(terminal)
            payoffs = np.asarray(payoffs, dtype=float)
            if member.use_cv:
                control = method._control_value(model, terminal, member.product_adj)
            else:
                control = None
            if method.antithetic:
                # average each antithetic pair so that the variance
                # estimate reflects the actual (pairwise-coupled) estimator
                payoffs = 0.5 * (payoffs[:half] + payoffs[half:])
                if control is not None:
                    control = 0.5 * (control[:half] + control[half:])
            member.sum_payoff += payoffs.sum()
            member.sum_payoff2 += (payoffs**2).sum()
            if control is not None:
                member.sum_control += control.sum()
                member.sum_control2 += (control**2).sum()
                member.sum_cross += (payoffs * control).sum()
            if sample_sink is not None:
                sample_sink(index, payoffs)
        n_done += batch
        n_samples += half if method.antithetic else batch

    # exact sample accounting: the estimator consumed n_samples
    # (pair-averaged) samples, i.e. n_paths_used simulated paths -- no
    # padded phantom paths are ever reported
    n_paths_used = 2 * n_samples if method.antithetic else n_samples
    return [
        method._finalize_member(model, member, n_samples, n_paths_used, n_steps)
        for member in members
    ]
