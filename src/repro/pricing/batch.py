"""Shared-path batch pricing: plan, group and evaluate problem families.

The paper's realistic portfolio is dominated by huge *families* of
near-identical problems -- 525 puts on the same 40-dimensional basket, 1025
calls under the same local-volatility model -- each priced by Monte-Carlo
with the same model, generator and time grid.  Priced one by one, the path
simulation (by far the dominant cost) is repeated once per position; priced
as a family, the paths can be simulated **once** and every member payoff
evaluated against the shared path array.

This module provides the planning layer on top of
:meth:`~repro.pricing.methods.montecarlo.MonteCarloEuropean.price_many`:

* :func:`simulation_signature` -- the grouping key: model parameters, rng
  kind/seed, antithetic flag, path counts/batching and the effective time
  grid.  Problems with equal signatures consume identical random-number
  streams, so the shared paths are *bit-identical* to the paths each problem
  would simulate alone;
* :func:`plan_batches` -- partition a problem list into shared-simulation
  groups and left-over singletons, preserving input order;
* :func:`draw_cohort` -- the dispatch key: groups with equal cohorts consume
  the same random stream (the stacked kernel's
  :func:`~repro.pricing.kernel.cohort_key`), and :func:`cohort_jobs` --
  split a plan into at most a given number of balanced jobs per cohort;
* :class:`ProblemBatch` -- a serializable bundle of the groups of one draw
  cohort that cluster workers price as one unit (registered with the XDR
  codec registry, so it ships over every transmission strategy that
  serializes problems);
* :func:`price_problems` -- the one-call convenience: plan, price each
  cohort as one :class:`ProblemBatch`, price singletons individually, return
  results in input order.

Grouping applies when (and only when) two problems use the *same* model
parameters, a shared-simulation-capable method (``MC_European``) with equal
parameters, and products inducing the same time grid and sampling mode.
Everything else -- closed forms, PDEs, trees, Longstaff-Schwartz, mixed
grids -- falls back to per-problem pricing, so batch mode is always safe to
enable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Sequence

from repro.errors import PricingError
from repro.pricing.cache import problem_digest
from repro.pricing.engine import PricingProblem, _build_method, _build_model
from repro.pricing.kernel import cohort_key
from repro.pricing.methods.base import PricingResult
from repro.pricing.methods.montecarlo import MonteCarloEuropean, price_groups_stacked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pricing.cache import ResultCache

__all__ = [
    "SimulationSignature",
    "simulation_signature",
    "BatchGroup",
    "BatchPlan",
    "plan_batches",
    "draw_cohort",
    "cohort_jobs",
    "ProblemBatch",
    "price_problems",
]

_UNSET = object()


@dataclass(frozen=True)
class SimulationSignature:
    """Everything that determines the simulated path set of one problem.

    Two problems with equal signatures use bit-equal model parameters and
    **fully equal method parameters** (rng kind/seed, antithetic flag, path
    counts/batching, control variate, barrier correction, ... -- the whole
    ``method.to_params()`` dictionary, folded into ``method_digest``), and
    induce the same effective time grid and sampling mode.  They therefore
    draw identical random numbers through identical model sampling calls --
    only their payoff evaluation differs.
    """

    model_digest: str
    method_name: str
    method_digest: str
    mode: str  # "paths" (full path simulation) or "terminal" (exact law)
    n_steps: int
    maturity: float


def simulation_signature(problem: PricingProblem) -> SimulationSignature | None:
    """The problem's shared-simulation grouping key, or ``None``.

    ``None`` means the problem cannot take part in shared-path pricing (not a
    Monte-Carlo European method, incomplete problem, unsupported pair); it is
    then priced individually by the fallback path of :func:`price_problems`.
    Memoized on the problem (like :func:`~repro.pricing.cache.problem_digest`)
    until one of its legs is replaced.
    """
    cached = problem.__dict__.get("_signature_cache", _UNSET)
    if cached is _UNSET:
        cached = _signature(problem)
        problem.__dict__["_signature_cache"] = cached
    return cached


def _signature(problem: PricingProblem) -> SimulationSignature | None:
    if not problem.is_complete:
        return None
    method = problem.method
    if not isinstance(method, MonteCarloEuropean):
        return None
    model, product = problem.model, problem.product
    if not method.supports(model, product):
        return None
    n_steps = method._effective_steps(model, product)
    mode = "paths" if (product.path_dependent or n_steps > 1) else "terminal"
    return SimulationSignature(
        model_digest=model.param_digest(),
        method_name=method.method_name,
        method_digest=method.param_digest(),
        mode=mode,
        n_steps=n_steps,
        maturity=product.maturity,
    )


@dataclass(frozen=True)
class BatchGroup:
    """One shared-simulation group of a :class:`BatchPlan` (input indices)."""

    signature: SimulationSignature
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BatchPlan:
    """Partition of a problem list into shared groups and singletons."""

    groups: tuple[BatchGroup, ...]
    singles: tuple[int, ...]

    @property
    def n_grouped(self) -> int:
        return sum(len(group) for group in self.groups)

    @property
    def n_simulations_saved(self) -> int:
        """Path simulations avoided versus per-problem pricing."""
        return sum(len(group) - 1 for group in self.groups)


def plan_batches(
    problems: Sequence[PricingProblem | None],
    min_group_size: int = 2,
    max_group_size: int | None = None,
) -> BatchPlan:
    """Group ``problems`` by simulation signature.

    ``None`` entries (jobs without an in-memory problem) and problems without
    a signature become singletons.  Groups smaller than ``min_group_size``
    degrade to singletons (a one-member "group" would only add overhead);
    ``max_group_size`` splits huge families into several groups so a parallel
    backend can spread them over workers -- splitting never changes any price
    because members are statistically independent read-only consumers of the
    shared paths.

    ``min_group_size=1`` keeps size-1 families as real groups.  That is the
    scenario-grid configuration (:mod:`repro.pricing.scenarios`): bumped
    model variants have *distinct* signatures (the bump changes the model
    digest) but stackable schemes share one draw cohort across groups, so
    even one-member groups belong in the stacked plan rather than the
    per-problem fallback.
    """
    if min_group_size < 1:
        raise PricingError("min_group_size must be >= 1")
    if max_group_size is not None and max_group_size < min_group_size:
        raise PricingError("max_group_size must be >= min_group_size")
    by_signature: dict[SimulationSignature, list[int]] = {}
    singles: list[int] = []
    for index, problem in enumerate(problems):
        signature = None if problem is None else simulation_signature(problem)
        if signature is None:
            singles.append(index)
        else:
            by_signature.setdefault(signature, []).append(index)

    groups: list[BatchGroup] = []
    for signature, indices in by_signature.items():
        if len(indices) < min_group_size:
            singles.extend(indices)
            continue
        chunk = max_group_size or len(indices)
        for start in range(0, len(indices), chunk):
            part = indices[start : start + chunk]
            if len(part) < min_group_size:
                singles.extend(part)
            else:
                groups.append(BatchGroup(signature=signature, indices=tuple(part)))
    groups.sort(key=lambda group: group.indices[0])
    return BatchPlan(groups=tuple(groups), singles=tuple(sorted(singles)))


def draw_cohort(problem: PricingProblem) -> Hashable | None:
    """The draw cohort of ``problem``, or ``None``.

    Groups with equal cohorts consume the same random stream, so one
    :class:`ProblemBatch` prices them all with one shared draw: the key is
    :func:`~repro.pricing.kernel.cohort_key`, the very key
    :func:`~repro.pricing.kernel.run_groups` clusters on.  ``None`` for
    problems without a simulation signature.
    """
    signature = simulation_signature(problem)
    if signature is None:
        return None
    return cohort_key(problem.method, problem.model, signature.mode == "paths",
                      signature.n_steps, signature.maturity)


def cohort_jobs(
    problems: Sequence[PricingProblem | None],
    groups: Sequence[BatchGroup],
    n_jobs: int = 1,
    max_members: int | None = None,
) -> list[list[BatchGroup]]:
    """Split plan ``groups`` into jobs: at most ``n_jobs`` per draw cohort.

    Groups are clustered by :func:`draw_cohort`; each
    cohort's groups (never split) go largest first into its job with the
    fewest members.  A job never exceeds ``max_members`` members: a group
    that does not fit the lightest job opens another one, so the cap wins
    over ``n_jobs``.  Cohorts, jobs and the groups inside each come back in
    input order.
    """
    cohorts: dict[Hashable, list[BatchGroup]] = {}
    for group in groups:
        problem = problems[group.indices[0]]
        assert problem is not None  # planned groups only index real problems
        cohorts.setdefault(draw_cohort(problem), []).append(group)
    jobs: list[list[BatchGroup]] = []
    for cohort in cohorts.values():
        bins: list[list[BatchGroup]] = [[] for _ in range(min(n_jobs, len(cohort)))]
        loads = [0] * len(bins)
        for group in sorted(cohort, key=lambda g: (-len(g), g.indices[0])):
            lightest = min(range(len(bins)), key=lambda b: (loads[b], b))
            if max_members is not None and loads[lightest] and \
                    loads[lightest] + len(group) > max_members:
                bins.append([])
                loads.append(0)
                lightest = len(bins) - 1
            bins[lightest].append(group)
            loads[lightest] += len(group)
        packed = [sorted(part, key=lambda g: g.indices[0]) for part in bins if part]
        jobs.extend(sorted(packed, key=lambda part: part[0].indices[0]))
    return jobs


class ProblemBatch:
    """A bundle of problems from one draw cohort, priced as one unit.

    The batch is what the master ships to a worker in batch mode: one message
    carrying every member of one or more shared-simulation groups whose
    random streams coincide (see :func:`draw_cohort`).  ``compute()``
    prices every group with one kernel call and returns one result per
    member.  The class round-trips through the XDR serializer (codec
    registered in :mod:`repro.serial`) in a compact form: each distinct
    model and method leg is written once and members refer to it by index.
    """

    def __init__(
        self,
        problems: Sequence[PricingProblem],
        keys: Sequence[int] | None = None,
    ):
        problems = list(problems)
        if len(problems) < 1:
            raise PricingError("a ProblemBatch needs at least one problem")
        if keys is None:
            keys = list(range(len(problems)))
        keys = [int(key) for key in keys]
        if len(keys) != len(problems):
            raise PricingError("ProblemBatch keys must match the problems one-to-one")
        signature = simulation_signature(problems[0])
        if signature is None:
            raise PricingError(
                "ProblemBatch members must support shared-path simulation "
                "(Monte-Carlo European problems with a simulation signature)"
            )
        reference = draw_cohort(problems[0])
        for problem in problems[1:]:
            if draw_cohort(problem) != reference:
                raise PricingError("all ProblemBatch members must share one draw cohort")
        self.problems = problems
        self.keys = keys
        #: the first member's signature (members may carry several)
        self.signature = signature

    def __len__(self) -> int:
        return len(self.problems)

    @property
    def label(self) -> str:
        return f"batch[{len(self.problems)}]@{self.signature.model_digest[:12]}"

    # -- pricing -----------------------------------------------------------------
    def compute(self, cache: "ResultCache | None" = None) -> dict[int, dict[str, Any]]:
        """Price all members and return ``{key: result_dict}``.

        With a ``cache``, members whose digest is already stored are answered
        from the cache and **excluded from the simulation** -- dropping
        members never changes the other members' prices, because each payoff
        is an independent read-only consumer of the shared paths.  The rest
        are grouped by simulation signature and priced in one pass: one
        :func:`~repro.pricing.methods.montecarlo.price_groups_stacked` call
        for every group.  Freshly computed results are written back to the
        cache.

        If the shared pass fails (e.g. one member's payoff produces a
        non-finite price), the batch degrades to per-member pricing so a
        single bad member cannot fail its whole cohort: healthy members
        still return results, the bad one returns an ``{"error": ...}``
        entry (matching what an unbatched run would have reported).
        """
        out: dict[int, dict[str, Any]] = {}
        pending: dict[SimulationSignature | None, list[tuple[int, PricingProblem]]] = {}
        for key, problem in zip(self.keys, self.problems):
            cached = cache.get(problem_digest(problem)) if cache is not None else None
            if cached is not None:
                problem._result = cached
                entry = cached.as_dict()
                entry["cache_hit"] = True
                out[key] = entry
            else:
                pending.setdefault(simulation_signature(problem), []).append((key, problem))
        if not pending:
            return out
        groups = list(pending.values())
        specs = [
            (members[0][1].method, members[0][1].model, [p.product for _, p in members])
            for members in groups
        ]
        try:
            per_group = price_groups_stacked(specs)
        except Exception:  # noqa: BLE001 - isolate the failing member below
            per_group = None
        if per_group is not None:
            for members, results in zip(groups, per_group):
                for (key, problem), result in zip(members, results):
                    problem._result = result
                    if cache is not None:
                        cache.put(problem_digest(problem), result)
                    out[key] = result.as_dict()
            return out
        # shared pass failed: price members individually so only the bad
        # one(s) error (bit-identical either way -- same seeds, same code)
        for members in groups:
            for key, problem in members:
                try:
                    result = problem.compute()
                except Exception as exc:  # noqa: BLE001 - per-member error capture
                    out[key] = {"error": f"{type(exc).__name__}: {exc}"}
                    continue
                if cache is not None:
                    cache.put(problem_digest(problem), result)
                out[key] = result.as_dict()
        return out

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Wire form: distinct model/method legs once, members by index.

        Members carry their key, label, asset and option leg, plus the
        indices of their model and method legs; stored results are not
        shipped (the worker prices every member).
        """
        models: dict[str, int] = {}
        methods: dict[tuple[str, str], int] = {}
        model_legs: list[dict[str, Any]] = []
        method_legs: list[dict[str, Any]] = []
        members = []
        for key, problem in zip(self.keys, self.problems):
            model, method, product = problem.model, problem.method, problem.product
            model_index = models.setdefault(model.param_digest(), len(model_legs))
            if model_index == len(model_legs):
                model_legs.append({"name": model.model_name, "params": model.to_params()})
            method_index = methods.setdefault((method.method_name, method.param_digest()),
                                              len(method_legs))
            if method_index == len(method_legs):
                method_legs.append({"name": method.method_name, "params": method.to_params()})
            members.append({
                "key": key,
                "label": problem.label,
                "asset": problem.asset,
                "model": model_index,
                "method": method_index,
                "option": {"name": product.option_name, "params": product.to_params()},
            })
        return {"models": model_legs, "methods": method_legs, "members": members}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProblemBatch":
        """Rebuild a batch, building each distinct model and method once."""
        models = [_build_model(leg["name"], leg["params"]) for leg in data["models"]]
        methods = [_build_method(leg["name"], leg["params"]) for leg in data["methods"]]
        problems = []
        for member in data["members"]:
            problem = PricingProblem(label=member["label"])
            problem.set_asset(member["asset"])
            problem.set_model(_leg(models, member["model"], "model"))
            problem.set_option(member["option"]["name"], **member["option"]["params"])
            problem.set_method(_leg(methods, member["method"], "method"))
            problems.append(problem)
        return cls(problems, keys=[member["key"] for member in data["members"]])

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ProblemBatch(n={len(self.problems)}, signature={self.signature.mode!r})"


def _leg(legs: list[Any], index: Any, kind: str) -> Any:
    """The ``index``-th decoded leg, or a :class:`PricingError`."""
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(legs):
        raise PricingError(
            f"ProblemBatch member refers to {kind} leg {index!r}; the batch has "
            f"{len(legs)}"
        )
    return legs[index]


def price_problems(
    problems: Sequence[PricingProblem],
    cache: "ResultCache | None" = None,
    kernel: str = "stacked",
) -> list[PricingResult]:
    """Price ``problems`` with shared-path grouping, in input order.

    Plans the problems, prices each draw cohort of the plan as one
    :class:`ProblemBatch` (groups whose simulation signatures differ only
    in stackable model parameters share one normal draw) and prices
    problems without a simulation signature with ``problem.compute()``.
    Every signature family is planned, singletons included: a cohort is
    one kernel call whatever its group sizes.  With a ``cache``, hits are
    served from it and only the misses are simulated.  Every result is also
    stored on its problem (``problem.get_method_results()`` works
    afterwards), and prices are bit-identical to per-problem pricing.
    ``kernel`` only accepts ``"stacked"``, the one Monte-Carlo engine.
    """
    if kernel != "stacked":
        raise PricingError(f"unknown kernel {kernel!r}; the stacked engine is the only one")
    problems = list(problems)
    plan = plan_batches(problems, min_group_size=1)
    results: dict[int, PricingResult] = {}
    for job in cohort_jobs(problems, plan.groups):
        indices = sorted(index for group in job for index in group.indices)
        batch = ProblemBatch([problems[i] for i in indices], keys=indices)
        for key, entry in batch.compute(cache=cache).items():
            if "error" in entry:
                # match unbatched semantics: computing this problem raises
                raise PricingError(
                    f"problem {problems[key].label or key!r} failed in a "
                    f"shared-path batch: {entry['error']}"
                )
            # compute() stored the full PricingResult on each member problem
            results[key] = problems[key].get_method_results()
    for index in plan.singles:
        problem = problems[index]
        cached = cache.get(problem_digest(problem)) if cache is not None else None
        if cached is not None:
            problem._result = cached
            results[index] = cached
        else:
            results[index] = problem.compute()
            if cache is not None:
                cache.put(problem_digest(problem), results[index])
    return [results[index] for index in range(len(problems))]
