"""Typed, immutable configuration objects of the unified API.

These frozen dataclasses carry everything a
:class:`~repro.api.session.ValuationSession` needs to build backends,
schedulers and sweeps, replacing the positional backend/strategy/scheduler
plumbing of the free functions in :mod:`repro.core.runner`.  They are plain
values: hashable-by-content where possible, safe to share between sessions
and cheap to derive variants from with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cluster.backends import WorkerBackend, create_backend, list_backends
from repro.core.scheduler import SCHEDULERS, Scheduler
from repro.core.strategies import STRATEGIES
from repro.errors import ValuationError

__all__ = ["BackendSpec", "RetryPolicy", "RunConfig", "SweepConfig"]


def _frozen_options(options: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not options:
        return ()
    return tuple(sorted(options.items()))


@dataclass(frozen=True)
class BackendSpec:
    """Recipe for building an execution backend by registered name.

    A spec is *not* a backend: backends are one-shot objects (the scheduler
    finalizes them at the end of a run) while a spec can :meth:`create` a
    fresh one for every run of the session.
    """

    name: str = "simulated"
    n_workers: int = 2
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValuationError("BackendSpec.n_workers must be >= 1")
        if isinstance(self.options, Mapping):
            object.__setattr__(self, "options", _frozen_options(self.options))
        if self.name == "remote":
            self._validate_remote_options()

    def _validate_remote_options(self) -> None:
        """Check and normalise the remote backend's ``hosts`` option.

        The worker addresses are folded into a tuple of ``"host:port"``
        strings at spec-construction time, so a bad address fails *here* --
        with a clear message, before any socket is opened -- and the frozen
        spec stays hashable (a raw list value would not be).
        """
        from repro.cluster.backends.remote import normalize_hosts
        from repro.errors import ClusterError

        options = dict(self.options)
        if not options.get("hosts"):
            raise ValuationError(
                "the remote backend needs a non-empty 'hosts' option, e.g. "
                "BackendSpec('remote', options={'hosts': ['10.0.0.4:9631']}); "
                "spawn_local_workers(n).hosts gives a loopback pool"
            )
        try:
            options["hosts"] = normalize_hosts(options["hosts"])
        except ClusterError as exc:
            raise ValuationError(str(exc)) from exc
        object.__setattr__(self, "options", _frozen_options(options))

    @classmethod
    def coerce(
        cls,
        value: "str | BackendSpec | WorkerBackend",
        n_workers: int | None = None,
        options: Mapping[str, Any] | None = None,
    ) -> "BackendSpec | WorkerBackend":
        """Normalise a user-supplied backend argument.

        Strings become specs (validated against the registry), specs pass
        through (re-sized if ``n_workers`` is given), and ready-made
        :class:`WorkerBackend` instances are returned untouched so callers
        can inject a pre-configured engine.
        """
        if isinstance(value, WorkerBackend):
            if options:
                raise ValuationError(
                    "backend options cannot be applied to an already-built "
                    "WorkerBackend instance; pass a name or BackendSpec instead"
                )
            return value
        if isinstance(value, BackendSpec):
            merged = dict(value.options)
            merged.update(options or {})
            if merged != dict(value.options) or (
                n_workers is not None and n_workers != value.n_workers
            ):
                return cls(
                    value.name,
                    n_workers if n_workers is not None else value.n_workers,
                    merged,
                )
            return value
        if isinstance(value, str):
            if value not in list_backends():
                raise ValuationError(
                    f"unknown backend {value!r}; registered backends: {list_backends()}"
                )
            return cls(value, n_workers if n_workers is not None else 2,
                       _frozen_options(options))
        raise ValuationError(
            f"backend must be a name, a BackendSpec or a WorkerBackend, "
            f"got {type(value).__name__}"
        )

    def create(self, strategy: str = "serialized_load", **extra: Any) -> WorkerBackend:
        """Build a fresh backend for one run."""
        merged = dict(self.options)
        merged.update(extra)
        return create_backend(
            self.name, n_workers=self.n_workers, strategy=strategy, **merged
        )


@dataclass(frozen=True)
class RetryPolicy:
    """When and how a run survives losing the whole worker pool.

    A :class:`~repro.errors.WorkerLostError` carries the ``job_ids`` that
    were still unresolved when the pool died.  With a retry policy on the
    :class:`RunConfig`, the session catches that error, rebuilds a fresh
    backend from its :class:`BackendSpec` and transparently resubmits only
    the unresolved positions -- up to ``max_attempts`` total attempts, with
    ``backoff * backoff_factor**(k-1)`` seconds before the ``k``-th retry so
    crashed workers have time to come back.  Results from all attempts merge
    into one submission-ordered report, bit-identical to a clean run.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValuationError("RetryPolicy.max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValuationError("RetryPolicy.backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValuationError("RetryPolicy.backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class RunConfig:
    """How one portfolio (or job-list) valuation is executed.

    ``batch=True`` turns on shared-path batch pricing: the signature groups
    of each draw cohort (see :func:`repro.pricing.batch.draw_cohort`) are
    coalesced into at most ``n_workers``
    :class:`~repro.pricing.batch.ProblemBatch` jobs, each priced with one
    kernel call.  ``cache`` overrides the session's
    result-cache usage for this run (``None`` keeps the session default,
    ``False`` bypasses the cache, ``True`` requires the session to have one).
    ``batch_group_size`` caps how many positions one batch job may carry,
    also when that takes more jobs than workers, so large families still
    spread across parallel workers.

    Two streaming-lifecycle hooks ride along (excluded from equality/hash,
    like ``cost_model``): ``progress`` is called once per collected position
    with a :class:`~repro.api.futures.StreamProgress`; ``cancel`` is a
    :class:`~repro.api.futures.CancelToken` that withdraws still-queued
    positions when fired (in-flight jobs finish; withdrawn positions are
    marked cancelled in the run result).

    ``retry`` (a :class:`RetryPolicy`) makes the session survive total pool
    loss: unresolved positions from a :class:`~repro.errors.WorkerLostError`
    are transparently resubmitted on a fresh backend built from the
    session's :class:`BackendSpec`.
    """

    strategy: str = "serialized_load"
    scheduler: str | None = None
    scheduler_options: tuple[tuple[str, Any], ...] = ()
    attach_problems: bool | None = None
    cost_model: Any | None = field(default=None, compare=False)
    batch: bool = False
    batch_group_size: int | None = None
    cache: bool | None = None
    progress: Callable[..., None] | None = field(default=None, compare=False)
    cancel: Any | None = field(default=None, compare=False)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.batch_group_size is not None and self.batch_group_size < 2:
            raise ValuationError("RunConfig.batch_group_size must be >= 2 when given")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValuationError(
                "RunConfig.retry must be a RetryPolicy (or None), got "
                f"{type(self.retry).__name__}"
            )
        if self.strategy not in STRATEGIES:
            raise ValuationError(
                f"unknown strategy {self.strategy!r}; known: {sorted(STRATEGIES)}"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ValuationError(
                f"unknown scheduler {self.scheduler!r}; known: {sorted(SCHEDULERS)}"
            )
        if isinstance(self.scheduler_options, Mapping):
            object.__setattr__(
                self, "scheduler_options", _frozen_options(self.scheduler_options)
            )

    def scheduler_factory(self) -> Callable[[], Scheduler]:
        """A factory producing a fresh scheduler per run (default Robin-Hood)."""
        name = self.scheduler or "robin_hood"
        cls = SCHEDULERS[name]
        options = dict(self.scheduler_options)
        return lambda: cls(**options)


@dataclass(frozen=True)
class SweepConfig:
    """How a CPU-count sweep over the simulated cluster is executed.

    ``batch=True`` coalesces shared-simulation families before sweeping, so
    the paper's tables can be regenerated "with batching" (the batch-aware
    cost model charges one shared path simulation per family plus a
    per-member payoff sweep).
    """

    cpu_counts: tuple[int, ...] = (2, 4, 8, 16)
    strategy: str = "serialized_load"
    share_nfs_cache: bool = True
    label: str | None = None
    batch: bool = False
    batch_group_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cpu_counts", tuple(self.cpu_counts))
        if not self.cpu_counts:
            raise ValuationError("SweepConfig.cpu_counts must not be empty")
        if any(n < 2 for n in self.cpu_counts):
            raise ValuationError("cpu_counts must be >= 2 (one master + workers)")
        if self.strategy not in STRATEGIES:
            raise ValuationError(
                f"unknown strategy {self.strategy!r}; known: {sorted(STRATEGIES)}"
            )
        if self.batch_group_size is not None and self.batch_group_size < 2:
            raise ValuationError("SweepConfig.batch_group_size must be >= 2 when given")
