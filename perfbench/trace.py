"""Per-layer tracing by wrapping the public functions of each layer module.

Nothing under ``src/`` knows about this module.  :func:`install` resolves
every :data:`HOOKS` target by name, wraps it with a timing/counting shim and
rebinds the shim everywhere the original object is reachable: on the class
for methods, and -- for module functions -- on every loaded ``repro.*``
module that imported it by name (``from repro.serial import serialize``
binds a second reference that patching the defining module alone would
miss).  A target that no longer resolves raises :class:`TraceError`, and
:func:`coverage_errors` reports every wrapper that never fired on a workload
that needs it, so a rename under ``src/`` fails the traced run instead of
reporting zeros.

Time of nested calls of the same metric key (``problem_digest`` calling
``stable_digest``) is counted once, by the outermost call.  The session
wrapper measures the wall time of ``ValuationSession.run/greeks/risk`` and
the time covered by the spans it directly encloses, which gives
``session.self_s``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

GRID, REMOTE, RISK, SERVE = "grid_local", "realistic_remote", "risk_mp", "serve_mix"
SESSION_KEY = "session"


class TraceError(RuntimeError):
    """A traced target is missing (renamed or moved under ``src/``)."""


def _nbytes(result: Any, args: tuple, kwargs: dict) -> float:
    return float(len(result))


def _arg_nbytes(result: Any, args: tuple, kwargs: dict) -> float:
    data = args[1]
    return float(getattr(data, "nbytes", None) or len(data))


def _n_groups(result: Any, args: tuple, kwargs: dict) -> float:
    return float(len(result.groups))


def _n_run_groups(result: Any, args: tuple, kwargs: dict) -> float:
    return float(len(args[0]))


def _n_cells(result: Any, args: tuple, kwargs: dict) -> float:
    return float(len(result[0]))


def _is_hit(result: Any, args: tuple, kwargs: dict) -> float:
    return 0.0 if result is None else 1.0


def _n_batch_jobs(result: Any, args: tuple, kwargs: dict) -> float:
    from repro.pricing.batch import ProblemBatch

    jobs = args[2] if isinstance(args[2], list) else [args[2]]
    return float(sum(isinstance(job.problem, ProblemBatch) for job in jobs))


@dataclass(frozen=True)
class Hook:
    """One wrapped target: ``"module:attr"`` or ``"module:Class.method"``."""

    target: str
    key: str
    #: workloads on which the wrapper must fire at least once
    required: frozenset[str]
    #: extra quantity (bytes, groups, cells, hits, batch jobs) summed per call
    amount: Callable[[Any, tuple, dict], float] | None = None


def _hook(target: str, key: str, required: set[str], amount: Any = None) -> Hook:
    return Hook(target, key, frozenset(required), amount)


_BACKENDS = ("repro.cluster.backends.local:SequentialBackend",
             "repro.cluster.backends.multiproc:MultiprocessingBackend",
             "repro.cluster.backends.remote:RemoteBackend")

#: every wrapped function, its metric key and where it must fire.  Layers
#: whose work runs inside worker processes (the methods, ``ProblemBatch``
#: compute on the out-of-process backends) are read from the run reports the
#: workers send back instead, see :mod:`perfbench.layers`.
HOOKS: tuple[Hook, ...] = (
    _hook("repro.serial.xdr:encode", "xdr.encode", {GRID, REMOTE, RISK, SERVE}, _nbytes),
    _hook("repro.serial.xdr:decode", "xdr.decode", {GRID, REMOTE, SERVE}),
    _hook("repro.pricing.cache:problem_digest", "cache.digest", {SERVE}),
    _hook("repro.pricing.cache:stable_digest", "cache.digest", {GRID, RISK, SERVE}),
    _hook("repro.pricing.cache:ResultCache.get", "cache.get", {SERVE}, _is_hit),
    _hook("repro.pricing.cache:ResultCache.put", "cache.put", {SERVE}),
    _hook("repro.pricing.batch:plan_batches", "batch.plan", {GRID, RISK, SERVE}, _n_groups),
    _hook("repro.pricing.batch:ProblemBatch.compute", "batch.compute", {GRID}),
    _hook("repro.pricing.kernel:run_groups", "kernel.run_groups", {GRID, SERVE},
          _n_run_groups),
    _hook("repro.pricing.scenarios:expand_scenarios", "scenarios.expand", {RISK, SERVE},
          _n_cells),
    _hook("repro.pricing.scenarios:collect_cell_prices", "scenarios.assemble",
          {RISK, SERVE}),
    _hook("repro.pricing.scenarios:greeks_from_prices", "scenarios.assemble",
          {RISK, SERVE}),
    _hook("repro.core.strategies:TransmissionStrategy.prepare", "scheduler.prepare",
          {GRID, REMOTE, RISK, SERVE}),
    _hook(f"{_BACKENDS[0]}.dispatch", "backend.dispatch", {GRID, SERVE}, _n_batch_jobs),
    _hook(f"{_BACKENDS[0]}.collect", "backend.collect", {GRID, SERVE}),
    _hook(f"{_BACKENDS[1]}.dispatch", "backend.dispatch", {RISK}, _n_batch_jobs),
    _hook(f"{_BACKENDS[1]}.dispatch_batch", "backend.dispatch", set(), _n_batch_jobs),
    _hook(f"{_BACKENDS[1]}.collect", "backend.collect", {RISK}),
    _hook(f"{_BACKENDS[2]}.dispatch", "backend.dispatch", {REMOTE}, _n_batch_jobs),
    _hook(f"{_BACKENDS[2]}.dispatch_batch", "backend.dispatch", set(), _n_batch_jobs),
    _hook(f"{_BACKENDS[2]}.collect", "backend.collect", {REMOTE}),
    _hook("repro.serial.frames:encode_frame", "frames.encode", {REMOTE}, _nbytes),
    _hook("repro.cluster.shm:encode_result", "shm.encode", {RISK}),
    _hook("repro.cluster.shm:SegmentRegistry.publish_bytes", "shm.publish", set(),
          _arg_nbytes),
    _hook("repro.cluster.shm:SegmentRegistry.publish_array", "shm.publish", set(),
          _arg_nbytes),
    _hook("repro.api.session:ValuationSession.run", SESSION_KEY, {GRID, REMOTE, RISK, SERVE}),
    _hook("repro.api.session:ValuationSession.greeks", SESSION_KEY, {RISK}),
    _hook("repro.api.session:ValuationSession.risk", SESSION_KEY, {RISK}),
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a hook target."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"traced module {module_name!r} is gone: {exc}") from None
    *parents, name = path.split(".")
    for parent in parents:
        if not hasattr(owner, parent):
            raise TraceError(f"traced target {target!r}: no {parent!r} in {owner!r}")
        owner = getattr(owner, parent)
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        raise TraceError(f"traced target {target!r} is gone (renamed or moved?)")
    if not inspect.isfunction(raw):
        raise TraceError(f"traced target {target!r} is no longer a plain function")
    return owner, name, raw


class Tracer:
    """Accumulates per-key seconds, calls and amounts across threads."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        #: hook target -> number of calls (the coverage check)
        self.fired: dict[str, int] = defaultdict(int)
        #: one ``RunResult`` report per ``ValuationSession.run`` (any depth)
        self.reports: list[Any] = []
        #: seconds covered by the spans directly under a session call
        self.session_covered = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- bookkeeping -------------------------------------------------------------
    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "active"):
            local.active = set()
            local.depth = 0
        return local

    def _wrap(self, hook: Hook, function: Callable) -> Callable:
        tracer = self
        key = hook.key

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            with tracer._lock:
                tracer.fired[hook.target] += 1
            if key in state.active:
                return function(*args, **kwargs)
            in_session = SESSION_KEY in state.active
            child = key != SESSION_KEY
            state.active.add(key)
            if child:
                state.depth += 1
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.active.discard(key)
                if child:
                    state.depth -= 1
            with tracer._lock:
                tracer.seconds[key] += elapsed
                tracer.calls[key] += 1
                if hook.amount is not None:
                    tracer.amounts[key] += hook.amount(result, args, kwargs)
                if child and in_session and state.depth == 0:
                    tracer.session_covered += elapsed
            return result

        def traced_run(*args: Any, **kwargs: Any) -> Any:
            result = traced(*args, **kwargs)
            with tracer._lock:
                tracer.reports.append(result.report)
            return result

        wrapper = traced_run if hook.target.endswith("ValuationSession.run") else traced
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    # -- install / uninstall -----------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every hook target; raises :class:`TraceError` on a missing one."""
        resolved = [(hook, *_resolve(hook.target)) for hook in HOOKS]
        for hook, owner, name, raw in resolved:
            wrapped = self._wrap(hook, raw)
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, wrapped)
        return self

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched binding (reverse order)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe copy of the counters (for the traced daemon's dump)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "amounts": dict(self.amounts),
                "fired": dict(self.fired),
                "session_covered": self.session_covered,
                "reports": [_report_summary(r) for r in self.reports],
            }


def _report_summary(report: Any) -> dict[str, Any]:
    return {
        "category_times": dict(report.category_times),
        "worker_busy": {str(k): v for k, v in report.worker_busy.items()},
        "n_workers": report.n_workers,
    }


def coverage_errors(fired: dict[str, int], workload: str) -> list[str]:
    """Wrappers that never fired on a workload that requires them."""
    return [
        f"wrapper {hook.target} never fired on {workload} (call path moved?)"
        for hook in HOOKS
        if workload in hook.required and not fired.get(hook.target)
    ]
