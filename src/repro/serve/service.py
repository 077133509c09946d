"""The warm core of ``repro-serve``: one backend, one cache, many requests.

The paper's master amortizes cluster setup across a whole portfolio; this
service amortizes it across *requests*.  It owns

* a named execution backend kept warm for the daemon's lifetime -- for
  ``backend="remote"`` that is a pool of ``repro-worker`` processes (spawned
  loopback or user-listed hosts) whose accept loops survive between
  campaigns, so a request only pays a TCP connect, never a process spawn;
* one shared :class:`~repro.pricing.cache.ResultCache` (thread-safe, optional
  disk store) that every request reads and feeds -- the second identical
  request never touches a worker;
* a single executor thread draining a priority queue of submitted runs
  (cross-request ordering), each run driven through a fresh
  :class:`~repro.api.session.ValuationSession` whose per-position priorities
  ride the :class:`~repro.core.scheduler.PriorityScheduler` policy
  (within-request ordering);
* an optional keepalive monitor that pings idle remote workers
  (:func:`~repro.cluster.worker.probe_worker`, protocol v3) so dead TCP
  endpoints are noticed between campaigns, not at next dispatch.

The HTTP layer (:mod:`repro.serve.app`) is a thin routing shell over this
object; everything observable lands in :meth:`PricingService.stats`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Mapping

from repro.api.session import ValuationSession
from repro.core.scheduler import PriorityScheduler, Scheduler
from repro.errors import ReproError, ServeError
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.greeks import compute_greeks
from repro.serve.config import ServerConfig
from repro.serve.jobs import JobRecord, JobTable
from repro.serve.parse import portfolio_from_request, problem_from_request

__all__ = ["PricingService"]


class PricingService:
    """Everything the daemon does between accepting and answering HTTP."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.cache = ResultCache(
            max_entries=config.cache_entries, directory=config.cache_dir
        )
        self.jobs = JobTable(max_events_per_job=config.max_events_per_job)
        self._queue: list[tuple[float, int, str]] = []
        self._queue_cond = threading.Condition()
        self._ticket = itertools.count()
        self._stop = threading.Event()
        self._executor: threading.Thread | None = None
        self._monitor: threading.Thread | None = None
        self._pool: Any = None
        self._hosts: tuple[str, ...] = tuple(config.hosts)
        self._state_lock = threading.Lock()
        self._dead_hosts: set[str] = set()
        self._running_job: str | None = None
        self._busy_s: dict[str, float] = {}
        self._campaign_wall_s = 0.0
        self._counters = {
            "requests": 0,
            "auth_failures": 0,
            "rate_limited": 0,
            "priced_singles": 0,
            "greek_ladders": 0,
            "runs_submitted": 0,
            "runs_completed": 0,
            "runs_failed": 0,
            "runs_cancelled": 0,
            "cache_only_runs": 0,
            "reconnects": 0,
            "redispatches": 0,
        }
        self._started_monotonic = time.monotonic()

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Warm the backend and start the executor (idempotent)."""
        if self._executor is not None:
            return
        if self.config.backend == "remote" and not self._hosts:
            from repro.cluster.worker import spawn_local_workers

            self._pool = spawn_local_workers(
                self.config.n_workers,
                cache_dir=self.config.cache_dir,
                secret=self.config.worker_secret,
            )
            self._hosts = tuple(self._pool.hosts)
        self._executor = threading.Thread(
            target=self._executor_loop, name="repro-serve-executor", daemon=True
        )
        self._executor.start()
        if self.config.backend == "remote" and self.config.keepalive_interval > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-serve-keepalive", daemon=True
            )
            self._monitor.start()

    def close(self) -> None:
        """Stop the executor and tear the warm pool down."""
        self._stop.set()
        with self._queue_cond:
            self._queue_cond.notify_all()
        for thread in (self._executor, self._monitor):
            if thread is not None:
                thread.join(timeout=10.0)
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    def count(self, name: str, delta: int = 1) -> None:
        with self._state_lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    # -- single-problem pricing (POST /v1/price) -------------------------------------
    def price_single(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """Price one problem cache-first, in the calling (HTTP) thread."""
        problem = problem_from_request(body)
        digest = problem_digest(problem)
        started = time.perf_counter()
        result = self.cache.get(digest)
        cache_hit = result is not None
        if result is None:
            result = problem.compute()
            self.cache.put(digest, result)
        self.count("priced_singles")
        return {
            "price": result.price,
            "std_error": result.std_error,
            "delta": result.delta,
            "label": problem.label,
            "method": problem.method_name,
            "digest": digest,
            "cache_hit": cache_hit,
            "elapsed_s": time.perf_counter() - started,
        }

    # -- greek ladders (POST /v1/greeks) ----------------------------------------------
    def greeks_single(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """Full finite-difference Greek ladder for one problem, CRN-batched.

        The default ``engine="batched"`` expands the problem into a common-
        random-number scenario grid (:mod:`repro.pricing.scenarios`) and
        prices the whole ladder through the stacked kernel; ``engine=
        "serial"`` runs the bump-and-revalue oracle instead.  Both return
        the same numbers bit-for-bit.
        """
        problem = problem_from_request(body)
        engine = str(body.get("engine", "batched"))
        started = time.perf_counter()
        report = compute_greeks(
            problem.model,
            problem.product,
            problem.method,
            spot_bump=float(body.get("spot_bump", 0.01)),
            vol_bump=float(body.get("vol_bump", 0.01)),
            rate_bump=float(body.get("rate_bump", 0.0001)),
            theta_bump=float(body.get("theta_bump", 1.0 / 365.0)),
            engine=engine,
        )
        self.count("greek_ladders")
        return {
            **report.as_dict(),
            "label": problem.label,
            "method": problem.method_name,
            "engine": engine,
            "elapsed_s": time.perf_counter() - started,
        }

    # -- portfolio runs (POST /v1/run) ------------------------------------------------
    def submit_run(self, body: Mapping[str, Any]) -> JobRecord:
        """Parse and enqueue one portfolio run; returns its queued record."""
        portfolio, priorities = portfolio_from_request(body)
        batch = bool(body.get("batch", False))
        if batch and priorities:
            raise ServeError(
                "per-position priorities cannot be combined with batch=true "
                "(batching regroups positions into shared-path super-jobs)"
            )
        priority = float(body.get("priority", 0.0))
        record = self.jobs.create(
            portfolio, priority=priority, priorities=priorities, batch=batch
        )
        self.count("runs_submitted")
        with self._queue_cond:
            heapq.heappush(self._queue, (-priority, next(self._ticket), record.id))
            self._queue_cond.notify()
        return record

    def cancel_job(self, job_id: str) -> JobRecord | None:
        """Cancel a queued or running job; ``None`` for unknown ids.

        A queued job is withdrawn outright; a running one has its cancel
        token fired, which withdraws every position still queued master-side
        (in-flight positions finish -- the paper's protocol cannot interrupt
        a slave mid-computation).
        """
        record = self.jobs.get(job_id)
        if record is None:
            return None
        record.cancel.cancel()
        if record.state == "queued":
            record.mark_cancelled()
            self.count("runs_cancelled")
        return record

    def _executor_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._stop.is_set():
                    self._queue_cond.wait(timeout=1.0)
                if self._stop.is_set():
                    return
                _, _, job_id = heapq.heappop(self._queue)
            record = self.jobs.get(job_id)
            if record is None or record.state != "queued":
                continue  # cancelled while queued
            with self._state_lock:
                self._running_job = record.id
            try:
                self._execute(record)
            finally:
                with self._state_lock:
                    self._running_job = None

    def _make_session(self) -> ValuationSession:
        options: dict[str, Any] = {}
        if self.config.backend == "remote":
            options["hosts"] = list(self.live_hosts()) or list(self._hosts)
            # a campaign survives a worker restart: re-dial dead hosts with a
            # capped backoff and bury wedged-but-connected ones in seconds
            options["reconnect"] = True
            options["liveness_timeout"] = 30.0
            if self.config.worker_secret is not None:
                options["secret"] = self.config.worker_secret
        session_kwargs: dict[str, Any] = {
            "backend": self.config.backend,
            "cache": self.cache,
            "backend_options": options or None,
        }
        if self.config.backend != "remote":
            session_kwargs["n_workers"] = self.config.n_workers
        return ValuationSession(**session_kwargs)

    def _execute(self, record: JobRecord) -> None:
        record.mark_running()
        scheduler: Scheduler | None = None
        if record.priorities:
            scheduler = PriorityScheduler(priority=record.priorities)
        try:
            session = self._make_session()
            result = session.run(
                record.portfolio,
                scheduler=scheduler,
                batch=record.batch or None,
                progress=record.add_progress,
                cancel=record.cancel,
            )
        except Exception as exc:  # noqa: BLE001 - one bad run must not kill the daemon
            record.fail(f"{type(exc).__name__}: {exc}")
            self.count("runs_failed")
            return
        report = result.report
        extra = getattr(report, "extra", None) or {}
        with self._state_lock:
            self._campaign_wall_s += float(report.total_time)
            for worker_id, busy in report.worker_busy.items():
                name = self._worker_name(int(worker_id))
                self._busy_s[name] = self._busy_s.get(name, 0.0) + float(busy)
            for key in ("reconnects", "redispatches"):
                if extra.get(key):
                    self._counters[key] = self._counters.get(key, 0) + int(extra[key])
        if report.scheduler == "cache":
            self.count("cache_only_runs")
        record.finish(self._run_payload(result), cancelled=record.cancel.cancelled)
        self.count("runs_cancelled" if record.cancel.cancelled else "runs_completed")

    def _worker_name(self, worker_id: int) -> str:
        if self.config.backend == "remote" and worker_id < len(self._hosts):
            return self._hosts[worker_id]
        return f"worker-{worker_id}"

    @staticmethod
    def _run_payload(result: Any) -> dict[str, Any]:
        """The JSON body of a finished run (submission-ordered, like RunResult)."""
        report = result.report
        payload = {
            "n_jobs": report.n_jobs,
            "n_workers": report.n_workers,
            "strategy": report.strategy,
            "scheduler": report.scheduler,
            "total_time": report.total_time,
            "prices": {str(job_id): price for job_id, price in result.prices().items()},
            "errors": {str(job_id): error for job_id, error in report.errors.items()},
            "results": {
                str(job_id): entry for job_id, entry in report.results.items()
            },
        }
        try:
            payload["value"] = result.value()
        except ReproError:
            payload["value"] = None
        return payload

    # -- worker liveness ---------------------------------------------------------------
    def live_hosts(self) -> tuple[str, ...]:
        with self._state_lock:
            return tuple(h for h in self._hosts if h not in self._dead_hosts)

    def check_workers(self, timeout: float = 5.0) -> dict[str, bool]:
        """Probe every remote worker once; update the dead set.

        A worker that answers the v3 PING keepalive rejoins the live set --
        ``repro-worker`` accept loops survive connection loss, so a "dead"
        address may simply have been restarted.
        """
        if self.config.backend != "remote":
            return {}
        from repro.cluster.worker import probe_worker

        liveness = {
            host: probe_worker(host, timeout=timeout) for host in self._hosts
        }
        with self._state_lock:
            self._dead_hosts = {host for host, ok in liveness.items() if not ok}
        return liveness

    def _monitor_loop(self) -> None:
        interval = self.config.keepalive_interval
        while not self._stop.wait(interval):
            with self._state_lock:
                busy = self._running_job is not None
            if busy:
                continue  # campaign traffic already proves liveness
            self.check_workers(timeout=min(interval, 5.0))

    # -- observability (GET /healthz, /v1/stats) -----------------------------------------
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def healthz(self) -> dict[str, Any]:
        from repro._version import __version__

        dead = len(self._hosts) - len(self.live_hosts()) if self._hosts else 0
        with self._state_lock:
            reconnects = self._counters.get("reconnects", 0)
            redispatches = self._counters.get("redispatches", 0)
        return {
            "status": "degraded" if dead else "ok",
            "version": __version__,
            "backend": self.config.backend,
            "uptime_s": self.uptime_s,
            "workers_dead": dead,
            "reconnects": reconnects,
            "redispatches": redispatches,
        }

    def stats(self) -> dict[str, Any]:
        counts = self.jobs.counts()
        with self._queue_cond:
            queue_depth = len(self._queue)
        with self._state_lock:
            counters = dict(self._counters)
            busy_s = dict(self._busy_s)
            wall = self._campaign_wall_s
            dead_hosts = sorted(self._dead_hosts)
            running = self._running_job
        utilization = {
            name: (busy / wall if wall > 0 else 0.0) for name, busy in busy_s.items()
        }
        return {
            "uptime_s": self.uptime_s,
            "backend": self.config.backend,
            "n_workers": len(self._hosts) or self.config.n_workers,
            "queue_depth": queue_depth,
            "running_job": running,
            "jobs": counts,
            "recent_jobs": self.jobs.recent(12),
            "requests": counters,
            "cache": {
                **self.cache.stats.as_dict(),
                "entries": len(self.cache),
                "max_entries": self.cache.max_entries,
                "directory": str(self.cache.directory) if self.cache.directory else None,
            },
            "workers": {
                "hosts": list(self._hosts),
                "dead": dead_hosts,
                "busy_s": busy_s,
                "utilization": utilization,
                "campaign_wall_s": wall,
                "reconnects": counters.get("reconnects", 0),
                "redispatches": counters.get("redispatches", 0),
            },
        }
