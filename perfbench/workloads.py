"""The four workloads, each driven through a public entry point only.

A workload builds fresh inputs for every campaign (untimed), runs one
campaign through its entry point (timed by the caller), answers small
requests for the latency probes, and checks everything it returned against
in-process references (untimed, see :mod:`perfbench.checks`).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from perfbench import checks, inputs
from repro.api import ValuationSession
from repro.cluster.worker import spawn_local_workers
from repro.serve.parse import portfolio_from_request

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
LISTEN_PREFIX = "repro-serve listening on "
#: client threads and worker processes (the benchmark box has 2 cores)
N_WORKERS = 2
#: requests per serve_mix campaign (one closed-loop block of the mix)
SERVE_BLOCK = 60


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src/`` and the repo root on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


class SessionWorkload:
    """Shared plumbing of the three ``ValuationSession`` workloads."""

    name = ""
    backend = ""
    n_workers: int | None = N_WORKERS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session: ValuationSession | None = None
        self.outputs: list[Any] = []

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        self.session = ValuationSession(self.backend, n_workers=self.n_workers)

    def stop(self) -> None:
        self.session = None

    # -- campaigns -----------------------------------------------------------------
    def prepare(self) -> Any:
        """Fresh inputs for one campaign (untimed)."""
        raise NotImplementedError

    def campaign(self, prepared: Any) -> Any:
        """One timed campaign through the public entry point."""
        raise NotImplementedError

    def check(self, tally: checks.Tally) -> None:
        raise NotImplementedError

    # -- small-request probes (the serve_mix request kinds, through the session) --
    def probe(self, kind: str, body: dict) -> Any:
        assert self.session is not None
        entries = body["positions"] if kind == "run" else [body]
        portfolio, _ = portfolio_from_request({"positions": entries})
        start = time.perf_counter()
        if kind == "greeks":
            report = self.session.greeks(portfolio)
            elapsed = time.perf_counter() - start
            position = report.positions[0]
            answer = {f: getattr(position, f)
                      for f in ("price", "delta", "gamma", "vega", "rho", "theta")}
            return elapsed, answer
        result = self.session.run(portfolio)
        elapsed = time.perf_counter() - start
        if kind == "run":
            return elapsed, checks.run_prices(result, len(entries))
        entry = result.report.results.get(0) or {}
        return elapsed, {"price": entry.get("price"), "std_error": entry.get("std_error")}


class GridLocal(SessionWorkload):
    """210 CRN basket puts in one draw cohort, batched + stacked, local backend."""

    name = "grid_local"
    backend = "local"
    n_workers = None

    def prepare(self) -> Any:
        return inputs.scenario_grid(self.seed)

    def campaign(self, prepared: Any) -> Any:
        assert self.session is not None
        result = self.session.run(prepared, batch=True, kernel="stacked")
        return checks.run_prices(result, len(prepared))

    def check(self, tally: checks.Tally) -> None:
        fresh = inputs.scenario_grid(self.seed)
        expected = checks.reference_prices(fresh)
        for prices in self.outputs:
            checks.check_prices(tally, self.name, prices, expected)
        checks.check_grid_shape(tally, fresh, expected, inputs.GRID_STRIKES)


class RealisticRemote(SessionWorkload):
    """The Table III book, unbatched, on two loopback ``repro-worker`` servers."""

    name = "realistic_remote"
    backend = "remote"

    def start(self) -> None:
        self.pool = spawn_local_workers(N_WORKERS)
        self.session = ValuationSession(
            "remote", backend_options={"hosts": list(self.pool.hosts)})

    def stop(self) -> None:
        if self.session is not None:
            self.pool.stop()
            self.session = None

    def prepare(self) -> Any:
        return inputs.realistic_book(self.seed)

    def campaign(self, prepared: Any) -> Any:
        assert self.session is not None
        return checks.run_prices(self.session.run(prepared), len(prepared))

    def check(self, tally: checks.Tally) -> None:
        fresh = inputs.realistic_book(self.seed)
        expected = checks.reference_prices(fresh)
        for prices in self.outputs:
            checks.check_prices(tally, self.name, prices, expected)
        checks.check_vanilla_cf(tally, fresh, expected)


class RiskMP(SessionWorkload):
    """A Greek ladder then a historical-VaR campaign, two worker processes."""

    name = "risk_mp"
    backend = "multiprocessing"

    def prepare(self) -> Any:
        return inputs.risk_books(self.seed)

    def campaign(self, prepared: Any) -> Any:
        assert self.session is not None
        ladder, var_book, returns = prepared
        return (self.session.greeks(ladder),
                self.session.risk(var_book, spot_returns=returns))

    def check(self, tally: checks.Tally) -> None:
        ladder, var_book, returns = inputs.risk_books(self.seed)
        checks.check_greeks(tally, [g for g, _ in self.outputs], ladder)
        checks.check_var(tally, [v for _, v in self.outputs], var_book, returns)


# -- serve_mix --------------------------------------------------------------------


def _http(url: str, body: dict | None = None, timeout: float = 60.0) -> tuple[int, Any]:
    """One request on a fresh connection; ``(status, JSON body or None)``.

    The client aborts the connection once the response is read (``SO_LINGER``
    0), so no ``TIME_WAIT`` sockets pile up on the loopback interface: tens
    of thousands of them from earlier runs slow every ``connect()`` and would
    make one run's latency depend on what ran in the minute before it.
    """
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.connect()
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        if body is None:
            conn.request("GET", parts.path)
        else:
            conn.request("POST", parts.path, body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    return response.status, json.loads(payload) if response.status == 200 else None


class Daemon:
    """A ``repro.serve`` subprocess (local backend, 2 workers) on a free port.

    ``trace_out`` starts it through :mod:`perfbench.serve_daemon`, which runs
    the same ``repro.serve`` entry point with the layer wrappers installed and
    dumps their counters to ``trace_out`` on shutdown.
    """

    def __init__(self, trace_out: Path | None = None) -> None:
        args = ["--port", "0", "--backend", "local", "--workers", str(N_WORKERS)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_daemon.py"), str(trace_out), *args]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=child_env(),
                                     text=True, cwd=str(ROOT))
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().strip()
        if not line.startswith(LISTEN_PREFIX):
            self.kill()
            raise RuntimeError(f"unexpected daemon greeting: {line!r}")
        self.url = line[len(LISTEN_PREFIX):]
        deadline = time.monotonic() + 30.0
        while True:
            try:
                status, health = _http(self.url + "/healthz", timeout=5.0)
            except OSError:
                status, health = 0, None
            if status == 200 and health and health.get("status") == "ok":
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                _http(self.url + "/v1/shutdown", {}, timeout=10.0)
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServeMix:
    """A closed loop of 2 client threads against one ``repro.serve`` daemon."""

    name = "serve_mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mix = inputs.request_mix(seed, 8000)
        self.daemon: Daemon | None = None
        self.pool: ThreadPoolExecutor | None = None
        self._cursor = 0
        #: (kind, body, status, answer, client latency s, server elapsed s)
        self.records: list[tuple[str, dict, int, Any, float, float | None]] = []
        self._lock = threading.Lock()

    def start(self, daemon: Daemon | None = None, trace_out: Path | None = None) -> None:
        self.daemon = daemon or Daemon(trace_out)
        self.pool = ThreadPoolExecutor(max_workers=N_WORKERS)
        self._cursor = 0

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def prepare(self) -> Any:
        block = [self.mix[(self._cursor + i) % len(self.mix)] for i in range(SERVE_BLOCK)]
        self._cursor += SERVE_BLOCK
        return block

    def campaign(self, prepared: Any) -> Any:
        assert self.pool is not None
        queue = list(reversed(prepared))
        futures = [self.pool.submit(self._client, queue) for _ in range(N_WORKERS)]
        for future in futures:
            future.result()
        return None

    def _client(self, queue: list) -> None:
        assert self.daemon is not None
        url = self.daemon.url
        while True:
            with self._lock:
                if not queue:
                    return
                kind, body = queue.pop()
            start = time.perf_counter()
            try:
                status, answer = _http(f"{url}/v1/{kind}", body)
            except OSError:  # a dropped connection is a failed request
                status, answer = 0, None
            latency = time.perf_counter() - start
            server = None
            if kind != "run" and answer is not None:
                server = answer.get("elapsed_s")
            elif answer is not None:
                result = answer.get("result") or {}
                prices = result.get("prices") or {}
                errors = result.get("errors") or {}
                answer = [None if str(i) in errors else prices.get(str(i))
                          for i in range(len(body["positions"]))]
            with self._lock:
                self.records.append((kind, body, status, answer, latency, server))

    def check(self, tally: checks.Tally) -> None:
        oracle = checks.RequestOracle()
        for kind, body, status, answer, _, _ in self.records:
            if not tally.check(status == 200 and answer is not None,
                               f"POST /v1/{kind} answered HTTP {status}"):
                continue
            oracle.check(tally, kind, body, answer)


WORKLOADS = {cls.name: cls for cls in (GridLocal, RealisticRemote, RiskMP, ServeMix)}
