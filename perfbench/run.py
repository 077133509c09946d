"""The repository benchmark: one workload per run, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown (see README.md).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
progress and failure details go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import multiprocessing
from multiprocessing import resource_tracker
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread per process: the load is the benchmark's own client threads
# and worker processes (at most 2, one per core), not hidden BLAS threads;
# set before numpy loads, and inherited by every child interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, inputs, layers  # noqa: E402
from perfbench.trace import Tracer, coverage_errors  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SERVE_BLOCK,
    WORKLOADS,
    Daemon,
    ServeMix,
    child_env,
)

#: setups timed per run (the median is reported)
SETUP_REPEATS = 3
MIN_CAMPAIGNS = 3
#: small requests sent through the session after each campaign (untraced
#: session workloads), and the least per run, so p90 has 10 samples above it
PROBES_PER_CAMPAIGN = 12
MIN_PROBES = 100
TMP_DIR = ROOT / ".perfbench_tmp"

E2E_UNITS = {
    "campaign_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "req_per_s": "1/s",
    "price_p50_ms": "ms", "greeks_p50_ms": "ms", "run_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- set-up time -------------------------------------------------------------------


def _time_setup_probe(workload: str) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, env=child_env(), text=True, cwd=str(ROOT))
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line != "ready":
        raise RuntimeError(f"setup probe for {workload} failed ({line!r})")
    return elapsed


def measure_setup(workload: str) -> tuple[float, Daemon | None]:
    """Median set-up wall time over :data:`SETUP_REPEATS` fresh interpreters.

    For serve_mix a set-up is a daemon start until ``/healthz`` reports ok;
    the last daemon is kept running and returned for the measurement.
    """
    times = []
    daemon = None
    for index in range(SETUP_REPEATS):
        if workload == ServeMix.name:
            start = time.perf_counter()
            daemon = Daemon()
            times.append(time.perf_counter() - start)
            if index < SETUP_REPEATS - 1:
                daemon.stop()
        else:
            times.append(_time_setup_probe(workload))
    return statistics.median(times), daemon


# -- measurement loops -------------------------------------------------------------


def run_campaigns(wl, until: float, between=None) -> list[float]:
    """Timed campaigns until ``until`` (perf_counter), at least
    :data:`MIN_CAMPAIGNS`; ``between()`` runs after each one."""
    walls: list[float] = []
    while len(walls) < MIN_CAMPAIGNS or time.perf_counter() < until:
        prepared = wl.prepare()
        gc.collect()
        start = time.perf_counter()
        output = wl.campaign(prepared)
        walls.append(time.perf_counter() - start)
        if output is not None:
            wl.outputs.append(output)
        if between is not None:
            between()
    return walls


class Probes:
    """The serve_mix request kinds sent one by one through a session workload,
    :data:`PROBES_PER_CAMPAIGN` after each campaign, so the latency samples
    spread over the whole measurement window like the campaigns do."""

    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        self.mix = itertools.cycle(inputs.request_mix(seed, 240))
        self.records: list[tuple] = []

    def __call__(self) -> None:
        for _ in range(PROBES_PER_CAMPAIGN):
            kind, body = next(self.mix)
            latency, answer = self.wl.probe(kind, body)
            self.records.append((kind, body, 200, answer, latency, None))


def _p(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(records: list[tuple], wall: float) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {"price": [], "greeks": [], "run": []}
    for kind, _, _, _, latency, _ in records:
        by_kind[kind].append(latency * 1e3)
    every = [v for values in by_kind.values() for v in values]
    return {
        "req_per_s": len(records) / wall,
        "price_p50_ms": statistics.median(by_kind["price"]),
        "greeks_p50_ms": statistics.median(by_kind["greeks"]),
        "run_p50_ms": statistics.median(by_kind["run"]),
        "latency_p90_ms": _p(every, 90),
    }


# -- isolation ---------------------------------------------------------------------


def _child_pids() -> set[int]:
    """Live children, minus multiprocessing's shared-memory resource tracker
    (a per-interpreter helper that lives until exit, not a leak)."""
    pids: set[int] = set()
    task_dir = Path("/proc/self/task")
    if task_dir.is_dir():
        for task in task_dir.iterdir():
            try:
                pids.update(int(p) for p in (task / "children").read_text().split())
            except OSError:
                continue
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    return pids - {tracker}


def leftovers(owner_pids: set[int]) -> list[str]:
    """Child processes still alive and shm segments left by this run's processes."""
    deadline = time.monotonic() + 5.0
    while True:
        multiprocessing.active_children()  # reaps finished children
        children = _child_pids()
        if not children or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    found = [f"child process {pid} still running" for pid in sorted(children)]
    shm = Path("/dev/shm")
    if shm.is_dir():
        prefixes = tuple(f"rshm{pid}" for pid in owner_pids)
        found += [f"shared-memory segment {entry.name} left behind"
                  for entry in shm.iterdir() if entry.name.startswith(prefixes)]
    return found


def reap_children() -> None:
    """Stop every process this run started, and wait for each to end.

    Children still alive here were already counted by :func:`leftovers`;
    they are killed so none outlives the run.  Then the resource tracker is
    stopped and waited for: left to exit on its own after this interpreter,
    it would briefly outlive the benchmark.
    """
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- the run -----------------------------------------------------------------------


def measure_untraced(wl, seed: int, seconds: float) -> tuple[list[float], list, dict]:
    """Campaigns (and, on session workloads, probes) for ``seconds``."""
    if isinstance(wl, ServeMix):
        walls = run_campaigns(wl, time.perf_counter() + seconds)
        records = wl.records
        metrics = latency_metrics(records[SERVE_BLOCK:], sum(walls))  # minus warm-up
    else:
        probes = Probes(wl, seed)
        walls = run_campaigns(wl, time.perf_counter() + seconds, between=probes)
        while len(probes.records) < MIN_PROBES:
            probes()
        records = probes.records
        metrics = latency_metrics(records, sum(r[4] for r in records))
    metrics["campaign_s"] = statistics.median(walls)
    return walls, records, metrics


def measure_traced(wl, seconds: float, owners: set[int]) -> tuple[list[float], list, dict]:
    """Half the window untraced, half traced; per-layer metrics of the traced half."""
    untraced = run_campaigns(wl, time.perf_counter() + seconds / 2)
    serve = isinstance(wl, ServeMix)
    trace_out = TMP_DIR / f"trace-{os.getpid()}.json"
    if serve:  # the traced half runs on a daemon started under the wrappers
        wl.stop()
        TMP_DIR.mkdir(exist_ok=True)
        wl.start(trace_out=trace_out)
        owners.add(wl.daemon.proc.pid)
    deadline = time.perf_counter() + seconds / 2
    with Tracer() as tracer:
        traced = run_campaigns(wl, deadline)
    snapshots = [tracer.snapshot()]
    records: list = []
    if serve:
        wl.stop()
        snapshots.append(json.loads(trace_out.read_text()))
        trace_out.unlink()
        TMP_DIR.rmdir()
        records = wl.records
    snap = layers.merge(snapshots)
    missing = coverage_errors(snap["fired"], wl.name)
    if missing:
        raise SystemExit("traced run incomplete:\n  " + "\n  ".join(missing))
    return traced, records, layers.per_layer(snap, traced, untraced, records)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed by :func:`main`."""
    wl = WORKLOADS[workload](seed)
    owners = {os.getpid()}
    setup_s, daemon = (None, None) if trace else measure_setup(workload)
    try:
        if isinstance(wl, ServeMix):
            wl.start(daemon=daemon)
            owners.add(wl.daemon.proc.pid)
        else:
            wl.start()
        warmup = wl.campaign(wl.prepare())  # checked, not timed
        if warmup is not None:
            wl.outputs.append(warmup)
        if trace:
            walls, records, metrics = measure_traced(wl, seconds, owners)
        else:
            walls, records, metrics = measure_untraced(wl, seed, seconds)
            metrics["setup_s"] = setup_s
    finally:
        wl.stop()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{workload}: {len(walls)} campaigns, median {statistics.median(walls):.4f} s, "
        f"range {min(walls):.4f}-{max(walls):.4f} s; {len(records)} small requests")

    started = time.perf_counter()
    tally = checks.Tally()
    wl.check(tally)
    if records and not isinstance(wl, ServeMix):
        oracle = checks.RequestOracle()
        for kind, body, _, answer, _, _ in records:
            oracle.check(tally, kind, body, answer)
    for problem in leftovers(owners):
        tally.fail(problem)
    log(f"checks: {tally.attempted} values in {time.perf_counter() - started:.1f} s")
    for message in tally.messages:
        log(f"check failed: {message}")
    units = dict(layers.PER_LAYER) if trace else E2E_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds through the tear-down below like an error
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        reap_children()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
