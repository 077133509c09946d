"""Per-layer metrics from a traced run.

Inputs: the merged tracer snapshot (the benchmark process plus, on
serve_mix, the traced daemon), the traced and untraced campaign times and,
on serve_mix, the client-side request records.
"""

from __future__ import annotations

import statistics
from typing import Any, Sequence

from perfbench.trace import TraceError

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.  Layer
#: times are shares of the traced campaign wall time (``*_share``), so a layer
#: that does no work on a workload reads 0 as a ratio, never as a constant
#: time, and machine-speed drift cancels out of the breakdown.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("xdr.encode_share", "ratio"), ("xdr.decode_share", "ratio"), ("xdr.bytes", "B"),
    ("xdr.encodes_per_job", "count"),
    ("cache.digest_share", "ratio"), ("cache.digest_calls", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.puts", "count"),
    ("batch.plan_share", "ratio"), ("batch.groups", "count"),
    ("batch.compute_calls", "count"), ("batch.compute_share", "ratio"),
    ("kernel.run_groups_share", "ratio"), ("kernel.run_groups_calls", "count"),
    ("kernel.groups_per_call", "count"),
    ("scenarios.expand_share", "ratio"), ("scenarios.cells", "count"),
    ("scenarios.assemble_share", "ratio"),
    ("methods.pde_share", "ratio"), ("methods.mc_share", "ratio"),
    ("methods.ls_share", "ratio"), ("methods.cf_share", "ratio"),
    ("backend.dispatch_share", "ratio"), ("backend.collect_wait_share", "ratio"),
    ("backend.busy_frac", "ratio"), ("scheduler.prepare_share", "ratio"),
    ("frames.sent", "count"), ("frames.bytes", "B"),
    ("shm.encode_share", "ratio"), ("shm.bytes", "B"),
    ("serve.server_share", "ratio"),
    ("session.self_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

#: position category -> pricing-method family.  The scenario cells of the
#: risk_mp books (category "scenario") are Monte-Carlo calls.
CATEGORY_FAMILY = {
    "vanilla_cf": "cf", "barrier_pde": "pde", "american_pde": "pde",
    "basket_mc": "mc", "localvol_mc": "mc", "american_basket_ls": "ls",
    "scenario_mc": "mc", "vanilla_mc": "mc", "scenario": "mc",
}


def merge(snapshots: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Sum several tracer snapshots (benchmark process + traced daemon)."""
    merged: dict[str, Any] = {"seconds": {}, "calls": {}, "amounts": {}, "fired": {},
                              "session_covered": 0.0, "reports": []}
    for snap in snapshots:
        for field in ("seconds", "calls", "amounts", "fired"):
            for key, value in snap[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
        merged["session_covered"] += snap["session_covered"]
        merged["reports"].extend(snap["reports"])
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(snap: dict[str, Any], traced_s: Sequence[float],
              untraced_s: Sequence[float],
              serve_records: Sequence[tuple] = ()) -> dict[str, float]:
    """Compute every :data:`PER_LAYER` metric (0 where a layer did no work).

    Counts are per traced campaign; ``*_share`` values divide the time spent
    in a layer by the summed wall time of the traced campaigns; worker-side
    shares (``methods.*``, ``backend.busy_frac`` and ``batch.compute_share``
    on out-of-process backends) divide by the worker capacity, workers x wall.
    """
    seconds, calls, amounts = snap["seconds"], snap["calls"], snap["amounts"]
    n = float(len(traced_s))
    wall = sum(traced_s)

    def share(key: str) -> float:
        return seconds.get(key, 0.0) / wall

    families = {"pde": 0.0, "mc": 0.0, "ls": 0.0, "cf": 0.0}
    busy = workers = 0.0
    for report in snap["reports"]:
        for category, spent in report["category_times"].items():
            if category not in CATEGORY_FAMILY:
                raise TraceError(f"unknown position category {category!r} in a run report")
            families[CATEGORY_FAMILY[category]] += spent
        busy += sum(report["worker_busy"].values())
        workers = max(workers, float(report["n_workers"]))
    capacity = workers * wall
    jobs = calls.get("scheduler.prepare", 0)  # every dispatched job is prepared once
    batch_jobs = amounts.get("backend.dispatch", 0.0)

    if calls.get("batch.compute"):
        compute_calls, compute_share = calls["batch.compute"] / n, share("batch.compute")
    else:
        # out-of-process backends: each batch job runs one ProblemBatch.compute
        # in a worker; its share of the workers' busy time is the batch jobs'
        # share of all jobs (exact on risk_mp, where every job is a batch)
        compute_calls = batch_jobs / n
        compute_share = _ratio(busy, capacity) * _ratio(batch_jobs, jobs)

    server = [r[5] / r[4] for r in serve_records if r[5] is not None]
    values = {
        "xdr.encode_share": share("xdr.encode"),
        "xdr.decode_share": share("xdr.decode"),
        "xdr.bytes": amounts.get("xdr.encode", 0.0) / n,
        "xdr.encodes_per_job": _ratio(calls.get("xdr.encode", 0), jobs),
        "cache.digest_share": share("cache.digest"),
        "cache.digest_calls": calls.get("cache.digest", 0) / n,
        "cache.hit_ratio": _ratio(amounts.get("cache.get", 0.0), calls.get("cache.get", 0)),
        "cache.puts": calls.get("cache.put", 0) / n,
        "batch.plan_share": share("batch.plan"),
        "batch.groups": amounts.get("batch.plan", 0.0) / n,
        "batch.compute_calls": compute_calls,
        "batch.compute_share": compute_share,
        "kernel.run_groups_share": share("kernel.run_groups"),
        "kernel.run_groups_calls": calls.get("kernel.run_groups", 0) / n,
        "kernel.groups_per_call": _ratio(amounts.get("kernel.run_groups", 0.0),
                                         calls.get("kernel.run_groups", 0)),
        "scenarios.expand_share": share("scenarios.expand"),
        "scenarios.cells": amounts.get("scenarios.expand", 0.0) / n,
        "scenarios.assemble_share": share("scenarios.assemble"),
        "methods.pde_share": _ratio(families["pde"], capacity),
        "methods.mc_share": _ratio(families["mc"], capacity),
        "methods.ls_share": _ratio(families["ls"], capacity),
        "methods.cf_share": _ratio(families["cf"], capacity),
        "backend.dispatch_share": share("backend.dispatch"),
        "backend.collect_wait_share": share("backend.collect"),
        "backend.busy_frac": _ratio(busy, capacity),
        "scheduler.prepare_share": share("scheduler.prepare"),
        "frames.sent": calls.get("frames.encode", 0) / n,
        "frames.bytes": amounts.get("frames.encode", 0.0) / n,
        "shm.encode_share": share("shm.encode"),
        "shm.bytes": amounts.get("shm.publish", 0.0) / n,
        "serve.server_share": statistics.median(server) if server else 0.0,
        "session.self_share": (seconds.get("session", 0.0) - snap["session_covered"]) / wall,
        "trace.overhead_share": statistics.median(traced_s) / statistics.median(untraced_s) - 1,
    }
    assert list(values) == [name for name, _ in PER_LAYER]
    return values
