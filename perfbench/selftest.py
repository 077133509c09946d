"""Self-tests of the benchmark harness, at tiny sizes.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  They check that every metric
of ``BENCHMARK.json`` is emitted with its unit, traced and untraced, on every
workload; that a perturbed price trips the correctness checks; that the seed
drives the inputs; and that a renamed traced function fails loudly.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, inputs, run, trace, workloads  # noqa: E402

TINY = {
    (inputs, "GRID_FAMILIES"): 3, (inputs, "GRID_STRIKES"): 2, (inputs, "GRID_PATHS"): 512,
    (inputs, "REALISTIC_SCALE"): 0.004, (inputs, "LADDER_POSITIONS"): 3,
    (inputs, "LADDER_PATHS"): 1024, (inputs, "VAR_PATHS"): 512, (inputs, "VAR_RETURNS"): 4,
    (inputs, "REQUEST_PATHS"): 256, (inputs, "RUN_POSITIONS"): 2,
    (workloads, "SERVE_BLOCK"): 10, (run, "SERVE_BLOCK"): 10,
    (run, "PROBES_PER_CAMPAIGN"): 20, (run, "MIN_PROBES"): 20,
    (run, "SETUP_REPEATS"): 1, (run, "MIN_CAMPAIGNS"): 1,
}


class tiny_sizes:
    """Shrink every workload size for the duration of a ``with`` block."""

    def __enter__(self) -> None:
        self.saved = {key: getattr(*key) for key in TINY}
        for (module, name), value in TINY.items():
            setattr(module, name, value)

    def __exit__(self, *exc: object) -> None:
        for (module, name), value in self.saved.items():
            setattr(module, name, value)


def _declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": {w["name"]: "" for w in spec["workloads"]},
    }


def test_every_metric_emitted_with_its_unit() -> None:
    declared = _declared()
    assert set(declared["workloads"]) == set(workloads.WORKLOADS)
    with tiny_sizes():
        for name in workloads.WORKLOADS:
            for traced in (False, True):
                result = run.run(name, seed=3, seconds=0.05, trace=traced)
                assert result["correct"], (name, traced, result)
                assert result["attempted"] >= 1 and result["failed"] == 0
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                assert emitted == declared["1" if traced else "0"], (name, traced)
                assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_perturbed_price_trips_the_check() -> None:
    with tiny_sizes():
        grid = workloads.GridLocal(seed=5)
        grid.start()
        grid.outputs.append(grid.campaign(grid.prepare()))
        clean = checks.Tally()
        grid.check(clean)
        assert clean.failed == 0
        prices = grid.outputs[0]
        prices[1] = math.nextafter(prices[1], math.inf)
        dirty = checks.Tally()
        grid.check(dirty)
        assert dirty.failed == 1

        oracle = checks.RequestOracle()
        kind, body = next(item for item in inputs.request_mix(5, 10) if item[0] == "price")
        _, result = oracle.expected(kind, body)
        answer = {"price": result.price, "std_error": result.std_error}
        ok = checks.Tally()
        oracle.check(ok, kind, body, answer)
        assert ok.failed == 0
        answer["price"] = result.price * (1 + 1e-12)
        bad = checks.Tally()
        oracle.check(bad, kind, body, answer)
        assert bad.failed == 1


def test_seed_drives_the_inputs() -> None:
    with tiny_sizes():
        def digest(seed: int) -> str:
            books = [inputs.scenario_grid(seed), inputs.realistic_book(seed),
                     *inputs.risk_books(seed)[:2]]
            problems = [p.problem.to_dict() for book in books for p in book]
            return json.dumps([problems, inputs.risk_books(seed)[2],
                               inputs.request_mix(seed, 30)], sort_keys=True)

        assert digest(1) == digest(1)
        assert digest(1) != digest(2)


def test_renamed_target_fails_loudly() -> None:
    for target in ("repro.serial.xdr:encode_renamed",
                   "repro.pricing.cache:ResultCache.get_renamed",
                   "repro.no_such_module:thing"):
        try:
            trace._resolve(target)
        except trace.TraceError:
            continue
        raise AssertionError(f"{target} resolved")
    missing = trace.coverage_errors({}, trace.GRID)
    assert any("repro.pricing.kernel:run_groups" in m for m in missing)


def test_tracer_rebinds_imported_names_and_restores_them() -> None:
    from repro.api import session as session_module
    from repro.pricing import cache

    original = cache.problem_digest
    with trace.Tracer() as tracer:
        assert session_module.problem_digest is not original
        assert cache.problem_digest is session_module.problem_digest
    assert session_module.problem_digest is original is cache.problem_digest
    assert not tracer._patches


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
