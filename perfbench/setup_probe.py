"""Set up one workload's session or worker pool in a fresh interpreter.

``run.py`` times this script from launch until it prints ``ready`` (that is
``setup_s``: importing ``repro`` plus building the session or pool), then
lets it tear down and exit.  Usage: ``python3 perfbench/setup_probe.py
<grid_local|realistic_remote|risk_mp>``.
"""

import sys
from multiprocessing import resource_tracker

from repro.api import ValuationSession
from repro.cluster.worker import spawn_local_workers

N_WORKERS = 2


def main(workload: str) -> int:
    pool = None
    if workload == "grid_local":
        ValuationSession("local")
    elif workload == "risk_mp":
        ValuationSession("multiprocessing", n_workers=N_WORKERS)
    elif workload == "realistic_remote":
        pool = spawn_local_workers(N_WORKERS)
        ValuationSession("remote", backend_options={"hosts": list(pool.hosts)})
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if pool is not None:
        pool.stop()
    # the resource tracker would otherwise outlive this interpreter briefly
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
