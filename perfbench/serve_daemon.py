"""Run the ``repro.serve`` daemon with the layer wrappers installed.

Usage (``src/`` and the repository root on ``PYTHONPATH``):
``python3 perfbench/serve_daemon.py <trace.json> [repro-serve args]``.
The daemon is the unmodified ``repro.serve.app.main``; on shutdown the
tracer's counters are written to ``<trace.json>`` for ``run.py --trace 1``.
"""

import json
import sys
from pathlib import Path

from perfbench.trace import Tracer
from repro.serve import app


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer().install()
    try:
        code = app.main(argv[1:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
