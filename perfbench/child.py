"""One gwve CLI invocation in a fresh process, timed from inside it.

Usage: python3 child.py '<json spec>'   (run with PYTHONPATH=src)

The spec has ``mode`` ("plain", "trace" or "import"), ``argv`` for
``gwve.cli.main``, and ``report``, the path the timing report is written to.
``setup_s`` is the time to ``import gwve.cli``; ``wall_s`` runs from the call
of ``cli.main`` to its return.  In trace mode the tracer is installed after
the import and before the call, so ``setup_s`` stays untraced.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from importlib import import_module, metadata


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    cli = import_module("gwve.cli")
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s}

    tracer = None
    if spec["mode"] == "trace":
        from tracer import LAYERS, Tracer

        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = import_module(f"gwve.{layer}")
            except ModuleNotFoundError:
                pass  # its targets are reported as absent
        tracer = Tracer()
        tracer.install(modules, [m for n, m in list(sys.modules.items())
                                 if n == "gwve" or n.startswith("gwve.")])
        cli = sys.modules["gwve.cli"]

    if spec["mode"] != "import":
        t1 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # reported as a failed run, not a harness error
            report["error"] = traceback.format_exc(limit=5)
            rc = None
        report["wall_s"] = time.perf_counter() - t1
        report["rc"] = rc

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = {
        "python": sys.version.split()[0],
        "gwve": getattr(sys.modules["gwve"], "__version__", None),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy")},
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
