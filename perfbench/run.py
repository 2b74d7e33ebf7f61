"""Benchmark of the gwve CLI: end-to-end timings or a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload yaglom-e1 --seed 20201124 --seconds 45 --trace 0

Every invocation is one ``gwve`` CLI call (``gwve.cli.main``) in a fresh
Python process with ``PYTHONPATH=src``, on a config generated from the
workload and the seed.  Each invocation must exit 0, and every report row it
writes must pass (see ``workloads.verdicts``).  All invocations of one
workload at one seed on one source tree must write byte-identical CSV
bodies; digests are kept in ``.perfbench_work/digests.json`` and compared
only between runs of the same source tree.

``--trace 0`` repeats the invocation for ``--seconds`` (at least three times)
and reports the medians of ``wall_s`` (time in ``cli.main``), ``setup_s``
(time to ``import gwve.cli``) and ``peak_rss_mb``.
``--trace 1`` makes one untraced and one traced invocation and reports
per-layer self times and work counts, the tracing overhead, and cumulative
import times from ``python -X importtime``.

Failed operations (report rows, runs and the determinism check) are counted
in ``failed`` against ``attempted``.  The last line of standard output is the
result object; the line before it holds provenance and every raw value.
The exit code is nonzero, with no result printed, when the benchmark itself
cannot run, e.g. when the checkout has no ``src/gwve``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, Workload, csv_digest, nproc, verdicts

DEFAULT_SEED = 20201124
MIN_INVOCATIONS = 3
RUN_BUDGET_S = 120    # no new invocation is started that would end past this
CHILD_TIMEOUT_S = 150
CHILD = Path(__file__).resolve().parent / "child.py"


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


class Bench:
    """Runs invocations of one workload from the checkout at ``root``."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        if not (root / "src" / "gwve" / "cli.py").is_file():
            raise BenchError(f"no gwve sources under {root / 'src'}")
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = workload.make_config(seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def _child(self, mode: str, argv=()) -> dict:
        report = self.work / f"{mode}.json"
        report.unlink(missing_ok=True)
        spec = {"mode": mode, "argv": list(argv), "report": str(report)}
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)], cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} invocation exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not report.exists():
            raise BenchError(f"{mode} child failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(report.read_text())

    def warm_up(self) -> None:
        """Import once so bytecode caches exist before anything is timed."""
        self._child("import")

    def invoke(self, mode: str) -> dict:
        """One CLI invocation with its gates applied."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [*self.workload.command, "--config", str(self.config_path),
                "--out", str(out), "--quiet"]
        rep = self._child(mode, argv)
        out.mkdir(exist_ok=True)
        rows = verdicts(self.workload, self.config, out)
        bad = [label for label, ok in rows if not ok]
        run_failed = rep["rc"] != 0 or bool(bad)
        self.attempted += len(rows) + 1
        self.failed += len(bad) + run_failed
        if rep["rc"] != 0:
            self.failures.append(f"{mode} run exited {rep['rc']}: {rep.get('error', '')}")
        self.failures += [f"{mode} row failed: {label}" for label in bad]
        rep["digest"] = csv_digest(out)
        rep["rows"] = len(rows)
        rep["failed_rows"] = len(bad)
        self.digests.append(rep["digest"])
        return rep

    def check_determinism(self) -> None:
        """All invocations, and earlier runs of this source tree on the same
        generated inputs, must agree."""
        store = self.root / ".perfbench_work" / "digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        inputs = json.dumps([self.workload.command, self.config], sort_keys=True)
        key = f"{source_digest(self.root)}/{hashlib.sha256(inputs.encode()).hexdigest()[:16]}"
        expected = known.setdefault(key, self.digests[0])
        self.attempted += 1
        if any(d != expected for d in self.digests):
            self.failed += 1
            self.failures.append(f"CSV digests differ: {sorted(set(self.digests))} vs {expected}")
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)

    def import_times(self) -> dict:
        """Cumulative import times (s) of gwve.cli and gwve.experiments."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gwve.cli"], cwd=self.root,
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        return {f"{name}.import_s": (found.get(name, 0.0), "s")
                for name in ("gwve.cli", "gwve.experiments")}


def source_digest(root: Path) -> str:
    """Identity of the source tree; the checkout need not be a git repository."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def measure(bench: Bench, seconds: float) -> tuple[dict, list]:
    """End-to-end medians over invocations repeated for `seconds`."""
    bench.warm_up()
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(bench.invoke("plain"))
        now = time.perf_counter()
        if len(reps) >= MIN_INVOCATIONS and now - start >= seconds:
            break
        if now - start + (now - t0) > RUN_BUDGET_S:
            break
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, reps


def traced(bench: Bench) -> tuple[dict, list]:
    """Per-layer metrics from one traced invocation, plus its overhead."""
    bench.warm_up()
    plain = bench.invoke("plain")
    trace = bench.invoke("trace")
    metrics = layer_metrics(trace["trace"], bench.workload.thread_count())
    metrics["trace.wall_s"] = (trace["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (trace["wall_s"] - plain["wall_s"], "s")
    metrics.update(bench.import_times())
    return metrics, [plain, trace]


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(detail record, result object) of one benchmark run."""
    bench = Bench(root, workload, seed)
    metrics, reps = traced(bench) if trace else measure(bench, seconds)
    bench.check_determinism()
    detail = {
        "workload": workload.name,
        "trace": trace,
        "provenance": {
            "commit": git_commit(root),
            "source_digest": source_digest(root),
            "versions": reps[0]["versions"],
            "nproc": nproc(),
            "seed": seed,
            "threads": workload.thread_count(),
        },
        "config": bench.config,
        "invocations": [{k: v for k, v in r.items() if k not in ("trace", "versions")}
                        for r in reps],
        "fail_frac": bench.failed / bench.attempted,
        "failures": bench.failures,
    }
    if trace:
        detail["absent"] = reps[-1]["trace"]["absent"]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        detail, result = run(Path.cwd(), WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
