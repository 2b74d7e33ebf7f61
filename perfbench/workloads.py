"""The benchmark's workloads: generated configs and correctness gates.

Each workload is one ``gwve`` CLI invocation on a config generated from the
workload's parameters and the benchmark's ``--seed``.  Sizes were chosen on a
2-core host so that one invocation takes about 4 s and every Monte Carlo
verdict passes with a wide margin at any seed.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

E1 = {"rule": "constant", "dist": {"kind": "geometric", "p": 0.5}}
E2 = {"rule": "periodic", "cycle": [
    {"kind": "geometric", "p": 0.5},
    {"kind": "table", "pmf": [0.25, 0.5, 0.25]},
]}

# Final-horizon KS bound for `gwve simulate yaglom`, whose exit code covers
# only budget aborts.  Equal to the package's default "ks" tolerance.
YAGLOM_KS_MAX = 0.02


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # gwve subcommand words
    report_csv: str           # CSV the run must write
    config: dict              # all fields but seed and threads
    threads: int | None = 1   # None: one per available core

    def thread_count(self) -> int:
        return self.threads or nproc()

    def make_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed, "threads": self.thread_count()}


WORKLOADS = {w.name: w for w in (
    # Criterion-7 path: plain GW batches with compaction of extinct
    # replicates, 31 chunks per horizon on the thread pool.  The horizons stop
    # at 200, not 500: the KS distance of the discrete Z_n/a_n to Exp(1) has a
    # bias of about 1/n, and the ~19,900 survivors of 4e6 replicates at n=200
    # keep the final KS below 0.02 at any seed (odds of a miss about 3e-4) for
    # well under half the cost of enough survivors at n=500.
    Workload(
        "yaglom-e1",
        ("simulate", "yaglom"), "yaglom_ks.csv",
        {"environment": E1, "horizons": [50, 200], "replicates": 4_000_000,
         "min_survivors": 19_000},
        threads=None,
    ),
    # The oracle DP, ~10k tiny composition traces and short one-/two-spine
    # batches drawn from reweighted tables, where per-call overhead dominates.
    # Its K_n chi-square row fails at a p-value below 0.001, i.e. at about one
    # seed in a thousand, by design of the check.
    Workload(
        "identities-e2",
        ("check", "identities"), "transform_identities.csv",
        {"environment": E2, "horizons": [2, 6], "kn_horizon": 10, "replicates": 500_000},
    ),
)}


def verdicts(workload: Workload, config: dict, out_dir: Path) -> list[tuple[str, bool]]:
    """(label, passed) for every report row a run wrote.

    Rows with a ``passed`` column pass when it reads ``true``.  The rows of
    ``yaglom_ks.csv`` carry no verdict; its final horizon must have a KS
    distance of at most YAGLOM_KS_MAX and at least ``min_survivors``
    survivors.  A missing report CSV is a failed row of its own."""
    rows = []
    for path in sorted(out_dir.glob("*.csv")):
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if "passed" in (reader.fieldnames or ()):
                rows += [(f"{path.name}:{r['statistic']}@n={r['n']}", r["passed"] == "true")
                         for r in reader]
    ks_path = out_dir / "yaglom_ks.csv"
    if ks_path.exists():
        with ks_path.open(newline="") as fh:
            ks_rows = list(csv.DictReader(fh))
        for i, r in enumerate(ks_rows):
            ok = i < len(ks_rows) - 1 or (
                float(r["ks_exp1"]) <= YAGLOM_KS_MAX
                and int(r["survivors"]) >= config["min_survivors"]
            )
            rows.append((f"yaglom_ks.csv:n={r['n']}", ok))
    if not (out_dir / workload.report_csv).exists():
        rows.append((f"{workload.report_csv}:missing", False))
    return rows


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bodies of every CSV a run wrote."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
