"""Tests of the benchmark harness on tiny workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import E1, E2, Workload  # noqa: E402

SEED = 7
TINY_YAGLOM = Workload(
    "tiny-yaglom", ("simulate", "yaglom"), "yaglom_ks.csv",
    {"environment": E1, "horizons": [50, 100], "replicates": 200_000,
     "min_survivors": 1000, "chunk_size": 25_000},
    threads=2,
)
TINY_IDENTITIES = Workload(
    "tiny-identities", ("check", "identities"), "transform_identities.csv",
    {"environment": E2, "horizons": [2, 3], "kn_horizon": 4, "replicates": 20_000},
)


def _values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def yaglom_traces():
    return [run.run(ROOT, TINY_YAGLOM, SEED, 0, trace=True) for _ in range(2)]


@pytest.fixture(scope="module")
def identities_trace():
    return run.run(ROOT, TINY_IDENTITIES, SEED, 0, trace=True)


def test_traced_counts_repeat_exactly(yaglom_traces):
    (_, first), (_, second) = yaglom_traces
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert {"offspring.sum_sample.elems", "streams.stream.calls", "spines.replicates"} <= counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert _values(first)["spines.replicates"] == 2 * 200_000
    for name in ("experiments.survivor_yield", "spines.abort_frac"):
        assert _values(first)[name] == _values(second)[name]


def test_tracing_keeps_outputs(yaglom_traces):
    digests = {inv["digest"] for detail, _ in yaglom_traces for inv in detail["invocations"]}
    assert len(digests) == 1
    for detail, _ in yaglom_traces:
        assert [inv["rc"] for inv in detail["invocations"]] == [0, 0]
        assert detail["absent"] == []


def test_self_times_nonnegative_and_within_wall(yaglom_traces, identities_trace):
    for (_, result), threads in ((identities_trace, 1), (yaglom_traces[0], 2)):
        values = _values(result)
        self_times = {k: v for k, v in values.items() if k.endswith(".self_s")}
        assert all(v >= 0.0 for v in self_times.values()), self_times
        layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        # Pool threads run side by side, so their self times may add up to
        # more than the wall time, but never to more than threads x wall.
        assert layer_sum <= threads * values["trace.wall_s"] + 1e-9
        assert values["cli.calls"] >= 1 and values["config.self_s"] > 0.0


def test_busy_fraction_and_yield_are_shares(yaglom_traces):
    values = _values(yaglom_traces[0][1])
    assert 0.0 < values["experiments.mc_busy_frac"] <= 1.0
    assert 0.0 < values["experiments.survivor_yield"] < 1.0


def test_failing_verdict_is_counted():
    strict = Workload(
        "tiny-strict", ("check", "exponential"), "exponential_characterization.csv",
        {"environment": E2, "horizons": [20], "replicates": 2000,
         "lambda_grid": [0.1, 0.5, 2.0], "tolerances": {"closed_form": 0.0}},
    )
    detail, result = run.run(ROOT, strict, SEED, 0, trace=False)
    invocations = detail["invocations"]
    assert len(invocations) == run.MIN_INVOCATIONS
    assert all(inv["rc"] == 1 and inv["failed_rows"] >= 1 for inv in invocations)
    rows = invocations[0]["rows"]
    assert result["attempted"] == run.MIN_INVOCATIONS * (rows + 1) + 1
    assert result["failed"] == sum(inv["failed_rows"] + 1 for inv in invocations)
    assert not result["correct"]
    assert detail["fail_frac"] == result["failed"] / result["attempted"]


def test_yaglom_floor_miss_is_counted():
    starved = Workload(
        "tiny-starved", ("simulate", "yaglom"), "yaglom_ks.csv",
        {"environment": E1, "horizons": [10], "replicates": 5000, "min_survivors": 10**6},
    )
    detail, result = run.run(ROOT, starved, SEED, 0, trace=False)
    assert all(inv["rc"] == 0 and inv["failed_rows"] == 1 for inv in detail["invocations"])
    assert result["failed"] == 2 * run.MIN_INVOCATIONS


def test_digest_mismatch_with_an_earlier_run_is_counted():
    exact = Workload(
        "tiny-exact", ("check", "decomposition"), "decomposition.csv",
        {"environment": E2, "horizons": [10, 20], "lambda_grid": [0.5]},
    )
    _, first = run.run(ROOT, exact, SEED, 0, trace=False)
    _, again = run.run(ROOT, exact, SEED, 0, trace=False)
    assert first["correct"] and again["correct"]

    store = ROOT / ".perfbench_work" / "digests.json"
    saved = store.read_text()
    store.write_text(json.dumps({k: "0" * 64 for k in json.loads(saved)}))
    try:
        detail, result = run.run(ROOT, exact, SEED, 0, trace=False)
    finally:
        store.write_text(saved)
    assert result["failed"] == 1 and not result["correct"]
    assert detail["failures"][0].startswith("CSV digests differ")


def test_benchmark_json_names_every_printed_metric(yaglom_traces):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {k: m["unit"] for k, m in yaglom_traces[0][1]["metrics"].items()}
    assert per_layer == printed
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yaglom-e1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_by_name_threads_and_absent():
    layer = types.ModuleType("fakepkg.layer")

    def work(x):
        return 2 * x + 1

    class Thing:
        def __init__(self, v):
            self.v = v

        def sample(self, rng=None, size=None):
            return [self.v] * (size or 1)

    work.__module__ = Thing.__module__ = layer.__name__
    layer.work, layer.Thing = work, Thing
    user = types.ModuleType("fakepkg.user")
    user.work = work                      # imported by name
    user.table = {"w": work}              # held in a module-level dict

    tracer = Tracer()
    original_submit = ThreadPoolExecutor.submit
    switch = sys.getswitchinterval()
    results = []
    try:
        tracer.install({"layer": layer}, [layer, user])
        assert user.work is layer.work is not work
        assert user.table["w"] is layer.work
        sys.setswitchinterval(1e-6)

        def outer():
            with ThreadPoolExecutor(max_workers=4) as pool:
                results.append(list(pool.map(user.table["w"], range(400))))

        threads = [threading.Thread(target=outer) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        layer.Thing(3).sample(size=5)
    finally:
        sys.setswitchinterval(switch)
        ThreadPoolExecutor.submit = original_submit

    assert results == [[2 * i + 1 for i in range(400)]] * 3

    summary = tracer.summary()
    assert summary["funcs"]["layer.work"]["calls"] == 1200
    assert summary["funcs"]["layer.Thing.__init__"]["calls"] == 1
    assert summary["counts"] == {}  # no hooks for this fake layer
    assert tracer.absent(("layer.work", "layer.sample", "layer.gone", "nolayer.x")) == [
        "layer.gone", "nolayer.x"]
