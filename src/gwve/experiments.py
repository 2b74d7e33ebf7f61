"""Verification experiments: exact identities, convergence tables, Monte Carlo.

Every runner produces an `ExperimentReport` whose rows carry (n, statistic,
value, comparator, tolerance, pass flag).  Reruns with the same seed yield
byte-identical CSV bodies: replicates are drawn in fixed-size chunks with a
stream per (seed, experiment, horizon, chunk), each chunk draws only from its
own stream, also where the thinned chunks of a group advance as one batch,
and the chunks' histograms are summed, so neither the number of worker
processes nor the grouping can change any number.  Wall time and timestamps
live only in the summary metadata, never in the CSV.

The Yaglom Monte Carlo runs in one pass: each chunk, on the stream
(seed, "yaglom", largest horizon, chunk), is simulated once to that
horizon and reduced to its population histogram at every horizon on the
way; the survivors are the histogram's entries at k >= 1.  The
horizons therefore share their random numbers; each horizon's survivors still
have the exact law of Z_n given survival, so their KS distance is valid on its
own, and the largest horizon's histogram is the one a run at that horizon
alone would draw.

Monte Carlo pass criteria only bind on rows that meet their minimum-sample
thresholds; thinner rows are still reported, flagged as informational.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle, pgf_engine as engine, spines
from .environment import Environment
from .offspring import FiniteTable, Geometric, Binomial
from .streams import stream

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "ReportRow",
    "reference_environment",
    "ks_statistic_counts",
    "chi_square_pvalue",
    "simpson",
    "run_decomposition_check",
    "run_kolmogorov",
    "run_uniform_limit",
    "run_g_convergence",
    "run_transform_identities",
    "run_yaglom",
    "run_exponential_characterization",
    "Collected",
    "collect_populations",
    "yaglom_ks",
]

DEFAULT_SEED = 20201124

# The s-grid of the Yaglom and g-convergence checks, scaled by 1/a_n there.
S_GRID = tuple(np.linspace(0.0, 5.0, 21).tolist())
DEFAULT_LAMBDA_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

DEFAULT_TOLERANCES = {
    "decomposition_rel": 1e-12,
    "lemma33_abs": 1e-10,
    "tv": 0.005,
    "chi2_p": 0.001,
    "kolmogorov_gap": 0.01,
    "uniform_sup": 1e-3,
    "g_final": 0.05,
    "yaglom_exact": 5e-3,
    "ks": 0.02,
    "closed_form": 1e-12,
    "quadrature_residual": 1e-8,
}


class ExperimentError(ValueError):
    """Configuration or precondition failure for an experiment run."""


def reference_environment(name: str) -> Environment:
    """The shipped reference environments.

    E1: constant geometric(1/2) - critical, with closed forms for everything.
    E2: period-2 alternation of geometric(1/2) and the table (1/4, 1/2, 1/4)
        - critical but genuinely varying.
    E3: constant binomial(2, 3/4) - supercritical negative control.
    """
    if name == "E1":
        return Environment.constant(Geometric(0.5))
    if name == "E2":
        return Environment.periodic([Geometric(0.5), FiniteTable([0.25, 0.5, 0.25])])
    if name == "E3":
        return Environment.constant(Binomial(2, 0.75))
    raise ExperimentError(f"unknown reference environment {name!r}")


# ----------------------------------------------------------------------
# Config and report containers.


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    environment: Environment
    horizons: list[int]
    replicates: int = 100_000
    seed: int = DEFAULT_SEED
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    tolerances: dict[str, float] = field(default_factory=dict)
    min_survivors: int = 1000
    threads: int = field(default_factory=_available_cores)
    chunk_size: int = 1 << 17
    node_budget: int = spines.DEFAULT_NODE_BUDGET
    assume_critical: bool = False
    kn_horizon: int = 10

    def __post_init__(self):
        if not self.horizons:
            raise ExperimentError("horizons must be a nonempty increasing list")
        if any(h < 1 for h in self.horizons):
            raise ExperimentError("horizons must be positive")
        if any(b >= a for a, b in zip(self.horizons[1:], self.horizons)):
            raise ExperimentError("horizons must be strictly increasing")
        if self.replicates < 1:
            raise ExperimentError("replicate count must be >= 1")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ExperimentError("seed must be an integer in [0, 2^64)")
        # JSON configs may hold NaN and Infinity, which this comparison refuses
        if not len(self.lambda_grid) or not all(0 <= l < math.inf for l in self.lambda_grid):
            raise ExperimentError("lambda_grid must be a nonempty list of finite nonnegative numbers")
        if self.threads < 1 or self.chunk_size < 1:
            raise ExperimentError("threads and chunk_size must be positive")
        if self.kn_horizon < 1:
            raise ExperimentError("kn_horizon must be positive")
        if self.node_budget < 1:
            raise ExperimentError("node_budget must be positive")
        if self.min_survivors < 0:
            raise ExperimentError("min_survivors must be nonnegative")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ExperimentError(f"unknown tolerance keys: {sorted(unknown)}")
        if not all(map(math.isfinite, self.tolerances.values())):
            raise ExperimentError("tolerances must be finite numbers")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def chunk_sizes(self) -> list[int]:
        """Replicate counts of the Monte Carlo chunks, in chunk order."""
        return [min(self.chunk_size, self.replicates - start)
                for start in range(0, self.replicates, self.chunk_size)]


@dataclass(frozen=True)
class ReportRow:
    n: int
    statistic: str
    value: float
    cmp: str  # "le" or "ge"
    tolerance: float
    passed: bool
    note: str = ""


def _row(n: int, statistic: str, value: float, cmp: str, tolerance: float, note: str = "") -> ReportRow:
    if cmp == "le":
        ok = value <= tolerance
    elif cmp == "ge":
        ok = value >= tolerance
    else:
        raise ValueError("cmp must be 'le' or 'ge'")
    return ReportRow(n, statistic, float(value), cmp, float(tolerance), bool(ok), note)


def _gated_at_last(config: ExperimentConfig, n: int, statistic: str, value: float,
                   tol: float) -> ReportRow:
    """A `value <= tol` row at the config's last horizon, informational before it."""
    final = n == config.horizons[-1]
    return _row(n, statistic, value, "le", tol if final else math.inf,
                note="" if final else "informational")


def _sample_row(n: int, statistic: str, run: Collected, distance, tolerance: float,
                note: str = "") -> ReportRow:
    """A `distance(run.counts) <= tolerance` row; with no completed
    replicate there is no sample, and the row fails with value inf."""
    if not run.completed:
        return _row(n, statistic, math.inf, "le", tolerance, "all replicates aborted")
    return _row(n, statistic, distance(run.counts), "le", tolerance, note)


def _decreasing(config: ExperimentConfig, statistic: str, values: list[float]) -> ReportRow:
    """A row, at the config's last horizon, passed iff `values` strictly decrease."""
    return _row(config.horizons[-1], statistic,
                float(all(b < a for a, b in zip(values, values[1:]))), "ge", 1.0)


@dataclass
class ExperimentReport:
    name: str
    seed: int
    rows: list[ReportRow]
    aborted_replicates: int = 0
    wall_time: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv_text(self) -> str:
        lines = ["experiment,n,statistic,value,cmp,tolerance,passed,note"]
        for r in self.rows:
            lines.append(
                f"{self.name},{r.n},{r.statistic},{r.value!r},{r.cmp},"
                f"{r.tolerance!r},{str(r.passed).lower()},{r.note}"
            )
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "experiment": self.name,
            "seed": self.seed,
            "overall_pass": self.all_pass,
            "rows": len(self.rows),
            "failed_rows": [r.statistic for r in self.rows if not r.passed],
            "aborted_replicates": self.aborted_replicates,
            "metadata": {"wall_time_s": self.wall_time},
        }

    def write(self, out_dir: Path) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{self.name}.csv"
        csv_path.write_text(self.to_csv_text())
        summary_path = out_dir / f"{self.name}_summary.json"
        summary_path.write_text(json.dumps(self.summary_dict(), indent=2, sort_keys=True,
                                           allow_nan=False) + "\n")
        return csv_path, summary_path


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# ----------------------------------------------------------------------
# Statistics helpers.


def ks_statistic_counts(values, counts, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance to a given CDF of the sample
    that holds counts[j] copies of values[j], for strictly increasing values,
    computed without expanding the sample.

    Within a run of ties the sorted-sample extremes sit at its last index
    (d_plus) and its first (d_minus), so both maxima are taken over the
    cumulative counts, with the same arithmetic as on the expanded sample."""
    v = np.asarray(values, dtype=float)
    c = np.asarray(counts)
    keep = c > 0
    v, c = v[keep], c[keep]
    if v.size == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(v), dtype=float)
    upper = np.cumsum(c).astype(float)
    size = float(upper[-1])
    d_plus = float(np.max(upper / size - f))
    d_minus = float(np.max(f - (upper - c) / size))
    return max(d_plus, d_minus)


def chi_square_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value of observed category counts against probs.

    The chi-square tail on an integer number of degrees of freedom is the
    closed form of Abramowitz & Stegun 26.4.4-26.4.5 (see `_chi2_sf`)."""
    counts = np.asarray(counts, dtype=float)
    if not counts.sum() > 0:
        raise ValueError("need at least one sample")
    expected = np.asarray(probs, dtype=float) * counts.sum()
    keep = expected > 0
    if np.any(counts[~keep] > 0):
        return 0.0  # observed mass in an impossible category
    counts, expected = counts[keep], expected[keep]
    if counts.size < 2:
        return 1.0  # a single category cannot disagree with its law
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return _chi2_sf(counts.size - 1, statistic)


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi^2 > x) on an integer number `dof` >= 1 of degrees of freedom.

    With z = x/2 and h = (dof mod 2)/2, the tail is
    sum_{i < dof//2} e^{-z} z^{i+h} / Gamma(i+h+1), plus erfc(sqrt z) when
    dof is odd (Abramowitz & Stegun 26.4.4-26.4.5).  Every term is positive
    and formed in log space, so the sum loses nothing to cancellation."""
    z = 0.5 * x
    if z <= 0.0:
        return 1.0
    if math.isinf(z):
        return 0.0
    log_z = math.log(z)
    h = 0.5 * (dof % 2)
    terms = [math.exp((i + h) * log_z - z - math.lgamma(i + h + 1.0)) for i in range(dof // 2)]
    if h:
        terms.append(math.erfc(math.sqrt(z)))
    return min(1.0, math.fsum(terms))


def simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with an even number of panels; f is vectorized."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def exp1_cdf(x):
    return -np.expm1(-np.asarray(x, dtype=float))


def gamma3_cdf(x):
    """CDF of the density x^2 e^-x / 2 (the pair-biased exponential limit)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x)


# ----------------------------------------------------------------------
# Chunked Monte Carlo driver.


@dataclass(frozen=True)
class Collected:
    """One horizon of a `collect_populations` run, or of any part of its
    replicates: parts of one horizon add up with `+`.

    `aborted` counts the replicates lost to the node budget.  The histograms
    cover the completed replicates: `counts[x]` of them ended with population
    x and, for two-spine runs, `k_counts[k]` branched at generation k."""

    aborted: int
    counts: np.ndarray
    k_counts: np.ndarray | None = None

    @classmethod
    def of(cls, batch: spines.PopulationBatch, n: int) -> "Collected":
        """A sampler's batch at horizon n: np.bincount of its populations and,
        for two-spine batches, of their branching generations to length n.  A
        batch with node counts (plain or one-spine) holds its live replicates
        as its first `nodes.size` entries, so only they are counted."""
        if batch.nodes is None:
            return cls(batch.aborted, np.bincount(batch.x_n), np.bincount(batch.k, minlength=n))
        counts = np.bincount(batch.x_n[:batch.nodes.size], minlength=min(batch.x_n.size, 1))
        counts[:1] += batch.x_n.size - batch.nodes.size  # the zeros after them
        return cls(batch.aborted, counts)

    def __add__(self, other: "Collected") -> "Collected":
        def plus(a, b):  # elementwise, the shorter one padded with zeros
            total = np.zeros(max(a.size, b.size), dtype=a.dtype)
            total[:a.size] += a
            total[:b.size] += b
            return total

        k = None if self.k_counts is None else plus(self.k_counts, other.k_counts)
        return Collected(self.aborted + other.aborted, plus(self.counts, other.counts), k)

    def __radd__(self, other):  # sum() and += start from 0
        return self if other == 0 else NotImplemented

    @property
    def completed(self) -> int:
        return int(self.counts.sum())


# Work, in replicates x largest horizon, below which chunks run in this
# process.  Starting the pool and rebuilding each worker's caches costs about
# 20 ms on a 2-core host, and below about 3e7 of this work plain E1 chunks ran
# no faster on two worker processes than inline.
_POOL_MIN_WORK = 1 << 25

# Chunks per group, when there are more chunks than workers: at most this
# many full chunks, plus a short last chunk.  A group of L plain chunks
# advances as one batch once its first chunk keeps at most chunk_size / L
# live replicates (see `collect_populations`).
_GROUP_CHUNKS = 16


def _chunk_groups(sizes: list[int], count: int) -> list[list[int]]:
    """At most `count` groups of consecutive chunk indices, for chunks of
    `sizes` replicates, holding near-equal replicate counts however short
    the last chunk: each chunk joins the group in which its middle replicate
    falls."""
    ends = np.cumsum(sizes)
    owner = (2 * ends - sizes) * count // (2 * ends[-1])
    return [chunks.tolist() for chunks in np.split(np.arange(len(sizes)),
                                                    np.flatnonzero(np.diff(owner)) + 1)]


# glibc allocator options set by `_keep_freed_memory`, as (mallopt param,
# value) pairs of C ints: ctypes cuts a larger value to its low 32 bits
# without a word (1 << 62 becomes 0, which trims the heap on every free).
_MALLOPT = (
    (-3, 1 << 25),  # M_MMAP_THRESHOLD: blocks below 32 MB come from the heap
    (-1, 2**31 - 1),  # M_TRIM_THRESHOLD: the top of the heap is never trimmed
)


def _keep_freed_memory() -> bool:
    """Let the C library keep the heap pages that freed numpy arrays held,
    so that later arrays reuse them; True iff it took every option.

    By default glibc serves large blocks by mmap and trims the top of the
    heap when a block there is freed, so each generation's row arrays come
    back as freshly zeroed pages, a page fault each: about 77,000 in one
    two-worker yaglom-e1 run, most of the workers' kernel time.  The pages
    stay with the process until it exits, so this is called only in
    processes gwve owns, the CLI's and its pool workers', never in a library
    caller's own process.  Where the C library has no `mallopt` (not glibc)
    it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _MALLOPT)


# In a forked pool worker: the group function of the pool that forked it.
_worker_group = None


def _start_worker(group) -> None:
    global _worker_group
    _keep_freed_memory()
    _worker_group = group


def _run_group(chunks):
    return _worker_group(chunks)


def collect_populations(config: ExperimentConfig, tag: str, horizons: list[int],
                        kind: str) -> list[Collected]:
    """Terminal-population histograms (and branch-generation histograms, for
    two-spine runs) over all replicates, one `Collected` per horizon of the
    increasing list `horizons`.

    `kind` is "gw", "one_spine" or "two_spine".  Replicates are drawn in
    chunks with a stream per (seed, tag, largest horizon, chunk).  Each chunk
    is simulated once, to the largest horizon, and its batch at every
    horizon on the way is reduced by `Collected.of` (which counts only the
    live prefix of a batch with node counts): plain and one-spine runs take
    several horizons, two-spine runs one, since the law of their branching
    generation depends on the horizon.  The parts are summed by `+`, in
    integers, so neither the grouping nor the workers can change the sums.

    The chunks are split into max(workers, ceil(chunks / 16)) groups of
    consecutive chunks holding near-equal replicate counts, and each group
    is reduced to its summed histograms in one task.  Within a group of L
    plain chunks, the first chunk runs alone until a generation m at which
    at most chunk_size / L of its replicates live, each other chunk runs
    alone to m, and from m on the group's live replicates advance as one
    batch, each chunk's rows still drawing from that chunk's stream exactly
    what it would alone (see `spines.LiveRows`): a thinned chunk's late
    generations hold so few rows that a call per chunk would cost more than
    its draws.  Merged or not, each chunk steps into each horizon by its own
    `spines.simulate_gw_populations` call, whose batch holds all of the
    chunk's replicates and is reduced at once.  One- and two-spine chunks,
    and the chunks of a group whose first chunk does not thin that far
    before the largest horizon, run alone, each reduced before the next one
    starts, so memory depends on the chunk size and worker count, not on the
    replicate count.

    With `config.threads` > 1, several chunks and at least `_POOL_MIN_WORK`
    replicates x largest horizon, the groups run on min(threads, cores,
    chunks) worker processes made by fork, cores being `_available_cores()`;
    otherwise, and where the platform cannot fork, they run in this process.
    Each worker first lets the C library keep its freed heap pages
    (`_keep_freed_memory`), so that its generations reuse them instead of
    faulting in zeroed ones; this process's allocator is left as it is.  No
    worker outlives the call, an error raised in a worker is raised here,
    and a worker that dies raises BrokenProcessPool."""
    sampler = getattr(spines, f"simulate_{kind}_populations", None)
    if sampler is None:
        raise ValueError(f"unknown population kind {kind!r}")
    hs = list(horizons)
    if not hs or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be a nonempty increasing list")
    if len(hs) > 1 and kind == "two_spine":
        raise ValueError("two-spine populations need one run per horizon")
    sizes = config.chunk_sizes()
    env, budget = config.environment, config.node_budget

    def alone(group):
        """Per horizon, the summed histograms of the chunks `group`, each run
        alone and reduced before the next one starts."""
        totals = [0] * len(hs)
        for idx in group:
            rng, batch = stream(config.seed, tag, hs[-1], idx), None
            for i, n in enumerate(hs):
                if batch is None:
                    batch = sampler(env, n, sizes[idx], rng, budget)
                else:
                    batch = sampler(env, n, sizes[idx], rng, budget, start=batch)
                totals[i] += Collected.of(batch, n)
        return totals

    def plain(group):
        """Per horizon, the summed histograms of the plain chunks `group`:
        see `collect_populations`."""
        rngs = [stream(config.seed, tag, hs[-1], idx) for idx in group]
        reps = [sizes[idx] for idx in group]
        totals = [0] * len(hs)

        def to_horizon(rows, members, i):
            """`rows` of the chunks `members` from generation hs[i] - 1 on to
            hs[i], each chunk by its own `simulate_gw_populations` call,
            whose batch is reduced into totals[i]; None at the largest
            horizon, where no run goes on."""
            parts = []
            for s, j in enumerate(members):
                batch = sampler(env, hs[i], reps[j], rngs[j], budget, start=rows.batch(s, reps[j]))
                totals[i] += Collected.of(batch, hs[i])
                if i + 1 < len(hs):
                    parts.append(spines.LiveRows.of(batch))
                del batch  # dropped before the next chunk's starts
            return spines.LiveRows.join(parts) if parts else None

        # The first chunk runs alone until at most `thin` of its replicates
        # live, at generation m; the others run alone to m and keep their
        # live rows, and the held rows advance together from m on.
        thin, m, held = config.chunk_size // len(group), hs[-1], []
        for j in range(len(group)):
            rows = spines.LiveRows.start(reps[j])
            for i, n in enumerate(hs):
                rows = rows.advance(env, min(n - 1, m), rngs[j:j + 1], budget,
                                    thin if j == 0 else 0)
                if j == 0 and rows.x.size <= thin:
                    m = rows.n
                if n > m:
                    held.append(rows)  # dropped to its live replicates
                    break
                rows = to_horizon(rows, [j], i)
        if held:
            rows, members = spines.LiveRows.join(held), range(len(group))
            del held
            for i, n in enumerate(hs):
                if n > m:
                    rows = to_horizon(rows.advance(env, n - 1, rngs, budget), members, i)
        return totals

    def merged(groups):
        """Per horizon, the groups' histograms summed as they arrive, so no
        group's histograms are kept."""
        totals = [0] * len(hs)
        for group in groups:
            totals = [total + part for total, part in zip(totals, group)]
        return totals

    work = plain if kind == "gw" else alone

    workers = min(config.threads, _available_cores(), len(sizes))
    groups = _chunk_groups(sizes, max(workers, -(-len(sizes) // _GROUP_CHUNKS)))
    if workers > 1 and config.replicates * hs[-1] >= _POOL_MIN_WORK:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # The workers inherit `work` through the fork: it is never pickled
            # (the environment holds a lock).  With fork the executor starts
            # every worker before its helper thread.  Each task sends a group
            # of chunk indices and returns its summed histograms; `map` keeps
            # group order, and a worker that dies raises BrokenProcessPool
            # here.
            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       _start_worker, (work,))
            try:
                return merged(pool.map(_run_group, groups))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return merged(map(work, groups))


def yaglom_ks(config: ExperimentConfig) -> list[tuple[Collected, int, float]]:
    """(collection, survivor count, KS distance of the survivors' Z_n/a_n to
    Exp(1), inf with no survivors) at each of the config's horizons, from one
    pass over the Yaglom run's replicates to the largest horizon."""
    out = []
    for n, run in zip(config.horizons, collect_populations(config, "yaglom", config.horizons, "gw")):
        alive = run.counts[1:]
        survivors = int(alive.sum())
        ks = math.inf if not survivors else ks_statistic_counts(
            np.arange(1, run.counts.size) / config.environment.a(n), alive, exp1_cdf)
        out.append((run, survivors, ks))
    return out


def _require_critical(config: ExperimentConfig, experiment: str) -> None:
    if config.assume_critical:
        return
    label = config.environment.classify(10).label
    if label != "critical":
        raise ExperimentError(
            f"{experiment} requires a critical environment (classified {label!r}); "
            "set assume_critical to override"
        )


# ----------------------------------------------------------------------
# Runners.


def run_decomposition_check(config: ExperimentConfig) -> ExperimentReport:
    """Exact two-spine decomposition identity on the (n, lambda) grid."""
    tol = config.tol("decomposition_rel")
    rows = []
    with _Timer() as t:
        lams = np.array(config.lambda_grid)
        for n in config.horizons:
            engine.kn_pmf_vector(config.environment, n)  # raises when S_n is undefined
            record = engine.lemma33_transforms(config.environment, n, lams)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(record.zddot - record.rhs) / np.abs(record.zddot)
            for lam, gap in zip(config.lambda_grid, rel):
                rows.append(_row(n, f"decomposition_rel_gap[lam={lam:g}]", gap, "le", tol))
    return ExperimentReport("decomposition", config.seed, rows, wall_time=t.elapsed)


def run_kolmogorov(config: ExperimentConfig) -> ExperimentReport:
    """Survival-probability normalization (a_n/mu_n) P(Z_n>0) -> 1."""
    _require_critical(config, "kolmogorov")
    tol = config.tol("kolmogorov_gap")
    rows = []
    with _Timer() as t:
        gaps = []
        for n in config.horizons:
            ratio = engine.kolmogorov_ratio(config.environment, n)
            gaps.append(abs(ratio - 1.0))
            rows.append(_row(n, "kolmogorov_ratio", ratio, "le", math.inf, note="informational"))
            rows.append(_gated_at_last(config, n, "abs_gap", gaps[-1], tol))
        rows.append(_decreasing(config, "gap_decreasing", gaps))
    return ExperimentReport("kolmogorov", config.seed, rows, wall_time=t.elapsed)


def run_uniform_limit(config: ExperimentConfig) -> ExperimentReport:
    """Step CDF of A_{n,K_n} against the uniform CDF, with its partition bound."""
    _require_critical(config, "uniform-limit")
    tol = config.tol("uniform_sup")
    rows = []
    with _Timer() as t:
        sups = []
        for n in config.horizons:
            # Midpoint grid: avoids sitting exactly on the partition atoms.
            y = (np.arange(1000) + 0.5) / 1000
            sup = float(np.max(np.abs(engine.a_kn_cdf(config.environment, n, y) - y)))
            norm = engine.partition_norm(config.environment, n)
            sups.append(sup)
            rows.append(_gated_at_last(config, n, "sup_cdf_gap", sup, tol))
            rows.append(_row(n, "partition_norm", norm, "le", math.inf, note="informational"))
            rows.append(_row(n, "sup_le_partition_norm", float(sup <= norm), "ge", 1.0))
        rows.append(_decreasing(config, "sup_decreasing", sups))
    return ExperimentReport("uniform_limit", config.seed, rows, wall_time=t.elapsed)


def run_g_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Uniform closeness of the two hanging-subtree transforms, D(n) -> 0."""
    if len(config.horizons) < 2:
        raise ExperimentError("g-convergence needs at least two horizons for the trend")
    _require_critical(config, "g-convergence")
    tol = config.tol("g_final")
    rows = []
    with _Timer() as t:
        d_values = []
        skipped_total = 0
        for n in config.horizons:
            profile = engine.g_gap_profile(config.environment, n,
                                           np.array(S_GRID) / config.environment.a(n))
            bad = np.isnan(profile)
            skipped = int(np.count_nonzero(bad, axis=0).max(initial=0))
            worst = float(np.max(profile[~bad])) if np.any(~bad) else 0.0
            d_values.append(worst)
            skipped_total += skipped
            rows.append(_gated_at_last(config, n, "g_gap_sup", worst, tol))
        rows.append(_decreasing(config, "g_gap_strictly_decreasing", d_values))
        rows.append(_row(config.horizons[-1], "skipped_nu_zero_generations", float(skipped_total),
                         "le", math.inf, note="informational"))
    return ExperimentReport("g_convergence", config.seed, rows, wall_time=t.elapsed)


_OVER_BUDGET = "oracle tail budget exceeded"


def run_transform_identities(config: ExperimentConfig) -> ExperimentReport:
    """Sampler laws vs exact oracle laws, the five closed-form transforms vs
    oracle transforms, and the size-biased integral identity."""
    env = config.environment
    tv_tol = config.tol("tv")
    rows = []
    with _Timer() as t:
        oracle_horizons = [n for n in config.horizons if n <= 6]
        if not oracle_horizons:
            raise ExperimentError("transform identities need a horizon <= 6 for the oracle")
        # The oracle's laws come first, so the tables of each horizon's DP
        # are gone before the Monte Carlo passes allocate.
        laws = [_oracle_horizon(env, n, config) for n in oracle_horizons]
        # One one-spine pass serves every oracle horizon; its aborted counts
        # are cumulative, so the last horizon's is the pass's total.
        ones = collect_populations(config, "identities/one", oracle_horizons, "one_spine")
        aborted = ones[-1].aborted
        for n, one, (p, gap) in zip(oracle_horizons, ones, laws):
            # A reweighted law cut past the tail budget fails its row.
            sb = _reweighted(p, "size_biased", env, n)
            pb = _reweighted(p, "pair_biased", env, n)
            if sb is None:
                rows.append(_row(n, "tv_one_spine", math.inf, "le", tv_tol, _OVER_BUDGET))
            else:
                rows.append(_sample_row(n, "tv_one_spine", one, _tv_to(sb), tv_tol))
            if pb is None:
                rows.append(_row(n, "tv_two_spine", math.inf, "le", tv_tol, _OVER_BUDGET))
            else:
                two = collect_populations(config, "identities/two", [n], "two_spine")[0]
                rows.append(_sample_row(n, "tv_two_spine", two, _tv_to(pb), tv_tol))
                aborted += two.aborted

            rows.append(_row(n, "lemma33_max_abs_gap", gap, "le", config.tol("lemma33_abs"),
                             _OVER_BUDGET if math.isinf(gap) else ""))

        # Branching-generation law: the two-spine sampler's first draw on each
        # chunk's stream, with no trees grown, counted chunk by chunk.
        n_k = config.kn_horizon
        counts = sum(
            np.bincount(spines.sample_branch_generation(
                env, n_k, stream(config.seed, "identities/kn", n_k, idx), size), minlength=n_k)
            for idx, size in enumerate(config.chunk_sizes()))
        pval = chi_square_pvalue(counts, engine.kn_pmf_vector(env, n_k))
        rows.append(_row(n_k, "kn_chi2_pvalue", pval, "ge", config.tol("chi2_p")))

        # Integral identity: E[1 - e^{-lam Z} | Z>0]
        #   = E[Z | Z>0] * int_0^lam E[e^{-s Zdot}] ds.
        n = oracle_horizons[-1]
        lam = max(config.lambda_grid) or 1.0
        surv = engine.survival_prob(env, n)
        lhs = 1.0 - engine.conditional_laplace_z(env, n, lam)
        mean_given_alive = env.mu(n) / surv

        rhs = mean_given_alive * simpson(lambda s: engine.laplace_zdot(env, n, s), 0.0, lam, 10_000)
        rows.append(_row(n, "size_biased_integral_residual", abs(lhs - rhs), "le",
                         config.tol("quadrature_residual")))
    return ExperimentReport("transform_identities", config.seed, rows, aborted, t.elapsed)


def _tv_to(law: oracle.ExactPmf):
    """The total variation distance of a histogram's law, capped at law's
    cap, to `law`."""
    return lambda counts: oracle.tv_distance(oracle.histogram_pmf(counts, cap=law.cap), law)


def _reweighted(p: oracle.ExactPmf, kind: str, env: Environment, n: int) -> oracle.ExactPmf | None:
    """The `kind` reweighting of p, the oracle law of Z_n under env; None
    when p's tail or the weighted mass the reweighting misses is past the
    tail budget."""
    if p.tail_mass > oracle.DEFAULT_TAIL_BUDGET:
        return None
    law = oracle.transform_pmf(p, kind)
    return None if oracle.reweighting_cut(p, kind, env, n) > oracle.DEFAULT_TAIL_BUDGET else law


def _oracle_horizon(env: Environment, n: int, config: ExperimentConfig) -> tuple[oracle.ExactPmf, float]:
    """The oracle law p of Z_n, and the worst discrepancy between the five
    closed-form Laplace transforms of Lemma 3.3 and the oracle's discrete
    transforms at horizon n, inf when a law it needs is cut past the tail
    budget.  Its 3n laws come from one DP, whose tables go when it
    returns."""
    dp = oracle.PopulationDP()
    p = dp.exact_pmf(env, n)
    lams = np.array(config.lambda_grid)

    def oracle_laplace(pmf):
        """The Laplace transform of pmf; inf for no law (None) or one
        truncated past the budget."""
        if pmf is None or pmf.tail_mass > oracle.DEFAULT_TAIL_BUDGET:
            return np.full(lams.size, math.inf)
        return np.array([oracle.laplace_from_pmf(pmf, lam) for lam in config.lambda_grid])

    record = engine.lemma33_transforms(env, n, lams)
    gaps = [oracle_laplace(_reweighted(p, "size_biased", env, n)) - record.zdot,
            oracle_laplace(_reweighted(p, "pair_biased", env, n)) - record.zddot]
    for m in range(n):
        d = env.dist_at(m + 1)
        shifted = env.shift(m + 1)
        hang_dot = shifted.prepend(d.size_biased().shift_down(1))
        hang_ddot = shifted.prepend(d.pair_biased().shift_down(2))
        p_dot = dp.exact_pmf(hang_dot, n - m)
        p_ddot = dp.exact_pmf(hang_ddot, n - m)
        rest = n - (m + 1)
        if rest > 0:
            ref = oracle_laplace(_reweighted(dp.exact_pmf(shifted, rest), "size_biased", shifted, rest))
        else:
            ref = np.exp(-lams)  # one fresh particle
        gaps += [oracle_laplace(p_dot) - record.qdot[m], oracle_laplace(p_ddot) - record.qddot[m],
                 ref - record.zdot_shifted[m]]
    return p, float(np.max(np.abs(gaps)))


def run_yaglom(config: ExperimentConfig) -> ExperimentReport:
    """Exponential limit of Z_n/a_n conditioned on survival.

    Exact part: the conditional Laplace transform against 1/(1+s) on the
    s-grid.  Monte Carlo part: survivors' Z_n/a_n against the Exp(1) CDF by
    rejection (simulate, keep survivors), which is unbiased by construction.
    """
    _require_critical(config, "yaglom")
    env = config.environment
    rows = []
    with _Timer() as t:
        mc = yaglom_ks(config)
        # Aborted counts are cumulative over the one pass: the largest horizon's is the total.
        aborted = mc[-1][0].aborted
        ks_values = []
        for n, (_, survivors, ks) in zip(config.horizons, mc):
            s = np.array(S_GRID)
            gap = engine.conditional_laplace_z(env, n, s / env.a(n)) - 1.0 / (1.0 + s)
            rows.append(_gated_at_last(config, n, "exact_curve_gap", float(np.max(np.abs(gap))),
                                       config.tol("yaglom_exact")))
            rows.append(_row(n, "survivors", float(survivors), "ge", config.min_survivors))
            if survivors and survivors >= config.min_survivors:
                ks_values.append(ks)
                rows.append(_gated_at_last(config, n, "ks_exp1", ks, config.tol("ks")))
            else:  # ks is inf with no survivors
                why = "insufficient survivors" if survivors else "no survivors"
                rows.append(_row(n, "ks_exp1", ks, "le", math.inf,
                                 note=f"{why}; excluded from pass criteria"))
        if len(ks_values) > 1:
            rows.append(_decreasing(config, "ks_decreasing", ks_values))
    return ExperimentReport("yaglom", config.seed, rows, aborted, t.elapsed)


def run_exponential_characterization(config: ExperimentConfig) -> ExperimentReport:
    """Size-biased characterization of the exponential limit.

    Closed form: 1/(1+lam)^3 = (1+lam)^-2 * int_0^1 (1+u lam)^-2 du, the
    integral evaluated by quadrature.  Monte Carlo: pair-biased Z_n/a_n
    against the Gamma(3) CDF at the largest horizon.
    """
    _require_critical(config, "exponential")
    env = config.environment
    rows = []
    with _Timer() as t:
        for lam in config.lambda_grid:
            lhs = (1.0 + lam) ** -3
            integral = simpson(lambda u: (1.0 + u * lam) ** -2.0, 0.0, 1.0, 10_000)
            rhs = (1.0 + lam) ** -2 * integral
            rows.append(_row(0, f"closed_form_gap[lam={lam:g}]", abs(lhs - rhs), "le",
                             config.tol("closed_form")))
        n = config.horizons[-1]
        two = collect_populations(config, "exponential", [n], "two_spine")[0]
        rows.append(_sample_row(n, "ks_pair_biased_gamma3", two, lambda counts: ks_statistic_counts(
            np.arange(counts.size) / env.a(n), counts, gamma3_cdf), config.tol("ks")))
    return ExperimentReport("exponential_characterization", config.seed, rows, two.aborted, t.elapsed)
