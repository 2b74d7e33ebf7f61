"""Random trees over Ulam-Harris labels: plain, one-spine and two-spine.

Trees are stored in a flat arena: nodes are numbered breadth-first, each
node records its parent index, child count and spine mark, and contiguous
index ranges delimit the generations.  The arena keeps exactly what the
verification work needs (populations, parent walks, marks) and nothing else.

For large horizons only the population sizes matter, so each sampler has a
population-only companion that simulates the same law for a whole batch of
replicates at once.  Per generation, every replicate's off-spine population
advances by one `sum_sample` draw that also covers the off-spine children of
its spine nodes (one size-biased parent before the branching generation K,
one pair-biased parent at K, two size-biased parents after it).  For the
geometric, Poisson and binomial families that is a single draw from one law
of the family (negative binomial, Poisson, binomial), because their
reweighted laws less the spine children are members of the same family.
Tables and geometric laws read it with one uniform in a cached alias table of
the convolved law, in constant time per replicate (a multinomial adds the
plain births of a table's large entries, a geometric law's NegBin shapes of
32 or more add a draw from a second table of shapes 32a, and numpy draws the
shapes beyond that); Poisson and binomial laws draw it with numpy.  The
arena samplers draw every birth with `sample` (`rng.geometric` for a
geometric law) and every spine birth from the reweighted tables, an
independent implementation of the same law.  The batch samplers are what
make million-replicate comparisons cheap.

Plain batches advance as `LiveRows`, the live replicates of one or more
streams, each stream's rows in one run: each generation is one `sum_sample`
call over all rows, in which every stream's rows draw from that stream what
they would alone, one budget check and one compaction that carries the
streams' row bounds.  Plain replicates die out, so a thinned batch's calls
hold few rows, and advancing thinned batches together saves a call per
stream and generation.

The one-spine tree is the two-spine tree with no branch before the horizon,
so the two constructions share one loop per representation: the arena loop
and the batch loop both take the branching generation K, and the one-spine
samplers pass K = n, one scalar for the whole batch.  Since that tree never
branches, its law up to generation k does not depend on n, and a one-spine
batch continues to a later horizon the way a plain batch does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Environment
from .pgf_engine import kn_pmf_vector

__all__ = [
    "MARK_NONE",
    "MARK_SPINE1",
    "MARK_SPINE2",
    "MARK_BOTH",
    "NodeBudgetExceeded",
    "LabeledTree",
    "sample_gw_tree",
    "sample_one_spine",
    "sample_two_spine",
    "sample_branch_generation",
    "PopulationBatch",
    "LiveRows",
    "simulate_gw_populations",
    "simulate_one_spine_populations",
    "simulate_two_spine_populations",
]

MARK_NONE, MARK_SPINE1, MARK_SPINE2, MARK_BOTH = 0, 1, 2, 3

DEFAULT_NODE_BUDGET = 10**7


class NodeBudgetExceeded(RuntimeError):
    """A replicate outgrew the configured node budget and was aborted."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"tree grew past the node budget ({nodes} > {budget})")
        self.nodes = nodes
        self.budget = budget


@dataclass
class LabeledTree:
    """Arena tree with per-generation index ranges and spine marks."""

    parent: np.ndarray       # int64; parent[0] == -1
    level_starts: np.ndarray  # int64; generation k occupies [starts[k], starts[k+1])
    child_count: np.ndarray  # int64
    spine_mark: np.ndarray   # uint8

    @property
    def node_count(self) -> int:
        return self.parent.size

    @property
    def height(self) -> int:
        return self.level_starts.size - 2

    def generation_of(self, node: int) -> int:
        return int(np.searchsorted(self.level_starts, node, side="right")) - 1

    def population(self, k: int) -> int:
        """Number of nodes in generation k (zero beyond the height)."""
        if k < 0:
            raise ValueError("generations are nonnegative")
        if k > self.height:
            return 0
        return int(self.level_starts[k + 1] - self.level_starts[k])

    def mrca_generation(self, u: int, v: int) -> int:
        """Generation of the deepest common ancestor of nodes u and v."""
        du, dv = self.generation_of(u), self.generation_of(v)
        while du > dv:
            u = int(self.parent[u]); du -= 1
        while dv > du:
            v = int(self.parent[v]); dv -= 1
        while u != v:
            u = int(self.parent[u])
            v = int(self.parent[v])
            du -= 1
        return du

    def marked_nodes(self, generation: int, mark_bit: int) -> np.ndarray:
        """Nodes of a generation carrying the given spine (1 or 2)."""
        lo, hi = int(self.level_starts[generation]), int(self.level_starts[generation + 1])
        marks = self.spine_mark[lo:hi]
        want = MARK_BOTH if mark_bit == MARK_BOTH else mark_bit
        sel = (marks == want) | (marks == MARK_BOTH)
        return np.nonzero(sel)[0] + lo


class _Builder:
    """Accumulates per-generation arrays and enforces the node budget."""

    def __init__(self, node_budget: int):
        self.budget = node_budget
        self.parents = [np.array([-1], dtype=np.int64)]
        self.counts: list[np.ndarray] = []
        self.marks = [np.zeros(1, dtype=np.uint8)]
        self.level_starts = [0, 1]
        self.total = 1

    def add_level(self, parent_ids: np.ndarray, counts_prev: np.ndarray, marks: np.ndarray) -> None:
        self.counts.append(counts_prev.astype(np.int64))
        self.total += parent_ids.size
        if self.total > self.budget:
            raise NodeBudgetExceeded(self.total, self.budget)
        self.parents.append(parent_ids.astype(np.int64))
        self.marks.append(marks.astype(np.uint8))
        self.level_starts.append(self.total)

    def finish(self) -> LabeledTree:
        self.counts.append(np.zeros(self.level_starts[-1] - self.level_starts[-2], dtype=np.int64))
        return LabeledTree(
            parent=np.concatenate(self.parents),
            level_starts=np.asarray(self.level_starts, dtype=np.int64),
            child_count=np.concatenate(self.counts),
            spine_mark=np.concatenate(self.marks),
        )


def sample_gw_tree(
    env: Environment, n: int, rng: np.random.Generator, node_budget: int = DEFAULT_NODE_BUDGET
) -> LabeledTree:
    """Plain branching tree up to height n; generation counts have the law of Z."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    b = _Builder(node_budget)
    pop = 1
    for k in range(n):
        if pop == 0:
            break
        counts = env.dist_at(k + 1).sample(rng, size=pop)
        base = b.level_starts[-2]
        parent_ids = np.repeat(np.arange(base, base + pop, dtype=np.int64), counts)
        b.add_level(parent_ids, counts, np.zeros(parent_ids.size, dtype=np.uint8))
        pop = int(counts.sum())
    return b.finish()


def sample_one_spine(
    env: Environment, n: int, rng: np.random.Generator, node_budget: int = DEFAULT_NODE_BUDGET
) -> LabeledTree:
    """Size-biased tree: one marked line reproducing by the size-biased law,
    one uniformly chosen child continuing the line, everyone else plain.
    This is the two-spine tree with no branch before the horizon."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    return _spine_tree(env, n, n, rng, node_budget, MARK_SPINE1)


def sample_two_spine(
    env: Environment, n: int, rng: np.random.Generator, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[LabeledTree, int]:
    """Pair-biased tree: one line up to the branching generation K, a
    pair-biased birth there with two distinct children picked without
    replacement, then two independent lines.  Returns (tree, K)."""
    if n < 1:
        raise ValueError("the two-spine construction needs n >= 1")
    K = sample_branch_generation(env, n, rng)
    return _spine_tree(env, n, K, rng, node_budget, MARK_BOTH), K


def sample_branch_generation(env: Environment, n: int, rng: np.random.Generator, size=None):
    """Draws of the branching generation K_n of the two-spine tree, by
    inversion of one uniform each; an int when `size` is None.  This is the
    first draw of every two-spine sampler.

    The inversion reads a guide table (Chen & Asau 1974, AIIE Trans. 6,
    163-166) instead of searching the cdf.  With M buckets, M the power of
    two at or above 2n, a uniform u starts at the number of cdf entries at
    or below floor(uM)/M and steps up while it is at or above the next
    entry, in as many passes as the fullest bucket needs.  M is a power of
    two, so floor(uM)/M is exact and at most u: the start never passes the
    number of cdf entries at or below u, the steps stop there, and the draw
    equals `min(searchsorted(cdf, u, side="right"), n - 1)` bit for bit.

    The cdf entries are nondecreasing, so once a step fails every later one
    does: pass p steps u exactly when u is at or above entry guide[b] + p of
    its bucket b.  Each pass therefore reads that entry from a table of
    buckets, gathered in place over the bucket index of every draw, and
    counts its steps in a small integer array.  Beside the 1-byte arrays,
    the draws hold two row-sized arrays: the uniforms and that index."""
    cdf = np.cumsum(kn_pmf_vector(env, n))
    m = 1 << (2 * n - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
    cdf = np.append(cdf, np.inf)  # a draw past every entry stops at n
    passes = int(np.max(np.diff(guide)))
    u = np.asarray(rng.random(size))
    k = np.empty(u.shape, dtype=np.intp)
    steps = np.zeros(u.shape, dtype=np.min_scalar_type(passes))
    for p in range(passes):
        np.multiply(u, m, out=k, casting="unsafe")
        entry = cdf[np.minimum(guide[:-1] + p, n)]
        steps += u >= np.take(entry, k, out=k.view(np.float64), mode="clip")
    np.multiply(u, m, out=k, casting="unsafe")
    np.take(guide, k, out=k, mode="clip")
    k += steps
    np.minimum(k, n - 1, out=k)
    return int(k) if size is None else k.astype(np.int64, copy=False)


def _spine_tree(
    env: Environment, n: int, K: int, rng: np.random.Generator, node_budget: int, line_mark: int
) -> LabeledTree:
    """Spine tree branching at generation K (no branch when K >= n); the
    single line before the branch carries `line_mark`."""
    b = _Builder(node_budget)
    b.marks[0][0] = line_mark
    pop = 1
    spine1_pos = spine2_pos = 0
    for k in range(n):
        d = env.dist_at(k + 1)
        if k <= K:  # single line: size-biased birth before K, pair-biased at K
            c_spine = (d.size_biased() if k < K else d.pair_biased()).sample(rng)
            counts = np.insert(d.sample(rng, size=pop - 1), spine1_pos, c_spine)
            first = int(counts[:spine1_pos].sum())
            new1 = new2 = first + int(rng.integers(c_spine))
            while k == K and new2 == new1:  # two distinct children at the branch
                new2 = first + int(rng.integers(c_spine))
        else:  # two independent spines
            c1 = d.size_biased().sample(rng)
            c2 = d.size_biased().sample(rng)
            c_off = d.sample(rng, size=pop - 2)
            counts = np.empty(pop, dtype=np.int64)
            plain = np.ones(pop, dtype=bool)
            plain[spine1_pos] = plain[spine2_pos] = False
            counts[plain] = c_off
            counts[spine1_pos] = c1
            counts[spine2_pos] = c2
            offsets = np.concatenate([[0], np.cumsum(counts)])
            new1 = int(offsets[spine1_pos]) + int(rng.integers(c1))
            new2 = int(offsets[spine2_pos]) + int(rng.integers(c2))
        base = b.level_starts[-2]
        parent_ids = np.repeat(np.arange(base, base + pop, dtype=np.int64), counts)
        marks = np.zeros(parent_ids.size, dtype=np.uint8)
        marks[[new1, new2]] = (line_mark, line_mark) if k < K else (MARK_SPINE1, MARK_SPINE2)
        b.add_level(parent_ids, counts, marks)
        spine1_pos, spine2_pos = new1, new2
        pop = int(counts.sum())
    return b.finish()


# ----------------------------------------------------------------------
# Population-only batch samplers.


@dataclass
class PopulationBatch:
    """Final-generation populations of the completed replicates, and their
    branching generations for two-spine runs.  Plain and one-spine runs also
    keep the horizon reached and the node counts of their live replicates
    (in replicate order), which is what continuing them to a later horizon
    needs."""

    x_n: np.ndarray
    aborted: int
    k: np.ndarray | None = None
    n: int | None = None
    nodes: np.ndarray | None = None


def _start_batch(start: PopulationBatch | None, n: int, reps: int) -> PopulationBatch:
    """`start`, checked to be a continuable batch of `reps` replicates that
    stopped at a horizon <= n, or the one-node batch at generation 0."""
    if n < 0 or reps < 0:
        raise ValueError("need n >= 0 and reps >= 0")
    if start is None:
        return PopulationBatch(np.ones(reps, dtype=np.int64), 0, n=0,
                               nodes=np.ones(reps, dtype=np.int64))
    if start.n is None or start.n > n or start.x_n.size + start.aborted != reps:
        raise ValueError("can only continue a batch of the same replicates to a later horizon")
    return start


@dataclass
class LiveRows:
    """The live replicates of plain runs on one or more streams at
    generation n: populations `x` and node counts `nodes`, stream after
    stream, stream i's at rows bounds[i]:bounds[i+1], each stream's in the
    order of its replicates; `aborted` counts each stream's replicates lost
    to the node budget since generation 0.  The other replicates died out."""

    x: np.ndarray
    nodes: np.ndarray
    bounds: np.ndarray
    aborted: np.ndarray
    n: int

    @classmethod
    def start(cls, reps: int) -> "LiveRows":
        """`reps` one-node replicates of one stream at generation 0."""
        return cls(np.ones(reps, dtype=np.int64), np.ones(reps, dtype=np.int64),
                   np.array([0, reps]), np.zeros(1, dtype=np.int64), 0)

    @classmethod
    def join(cls, parts: Sequence["LiveRows"]) -> "LiveRows":
        """The streams of `parts`, all at one generation, in that order."""
        ends = np.cumsum([0] + [part.x.size for part in parts])
        return cls(np.concatenate([part.x for part in parts]),
                   np.concatenate([part.nodes for part in parts]),
                   np.concatenate([part.bounds[:-1] + end for part, end in zip(parts, ends)]
                                  + [ends[-1:]]),
                   np.concatenate([part.aborted for part in parts]), parts[0].n)

    def batch(self, i: int, reps: int) -> PopulationBatch:
        """Stream i's `reps` replicates as a batch to continue: its live
        replicates first, in their order, then the ones that died out."""
        lo, hi = self.bounds[i], self.bounds[i + 1]
        x = np.zeros(reps - self.aborted[i], dtype=np.int64)
        x[:hi - lo] = self.x[lo:hi]
        return PopulationBatch(x, int(self.aborted[i]), n=self.n, nodes=self.nodes[lo:hi])

    def advance(self, env: Environment, n: int, rngs: Sequence[np.random.Generator],
                node_budget: int = DEFAULT_NODE_BUDGET, thin_to: int = 0) -> "LiveRows":
        """These rows at generation n, stream i's drawing from rngs[i]
        exactly what it would alone, or at the first generation from here
        on at which at most `thin_to` of them live."""
        return _advance(env, n, self, rngs, node_budget, thin_to)[0]


def _advance(env: Environment, n: int, rows: LiveRows, rngs: Sequence[np.random.Generator],
             node_budget: int, thin_to: int = 0, idx: np.ndarray | None = None):
    """The plain batch loop of `LiveRows.advance` and
    `simulate_gw_populations`: each generation is one `sum_sample` call over
    every stream's rows, one budget check and one compaction that carries
    the streams' bounds.  Returns the rows reached and, when `idx` labels
    each row (`simulate_gw_populations` passes its replicate positions), the
    labels of the rows kept and a list of arrays of those aborted."""
    pop, cum, bounds, aborted = rows.x, rows.nodes.copy(), rows.bounds, rows.aborted
    gone: list[np.ndarray] = []
    k = rows.n
    while k < n and pop.size > thin_to:
        pop = env.dist_at(k + 1).sum_sample(rngs, pop, bounds=bounds)
        k += 1
        cum += pop
        if cum.max() > node_budget:  # rare: the mask is built only then
            over = cum > node_budget
            aborted = aborted + np.diff(np.concatenate(([0], np.cumsum(over)))[bounds])
            if idx is not None:
                gone.append(idx[over])
            pop[over] = 0
        # From a boolean mask: np.flatnonzero on int64 rows takes numpy's
        # slow path, 2-7 ns a row against about 1 ns for the mask and its scan.
        live = np.flatnonzero(pop != 0)
        if live.size < pop.size:
            pop, cum = pop[live], cum[live]
            bounds = np.searchsorted(live, bounds)
            if idx is not None:
                idx = idx[live]
    if pop.size == 0:  # rows that all died out are at every later generation
        k = max(k, n)
    return LiveRows(pop, cum, bounds, aborted, k), idx, gone


def simulate_gw_populations(
    env: Environment,
    n: int,
    reps: int,
    rng: np.random.Generator,
    node_budget: int = DEFAULT_NODE_BUDGET,
    start: PopulationBatch | None = None,
) -> PopulationBatch:
    """Terminal populations of `reps` independent plain replicates.

    `start` continues an earlier batch of the same replicates from its horizon
    on the same generator; the draws, and so the result, are those of a single
    run to n.  Aborted counts are cumulative from generation 0."""
    start = _start_batch(start, n, reps)
    idx = np.flatnonzero(start.x_n != 0)  # a mask first: see `_advance`
    rows = LiveRows(start.x_n[idx], start.nodes, np.array([0, idx.size]),
                    np.array([start.aborted]), start.n)
    rows, idx, gone = _advance(env, n, rows, [rng], node_budget, idx=idx)
    out = np.zeros(start.x_n.size, dtype=np.int64)
    out[idx] = rows.x
    if gone:
        out = np.delete(out, np.concatenate(gone))
    return PopulationBatch(out, int(rows.aborted[0]), n=n, nodes=rows.nodes)


def simulate_one_spine_populations(
    env: Environment,
    n: int,
    reps: int,
    rng: np.random.Generator,
    node_budget: int = DEFAULT_NODE_BUDGET,
    start: PopulationBatch | None = None,
) -> PopulationBatch:
    """Terminal populations of size-biased replicates (spine included).

    The tree never branches before the horizon, so its law up to any
    generation does not depend on n, and `start` continues an earlier batch
    exactly as for `simulate_gw_populations`."""
    start = _start_batch(start, n, reps)
    off, cum, aborted, _ = _spine_batch(env, start.n, n, n, start.x_n - 1, start.nodes,
                                        rng, node_budget)
    return PopulationBatch(off + 1, start.aborted + aborted, n=n, nodes=cum)


def simulate_two_spine_populations(
    env: Environment,
    n: int,
    reps: int,
    rng: np.random.Generator,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PopulationBatch:
    """Terminal populations and branching generations of pair-biased replicates."""
    if n < 1 or reps < 0:
        raise ValueError("need n >= 1 and reps >= 0")
    K = sample_branch_generation(env, n, rng, reps)
    off, _, aborted, K = _spine_batch(env, 0, n, K, np.zeros(reps, dtype=np.int64),
                                      np.ones(reps, dtype=np.int64), rng, node_budget)
    return PopulationBatch(off + np.where(K < n, 2, 1), aborted, k=K)


def _spine_batch(env: Environment, k0: int, n: int, K, off: np.ndarray, cum: np.ndarray,
                 rng: np.random.Generator, node_budget: int):
    """Advance spine replicates branching at generation K from generation k0
    to n: `off` holds their off-spine populations and `cum` their node counts.
    K is an array, one per replicate, or a scalar shared by all (K >= n for
    no branch before n).  Returns the off-spine populations and node counts
    of the replicates within the budget, the number aborted and K, narrowed
    to the replicates kept when it is an array."""
    aborted = 0
    cum = cum.copy()
    for k in range(k0, n):
        before, at = K > k, K == k
        size_biased = 2 * (K < k) + before  # one parent before the branch, two after
        off = env.dist_at(k + 1).sum_sample(rng, off, size_biased, at)
        cum += off
        cum += 2  # spine nodes in generation k + 1: two, one before the branch
        cum -= before
        if cum.max(initial=0) > node_budget:  # rare: the mask is built only then
            keep = cum <= node_budget
            aborted += int(keep.size - np.count_nonzero(keep))
            off, cum = off[keep], cum[keep]
            if np.ndim(K):
                K = K[keep]
    return off, cum, aborted, K
