import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gwve.oracle as orc
import gwve.pgf_engine as en
import gwve.spines as sp
from gwve.environment import Environment
from gwve.offspring import FiniteTable, Geometric
from gwve.streams import stream


# ----------------------------------------------------------------------
# arena trees: structure


def test_gw_tree_root_only(e1):
    tree = sp.sample_gw_tree(e1, 0, stream(1, "t0"))
    assert tree.node_count == 1
    assert tree.population(0) == 1
    assert tree.population(5) == 0


def test_gw_tree_child_counts_consistent(e2):
    tree = sp.sample_gw_tree(e2, 6, stream(2, "t1"))
    # child_count of every node equals the number of arena children
    counted = np.zeros(tree.node_count, dtype=int)
    for node in range(1, tree.node_count):
        counted[tree.parent[node]] += 1
    assert np.array_equal(counted, tree.child_count)
    # populations match level ranges
    for k in range(tree.height + 1):
        lo, hi = tree.level_starts[k], tree.level_starts[k + 1]
        assert tree.population(k) == hi - lo


def test_one_spine_every_generation_has_spine(e1, e2):
    for env in (e1, e2):
        for rep in range(50):
            tree = sp.sample_one_spine(env, 5, stream(3, "one", rep))
            for g in range(6):
                assert tree.population(g) >= 1
                marked = tree.marked_nodes(g, sp.MARK_SPINE1)
                assert marked.size == 1
            # the spine is a genealogical line
            leaf = int(tree.marked_nodes(5, sp.MARK_SPINE1)[0])
            node = leaf
            for g in range(5, 0, -1):
                parent = int(tree.parent[node])
                assert parent in tree.marked_nodes(g - 1, sp.MARK_SPINE1)
                node = parent


def test_two_spine_structure(e1, e2):
    for env in (e1, e2):
        for rep in range(200):
            tree, K = sp.sample_two_spine(env, 5, stream(4, "two", rep))
            assert 0 <= K <= 4
            leaf1 = tree.marked_nodes(5, sp.MARK_SPINE1)
            leaf2 = tree.marked_nodes(5, sp.MARK_SPINE2)
            assert leaf1.size == 1 and leaf2.size == 1
            assert leaf1[0] != leaf2[0]
            assert tree.population(5) >= 2
            # mrca of the two spine leaves is the branch generation
            assert tree.mrca_generation(int(leaf1[0]), int(leaf2[0])) == K
            # single "both" line before the branch, two lines after
            for g in range(K + 1):
                assert tree.marked_nodes(g, sp.MARK_BOTH).size == 1
            for g in range(K + 1, 6):
                m1 = tree.marked_nodes(g, sp.MARK_SPINE1)
                m2 = tree.marked_nodes(g, sp.MARK_SPINE2)
                assert m1.size == 1 and m2.size == 1 and m1[0] != m2[0]
            # the branching node has at least two children
            branch = int(tree.marked_nodes(K, sp.MARK_BOTH)[0])
            assert tree.child_count[branch] >= 2


def test_two_spine_subtree_partition(e2):
    # Nodes at the horizon, bucketed by how long their ancestry follows the
    # spines, add up to the full population: the hanging-subtree partition.
    n = 5
    for rep in range(100):
        tree, K = sp.sample_two_spine(e2, n, stream(5, "part", rep))
        spine_nodes = set()
        for g in range(n + 1):
            for bit in (sp.MARK_SPINE1, sp.MARK_SPINE2):
                spine_nodes.update(tree.marked_nodes(g, bit).tolist())
        lo, hi = tree.level_starts[n], tree.level_starts[n + 1]
        bucket_total = 0
        for node in range(lo, hi):
            walk = node
            while walk not in spine_nodes:
                walk = int(tree.parent[walk])
            bucket_total += 1
        assert bucket_total == tree.population(n)


def test_mrca_basics(e1):
    tree = sp.sample_gw_tree(e1, 6, stream(6, "mrca"))
    for node in range(tree.node_count):
        assert tree.mrca_generation(0, node) == 0
        assert tree.mrca_generation(node, node) == tree.generation_of(node)


def test_node_budget_abort():
    env = Environment.constant(FiniteTable([0.0, 0.0, 1.0]))  # doubling, explodes
    with pytest.raises(sp.NodeBudgetExceeded):
        sp.sample_gw_tree(env, 40, stream(8, "budget"), node_budget=10_000)


def test_tree_determinism(e2):
    a, ka = sp.sample_two_spine(e2, 5, stream(9, "det", 3))
    b, kb = sp.sample_two_spine(e2, 5, stream(9, "det", 3))
    assert ka == kb
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.spine_mark, b.spine_mark)


# ----------------------------------------------------------------------
# batch samplers: law checks against the exact oracle


def test_gw_batch_matches_oracle(e1, e2):
    for env in (e1, e2):
        batch = sp.simulate_gw_populations(env, 3, 200_000, stream(10, "gwb", env.rule))
        exact = orc.exact_pmf(env, 3)
        tv = orc.tv_distance(orc.histogram_pmf(np.bincount(batch.x_n), cap=exact.cap), exact)
        assert tv < 0.005
        assert batch.aborted == 0


def test_gw_batch_mean_in_clt_band(e2):
    n, reps = 4, 200_000
    batch = sp.simulate_gw_populations(e2, n, reps, stream(11, "mean"))
    exact = orc.exact_pmf(e2, n)
    var = exact.second_factorial() + exact.mean() - exact.mean() ** 2
    assert abs(batch.x_n.mean() - e2.mu(n)) < 3 * np.sqrt(var / reps)


def test_one_spine_batch_matches_oracle(e1, e2):
    for env in (e1, e2):
        batch = sp.simulate_one_spine_populations(env, 2, 200_000, stream(12, "oneb", env.rule))
        law = orc.transform_pmf(orc.exact_pmf(env, 2), "size_biased")
        tv = orc.tv_distance(orc.histogram_pmf(np.bincount(batch.x_n), cap=law.cap), law)
        assert tv < 0.005


def test_two_spine_batch_matches_oracle(e1, e2):
    for env in (e1, e2):
        batch = sp.simulate_two_spine_populations(env, 2, 200_000, stream(13, "twob", env.rule))
        law = orc.transform_pmf(orc.exact_pmf(env, 2), "pair_biased")
        tv = orc.tv_distance(orc.histogram_pmf(np.bincount(batch.x_n), cap=law.cap), law)
        assert tv < 0.005
        assert np.all(batch.x_n >= 2)


def test_two_spine_batch_k_law(e2):
    n, reps = 6, 100_000
    batch = sp.simulate_two_spine_populations(e2, n, reps, stream(14, "kb"))
    counts = np.bincount(batch.k, minlength=n)
    expected = en.kn_pmf_vector(e2, n) * reps
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # 5 dof; 27.8 is the archconservative 1e-4 quantile
    assert chi2 < 27.8


def test_arena_and_batch_same_law(e2):
    # the arena sampler and the population-only sampler target one law
    n, reps = 3, 4000
    arena = np.array([
        sp.sample_one_spine(e2, n, stream(15, "cmp", i)).population(n) for i in range(reps)
    ])
    law = orc.transform_pmf(orc.exact_pmf(e2, n), "size_biased")
    tv = orc.tv_distance(orc.histogram_pmf(np.bincount(arena), cap=law.cap), law)
    assert tv < 0.04


def test_batch_determinism_and_stream_independence(e1):
    a = sp.simulate_gw_populations(e1, 5, 1000, stream(16, "det", 0))
    b = sp.simulate_gw_populations(e1, 5, 1000, stream(16, "det", 0))
    c = sp.simulate_gw_populations(e1, 5, 1000, stream(16, "det", 1))
    assert np.array_equal(a.x_n, b.x_n)
    assert not np.array_equal(a.x_n, c.x_n)


BATCH_SAMPLERS = pytest.mark.parametrize(
    "sampler",
    [sp.simulate_gw_populations, sp.simulate_one_spine_populations, sp.simulate_two_spine_populations],
    ids=["gw", "one_spine", "two_spine"],
)


@BATCH_SAMPLERS
def test_batch_node_budget_aborts(sampler):
    env = Environment.constant(FiniteTable([0.0, 0.0, 1.0]))
    batch = sampler(env, 30, 100, stream(17, "abort"), node_budget=1000)
    assert batch.aborted == 100
    assert batch.x_n.size == 0


@BATCH_SAMPLERS
def test_batch_node_budget_partial_abort(sampler, e1):
    n, reps = 30, 2000
    batch = sampler(e1, n, reps, stream(18, "partial"), node_budget=1000)
    assert 0 < batch.aborted < reps
    assert batch.x_n.size + batch.aborted == reps
    if sampler is sp.simulate_two_spine_populations:
        assert batch.k.size == batch.x_n.size
        assert np.all((batch.k >= 0) & (batch.k < n))
    else:
        assert batch.k is None


@pytest.mark.parametrize("env_name", ["e1", "e2"])
def test_gw_batch_continuation_matches_single_runs(env_name, request):
    env = request.getfixturevalue(env_name)
    # the budget aborts some replicates before every horizon, so each
    # continuation starts from a batch with aborts behind it
    reps, budget = 4000, 150
    rng = stream(19, "continue")
    batch = None
    for n in (8, 16, 30):
        batch = sp.simulate_gw_populations(env, n, reps, rng, node_budget=budget, start=batch)
        single = sp.simulate_gw_populations(env, n, reps, stream(19, "continue"), node_budget=budget)
        assert 0 < batch.aborted < reps
        assert np.array_equal(batch.x_n, single.x_n)
        assert batch.aborted == single.aborted
        assert np.count_nonzero(batch.x_n) > 0


def test_one_spine_batch_continuation_matches_single_runs(e2):
    # as for plain batches, with aborts behind every continuation
    reps, budget = 4000, 60
    rng = stream(21, "continue")
    batch = None
    for n in (3, 6, 9):
        batch = sp.simulate_one_spine_populations(e2, n, reps, rng, node_budget=budget, start=batch)
        single = sp.simulate_one_spine_populations(e2, n, reps, stream(21, "continue"),
                                                   node_budget=budget)
        assert 0 < batch.aborted < reps and batch.k is None
        assert np.array_equal(batch.x_n, single.x_n) and batch.aborted == single.aborted
        assert np.array_equal(batch.nodes, single.nodes)


def test_gw_batch_continuation_rejects_mismatched_start(e1):
    batch = sp.simulate_gw_populations(e1, 10, 100, stream(20, "c"))
    with pytest.raises(ValueError):
        sp.simulate_gw_populations(e1, 5, 100, stream(20, "c"), start=batch)
    with pytest.raises(ValueError):
        sp.simulate_gw_populations(e1, 20, 99, stream(20, "c"), start=batch)


def test_live_rows_stop_where_they_thin(e1):
    # with thin_to, rows stop at the first generation with at most that many
    # live replicates, and continuing them is the run to the horizon
    rng = stream(47, "thin")
    rows = sp.LiveRows.start(4000).advance(e1, 50, [rng], thin_to=400)
    assert 0 < rows.n < 50 and rows.x.size <= 400
    at = sp.simulate_gw_populations(e1, rows.n, 4000, stream(47, "thin"))
    assert np.array_equal(rows.x, at.x_n[at.x_n > 0]) and np.array_equal(rows.nodes, at.nodes)
    before = sp.simulate_gw_populations(e1, rows.n - 1, 4000, stream(47, "thin"))
    assert np.count_nonzero(before.x_n) > 400
    # as a batch, the live replicates come first, in their order
    rest = sp.simulate_gw_populations(e1, 50, 4000, rng, start=rows.batch(0, 4000))
    single = sp.simulate_gw_populations(e1, 50, 4000, stream(47, "thin"))
    assert np.array_equal(rest.x_n[rest.x_n > 0], single.x_n[single.x_n > 0])
    assert rest.x_n.size == single.x_n.size and np.array_equal(rest.nodes, single.nodes)
    # rows already that thin stay where they are
    assert rows.advance(e1, 50, [rng], thin_to=400).n == rows.n


@pytest.mark.parametrize("env_name", ["e1", "e2"])
def test_joined_live_rows_draw_what_each_stream_draws_alone(env_name, request):
    # three streams, one of a single replicate, run alone to generation 4 and
    # then joined to 30, with budget aborts before and after the join: each
    # stream's rows are the live replicates of its own run to 30
    env = request.getfixturevalue(env_name)
    sizes, budget = [3000, 1, 2000], 40
    rngs = [stream(46, "merge", i) for i in range(len(sizes))]
    alone = [sp.LiveRows.start(size).advance(env, 4, [rng], budget) for size, rng in zip(sizes, rngs)]
    merged = sp.LiveRows.join(alone).advance(env, 30, rngs, budget)
    assert merged.n == 30 and merged.bounds.size == len(sizes) + 1
    for i, size in enumerate(sizes):
        single = sp.simulate_gw_populations(env, 30, size, stream(46, "merge", i), node_budget=budget)
        rows = slice(merged.bounds[i], merged.bounds[i + 1])
        assert np.array_equal(merged.x[rows], single.x_n[single.x_n > 0]), i
        assert np.array_equal(merged.nodes[rows], single.nodes), i
        assert merged.aborted[i] == single.aborted, i
        batch = merged.batch(i, size)
        assert batch.x_n.size + batch.aborted == size and batch.n == 30, i
    assert merged.aborted.sum() > sum(part.aborted.sum() for part in alone) > 0


def test_two_spine_branch_generation_skips_zero_variance():
    env = Environment.periodic([FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.0, 1.0])])
    batch = sp.simulate_two_spine_populations(env, 6, 20_000, stream(33, "nu0"))
    assert set(batch.k.tolist()) <= {0, 2, 4}


@pytest.mark.parametrize("env_name", ["e1", "e2"])
def test_branch_generation_is_the_two_spine_samplers_first_draw(env_name, request):
    env = request.getfixturevalue(env_name)
    k = sp.sample_branch_generation(env, 10, stream(34, "k-only"), 5000)
    batch = sp.simulate_two_spine_populations(env, 10, 5000, stream(34, "k-only"))
    assert batch.aborted == 0
    assert k.dtype == np.int64
    assert np.array_equal(k, batch.k)
    _, k_arena = sp.sample_two_spine(env, 10, stream(34, "k-arena"))
    assert k_arena == sp.sample_branch_generation(env, 10, stream(34, "k-arena"))


class _Uniforms:
    """Stands in for a generator: its `random` returns the given uniforms
    (the first one for a scalar draw) and records each size asked for."""

    def __init__(self, u):
        self.u, self.sizes = u, []

    def random(self, size=None):
        self.sizes.append(size)
        return float(self.u[0]) if size is None else self.u[:size].copy()


_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-9, 1e-6), st.floats(0.01, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weights=st.lists(_WEIGHTS, min_size=1, max_size=40).filter(any),
       scale=st.sampled_from([1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52]),
       extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
@example(weights=[1.0], scale=1.0, extra=[0.5])  # n = 1
@example(weights=[1.0] * 10, scale=1.0, extra=[])  # cdf[-1] = 1 - 2^-53
@example(weights=[1.0] + [1e-9] * 39, scale=1.0, extra=[])  # all 40 in the last bucket
@example(weights=[1.0, 0.0, 0.0] + [1e-9] * 30 + [1.0], scale=1.0, extra=[])  # 33 near 1/2
def test_branch_generation_guide_table_is_the_binary_search(weights, scale, extra):
    # the guide-table inversion against the binary search it replaces, on
    # uniforms at every cdf entry and bucket edge b/M, one below each, the
    # largest below 1 and random ones; laws with zero-mass entries, entries
    # packed into one bucket, and a cdf ending off 1 by rounding
    pmf = np.array(weights) / math.fsum(weights) * scale
    n = pmf.size
    cdf = np.cumsum(pmf)
    m = 1 << (2 * n - 1).bit_length()  # the bucket count: the power of two at or above 2n
    points = np.concatenate([cdf, np.arange(m) / m, extra])
    u = np.concatenate([points, np.nextafter(points, 0.0), [np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)
    with mock.patch.object(sp, "kn_pmf_vector", lambda env, horizon: pmf):
        rng = _Uniforms(u)
        k = sp.sample_branch_generation(None, n, rng, u.size)
        assert rng.sizes == [u.size]
        assert k.dtype == np.int64 and np.array_equal(k, expected)
        assert sp.sample_branch_generation(None, n, _Uniforms(u), 0).shape == (0,)
        for x, want in zip(u, expected):
            rng = _Uniforms([x])
            got = sp.sample_branch_generation(None, n, rng)
            assert type(got) is int and got == want and rng.sizes == [None]


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("budget, expected", [
    (10**7, {"two": (0, 53709, 9066, "f4852f47df1f66fc", "e3ad447d926b90d9"),
             "one": (0, 38755, "4ef21d7a0a13ee3d")}),
    (60, {"two": (1573, 16258, 5409, "cd03305c9b1c82b2", "8c98bef4912ecddd"),
          "one": (906, 19004, "709ca8b7640eae83")}),
])
def test_tables_only_batches_keep_their_draws(budget, expected):
    # pins the batch samplers' draws on an environment made only of tables,
    # where every generation's off-spine sum is one draw from a cached alias
    # table of the convolved law, with and without budget aborts: a change to
    # the table draw, its stream order or the abort bookkeeping shows here
    env = Environment.periodic([FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.3, 0.3, 0.2, 0.2])])
    two = sp.simulate_two_spine_populations(env, 8, 3000, stream(41, "tables"), node_budget=budget)
    one = sp.simulate_one_spine_populations(env, 8, 3000, stream(41, "tables"), node_budget=budget)
    assert (two.aborted, int(two.x_n.sum()), int(two.k.sum()), _digest(two.x_n), _digest(two.k)) \
        == expected["two"]
    assert (one.aborted, int(one.x_n.sum()), _digest(one.x_n)) == expected["one"]


@pytest.mark.parametrize("budget, expected", [
    (10**7, {"plain": (0, 3131, "14e38e7870175463"),
             "two": (0, 111576, 16846, "4a7788f53aa2443c", "06ad1e25ff12feda"),
             "one": (0, 75524, "46d5809f96f0d378")}),
    (300, {"plain": (8, 2748, "36992aaf8a7c4d2a"),
           "two": (670, 70093, 14224, "9bef38089935f99e", "c033283711eedd66"),
           "one": (295, 58062, "af4bef048fb54753")}),
])
def test_geometric_batches_keep_their_draws(e1, budget, expected):
    # pins the batch samplers' draws on E1, where every generation's
    # off-spine sum is one NegBin draw: from the geometric law's alias table
    # in a generation whose shapes are all below its cut, from that table and
    # the coarse one otherwise, with and without budget aborts (shapes here
    # stay below the coarse table's reach: numpy's draw is pinned by
    # test_geometric_batches_past_the_coarse_reach_keep_their_draws)
    plain = sp.simulate_gw_populations(e1, 12, 3000, stream(42, "geometric"), node_budget=budget)
    two = sp.simulate_two_spine_populations(e1, 12, 3000, stream(42, "geometric"), node_budget=budget)
    one = sp.simulate_one_spine_populations(e1, 12, 3000, stream(42, "geometric"), node_budget=budget)
    assert (plain.aborted, int(plain.x_n.sum()), _digest(plain.x_n)) == expected["plain"]
    assert (two.aborted, int(two.x_n.sum()), int(two.k.sum()), _digest(two.x_n), _digest(two.k)) \
        == expected["two"]
    assert (one.aborted, int(one.x_n.sum()), _digest(one.x_n)) == expected["one"]


@pytest.mark.parametrize("budget, expected", [
    (10**7, {"plain": (0, 20995633, "dffd0b9113a2bac8"),
             "two": (0, 65609309, 170, "bb87f1776b66f424", "25173f42ee4fa393"),
             "one": (0, 43383217, "1a49b84851466bfe")}),
    (2000, {"plain": (2195, 600981, "c0b5e90c7947d8d7"),
            "two": (2996, 5055, 1, "f32d7a974a4528a9", "6cc4f0e930b34481"),
            "one": (2906, 111635, "c04003b43ccfbd01")}),
])
def test_geometric_batches_past_the_coarse_reach_keep_their_draws(budget, expected):
    # pins the batch samplers' draws under Geometric(0.05), whose tables
    # reach shapes below C*A = 30*4 = 120: generation 1 reads the first table
    # alone, generation 2 interleaves both tables with numpy's draw for the
    # few shapes of 120 or more, and generation 3, where most shapes are
    # beyond 120, draws every row with numpy; the budget of 2000 aborts
    # replicates after generation 2 in every sampler
    env = Environment.constant(Geometric(0.05))
    plain = sp.simulate_gw_populations(env, 3, 3000, stream(43, "geometric-reach"), node_budget=budget)
    two = sp.simulate_two_spine_populations(env, 3, 3000, stream(43, "geometric-reach"), node_budget=budget)
    one = sp.simulate_one_spine_populations(env, 3, 3000, stream(43, "geometric-reach"), node_budget=budget)
    assert (plain.aborted, int(plain.x_n.sum()), _digest(plain.x_n)) == expected["plain"]
    assert (two.aborted, int(two.x_n.sum()), int(two.k.sum()), _digest(two.x_n), _digest(two.k)) \
        == expected["two"]
    assert (one.aborted, int(one.x_n.sum()), _digest(one.x_n)) == expected["one"]


@pytest.mark.parametrize("budget, expected", [
    (10**7, (0, 4543124, 756730, "7e4a361938159c47", "5b91105cbef8d369")),
    (300_000, (1535, 1405932, 451175, "62809f8b564b6871", "8612c60e28febaf4")),
])
def test_two_spine_batches_at_criterion_8s_horizon_keep_their_draws(e1, budget, expected):
    # pins the K_n draws from the largest cdf the checks invert (n = 500 on
    # E1) and the spine bookkeeping over 500 generations, with and without
    # budget aborts
    two = sp.simulate_two_spine_populations(e1, 500, 3000, stream(44, "kn-500"), node_budget=budget)
    assert (two.aborted, int(two.x_n.sum()), int(two.k.sum()), _digest(two.x_n), _digest(two.k)) \
        == expected
