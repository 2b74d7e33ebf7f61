import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import gwve.experiments as ex
from gwve import oracle, spines
from gwve.environment import Environment
from gwve.offspring import FiniteTable
from gwve.streams import stream


def cfg(env, **kw):
    kw.setdefault("horizons", [2, 6])
    kw.setdefault("replicates", 30_000)
    kw.setdefault("seed", 99)
    return ex.ExperimentConfig(env, **kw)


# ----------------------------------------------------------------------
# config validation


def test_config_validation(e1):
    with pytest.raises(ex.ExperimentError):
        ex.ExperimentConfig(e1, horizons=[])
    with pytest.raises(ex.ExperimentError):
        ex.ExperimentConfig(e1, horizons=[5, 5])
    with pytest.raises(ex.ExperimentError):
        ex.ExperimentConfig(e1, horizons=[5, 2])
    with pytest.raises(ex.ExperimentError):
        ex.ExperimentConfig(e1, horizons=[2], replicates=0)
    with pytest.raises(ex.ExperimentError):
        ex.ExperimentConfig(e1, horizons=[2], tolerances={"nope": 1.0})
    with pytest.raises(ex.ExperimentError, match="nonnegative"):
        ex.ExperimentConfig(e1, horizons=[2], lambda_grid=(0.5, -1.0))
    with pytest.raises(ex.ExperimentError, match="node_budget must be positive"):
        ex.ExperimentConfig(e1, horizons=[2], node_budget=0)
    with pytest.raises(ex.ExperimentError, match="min_survivors must be nonnegative"):
        ex.ExperimentConfig(e1, horizons=[2], min_survivors=-5)
    for retired in ("mc_horizons", "s_grid"):  # Monte Carlo at every horizon, a fixed s-grid
        with pytest.raises(TypeError, match=retired):
            ex.ExperimentConfig(e1, horizons=[2], **{retired: [2]})


@pytest.mark.parametrize("grid", ["lambda_grid"])
def test_config_rejects_empty_grids(e1, grid):
    with pytest.raises(ex.ExperimentError, match="nonempty"):
        ex.ExperimentConfig(e1, horizons=[2], **{grid: ()})


@pytest.mark.parametrize("field, value", [
    ("lambda_grid", (1.0, math.nan)), ("lambda_grid", (-math.inf,)), ("lambda_grid", (math.inf, 0.5)),
    ("tolerances", {"tv": math.nan}), ("tolerances", {"ks": math.inf}),
])
def test_config_rejects_non_finite_numbers(e1, field, value):
    with pytest.raises(ex.ExperimentError, match=field):
        ex.ExperimentConfig(e1, horizons=[2], **{field: value})


def test_chunk_sizes(e1):
    assert cfg(e1, replicates=10, chunk_size=4).chunk_sizes() == [4, 4, 2]
    assert cfg(e1, replicates=8, chunk_size=4).chunk_sizes() == [4, 4]
    assert cfg(e1, replicates=3, chunk_size=4).chunk_sizes() == [3]


def test_reference_environments():
    assert ex.reference_environment("E1").classify().label == "critical"
    assert ex.reference_environment("E2").classify().label == "critical"
    assert ex.reference_environment("E3").classify().label == "supercritical"
    with pytest.raises(ex.ExperimentError):
        ex.reference_environment("E9")


# ----------------------------------------------------------------------
# statistics helpers


def ks_expanded(samples, cdf) -> float:
    """Reference KS distance over the sorted, expanded sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, x.size + 1, dtype=float)
    return max(float(np.max(i / x.size - f)), float(np.max(f - (i - 1.0) / x.size)))


def test_ks_statistic_single_point_at_median():
    ks = ex.ks_statistic_counts([math.log(2)], [1], ex.exp1_cdf)
    assert ks == pytest.approx(0.5, abs=1e-12)


def test_ks_statistic_exact_quantiles():
    m = 200
    qs = -np.log(1 - (np.arange(1, m + 1) - 0.5) / m)
    assert ex.ks_statistic_counts(qs, np.ones(m, dtype=np.int64), ex.exp1_cdf) <= 1.0 / m


def test_ks_statistic_detects_wrong_distribution():
    rng = np.random.default_rng(5)
    wrong = rng.exponential(0.5, size=10_000)  # Exp(2) against Exp(1)
    values, counts = np.unique(wrong, return_counts=True)
    assert ex.ks_statistic_counts(values, counts, ex.exp1_cdf) > 0.1


@pytest.mark.parametrize("cdf", [ex.exp1_cdf, ex.gamma3_cdf])
def test_ks_statistic_counts_matches_expanded_sample(e2, cdf):
    rng = np.random.default_rng(5)
    for trial in range(150):
        n = int(rng.integers(1, 500))
        a_n = e2.a(n)
        x = rng.geometric(1.0 / (1.0 + rng.uniform(0.5, 3.0) * a_n), int(rng.integers(1, 3000)))
        counts = np.bincount(x)
        assert ex.ks_statistic_counts(np.arange(counts.size) / a_n, counts, cdf) \
            == ks_expanded(x / a_n, cdf)


def test_ks_statistic_empty_rejected():
    for values, counts in (([], []), ([1.0, 2.0], [0, 0])):
        with pytest.raises(ValueError):
            ex.ks_statistic_counts(values, counts, ex.exp1_cdf)


def test_chi_square_uniform():
    counts = np.array([100, 104, 96, 100])
    p = ex.chi_square_pvalue(counts, np.full(4, 0.25))
    assert p > 0.9


def test_chi_square_impossible_category():
    assert ex.chi_square_pvalue(np.array([5, 5]), np.array([1.0, 0.0])) == 0.0


def test_chi_square_hand_computed():
    # statistic (2^2 + 2^2) / 20 = 0.4 on one degree of freedom
    p = ex.chi_square_pvalue(np.array([18, 22]), np.array([0.5, 0.5]))
    assert p == pytest.approx(0.52709, abs=1e-5)


def test_chi_square_single_category():
    assert ex.chi_square_pvalue(np.array([250]), np.array([1.0])) == 1.0
    assert ex.chi_square_pvalue(np.array([250, 0]), np.array([1.0, 0.0])) == 1.0


def test_chi_square_overflowing_statistic():
    # an observation in a category of subnormal probability overflows the statistic
    with np.errstate(over="ignore"):
        assert ex.chi_square_pvalue(np.array([1, 10, 10]), np.array([1e-320, 0.5, 0.5])) == 0.0


def test_chi2_sf_matches_scipy():
    from scipy.special import chdtrc

    rng = np.random.default_rng(26)
    for dof in range(1, 300):
        xs = [0.0, 1e-12, 1e-3, 0.5, dof, dof + 2, 400.0, 1500.0]
        xs += rng.uniform(0.0, 3.0 * dof + 60.0, size=20).tolist()
        for x in xs:
            want = float(chdtrc(dof, x))
            got = ex._chi2_sf(dof, float(x))
            assert abs(got - want) <= 1e-13, (dof, x, got, want)
            if want > 1e-300:
                assert abs(got - want) <= 1e-11 * want, (dof, x, got, want)


def test_simpson_polynomial_exact():
    assert ex.simpson(lambda x: x**3, 0.0, 2.0, 10) == pytest.approx(4.0, abs=1e-12)


def test_gamma3_cdf_matches_density_quadrature():
    x = 1.7
    val = ex.simpson(lambda t: t**2 * np.exp(-t) / 2.0, 0.0, x, 2000)
    assert ex.gamma3_cdf(x) == pytest.approx(val, abs=1e-10)


# ----------------------------------------------------------------------
# runners on small configs


def test_decomposition_report(e2):
    r = ex.run_decomposition_check(cfg(e2, horizons=[1, 10, 50]))
    assert r.all_pass
    assert len(r.rows) == 3 * len(ex.DEFAULT_LAMBDA_GRID)
    for row in r.rows:
        assert row.value <= 1e-12


def test_kolmogorov_report(e1):
    r = ex.run_kolmogorov(cfg(e1, horizons=[9, 99, 999]))
    assert r.all_pass
    ratios = [row.value for row in r.rows if row.statistic == "kolmogorov_ratio"]
    assert ratios == pytest.approx([0.9, 0.99, 0.999], abs=1e-12)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "binomial-0.25"])
def test_require_critical_reads_one_cycle_of_a_headless_environment(name):
    # the label comes from one cycle of laws, so the check builds no more
    # generations of constants than one cycle (and at least 10)
    from gwve.environment import Environment
    from gwve.offspring import Binomial

    def make():
        if name == "binomial-0.25":
            return Environment.constant(Binomial(2, 0.25))
        return ex.reference_environment(name)

    label, env = make().classify().label, make()
    if label == "critical":
        ex._require_critical(cfg(env), "kolmogorov")
    else:
        with pytest.raises(ex.ExperimentError, match=label):
            ex._require_critical(cfg(env), "kolmogorov")
    assert len(env._log_mu) == max(10, len(env.cycle)) + 1


@pytest.mark.parametrize("head, cycle, label", [
    (1, 1, "critical"), (5, 8, "critical"), (30, 1, "critical"), (1, 3, "subcritical")])
def test_require_critical_reads_the_head_and_one_cycle(head, cycle, label):
    # a head cannot change the label, so the check builds the head and one
    # cycle of constants (and at least 10 generations), not a long window
    from gwve.environment import Environment
    from gwve.offspring import FiniteTable, Geometric, Poisson

    laws = {"critical": [Geometric(0.5), FiniteTable([0.25, 0.5, 0.25])],
            "subcritical": [Poisson(0.5), FiniteTable([0.25, 0.5, 0.25]), Geometric(0.4)]}[label]
    env = Environment([FiniteTable([0.4, 0.3, 0.3])] * head, [laws[k % len(laws)] for k in range(cycle)])
    if label == "critical":
        ex._require_critical(cfg(env), "kolmogorov")
    else:
        with pytest.raises(ex.ExperimentError, match=label):
            ex._require_critical(cfg(env), "kolmogorov")
    assert len(env._log_mu) == max(10, head + cycle) + 1


def test_require_critical_refuses_a_zero_mean_law_late_in_a_long_cycle():
    from gwve.environment import Environment
    from gwve.offspring import DistributionError, FiniteTable

    env = Environment.periodic([FiniteTable([0.25, 0.5, 0.25])] * 40 + [FiniteTable([1.0])])
    with pytest.raises(DistributionError, match="generation 41"):
        ex._require_critical(cfg(env), "kolmogorov")


def test_kolmogorov_requires_critical(e3):
    with pytest.raises(ex.ExperimentError):
        ex.run_kolmogorov(cfg(e3, horizons=[10, 100]))
    r = ex.run_kolmogorov(cfg(e3, horizons=[10, 100], assume_critical=True))
    assert not r.all_pass  # honest failure for a supercritical environment


def test_uniform_limit_report(e1):
    r = ex.run_uniform_limit(cfg(e1, horizons=[10, 100, 1000]))
    assert r.all_pass
    sups = {row.n: row.value for row in r.rows if row.statistic == "sup_cdf_gap"}
    assert sups[1000] < 1e-3
    norms = {row.n: row.value for row in r.rows if row.statistic == "partition_norm"}
    assert norms[10] == pytest.approx(0.1, abs=1e-12)
    assert all(sups[n] <= norms[n] for n in sups)


def test_g_convergence_report(e2):
    r = ex.run_g_convergence(cfg(e2, horizons=[10, 100, 1000]))
    assert r.all_pass
    with pytest.raises(ex.ExperimentError):
        ex.run_g_convergence(cfg(e2, horizons=[10]))


def test_transform_identities_report(e2):
    r = ex.run_transform_identities(cfg(e2, horizons=[2], replicates=120_000, kn_horizon=6))
    stats = {row.statistic: row for row in r.rows}
    assert stats["lemma33_max_abs_gap"].value < 1e-10
    assert stats["tv_one_spine"].value < 0.01  # trimmed replicate budget
    assert stats["tv_two_spine"].value < 0.01
    assert stats["kn_chi2_pvalue"].value > 0.001
    assert stats["size_biased_integral_residual"].value < 1e-8


def test_identities_gate_each_reweighted_law_by_its_cut_mass():
    # Z_1's tail at cap 4096, 5e-11, is within the budget, yet the atom at
    # 5000 carries 0.31% of E[Z_1 (Z_1 - 1)]: the pair-biased law misses it,
    # so every row built on a reweighted law fails as over budget
    pmf = np.zeros(5001)
    pmf[:3], pmf[-1] = [0.4, 0.4, 0.2 - 5e-11], 5e-11
    env = Environment.constant(FiniteTable(pmf))
    p = oracle.exact_pmf(env, 1)
    assert 0.0 < p.tail_mass <= oracle.DEFAULT_TAIL_BUDGET
    captured = 2.0 * pmf[2]
    assert oracle.reweighting_cut(p, "pair_biased", env, 1) == pytest.approx(
        1.0 - captured / (captured + 5000 * 4999 * pmf[-1]), rel=1e-9)
    r = ex.run_transform_identities(cfg(env, horizons=[1], replicates=2_000, kn_horizon=1,
                                        threads=1, assume_critical=True))
    rows = {row.statistic: row for row in r.rows}
    for stat in ("tv_one_spine", "tv_two_spine", "lemma33_max_abs_gap"):
        assert (rows[stat].value, rows[stat].passed, rows[stat].note) \
            == (math.inf, False, "oracle tail budget exceeded")


# float.hex of the rows of `check identities` that involve no draws, on the
# shipped reference environments: (lemma33_max_abs_gap at n = 2 and 6,
# size_biased_integral_residual with the oracle horizons ending at 2 and 6)
_DETERMINISTIC_ROWS = {
    "E1": ("0x1.381c000000000p-40", "0x1.a2ec000000000p-41",
           "0x1.ac00000000000p-42", "0x1.18b3000000000p-36"),
    "E2": ("0x1.21f0000000000p-40", "0x1.d9e8000000000p-41",
           "0x1.a680000000000p-44", "0x1.a8b0000000000p-39"),
}


@pytest.mark.parametrize("env_name", ["E1", "E2"])
def test_transform_identities_deterministic_rows_are_pinned(env_name):
    # the oracle DP, the engine's transforms and the quadrature alone give
    # these rows, so a change of draws never moves them
    env = ex.reference_environment(env_name)
    got = {}
    for horizons in ([2], [2, 6]):
        r = ex.run_transform_identities(cfg(env, horizons=horizons, replicates=2_000, kn_horizon=4))
        for row in r.rows:
            if row.statistic in ("lemma33_max_abs_gap", "size_biased_integral_residual"):
                got[row.statistic, row.n] = row.value.hex()
    gap2, gap6, res2, res6 = _DETERMINISTIC_ROWS[env_name]
    assert got == {("lemma33_max_abs_gap", 2): gap2, ("lemma33_max_abs_gap", 6): gap6,
                   ("size_biased_integral_residual", 2): res2,
                   ("size_biased_integral_residual", 6): res6}


def test_yaglom_small_run(e1):
    r = ex.run_yaglom(cfg(e1, horizons=[20, 50], replicates=400_000, min_survivors=2000,
                          tolerances={"ks": 0.06, "yaglom_exact": 0.06}))
    assert r.all_pass
    stats = [row.statistic for row in r.rows]
    assert "ks_decreasing" in stats
    assert "survivors" in stats


def test_yaglom_insufficient_survivors_flagged(e1):
    r = ex.run_yaglom(cfg(e1, horizons=[50], replicates=2_000, min_survivors=10**6,
                          tolerances={"yaglom_exact": 1.0}))
    ks_rows = [row for row in r.rows if row.statistic == "ks_exp1"]
    assert len(ks_rows) == 1
    assert "excluded from pass criteria" in ks_rows[0].note
    assert ks_rows[0].tolerance == math.inf
    surv_rows = [row for row in r.rows if row.statistic == "survivors"]
    assert not surv_rows[0].passed  # demanded minimum was not met


# sha256 of the report CSVs of the convergence runners on small configs,
# recorded at `5307140`.  Together they reach every kind of row: gated at the
# last horizon, informational before it, the decrease rows, KS rows with
# insufficient or no survivors, and a Yaglom run with a single KS value (no
# decrease row).
_PINNED_REPORTS = [
    ("run_kolmogorov", "E2", {"horizons": [9, 99, 999]},
     "bbfc22a8350ad4c64703bb8a375cfbeba3544a3be0ff1ee5e6e7c9cd4f6f52cc"),
    ("run_uniform_limit", "E1", {"horizons": [10, 100]},
     "89c2244614a692c57c1debd58c72c46ad5f3f00d86284bac158446e7d58e5231"),
    ("run_g_convergence", "E2", {"horizons": [10, 100]},
     "feb90db9c709f1b03953d8fce6ff4eb7744c990063a295616dfe851bc1816d02"),
    ("run_yaglom", "E1", {"horizons": [5, 10, 20], "replicates": 20_000, "min_survivors": 1000},
     "7eb19be220a04d08c9847b21c07fbbfe957c3d9cb75623dbaf812dcdb592a66e"),
    ("run_yaglom", "E2", {"horizons": [5, 10], "replicates": 20_000, "min_survivors": 1000},
     "37226d26f89ee7ad8eaa6406ec75a7bfa12dfc5003b3be3e5bade5f6d48381d4"),
    ("run_yaglom", "E1", {"horizons": [3, 1000], "replicates": 100, "min_survivors": 10},
     "6f53fd0420de28d163807445766f15cfba9815c957005f50148796fae1935e72"),
]


# The exact engine's decomposition identity and the oracle's reweighted laws
# against the samplers: how the transforms are evaluated must not move a bit.
_PINNED_TRANSFORM_REPORTS = [
    ("run_decomposition_check", "E2", {"horizons": [10, 100, 1000]},
     "1210bfe875d19f2919d2d2d11e7c50aa7fd9705b43a31f51aac61c1de9202765"),
    ("run_transform_identities", "E2", {"horizons": [2, 6], "replicates": 20_000, "threads": 1},
     "be56e9970e29d25d1dd93e40341c8abc5d8e62c0331d81192808be4b264316db"),
]


def _report_digest(runner, env_name, kw):
    r = getattr(ex, runner)(cfg(ex.reference_environment(env_name), **kw))
    return hashlib.sha256(r.to_csv_text().encode()).hexdigest()


@pytest.mark.parametrize("runner, env_name, kw, digest", _PINNED_REPORTS)
def test_convergence_reports_are_pinned(runner, env_name, kw, digest):
    assert _report_digest(runner, env_name, kw) == digest


@pytest.mark.parametrize("runner, env_name, kw, digest", _PINNED_TRANSFORM_REPORTS)
def test_transform_reports_are_pinned(runner, env_name, kw, digest):
    assert _report_digest(runner, env_name, kw) == digest


def test_pinned_reports_reach_every_row_kind():
    notes, statistics = set(), set()
    for runner, env_name, kw, _ in _PINNED_REPORTS:
        r = getattr(ex, runner)(cfg(ex.reference_environment(env_name), **kw))
        notes |= {(row.statistic, row.note, row.tolerance < math.inf) for row in r.rows}
        statistics |= {row.statistic for row in r.rows}
    assert {("abs_gap", "", True), ("abs_gap", "informational", False),
            ("sup_cdf_gap", "", True), ("g_gap_sup", "", True),
            ("exact_curve_gap", "", True), ("exact_curve_gap", "informational", False),
            ("ks_exp1", "", True), ("ks_exp1", "informational", False),
            ("ks_exp1", "insufficient survivors; excluded from pass criteria", False),
            ("ks_exp1", "no survivors; excluded from pass criteria", False)} <= notes
    assert {"gap_decreasing", "sup_decreasing", "g_gap_strictly_decreasing",
            "ks_decreasing"} <= statistics


def test_exponential_characterization_report(e1):
    r = ex.run_exponential_characterization(cfg(e1, horizons=[60], replicates=40_000))
    closed = [row for row in r.rows if row.statistic.startswith("closed_form_gap")]
    assert len(closed) == len(ex.DEFAULT_LAMBDA_GRID)
    assert all(row.value <= 1e-12 for row in closed)
    ks_row = [row for row in r.rows if row.statistic == "ks_pair_biased_gamma3"][0]
    assert ks_row.value < 0.02


# ----------------------------------------------------------------------
# report mechanics and reproducibility


def test_report_rows_consistent(e1):
    r = ex.run_kolmogorov(cfg(e1, horizons=[9, 99]))
    for row in r.rows:
        if row.cmp == "le":
            assert row.passed == (row.value <= row.tolerance)
        else:
            assert row.passed == (row.value >= row.tolerance)


def test_report_written_files(tmp_path, e1):
    r = ex.run_decomposition_check(cfg(e1, horizons=[1, 10]))
    csv_path, summary_path = r.write(tmp_path)
    text = csv_path.read_text()
    assert text.startswith("experiment,n,statistic,value,cmp,tolerance,passed,note")
    doc = json.loads(summary_path.read_text())
    assert doc["overall_pass"] is True
    assert doc["seed"] == 99
    assert "wall_time_s" in doc["metadata"]


def test_reports_reproducible_and_thread_invariant(tmp_path, e2):
    base = dict(horizons=[2, 6], replicates=150_000, seed=424242, kn_horizon=5)
    r1 = ex.run_transform_identities(cfg(e2, **base))
    r2 = ex.run_transform_identities(cfg(e2, **base))
    r4 = ex.run_transform_identities(cfg(e2, **base, threads=4))
    assert r1.to_csv_text() == r2.to_csv_text() == r4.to_csv_text()


def test_collection_is_thread_invariant(e1, pools):
    # four chunks, so a pool starts at threads 2 and 3; a small node budget
    # makes some replicates abort
    for kind in ("gw", "one_spine", "two_spine"):
        runs = []
        for threads in (1, 2, 3):
            c = cfg(e1, horizons=[8], replicates=40_000, chunk_size=10_000, threads=threads,
                    node_budget=100)
            runs.append(ex.collect_populations(c, "t", [8], kind)[0])
        assert runs[0].aborted > 0, kind
        for run in runs[1:]:
            assert run.aborted == runs[0].aborted, kind
            assert np.array_equal(run.counts, runs[0].counts), kind
            if kind == "two_spine":
                assert np.array_equal(run.k_counts, runs[0].k_counts)
    assert [workers for workers, _ in pools] == [2, 3] * 3


@pytest.mark.parametrize("kind", ["two_spine"])
def test_collection_rejects_several_spine_horizons(e1, kind):
    # the law of the branching generation depends on the horizon
    with pytest.raises(ValueError):
        ex.collect_populations(cfg(e1, replicates=100), "t", [5, 10], kind)


def test_one_spine_collection_continues_across_horizons(e2):
    from gwve import oracle

    c = cfg(e2, replicates=200_000, chunk_size=50_000, threads=2)
    runs = ex.collect_populations(c, "t", [2, 4, 6], "one_spine")
    single = ex.collect_populations(c, "t", [6], "one_spine")[0]
    assert np.array_equal(runs[-1].counts, single.counts) and runs[-1].aborted == single.aborted == 0
    for n, run in zip([2, 4], runs):
        assert run.completed == c.replicates and run.k_counts is None
        law = oracle.transform_pmf(oracle.exact_pmf(e2, n), "size_biased")
        assert oracle.tv_distance(oracle.histogram_pmf(run.counts, cap=law.cap), law) < 0.01


def test_collection_rejects_unordered_horizons(e1):
    for horizons in ([], [10, 5], [5, 5]):
        with pytest.raises(ValueError):
            ex.collect_populations(cfg(e1, replicates=100), "t", horizons, "gw")


def test_g_convergence_skips_zero_variance_generations(e1):
    from gwve.offspring import FiniteTable, Geometric
    from gwve.environment import Environment

    env = Environment.periodic([Geometric(0.5), FiniteTable([0.0, 1.0])])
    r = ex.run_g_convergence(cfg(env, horizons=[10, 100, 1000], assume_critical=True))
    skipped = [row for row in r.rows if row.statistic == "skipped_nu_zero_generations"]
    assert skipped[0].value > 0
    assert r.all_pass  # decreasing and below tolerance once the horizon is long enough


@pytest.mark.parametrize("kind", ["gw", "two_spine"])
def test_collection_reduces_chunks_to_histograms(e2, kind):
    c = cfg(e2, horizons=[6], replicates=2_500, chunk_size=1_000, threads=2)
    batches = [getattr(spines, f"simulate_{kind}_populations")(e2, 6, size, stream(99, "t", 6, idx))
               for idx, size in enumerate(c.chunk_sizes())]
    x = np.concatenate([b.x_n for b in batches])
    got = ex.collect_populations(c, "t", [6], kind)[0]
    assert np.array_equal(got.counts, np.bincount(x)) and got.completed == x.size
    assert got.aborted == sum(b.aborted for b in batches)
    if kind == "two_spine":
        k = np.concatenate([b.k for b in batches])
        assert np.array_equal(got.k_counts, np.bincount(k, minlength=6))
    else:
        # the survivors the Yaglom run reads are the histogram's entries at k >= 1
        assert got.k_counts is None
        assert np.array_equal(got.counts[1:], np.bincount(x[x > 0])[1:])
    with pytest.raises(TypeError):
        x, k, aborted = got  # a histogram result, not the old (x, k, aborted) samples


def _collected_batches(e1):
    """Batches from the public samplers, by name: (batch, horizon)."""
    rng = stream(7, "collected", 10, 0)
    one = spines.simulate_one_spine_populations(e1, 3, 400, rng)
    return {
        # 50 replicates to n = 5000: every one dies out (checked below)
        "gw-extinct": (spines.simulate_gw_populations(e1, 5000, 50, stream(1, "collected", 5000, 0)),
                       5000),
        "gw": (spines.simulate_gw_populations(e1, 5, 1_000, rng), 5),
        "gw-empty": (spines.simulate_gw_populations(e1, 5, 0, rng), 5),
        "one-spine-continued": (spines.simulate_one_spine_populations(e1, 8, 400, rng, start=one), 8),
        "two-spine-aborts": (spines.simulate_two_spine_populations(e1, 10, 2_000, rng, 100), 10),
        "two-spine-short": (spines.simulate_two_spine_populations(e1, 4, 300, rng), 4),
        "two-spine-empty": (spines.simulate_two_spine_populations(e1, 6, 0, rng), 6),
    }


def test_collected_of_a_batch_is_its_bincount(e1):
    batches = _collected_batches(e1)
    extinct = batches["gw-extinct"][0]
    assert extinct.nodes.size == 0 and extinct.x_n.size == 50
    assert 0 < batches["two-spine-aborts"][0].aborted < 2_000
    for name, (batch, n) in batches.items():
        got = ex.Collected.of(batch, n)
        assert got.aborted == batch.aborted, name
        assert np.array_equal(got.counts, np.bincount(batch.x_n)), name
        assert got.completed == batch.x_n.size, name
        if batch.k is None:
            assert got.k_counts is None, name
        else:
            assert np.array_equal(got.k_counts, np.bincount(batch.k, minlength=n)), name
    assert np.array_equal(ex.Collected.of(extinct, 5000).counts, [50])


def _padded_sum(a, b):
    top = max(a.size, b.size)
    return np.pad(a, (0, top - a.size)) + np.pad(b, (0, top - b.size))


@pytest.mark.parametrize("left, right", [
    ("gw-extinct", "gw"), ("gw", "gw-empty"), ("one-spine-continued", "gw"),
    ("two-spine-aborts", "two-spine-short"), ("two-spine-short", "two-spine-empty"),
])
def test_collected_parts_add_as_padded_histograms(e1, left, right):
    batches = _collected_batches(e1)
    a, b = (ex.Collected.of(*batches[name]) for name in (left, right))
    assert a.counts.size != b.counts.size  # parts of unequal lengths
    for total in (a + b, b + a, sum([a, b])):
        assert total.aborted == a.aborted + b.aborted
        assert np.array_equal(total.counts, _padded_sum(a.counts, b.counts))
        if a.k_counts is None:
            assert total.k_counts is None
        else:
            assert a.k_counts.size != b.k_counts.size
            assert np.array_equal(total.k_counts, _padded_sum(a.k_counts, b.k_counts))


def test_chi_square_refuses_an_empty_sample():
    # an all-zero histogram (every two-spine replicate aborted) has no p-value
    with pytest.raises(ValueError, match="need at least one sample"):
        ex.chi_square_pvalue(np.zeros(10, dtype=np.int64), np.full(10, 0.1))


def test_spine_collection_memory_does_not_grow_with_replicates(e1):
    chunk = 1 << 14
    ex.collect_populations(cfg(e1, replicates=chunk, chunk_size=chunk, threads=1),
                           "mem", [20], "two_spine")  # fill the environment's caches
    peaks = []
    for chunks in (2, 8):
        c = cfg(e1, replicates=chunks * chunk, chunk_size=chunk, threads=1)
        tracemalloc.start()
        try:
            ex.collect_populations(c, "mem", [20], "two_spine")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_chunk = 2 * 8 * chunk  # populations and branching generations, int64 each
    assert peaks[1] - peaks[0] < one_chunk


def test_gw_collection_memory_holds_one_chunk_more(e1):
    # a group's chunks hold their live replicates until they merge, so a
    # bigger group costs at most one chunk's populations and node counts
    chunk = 1 << 14
    ex.collect_populations(cfg(e1, replicates=chunk, chunk_size=chunk, threads=1),
                           "mem", [20], "gw")  # fill the environment's caches
    peaks = []
    for chunks in (2, 8):
        c = cfg(e1, horizons=[5, 60], replicates=chunks * chunk, chunk_size=chunk, threads=1)
        tracemalloc.start()
        try:
            ex.collect_populations(c, "mem", [5, 60], "gw")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_chunk = 2 * 8 * chunk  # populations and node counts, int64 each
    assert peaks[1] - peaks[0] < one_chunk


def test_threads_default_to_available_cores(e1):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert ex.ExperimentConfig(e1, horizons=[2]).threads == cores


@pytest.fixture
def pools(monkeypatch):
    """(worker count, pool) of every process pool the test starts, with the
    work threshold lifted so that small runs start one and 8 usable cores
    on any host; holding the pools keeps garbage collection from cleaning up
    after them."""
    import concurrent.futures

    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            started.append((max_workers, self))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ex, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(ex, "_available_cores", lambda: 8)
    return started


def test_pool_starts_no_more_workers_than_chunks(e1, pools):
    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=8), "t", [5], "gw")
    ex.collect_populations(cfg(e1, replicates=100, chunk_size=100, threads=8), "t", [5], "gw")
    assert [workers for workers, _ in pools] == [3]


def test_pool_starts_no_more_workers_than_cores(e1, pools, monkeypatch):
    monkeypatch.setattr(ex, "_available_cores", lambda: 2)
    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=8), "t", [5], "gw")
    assert [workers for workers, _ in pools] == [2]


def test_small_runs_start_no_pool(e1, pools, monkeypatch):
    monkeypatch.setattr(ex, "_POOL_MIN_WORK", 300 * 5 + 1)
    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=2), "t", [5], "gw")
    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=2), "t", [6], "gw")
    assert [workers for workers, _ in pools] == [2]


def test_collection_without_fork_runs_inline(e1, pools, monkeypatch):
    import multiprocessing

    c = cfg(e1, replicates=300, chunk_size=100, threads=2)
    pooled = ex.collect_populations(c, "t", [5], "gw")[0]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", None)  # any pool would fail
    inline = ex.collect_populations(c, "t", [5], "gw")[0]
    assert np.array_equal(inline.counts, pooled.counts) and inline.aborted == pooled.aborted
    assert len(pools) == 1


def test_worker_errors_reach_the_caller_and_no_worker_outlives_a_run(e1, pools):
    import multiprocessing

    from gwve.environment import Environment
    from gwve.offspring import DistributionError, FiniteTable, Geometric

    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=2), "t", [5], "one_spine")
    assert multiprocessing.active_children() == []
    # size-biasing the point mass at 0 fails in the first chunk's sampler
    env = Environment.periodic([Geometric(0.5), FiniteTable([1.0])])
    c = cfg(env, horizons=[4], replicates=300, chunk_size=100, threads=2, assume_critical=True)
    with pytest.raises(DistributionError, match="degenerate at zero") as info:
        ex.collect_populations(c, "t", [4], "one_spine")
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"  # raised in a worker
    assert multiprocessing.active_children() == [] and len(pools) == 2


def test_a_dead_worker_fails_the_run(e1, pools, monkeypatch):
    import multiprocessing
    import signal
    import threading
    from concurrent.futures.process import BrokenProcessPool

    # the last, shorter chunk kills its worker process outright
    parent, sample = os.getpid(), spines.simulate_gw_populations

    def sampler(env, n, size, *args, **kwargs):
        if os.getpid() != parent and size == 50:
            os.kill(os.getpid(), signal.SIGKILL)
        return sample(env, n, size, *args, **kwargs)

    monkeypatch.setattr(spines, "simulate_gw_populations", sampler)
    c = cfg(e1, replicates=250, chunk_size=100, threads=2)
    raised = []

    def run():
        try:
            ex.collect_populations(c, "t", [5], "gw")
        except BaseException as exc:
            raised.append(exc)

    waiter = threading.Thread(target=run, daemon=True)
    waiter.start()
    waiter.join(timeout=60)
    assert not waiter.is_alive(), "a dead worker left the run waiting"
    assert len(pools) == 1 and [type(exc) for exc in raised] == [BrokenProcessPool]
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the allocator policy of the processes gwve owns


class _Libc:
    """A C library whose `mallopt` records its calls and returns `result`."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_keep_freed_memory_sets_both_options_as_c_ints(monkeypatch):
    import ctypes

    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert ex._keep_freed_memory() is True
    # M_MMAP_THRESHOLD to 32 MB, M_TRIM_THRESHOLD to never
    assert libc.calls == [(-3, 1 << 25), (-1, 2**31 - 1)]
    assert all(-(2**31) <= v < 2**31 for call in libc.calls for v in call)
    assert libc.mallopt.argtypes == [ctypes.c_int, ctypes.c_int]
    assert libc.mallopt.restype is ctypes.c_int


def _failing(exc):
    def cdll(name):
        raise exc

    return cdll


@pytest.mark.parametrize("cdll", [lambda name: _Libc(result=0), lambda name: object(),
                                  _failing(OSError("no C library")), _failing(TypeError("no path"))],
                         ids=["refused", "no mallopt", "OSError", "TypeError"])
def test_keep_freed_memory_is_a_no_op_without_glibc(monkeypatch, cdll):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert ex._keep_freed_memory() is False


def test_the_cli_and_pool_workers_keep_freed_memory(monkeypatch, capsys):
    from gwve.cli import main

    calls = []
    monkeypatch.setattr(ex, "_keep_freed_memory", lambda: calls.append(1))
    assert main(["constants", "--env", '{"rule":"constant","dist":{"kind":"geometric","p":0.5}}',
                 "--n", "1"]) == 0
    assert len(calls) == 1
    monkeypatch.setattr(ex, "_worker_group", None)
    work = object()
    ex._start_worker(work)
    assert len(calls) == 2 and ex._worker_group is work


def test_library_callers_keep_their_allocator(e1, monkeypatch):
    calls = []
    monkeypatch.setattr(ex, "_keep_freed_memory", lambda: calls.append(1))
    ex.collect_populations(cfg(e1, replicates=300, chunk_size=100, threads=1), "t", [5], "gw")
    assert calls == []


# ----------------------------------------------------------------------
# plain chunks merged into one batch


def _chunks_run_alone(c, tag, horizons):
    """Per horizon, the aborted count and the histogram of every chunk of
    `c` run alone through simulate_gw_populations, summed."""
    aborted = [0] * len(horizons)
    counts = [np.zeros(0, dtype=np.int64)] * len(horizons)
    for idx, size in enumerate(c.chunk_sizes()):
        rng, batch = stream(c.seed, tag, horizons[-1], idx), None
        for i, n in enumerate(horizons):
            batch = spines.simulate_gw_populations(c.environment, n, size, rng, c.node_budget,
                                                   start=batch)
            aborted[i] += batch.aborted
            x = np.bincount(batch.x_n)
            top = max(x.size, counts[i].size)
            counts[i] = np.pad(counts[i], (0, top - counts[i].size)) + np.pad(x, (0, top - x.size))
    return aborted, counts


def _thinning_geometric():
    """Most replicates die in generation 1 and the others have 1 or 129
    children, whose offspring follow Geometric(0.05): its tables reach
    shapes below C*A = 120."""
    from gwve.environment import Environment
    from gwve.offspring import FiniteTable, Geometric

    return Environment(head=[FiniteTable([0.96, 0.02] + [0.0] * 127 + [0.02])],
                       cycle=[Geometric(0.05)])


def _poisson_binomial():
    from gwve.environment import Environment
    from gwve.offspring import Binomial, Poisson

    return Environment.periodic([Poisson(1.0), Binomial(2, 0.5)])


# (environment, horizons, config overrides): 17,000 replicates in chunks of
# 2,000 are 9 chunks, the last one short, grouped as 9, 4 + 5 and 3 + 3 + 3 at
# threads 1, 2 and 3
MERGE_CASES = {
    "e1": (lambda: ex.reference_environment("E1"), [2, 5, 40], {}),
    # the table generations hold rows of 32 or more plain parents
    "e2": (lambda: ex.reference_environment("E2"), [3, 6, 60], {}),
    "geometric-0.05": (_thinning_geometric, [1, 2, 4], {"replicates": 850, "chunk_size": 100}),
    "poisson-binomial": (_poisson_binomial, [2, 6, 40], {}),
    "budget": (lambda: ex.reference_environment("E1"), [2, 10, 40], {"node_budget": 60}),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merged_gw_collection_equals_its_chunks_run_alone(case, pools):
    make, hs, overrides = MERGE_CASES[case]
    env = make()
    kw = {"replicates": 17_000, "chunk_size": 2_000, "assume_critical": True, **overrides}
    aborted, counts = _chunks_run_alone(cfg(env, horizons=hs, **kw), "merge", hs)
    # at threads 1 the nine chunks are one group, which merges at generation
    # m, between the horizons
    chunk = kw["chunk_size"]
    first = spines.LiveRows.start(chunk).advance(env, hs[-1], [stream(99, "merge", hs[-1], 0)],
                                                 kw.get("node_budget", spines.DEFAULT_NODE_BUDGET),
                                                 thin_to=chunk // 9)
    assert hs[0] <= first.n < hs[-1]
    for threads in (1, 2, 3):
        got = ex.collect_populations(cfg(env, horizons=hs, threads=threads, **kw), "merge", hs, "gw")
        assert [run.aborted for run in got] == aborted, threads
        assert all(np.array_equal(run.counts, x) for run, x in zip(got, counts)), threads
    assert [workers for workers, _ in pools] == [2, 3]
    if case == "budget":  # replicates abort after the merge
        assert aborted[-1] > max(a for a, n in zip(aborted, hs) if n <= first.n)
    if case == "geometric-0.05":
        # generation 2 draws from the shapes of generation 1: some chunks
        # have mostly shapes beyond the tables' reach, and numpy draws all
        # of their rows, while a neighbour reads the tables
        whole = []
        for idx, size in enumerate(cfg(env, horizons=hs, **kw).chunk_sizes()):
            x = spines.simulate_gw_populations(env, 1, size, stream(99, "merge", hs[-1], idx)).x_n
            whole.append(2 * np.count_nonzero(x >= 120) > np.count_nonzero(x))
        assert any(a != b for a, b in zip(whole, whole[1:])), whole


def test_every_chunk_reaches_every_horizon_in_a_call_of_its_own(e1, monkeypatch):
    # a group that advances as one batch still reaches each horizon by one
    # simulate_gw_populations call per chunk, of that chunk's size, whose
    # batch holds every one of the chunk's replicates
    calls, sample = [], spines.simulate_gw_populations

    def sampler(env, n, reps, *args, **kwargs):
        batch = sample(env, n, reps, *args, **kwargs)
        calls.append((n, reps, batch.x_n.size + batch.aborted))
        return batch

    monkeypatch.setattr(spines, "simulate_gw_populations", sampler)
    hs = [2, 10, 40]
    c = cfg(e1, horizons=hs, replicates=17_000, chunk_size=2_000, threads=1, node_budget=60)
    got = ex.collect_populations(c, "calls", hs, "gw")
    assert sorted(calls) == sorted((n, size, size) for n in hs for size in c.chunk_sizes())
    assert got[-1].aborted > got[1].aborted > 0


@pytest.mark.parametrize("law, budget", [
    # every replicate dies in generation 1
    pytest.param([1.0], spines.DEFAULT_NODE_BUDGET, id="all-extinct"),
    # every replicate has one or two children, so a budget of 2 nodes aborts
    # the two-child ones in generation 1 and all of them by generation 2
    pytest.param([0.0, 0.5, 0.5], 2, id="all-aborted"),
])
def test_horizon_histograms_of_dead_chunks_match_bincount(law, budget, pools):
    # a chunk that thins to no live rows still steps into every horizon and
    # is reduced from its live rows: its histogram is np.bincount of its
    # batch, [replicates] when all died out and empty when all aborted
    from gwve.environment import Environment
    from gwve.offspring import FiniteTable

    env, hs = Environment.constant(FiniteTable(law)), [1, 2, 5]
    kw = {"horizons": hs, "replicates": 5_000, "chunk_size": 1_000, "node_budget": budget}
    aborted, counts = _chunks_run_alone(cfg(env, **kw), "dead", hs)
    assert counts[-1].size == (1 if budget > 2 else 0)
    for threads in (1, 2):
        got = ex.collect_populations(cfg(env, threads=threads, **kw), "dead", hs, "gw")
        assert [run.aborted for run in got] == aborted, threads
        assert all(np.array_equal(run.counts, x) for run, x in zip(got, counts)), threads


@pytest.mark.parametrize("sizes, count, lengths", [
    # yaglom-e1: 4e6 replicates in chunks of 2^17, the last one of 67,840
    ([1 << 17] * 30 + [67_840], 2, [15, 16]),
    # configs/e1.json: 1e6 replicates in chunks of 2^17
    ([1 << 17] * 7 + [82_496], 2, [4, 4]),
    ([1 << 17] * 7 + [82_496], 3, [3, 2, 3]),
    ([2_000] * 8 + [1_000], 3, [3, 3, 3]),
    ([1 << 17] * 7 + [82_496], 1, [8]),
    ([1, 1, 1, 1, 1], 4, [1, 1, 2, 1]),
])
def test_chunk_groups_hold_near_equal_replicate_counts(sizes, count, lengths):
    groups = ex._chunk_groups(sizes, count)
    assert [len(g) for g in groups] == lengths
    assert [i for g in groups for i in g] == list(range(len(sizes)))
    # each group's replicates are within one chunk of an equal share
    share = sum(sizes) / count
    assert all(abs(sum(sizes[i] for i in g) - share) <= max(sizes) for g in groups)


def test_chunk_groups_of_the_full_yaglom_run():
    # criterion 7: 5.6e7 replicates are 428 chunks in 27 groups, none with
    # more than 16 full chunks
    sizes = ex.ExperimentConfig(ex.reference_environment("E1"), horizons=[500],
                                replicates=56_000_000).chunk_sizes()
    groups = ex._chunk_groups(sizes, -(-len(sizes) // ex._GROUP_CHUNKS))
    assert len(groups) == 27
    assert max(sum(sizes[i] == 1 << 17 for i in g) for g in groups) <= ex._GROUP_CHUNKS
