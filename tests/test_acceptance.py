"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The Monte Carlo criteria (3, 7b, 8b) take a few minutes;
everything else is deterministic and fast.
"""

import math
import sys
import time

import numpy as np
import pytest

import gwve.experiments as ex
import gwve.oracle as orc
import gwve.pgf_engine as en

SEED = ex.DEFAULT_SEED

E1 = ex.reference_environment("E1")
E2 = ex.reference_environment("E2")


def report(criterion: str, passed: bool, detail: str) -> None:
    # bypass pytest's capture so the line shows up even without -s
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}", file=sys.__stdout__)
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_decomposition_identity():
    """Exact two-spine decomposition identity at 1e-12 relative, in under 1s."""
    t0 = time.perf_counter()
    worst = 0.0
    for env in (E1, E2):
        for n in (1, 10, 100, 200):
            for lam in (0.1, 1.0, 5.0):
                lhs = en.laplace_zddot(env, n, lam)
                rhs = en.two_spine_rhs(env, n, lam)
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (decomposition identity)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max relative gap {worst:.3e} (<= 1e-12), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_closed_form_transforms_vs_oracle():
    """All five closed-form Laplace transforms match brute force to 1e-10."""
    t0 = time.perf_counter()
    lam_grid = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for env in (E1, E2):
        for n in range(1, 7):
            p = orc.exact_pmf(env, n)
            sb = orc.transform_pmf(p, "size_biased")
            pb = orc.transform_pmf(p, "pair_biased")
            for lam in lam_grid:
                worst = max(worst, abs(orc.laplace_from_pmf(sb, lam) - en.laplace_zdot(env, n, lam)))
                worst = max(worst, abs(orc.laplace_from_pmf(pb, lam) - en.laplace_zddot(env, n, lam)))
            for m in range(n):
                d = env.dist_at(m + 1)
                shifted = env.shift(m + 1)
                p_dot = orc.exact_pmf(shifted.prepend(d.size_biased().shift_down(1)), n - m)
                p_ddot = orc.exact_pmf(shifted.prepend(d.pair_biased().shift_down(2)), n - m)
                rest = n - (m + 1)
                p_shift = orc.exact_pmf(shifted, rest) if rest > 0 else None
                for lam in lam_grid:
                    worst = max(worst, abs(orc.laplace_from_pmf(p_dot, lam)
                                           - en.laplace_hanging_qdot(env, n, m, lam)))
                    worst = max(worst, abs(orc.laplace_from_pmf(p_ddot, lam)
                                           - en.laplace_hanging_qddot(env, n, m, lam)))
                    ref = (orc.laplace_from_pmf(orc.transform_pmf(p_shift, "size_biased"), lam)
                           if p_shift is not None else math.exp(-lam))
                    worst = max(worst, abs(ref - en.laplace_zdot_shifted(env, n, m, lam)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (closed forms vs oracle)",
        worst < 1e-10 and elapsed < 10.0,
        f"max abs gap {worst:.3e} (< 1e-10), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_spine_sampler_correctness():
    """Million-replicate spine-sampler laws match the exact reweighted laws."""
    details = []
    ok = True
    for env, name in ((E1, "E1"), (E2, "E2")):
        cfg = ex.ExperimentConfig(env, horizons=[2, 6], replicates=10**6, seed=SEED,
                                  kn_horizon=10)
        for n in (2, 6):
            p = orc.exact_pmf(env, n)
            sb = orc.transform_pmf(p, "size_biased")
            pb = orc.transform_pmf(p, "pair_biased")
            one = ex.collect_populations(cfg, "acc3/one", [n], "one_spine")[0]
            two = ex.collect_populations(cfg, "acc3/two", [n], "two_spine")[0]
            tv1 = orc.tv_distance(orc.histogram_pmf(one.counts, cap=sb.cap), sb)
            tv2 = orc.tv_distance(orc.histogram_pmf(two.counts, cap=pb.cap), pb)
            ok &= tv1 < 0.005 and tv2 < 0.005
            details.append(f"{name} n={n} tv1={tv1:.4f} tv2={tv2:.4f}")
        kn = ex.collect_populations(cfg, "acc3/kn", [10], "two_spine")[0]
        pval = ex.chi_square_pvalue(kn.k_counts, en.kn_pmf_vector(env, 10))
        ok &= pval > 0.001
        details.append(f"{name} K chi2 p={pval:.3f}")
    report("criterion 3 (spine samplers, TV < 0.005, chi2 p > 0.001)", ok, "; ".join(details))


def test_criterion_4_kolmogorov_limit():
    """Normalized survival: exact n/(n+1) on E1; gap < 0.01 at n=2000 on E2."""
    worst_e1 = max(
        abs(en.kolmogorov_ratio(E1, n) - n / (n + 1)) for n in (9, 99, 999)
    )
    gaps = [abs(en.kolmogorov_ratio(E2, n) - 1.0) for n in (100, 500, 2000)]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = worst_e1 <= 1e-12 and gaps[-1] < 0.01 and decreasing
    report(
        "criterion 4 (Kolmogorov-type limit)",
        ok,
        f"E1 max gap to n/(n+1) {worst_e1:.2e} (<= 1e-12); "
        f"E2 gaps {['%.4f' % g for g in gaps]} decreasing={decreasing}, final < 0.01",
    )


def test_criterion_5_uniform_mrca_limit():
    """Branch-point normalizer CDF: within partition norm; -> uniform."""
    ok = True
    details = []
    for env, name, final_tol in ((E1, "E1", 1e-3), (E2, "E2", math.inf)):
        sups = []
        for n in (10, 100, 1000):
            y = (np.arange(2000) + 0.5) / 2000
            sup = float(np.max(np.abs(en.a_kn_cdf(env, n, y) - y)))
            norm = en.partition_norm(env, n)
            ok &= sup <= norm
            sups.append(sup)
        decreasing = all(b < a for a, b in zip(sups, sups[1:]))
        ok &= decreasing and sups[-1] < final_tol
        details.append(f"{name} sups={['%.2e' % s for s in sups]} decreasing={decreasing}")
    report("criterion 5 (uniform MRCA limit)", ok, "; ".join(details))


def test_criterion_6_g_convergence():
    """sup(1 - g) strictly decreasing along {10,100,1000} and < 0.05 at 1000."""
    ok = True
    details = []
    s_grid = np.linspace(0.0, 5.0, 21)
    for env, name in ((E1, "E1"), (E2, "E2")):
        d_values = []
        for n in (10, 100, 1000):
            a_n = env.a(n)
            worst = 0.0
            for s in s_grid:
                profile = en.g_gap_profile(env, n, s / a_n)
                good = profile[~np.isnan(profile)]
                if good.size:
                    worst = max(worst, float(np.max(good)))
            d_values.append(worst)
        decreasing = all(b < a for a, b in zip(d_values, d_values[1:]))
        ok &= decreasing and d_values[-1] < 0.05
        details.append(f"{name} D={['%.4f' % d for d in d_values]}")
    report("criterion 6 (g-convergence)", ok, "; ".join(details))


def test_criterion_7_yaglom_limit():
    """Conditioned Z_n/a_n -> Exp(1): exact transform curve and Monte Carlo."""
    # (a) exact conditional Laplace curve at n = 1000
    s_grid = np.linspace(0.0, 5.0, 21)
    ok = True
    details = []
    for env, name, tol in ((E1, "E1", 5e-3), (E2, "E2", 2e-2)):
        a_n = env.a(1000)
        gap = max(abs(en.conditional_laplace_z(env, 1000, s / a_n) - 1 / (1 + s)) for s in s_grid)
        ok &= gap < tol
        details.append(f"{name} exact curve gap {gap:.2e} (< {tol:g})")
    # (b) Monte Carlo on E1 with >= 1e5 survivors at n = 500
    cfg = ex.ExperimentConfig(
        E1, horizons=[50, 200, 500], replicates=56_000_000, seed=SEED,
        min_survivors=100_000,
    )
    rep = ex.run_yaglom(cfg)
    stats = {(r.n, r.statistic): r for r in rep.rows}
    ks = [stats[(n, "ks_exp1")].value for n in (50, 200, 500)]
    survivors = stats[(500, "survivors")].value
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    ok &= rep.all_pass and ks[-1] < 0.02 and survivors >= 100_000 and decreasing
    details.append(
        f"E1 MC ks={['%.4f' % k for k in ks]} decreasing={decreasing}, "
        f"survivors(500)={survivors:.0f} (>= 1e5)"
    )
    report("criterion 7 (Yaglom limit)", ok, "; ".join(details))


def test_criterion_8_exponential_characterization():
    """Size-biased characterization: closed form to 1e-12 and two-spine KS."""
    ok = True
    worst = 0.0
    for lam in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0):
        lhs = (1.0 + lam) ** -3
        rhs = (1.0 + lam) ** -2 * ex.simpson(lambda u: (1.0 + u * lam) ** -2.0, 0.0, 1.0, 10_000)
        worst = max(worst, abs(lhs - rhs))
    ok &= worst <= 1e-12
    cfg = ex.ExperimentConfig(E1, horizons=[500], replicates=200_000, seed=SEED)
    two = ex.collect_populations(cfg, "exponential", [500], "two_spine")[0]
    ks = ex.ks_statistic_counts(np.arange(two.counts.size) / E1.a(500), two.counts, ex.gamma3_cdf)
    ok &= ks < 0.02
    report(
        "criterion 8 (exponential characterization)",
        ok,
        f"closed-form max gap {worst:.2e} (<= 1e-12); two-spine KS {ks:.4f} (< 0.02)",
    )


def test_criterion_9_reproducibility():
    """Same seed, any thread count: byte-identical CSV bodies."""
    texts = []
    for threads in (1, 2, 4):
        cfg = ex.ExperimentConfig(E2, horizons=[2, 6], replicates=200_000, seed=SEED,
                                  threads=threads, tolerances={"tv": 0.02}, kn_horizon=6)
        texts.append(ex.run_transform_identities(cfg).to_csv_text())
    rerun = ex.ExperimentConfig(E2, horizons=[2, 6], replicates=200_000, seed=SEED,
                                threads=1, tolerances={"tv": 0.02}, kn_horizon=6)
    texts.append(ex.run_transform_identities(rerun).to_csv_text())
    det = []
    for threads in (1, 3):
        cfg = ex.ExperimentConfig(E1, horizons=[1, 10, 100], seed=SEED, threads=threads)
        det.append(ex.run_decomposition_check(cfg).to_csv_text())
    ok = len(set(texts)) == 1 and len(set(det)) == 1
    report(
        "criterion 9 (reproducibility)",
        ok,
        "identical CSV bodies across reruns and thread counts 1/2/4 (MC) and 1/3 (exact)",
    )
