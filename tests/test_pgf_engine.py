import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gwve.oracle as oracle
import gwve.pgf_engine as en
from gwve.environment import Environment
from gwve.offspring import Binomial, DistributionError, FiniteTable, Geometric, Poisson

LAMBDA_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


def lf_compose(n, s):
    """Closed form for constant geometric(1/2): f_{0,n}(s) = (n-(n-1)s)/((n+1)-ns)."""
    return (n - (n - 1) * s) / ((n + 1) - n * s)


def _laplace_z(env, n, lam):
    """E[exp(-lam Z_n)] = f_{0,n}(e^-lam), for a scalar or a grid lambda."""
    return en.compose(env, 0, n, np.exp(-np.asarray(lam, dtype=float)))


# ----------------------------------------------------------------------
# composition and derivatives


def test_compose_values(e1):
    assert en.compose(e1, 0, 2, 0.0) == pytest.approx(2 / 3, abs=1e-14)
    assert en.compose(e1, 3, 3, 0.3) == 0.3
    assert en.compose(e1, 0, 5, 1.0) == pytest.approx(1.0, abs=1e-14)
    for n in (1, 7, 40):
        for s in (0.0, 0.3, 0.9):
            assert en.compose(e1, 0, n, s) == pytest.approx(lf_compose(n, s), abs=1e-12)


def test_trace_recomputation_consistency(e2):
    t = en.composition_trace(e2, 30, 0.4)
    for l in range(30):
        again = e2.dist_at(l + 1).pgf(t.value(l + 1), 0)
        assert t.value(l) == pytest.approx(again, abs=1e-14)
    assert all(0.0 <= t.value(l) <= 1.0 for l in range(31))


def test_d1_closed_forms(e1):
    assert en.d1_compose(e1, 0, 3, 1.0) == pytest.approx(1.0, abs=1e-12)
    # f'_{0,n}(s) = ((n+1)-ns)^-2
    assert en.d1_compose(e1, 0, 2, 0.0) == pytest.approx(1 / 9, abs=1e-14)
    for n in (1, 5, 20):
        for s in (0.1, 0.6, 1.0):
            assert en.d1_compose(e1, 0, n, s) == pytest.approx(((n + 1) - n * s) ** -2, rel=1e-12)


def test_d2_closed_forms(e1):
    # f''_{0,n}(s) = 2n ((n+1)-ns)^-3
    assert en.d2_compose(e1, 0, 2, 1.0) == pytest.approx(4.0, rel=1e-12)
    for n in (1, 5, 20):
        for s in (0.1, 0.6, 1.0):
            assert en.d2_compose(e1, 0, n, s) == pytest.approx(2 * n * ((n + 1) - n * s) ** -3, rel=1e-12)


@pytest.mark.parametrize("m,n", [(0, 1), (0, 6), (2, 6), (5, 6)])
def test_derivatives_match_finite_differences(e2, m, n):
    h = 1e-5
    for s in np.linspace(0.01, 0.99, 9):
        f = lambda x: en.compose(e2, m, n, x)
        fd1 = (f(s + h) - f(s - h)) / (2 * h)
        fd2 = (f(s + h) - 2 * f(s) + f(s - h)) / h**2
        assert abs(en.d1_compose(e2, m, n, s) - fd1) < 1e-6
        assert abs(en.d2_compose(e2, m, n, s) - fd2) < 1e-4


def test_moment_consistency(e1, e2):
    for env in (e1, e2):
        for n in (1, 10, 100):
            assert en.d1_compose(env, 0, n, 1.0) == pytest.approx(env.mu(n), rel=1e-10)
            expected = env.mu(n) ** 2 * env.cum_nu_over_mu(n)
            assert en.d2_compose(env, 0, n, 1.0) == pytest.approx(expected, rel=1e-10)


def test_derivatives_at_zero_with_missing_q1():
    # f'(0) = 0 for this law, so the sweep meets a vanishing factor f'_n(s).
    env = Environment.constant(FiniteTable([0.5, 0.0, 0.5]))
    t = en.composition_trace(env, 4, 0.0)
    h = 1e-5
    f = lambda x: en.compose(env, 0, 4, x)
    fd1 = (f(2 * h) - f(0.0)) / (2 * h)

    assert en.d1_compose(env, 0, 4, 0.0) == pytest.approx(fd1, abs=1e-4)
    fd2 = (f(0.0) - 2 * f(h) + f(2 * h)) / h**2
    assert en.d2_compose(env, 0, 4, 0.0) == pytest.approx(fd2, abs=1e-3)


def test_last_generation_second_derivative_exact(e3):
    # f''_{n-1,n}(s) is the single factor f''_n(s); no cancellation may creep in
    # from the rest of a long supercritical trace.
    n, s = 3000, 0.5
    t = en.composition_trace(e3, n, s)
    expected = e3.dist_at(n).pgf(s, 2)
    assert abs(t.d2(n - 1) - expected) <= 1e-15 * expected


@pytest.mark.parametrize("law", [Geometric(0.6), Poisson(1.3), Binomial(3, 0.25), Binomial(1, 0.9),
                                 FiniteTable([0.1, 0.2, 0.3, 0.4]), FiniteTable([1.0])],
                         ids=repr)
@pytest.mark.parametrize("s", [0.3, np.linspace(0.0, 1.0, 9)], ids=["scalar", "grid"])
def test_sweep_matches_pgf_bit_for_bit(law, s):
    # the sweep's one complement jet per generation is the law's `_cjet` at
    # the complement column; Binomial(1, p) has f'' = 0, and FiniteTable([1.0])
    # empty tail and derivative vectors
    env = Environment.periodic([law, Geometric(0.5)])
    n = 12
    t = en.CompositionTrace(env, n, s)

    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    for l in range(1, n + 1):
        want = env.dist_at(l)._cjet(t.comp[l])
        for i, got in enumerate((t.comp[l - 1], t.fp[l], t.fpp[l])):
            assert np.array_equal(bits(got), bits(want[i])), (l, i)


def test_range_validation(e1):
    with pytest.raises(ValueError):
        en.compose(e1, 3, 2, 0.5)
    with pytest.raises(ValueError):
        en.compose(e1, 0, 2, 1.5)
    with pytest.raises(ValueError):
        en.laplace_zdot(e1, 2, -0.1)


# ----------------------------------------------------------------------
# survival and plain transforms


def test_survival_values(e1, table):
    assert en.survival_prob(e1, 9) == pytest.approx(0.1, rel=1e-13)
    assert en.survival_prob(e1, 0) == 1.0
    et = Environment.constant(table)
    assert en.survival_prob(et, 1) == pytest.approx(0.75, abs=1e-14)


def test_survival_avoids_cancellation(e1):
    # closed form survival is exactly 1/(n+1)
    for n in (9, 99, 999, 9999):
        assert en.survival_prob(e1, n) == pytest.approx(1 / (n + 1), rel=1e-13)


def test_one_minus_compose_matches_direct(e2):
    for n in (1, 5, 20):
        for s in (0.0, 0.4, 0.9):
            direct = 1.0 - en.compose(e2, 0, n, s)
            assert en.one_minus_compose(e2, 0, n, s) == pytest.approx(direct, abs=1e-11)


def test_laplace_z(e1):
    assert _laplace_z(e1, 5, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert _laplace_z(e1, 2, math.log(2)) == pytest.approx(0.75, abs=1e-14)
    assert _laplace_z(e1, 0, 1.3) == pytest.approx(math.exp(-1.3), abs=1e-15)


# ----------------------------------------------------------------------
# Laplace transforms of the reweighted processes


def test_laplace_zdot_closed_form(e1):
    for lam in (0.2, 0.9, 2.0):
        expected = math.exp(-lam) / (2 - math.exp(-lam)) ** 2
        assert en.laplace_zdot(e1, 1, lam) == pytest.approx(expected, rel=1e-13)


def test_laplace_zdot_limit(e1):
    lam = 1.0 / e1.a(1000)
    assert abs(en.laplace_zdot(e1, 1000, lam) - 0.25) < 2e-3


def test_laplace_zddot_closed_form(e1):
    for lam in (0.2, 0.9, 2.0):
        expected = math.exp(-2 * lam) / (2 - math.exp(-lam)) ** 3
        assert en.laplace_zddot(e1, 1, lam) == pytest.approx(expected, rel=1e-13)


def test_laplace_zddot_limit(e1):
    lam = 1.0 / e1.a(500)
    assert abs(en.laplace_zddot(e1, 500, lam) - 0.125) < 5e-3


def _linear_fractional_derivatives(ps, n, s):
    """f'_{0,n}(s) and f''_{0,n}(s), exactly, for the environment cycling
    through Geometric(p) for p in ps, whose cycle of means has product 1.

    A composition of linear fractional maps is linear fractional (Kersting &
    Vatutin 2017, section 1.4): 1/(1 - f_{0,n}(s)) = 1/(mu_n w) + H_n with
    w = 1 - s and H_n = sum_{k<n} 1/mu_k.  So f'_{0,n}(s) = mu_n/(1 + B w)^2
    and f''_{0,n}(s) = 2 mu_n^2 H_n/(1 + B w)^3 with B = mu_n H_n, here in
    rational arithmetic on the floats p and s."""
    inverse_means = [Fraction(p) / (1 - Fraction(p)) for p in ps]
    assert math.prod(inverse_means) == 1
    prefix = [math.prod(inverse_means[:r]) for r in range(len(ps) + 1)]  # 1/mu_r, r <= L
    cycles, rest = divmod(n, len(ps))
    inv_mu = prefix[rest]
    h = cycles * sum(prefix[:-1]) + sum(prefix[:rest])
    w = 1 - Fraction(s)
    denominator = 1 + h * w / inv_mu
    return float(1 / (inv_mu * denominator**2)), float(2 * h / (inv_mu**2 * denominator**3))


def test_long_horizon_derivatives_match_linear_fractional_closed_forms(e1):
    # Near s = 1 only a sweep that carries 1 - f_{l,n}(s) keeps these
    # digits: rounding f_{l,n}(s) itself costs relative accuracy like n^1.5
    # to n^2, about 2e-9 here.  On E1 mu_n = 1 and S_n = 2n exactly, so the
    # biased transforms are checked too.
    n, lams = 100_000, np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0])
    s = np.exp(-lams)
    for ps in ([0.5], [0.4, 0.6]):
        t = en.CompositionTrace(Environment.periodic([Geometric(p) for p in ps]), n, s)
        want = np.array([_linear_fractional_derivatives(ps, n, x) for x in s.tolist()])
        np.testing.assert_allclose(t.d1(0), want[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(t.d2(0), want[:, 1], rtol=1e-12, atol=0.0)
    w = -np.expm1(-lams)
    np.testing.assert_allclose(en.laplace_zdot(e1, n, lams), s / (1 + n * w) ** 2, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(en.laplace_zddot(e1, n, lams), s**2 / (1 + n * w) ** 3, rtol=1e-12, atol=0.0)
    # On Geometric(0.4)/Geometric(0.6) mu_n = 1 at even n and nu = 2, so S_n
    # = 2 H_n and the biased transforms are E1's with n replaced by H_n =
    # sum_{k<n} 1/mu_k.  They need log mu_n = 0 exactly, not a rounded log
    # per generation.
    pair = Environment.periodic([Geometric(0.4), Geometric(0.6)])
    h = n // 2 * (1 + Fraction(0.4) / Fraction(0.6))
    x = [Fraction(v) for v in s.tolist()]
    np.testing.assert_allclose(en.laplace_zdot(pair, n, lams), [float(v / (1 + h * (1 - v)) ** 2) for v in x],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(en.laplace_zddot(pair, n, lams), [float(v**2 / (1 + h * (1 - v)) ** 3) for v in x],
                               rtol=1e-12, atol=0.0)


def test_laplace_zdot_shifted(e1, e2):
    lam = math.log(2)
    assert en.laplace_zdot_shifted(e1, 3, 1, lam) == pytest.approx(
        en.laplace_zdot(e1, 1, lam), rel=1e-13
    )
    # m = n-1 leaves a single fresh particle
    for env in (e1, e2):
        assert en.laplace_zdot_shifted(env, 4, 3, lam) == pytest.approx(math.exp(-lam), rel=1e-13)
    with pytest.raises(ValueError):
        en.laplace_zdot_shifted(e1, 3, 3, lam)


def test_laplace_hanging_at_last_generation(e1, e2):
    # m = n-1: the composition is the identity
    lam = 0.7
    s = math.exp(-lam)
    for env in (e1, e2):
        n = 4
        d = env.dist_at(n)
        assert en.laplace_hanging_qdot(env, n, n - 1, lam) == pytest.approx(
            d.pgf(s, 1) / d.mean(), rel=1e-13
        )
        assert en.laplace_hanging_qddot(env, n, n - 1, lam) == pytest.approx(
            d.pgf(s, 2) / d.second_factorial(), rel=1e-13
        )


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_laplace_normalization_at_zero(e1, e2, lam):
    if lam != 0.0:
        return
    for env in (e1, e2):
        for n in (1, 3, 17):
            assert _laplace_z(env, n, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert en.laplace_zdot(env, n, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert en.laplace_zddot(env, n, 0.0) == pytest.approx(1.0, abs=1e-12)
            for m in range(n):
                assert en.laplace_zdot_shifted(env, n, m, 0.0) == pytest.approx(1.0, abs=1e-12)
                assert en.laplace_hanging_qdot(env, n, m, 0.0) == pytest.approx(1.0, abs=1e-12)
                assert en.laplace_hanging_qddot(env, n, m, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_laplace_monotone_in_lambda(e1, e2):
    grid = np.linspace(0.0, 5.0, 11)
    for env in (e1, e2):
        n = 7
        for op in (_laplace_z, en.laplace_zdot, en.laplace_zddot):
            vals = [op(env, n, lam) for lam in grid]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# K_n, A_{n,m} and the partition


def test_kn_pmf_constant_uniform(e1):
    for n in (1, 5, 10):
        for r in range(n):
            assert en.kn_pmf_vector(e1, n)[r] == pytest.approx(1.0 / n, abs=1e-13)


def test_kn_pmf_e2(e2):
    assert en.kn_pmf_vector(e2, 2)[0] == pytest.approx(0.8, abs=1e-13)
    assert en.kn_pmf_vector(e2, 2)[1] == pytest.approx(0.2, abs=1e-13)


def test_kn_pmf_sums_to_one(e1, e2):
    for env in (e1, e2):
        for n in (1, 7, 33):
            assert math.fsum(en.kn_pmf_vector(env, n).tolist()) == pytest.approx(1.0, abs=1e-12)


def _a_ratio(env, n, m):
    """A_{n,m}, read off the partition: Pi_k = A_{n,n-k-1}."""
    return en.partition_points(env, n)[n - m - 1]


def test_a_ratio_values(e1):
    assert _a_ratio(e1, 5, 2) == pytest.approx(0.4, abs=1e-13)
    assert _a_ratio(e1, 5, 4) == 0.0
    for n in (4, 9):
        for m in range(n):
            assert _a_ratio(e1, n, m) == pytest.approx((n - 1 - m) / n, abs=1e-13)


def test_a_ratio_strictly_decreasing_in_m(e2):
    n = 12
    vals = [_a_ratio(e2, n, m) for m in range(n)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_a_ratio_cross_check_via_shift(e1, e2):
    for env in (e1, e2):
        for n in (5, 12):
            for m in range(n - 1):
                lhs = _a_ratio(env, n, m) * env.a(n)
                rhs = env.shift(m + 1).a(n - (m + 1))
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_a_kn_cdf_step_values(e1):
    assert en.a_kn_cdf(e1, 10, 0.55) == pytest.approx(0.6, abs=1e-13)
    assert en.a_kn_cdf(e1, 10, 0.0) == pytest.approx(0.1, abs=1e-13)
    assert en.a_kn_cdf(e1, 10, 1.0) == 1.0


def test_a_kn_cdf_array_matches_scalars(e2):
    ys = [0.0, 0.05, 0.5, 0.999, 1.0]
    _assert_grid_matches_scalars(lambda y: en.a_kn_cdf(e2, 7, y), ys)
    assert isinstance(en.a_kn_cdf(e2, 7, 0.5), float)


def test_a_kn_cdf_y_validation(e1):
    with pytest.raises(ValueError):
        en.a_kn_cdf(e1, 5, 1.5)
    with pytest.raises(ValueError):
        en.a_kn_cdf(e1, 5, np.array([0.5, -0.1]))


def test_partition_norm(e1, e2):
    assert en.partition_norm(e1, 10) == pytest.approx(0.1, abs=1e-13)
    for env in (e1, e2):
        n = 25
        pts = en.partition_points(env, n)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) >= 0)
        assert en.partition_norm(env, n) == pytest.approx(np.max(np.diff(pts)), abs=1e-13)


def test_cdf_gap_bounded_by_partition_norm(e1, e2):
    for env in (e1, e2):
        for n in (10, 100):
            norm = en.partition_norm(env, n)
            ys = (np.arange(500) + 0.5) / 500
            gaps = [abs(en.a_kn_cdf(env, n, y) - y) for y in ys]
            assert max(gaps) <= norm + 1e-15


# ----------------------------------------------------------------------
# Kolmogorov ratio and conditional transform


def test_kolmogorov_ratio_linear_fractional(e1):
    assert en.kolmogorov_ratio(e1, 9) == pytest.approx(0.9, abs=1e-13)
    assert en.kolmogorov_ratio(e1, 999) == pytest.approx(0.999, abs=1e-13)


def test_kolmogorov_ratio_table_env(table):
    # Slow O(log n / n) approach for this environment: the gap is 0.069 at
    # n = 100 and reaches 0.05 only past n ~ 160.
    env = Environment.constant(table)
    gaps = [abs(en.kolmogorov_ratio(env, n) - 1.0) for n in (100, 200, 500)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[1] < 0.05
    assert gaps[2] < 0.02


def test_conditional_laplace_basics(e1):
    assert en.conditional_laplace_z(e1, 50, 0.0) == pytest.approx(1.0, abs=1e-12)
    vals = [en.conditional_laplace_z(e1, 50, lam) for lam in np.linspace(0.0, 8.0, 17)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_conditional_laplace_yaglom_curve(e1):
    a = e1.a(1000)
    gap = max(
        abs(en.conditional_laplace_z(e1, 1000, s / a) - 1 / (1 + s))
        for s in np.linspace(0.0, 5.0, 21)
    )
    assert gap < 3e-3


def test_conditional_laplace_extinct_error():
    env = Environment.constant(FiniteTable([1.0]))
    with pytest.raises(DistributionError):
        en.conditional_laplace_z(env, 2, 1.0)


# ----------------------------------------------------------------------
# g ratio and the decomposition identity


def test_g_ratio_at_zero_is_one(e1, e2):
    for env in (e1, e2):
        for m in (0, 2, 4):
            assert en.g_ratio(env, 5, m, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_g_ratio_at_most_one_when_ratio_increasing(e1):
    # For the geometric family f''/f' is increasing, so the pair-biased
    # hanging subtree dominates the size-biased one and g <= 1.
    for n in (3, 10):
        for m in range(n):
            for lam in (0.1, 1.0, 5.0):
                assert en.g_ratio(e1, n, m, lam) <= 1.0 + 1e-12


def test_g_ratio_can_exceed_one(e2):
    # Counterexample: for the table (1/4,1/2,1/4) the pair-biased law is a
    # point mass at two children, so its hanging subtree (the law shifted
    # down by 2) dies immediately and g = 2/(1+v) >= 1 at those generations.
    n = 10
    m = 1  # generation 2 of E2 is the table law
    v = en.compose(e2, m + 1, n, math.exp(-1.0))
    assert en.g_ratio(e2, n, m, 1.0) == pytest.approx(2.0 / (1.0 + v), rel=1e-12)
    assert en.g_ratio(e2, n, m, 1.0) > 1.0


def test_g_ratio_no_pair_biased_law():
    env = Environment.constant(FiniteTable([0.5, 0.5]))
    with pytest.raises(DistributionError):
        en.g_ratio(env, 3, 1, 0.5)


def test_g_gap_profile_matches_scalar(e2):
    n, lam = 8, 0.7
    profile = en.g_gap_profile(e2, n, lam)
    for m in range(n):
        assert profile[m] == pytest.approx(1.0 - en.g_ratio(e2, n, m, lam), abs=1e-14)


def test_g_convergence_trend(e1):
    def d_value(n):
        a = e1.a(n)
        return max(
            float(np.nanmax(en.g_gap_profile(e1, n, s / a)))
            for s in np.linspace(0.0, 5.0, 11)
        )

    d10, d100, d1000 = d_value(10), d_value(100), d_value(1000)
    assert d1000 < d100 < d10
    assert d1000 < 0.05


@pytest.mark.parametrize("n", [1, 10, 100, 200])
@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_two_spine_decomposition_identity(e1, e2, n, lam):
    for env in (e1, e2):
        lhs = en.laplace_zddot(env, n, lam)
        rhs = en.two_spine_rhs(env, n, lam)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_two_spine_rhs_single_term(e1):
    # n = 1: the sum has one term and the identity is the n = 1 closed form
    lam = 0.8
    expected = math.exp(-2 * lam) / (2 - math.exp(-lam)) ** 3
    assert en.two_spine_rhs(e1, 1, lam) == pytest.approx(expected, rel=1e-12)


def test_two_spine_rhs_at_zero(e1, e2):
    for env in (e1, e2):
        for n in (1, 6, 30):
            assert en.two_spine_rhs(env, n, 0.0) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# environments beyond the two critical references


@pytest.mark.parametrize(
    "env_factory",
    [
        lambda: Environment.explicit([FiniteTable([0.25, 0.5, 0.25])], Geometric(0.5)),
        lambda: Environment.constant(Poisson(1.0)),
    ],
    ids=["explicit-head", "constant-poisson"],
)
def test_decomposition_identity_other_environments(env_factory):
    env = env_factory()
    assert env.classify(1000).label == "critical"
    for n in (1, 5, 60):
        for lam in (0.1, 1.0, 5.0):
            lhs = en.laplace_zddot(env, n, lam)
            rhs = en.two_spine_rhs(env, n, lam)
            assert abs(lhs - rhs) <= 1e-12 * lhs


def test_shift_rotation_past_head():
    env = Environment.explicit([FiniteTable([0.25, 0.5, 0.25])], Geometric(0.5))
    sh = env.shift(3)  # beyond the head: pure-cycle rotation
    assert sh.mu(5) * env.mu(3) == pytest.approx(env.mu(8), rel=1e-12)
    for k in (1, 2, 6):
        assert sh.dist_at(k) == env.dist_at(k + 3)


def test_zero_variance_generations():
    # every second generation is a deterministic single child: nu = 0 there,
    # so K_n skips those generations entirely and g is undefined at them
    env = Environment.periodic([Geometric(0.5), FiniteTable([0.0, 1.0])])
    assert env.classify().label == "critical"
    weights = en.kn_pmf_vector(env, 6)
    assert np.allclose(weights[1::2], 0.0)
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 6, 50):
        for lam in (0.1, 1.0, 5.0):
            lhs = en.laplace_zddot(env, n, lam)
            rhs = en.two_spine_rhs(env, n, lam)
            assert abs(lhs - rhs) <= 1e-12 * lhs
    profile = en.g_gap_profile(env, 6, 0.5)
    assert np.all(np.isnan(profile[1::2])) and not np.any(np.isnan(profile[::2]))


@pytest.mark.parametrize("env_factory,horizons", [
    (lambda: Environment.constant(Binomial(2, 0.75)), (10, 100, 300)),
    (lambda: Environment.constant(Geometric(0.6)), (10, 100, 1000)),
], ids=["E3-supercritical", "geometric-subcritical"])
def test_decomposition_identity_off_critical(env_factory, horizons):
    env = env_factory()
    lams = np.array([0.1, 1.0, 5.0])
    for n in horizons:
        lhs = en.laplace_zddot(env, n, lams)
        rhs = en.two_spine_rhs(env, n, lams)
        # a positive normal lhs, so the relative gap says something
        assert np.all(lhs >= sys.float_info.min)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * lhs)


def test_s_n_overflow_raises():
    # S_n = sum_k nu/mu_k overflows for subcritical geometric(0.6) from n = 1800
    env = Environment.constant(Geometric(0.6))
    n = 1800
    assert env.cum_nu_over_mu(n) == math.inf
    for call in (lambda: en.kn_pmf_vector(env, n), lambda: en.laplace_zddot(env, n, 0.0),
                 lambda: en.partition_points(env, n)):
        with pytest.raises(DistributionError):
            call()


_RECORD_ENVIRONMENTS = {
    "E2": lambda: Environment.periodic([Geometric(0.5), FiniteTable([0.25, 0.5, 0.25])]),
    "geometric-pair": lambda: Environment.periodic([Geometric(0.4), Geometric(0.6)]),
    "mixed-cycle": lambda: Environment.periodic([Poisson(1.3), FiniteTable([0.5, 0.1, 0.4]), Binomial(3, 0.25)]),
    "nu-zero-every-second": lambda: Environment.periodic([Geometric(0.5), FiniteTable([0.0, 1.0])]),
}


@pytest.mark.parametrize("env_name", list(_RECORD_ENVIRONMENTS))
def test_transforms_are_rows_of_the_lemma33_record_bit_for_bit(env_name):
    env = _RECORD_ENVIRONMENTS[env_name]()
    for n in (1, 7, 40):
        for lam in (np.array([0.0, 0.1, 0.7, 2.0, 5.0]), 0.7):
            rec = en.lemma33_transforms(env, n, lam)
            np.testing.assert_array_equal(en.g_gap_profile(env, n, lam), 1.0 - rec.g)
            same = [(en.laplace_zdot(env, n, lam), rec.zdot), (en.laplace_zddot(env, n, lam), rec.zddot),
                    (en.two_spine_rhs(env, n, lam), rec.rhs)]
            for m in range(n):
                same += [(en.laplace_zdot_shifted(env, n, m, lam), rec.zdot_shifted[m]),
                         (en.laplace_hanging_qdot(env, n, m, lam), rec.qdot[m])]
                if env.dist_at(m + 1).second_factorial() > 0.0:
                    same += [(en.laplace_hanging_qddot(env, n, m, lam), rec.qddot[m]),
                             (en.g_ratio(env, n, m, lam), rec.g[m])]
                else:  # no pair-biased law: the functions refuse, the rows are NaN
                    for f in (en.laplace_hanging_qddot, en.g_ratio):
                        with pytest.raises(DistributionError):
                            f(env, n, m, lam)
                    assert np.all(np.isnan(rec.qddot[m])) and np.all(np.isnan(rec.g[m]))
            for got, want in same:
                assert isinstance(got, float) == (np.ndim(lam) == 0)
                np.testing.assert_array_equal(got, want)
        # The right-hand side is its own rows' exactly rounded sum.
        weights = en.kn_pmf_vector(env, n)
        keep = weights > 0.0
        terms = weights[keep] * rec.zdot_shifted[keep] * rec.g[keep]
        assert rec.rhs == rec.zdot * math.fsum(terms.tolist())


def test_lemma33_record_marks_what_needs_s_n_as_nan():
    # S_n overflows for subcritical Geometric(0.6) from n = 1800; at n = 0 it is undefined.
    for env, n in ((Environment.constant(Geometric(0.6)), 1800), (Environment.constant(Geometric(0.5)), 0)):
        rec = en.lemma33_transforms(env, n, np.array([0.1, 1.0]))
        assert np.all(np.isnan(rec.zddot)) and np.all(np.isnan(rec.rhs))
        assert np.all(np.isfinite(rec.zdot)) and rec.zdot_shifted.shape == rec.g.shape == (n, 2)


def _assert_grid_matches_scalars(call, points):
    """call(grid) equals [call(x) for x in grid] stacked on the last axis."""
    got = np.asarray(call(np.array(points)))
    want = np.stack([np.asarray(call(x)) for x in points], axis=-1)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("env_name", ["e1", "e2", "e3"])
def test_lambda_grid_matches_scalar(env_name, request):
    env = request.getfixturevalue(env_name)
    lams = [0.0, 0.1, 0.7, 2.0, 5.0]
    n, m = 9, 3
    for f in (_laplace_z, en.laplace_zdot, en.laplace_zddot, en.g_gap_profile, en.two_spine_rhs,
              en.conditional_laplace_z):
        _assert_grid_matches_scalars(lambda x: f(env, n, x), lams)
    for f in (en.laplace_zdot_shifted, en.laplace_hanging_qdot, en.laplace_hanging_qddot, en.g_ratio):
        _assert_grid_matches_scalars(lambda x: f(env, n, m, x), lams)


def test_s_grid_matches_scalar_with_vanishing_factor():
    # f'(0) = 0 for this law: at s = 0 the sweep's first factor is zero
    env = Environment.constant(FiniteTable([0.5, 0.0, 0.5]))
    points = [0.0, 0.3, 1.0]
    n = 6
    for f in (en.compose, en.d1_compose, en.d2_compose, en.one_minus_compose):
        for m in (0, 3, n - 1, n):
            _assert_grid_matches_scalars(lambda s: f(env, m, n, s), points)
    lams = [0.0, 1.0, math.inf]  # s = 1, e^-1, 0
    for f in (_laplace_z, en.laplace_zdot, en.laplace_zddot):
        _assert_grid_matches_scalars(lambda x: f(env, n, x), lams)
    for f in (en.laplace_zdot_shifted, en.laplace_hanging_qdot, en.laplace_hanging_qddot):
        _assert_grid_matches_scalars(lambda x: f(env, n, 2, x), lams)


def _offspring_laws():
    tables = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=6).map(
        lambda p: FiniteTable((np.array(p) + 0.05) / (np.array(p) + 0.05).sum()))
    return st.one_of(
        tables,
        st.floats(0.25, 0.9).map(Geometric),
        st.floats(0.3, 2.5).map(Poisson),
        st.builds(Binomial, st.integers(1, 4), st.floats(0.2, 0.95)),
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(head=st.lists(_offspring_laws(), max_size=2), cycle=st.lists(_offspring_laws(), min_size=1, max_size=3),
       n=st.integers(1, 11), lam=st.floats(0.0, 4.0, exclude_max=True))
def test_randomized_environment_identity_sweep(head, cycle, n, lam):
    # Broad net: random mixed environments, every family, random horizons.
    # The decomposition identity and the moment identities must hold exactly.
    env = Environment(head, cycle)
    assert en.d1_compose(env, 0, n, 1.0) == pytest.approx(env.mu(n), rel=1e-9)
    assert en.d2_compose(env, 0, n, 1.0) == pytest.approx(
        env.mu(n) ** 2 * env.cum_nu_over_mu(n), rel=1e-9
    )
    # every counted example checks the identity
    assume(env.cum_nu_over_mu(n) > 0.0)
    lhs = en.laplace_zddot(env, n, lam)
    rhs = en.two_spine_rhs(env, n, lam)
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)
    if n <= 6:
        p = oracle.exact_pmf(env, n, cap_ceiling=oracle.DEFAULT_CAP)
        assume(p.tail_mass <= oracle.DEFAULT_TAIL_BUDGET)
        lams = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
        for kind, transform in (("size_biased", en.laplace_zdot), ("pair_biased", en.laplace_zddot)):
            biased = oracle.transform_pmf(p, kind)
            ref = [oracle.laplace_from_pmf(biased, x) for x in lams]
            np.testing.assert_allclose(transform(env, n, lams), ref, rtol=0.0, atol=1e-10)
