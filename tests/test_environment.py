import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gwve.environment import Environment
from gwve.offspring import Binomial, DistributionError, FiniteTable, Geometric, Poisson
from gwve.streams import stream


def scratch_constants(env, n):
    """Recompute mu_k, S_k from scratch without the incremental cache."""
    mu = [1.0]
    for k in range(1, n + 1):
        mu.append(mu[-1] * env.dist_at(k).mean())
    s = [0.0]
    for k in range(1, n + 1):
        s.append(math.fsum(env.dist_at(j + 1).nu() / mu[j] for j in range(k)))
    return mu, s


def test_dist_at_rules(e1, e2, table, geo):
    assert e1.dist_at(7) == geo
    assert e2.dist_at(2) == table
    ex = Environment.explicit([geo], table)
    assert ex.dist_at(1) == geo
    assert ex.dist_at(5) == table


def test_mu_values(e1, e3):
    assert e1.mu(0) == 1.0
    assert e1.mu(100) == pytest.approx(1.0, abs=1e-12)
    assert e3.mu(3) == pytest.approx(3.375, rel=1e-12)


def test_cum_nu_over_mu(e1, e2, table):
    assert e1.cum_nu_over_mu(5) == pytest.approx(10.0, abs=1e-12)
    assert e2.cum_nu_over_mu(2) == pytest.approx(2.5, abs=1e-12)
    et = Environment.constant(table)
    assert et.cum_nu_over_mu(4) == pytest.approx(2.0, abs=1e-12)


def test_a_values(e1, e2):
    assert e1.a(0) == 1.0
    assert e1.a(5) == pytest.approx(5.0, abs=1e-12)
    assert e2.a(2) == pytest.approx(1.25, abs=1e-12)


def test_cache_matches_scratch(e2):
    rng = stream(10, "cache")
    horizons = sorted(set(rng.integers(1, 2000, size=8).tolist()))
    mu, s = scratch_constants(e2, max(horizons))
    for n in horizons:
        assert e2.mu(n) == pytest.approx(mu[n], rel=1e-10)
        assert e2.cum_nu_over_mu(n) == pytest.approx(s[n], rel=1e-10)


def test_s_nondecreasing(e2):
    values = [e2.cum_nu_over_mu(n) for n in range(1, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_shift_constant_invariance(e1):
    sh = e1.shift(13)
    for n in (1, 4, 9):
        assert sh.dist_at(n) == e1.dist_at(n)


def test_shift_periodic_rotation(e2):
    sh = e2.shift(1)
    for n in (1, 2, 3, 6):
        assert sh.dist_at(n) == e2.dist_at(n + 1)


def test_shift_mu_identity(e2):
    # shifted mean products satisfy mu~_k * mu_m = mu_{m+k}
    for m in (1, 2, 5):
        sh = e2.shift(m)
        for k in (1, 3, 10):
            assert sh.mu(k) * e2.mu(m) == pytest.approx(e2.mu(m + k), rel=1e-12)
            assert sh.dist_at(k).nu() == e2.dist_at(m + k).nu()


def test_shifted_a_value(e1):
    # constant geometric: a_{n-(m+1)} of the (m+1)-shift with n=5, m=2
    assert e1.shift(3).a(2) == pytest.approx(2.0, abs=1e-12)


def test_prepend(e2, geo):
    p = e2.prepend(geo)
    assert p.dist_at(1) == geo
    for k in (1, 2, 3, 8):
        assert p.dist_at(k + 1) == e2.dist_at(k)
    const = Environment.constant(geo)
    same = const.prepend(geo)
    for k in (1, 2, 9):
        assert same.dist_at(k) == const.dist_at(k)


def test_a_grows_in_critical_regime(e1, e2):
    for env in (e1, e2):
        for n in (1, 5, 50, 500):
            assert env.a(2 * n) > env.a(n)


def test_zero_mean_generation_rejected_lazily(table):
    env = Environment.constant(table).prepend(FiniteTable([1.0]))
    with pytest.raises(DistributionError):
        env.mu(1)


def test_mu_overflow_reported_as_infinity(e3):
    import math
    assert e3.mu(10_000) == math.inf
    assert math.isfinite(e3.log_mu(10_000))


# ----------------------------------------------------------------------
# classification


def test_classify_reference_environments(e1, e2, e3):
    assert e1.classify().label == "critical"
    assert e2.classify().label == "critical"
    assert e3.classify().label == "supercritical"
    assert Environment.constant(Binomial(2, 0.25)).classify().label == "subcritical"


def test_classify_constant_never_asymptotically_degenerate():
    cases = [Geometric(p) for p in (0.2, 0.5, 0.8)] + [
        Binomial(2, p) for p in (0.25, 0.5, 0.75)
    ] + [FiniteTable([0.0, 1.0]), FiniteTable([0.25, 0.5, 0.25])]
    for dist in cases:
        label = Environment.constant(dist).classify().label
        assert label != "asymptotically-degenerate"


def test_classify_trivial_constant_is_inconclusive():
    assert Environment.constant(FiniteTable([0.0, 1.0])).classify().label == "inconclusive"


def test_classify_explicit_rules():
    geo = Geometric(0.5)
    table = FiniteTable([0.25, 0.5, 0.25])
    assert Environment.explicit([geo], table).classify(1000).label == "critical"
    assert Environment.explicit([geo], Binomial(2, 0.75)).classify(1000).label == "supercritical"
    assert Environment.explicit([geo], Binomial(2, 0.25)).classify(1000).label == "subcritical"
    degen = Environment.explicit([Binomial(2, 0.75)], FiniteTable([0.0, 1.0]))
    assert degen.classify(1000).label == "asymptotically-degenerate"


# Laws with positive means: random ones, and mean-1 ones so that critical and
# point-mass cycles are drawn too.
_LAWS = st.one_of(
    st.floats(0.05, 0.95).map(Geometric),
    st.floats(0.05, 3.0).map(Poisson),
    st.builds(Binomial, st.integers(1, 4), st.floats(0.05, 1.0)),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4)
    .filter(lambda w: sum(w[1:]) > 0.1).map(lambda w: FiniteTable(np.asarray(w) / sum(w))),
    st.sampled_from([Geometric(0.5), Poisson(1.0), Binomial(2, 0.5),
                     FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.0, 1.0])]),
)


@settings(deadline=None)
@given(st.lists(_LAWS, min_size=1, max_size=3), st.lists(_LAWS, min_size=1, max_size=3))
@example([FiniteTable([0.4, 0.3, 0.3])],
         [Poisson(0.5), FiniteTable([0.25, 0.5, 0.25]), Geometric(0.4)])  # cycle mean product 0.75
@example([Geometric(0.5)], [Binomial(1, 1 - 2**-53)])  # mean within the band, not a point mass
def test_classify_a_head_keeps_the_label_of_its_cycle(head, cycle):
    # a head scales mu_n by a constant and adds a finite sum to S_n; only a
    # cycle of point masses at 1 lets the head decide (asymptotically degenerate)
    assume(not all(d.mean() == 1.0 and d.second_factorial() == 0.0 for d in cycle))
    label = Environment(head, cycle).classify(10).label
    assert label == Environment((), cycle).classify(10).label


def test_classify_refuses_a_zero_mean_law_past_the_horizon():
    # generation 13 is past the window of 10, yet its mean is checked
    env = Environment.periodic([Geometric(0.5)] * 12 + [FiniteTable([1.0])])
    with pytest.raises(DistributionError, match="generation 13 has mean f'\\(1\\) = 0"):
        env.classify(10)


def test_classify_diagnostics_fields(e1):
    d = e1.classify(horizon=100)
    assert d.horizon == 100
    assert d.sup_condition_a_ratio == pytest.approx(1.5, abs=1e-12)
    assert d.s_final == pytest.approx(200.0, abs=1e-10)
    assert d.mu_min_proxy == pytest.approx(1.0, abs=1e-12)
    assert d.as_dict()["label"] == "critical"


def test_classify_counts_a_poisson_law_past_the_exp_underflow():
    # exp(-800) is 0.0 in doubles; Binomial(1, p) has no regularity ratio, so
    # the supremum is Poisson(800)'s 1 + 1/800, and nothing warns on the way
    env = Environment.periodic([Poisson(800.0), Binomial(1, 1 / 800)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = env.classify(horizon=1000)
    assert d.label == "critical"
    assert d.sup_regularity_ratio == pytest.approx(1.0 + 1.0 / 800.0, abs=1e-6)


def test_classify_rejects_tiny_horizon(e1):
    with pytest.raises(ValueError):
        e1.classify(horizon=5)


def test_concurrent_cache_extension(e2):
    import threading

    env = e2
    errors = []

    def worker(n):
        try:
            for k in range(1, n):
                env.cum_nu_over_mu(k)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(1500,)) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    mu, s = scratch_constants(env, 1499)
    assert env.cum_nu_over_mu(1499) == pytest.approx(s[1499], rel=1e-10)
