import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gwve.oracle as orc
import gwve.pgf_engine as en
from gwve.environment import Environment
from gwve.experiments import DEFAULT_LAMBDA_GRID
from gwve.offspring import DistributionError, FiniteTable, Geometric, Poisson
from gwve.streams import stream
from test_pgf_engine import _offspring_laws

LAMBDA_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


def brute_force_law(env, n, kmax=400):
    """Independent oracle for tiny cases: the coefficient vector of
    f_1(f_2(...f_n(s))) by polynomial substitution, outermost first."""
    poly = np.zeros(kmax + 1)
    poly[1] = 1.0  # identity
    for gen in range(1, n + 1):
        q = env.dist_at(gen).to_table(1e-14).probs
        acc = np.zeros(kmax + 1)
        power = np.zeros(kmax + 1)
        power[0] = 1.0
        for c in poly:
            if c:
                acc += c * power
            power = np.convolve(power, q)[: kmax + 1]
        poly = acc
    return poly


def test_exact_pmf_table_env_closed_form(table):
    env = Environment.constant(table)
    p = orc.exact_pmf(env, 2, cap=64)
    assert p.probs[0] == pytest.approx(25 / 64, abs=1e-14)


def test_exact_pmf_geometric_extinction(e1):
    p = orc.exact_pmf(e1, 3)
    assert p.probs[0] == pytest.approx(0.75, abs=1e-12)
    assert p.tail_mass < 1e-10


def test_exact_pmf_n0_point_mass(e1):
    p = orc.exact_pmf(e1, 0)
    assert p.probs[1] == 1.0
    assert p.mean() == 1.0


def test_exact_pmf_against_polynomial_substitution(e2):
    for n in (1, 2, 3):
        p = orc.exact_pmf(e2, n)
        brute = brute_force_law(e2, n)
        assert np.max(np.abs(p.probs[:40] - brute[:40])) < 1e-12


def test_exact_pmf_moments(e1, e2):
    for env in (e1, e2):
        for n in (1, 4, 8):
            p = orc.exact_pmf(env, n)
            assert p.mean() == pytest.approx(env.mu(n), rel=1e-10)
            expected = env.mu(n) ** 2 * env.cum_nu_over_mu(n)
            assert p.second_factorial() == pytest.approx(expected, rel=1e-9)


def test_exact_pmf_cap_doubling(e1):
    p = orc.exact_pmf(e1, 8, cap=8)
    assert p.cap > 8
    assert p.tail_mass <= 1e-10


def test_laplace_matches_engine(e1, e2):
    for env in (e1, e2):
        for n in (1, 5, 12):
            p = orc.exact_pmf(env, n)
            for lam in LAMBDA_GRID:
                assert orc.laplace_from_pmf(p, lam) == pytest.approx(
                    en.compose(env, 0, n, math.exp(-lam)), abs=1e-10
                )


def test_transform_pmf_point_mass():
    pm = orc.ExactPmf(np.array([0.0, 1.0]), 0.0)
    sb = orc.transform_pmf(pm, "size_biased")
    assert sb.probs[1] == pytest.approx(1.0)
    with pytest.raises(DistributionError):
        orc.transform_pmf(pm, "pair_biased")


def test_transform_pmf_one_generation_matches_offspring(e1, geo):
    # Z_1 is a single offspring draw, so its reweighted laws are q-dot/q-ddot.
    p = orc.exact_pmf(e1, 1)
    pb = orc.transform_pmf(p, "pair_biased")
    ref = geo.pair_biased()
    for k in range(12):
        assert pb.probs[k] == pytest.approx(ref.pmf(k), abs=1e-12)
    sb = orc.transform_pmf(p, "size_biased")
    ref = geo.size_biased()
    for k in range(12):
        assert sb.probs[k] == pytest.approx(ref.pmf(k), abs=1e-12)


def test_transform_laplace_matches_engine(e1, e2):
    for env in (e1, e2):
        for n in (1, 4, 6):
            p = orc.exact_pmf(env, n)
            sb = orc.transform_pmf(p, "size_biased")
            pb = orc.transform_pmf(p, "pair_biased")
            for lam in LAMBDA_GRID:
                assert orc.laplace_from_pmf(sb, lam) == pytest.approx(
                    en.laplace_zdot(env, n, lam), abs=1e-10
                )
                assert orc.laplace_from_pmf(pb, lam) == pytest.approx(
                    en.laplace_zddot(env, n, lam), abs=1e-10
                )


def test_laplace_tail_budget_flagged():
    p = orc.ExactPmf(np.array([0.4, 0.4]), 0.2)
    with pytest.raises(orc.TailBudgetError):
        orc.laplace_from_pmf(p, 1.0)


def test_tv_distance_basics(e1):
    p = orc.exact_pmf(e1, 3)
    assert orc.tv_distance(p, p) == 0.0
    a = np.zeros(2); a[0] = 1.0
    b = np.zeros(2); b[1] = 1.0
    assert orc.tv_distance(a, b) == pytest.approx(1.0)


def test_tv_distance_empirical_convergence(e1):
    rng = stream(21, "oracle-tv")
    sb = orc.transform_pmf(orc.exact_pmf(e1, 2), "size_biased")
    samples = np.searchsorted(np.cumsum(sb.probs), rng.random(10**6), side="right")
    tv = orc.tv_distance(orc.histogram_pmf(np.bincount(samples), cap=sb.cap), sb)
    assert tv < 0.005


def test_histogram_pmf_cap_overflow():
    p = orc.histogram_pmf(np.bincount([0, 1, 1, 9]), cap=3)
    assert p.tail_mass == pytest.approx(0.25)
    assert np.array_equal(p.probs, [0.25, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        orc.histogram_pmf(np.bincount(np.array([], dtype=np.int64)))
    with pytest.raises(ValueError):
        orc.histogram_pmf(np.zeros(3, dtype=np.int64))


def test_exact_pmf_entries_sum_with_tail(e2):
    p = orc.exact_pmf(e2, 6)
    total = math.fsum(p.probs.tolist()) + p.tail_mass
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 6])
def test_truncating_cap_tail_is_the_missing_mass(e2, n):
    # the cap cuts the convolution powers; their overflow is the tail
    p = orc.exact_pmf(e2, n, cap=8, cap_ceiling=8)
    assert p.cap == 8 and p.tail_mass > 1e-6
    assert abs(p.tail_mass - (1.0 - math.fsum(p.probs.tolist()))) <= 1e-14


_OTHER_ENVIRONMENTS = {
    "explicit-head": lambda: Environment.explicit([FiniteTable([0.25, 0.5, 0.25])], Geometric(0.5)),
    "constant-poisson": lambda: Environment.constant(Poisson(1.0)),
}


@pytest.mark.parametrize("env_factory", list(_OTHER_ENVIRONMENTS.values()), ids=list(_OTHER_ENVIRONMENTS))
def test_oracle_cross_checks_other_environments(env_factory):
    env = env_factory()
    n = 4
    p = orc.exact_pmf(env, n)
    assert p.mean() == pytest.approx(env.mu(n), rel=1e-10)
    sb = orc.transform_pmf(p, "size_biased")
    for lam in (0.1, 1.0, 5.0):
        assert orc.laplace_from_pmf(sb, lam) == pytest.approx(
            en.laplace_zdot(env, n, lam), abs=1e-10
        )


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _full_sum_check(probs, tail):
    return abs(math.fsum(probs.tolist()) + tail - 1.0) <= 1e-10


def _full_transform(probs, kind):
    k = np.arange(probs.size, dtype=float)
    w = k * probs if kind == "size_biased" else k * (k - 1.0) * probs
    total = math.fsum(w.tolist())
    if total <= 0.0:
        return None
    w = w / total
    w[w == 0.0] = 0.0
    return w


def _full_tv(p, q):
    a = np.zeros(max(p.probs.size, q.probs.size))
    b = np.zeros(a.size)
    a[: p.probs.size] = p.probs
    b[: q.probs.size] = q.probs
    return 0.5 * math.fsum(np.abs(a - b).tolist()) + 0.5 * abs(p.tail_mass - q.tail_mass)


def _long_zero_tails():
    rng = stream(17, "zero-tails")
    head = rng.random(9)
    head[[2, 5]] = 0.0  # zero entries inside the support too
    yield np.concatenate([head / math.fsum(head.tolist()), np.zeros(4088)]), 0.0
    head = rng.random(40) * 1e-3
    yield np.concatenate([head, np.zeros(2000)]), 1.0 - math.fsum(head.tolist())
    yield np.concatenate([[0.0, 0.25, 0.0, 0.75], np.zeros(60)]), 0.0


def test_reductions_stop_at_the_support_without_moving_a_bit(e2):
    laws = [orc.ExactPmf(probs, tail) for probs, tail in _long_zero_tails()]
    laws += [orc.ExactPmf(np.zeros(50), 1.0), orc.exact_pmf(e2, 6)]
    assert laws[-1].support < 400 < laws[-1].probs.size
    for p in laws:
        nonzero = np.flatnonzero(p.probs)
        assert p.support == (nonzero[-1] + 1 if nonzero.size else 0)
        k = np.arange(p.probs.size, dtype=float)
        assert _bits(p.mean()) == _bits(math.fsum((k * p.probs).tolist()))
        assert _bits(p.second_factorial()) == _bits(math.fsum((k * (k - 1.0) * p.probs).tolist()))
        for lam in DEFAULT_LAMBDA_GRID:
            full = math.fsum((np.exp(-lam * k) * p.probs).tolist())
            assert _bits(orc.laplace_from_pmf(p, lam, tail_budget=1.0)) == _bits(full)
        for kind in ("size_biased", "pair_biased"):
            full = _full_transform(p.probs, kind)
            if full is None:
                with pytest.raises(DistributionError):
                    orc.transform_pmf(p, kind)
                continue
            biased = orc.transform_pmf(p, kind)
            assert biased.probs.size == p.probs.size and biased.tail_mass == 0.0
            assert np.array_equal(_bits(biased.probs), _bits(full))
        for q in laws:
            assert _bits(orc.tv_distance(p, q)) == _bits(_full_tv(p, q))
        # the sum check accepts and refuses what the full-length sum would
        for shift in (-2e-10, -5e-11, 5e-11, 2e-10):
            tail = p.tail_mass + shift
            if tail < 0.0:
                continue
            if _full_sum_check(p.probs, tail):
                orc.ExactPmf(p.probs, tail)
            else:
                with pytest.raises(ValueError, match="sum to"):
                    orc.ExactPmf(p.probs, tail)


@pytest.mark.parametrize("probs, tail", [
    ([math.nan, 0.5], 0.0),
    ([math.inf, 0.5], 0.0),
    ([0.5, 0.5], math.nan),
    ([0.5, 0.5], math.inf),  # also refused by the sum check alone
], ids=["nan-entry", "inf-entry", "nan-tail", "inf-tail"])
def test_exact_pmf_refuses_non_finite_values(probs, tail):
    with pytest.raises(ValueError, match="finite"):
        orc.ExactPmf(np.array(probs), tail)


def _per_law_exact_pmf(env, n, cap=orc.DEFAULT_CAP, tail_budget=orc.DEFAULT_TAIL_BUDGET,
                       cap_ceiling=orc.CAP_CEILING):
    """The reference DP: each generation of each law rebuilds q^{*j} by
    repeated `np.convolve`, cut at the cap, from q^{*0} = 1."""
    while True:
        probs = np.zeros(cap + 1)
        probs[1] = 1.0
        tail = 0.0
        for gen in range(1, n + 1):
            q = env.dist_at(gen).to_table(1e-14).probs
            new = np.zeros(cap + 1)
            new[0] += probs[0]
            occupied = np.nonzero(probs[1:])[0] + 1
            if occupied.size:
                rev_cum = np.cumsum(probs[occupied][::-1])[::-1]
                keep = occupied[rev_cum > orc._STATE_MASS_CUT]
                tail += math.fsum(probs[occupied[rev_cum <= orc._STATE_MASS_CUT]].tolist())
                a, cut, j_prev = np.ones(1), 0.0, 0
                for j in keep:
                    for _ in range(j - j_prev):
                        a = np.convolve(a, q)
                        if a.size > cap + 1:
                            cut += math.fsum(a[cap + 1 :].tolist())
                            a = a[: cap + 1]
                    j_prev = int(j)
                    new[: a.size] += probs[j] * a
                    tail += probs[j] * cut
            probs = new
        if tail <= tail_budget or cap >= cap_ceiling:
            return probs, tail
        cap *= 2


def _assert_same_bits(dp, requests, **kw):
    """Every request's law from the one DP equals the reference DP's law bit
    for bit, in `probs` and `tail_mass`."""
    for env, n in requests:
        got = dp.exact_pmf(env, n, **kw)
        probs, tail = _per_law_exact_pmf(env, n, **kw)
        assert np.array_equal(_bits(got.probs), _bits(probs)), n
        assert _bits(got.tail_mass) == _bits(tail), n


def _lemma33_requests(env, n):
    """The 3n laws that `check identities` asks of one DP at horizon n:
    Z_n, the two hanging-subtree laws at each m < n, and the shifted
    processes."""
    out = [(env, n)]
    for m in range(n):
        d, shifted = env.dist_at(m + 1), env.shift(m + 1)
        out += [(shifted.prepend(d.size_biased().shift_down(1)), n - m),
                (shifted.prepend(d.pair_biased().shift_down(2)), n - m)]
        if n - m - 1 > 0:
            out.append((shifted, n - m - 1))
    return out


def test_shared_dp_matches_the_per_law_dp(e1, e2):
    envs = [e1, e2] + [make() for make in _OTHER_ENVIRONMENTS.values()]
    for env in envs:
        _assert_same_bits(orc.PopulationDP(), [(env, n) for n in (0, 1, 2, 4, 6, 3)])


@pytest.mark.parametrize("env_name", ["e1", "e2"])
def test_shared_dp_matches_the_per_law_dp_on_every_lemma33_law(env_name, request):
    env = request.getfixturevalue(env_name)
    requests = _lemma33_requests(env, 6)
    assert len(requests) == 18
    _assert_same_bits(orc.PopulationDP(), requests)
    # the same requests in reversed order share the same tables
    _assert_same_bits(orc.PopulationDP(), requests[::-1])


def test_shared_dp_cap_doubling_and_distinct_equal_laws():
    # a cap of 8 is doubled until the tail budget is met, at every request
    dp = orc.PopulationDP()
    _assert_same_bits(dp, [(Environment.constant(Geometric(0.5)), n) for n in (8, 5, 8)], cap=8)
    # a cap held at its ceiling keeps its oversized tail
    _assert_same_bits(dp, [(Environment.constant(Geometric(0.5)), 6)], cap=8, cap_ceiling=8)
    # equal laws given as distinct objects share their powers and states
    a = Environment.periodic([Geometric(0.5), FiniteTable([0.25, 0.5, 0.25])])
    b = Environment.periodic([Geometric(0.5), FiniteTable(np.array([0.25, 0.5, 0.25]))])
    dp = orc.PopulationDP()
    _assert_same_bits(dp, [(a, 4), (b, 6), (b.shift(2), 2), (a, 0)])
    assert len(dp._powers) == 2  # one power table per distinct law at the one cap


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(head=st.lists(_offspring_laws(), max_size=2), cycle=st.lists(_offspring_laws(), min_size=1, max_size=3),
       n=st.integers(0, 6))
def test_shared_dp_matches_the_per_law_dp_on_random_environments(head, cycle, n):
    env = Environment(head, cycle)
    requests = [(env, n), (env.shift(1), max(n - 1, 0)), (env, n // 2)]
    _assert_same_bits(orc.PopulationDP(), requests, cap=256, cap_ceiling=1024)
