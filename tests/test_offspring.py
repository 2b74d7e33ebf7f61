import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import chdtrc, nbdtrc

from gwve.offspring import (
    Binomial,
    DistributionError,
    FiniteTable,
    Geometric,
    Poisson,
    _COARSE_ATOMS,
    _INVERT_ATOMS,
    _INVERT_BELOW,
    _NEGBIN_ARRAY_ROWS,
)
from gwve.streams import stream


def brute_factorial_moment(dist, order, kmax=400):
    """Independent oracle: direct pmf summation of E[k (k-1) ... (k-order+1)]."""
    total = 0.0
    for k in range(kmax):
        w = 1.0
        for j in range(order):
            w *= k - j
        total += w * dist.pmf(k)
    return total


# ----------------------------------------------------------------------
# pmf / pgf evaluation


def test_geometric_pmf_values(geo):
    # q(k) = 2^-(k+1) from expanding 1/(2-s)
    assert geo.pmf(0) == 0.5
    assert geo.pmf(3) == pytest.approx(1 / 16, abs=1e-15)


def test_table_pmf_readback(table):
    assert table.pmf(2) == 0.25
    assert table.pmf(7) == 0.0


def test_pgf_second_derivative_geometric(geo):
    # f''(s) = 2/(2-s)^3
    assert geo.pgf(1.0, 2) == pytest.approx(2.0, abs=1e-15)
    assert geo.pgf(0.5, 2) == pytest.approx(2 / 1.5**3, abs=1e-15)


def test_pgf_first_derivative_table(table):
    # f(s) = (1+s)^2/4 so f'(1) = 1
    assert table.pgf(1.0, 1) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "dist",
    [Geometric(0.5), Geometric(0.3), Poisson(1.0), Poisson(2.5),
     Binomial(2, 0.75), FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.1, 0.2, 0.3, 0.4])],
)
def test_pgf_normalization_at_one(dist):
    assert dist.pgf(1.0, 0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "dist",
    [Geometric(0.5), Poisson(1.5), Binomial(3, 0.4), FiniteTable([0.25, 0.5, 0.25])],
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_pgf_at_one_matches_direct_summation(dist, order):
    # the pgf stops at f''; f'''(1) is the third factorial moment
    closed = dist.pgf(1.0, order) if order < 3 else dist.third_factorial()
    assert closed == pytest.approx(brute_factorial_moment(dist, order), abs=1e-12)


@pytest.mark.parametrize("probs", [[0.25, 0.5, 0.25], [0.1, 0.0, 0.3, 0.6], [1.0],
                                   np.linspace(1.0, 2.0, 30) / np.linspace(1.0, 2.0, 30).sum()])
def test_table_pgf_is_polyval_bit_for_bit(probs):
    # the table's jet runs Horner's rule itself, as numpy's polyval does
    from numpy.polynomial.polynomial import polyval
    table = FiniteTable(probs)
    points = [0.0, 0.37, 1.0, -0.5, np.array(0.9), np.linspace(0.0, 1.0, 7), np.exp(-np.arange(6.0)).reshape(2, 3)]
    for s in points:
        jet = table._jet(s)
        assert len(jet) == len(table._dcoefs) == 3
        for got, c in zip(jet, table._dcoefs):
            want = polyval(s, c) if c.size else np.zeros_like(s)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_pgf_rejects_bad_order(geo):
    for order in (3, 4):
        with pytest.raises(ValueError):
            geo.pgf(0.5, order)


FAMILIES = [Geometric(0.5), Poisson(1.0), Binomial(2, 0.5), Binomial(1, 0.3),
            FiniteTable([0.25, 0.5, 0.25]), FiniteTable([1.0])]


@pytest.mark.parametrize("dist", FAMILIES)
def test_scalar_in_float_out_array_in_array_out(dist):
    grid = np.array([0.0, 0.3, 1.0])
    for order in range(3):
        assert isinstance(dist.pgf(0.3, order), float)
        out = dist.pgf(grid, order)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        assert out.tolist() == [dist.pgf(s, order) for s in grid.tolist()]
    assert isinstance(dist.branch_survival(0.2), float)
    assert dist.branch_survival(grid).tolist() == [dist.branch_survival(u) for u in grid.tolist()]
    assert type(dist.sample(np.random.default_rng(0))) is int
    assert dist.sample(np.random.default_rng(0), size=3).dtype == np.int64
    with pytest.raises(ValueError):
        dist.pmf(-1)


def test_equality_and_hash_follow_the_parameters():
    assert FiniteTable([-0.0, 1.0]) == FiniteTable([0.0, 1.0])
    assert hash(FiniteTable([-0.0, 1.0])) == hash(FiniteTable([0.0, 1.0]))
    assert FiniteTable([0.5, 0.5, 0.0]) == FiniteTable([0.5, 0.5])
    assert Geometric(0.5) == Geometric(0.5) and hash(Geometric(0.5)) == hash(Geometric(0.5))
    assert Binomial(2, 0.5) != Binomial(3, 0.5)
    assert Poisson(1.0) != Geometric(1.0)
    assert FiniteTable([1.0]) != Geometric(1.0)  # the same law, but another family
    assert len({Geometric(0.5), Geometric(0.5), Poisson(0.5)}) == 2


def test_pgf_derivatives_match_finite_differences():
    h = 1e-6
    for dist in (Geometric(0.4), Poisson(1.2), Binomial(4, 0.3), FiniteTable([0.2, 0.3, 0.5])):
        for s in (0.2, 0.5, 0.9):
            fd1 = (dist.pgf(s + h) - dist.pgf(s - h)) / (2 * h)
            fd2 = (dist.pgf(s + h) - 2 * dist.pgf(s) + dist.pgf(s - h)) / h**2
            assert dist.pgf(s, 1) == pytest.approx(fd1, rel=1e-7, abs=1e-6)
            assert dist.pgf(s, 2) == pytest.approx(fd2, rel=1e-3, abs=1e-3)


# ----------------------------------------------------------------------
# nu and the diagnostic ratios


def test_nu_values(geo, table):
    assert geo.nu() == pytest.approx(2.0, abs=1e-15)
    assert table.nu() == pytest.approx(0.5, abs=1e-15)
    assert Poisson(1.0).nu() == pytest.approx(1.0, abs=1e-15)


def test_nu_degenerate_mean():
    with pytest.raises(DistributionError, match="degenerate mean"):
        FiniteTable([1.0]).nu()


def test_regularity_ratio_table(table):
    # E[X^2 1{X>=2}] = 1, E[X 1{X>=2}] = 1/2, E[X | X>=1] = 4/3
    assert table.regularity_ratio() == pytest.approx(1.5, abs=1e-12)


def test_regularity_ratio_point_mass_at_one_errors():
    with pytest.raises(DistributionError, match="ratio undefined"):
        FiniteTable([0.0, 1.0]).regularity_ratio()


def test_regularity_ratio_geometric_matches_truncated_sums(geo):
    # Independent truncated-summation oracle.
    ks = np.arange(2000)
    q = 0.5 ** (ks + 1)
    num = float(np.sum(ks[2:] ** 2 * q[2:]))
    den = float(np.sum(ks[2:] * q[2:])) * (float(np.sum(ks * q)) / float(np.sum(q[1:])))
    expected = num / den
    got = geo.regularity_ratio()
    assert got > 0
    assert got == pytest.approx(expected, rel=1e-10)


def test_condition_a_ratio_values(geo, table):
    assert geo.condition_a_ratio() == pytest.approx(1.5, abs=1e-12)
    assert Poisson(1.0).condition_a_ratio() == pytest.approx(0.5, abs=1e-12)
    assert table.condition_a_ratio() == 0.0


def test_condition_a_ratio_needs_second_moment():
    with pytest.raises(DistributionError):
        FiniteTable([0.5, 0.5]).condition_a_ratio()


# ----------------------------------------------------------------------
# size-biased and pair-biased transforms


def test_size_biased_geometric_values(geo):
    sb = geo.size_biased()
    # k * 2^-(k+1) / 1
    assert sb.pmf(0) == 0.0
    assert sb.pmf(1) == pytest.approx(0.25, abs=1e-13)
    assert sb.pmf(2) == pytest.approx(0.25, abs=1e-13)
    assert sb.pmf(3) == pytest.approx(3 / 16, abs=1e-13)


def test_size_biased_table(table):
    assert np.allclose(table.size_biased().probs, [0.0, 0.5, 0.5], atol=1e-15)


def test_size_biased_poisson_is_shifted_poisson():
    po = Poisson(1.0)
    sb = po.size_biased()
    for k in range(12):
        assert sb.pmf(k + 1) == pytest.approx(po.pmf(k), abs=1e-13)


def _poisson_table_from_zero(lam, tail_tol):
    """Reference table: q(k) = q(k-1) lam/k from q(0) = exp(-lam), cut where
    the tail bound q(k) r/(1-r), r = lam/(k+1) < 1, reaches tail_tol.  Valid
    only while exp(-lam) is a normal double (lam below about 708)."""
    probs, k = [math.exp(-lam)], 0
    while True:
        r = lam / (k + 1)
        if r < 1.0 and probs[-1] * r / (1.0 - r) <= tail_tol:
            return np.asarray(probs) / math.fsum(probs)
        k += 1
        probs.append(probs[-1] * lam / k)


@pytest.mark.parametrize("lam", [0.5, 1.0, 30.0])
@pytest.mark.parametrize("tail_tol", [1e-14, 1e-15, 1e-18])
def test_poisson_table_matches_the_recurrence_from_zero(lam, tail_tol):
    table = Poisson(lam).to_table(tail_tol).probs
    reference = _poisson_table_from_zero(lam, tail_tol)
    assert table.size == reference.size
    assert np.max(np.abs(table - reference)) <= 1e-15


def test_poisson_table_past_the_exp_underflow():
    # exp(-800) is 0.0 in doubles; the table is built from the mode outward
    po = Poisson(800.0)
    table = po.to_table().probs
    assert math.fsum(table) == pytest.approx(1.0, abs=1e-15)
    assert table.max() == pytest.approx(po.pmf(800), rel=1e-12)
    assert po.regularity_ratio() == pytest.approx(1.0 + 1.0 / 800.0, abs=1e-6)
    sb = po.size_biased()
    assert sb.mean() == pytest.approx(801.0, rel=1e-12)
    for k in (700, 800, 900):
        assert sb.pmf(k + 1) == pytest.approx(po.pmf(k), rel=1e-9)
    # P(X = 0) = e^-800 is below the double range, so X - 1 is a law here
    shifted = po.shift_down(1)
    assert shifted.pmf(799) == pytest.approx(po.pmf(800), rel=1e-12)


def test_size_biased_mean_identity():
    # mean of the size-biased law is 1 + f''(1)/f'(1)
    for dist in (FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.1, 0.3, 0.2, 0.4]), Geometric(0.5)):
        sb = dist.size_biased()
        expected = 1.0 + dist.second_factorial() / dist.mean()
        assert sb.mean() == pytest.approx(expected, abs=1e-12)


def test_size_biased_degenerate_errors():
    with pytest.raises(DistributionError):
        FiniteTable([1.0]).size_biased()


def test_pair_biased_geometric_values(geo):
    pb = geo.pair_biased()
    # k(k-1) 2^-(k+1) / 2
    assert pb.pmf(0) == 0.0 and pb.pmf(1) == 0.0
    assert pb.pmf(2) == pytest.approx(1 / 8, abs=1e-13)
    assert pb.pmf(3) == pytest.approx(3 / 16, abs=1e-13)


def test_pair_biased_table_point_mass(table):
    pb = table.pair_biased()
    assert pb.pmf(2) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(2.0), Binomial(3, 0.5)])
def test_pair_biased_normalization(dist):
    assert math.fsum(dist.pair_biased().probs.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_pair_biased_needs_pairs():
    with pytest.raises(DistributionError, match="no pair-biased law"):
        FiniteTable([0.5, 0.5]).pair_biased()


# ----------------------------------------------------------------------
# shift_down


def test_shift_down_size_biased_geometric(geo):
    shifted = geo.size_biased().shift_down(1)
    for k in range(10):
        assert shifted.pmf(k) == pytest.approx((k + 1) * 0.5 ** (k + 2), abs=1e-13)


def test_shift_down_pair_biased_table(table):
    shifted = table.pair_biased().shift_down(2)
    assert shifted.pmf(0) == pytest.approx(1.0, abs=1e-15)


def test_shift_down_precondition(geo, table):
    with pytest.raises(DistributionError, match="shift precondition"):
        table.shift_down(1)
    with pytest.raises(DistributionError, match="shift precondition"):
        geo.shift_down(1)


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(1.0), Binomial(3, 0.6),
                                  FiniteTable([0.25, 0.5, 0.25])])
def test_shifted_size_biased_pgf_is_normalized_derivative(dist):
    # pgf of the down-shifted size-biased law equals f'(s)/f'(1)
    shifted = dist.size_biased().shift_down(1)
    s = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(shifted.pgf(s) - dist.pgf(s, 1) / dist.mean())) < 1e-12


# ----------------------------------------------------------------------
# table validation


def test_table_rejects_negative_and_bad_sum():
    with pytest.raises(DistributionError):
        FiniteTable([0.5, -0.1, 0.6])
    with pytest.raises(DistributionError):
        FiniteTable([0.5, 0.4])


def test_table_renormalizes_within_tolerance():
    t = FiniteTable([0.25, 0.5, 0.25 + 5e-13])
    assert math.fsum(t.probs.tolist()) == pytest.approx(1.0, abs=1e-15)


# ----------------------------------------------------------------------
# sampling


def test_sample_point_mass():
    rng = stream(1, "pm")
    pm = FiniteTable([0.0, 0.0, 1.0])
    draws = pm.sample(rng, size=100)
    assert np.all(draws == 2)


def test_sample_table_mean_within_clt_band(table):
    rng = stream(2, "table-mean")
    n = 10**6
    draws = table.sample(rng, size=n)
    # mean 1, variance 1/2: 3 sigma band
    assert abs(draws.mean() - 1.0) < 3 * math.sqrt(0.5 / n)


def test_sample_geometric_zero_frequency(geo):
    rng = stream(3, "geo-zero")
    n = 10**6
    draws = geo.sample(rng, size=n)
    phat = np.mean(draws == 0)
    assert abs(phat - 0.5) < 3 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(1.0), Binomial(2, 0.75),
                                  FiniteTable([0.25, 0.5, 0.25])])
def test_sample_empirical_tv(dist):
    rng = stream(4, "tv", repr(dist))
    n = 10**6
    draws = dist.sample(rng, size=n)
    kmax = 20
    counts = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2)
    emp = counts / n
    exact = np.array([dist.pmf(k) for k in range(kmax + 1)] + [0.0])
    exact[-1] = 1.0 - exact[:-1].sum()
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv < 0.005


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(1.3), Binomial(3, 0.4),
                                  FiniteTable([0.25, 0.5, 0.25])])
def test_sum_sample_matches_mean(dist):
    rng = stream(5, "sums", repr(dist))
    counts = np.array([0, 1, 2, 50, 1000] * 2000)
    sums = dist.sum_sample(rng, counts)
    assert np.all(sums[counts == 0] == 0)
    total = counts.sum()
    assert sums.sum() / total == pytest.approx(dist.mean(), rel=5e-3)


def _convolve_laws(laws, kmax):
    """pmf on {0, ..., kmax} of the sum of independent draws from `laws`."""
    out = np.zeros(kmax + 1)
    out[0] = 1.0
    for law in laws:
        q = law.to_table().probs[: kmax + 1]
        out = np.convolve(out, q)[: kmax + 1]
    return out


SPINE_COUNTS = [(c, s, t) for c in (0, 3) for s in (0, 1, 2) for t in (0, 1)]


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(1.3), Binomial(3, 0.4), Binomial(2, 0.7),
                                  FiniteTable([0.25, 0.5, 0.25]), FiniteTable([0.3, 0.3, 0.2, 0.2])])
def test_sum_sample_with_spines_matches_convolution(dist):
    # every (c, s, t) combination interleaved in one call, so entries must stay aligned
    per = 40_000
    combos = np.array(SPINE_COUNTS * per)
    rng = stream(6, "spine-sums", repr(dist))
    drawn = dist.sum_sample(rng, combos[:, 0], size_biased=combos[:, 1], pair_biased=combos[:, 2])
    assert drawn.dtype == np.int64
    kmax = 60
    for i, (c, s, t) in enumerate(SPINE_COUNTS):
        x = drawn[i :: len(SPINE_COUNTS)]
        laws = ([dist] * c + [dist.size_biased().shift_down(1)] * s
                + [dist.pair_biased().shift_down(2)] * t)
        _assert_chi_square(x, _convolve_laws(laws, kmax), (c, s, t))


def _assert_chi_square(x, exact, label, alpha=1e-6):
    """Chi-square of the draws x against the pmf `exact` on {0, ..., kmax},
    over the cells with expected count >= 5, the rest pooled; its p-value
    must exceed alpha."""
    per = x.size
    assert x.max() < exact.size, label
    observed = np.bincount(x, minlength=exact.size)
    expected = exact * per
    cells = expected >= 5
    obs = np.append(observed[cells], observed[~cells].sum())
    exp = np.append(expected[cells], per - expected[cells].sum())
    if exp[-1] < 5:
        obs, exp = obs[:-1], exp[:-1]
    if obs.size == 1:  # a point mass
        assert obs[0] == per, label
        return
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert chdtrc(obs.size - 1, stat) > alpha, (label, stat)


@pytest.mark.parametrize("probs", [[0.25, 0.5, 0.25], [0.5, 0.0, 0.3, 0.2], [1.0], [0.0, 1.0],
                                   np.full(100, 0.01)])
def test_table_sum_sample_matches_exact_convolution(probs):
    # counts on both sides of the inversion cutoff, crossed with every spine
    # combo whose reweighted laws exist, interleaved in one call
    dist = FiniteTable(probs)
    cut, keys, values = dist._inversion_tables()
    assert keys.size == values.size <= 2 * _INVERT_ATOMS
    assert (cut == _INVERT_BELOW) == (len(probs) < 10)  # fewer for many atoms
    counts = (0, 1, cut - 1, cut, cut + 1) + ((1000,) if len(probs) < 10 else ())
    spine_laws = []
    if dist.mean() > 0:
        spine_laws.append(dist.size_biased().probs[1:])
    if dist.second_factorial() > 0:
        spine_laws.append(dist.pair_biased().probs[2:])
    combos = [(c, s, t) for c in counts for s in range(3) for t in range(2)
              if (s == 0 or len(spine_laws) > 0) and (t == 0 or len(spine_laws) > 1)]
    per = 20_000
    rows = np.array(combos * per)
    drawn = dist.sum_sample(stream(10, "table-exact", repr(dist)), rows[:, 0],
                            size_biased=rows[:, 1], pair_biased=rows[:, 2])
    plain = {0: np.ones(1)}
    for c in range(1, max(counts) + 1):
        plain[c] = np.convolve(plain[c - 1], dist.probs)
    for i, (c, s, t) in enumerate(combos):
        exact = plain[c]
        for law in spine_laws[:1] * s + spine_laws[1:] * t:
            exact = np.convolve(exact, law)
        x = drawn[i :: len(combos)]
        assert np.all(exact[x] > 0), (c, s, t)  # no draw lands on an impossible atom
        _assert_chi_square(x, exact, (c, s, t))
    if len(spine_laws) < 2:
        with pytest.raises(DistributionError):
            dist.sum_sample(stream(10, "x"), np.array([3, 40]), pair_biased=np.array([0, 1]))
    if not spine_laws:
        with pytest.raises(DistributionError):
            dist.sum_sample(stream(10, "x"), np.array([3, 40]), size_biased=np.array([0, 2]))


TABLE_LAWS = [[0.25, 0.5, 0.25], [0.5, 0.0, 0.3, 0.2], [1.0], [0.0, 1.0], np.full(100, 0.01)]
# Geometric laws keep a NegBin alias table too; at p = 0.05 it holds fewer
# than _INVERT_BELOW shapes.  ("coarse", p) stands for the second table of
# Geometric(p), of the shapes C*a.
ALIAS_LAWS = TABLE_LAWS + [pytest.param(Geometric(p), id=f"geometric-{p}")
                           for p in (0.5, 0.2, 0.9, 1.0, 0.05)] \
    + [pytest.param(("coarse", p), id=f"geometric-{p}-coarse") for p in (0.5, 0.2, 0.9, 0.05)]


def _alias_law(probs):
    if isinstance(probs, tuple):
        return Geometric(probs[1])
    return probs if isinstance(probs, Geometric) else FiniteTable(probs)


def _negbin_pmf(p, r, atoms):
    """The NegBin(r, p) pmf on k < atoms to within 2^-200, in fixed-point
    integers from the exact ratio p = m/d, stepping pmf(k) = pmf(k-1) (k + r
    - 1) (d - m) / (k d); the unit is small enough that pmf(0) = p^r holds
    at least 256 bits."""
    m, d = p.as_integer_ratio()
    one = 1 << (256 + r * (d.bit_length() - m.bit_length() + 1))
    x = m**r * one // d**r
    out = np.zeros(atoms)
    for k in range(atoms):
        if k:
            x = x * (k + r - 1) * (d - m) // (k * d)
        out[k] = x / one
    return out


def _alias_entries(dist, coarse=False):
    """(W, [(label, column slice, exact law)]) for every entry e of the alias
    cache.  For a table e = C*(2s + t) + c, the label is (c, s, t), and a
    missing reweighted law stands as the point mass at 0 that the cache
    holds for it; for a geometric law the label is (r, 0, 0) for the shape r
    = e, and the law NegBin(r, p) on the W atoms.  With `coarse`, the
    entries of a geometric law's coarse table: the label is (C*e, 0, 0)."""
    cut, prob, _ = dist._inversion_tables()
    if coarse:
        reach, prob, _ = dist._coarse_tables()
        width = prob.size // reach
        return width, [((cut * a, 0, 0), slice(a * width, (a + 1) * width),
                         _negbin_pmf(dist.p, cut * a, width)) for a in range(reach)]
    if isinstance(dist, Geometric):
        width = prob.size // cut
        return width, [((r, 0, 0), slice(r * width, (r + 1) * width), _negbin_pmf(dist.p, r, width))
                       for r in range(cut)]
    width = prob.size // (6 * cut)
    point = np.ones(1)
    sb = dist.size_biased().probs[1:] if dist.mean() > 0 else point
    pb = dist.pair_biased().probs[2:] if dist.second_factorial() > 0 else point
    entries = []
    for s in range(3):
        for t in range(2):
            law = point
            for spine in [sb] * s + [pb] * t:
                law = np.convolve(law, spine)
            for c in range(cut):
                if c:
                    law = np.convolve(law, dist.probs)
                e = cut * (2 * s + t) + c
                entries.append(((c, s, t), slice(e * width, (e + 1) * width), law))
    return width, entries


@pytest.mark.parametrize("probs", ALIAS_LAWS)
def test_table_alias_columns_rebuild_the_exact_convolution(probs):
    # column j of an entry gives mass prob_j / W to atom j and (1 - prob_j) / W
    # to its alias; per entry these add up to the exact law, summed exactly
    dist = _alias_law(probs)
    coarse = isinstance(probs, tuple)
    cut, prob, alias = dist._coarse_tables() if coarse else dist._inversion_tables()
    width, entries = _alias_entries(dist, coarse)
    assert prob.size == alias.size == len(entries) * width and width & (width - 1) == 0
    if coarse:
        assert prob.size <= _COARSE_ATOMS and cut >= 1
        if dist.p == 0.5:  # C = 32, A = 16, W' = 1024: shapes below 512
            assert (cut, width, dist._inversion_tables()[0]) == (16, 1024, 32)
    else:
        assert prob.size <= _INVERT_ATOMS and 1 <= cut <= _INVERT_BELOW
    assert not prob.flags.writeable and not alias.flags.writeable
    for label, cols, law in entries:
        assert law.size <= width, label
        atoms = np.concatenate([np.arange(width), alias[cols]])
        mass = np.concatenate([prob[cols], 1.0 - prob[cols]]) / width
        assert np.all((mass >= 0.0) & (atoms >= 0) & (atoms < width)), label
        order = np.argsort(atoms, kind="stable")
        groups = np.split(mass[order], np.searchsorted(atoms[order], np.arange(1, width)))
        rebuilt = np.array([math.fsum(g) for g in groups])
        exact = np.zeros(width)
        exact[:law.size] = law
        assert np.max(np.abs(rebuilt - exact)) <= 1e-15, label
        if isinstance(dist, Geometric) and label[0]:
            # the atoms past the table hold less than one alias unit
            assert nbdtrc(width - 1, label[0], dist.p) < 2.0**-61, label
    if isinstance(dist, Geometric) and not coarse:
        assert (cut < _INVERT_BELOW) == (dist.p < 0.1)


class _ConstantUniforms:
    """A generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("probs", ALIAS_LAWS)
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_table_extreme_uniforms_draw_inside_their_entry(probs, u):
    # the first and last uniform read the first and last column of an entry,
    # and draw an atom of that entry's law, never one of a neighbouring entry
    dist = _alias_law(probs)
    entries = [(label, law) for label, _, law in _alias_entries(dist, isinstance(probs, tuple))[1]
               if (label[1] == 0 or dist.mean() > 0) and (label[2] == 0 or dist.second_factorial() > 0)]
    rows = np.array([label for label, _ in entries])
    drawn = dist.sum_sample(_ConstantUniforms(u), rows[:, 0], size_biased=rows[:, 1],
                            pair_biased=rows[:, 2])
    for x, (label, law) in zip(drawn, entries):
        assert x < law.size and law[x] > 0, label


@pytest.mark.parametrize("p", [0.5, 0.05])
def test_geometric_sum_sample_rows_around_the_table_cut(p):
    # NegBin(r, p) for shapes r = c + 2s + 3t on both sides of the alias
    # table's last shape C - 1 and of the coarse table's reach C*A, with and
    # without spine parents, interleaved in one call: rows drawn from one
    # table, from both and from numpy must keep their places.  The first
    # call mixes all three; in the second every shape is below C, so one
    # table draws every row; in the third most shapes are beyond the reach,
    # and numpy draws every row
    dist = Geometric(p)
    cut = dist._inversion_tables()[0]
    reach = cut * dist._coarse_tables()[0]

    def combos(shapes):
        return [(r - 2 * s - 3 * t, s, t) for r in shapes for s in range(3) for t in range(2)
                if r - 2 * s - 3 * t >= 0 and (r < 2 or (s, t) in ((0, 0), (1, 0), (2, 1)))]

    per = 20_000
    for part in (combos((0, 1, cut - 1, cut, reach - 1, reach, 4 * reach)), combos((0, 1, cut - 1)),
                 combos((cut - 1, reach, 4 * reach))):
        rows = np.array(part * per)
        drawn = dist.sum_sample(stream(13, "geometric-cut", repr(dist), len(part)), rows[:, 0],
                                size_biased=rows[:, 1], pair_biased=rows[:, 2])
        assert drawn.dtype == np.int64
        for i, (c, s, t) in enumerate(part):
            r = c + 2 * s + 3 * t
            x = drawn[i :: len(part)]
            _assert_chi_square(x, _negbin_pmf(p, r, int(x.max()) + 1), (r, c, s, t), alpha=1e-3)


@pytest.mark.parametrize("counts", [np.zeros(0, dtype=np.int64), np.array([[0, 3, 40], [1, 31, 2]])])
def test_table_sum_sample_empty_and_2d(counts):
    dist = FiniteTable([0.3, 0.3, 0.2, 0.2])
    spines = {"size_biased": np.ones(counts.shape, dtype=np.int64), "pair_biased": True}
    drawn = dist.sum_sample(stream(11, "shape"), counts, **spines)
    assert drawn.dtype == np.int64 and drawn.shape == counts.shape
    flat = dist.sum_sample(stream(11, "shape"), counts.reshape(-1),
                           size_biased=np.ones(counts.size, dtype=np.int64),
                           pair_biased=np.ones(counts.size, dtype=bool))
    assert np.array_equal(drawn.reshape(-1), flat)


def test_table_first_use_races_to_the_same_draws():
    # a library caller's threads may share one law; several may build its
    # alias cache at once, with the interpreter switching threads as often as
    # it can
    counts = np.arange(5000) % 40
    size_biased = np.arange(5000) % 3
    workers = 4

    def draws(dist, i):
        return dist.sum_sample(stream(12, "race", i), counts, size_biased, size_biased == 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in (lambda: FiniteTable([0.2, 0.3, 0.1, 0.4]), lambda: Geometric(0.3)):
            serial = [draws(make(), i) for i in range(workers)]
            shared = make()
            barrier = threading.Barrier(workers)
            raced = [None] * workers

            def run(i):
                barrier.wait(timeout=60)
                raced[i] = draws(shared, i)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert all(np.array_equal(a, b) for a, b in zip(raced, serial)), shared
    finally:
        sys.setswitchinterval(interval)


def test_sum_sample_without_spines_unchanged(geo):
    counts = np.array([0, 3, 1, 0, 7])
    plain = geo.sum_sample(stream(7, "plain"), counts)
    explicit = geo.sum_sample(stream(7, "plain"), counts, size_biased=np.zeros(5, dtype=np.int64),
                              pair_biased=np.zeros(5, dtype=bool))
    assert np.array_equal(plain, explicit)
    assert np.all(plain[counts == 0] == 0)


@pytest.mark.parametrize("dist", [Geometric(0.5), Poisson(1.0), Binomial(2, 0.5),
                                  FiniteTable([0.25, 0.5, 0.25])])
@pytest.mark.parametrize("counts", [3, 0, np.array([3, 0, 2])])
@pytest.mark.parametrize("spines", [{}, {"size_biased": 1}, {"pair_biased": 1},
                                    {"size_biased": 2, "pair_biased": 1}])
def test_sum_sample_returns_counts_shape(dist, counts, spines):
    drawn = dist.sum_sample(stream(9, "scalar"), counts, **spines)
    assert isinstance(drawn, np.ndarray)
    assert drawn.dtype == np.int64 and drawn.shape == np.shape(counts)
    # the same draws as the one-dimensional call with every argument spelled out
    flat = np.atleast_1d(counts)
    full = {k: np.full(flat.shape, v) for k, v in spines.items()}
    assert np.array_equal(np.atleast_1d(drawn), dist.sum_sample(stream(9, "scalar"), flat, **full))


def test_sum_sample_spines_need_reweighted_laws():
    rng = stream(8, "degenerate")
    with pytest.raises(DistributionError, match="degenerate at zero"):
        Geometric(1.0).sum_sample(rng, np.array([2]), size_biased=np.array([1]))
    with pytest.raises(DistributionError, match="no pair-biased law"):
        Binomial(1, 0.5).sum_sample(rng, np.array([2]), size_biased=np.array([0]),
                                    pair_biased=np.array([1]))
    with pytest.raises(DistributionError, match="no pair-biased law"):
        FiniteTable([0.0, 1.0]).sum_sample(rng, np.array([2]), pair_biased=np.array([1]))
    # laws that are never needed are not required
    assert Binomial(1, 0.5).sum_sample(rng, np.array([2]), size_biased=np.array([1]),
                                       pair_biased=np.array([0])).shape == (1,)


# ----------------------------------------------------------------------
# draws on several streams in one call


def test_geometric_rows_beyond_the_reach_draw_as_one_array_call():
    # fewer than _NEGBIN_ARRAY_ROWS shapes beyond the coarse table's reach
    # draw by one scalar call each, more by one array call: either way the
    # draws, and the generator's next state, are those of one array call
    dist = Geometric(0.5)
    cut = dist._inversion_tables()[0]
    reach = cut * dist._coarse_tables()[0]
    for k in (1, _NEGBIN_ARRAY_ROWS - 1, _NEGBIN_ARRAY_ROWS, 3 * _NEGBIN_ARRAY_ROWS):
        shapes = np.full(4 * k, 3, dtype=np.int64)
        shapes[1::4] = cut + 5
        big = np.arange(k) * 4 + 2
        shapes[big] = reach + 7 * np.arange(k)  # a quarter of the rows: no majority
        rng = stream(44, "beyond", k)
        drawn = dist.sum_sample(rng, shapes)
        clone = stream(44, "beyond", k)
        clone.random(shapes.size)  # the first table's uniforms
        clone.random(np.count_nonzero(shapes >= cut))  # the coarse table's
        assert np.array_equal(drawn[big], clone.negative_binomial(shapes[big], dist.p)), k
        assert rng.bit_generator.state == clone.bit_generator.state, k


@pytest.mark.parametrize("dist, parts", [
    # one stream with every shape below C takes the first table alone on its
    # own, another draws from both tables and numpy
    pytest.param(Geometric(0.5), [[0, 1, 31], [32, 600, 3, 515], [], [5] * 10], id="geometric-0.5"),
    # C = 30 and C*A = 120: the second stream's shapes are mostly beyond the
    # reach, so numpy draws all of its rows, while its neighbours read the
    # tables; the fifth stream draws all of its rows by one array call, and
    # the sixth, mostly beyond but with a zero shape, reads the tables
    pytest.param(Geometric(0.05), [[1, 5, 200, 2], [300, 150, 400, 3], [],
                                   [29, 30, 119, 120, 121] * 5, [500] * 40, [0, 200, 300]],
                 id="geometric-0.05"),
    # counts of 32 or more draw their plain births by one multinomial per stream
    pytest.param(FiniteTable([0.25, 0.5, 0.25]), [[0, 3, 40], [], [31, 32, 100], [1, 2]], id="table"),
    pytest.param(Poisson(1.3), [[0, 3], [], [7, 1, 2]], id="poisson"),
    pytest.param(Binomial(3, 0.4), [[0, 3], [], [7, 1, 2]], id="binomial"),
])
def test_sum_sample_on_several_streams_draws_each_streams_rows_alone(dist, parts):
    counts = np.array([c for part in parts for c in part], dtype=np.int64)
    bounds = np.cumsum([0] + [len(part) for part in parts])
    gens = [stream(45, "streams", i) for i in range(len(parts))]
    drawn = dist.sum_sample(gens, counts, bounds=bounds)
    assert drawn.dtype == np.int64 and drawn.shape == counts.shape
    for i, part in enumerate(parts):
        alone = stream(45, "streams", i)
        want = dist.sum_sample(alone, np.array(part, dtype=np.int64))
        assert np.array_equal(drawn[bounds[i]:bounds[i + 1]], want), i
        assert gens[i].bit_generator.state == alone.bit_generator.state, i



def test_only_streams_with_shapes_beyond_the_reach_call_numpy(monkeypatch):
    import gwve.offspring as offspring

    calls, draw = [], offspring._negative_binomial

    def recorded(g, shapes, p):
        calls.append(shapes.tolist())
        return draw(g, shapes, p)

    monkeypatch.setattr(offspring, "_negative_binomial", recorded)
    # at p = 1/2 the reach is 512: only the second stream holds such a shape
    parts = [[3, 40], [600, 32, 5], [], [31, 100]]
    counts = np.array([c for part in parts for c in part], dtype=np.int64)
    bounds = np.cumsum([0] + [len(part) for part in parts])
    Geometric(0.5).sum_sample([stream(46, "calls", i) for i in range(len(parts))], counts,
                              bounds=bounds)
    assert calls == [[600]]
