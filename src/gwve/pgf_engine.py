"""Numerical evaluation of composed generating functions and their transforms.

For an environment with per-generation pgfs f_1, f_2, ... the composition
f_{m,n}(s) = f_{m+1}(f_{m+2}(... f_n(s))) and its first two derivatives come
from one backward sweep (a `CompositionTrace`).  The sweep carries the
complement w_l = 1 - v_l of v_l = f_{l,n}(s), never v_l itself: near s = 1
every rounding of v would add an absolute error that the n factors of the
chain rule then carry, while w keeps its relative digits.  Starting from
w_n = 1 - s, every generation l = n, ..., 1 evaluates

  * w_{l-1} = 1 - f_l(1 - w_l), so that w_m = 1 - f_{m,n}(s), and the
    factors f'_l(v_l) and f''_l(v_l), from one call to the law's `_cjet`,
  * the chain rule d1_{l-1} = f'_l(v_l) d1_l and
    d2_{l-1} = f''_l(v_l) d1_l^2 + f'_l(v_l) d2_l from d1_n = 1, d2_n = 0,
    so that d1_m = f'_{m,n}(s) and d2_m = f''_{m,n}(s).

The derivatives are carried as d1 = x1 2^e and d2 = x2 4^e, rescaled by an
exact power of two whenever they leave a wide range, so long horizons neither
overflow nor flush them to zero; a vanishing factor f'_l(v_l) = 0 needs no
special case.  s is a scalar or a 1-d grid, and a grid is the trailing axis of
every array the sweep records, so one sweep serves a whole lambda grid.

On top of the sweep sit the Laplace transforms of the size-biased,
pair-biased and hanging-subtree populations (lambda a scalar or a 1-d array;
the plain one is `compose(env, 0, n, exp(-lambda))`), the law of the spine
branching generation K_n, the partition points A_{n,m} with the step CDF of
A_{n,K_n} over a scalar or an array of y, and the two sides of the spine
decomposition identity, whose sum over m is one array expression.  Each
transform takes (env, n[, m], lambda) and makes its own sweep from them;
`two_spine_rhs` makes one for all of its factors.  No caller hands a sweep
in, so none can pair a transform with the sweep of another environment.

Quantities of the form 1 - f_{m,n}(s) (survival probabilities, conditional
transforms) are read from the sweep's complement column, so they avoid the
cancellation that makes the naive difference lose a relative n*eps.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import Environment
from .offspring import DistributionError

__all__ = [
    "CompositionTrace",
    "composition_trace",
    "compose",
    "d1_compose",
    "d2_compose",
    "one_minus_compose",
    "survival_prob",
    "laplace_zdot",
    "laplace_zddot",
    "laplace_zdot_shifted",
    "laplace_hanging_qdot",
    "laplace_hanging_qddot",
    "g_ratio",
    "g_gap_profile",
    "kn_pmf_vector",
    "partition_points",
    "partition_norm",
    "a_kn_cdf",
    "kolmogorov_ratio",
    "conditional_laplace_z",
    "two_spine_rhs",
]

# Survival below this is treated as extinction for conditional transforms.
EXTINCT_EPS = 1e-300

# The sweep rescales once x1 + x2 leaves [1/_WIDE, _WIDE].  One generation's
# factors are far too small to carry a value from there past the float range.
_WIDE = 2.0 ** 256
_LN2 = math.log(2.0)


def _out(x):
    """A float for a scalar argument, the array itself for a grid."""
    return float(x) if np.ndim(x) == 0 else x


def _scaled(x, e, log_c):
    """x * 2^e * exp(log_c), combining the exponents before rounding to a float."""
    k = np.rint(np.where(np.isfinite(log_c), log_c, 0.0) / _LN2)
    with np.errstate(over="ignore", under="ignore"):
        return _out(np.ldexp(x * np.exp(log_c - k * _LN2), e + k.astype(np.int64)))


class CompositionTrace:
    """One backward sweep from w_n = 1 - s down to w_0 = 1 - f_{0,n}(s).

    `comp[m]` is 1 - f_{m,n}(s); `fp[l]` and `fpp[l]` are f'_l(v_l) and
    f''_l(v_l), v_l = f_{l,n}(s), for l = 1..n (index 0 is NaN).  For a grid
    s each of these has the grid as its last axis.
    """

    def __init__(self, env: Environment, n: int, s):
        grid = np.array(s, dtype=float)
        if n < 0:
            raise ValueError("horizon must be nonnegative")
        if grid.ndim > 1:
            raise ValueError("pgf argument must be a scalar or a 1-d grid")
        if not np.all((grid >= 0.0) & (grid <= 1.0)):
            raise ValueError("pgf argument must lie in [0, 1]")
        self.n, self._s = n, grid
        shape = (n + 1,) + grid.shape
        self.comp = comp = np.empty(shape)
        self.fp = fp = np.full(shape, math.nan)
        self.fpp = fpp = np.full(shape, math.nan)
        self._x1 = x1s = np.empty(shape)
        self._x2 = x2s = np.empty(shape)
        self._e = es = np.empty(shape, np.int64)
        comp[n], x1, x2, e = 1.0 - grid, 1.0, 0.0, 0
        x1s[n], x2s[n], es[n] = x1, x2, e
        lo, hi = 1.0 / _WIDE, _WIDE
        for l in range(n, 0, -1):
            w, a, b = env.dist_at(l)._cjet(comp[l])
            comp[l - 1], fp[l], fpp[l] = w, a, b
            x1, x2 = a * x1, b * x1 * x1 + a * x2
            t = x1 + x2
            low, high = (t.min(initial=1.0), t.max(initial=1.0)) if grid.ndim else (t, t)
            if not (lo < low and high < hi):
                shift = np.frexp(np.maximum(x1, np.sqrt(x2)))[1]
                x1, x2, e = np.ldexp(x1, -shift), np.ldexp(x2, -2 * shift), e + shift
            x1s[l - 1], x2s[l - 1], es[l - 1] = x1, x2, e

    def value(self, m: int):
        """f_{m,n}(s); s itself at m = n."""
        return _out(self._s if m == self.n else 1.0 - self.comp[m])

    def d1(self, m: int):
        """f'_{m,n}(s); +inf past the float range."""
        _check_range(m, self.n)
        return _scaled(self._x1[m], self._e[m], 0.0)

    def d2(self, m: int):
        """f''_{m,n}(s); +inf past the float range."""
        _check_range(m, self.n)
        return _scaled(self._x2[m], 2 * self._e[m], 0.0)


def composition_trace(env: Environment, n: int, s) -> CompositionTrace:
    return CompositionTrace(env, n, s)


def _check_range(m: int, n: int) -> None:
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")


def compose(env: Environment, m: int, n: int, s):
    """f_{m,n}(s) by backward iteration."""
    _check_range(m, n)
    return CompositionTrace(env, n, s).value(m)

def d1_compose(env: Environment, m: int, n: int, s):
    """f'_{m,n}(s)."""
    _check_range(m, n)
    return CompositionTrace(env, n, s).d1(m)

def d2_compose(env: Environment, m: int, n: int, s):
    """f''_{m,n}(s)."""
    _check_range(m, n)
    return CompositionTrace(env, n, s).d2(m)


def one_minus_compose(env: Environment, m: int, n: int, s):
    """1 - f_{m,n}(s), free of cancellation: the sweep's complement column."""
    _check_range(m, n)
    return _out(CompositionTrace(env, n, s).comp[m])


def survival_prob(env: Environment, n: int) -> float:
    """P(Z_n > 0) = 1 - f_{0,n}(0)."""
    return one_minus_compose(env, 0, n, 0.0)


def _lambdas(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise ValueError("lambda must be a scalar or a 1-d grid")
    if not np.all(lam >= 0.0):
        raise ValueError("lambda must be nonnegative")
    return lam


def laplace_zdot(env: Environment, n: int, lam):
    """E[exp(-lam Zdot_n)] = f'_{0,n}(e^-lam) e^-lam / mu_n."""
    lam = _lambdas(lam)
    return _zdot(env, n, lam, CompositionTrace(env, n, np.exp(-lam)))


def _zdot(env: Environment, n: int, lam: np.ndarray, t: CompositionTrace):
    """`laplace_zdot` from t, the sweep to n over exp(-lam)."""
    return _scaled(t._x1[0], t._e[0], -env.log_mu(n) - lam)


def laplace_zdot_shifted(env: Environment, n: int, m: int, lam):
    """E[exp(-lam Zdot^{(m+1)}_{n-(m+1)})] = (mu_{m+1}/mu_n) f'_{m+1,n}(e^-lam) e^-lam."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    lam = _lambdas(lam)
    t = CompositionTrace(env, n, np.exp(-lam))
    return _scaled(t._x1[m + 1], t._e[m + 1], env.log_mu(m + 1) - env.log_mu(n) - lam)


def laplace_zddot(env: Environment, n: int, lam):
    """E[exp(-lam Zddot_n)] = f''_{0,n}(e^-lam) e^-2lam / (mu_n^2 S_n)."""
    if n < 1:
        raise ValueError("the pair-biased process needs n >= 1")
    lam = _lambdas(lam)
    s_n = _s_n(env, n)
    t = CompositionTrace(env, n, np.exp(-lam))
    return _scaled(t._x2[0], 2 * t._e[0], -2.0 * env.log_mu(n) - math.log(s_n) - 2.0 * lam)


def laplace_hanging_qdot(env: Environment, n: int, m: int, lam):
    """Laplace transform of the subtree grown from a shifted size-biased root,
    f'_{m+1}(f_{m+1,n}(e^-lam)) / f'_{m+1}(1)."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    t = CompositionTrace(env, n, np.exp(-_lambdas(lam)))
    return _out(t.fp[m + 1] / env.dist_at(m + 1).mean())


def laplace_hanging_qddot(env: Environment, n: int, m: int, lam):
    """Laplace transform of the subtree grown from a shifted pair-biased root,
    f''_{m+1}(f_{m+1,n}(e^-lam)) / (nu_{m+1} f'_{m+1}(1)^2)."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    lam = _lambdas(lam)
    d = env.dist_at(m + 1)
    if d.second_factorial() <= 0.0:
        raise DistributionError("no pair-biased law")
    t = CompositionTrace(env, n, np.exp(-lam))
    return _out(t.fpp[m + 1] / (d.nu() * d.mean() ** 2))


def _moments(env: Environment, t: CompositionTrace, lo: int, hi: int):
    """f'_{m+1}(1) and f''_{m+1}(1) for lo <= m < hi, as columns against t's grid."""
    laws = [env.dist_at(m + 1) for m in range(lo, hi)]
    shape = (-1,) + (1,) * (t.fp.ndim - 1)
    return (np.array([d.mean() for d in laws]).reshape(shape),
            np.array([d.second_factorial() for d in laws]).reshape(shape))


def _g(t: CompositionTrace, lo: int, mean: np.ndarray, sf: np.ndarray) -> np.ndarray:
    """g(n, m, lam) for m = lo, lo + 1, ..., given f'_{m+1}(1) and f''_{m+1}(1)
    (`_moments`); NaN where nu_{m+1} = 0.

    The closed form f'_{m+1}(1) f''_{m+1}(v) / (f'_{m+1}(v) f''_{m+1}(1)),
    v = f_{m+1,n}(e^-lam), the quotient of the two hanging transforms.
    """
    fp, fpp = t.fp[lo + 1:lo + 1 + len(mean)], t.fpp[lo + 1:lo + 1 + len(mean)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sf > 0.0, (mean / fp) * (fpp / sf), math.nan)


def g_ratio(env: Environment, n: int, m: int, lam):
    """Ratio of the pair-biased to size-biased hanging-subtree transforms, in
    closed form (see `_g`)."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    lam = _lambdas(lam)
    if env.dist_at(m + 1).second_factorial() <= 0.0:
        raise DistributionError("no pair-biased law")
    t = CompositionTrace(env, n, np.exp(-lam))
    return _out(_g(t, m, *_moments(env, t, m, m + 1))[0])


def g_gap_profile(env: Environment, n: int, lam) -> np.ndarray:
    """1 - g(n, m, lam) for every m in 0..n-1 (rows), NaN where nu_{m+1} = 0,
    from one trace shared across all m."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = CompositionTrace(env, n, np.exp(-_lambdas(lam)))
    return 1.0 - _g(t, 0, *_moments(env, t, 0, n))


def _s_n(env: Environment, n: int) -> float:
    """S_n, the normalizer of K_n and of the pair-biased law."""
    s_n = env.cum_nu_over_mu(n)
    if not 0.0 < s_n < math.inf:
        raise DistributionError(f"K_n and the pair-biased law are undefined: S_{n} = {s_n!r}")
    return s_n


def kn_pmf_vector(env: Environment, n: int) -> np.ndarray:
    """The law of K_n on {0, ..., n-1}: P(K_n = r) = (nu_{r+1}/mu_r) / S_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return env.nu_over_mu_terms(n) / _s_n(env, n)


def partition_points(env: Environment, n: int) -> np.ndarray:
    """The points 0 = Pi_0 <= ... <= Pi_n = 1 with Pi_k = A_{n,n-k-1}, where
    A_{n,m} = a^{(m+1)}_{n-(m+1)} / a_n = sum_{j>m} (nu_{j+1}/mu_j) / S_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = env.nu_over_mu_terms(n)
    pts = np.concatenate([[0.0], np.cumsum(terms[::-1]) / _s_n(env, n)])
    pts[-1] = 1.0
    return pts


def partition_norm(env: Environment, n: int) -> float:
    """Largest step of the A_{n,K_n} partition, max_r P(K_n = r)."""
    return float(np.max(kn_pmf_vector(env, n)))


def a_kn_cdf(env: Environment, n: int, y):
    """P(A_{n,K_n} <= y), the step function through the partition points, for
    a scalar y or an array of them."""
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError("y must lie in [0, 1]")
    pts = partition_points(env, n)
    return _out(pts[np.minimum(np.searchsorted(pts, y, side="right"), n)])


def kolmogorov_ratio(env: Environment, n: int) -> float:
    """(a_n / mu_n) P(Z_n > 0) = (S_n / 2) P(Z_n > 0)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 0.5 * _s_n(env, n) * survival_prob(env, n)


def conditional_laplace_z(env: Environment, n: int, lam):
    """E[exp(-lam Z_n) | Z_n > 0] = 1 - (1 - f_{0,n}(e^-lam)) / P(Z_n > 0)."""
    lam = _lambdas(lam)
    surv = survival_prob(env, n)
    if surv <= EXTINCT_EPS:
        raise DistributionError("process is extinct by this horizon")
    return _out(1.0 - CompositionTrace(env, n, np.exp(-lam)).comp[0] / surv)


def two_spine_rhs(env: Environment, n: int, lam):
    """Right-hand side of the spine decomposition of E[exp(-lam Zddot_n)]:

        E[e^{-lam Zdot_n}] * sum_m P(K_n=m) E[e^{-lam Zdot^{(m+1)}_{n-(m+1)}}] g(n,m,lam)

    with every factor of the sum an array over m (rows) and the lambda grid.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lam = _lambdas(lam)
    t = CompositionTrace(env, n, np.exp(-lam))
    weights = kn_pmf_vector(env, n)
    mean, sf = _moments(env, t, 0, n)
    # log(mu_{m+1} / mu_n) = -sum_{l=m+2}^{n} log f'_l(1), summed from l = n down.
    tail = np.cumsum(np.log(mean[:0:-1]), axis=0)[::-1]
    log_mu_ratio = -np.concatenate([tail, np.zeros_like(mean[:1])])
    shifted = _scaled(t._x1[1:], t._e[1:], log_mu_ratio - lam)
    keep = weights > 0.0
    terms = weights.reshape(mean.shape)[keep] * shifted[keep] * _g(t, 0, mean, sf)[keep]
    # One exactly rounded sum per grid point.
    sums = [math.fsum(col.tolist()) for col in terms.reshape(len(terms), -1).T]
    return _out(_zdot(env, n, lam, t) * np.reshape(sums, lam.shape))
