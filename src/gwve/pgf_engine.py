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
decomposition identity.  `lemma33_transforms` makes one sweep for every
Lemma 3.3 transform at a horizon, the per-m ones as rows over m, and the
per-m functions, `laplace_zddot` and `two_spine_rhs` read it, so each has one
formula.  No caller hands a sweep in, so none can pair a transform with the
sweep of another environment.

Quantities of the form 1 - f_{m,n}(s) (survival probabilities, conditional
transforms) are read from the sweep's complement column, so they avoid the
cancellation that makes the naive difference lose a relative n*eps.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
    "Lemma33Transforms",
    "lemma33_transforms",
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
    return CompositionTrace(env, n, s).d1(m)

def d2_compose(env: Environment, m: int, n: int, s):
    """f''_{m,n}(s)."""
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


def _zdot(env: Environment, n: int, lam: np.ndarray, t: CompositionTrace):
    """E[exp(-lam Zdot_n)] = f'_{0,n}(e^-lam) e^-lam / mu_n from t, the sweep over e^-lam."""
    return _scaled(t._x1[0], t._e[0], -env.log_mu(n) - lam)


def laplace_zdot(env: Environment, n: int, lam):
    """E[exp(-lam Zdot_n)], by the formula of `lemma33_transforms` on a sweep of its own."""
    lam = _lambdas(lam)
    return _zdot(env, n, lam, CompositionTrace(env, n, np.exp(-lam)))


Lemma33Transforms = namedtuple("Lemma33Transforms", "zdot zddot zdot_shifted qdot qddot g rhs")


def lemma33_transforms(env: Environment, n: int, lam) -> Lemma33Transforms:
    """Every Lemma 3.3 transform at horizon n, from one sweep over e^-lam,
    with v = f_{m+1,n}(e^-lam):

      * zdot = E[exp(-lam Zdot_n)] and zddot = E[exp(-lam Zddot_n)]
        = f''_{0,n}(e^-lam) e^-2lam / (mu_n^2 S_n), shaped like lambda;
      * rows m = 0..n-1, the grid on their trailing axis: zdot_shifted =
        E[exp(-lam Zdot^{(m+1)}_{n-(m+1)})] = (mu_{m+1}/mu_n) f'_{m+1,n}(e^-lam) e^-lam;
        the transforms of the subtrees hanging from a shifted size-biased and
        pair-biased root, qdot = f'_{m+1}(v) / f'_{m+1}(1) and
        qddot = f''_{m+1}(v) / f''_{m+1}(1); and their quotient g = g(n, m, lam);
      * rhs = zdot sum_m P(K_n=m) zdot_shifted g, the spine decomposition of
        zddot, one exactly rounded sum per grid point.

    zddot and rhs are NaN unless 0 < S_n < inf, and so are the rows of qddot
    and g where f''_{m+1}(1) = 0 (no pair-biased law).
    """
    lam = _lambdas(lam)
    t = CompositionTrace(env, n, np.exp(-lam))
    column = (-1,) + (1,) * lam.ndim  # a value per m, against the grid
    mean = np.array([env.dist_at(m + 1).mean() for m in range(n)]).reshape(column)
    sf = np.array([env.dist_at(m + 1).second_factorial() for m in range(n)]).reshape(column)
    log_mu = np.array([env.log_mu(m + 1) for m in range(n)]).reshape(column)
    fp, zdot = t.fp[1:], _zdot(env, n, lam, t)
    shifted = _scaled(t._x1[1:], t._e[1:], log_mu - env.log_mu(n) - lam)
    s_n = env.cum_nu_over_mu(n) if n else math.nan
    zddot = rhs = _out(np.full(lam.shape, math.nan))
    with np.errstate(divide="ignore", invalid="ignore"):
        qddot = np.where(sf > 0.0, t.fpp[1:] / sf, math.nan)
        g = (mean / fp) * qddot
        if 0.0 < s_n < math.inf:
            zddot = _scaled(t._x2[0], 2 * t._e[0], -2.0 * env.log_mu(n) - math.log(s_n) - 2.0 * lam)
            weights = (env.nu_over_mu_terms(n) / s_n).reshape(column)
            terms = (weights * shifted * g)[weights.ravel() > 0.0]
            sums = [math.fsum(col.tolist()) for col in terms.reshape(len(terms), -1).T]
            rhs = _out(zdot * np.reshape(sums, lam.shape))
    return Lemma33Transforms(zdot, zddot, shifted, fp / mean, qddot, g, rhs)


def _read(field: str, env: Environment, n: int, lam, m: int | None = None):
    """`lemma33_transforms(env, n, lam).<field>`, or its row m; raises unless n >= 1
    (0 <= m < n), a row of qddot or g has a pair-biased law and 0 < S_n < inf for zddot, rhs."""
    lam = _lambdas(lam)
    if not (n >= 1 if m is None else 0 <= m < n):
        raise ValueError("need n >= 1" if m is None else "need 0 <= m < n")
    if m is not None and field in ("qddot", "g") and env.dist_at(m + 1).second_factorial() <= 0.0:
        raise DistributionError("no pair-biased law")
    if field in ("zddot", "rhs"):
        _s_n(env, n)
    values = getattr(lemma33_transforms(env, n, lam), field)
    return values if m is None else _out(values[m])


def laplace_zddot(env: Environment, n: int, lam):
    """E[exp(-lam Zddot_n)]; see `lemma33_transforms`."""
    return _read("zddot", env, n, lam)


def laplace_zdot_shifted(env: Environment, n: int, m: int, lam):
    """E[exp(-lam Zdot^{(m+1)}_{n-(m+1)})]; see `lemma33_transforms`."""
    return _read("zdot_shifted", env, n, lam, m)


def laplace_hanging_qdot(env: Environment, n: int, m: int, lam):
    """Laplace transform of the subtree grown from a shifted size-biased root."""
    return _read("qdot", env, n, lam, m)


def laplace_hanging_qddot(env: Environment, n: int, m: int, lam):
    """Laplace transform of the subtree grown from a shifted pair-biased root."""
    return _read("qddot", env, n, lam, m)


def g_ratio(env: Environment, n: int, m: int, lam):
    """Ratio of the pair-biased to size-biased hanging-subtree transforms."""
    return _read("g", env, n, lam, m)


def g_gap_profile(env: Environment, n: int, lam) -> np.ndarray:
    """1 - g(n, m, lam) for every m in 0..n-1 (rows), NaN where nu_{m+1} = 0."""
    return 1.0 - _read("g", env, n, lam)


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
    """E[exp(-lam Z_n) | Z_n > 0] = 1 - (1 - f_{0,n}(e^-lam)) / P(Z_n > 0),
    from one sweep whose last grid point, s = 0, gives P(Z_n > 0)."""
    lam = _lambdas(lam)
    comp = CompositionTrace(env, n, np.append(np.exp(-lam), 0.0)).comp[0]
    if comp[-1] <= EXTINCT_EPS:
        raise DistributionError("process is extinct by this horizon")
    return _out(np.reshape(1.0 - comp[:-1] / comp[-1], lam.shape))


def two_spine_rhs(env: Environment, n: int, lam):
    """Right-hand side of the spine decomposition of E[exp(-lam Zddot_n)]:

        E[e^{-lam Zdot_n}] * sum_m P(K_n=m) E[e^{-lam Zdot^{(m+1)}_{n-(m+1)}}] g(n,m,lam)
    """
    return _read("rhs", env, n, lam)
