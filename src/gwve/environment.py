"""Varying environments: per-generation offspring laws and their constants.

An environment assigns an offspring distribution to every generation n >= 1.
The three construction rules (constant, periodic, explicit head + constant
tail) are all representable as a finite head followed by a repeating cycle,
and that form is closed under shifting and prepending, so shifted and
prepended environments keep exact constants.

Cached per environment: log mu_n (log means summed through the head and the
first cycle, then the log of the cycle's mean product once per cycle), the
series S_n = sum_{k<n} nu_{k+1}/mu_k with Kahan compensation, and its terms.

The regime label is exact and has one rule, read off the laws: a finite head
cannot change it, so the cycle decides (see `Environment.classify`).  The
horizon given to `classify` sets only the window of its diagnostics.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .offspring import DistributionError, OffspringDistribution

__all__ = ["Environment", "RegimeDiagnostics"]


@dataclass(frozen=True)
class RegimeDiagnostics:
    """A regime label and numeric diagnostics over the first `horizon`
    generations.

    The label is exact (see `Environment.classify`); the window only bounds
    the diagnostics.  The liminf quantities of the subcritical clause cannot
    be read off a finite window, so `mu_min` and `mu_s_min` are the minima
    over it and are labelled as proxies.
    """

    label: str
    horizon: int
    mu_final: float
    mu_half: float
    s_final: float
    s_half: float
    mu_s_final: float
    mu_s_half: float
    mu_min_proxy: float
    mu_s_min_proxy: float
    sup_regularity_ratio: float
    sup_condition_a_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


class Environment:
    """Offspring law sequence q_1, q_2, ... given by a head plus a cycle."""

    def __init__(
        self,
        head: Sequence[OffspringDistribution] = (),
        cycle: Sequence[OffspringDistribution] = (),
    ):
        self.head = tuple(head)
        self.cycle = tuple(cycle)
        if not self.cycle:
            raise ValueError("environment needs a nonempty repeating cycle")
        # Zero-mean generations are tolerated at construction (prepended
        # hanging-subtree laws can be a point mass at 0); the constants
        # cache rejects them when a mu_n product would actually need them.
        self._lock = threading.Lock()
        # Index n holds the value for generation n; grown on demand.
        self._log_mu = [0.0]
        self._s = [0.0]
        self._s_comp = 0.0  # Kahan compensation carried by the S series.
        self._mu_s = [0.0]  # mu_n * S_n via its own stable recursion
        self._terms: list[float] = []  # terms[k] = nu_{k+1} / mu_k

    # ------------------------------------------------------------------
    # Construction rules.

    @classmethod
    def constant(cls, dist: OffspringDistribution) -> "Environment":
        return cls(cycle=(dist,))

    @classmethod
    def periodic(cls, cycle: Sequence[OffspringDistribution]) -> "Environment":
        return cls(cycle=tuple(cycle))

    @classmethod
    def explicit(
        cls, head: Sequence[OffspringDistribution], tail: OffspringDistribution
    ) -> "Environment":
        return cls(head=tuple(head), cycle=(tail,))

    @property
    def rule(self) -> str:
        if not self.head:
            return "constant" if len(self.cycle) == 1 else "periodic"
        return "explicit" if len(self.cycle) == 1 else "general"

    def __repr__(self) -> str:
        return f"Environment(head={list(self.head)}, cycle={list(self.cycle)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Environment)
            and self.head == other.head
            and self.cycle == other.cycle
        )

    def dist_at(self, n: int) -> OffspringDistribution:
        """Offspring law of generation n (1-based)."""
        if n < 1:
            raise ValueError("generations are numbered from 1")
        i = n - 1
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def distinct_dists(self) -> tuple[OffspringDistribution, ...]:
        seen: list[OffspringDistribution] = []
        for d in (*self.head, *self.cycle):
            if d not in seen:
                seen.append(d)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Shifts.

    def shift(self, m: int) -> "Environment":
        """Environment whose generation-k law is this one's generation m+k."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        if m <= len(self.head):
            return Environment(self.head[m:], self.cycle)
        rot = (m - len(self.head)) % len(self.cycle)
        return Environment((), self.cycle[rot:] + self.cycle[:rot])

    def prepend(self, dist: OffspringDistribution) -> "Environment":
        """Environment with `dist` at generation 1 and this one shifted after."""
        return Environment((dist, *self.head), self.cycle)

    # ------------------------------------------------------------------
    # Cached constants.

    def _extend(self, n: int) -> None:
        with self._lock:
            while len(self._log_mu) <= n:
                k = len(self._log_mu)  # building values for generation k
                dist = self.dist_at(k)
                mean = dist.mean()
                if mean <= 0.0:
                    raise DistributionError(
                        f"generation {k} has mean f'(1) = 0; constants undefined"
                    )
                nu = dist.nu()
                try:
                    term = nu * math.exp(-self._log_mu[k - 1])
                except OverflowError:
                    term = math.inf
                self._terms.append(term)
                if math.isinf(term) or math.isinf(self._s[k - 1]):
                    self._s.append(self._s[k - 1] + term)
                    self._s_comp = 0.0
                else:
                    # Kahan step for S_k = S_{k-1} + term.
                    y = term - self._s_comp
                    t = self._s[k - 1] + y
                    self._s_comp = (t - self._s[k - 1]) - y
                    self._s.append(t)
                # mu_k * S_k = mean_k * (mu_{k-1} S_{k-1} + nu_k): stays finite
                # in regimes where mu_n S_n is bounded but S_n overflows.
                self._mu_s.append(mean * (self._mu_s[k - 1] + nu))
                back = k - len(self.cycle)  # the same place one cycle back
                self._log_mu.append(self._log_mu[back] + self._log_cycle if back >= len(self.head)
                                    else self._log_mu[k - 1] + math.log(mean))

    @functools.cached_property
    def _log_cycle(self) -> float:
        """log of the cycle's mean product: one rounding, not one per law."""
        means = [d.mean() for d in self.cycle]
        prod = math.prod(means)
        return math.log(prod) if 1e-300 < prod < 1e300 else math.fsum(map(math.log, means))

    def log_mu(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be nonnegative")
        self._extend(n)
        return self._log_mu[n]

    def mu(self, n: int) -> float:
        """Product of the first n means; overflow surfaces as +inf."""
        try:
            return math.exp(self.log_mu(n))
        except OverflowError:
            return math.inf

    def cum_nu_over_mu(self, n: int) -> float:
        """S_n = sum_{k=0}^{n-1} nu_{k+1}/mu_k."""
        if n < 1:
            raise ValueError("the series starts at n = 1")
        self._extend(n)
        return self._s[n]

    def nu_over_mu_terms(self, n: int) -> np.ndarray:
        """The first n terms nu_{k+1}/mu_k, k = 0..n-1."""
        self._extend(n)
        return np.asarray(self._terms[:n])

    def a(self, n: int) -> float:
        """Normalizing sequence (mu_n / 2) * S_n, with a_0 = 1."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return 1.0
        self._extend(n)
        return 0.5 * self._mu_s[n]

    # ------------------------------------------------------------------
    # Regime classification.

    def classify(self, horizon: int = 10_000) -> RegimeDiagnostics:
        """Label the regime from the cycle's laws.

        A head scales mu_n by a constant and adds a finite sum to S_n, so
        the cycle fixes the label: the sign of the log mean product over one
        cycle, then whether a cycle law has f''(1) > 0 (critical).  A cycle
        of point masses at 1 is asymptotically degenerate after a head with
        f''(1) > 0 and inconclusive otherwise.  The constants are built
        through the head and one cycle, so every law's mean is checked;
        `horizon` only sets the window of the diagnostics.
        """
        if horizon < 10:
            raise ValueError("classification horizon must be at least 10")
        self._extend(max(horizon, len(self.head) + len(self.cycle)))
        half = horizon // 2
        with np.errstate(over="ignore"):
            mu_arr = np.exp(np.asarray(self._log_mu[1 : horizon + 1]))
        mu_s_arr = np.asarray(self._mu_s[1 : horizon + 1])

        if self._log_cycle > 1e-12:
            label = "supercritical"
        elif self._log_cycle < -1e-12:
            label = "subcritical"
        elif any(d.second_factorial() > 0.0 for d in self.cycle):
            label = "critical"
        elif (all(d.pmf(1) == 1.0 for d in self.cycle)
              and any(d.second_factorial() > 0.0 for d in self.head)):
            label = "asymptotically-degenerate"
        else:
            label = "inconclusive"

        sup_reg = -math.inf
        sup_cond = -math.inf
        for d in self.distinct_dists():
            try:
                sup_reg = max(sup_reg, d.regularity_ratio())
            except DistributionError:
                pass
            try:
                sup_cond = max(sup_cond, d.condition_a_ratio())
            except DistributionError:
                pass
        return RegimeDiagnostics(
            label=label,
            horizon=horizon,
            mu_final=self.mu(horizon),
            mu_half=self.mu(half),
            s_final=self._s[horizon],
            s_half=self._s[half],
            mu_s_final=float(mu_s_arr[-1]),
            mu_s_half=float(mu_s_arr[half - 1]),
            mu_min_proxy=float(np.min(mu_arr)),
            mu_s_min_proxy=float(np.min(mu_s_arr)),
            sup_regularity_ratio=sup_reg if sup_reg > -math.inf else math.nan,
            sup_condition_a_ratio=sup_cond if sup_cond > -math.inf else math.nan,
        )
