"""Exact population-size laws by dynamic programming, independent of the pgf engine.

The law of Z_n is built generation by generation: if the population is j,
the next generation is the j-fold convolution of the offspring pmf.  The
convolution powers q^{*j} are built incrementally (q^{*j} = q^{*(j-1)} * q)
and reused across the mixture over j.  Everything is truncated at a cap;
mass pushed beyond the cap, or attached to population sizes whose total
probability is below a negligible cut, is accumulated into an explicit
`tail_mass` and treated as absorbing.  A comparison against an ExactPmf is
meaningful only while `tail_mass` stays below the configured budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .offspring import DistributionError

__all__ = [
    "ExactPmf",
    "TailBudgetError",
    "exact_pmf",
    "transform_pmf",
    "laplace_from_pmf",
    "tv_distance",
    "histogram_pmf",
]

DEFAULT_CAP = 4096
DEFAULT_TAIL_BUDGET = 1e-10
CAP_CEILING = 1 << 16
# Population sizes whose collective probability is below this are folded
# into the tail instead of being convolved; orders below the tail budget.
_STATE_MASS_CUT = 1e-16


class TailBudgetError(RuntimeError):
    """An ExactPmf was used in a comparison its tail mass cannot support."""


@dataclass(frozen=True)
class ExactPmf:
    """Truncated exact distribution with explicit aggregated tail mass.

    `support` is one past the last nonzero entry of `probs` (0 when every
    entry is zero), found by one scan at construction.  The sums over the
    law stop there: `math.fsum` is correctly rounded, so the exact zeros
    beyond it cannot move a bit of any of them.  `probs`, and so `cap`,
    keep their full length."""

    probs: np.ndarray
    tail_mass: float
    support: int = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)
        if np.any(p < 0.0) or self.tail_mass < -1e-15:
            raise ValueError("probabilities must be nonnegative")
        nonzero = np.flatnonzero(p)
        object.__setattr__(self, "support", int(nonzero[-1]) + 1 if nonzero.size else 0)
        total = math.fsum(p[: self.support].tolist()) + self.tail_mass
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"entries plus tail sum to {total!r}, not 1")

    @property
    def cap(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        k = np.arange(self.support, dtype=float)
        return math.fsum((k * self.probs[: self.support]).tolist())

    def second_factorial(self) -> float:
        k = np.arange(self.support, dtype=float)
        return math.fsum((k * (k - 1.0) * self.probs[: self.support]).tolist())

    def check_budget(self, budget: float = DEFAULT_TAIL_BUDGET) -> None:
        if self.tail_mass > budget:
            raise TailBudgetError(
                f"tail mass {self.tail_mass!r} exceeds budget {budget!r}"
            )


def _step(probs: np.ndarray, tail: float, q: np.ndarray, cap: int) -> tuple[np.ndarray, float]:
    """One generation of the population DP under offspring pmf q."""
    new = np.zeros(cap + 1)
    new[0] += probs[0]
    occupied = np.nonzero(probs[1:])[0] + 1
    if occupied.size:
        # Fold negligible top states into the tail rather than convolving them.
        rev_cum = np.cumsum(probs[occupied][::-1])[::-1]
        keep = occupied[rev_cum > _STATE_MASS_CUT]
        tail += math.fsum(probs[occupied[rev_cum <= _STATE_MASS_CUT]].tolist())
        # a is q^{*j} cut at the cap; cut is the mass the cuts have removed
        # from it, accumulated as each convolution overflows.
        a = np.ones(1)
        cut = 0.0
        j_prev = 0
        for j in keep:
            for _ in range(j - j_prev):
                a = np.convolve(a, q)
                if a.size > cap + 1:
                    cut += math.fsum(a[cap + 1 :].tolist())
                    a = a[: cap + 1]
            j_prev = int(j)
            new[: a.size] += probs[j] * a
            tail += probs[j] * cut
    return new, tail


def exact_pmf(
    env: Environment,
    n: int,
    cap: int = DEFAULT_CAP,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
    cap_ceiling: int = CAP_CEILING,
) -> ExactPmf:
    """Law of Z_n, doubling the cap until the tail budget is met (or the
    ceiling is hit, in which case the oversized tail is simply reported)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    while True:
        probs = np.zeros(cap + 1)
        probs[min(1, cap)] = 1.0
        tail = 0.0
        for gen in range(1, n + 1):
            q = env.dist_at(gen).to_table(1e-14).probs
            probs, tail = _step(probs, tail, q, cap)
        if tail <= tail_budget or cap >= cap_ceiling:
            return ExactPmf(probs, tail)
        cap *= 2


def transform_pmf(p: ExactPmf, kind: str) -> ExactPmf:
    """Exact law of the size-biased or pair-biased population."""
    k = np.arange(p.support, dtype=float)
    if kind == "size_biased":
        w = k * p.probs[: p.support]
    elif kind == "pair_biased":
        w = k * (k - 1.0) * p.probs[: p.support]
    else:
        raise ValueError("kind must be 'size_biased' or 'pair_biased'")
    total = math.fsum(w.tolist())
    if total <= 0.0:
        raise DistributionError(f"no {kind} law: zero weighted mass")
    w = w / total
    w[w == 0.0] = 0.0
    out = np.zeros(p.probs.size)
    out[: p.support] = w
    return ExactPmf(out, 0.0)


def laplace_from_pmf(p: ExactPmf, lam: float, tail_budget: float = DEFAULT_TAIL_BUDGET) -> float:
    """sum_k exp(-lam k) p_k; refuses pmfs whose tail mass breaks the budget."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    p.check_budget(tail_budget)
    k = np.arange(p.support, dtype=float)
    return math.fsum((np.exp(-lam * k) * p.probs[: p.support]).tolist())


def _as_pmf(x) -> ExactPmf:
    if isinstance(x, ExactPmf):
        return x
    arr = np.asarray(x, dtype=float)
    return ExactPmf(arr, max(0.0, 1.0 - math.fsum(arr.tolist())))


def tv_distance(p, q) -> float:
    """Total variation distance, counting disagreement in tail mass."""
    p, q = _as_pmf(p), _as_pmf(q)
    a = np.zeros(max(p.support, q.support))
    b = np.zeros(a.size)
    a[: p.support] = p.probs[: p.support]
    b[: q.support] = q.probs[: q.support]
    return 0.5 * math.fsum(np.abs(a - b).tolist()) + 0.5 * abs(p.tail_mass - q.tail_mass)


def histogram_pmf(counts: np.ndarray, cap: int | None = None) -> ExactPmf:
    """The empirical law, as an ExactPmf, of a sample given as its
    histogram: `counts[k]` observations of k.

    With a cap, observations above it become tail mass.
    """
    counts = np.asarray(counts)
    size = int(counts.sum())
    if size == 0:
        raise ValueError("need at least one sample")
    if cap is not None and counts.size > cap + 1:
        tail = counts[cap + 1 :].sum() / size
        counts = counts[: cap + 1]
    else:
        tail = 0.0
    return ExactPmf(counts / size, float(tail))
