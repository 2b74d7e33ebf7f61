"""Exact population-size laws by dynamic programming, independent of the pgf engine.

The law of Z_n is built generation by generation: if the population is j,
the next generation is the j-fold convolution of the offspring pmf.  The
convolution powers q^{*j} are built incrementally (q^{*j} = q^{*(j-1)} * q).
Everything is truncated at a cap; mass pushed beyond the cap, or attached to
population sizes whose total probability is below a negligible cut, is
accumulated into an explicit `tail_mass` and treated as absorbing.  A
comparison against an ExactPmf is meaningful only while `tail_mass` stays
below the configured budget, and one against its size- or pair-biased law
only while the weighted mass that law misses (`reweighting_cut`) does too.

A `PopulationDP` answers many requests and shares their work.  The powers
q^{*j}, cut at the cap, and the mass each cut removed depend only on the
offspring table and the cap, so each is built once per (table, cap) and
serves every generation and request that convolves with that table; the
state after a sequence of generations is kept per (cap, sequence of
tables), so requests that share a prefix step it once.  That keeps every
bit: each power is the result of the same `np.convolve` and cut steps, on
the same inputs, as when it was rebuilt for each generation; each state is
stepped by the same operations in the same order.  A power is stored
without its trailing exact zeros, which only ever added `probs[j] * 0.0`
to an entry, while the chain that builds the next power runs on the
full-length array.  The tables live as long as the DP: one DP per horizon
of `check identities` serves its 3n laws, and `exact_pmf` builds one
for each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .offspring import DistributionError

__all__ = [
    "ExactPmf",
    "PopulationDP",
    "TailBudgetError",
    "exact_pmf",
    "transform_pmf",
    "reweighting_cut",
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
        if not (np.all(np.isfinite(p)) and math.isfinite(self.tail_mass)):
            raise ValueError("probabilities must be finite")
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


class _Powers:
    """q^{*j} cut at the cap for j = 0, 1, ..., built on demand."""

    def __init__(self, q: np.ndarray, cap: int):
        self.q, self.cap = q, cap
        self.chain = np.ones(1)     # the last power built, at full length
        self.stored = [np.ones(1)]  # each power without its trailing zeros
        self.cuts = [0.0]           # the mass the cuts removed from each power

    def __getitem__(self, j: int) -> tuple[np.ndarray, float]:
        while len(self.stored) <= j:
            a = np.convolve(self.chain, self.q)
            cut = self.cuts[-1]
            if a.size > self.cap + 1:
                cut += math.fsum(a[self.cap + 1 :].tolist())
                a = a[: self.cap + 1]
            self.chain = a
            nonzero = np.flatnonzero(a)
            self.stored.append(a[: nonzero[-1] + 1 if nonzero.size else 0].copy())
            self.cuts.append(cut)
        return self.stored[j], self.cuts[j]


def _step(probs: np.ndarray, tail: float, powers: _Powers) -> tuple[np.ndarray, float]:
    """One generation of the population DP under the offspring law whose
    powers are given.  The entries of the new state past every power it
    adds are zeros, and are left out."""
    occupied = np.nonzero(probs[1:])[0] + 1
    # Fold negligible top states into the tail rather than convolving them.
    rev_cum = np.cumsum(probs[occupied][::-1])[::-1]
    keep = occupied[rev_cum > _STATE_MASS_CUT]
    tail += math.fsum(probs[occupied[rev_cum <= _STATE_MASS_CUT]].tolist())
    terms = [powers[j] for j in keep]
    new = np.zeros(max([1] + [a.size for a, _ in terms]))
    new[0] += probs[0]
    for j, (a, cut) in zip(keep, terms):
        new[: a.size] += probs[j] * a
        tail += probs[j] * cut
    return new, tail


class _State:
    """The DP state after a sequence of generations, and the states that
    extend it by one generation, keyed by that generation's table."""

    __slots__ = ("probs", "tail", "next")

    def __init__(self, probs: np.ndarray, tail: float):
        self.probs, self.tail, self.next = probs, tail, {}


class PopulationDP:
    """The population DP for many requests: powers q^{*j} are built once
    per (offspring table, cap) and states once per (cap, sequence of
    tables), for as long as the object lives (see the module docstring)."""

    def __init__(self):
        self._powers: dict[tuple[bytes, int], _Powers] = {}
        self._roots: dict[int, _State] = {}

    def exact_pmf(
        self,
        env: Environment,
        n: int,
        cap: int = DEFAULT_CAP,
        cap_ceiling: int = CAP_CEILING,
    ) -> ExactPmf:
        """Law of Z_n, doubling the cap until the tail mass is within
        `DEFAULT_TAIL_BUDGET` (or the ceiling is hit, in which case the
        oversized tail is simply reported)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if cap < 1:
            raise ValueError("cap must be positive")
        tables = [env.dist_at(gen).to_table(1e-14).probs for gen in range(1, n + 1)]
        keys = [q.tobytes() for q in tables]
        while True:
            state = self._roots.get(cap)
            if state is None:
                state = self._roots[cap] = _State(np.array([0.0, 1.0]), 0.0)
            for key, q in zip(keys, tables):
                child = state.next.get(key)
                if child is None:
                    powers = self._powers.get((key, cap))
                    if powers is None:
                        powers = self._powers[key, cap] = _Powers(q, cap)
                    child = state.next[key] = _State(*_step(state.probs, state.tail, powers))
                state = child
            if state.tail <= DEFAULT_TAIL_BUDGET or cap >= cap_ceiling:
                probs = np.zeros(cap + 1)
                probs[: state.probs.size] = state.probs
                return ExactPmf(probs, state.tail)
            cap *= 2


def exact_pmf(
    env: Environment,
    n: int,
    cap: int = DEFAULT_CAP,
    cap_ceiling: int = CAP_CEILING,
) -> ExactPmf:
    """Law of Z_n from a DP of its own; see `PopulationDP.exact_pmf`."""
    return PopulationDP().exact_pmf(env, n, cap, cap_ceiling)


def _weights(p: ExactPmf, kind: str) -> np.ndarray:
    """k p_k for the size-biased law, k (k - 1) p_k for the pair-biased one."""
    k = np.arange(p.support, dtype=float)
    if kind == "size_biased":
        return k * p.probs[: p.support]
    if kind == "pair_biased":
        return k * (k - 1.0) * p.probs[: p.support]
    raise ValueError("kind must be 'size_biased' or 'pair_biased'")


def transform_pmf(p: ExactPmf, kind: str) -> ExactPmf:
    """Exact law of the size-biased or pair-biased population, normalized
    by the weighted mass p captures (see `reweighting_cut` for what it
    misses)."""
    w = _weights(p, kind)
    total = math.fsum(w.tolist())
    if total <= 0.0:
        raise DistributionError(f"no {kind} law: zero weighted mass")
    w = w / total
    w[w == 0.0] = 0.0
    out = np.zeros(p.probs.size)
    out[: p.support] = w
    return ExactPmf(out, 0.0)


def reweighting_cut(p: ExactPmf, kind: str, env: Environment, n: int) -> float:
    """The share of the exact weighted mass that the `kind` reweighting of
    p, the oracle law of Z_n under env, misses: 1 - captured / exact, where
    captured is p's k- or k(k-1)-weighted sum and exact is E[Z_n] = mu_n or
    E[Z_n (Z_n - 1)] = mu_n^2 S_n.  A tail that is light by count can carry
    a heavy weight; rounding below zero reads as 0."""
    captured = math.fsum(_weights(p, kind).tolist())
    exact = env.mu(n) if kind == "size_biased" else env.mu(n) ** 2 * env.cum_nu_over_mu(n)
    return max(0.0, 1.0 - captured / exact)


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
