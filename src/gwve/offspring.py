"""Offspring distributions on the nonnegative integers.

Four families are supported: an explicit finite table and the geometric,
Poisson and binomial laws.  Every family exposes its probability generating
function f(s) = sum_k q(k) s^k together with its first two derivatives in
closed form, the first three factorial moments at s = 1, and the two
reweighted laws used by spine constructions: the size-biased law
k*q(k)/f'(1) and the pair-biased law k*(k-1)*q(k)/f''(1).

The geometric, Poisson and binomial families are closed under convolution,
and so are their reweighted laws less the spine children: for geometric(p)
the size-biased law is 1 + NegBin(2, p) and the pair-biased law 2 + NegBin(3,
p); for Poisson(lam) they are 1 + Poisson(lam) and 2 + Poisson(lam); for
binomial(m, p) they are 1 + Bin(m-1, p) and 2 + Bin(m-2, p).  `sum_sample`
therefore draws the off-spine offspring of a whole generation of a spine tree
in one draw.  Tables and geometric laws draw it from one uniform read in a
cached Walker alias table of the convolved law (Walker, ACM TOMS 3, 1977;
Vose, IEEE TSE 17, 1991), one kernel for both: two gathers per row, 25-50 ns
on a 2-core Xeon against 130-150 ns for a binary search over cached CDFs and
90-150 ns for numpy's negative binomial (a gamma, then a Poisson draw).  A
table's entry is its count of plain parents, below 32 (fewer for tables with
many atoms); larger counts draw their plain births by one multinomial and add
the spine births from the same alias table.  A geometric law's entry is the
shape r of NegBin(r, p), below C = 32 (fewer for small p); a second table
holds the shapes C*a for a < A (A = 16 at p = 1/2), and a shape r of C or
more adds one draw of NegBin(C floor(r/C), p) from it to the draw of
NegBin(r mod C, p).  Shapes beyond the second table keep numpy's draw, by
one scalar call each where they are few: an array call pays numpy's
argument checks however few rows it draws.  Poisson and binomial laws keep
their closed-form numpy draws.

`sum_sample` also draws for rows from several generators in one call, each
run of rows from its own generator and with the calls that a call on those
rows alone would make, so batches of different streams can share a call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "DistributionError",
    "OffspringDistribution",
    "FiniteTable",
    "Geometric",
    "Poisson",
    "Binomial",
]

# Tail mass left behind when an infinite-support law is materialized as a
# finite table.  Far below every comparison tolerance in the test suite.
TABLE_TAIL_TOL = 1e-15
# Tighter cut used before reweighting, because multiplying by k or k(k-1)
# inflates relative tail mass.
_REWEIGHT_TAIL_TOL = 1e-18

_PMF_SUM_TOL = 1e-12

# Tables and geometric laws draw the off-spine sum of a row whose entry is
# below this (plain parents for a table, the NegBin shape for a geometric law)
# from a cached alias table (see `_alias_laws`), with a lower cutoff where the
# cache would hold more than _INVERT_ATOMS columns.
_INVERT_BELOW = 32
_INVERT_ATOMS = 1 << 16
# A geometric law's second alias table, of the NegBin shapes C*a, holds at
# most this many columns (see `Geometric._coarse_laws`).
_COARSE_ATOMS = 1 << 14
# Every alias entry splits its unit mass into this many integer units.
_ALIAS_UNITS = 1 << 61
# An array call to `rng.negative_binomial` costs about 40 us of argument
# checks however few rows it draws, a scalar call about 1.5-2 us; they break
# even near 30 rows (2-core Xeon, numpy 2.4).
_NEGBIN_ARRAY_ROWS = 30


class DistributionError(ValueError):
    """Raised when an operation is undefined for the given distribution."""


def _on_floats(formula, x):
    """formula(x) with x as float64: an array stays an array, and a scalar
    goes in as a numpy scalar (far cheaper than a 0-d array) and comes back
    as a float."""
    x = np.asarray(x, dtype=float)
    return formula(x) if x.ndim else float(formula(x[()]))


def _entry_keys(columns: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """Search keys that sort as the pairs (entry, value), for columns of
    entries of `width` columns each and values below 2^62: numpy orders
    complex numbers by real part, then imaginary part, and both parts here
    are integers below 2^53, so exact."""
    high = (columns // width) * float(1 << 31) + (values >> 31)
    return high + 1j * (values & ((1 << 31) - 1))


def _alias_columns(pmfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias columns (prob, alias) of every row of `pmfs`, an
    (entries x W) array of laws on {0, ..., W-1} with W a power of two, laid
    out entry after entry: column e*W + j holds atom j of entry e, which is
    drawn with probability prob[e*W + j] / W from its own column and
    (1 - prob[e*W + k]) / W from every column e*W + k with alias[e*W + k] = j.

    The pairing is that of Vose's sweep, in which each column short of mass
    1/W is topped up by the current large atom, and a large atom that falls
    short becomes a short column topped up by the next one.  It is computed
    for all entries at once from each entry's cumulative shortfalls and
    surpluses, in integer units of 1/_ALIAS_UNITS, so every column and every
    atom's mass is exact up to the rounding of the pmf to those units; an
    entry's rounding remainder goes to its largest atom."""
    entries, width = pmfs.shape
    scale = _ALIAS_UNITS // width
    q = np.rint(pmfs * float(_ALIAS_UNITS)).astype(np.int64)
    q[np.arange(entries), np.argmax(q, axis=1)] += _ALIAS_UNITS - q.sum(axis=1)
    is_small = q < scale
    short = np.where(is_small, scale - q, 0).cumsum(axis=1).reshape(-1)
    surplus = np.where(is_small, 0, q - scale).cumsum(axis=1).reshape(-1)
    q = q.reshape(-1)
    small, large = np.flatnonzero(is_small), np.flatnonzero(~is_small)
    short, surplus = short[small], surplus[large]
    prob = np.ones(q.size)
    alias = np.arange(q.size, dtype=np.int64) & (width - 1)
    # A short column is topped up by the first large atom of its entry whose
    # surplus covers the shortfall of the entry's columns before it.
    prob[small] = q[small] / scale
    top_up = np.searchsorted(_entry_keys(large, surplus, width),
                             _entry_keys(small, short - (scale - q[small]), width))
    alias[small] = large[top_up] & (width - 1)
    # A large atom other than its entry's last falls short at the column that
    # takes the entry's shortfall past its cumulative surplus, unless no
    # column does.
    inner = large[:-1] // width == large[1:] // width
    m, after, surplus = large[:-1][inner], large[1:][inner], surplus[:-1][inner]
    at = np.searchsorted(_entry_keys(small, short, width), _entry_keys(m, surplus, width),
                         side="right")
    falls = np.append(small // width, -1)[at] == m // width
    m, at = m[falls], at[falls]
    prob[m] = (scale - (short[at] - surplus[falls])) / scale
    alias[m] = after[falls] & (width - 1)
    return prob, alias


def _streams(rng, bounds, rows: int) -> tuple[list, list[int]]:
    """(generators, bounds) of a `sum_sample` call on `rows` rows: rows
    bounds[i]:bounds[i+1] draw from generators[i].  Without `bounds`, the one
    generator `rng` draws every row."""
    if bounds is None:
        return [rng], [0, rows]
    return list(rng), np.asarray(bounds).tolist()


def _split(bounds: list[int], rows: np.ndarray) -> list[int]:
    """The bounds of each stream's rows within `rows`, an increasing array of
    row indices."""
    return [0, rows.size] if len(bounds) == 2 else np.searchsorted(rows, bounds).tolist()


def _uniforms(gens: list, bounds: list[int], skip=()) -> np.ndarray:
    """One uniform per row, rows bounds[i]:bounds[i+1] from gens[i]; the rows
    of the streams in `skip` read 0 and draw nothing."""
    if len(gens) == 1 and not skip:
        return gens[0].random(bounds[1])
    x = np.zeros(bounds[-1])
    for i, g in enumerate(gens):
        if i not in skip:
            g.random(out=x[bounds[i]:bounds[i + 1]])
    return x


def _per_stream(rng, bounds, params, draw) -> np.ndarray:
    """draw(generator, params) for every stream's rows of `params` (every row
    on `rng` without `bounds`), as an int64 array."""
    if bounds is None:
        return np.asarray(draw(rng, params), dtype=np.int64)
    gens, bounds = _streams(rng, bounds, params.size)
    out = np.empty(params.shape, dtype=np.int64)
    for g, lo, hi in zip(gens, bounds, bounds[1:]):
        out[lo:hi] = draw(g, params[lo:hi])
    return out


def _alias_draw(x: np.ndarray, col: np.ndarray, prob: np.ndarray,
                alias: np.ndarray, width: int) -> np.ndarray:
    """One atom per row from the alias tables (prob, alias) of entries of
    `width` columns (see `_alias_columns`), as an int64 array; `x` holds a
    uniform per row, `col` each row's first column e*W, and both are
    overwritten.

    The uniform u picks column e*W + floor(u*W), and the fractional part of
    u*W the column's atom or its alias.  W is a power of two, so u*W is
    exact, its integer part is below W and its fractional part is exact too.
    The rows' work reuses three buffers: a fresh megabyte temporary can cost
    as much in page faults as the pass that fills it."""
    x *= width
    j = x.astype(np.int64)
    x -= j
    col += j
    stay = x < np.take(prob, col, out=j.view(np.float64), mode="clip")
    out = np.take(alias, col, out=x.view(np.int64), mode="clip")
    np.bitwise_and(col, width - 1, out=out, where=stay)  # the column's own atom
    return out


def _negative_binomial(rng, shapes: np.ndarray, p: float):
    """NegBin(r, p) for each r in `shapes`.  Fewer than _NEGBIN_ARRAY_ROWS
    are drawn by one scalar call each: numpy runs the same kernel in the same
    order, without an array call's argument checks."""
    if shapes.size >= _NEGBIN_ARRAY_ROWS:
        return rng.negative_binomial(shapes, p)
    return [rng.negative_binomial(r, p) for r in shapes.tolist()]


def _negbin_width(p: float, r: int, atoms: int) -> float:
    """The power of two above the cut of NegBin(r, p), or inf if the cut is
    not below `atoms`.  The cut is the first atom K at which the tail bound
    pmf(K) rho / (1 - rho) is below one alias unit, 1/_ALIAS_UNITS = 2^-61,
    where rho = pmf(K + 1) / pmf(K) = (K + r) (1-p) / (K + 1) < 1: the ratios
    fall with k, so the tail beyond K is below that bound.  The bound is
    formed in log space, where neither p^r nor the ratios' running product
    leaves the float range."""
    k = np.arange(atoms)
    rho = (k + r) * (1.0 - p) / (k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = r * math.log(p) + np.cumsum(np.append(0.0, np.log(rho[:-1])))
        tail = log_pmf + np.log(rho / (1.0 - rho))
    cut = np.flatnonzero((rho < 1.0) & (tail < -math.log(_ALIAS_UNITS)))
    return 1 << int(cut[0]).bit_length() if cut.size else math.inf


def _negbin_pmfs(p: float, shapes: np.ndarray, atoms: int) -> np.ndarray:
    """(shapes x atoms) array whose row i is the NegBin(r, p) pmf C(k + r -
    1, k) p^r (1-p)^k on k < atoms, for r = shapes[i] (r = 0: the point mass
    at 0).

    Each row is built from its mode outward by the ratios pmf(k + 1) / pmf(k)
    = (k + r) (1-p) / (k + 1), then divided by its exact sum, so no value
    leaves the float range (p^r alone underflows near r = 460 at p = 0.2).
    An atom d steps from the mode is within about 3d roundings of exact, but
    for the rounding delta of 1 - p, which scales it by about (1 + delta)^d;
    the division by the sum takes out the bulk of that skew."""
    r = np.asarray(shapes, dtype=float)[:, None]
    k = np.arange(atoms, dtype=float)
    q = 1.0 - p
    mode = np.minimum(np.floor(np.maximum(r - 1.0, 0.0) * q / p), atoms - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(k > mode, (k - 1.0 + r) * q / k, 1.0)       # pmf(k) / pmf(k - 1)
        down = np.where(k < mode, (k + 1.0) / ((k + r) * q), 1.0)  # pmf(k) / pmf(k + 1)
    pmfs = np.cumprod(up, axis=1) * np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    pmfs /= np.array([math.fsum(row) for row in pmfs.tolist()])[:, None]
    return pmfs


class OffspringDistribution:
    """Common interface for one generation's offspring law.

    A family supplies only its formulas: `_key` (its parameters, which define
    equality and the hash), `_pmf(k)` for k >= 0, `_jet(s)`, the triple
    (f(s), f'(s), f''(s)), and `_branch_survival(u)` on a float64 array or
    numpy scalar, and `_draw(rng, size)`.  The public methods here check and
    convert the arguments, and return a float for a scalar argument.  Families whose
    `sum_sample` reads an alias table also supply `_alias_laws()`."""

    _key: tuple

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key == self._key

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key))

    def pmf(self, k: int) -> float:
        if k < 0:
            raise ValueError("support is the nonnegative integers")
        return self._pmf(k)

    def pgf(self, s, order: int = 0):
        """Evaluate f(s), f'(s) or f''(s); accepts scalars or arrays."""
        if order not in (0, 1, 2):
            raise ValueError("order must be in {0, 1, 2}")
        return _on_floats(lambda x: self._jet(x)[order], s)

    def mean(self) -> float:
        """f'(1)."""
        raise NotImplementedError

    def second_factorial(self) -> float:
        """f''(1) = E[k(k-1)]."""
        raise NotImplementedError

    def third_factorial(self) -> float:
        """f'''(1) = E[k(k-1)(k-2)]."""
        raise NotImplementedError

    def branch_survival(self, u):
        """1 - f(1 - u), evaluated without cancellation for small u.

        If each child's lineage independently survives with probability u,
        this is the probability that at least one lineage survives.
        """
        return _on_floats(self._branch_survival, u)

    def sample(self, rng: np.random.Generator, size=None):
        """One draw as an int, or an int64 array of the given size."""
        out = self._draw(rng, size)
        return int(out) if size is None else out.astype(np.int64)

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray,
                   size_biased: np.ndarray | None = None,
                   pair_biased: np.ndarray | None = None, bounds=None) -> np.ndarray:
        """Draw, for every entry c of `counts`, the sum of c iid copies, as an
        int64 array with the shape of `counts` (0-d for a scalar count).

        With `size_biased` (s in {0, 1, 2}) and `pair_biased` (t in {0, 1})
        given, each entry also adds the offspring of s size-biased and t
        pair-biased parents, less the spine children they keep (one per
        size-biased parent, two per pair-biased one): the off-spine part of
        one generation of a spine tree.  Raises DistributionError when a
        needed reweighted law does not exist.

        With `bounds`, increasing row offsets from 0 to the size of the 1-d
        `counts`, `rng` is a sequence of generators and rows bounds[i]:
        bounds[i+1] draw from rng[i]: each generator makes the calls, in the
        order, that a call on its rows alone would make, so batches merged
        into one call keep their draws."""
        raise NotImplementedError

    def to_table(self, tail_tol: float = TABLE_TAIL_TOL) -> "FiniteTable":
        """Materialize as a finite table, truncated and renormalized."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived quantities shared by all families.

    def nu(self) -> float:
        """Normalized second factorial moment f''(1)/f'(1)^2."""
        m = self.mean()
        if m <= 0.0:
            raise DistributionError("degenerate mean")
        return self.second_factorial() / (m * m)

    def size_biased(self) -> "FiniteTable":
        """The law k*q(k)/f'(1), materialized as a finite table (once per
        instance: every law here is immutable)."""
        if "_size_biased" not in self.__dict__:
            self._require_reweighted(1, None)
            table = self.to_table(_REWEIGHT_TAIL_TOL)
            k = np.arange(table.probs.size, dtype=float)
            w = k * table.probs
            self._size_biased = FiniteTable(w / math.fsum(w))
        return self._size_biased

    def pair_biased(self) -> "FiniteTable":
        """The law k*(k-1)*q(k)/f''(1), materialized as a finite table (once
        per instance)."""
        if "_pair_biased" not in self.__dict__:
            self._require_reweighted(None, 1)
            table = self.to_table(_REWEIGHT_TAIL_TOL)
            k = np.arange(table.probs.size, dtype=float)
            w = k * (k - 1.0) * table.probs
            w[w == 0.0] = 0.0
            self._pair_biased = FiniteTable(w / math.fsum(w))
        return self._pair_biased

    def _inversion_tables(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(C, prob, alias): the Walker alias columns (see `_alias_columns`)
        of the entries `_alias_laws` gives, read by `sum_sample`."""
        return self._alias_tables("_inversion", self._alias_laws)

    def _alias_tables(self, name: str, laws) -> tuple[int, np.ndarray, np.ndarray]:
        """(E, prob, alias) for (E, pmfs) = laws(), cached as attribute `name`.

        Built once per instance, in the process that draws, and published by
        one assignment, so threads that race on the first call build equal
        tables and never see a partial one."""
        tables = self.__dict__.get(name)
        if tables is None:
            entries, pmfs = laws()
            prob, alias = _alias_columns(pmfs)
            prob.setflags(write=False)
            alias.setflags(write=False)
            tables = (entries, prob, alias)
            setattr(self, name, tables)
        return tables

    def _require_reweighted(self, size_biased, pair_biased) -> None:
        """Raise unless the reweighted laws that some entry needs exist."""
        if size_biased is not None and self.mean() <= 0.0 and np.any(size_biased):
            raise DistributionError("size-biasing a distribution degenerate at zero")
        if pair_biased is not None and self.second_factorial() <= 0.0 and np.any(pair_biased):
            raise DistributionError("no pair-biased law")

    def _shape_sum(self, counts, shapes: tuple, size_biased, pair_biased):
        """r0*c + r1*s + r2*t, the shape parameter of what `sum_sample` draws
        for a family closed under convolution: r0, r1 and r2 are the shapes
        of one plain birth, of one size-biased birth less its spine child and
        of one pair-biased birth less its two."""
        self._require_reweighted(size_biased, pair_biased)
        r0, r1, r2 = shapes
        total = np.asarray(counts)
        if r0 != 1:
            total = r0 * total
        if size_biased is not None:
            total = total + r1 * np.asarray(size_biased)
        if pair_biased is not None:
            total = total + r2 * np.asarray(pair_biased)
        return total

    def shift_down(self, r: int) -> "OffspringDistribution":
        """The law of (X - r), defined only when P(X < r) = 0."""
        if r < 0:
            raise ValueError("shift must be nonnegative")
        if r == 0:
            return self
        if any(self.pmf(j) > 0.0 for j in range(r)):
            raise DistributionError("shift precondition violated")
        table = self.to_table()
        return FiniteTable(table.probs[r:])

    def regularity_ratio(self) -> float:
        """E[X^2 1{X>=2}] / (E[X 1{X>=2}] * E[X | X>=1]).

        The smallest constant c for which this distribution satisfies the
        uniform regularity inequality; computed by direct summation on a
        table truncated at 1e-14 tail mass.
        """
        table = self.to_table(1e-14)
        q = table.probs
        k = np.arange(q.size, dtype=float)
        num = math.fsum(k[2:] * k[2:] * q[2:])
        den1 = math.fsum(k[2:] * q[2:])
        p_ge1 = math.fsum(q[1:])
        if den1 <= 0.0 or p_ge1 <= 0.0:
            raise DistributionError("ratio undefined")
        cond_mean = math.fsum(k * q) / p_ge1
        return num / (den1 * cond_mean)

    def condition_a_ratio(self) -> float:
        """f'''(1) / (f''(1) * (1 + f'(1)))."""
        fpp = self.second_factorial()
        if fpp <= 0.0:
            raise DistributionError("third-moment ratio undefined: f''(1) = 0")
        return self.third_factorial() / (fpp * (1.0 + self.mean()))


class FiniteTable(OffspringDistribution):
    """Explicit pmf on {0, ..., K}.

    Entries must be nonnegative and sum to 1 within 1e-12; the vector is
    renormalized exactly once at construction.
    """

    def __init__(self, probs: Sequence[float] | np.ndarray):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DistributionError("pmf must be a nonempty 1-d vector")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise DistributionError("pmf entries must be finite and nonnegative")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise DistributionError(f"pmf sums to {total!r}, not 1 within {_PMF_SUM_TOL}")
        p = p / total
        # Canonical form: no trailing zeros.
        last = int(np.max(np.nonzero(p)[0])) if np.any(p > 0) else 0
        self.probs = p[: last + 1].copy()
        self.probs.setflags(write=False)
        self._key = tuple(self.probs.tolist())
        self._cdf = np.cumsum(self.probs)
        k = np.arange(self.probs.size, dtype=float)
        self._moments = (
            math.fsum(k * self.probs),
            math.fsum(k * (k - 1.0) * self.probs),
            math.fsum(k * (k - 1.0) * (k - 2.0) * self.probs),
        )
        # Coefficient vectors of f and its first two derivatives.
        self._dcoefs = [self.probs]
        for r in range(1, 3):
            prev = self._dcoefs[-1]
            self._dcoefs.append(prev[1:] * np.arange(1, prev.size, dtype=float))

    def __repr__(self) -> str:
        return f"FiniteTable({np.round(self.probs, 12).tolist()})"

    def _pmf(self, k: int) -> float:
        return float(self.probs[k]) if k < self.probs.size else 0.0

    def _jet(self, s):
        # Horner's rule on each coefficient vector, term for term as
        # `np.polynomial.polynomial.polyval` evaluates it, without importing
        # numpy.polynomial (0.6 MB of modules).
        jet = []
        for c in self._dcoefs:
            value = c[-1] + s * 0 if c.size else np.zeros_like(s)
            for coef in c[-2::-1]:
                value = coef + value * s
            jet.append(value)
        return tuple(jet)

    def mean(self) -> float:
        return self._moments[0]

    def second_factorial(self) -> float:
        return self._moments[1]

    def third_factorial(self) -> float:
        return self._moments[2]

    def _branch_survival(self, u):
        k = np.arange(1, self.probs.size, dtype=float)
        # 1 - (1-u)^k, stable for u near 0; k >= 1 so u = 1 is fine too.
        with np.errstate(divide="ignore"):
            terms = -np.expm1(np.multiply.outer(np.log1p(-u), k))
        return terms @ self.probs[1:]

    def _draw(self, rng, size):
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        return np.minimum(idx, self.probs.size - 1)

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray,
                   size_biased: np.ndarray | None = None,
                   pair_biased: np.ndarray | None = None, bounds=None) -> np.ndarray:
        # One draw per row from the alias table of entry e = C*(2s + t) + c
        # (see `_alias_laws`).  Counts c >= C read entry C*(2s + t), the
        # spine births alone, and add their plain births by one multinomial
        # per stream.
        shape = np.shape(counts)
        c = np.asarray(counts, dtype=np.int64).reshape(-1)
        s = 0 if size_biased is None else np.asarray(size_biased)
        t = 0 if pair_biased is None else np.asarray(pair_biased)
        if np.max(s, initial=0) > 2 or np.max(t, initial=0) > 1:
            raise ValueError("a table draws at most two size-biased and one pair-biased parent")
        self._require_reweighted(size_biased, pair_biased)
        gens, bounds = _streams(rng, bounds, c.size)
        below, prob, alias = self._inversion_tables()
        width = prob.size // (6 * below)
        big = c >= below
        col = np.where(big, 0, c)
        if size_biased is not None or pair_biased is not None:
            col += np.broadcast_to(below * (2 * s + t), shape).reshape(-1)
        col *= width
        out = _alias_draw(_uniforms(gens, bounds), col, prob, alias, width)
        del col
        rows = np.flatnonzero(big)
        if rows.size:
            at = _split(bounds, rows)
            for g, lo, hi in zip(gens, at, at[1:]):
                if hi > lo:
                    sel = rows[lo:hi]
                    out[sel] += g.multinomial(c[sel], self.probs) @ np.arange(self.probs.size)
        return out.reshape(shape)

    def _alias_laws(self) -> tuple[int, np.ndarray]:
        """(C, laws): row e = C*(2s + t) + c of `laws`, for c < C, s <= 2 and
        t <= 1, is the law of c plain births plus s size-biased and t
        pair-biased ones less their spine children, q^{*c} * (sb - 1)^{*s} *
        (pb - 2)^{*t}, padded with zero-mass atoms to one width W, the power
        of two at or above the largest entry's atom count.  C is
        _INVERT_BELOW, or less for a table with so many atoms that the 6*C*W
        columns would pass _INVERT_ATOMS.  Combos whose reweighted law does
        not exist hold a point mass that `sum_sample` never reaches:
        `_require_reweighted` raises first."""
        point = np.ones(1)
        spine_laws = (self.size_biased().probs[1:] if self.mean() > 0.0 else point,
                      self.pair_biased().probs[2:] if self.second_factorial() > 0.0 else point)

        def padded(below):  # W: the widest entry has below - 1 plain parents and three spine ones
            atoms = ((below - 1) * (self.probs.size - 1) + 2 * (spine_laws[0].size - 1)
                     + spine_laws[1].size)
            return 1 << (atoms - 1).bit_length()

        below = _INVERT_BELOW
        while below > 1 and 6 * below * padded(below) > _INVERT_ATOMS:
            below -= 1
        laws = np.zeros((6 * below, padded(below)))
        rows = iter(laws)
        for s in range(3):
            for t in range(2):
                pmf = point
                for law in [spine_laws[0]] * s + [spine_laws[1]] * t:
                    pmf = np.convolve(pmf, law)
                for c in range(below):
                    if c:
                        pmf = np.convolve(pmf, self.probs)
                    next(rows)[:pmf.size] = pmf
        return below, laws

    def to_table(self, tail_tol: float = TABLE_TAIL_TOL) -> "FiniteTable":
        return self


class Geometric(OffspringDistribution):
    """Geometric law q(k) = p (1-p)^k on {0, 1, 2, ...}.

    pgf f(s) = p / (1 - (1-p) s); mean (1-p)/p.
    """

    def __init__(self, p: float):
        if not (0.0 < p <= 1.0):
            raise DistributionError("geometric parameter must satisfy 0 < p <= 1")
        self.p = float(p)
        self._key = (self.p,)

    def __repr__(self) -> str:
        return f"Geometric(p={self.p!r})"

    def _pmf(self, k: int) -> float:
        return self.p * (1.0 - self.p) ** k

    def _jet(self, s):
        p, q = self.p, 1.0 - self.p
        t = 1.0 - q * s
        return p / t, p * q / t**2, 2 * p * q**2 / t**3

    def mean(self) -> float:
        return (1.0 - self.p) / self.p

    def second_factorial(self) -> float:
        return 2.0 * (1.0 - self.p) ** 2 / self.p**2

    def third_factorial(self) -> float:
        return 6.0 * (1.0 - self.p) ** 3 / self.p**3

    def _branch_survival(self, u):
        q = 1.0 - self.p
        return q * u / (self.p + q * u)

    def _draw(self, rng, size):
        return rng.geometric(self.p, size) - 1

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray,
                   size_biased: np.ndarray | None = None,
                   pair_biased: np.ndarray | None = None, bounds=None) -> np.ndarray:
        # The shape r = c + 2s + 3t.  NegBin(r, p) is NegBin(r mod C, p), one
        # draw from the alias table of entry r mod C (see `_alias_laws`),
        # plus, where r >= C, NegBin(C floor(r/C), p), one draw from the
        # coarse table of entry floor(r/C) (see `_coarse_laws`), gathered
        # over those rows alone: early generations hold few of them.  A call
        # whose shapes are all below C takes the first draw alone.  Shapes
        # beyond the coarse table's reach C*A read its last entry and draw
        # anew with numpy, after every row's uniforms, by one call per stream
        # that holds any.  A stream whose shapes are mostly that large draws
        # every row with numpy instead: the alias passes over all its rows
        # and the masked gather and scatter of the large ones would be extra
        # passes around a numpy draw that covers most rows anyway.
        total = self._shape_sum(counts, (1, 2, 3), size_biased, pair_biased)
        shape = np.shape(total)
        r = np.asarray(total, dtype=np.int64).reshape(-1)
        gens, bounds = _streams(rng, bounds, r.size)
        below, prob, alias = self._inversion_tables()
        width = prob.size // below
        if r.max(initial=0) < below:
            return _alias_draw(_uniforms(gens, bounds), r * width, prob, alias, width).reshape(shape)
        reach, coarse_prob, coarse_alias = self._coarse_tables()
        coarse_width = coarse_prob.size // reach
        # Entry r mod C = r - C*floor(r/C) from the quotient, which the
        # coarse rows read first and whose array then takes the first
        # columns: np.remainder costs about four times a floor division.
        col = r // below
        rows = np.flatnonzero(col != 0)
        coarse = col[rows]
        big = rows[coarse >= reach]
        at = _split(bounds, big)
        whole = {i for i in range(len(gens))
                 if 2 * (at[i + 1] - at[i]) > bounds[i + 1] - bounds[i]
                 and r[bounds[i]:bounds[i + 1]].min() > 0}
        if len(whole) < len(gens):
            col *= -below
            col += r
            col *= width
            out = _alias_draw(_uniforms(gens, bounds, whole), col, prob, alias, width)
            del col
            np.minimum(coarse, reach - 1, out=coarse)
            coarse *= coarse_width
            out[rows] += _alias_draw(_uniforms(gens, _split(bounds, rows), whole), coarse,
                                     coarse_prob, coarse_alias, coarse_width)
        else:
            out = np.empty(r.size, dtype=np.int64)
        for i, g in enumerate(gens):
            if i in whole:
                sel = slice(bounds[i], bounds[i + 1])
            elif at[i] < at[i + 1]:
                sel = big[at[i]:at[i + 1]]
            else:
                continue  # nothing beyond the reach: no call, and no draw
            out[sel] = _negative_binomial(g, r[sel], self.p)
        return out.reshape(shape)

    def _alias_laws(self) -> tuple[int, np.ndarray]:
        """(C, laws): row r < C of `laws` is the NegBin(r, p) pmf on the W
        atoms {0, ..., W-1}; row 0 is the point mass at 0.

        W is the power of two above the cut of the widest entry, r = C - 1
        (see `_negbin_width`), and NegBin(r, p) grows with r, so no entry
        drops more than one alias unit of tail, the rounding `_alias_columns`
        applies to every atom anyway.  C is _INVERT_BELOW, or less for a p so
        small that the C*W columns would pass _INVERT_ATOMS.  Entry 0 always
        fits, so C >= 1."""
        def width(below):
            return _negbin_width(self.p, below - 1, _INVERT_ATOMS // below)

        below = _INVERT_BELOW
        while below > 1 and below * width(below) > _INVERT_ATOMS:
            below -= 1
        return below, _negbin_pmfs(self.p, np.arange(below), width(below))

    def _coarse_tables(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(A, prob, alias): the Walker alias columns of `_coarse_laws`."""
        return self._alias_tables("_coarse", self._coarse_laws)

    def _coarse_laws(self) -> tuple[int, np.ndarray]:
        """(A, laws): row a < A of `laws` is the NegBin(C*a, p) pmf on W'
        atoms, for C the entry count of `_alias_laws`; row 0 is the point
        mass at 0.

        W' is the power of two above the cut of the widest entry, a = A - 1,
        and A is the largest count whose A*W' columns fit in _COARSE_ATOMS
        (found by bisection: A*W' grows with A).  A = 1 always fits, and a p
        for which only it fits draws every shape of C or more with numpy.
        For p = 0.5: C = 32, A = 16, W' = 1024, so shapes below 512."""
        below = self._inversion_tables()[0]

        def width(reach):
            return _negbin_width(self.p, below * (reach - 1), _COARSE_ATOMS // reach)

        lo, hi = 1, _COARSE_ATOMS
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid * width(mid) <= _COARSE_ATOMS:
                lo = mid
            else:
                hi = mid - 1
        return lo, _negbin_pmfs(self.p, below * np.arange(lo), width(lo))

    def to_table(self, tail_tol: float = TABLE_TAIL_TOL) -> FiniteTable:
        if self.p == 1.0:
            return FiniteTable([1.0])
        # Tail beyond K is (1-p)^(K+1).
        kmax = int(math.ceil(math.log(tail_tol) / math.log1p(-self.p))) + 1
        k = np.arange(kmax + 1, dtype=float)
        probs = self.p * (1.0 - self.p) ** k
        return FiniteTable(probs / math.fsum(probs))


class Poisson(OffspringDistribution):
    """Poisson law with parameter lam; pgf f(s) = exp(lam (s-1))."""

    def __init__(self, lam: float):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise DistributionError("poisson parameter must be positive and finite")
        self.lam = float(lam)
        self._key = (self.lam,)

    def __repr__(self) -> str:
        return f"Poisson(lam={self.lam!r})"

    def _pmf(self, k: int) -> float:
        return math.exp(k * math.log(self.lam) - self.lam - math.lgamma(k + 1))

    def _jet(self, s):
        e = np.exp(self.lam * (s - 1.0))
        return e, self.lam * e, self.lam**2 * e

    def mean(self) -> float:
        return self.lam

    def second_factorial(self) -> float:
        return self.lam**2

    def third_factorial(self) -> float:
        return self.lam**3

    def _branch_survival(self, u):
        return -np.expm1(-self.lam * u)

    def _draw(self, rng, size):
        return rng.poisson(self.lam, size)

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray,
                   size_biased: np.ndarray | None = None,
                   pair_biased: np.ndarray | None = None, bounds=None) -> np.ndarray:
        shape = self._shape_sum(counts, (1, 1, 1), size_biased, pair_biased)
        return _per_stream(rng, bounds, self.lam * np.asarray(shape, dtype=float),
                           np.random.Generator.poisson)

    def to_table(self, tail_tol: float = TABLE_TAIL_TOL) -> FiniteTable:
        # Built outward from the mode m = floor(lam) by the ratios q(k+1)/q(k)
        # = lam/(k+1) and normalized at the end: q(0) = exp(-lam) underflows
        # to 0 for lam > 745.  From m on, r = lam/(k+1) < 1 and the tail beyond
        # k is at most q(k) r/(1-r), checked in log space.  (1 - running sum)
        # cannot serve: it stalls at rounding level, above the tighter
        # reweighting cuts.
        lam = self.lam
        m = k = math.floor(lam)
        while True:
            r = lam / (k + 1)
            log_q = k * math.log(lam) - lam - math.lgamma(k + 1)
            if log_q + math.log(r / (1.0 - r)) <= math.log(tail_tol):
                break
            k += 1
        up = np.cumprod(lam / np.arange(m + 1, k + 1))
        down = np.cumprod(np.arange(m, 0, -1) / lam)
        arr = np.concatenate([down[::-1], [1.0], up])
        return FiniteTable(arr / math.fsum(arr))


class Binomial(OffspringDistribution):
    """Binomial law with n trials and success probability p."""

    def __init__(self, n: int, p: float):
        if int(n) != n or n < 1:
            raise DistributionError("binomial trial count must be a positive integer")
        if not (0.0 < p <= 1.0):
            raise DistributionError("binomial parameter must satisfy 0 < p <= 1")
        self.n = int(n)
        self.p = float(p)
        self._key = (self.n, self.p)

    def __repr__(self) -> str:
        return f"Binomial(n={self.n}, p={self.p!r})"

    def _pmf(self, k: int) -> float:
        if k > self.n:
            return 0.0
        return math.comb(self.n, k) * self.p**k * (1.0 - self.p) ** (self.n - k)

    def _jet(self, s):
        n, p = self.n, self.p
        base = 1.0 - p + p * s
        fpp = np.zeros_like(s) if n == 1 else (n - 1) * n * p**2 * base ** (n - 2)
        return base**n, n * p * base ** (n - 1), fpp

    def mean(self) -> float:
        return self.n * self.p

    def second_factorial(self) -> float:
        return self.n * (self.n - 1) * self.p**2

    def third_factorial(self) -> float:
        return self.n * (self.n - 1) * (self.n - 2) * self.p**3

    def _branch_survival(self, u):
        return -np.expm1(self.n * np.log1p(-self.p * u))

    def _draw(self, rng, size):
        return rng.binomial(self.n, self.p, size)

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray,
                   size_biased: np.ndarray | None = None,
                   pair_biased: np.ndarray | None = None, bounds=None) -> np.ndarray:
        trials = self._shape_sum(np.asarray(counts, dtype=np.int64), (self.n, self.n - 1, self.n - 2),
                                 size_biased, pair_biased)
        return _per_stream(rng, bounds, np.asarray(trials),
                           lambda g, trials: g.binomial(trials, self.p))

    def to_table(self, tail_tol: float = TABLE_TAIL_TOL) -> FiniteTable:
        return FiniteTable([self.pmf(k) for k in range(self.n + 1)])
