"""Persistence scores, binary Shannon entropy, no-intercept exponential
fitting with R-squared, and the two-tailed Fisher exact test.

Only the statistics the simulation reports are implemented; this is not
a general statistics library.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import index
from typing import NamedTuple

from .formula import _Checked, coherence

# Relative tolerance when comparing table probabilities for tail
# membership; guards against floating-point equality failures on ties.
FISHER_TIE_RTOL = 1e-9


class _FitResult(NamedTuple):
    rate: float
    r_squared: float


class FitResult(_Checked, _FitResult):
    __slots__ = ()

    def __new__(cls, rate: float, r_squared: float) -> FitResult:
        if r_squared > 1.0:
            raise ValueError(f"r_squared cannot exceed 1, got {r_squared!r}")
        return tuple.__new__(cls, (rate, r_squared))


class _ContingencyTable(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class ContingencyTable(_Checked, _ContingencyTable):
    """2x2 table [[a, b], [c, d]] of nonnegative counts."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> ContingencyTable:
        cells = (a, b, c, d)
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in cells):
            raise ValueError(f"cells must be nonnegative integers, got {cells}")
        if sum(cells) == 0:
            raise ValueError("at least one cell must be positive")
        return tuple.__new__(cls, cells)


def persistence_score(gamma) -> float:
    """Fraction of coherent formulas in the multiset; 1.0 when empty.  A
    Counter holds each formula n times for a positive count n, as in ``elements()``."""
    counts = [(phi, n) for phi, n in gamma.items() if index(n) > 0] if isinstance(gamma, Counter) else [(phi, 1) for phi in gamma]
    if not counts:
        return 1.0
    return sum(coherence(phi) * n for phi, n in counts) / sum(n for _, n in counts)


def shannon_entropy(bits) -> float:
    """Binary Shannon entropy (in bits) of a 0/1 valuation vector."""
    values = list(bits)
    if not values:
        raise ValueError("entropy of an empty valuation vector is undefined")
    if any(b not in (0, 1) for b in values):
        raise ValueError("valuation vector must contain only 0 and 1")
    p = sum(values) / len(values)
    entropy = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            entropy -= q * math.log2(q)
    return entropy


def fit_exponential(points) -> FitResult:
    """Least-squares fit of ln(pi) = -rate * kappa with no intercept.

    R-squared is computed in log space about the mean of ln(pi).
    Raises for fewer than two points, a non-finite kappa or pi,
    nonpositive pi, all-zero kappa, or a sum of kappa squared that
    overflows.
    """
    data = [(float(k), float(p)) for k, p in points]
    if len(data) < 2:
        raise ValueError(f"need at least 2 points, got {len(data)}")
    if not all(math.isfinite(k) and math.isfinite(p) for k, p in data):
        raise ValueError("all kappa and pi values must be finite")
    if any(p <= 0 for _, p in data):
        raise ValueError("all pi values must be positive")
    denom = sum(k * k for k, _ in data)
    if denom == 0:
        raise ValueError("degenerate fit: all kappa values are zero")
    if not math.isfinite(denom):
        raise ValueError("kappa values too large: their sum of squares overflows")
    logs = [(k, math.log(p)) for k, p in data]
    rate = -sum(k * lp for k, lp in logs) / denom + 0.0  # a flat pi's -0.0 becomes 0.0
    mean_lp = sum(lp for _, lp in logs) / len(logs)
    ss_res = sum((lp - (-rate * k)) ** 2 for k, lp in logs)
    ss_tot = sum((lp - mean_lp) ** 2 for _, lp in logs)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else -math.inf
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(rate, min(r_squared, 1.0))


def _ln_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_two_tailed(table: ContingencyTable) -> float:
    """Exact two-tailed p-value on a 2x2 table with fixed margins.

    Sums hypergeometric probabilities of every table (same margins)
    whose point probability does not exceed the observed one, with a
    small relative tolerance on the comparison.  Log-space factorials
    keep large tables stable.
    """
    row1 = table.a + table.b
    col1 = table.a + table.c
    total = table.a + table.b + table.c + table.d
    lo = max(0, row1 - (total - col1))
    hi = min(row1, col1)

    ln_margin = _ln_comb(total, row1)

    def log_prob(x: int) -> float:
        return _ln_comb(col1, x) + _ln_comb(total - col1, row1 - x) - ln_margin

    observed = math.exp(log_prob(table.a))
    cutoff = observed * (1.0 + FISHER_TIE_RTOL)
    p_value = 0.0
    for x in range(lo, hi + 1):
        prob = math.exp(log_prob(x))
        if prob <= cutoff:
            p_value += prob
    return min(p_value, 1.0)
