"""Rank correlation, paired t-testing, and descriptive statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, TooFewSamples


@dataclass(frozen=True)
class PairedSample:
    """Two aligned observation lists of common length n >= 2."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be 1D sequences of equal length")
        if x.size < 2:
            raise TooFewSamples(f"need at least 2 pairs, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("paired samples must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: int
    degenerate: bool = False


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean of the ranks they span.

    The ranks are exact half-integers: a tie group spanning sorted
    positions start..end gets 0.5 * (start + end) + 1. Every member of a
    group gets that rank whatever its place in the group, so the sort need
    not be stable; numpy's default sort is 2-4x faster than its stable one
    on fresh data. NaN has no rank: each NaN is a group of its own.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)
    ordered = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    ends = np.concatenate((starts[1:], [values.size])) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman_rho(s: PairedSample) -> float:
    """Spearman correlation via rank-then-Pearson (exact under ties).

    Returns NaN when either side is constant.
    """
    rx = average_ranks(s.x)
    ry = average_ranks(s.y)
    # rank sums are n(n+1)/2 regardless of ties, so the mean is exact
    mean = (s.n + 1) / 2.0
    dx = rx - mean
    dy = ry - mean
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    rho = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, rho))


def t_sf(t: float, df: int) -> float:
    """Upper tail P(T > t) of Student's t with df degrees of freedom."""
    # imported here: no command runs a t-test, so none should pay for
    # loading scipy.special
    from scipy.special import stdtr

    return float(stdtr(df, -t))


def paired_t_test(s: PairedSample) -> TestResult:
    """Two-sided paired t-test on x - y.

    All-zero differences give t=0, p=1; zero-variance nonzero differences
    give an infinite statistic with p=0, flagged degenerate.
    """
    d = s.x - s.y
    n = s.n
    df = n - 1
    mean = float(np.mean(d))
    sd = float(np.sqrt(np.sum((d - mean) ** 2) / df))
    if sd == 0.0:
        if mean == 0.0:
            return TestResult(statistic=0.0, p_value=1.0, df=df)
        t = math.inf if mean > 0 else -math.inf
        return TestResult(statistic=t, p_value=0.0, df=df, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * t_sf(abs(t), df)
    return TestResult(statistic=t, p_value=min(1.0, p), df=df)


def mean_std(values) -> tuple[float, float]:
    """Sample mean and sample (n-1) standard deviation; std is NaN for n=1."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("mean_std over no values")
    mean = float(np.mean(arr))
    if arr.size == 1:
        return mean, math.nan
    return mean, float(np.sqrt(np.sum((arr - mean) ** 2) / (arr.size - 1)))
