"""Level-spacing statistics: local unfolding, reference densities, KS tests.

Unfolding divides each gap by a local average over a window of half-width
delta, removing the secular density variation; the result is normalized to
unit mean so it can be held against the Wigner surmise (level repulsion) or
the Poisson law (uncorrelated levels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEAN_TOL = 1e-12


@dataclass(frozen=True)
class UnfoldedSpacings:
    """Non-negative normalized spacings with mean exactly one."""

    values: np.ndarray
    delta: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need a vector of at least two spacings")
        if np.any(v < 0):
            raise ValueError("spacings cannot be negative")
        if abs(v.mean() - 1.0) > MEAN_TOL:
            raise ValueError(f"spacings mean {v.mean()!r} is not 1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def unfold(energies: np.ndarray, delta: int | None = None) -> UnfoldedSpacings:
    """Locally unfolded nearest-neighbor spacings.

    For sorted levels E_1..E_L and window half-width delta (default
    round(sqrt(L))), the raw spacing at interior index I is
    (E_{I+1} - E_I) / (E_{I+delta} - E_{I-delta}); the batch is then scaled
    to unit mean.  Equally spaced input gives all ones.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    n = e.size
    if delta is None:
        delta = int(round(np.sqrt(n)))
    if delta < 1:
        raise ValueError("window half-width must be at least 1")
    if n < 2 * delta + 2:
        raise ValueError(
            f"{n} levels cannot support a window of half-width {delta}; "
            f"need at least {2 * delta + 2}"
        )
    idx = np.arange(delta, n - delta - 1)
    wide = e[idx + delta] - e[idx - delta]
    bad = np.nonzero(wide <= 0.0)[0]
    if bad.size:
        i = int(idx[bad[0]])
        raise ValueError(
            f"degenerate window around level {i}: E[{i + delta}] == E[{i - delta}]"
        )
    raw = (e[idx + 1] - e[idx]) / wide
    return UnfoldedSpacings(raw / raw.mean(), delta)


def wigner_surmise(s) -> np.ndarray:
    """(pi s / 2) exp(-pi s^2 / 4), the repulsive reference density."""
    v = np.asarray(s, dtype=float)
    if np.any(v < 0):
        raise ValueError("spacing values must be non-negative")
    return np.pi * v / 2.0 * np.exp(-np.pi * v * v / 4.0)


def poisson_density(s) -> np.ndarray:
    """exp(-s), the uncorrelated reference density."""
    v = np.asarray(s, dtype=float)
    if np.any(v < 0):
        raise ValueError("spacing values must be non-negative")
    return np.exp(-v)


def wigner_cdf(s) -> np.ndarray:
    v = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-np.pi * v * v / 4.0)


def poisson_cdf(s) -> np.ndarray:
    v = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-v)


_REFERENCES = {"wigner": wigner_cdf, "poisson": poisson_cdf}


def ks_distance(spacings: UnfoldedSpacings, reference) -> float:
    """Sup-norm distance between the empirical CDF and a reference CDF F,
    the two-sided Kolmogorov-Smirnov statistic: over the sorted spacings
    x_1..x_n, the largest of i/n - F(x_i) and F(x_i) - (i-1)/n.

    reference is "wigner" or "poisson".
    """
    cdf = _REFERENCES.get(reference)
    if cdf is None:
        raise ValueError(f"unknown reference {reference!r}; use 'wigner' or 'poisson'")
    x = np.sort(spacings.values)
    f = np.asarray(cdf(x), dtype=float)
    n = x.size
    above = (np.arange(1.0, n + 1) / n - f).max()
    below = (f - np.arange(0.0, n) / n).max()
    return float(max(above, below))


def histogram_rows(
    spacings: UnfoldedSpacings, bins: int = 50, s_max: float = 4.0
) -> list:
    """CSV rows "s,count,wigner_ref,poisson_ref" on an equal-width binning.

    count is the raw number of spacings per bin; the reference columns hold
    densities at the bin center, so count / (total * width) is the quantity
    to hold against them.
    """
    edges = np.linspace(0.0, s_max, bins + 1)
    counts, _ = np.histogram(spacings.values, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = []
    for c, n in zip(centers, counts):
        rows.append(
            f"{float(c)!r},{int(n)},{float(wigner_surmise(c))!r},{float(poisson_density(c))!r}"
        )
    return rows
