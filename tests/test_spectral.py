import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evolat import spectral
from evolat.spectral import (
    UnfoldedSpacings,
    histogram_rows,
    ks_distance,
    poisson_cdf,
    poisson_density,
    unfold,
    wigner_cdf,
    wigner_surmise,
)
from oracles import kstest_statistic


def test_unfold_mean_is_one():
    rng = np.random.default_rng(1)
    s = unfold(rng.standard_normal(500))
    assert abs(s.values.mean() - 1.0) < 1e-12
    assert np.all(s.values >= 0.0)


def test_unfold_equal_spacing_is_flat():
    s = unfold(np.arange(100, dtype=float))
    assert np.abs(s.values - 1.0).max() < 1e-12


def test_unfold_sorts_input():
    rng = np.random.default_rng(2)
    e = rng.uniform(0.0, 1.0, size=300)
    a = unfold(e)
    b = unfold(np.sort(e))
    assert np.array_equal(a.values, b.values)


def test_unfold_default_window_is_sqrt():
    s = unfold(np.arange(100, dtype=float))
    assert s.delta == 10
    assert s.values.size == 100 - 2 * 10 - 1


def test_unfold_rejects_short_input():
    with pytest.raises(ValueError):
        unfold(np.arange(5, dtype=float), delta=3)


def test_unfold_rejects_degenerate_window():
    e = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError) as err:
        unfold(e, delta=2)
    assert "window" in str(err.value)


def test_unfolded_spacings_validation():
    with pytest.raises(ValueError):
        UnfoldedSpacings(np.array([0.5, 0.7]), delta=1)  # mean is not 1
    with pytest.raises(ValueError):
        UnfoldedSpacings(np.array([2.0, -0.0001, 1.0]), delta=1)


def test_densities_normalized():
    s = np.linspace(0.0, 30.0, 300001)
    for density in (wigner_surmise, poisson_density):
        total = np.trapezoid(density(s), s)
        assert abs(total - 1.0) < 1e-6


def test_wigner_surmise_mean_one():
    s = np.linspace(0.0, 30.0, 300001)
    assert abs(np.trapezoid(s * wigner_surmise(s), s) - 1.0) < 1e-6


def test_densities_reject_negative():
    with pytest.raises(ValueError):
        wigner_surmise(np.array([-0.1]))
    with pytest.raises(ValueError):
        poisson_density(np.array([-0.1]))


def test_cdfs_match_densities():
    s = np.linspace(0.0, 6.0, 601)
    for cdf, density in ((wigner_cdf, wigner_surmise), (poisson_cdf, poisson_density)):
        vals = cdf(s)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert float(cdf(np.array([30.0]))[0]) == pytest.approx(1.0, abs=1e-12)
        grad = np.gradient(vals, s)
        assert np.abs(grad[1:-1] - density(s)[1:-1]).max() < 1e-3


def _wigner_samples(rng, n):
    # inverse CDF of 1 - exp(-pi s^2 / 4)
    return 2.0 * np.sqrt(-np.log(rng.uniform(size=n))) / np.sqrt(np.pi)


def _as_spacings(vals):
    return UnfoldedSpacings(vals / vals.mean(), delta=1)


def test_ks_calibration_wigner():
    rng = np.random.default_rng(8)
    s = _as_spacings(_wigner_samples(rng, 20000))
    assert ks_distance(s, "wigner") < 0.02
    assert ks_distance(s, "poisson") > 0.15


def test_ks_calibration_poisson():
    rng = np.random.default_rng(9)
    s = _as_spacings(-np.log(rng.uniform(size=20000)))
    assert ks_distance(s, "poisson") < 0.02
    assert ks_distance(s, "wigner") > 0.15


def test_ks_matches_scipy_kstest_exactly():
    """The numpy statistic equals scipy's kstest bit for bit, for both named
    references, on 200 spectra of 2 to 2000 spacings."""
    rng = np.random.default_rng(1994)
    for i in range(200):
        n = int(rng.integers(2, 2001))
        if i % 3 == 0:
            vals = _wigner_samples(rng, n)
        elif i % 3 == 1:
            vals = -np.log(rng.uniform(size=n))
        else:
            vals = np.round(rng.uniform(0.0, 3.0, size=n), 1)  # with ties
        s = _as_spacings(vals)
        for name, cdf in (("wigner", wigner_cdf), ("poisson", poisson_cdf)):
            assert ks_distance(s, name) == kstest_statistic(s.values, cdf)


def test_ks_rejects_unknown_name():
    rng = np.random.default_rng(11)
    s = _as_spacings(_wigner_samples(rng, 100))
    with pytest.raises(ValueError):
        ks_distance(s, "gaussian")
    # a CDF is not a reference name, not even the Wigner CDF itself
    with pytest.raises(ValueError, match="use 'wigner' or 'poisson'"):
        ks_distance(s, wigner_cdf)


def test_importing_spectral_loads_no_other_layer():
    """The package re-exports nothing, so importing one module in a fresh
    interpreter loads that module and the package alone."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = ("import sys, evolat.spectral; "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'evolat'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["evolat", "evolat.spectral"]


def test_histogram_rows_structure():
    rng = np.random.default_rng(12)
    s = _as_spacings(_wigner_samples(rng, 3000))
    rows = histogram_rows(s)
    assert len(rows) == 50
    parsed = [r.split(",") for r in rows]
    centers = np.array([float(p[0]) for p in parsed])
    counts = np.array([int(p[1]) for p in parsed])
    assert centers[0] == pytest.approx(0.04)
    assert centers[-1] == pytest.approx(3.96)
    assert counts.sum() == np.count_nonzero(s.values <= 4.0)
    for p in parsed:
        center = float(p[0])
        assert float(p[2]) == pytest.approx(float(wigner_surmise(center)))
        assert float(p[3]) == pytest.approx(float(poisson_density(center)))
