"""Exact laws of the whole chain: H, eigendecomposition, Q, the metric's
Cholesky lattice, LLL, Babai, greedy and the audit, checked together.

- Time reversal: C(-t) = C(t) bit for bit, with the minimizer negated,
  since negating the target negates every rounding and every greedy move.
- Recurrence: the gg block's spectrum is integer, so after normalization
  every phase t E_n returns to a multiple of 2 pi at one period T.  Then
  C(T) vanishes up to roundoff and C(t + T) = C(t), at phases near 1e5.
"""

import math
from functools import lru_cache, partial

import numpy as np
import pytest

from evolat import engine, lattice, linalg, resonant, syk

TIMES = np.linspace(20000.0, 24000.0, 41)
THRESHOLD = 4


@lru_cache(maxsize=None)
def resonant_model(kind: str, n: int, seed=None):
    """Raw spectrum and the metric matrix at threshold 4, mu = D."""
    block = resonant.enumerate_block(n, n)
    spec = linalg.eigendecompose(
        resonant.build_block_hamiltonian(block, resonant.CouplingScheme(kind, seed=seed)))
    return spec, metric(spec, resonant.ResonantClassifier(block, THRESHOLD))


@lru_cache(maxsize=None)
def chaotic4_model(n: int, seed: int):
    rng = np.random.default_rng(seed)
    rep = syk.build_clifford(n)
    h = syk.chaotic_syk(rep, syk.sample_quadratic_couplings(n, rng),
                        syk.sample_many_body_couplings(n, 4, rng), 1.0, body=4)
    spec = linalg.eigendecompose(h)
    return spec, metric(spec, syk.MonomialClassifier(rep, THRESHOLD))


def metric(spec: linalg.Spectrum, classifier) -> tuple:
    """(normalized energies, I + (D - 1) Q)."""
    norm = linalg.normalize_spectrum(spec)
    q = engine.nonlocality_matrix(norm, classifier)
    return norm.energies, engine.ComplexityMetric(mu=float(spec.dim), q=q).matrix(spec.dim)


MODELS = {
    "truncated-12": lambda: resonant_model("truncated", 12),
    "random-12-seed1": lambda: resonant_model("random", 12, 1),
    "chaotic4-n10-seed3": lambda: chaotic4_model(10, 3),
}


@pytest.mark.parametrize("chain", lattice.LADDER + ("biinvariant",))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_time_reversal_is_exact(model, chain):
    energies, g = MODELS[model]()[1]
    if chain == "biinvariant":
        sweep = partial(engine.bi_invariant_trace, energies)
    else:
        sweep = engine.ComplexityPipeline(energies, g, chain).sweep
    forward, backward = sweep(TIMES), sweep(-TIMES[::-1])
    assert np.array_equal(backward.values[::-1], forward.values)
    assert np.array_equal(backward.minimizers[::-1], -forward.minimizers)
    assert forward.values.min() > 0.0


def gg_period(spec: linalg.Spectrum) -> float:
    """T = 2 pi s D / g for the integer spectrum E: s is the norm of
    E - mean(E) and g the gcd of D and the integers D E - sum(E), so that
    T (E - mean) / s is 2 pi times an integer vector."""
    e = np.round(spec.energies).astype(np.int64)
    assert np.abs(spec.energies - e).max() < 1e-8
    d = e.size
    g = math.gcd(d, *map(int, d * e - e.sum()))
    return 2.0 * np.pi * float(np.linalg.norm(e - e.mean())) * d / g


@pytest.mark.parametrize("chain", ["babai+greedy", "lll+babai+greedy"])
@pytest.mark.parametrize("n, period", [(10, 17871.1), (12, 116712.2)])
def test_gg_block_recurs_after_its_period(n, period, chain):
    spec, (energies, g) = resonant_model("gg", n)
    t_rec = gg_period(spec)
    assert t_rec == pytest.approx(period, abs=0.05)
    pipe = engine.ComplexityPipeline(energies, g, chain)
    assert pipe.sweep([t_rec]).values[0] <= 1e-8
    base = pipe.sweep(TIMES).values
    assert np.all(np.abs(pipe.sweep(TIMES + t_rec).values - base) <= 1e-10 * base)
