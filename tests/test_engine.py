from functools import lru_cache

import numpy as np
import pytest

from evolat import linalg, resonant
from evolat.engine import (
    SU_NU_FACTOR,
    ComplexityMetric,
    ComplexityPipeline,
    ComplexityTrace,
    NonlocalityMatrix,
    SolverChain,
    bi_invariant_complexity,
    bi_invariant_trace,
    complexity_ceiling,
    local_conservation_laws,
    nonlocality_matrix,
    plateau_stats,
    plateau_window,
)
from evolat.linalg import HermitianMatrix, Spectrum, eigendecompose, normalize_energies
from oracles import bound_at


class ArrayClassifier:
    """Test stand-in: rows are diagonal vectors of the local generators,
    yielded as a single block."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)

    def local_diagonals(self, spectrum):
        yield self.rows


def projector_q(energies):
    """Q that keeps only the identity and the energy direction local."""
    d = energies.size
    ones = np.ones(d) / np.sqrt(d)
    ev = energies - (energies @ ones) * ones
    ev = ev / np.linalg.norm(ev)
    q = np.eye(d) - np.outer(ones, ones) - np.outer(ev, ev)
    return NonlocalityMatrix(entries=q, eigenvalues=np.linalg.eigvalsh(q))


def random_normalized(rng, d):
    e = np.sort(rng.standard_normal(d))
    return normalize_energies(e)


def test_nonlocality_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        NonlocalityMatrix(
            entries=np.array([[0.0, 1.0], [0.0, 0.0]]),
            eigenvalues=np.array([0.0, 0.0]),
        )


def test_nonlocality_matrix_from_single_direction():
    # one local generator aligned with the energies: Q becomes the projector
    # onto the orthogonal complement
    e = np.array([-0.6, -0.2, 0.3, 0.5])
    q = nonlocality_matrix(
        Spectrum(np.sort(e), np.eye(4)), ArrayClassifier([e / np.linalg.norm(e)])
    )
    assert q.null_residual(e) < 1e-12
    w = np.sort(q.eigenvalues)
    assert np.allclose(w, [0.0, 1.0, 1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_nonlocality_matrix_laws_random_classifiers(seed):
    """Symmetry, spectral range, and the null direction along the energies.

    The construction assumes an orthonormal generator set, so the random
    diagonal vectors are orthonormalized with the energy direction included.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 40))
    e = random_normalized(rng, d)
    n_local = int(rng.integers(1, d))
    raw = np.vstack([e, rng.standard_normal((n_local, d))])
    rows = np.linalg.qr(raw.T)[0].T[: n_local + 1]
    q = nonlocality_matrix(Spectrum(e, np.eye(d)), ArrayClassifier(rows))
    assert np.abs(q.entries - q.entries.T).max() < 1e-12
    assert q.eigenvalues.min() > -1e-9
    assert q.eigenvalues.max() < 1.0 + 1e-9
    assert q.null_residual(e) <= 1e-8


def test_metric_requires_q_above_one():
    with pytest.raises(ValueError):
        ComplexityMetric(mu=2.0, nu=0.0, q=None)


def test_metric_rejects_mu_below_one():
    with pytest.raises(ValueError):
        ComplexityMetric(mu=0.5, nu=0.0, q=None)


def test_metric_matrix_formula():
    e = np.array([-0.5, -0.1, 0.2, 0.4])
    q = projector_q(e)
    mu, nu = 7.0, 3.0
    m = ComplexityMetric(mu=mu, nu=nu, q=q).matrix(4)
    expect = np.eye(4) + (mu - 1.0) * q.entries + nu * np.ones((4, 4))
    assert np.abs(m - expect).max() < 1e-12


@pytest.mark.parametrize("nu", [0.0, 4.0])
def test_metric_matrix_is_the_sum_it_stands_for(nu):
    """G built in one buffer has the entries of I + (mu-1)Q + nu 11^T."""
    block = resonant.enumerate_block(12, 12)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    q = nonlocality_matrix(spec, resonant.ResonantClassifier(block, 4))
    mu, d = float(spec.dim), spec.dim
    g = ComplexityMetric(mu=mu, nu=nu, q=q).matrix(d)
    expect = np.eye(d) + (mu - 1.0) * q.entries + nu * np.ones((d, d))
    assert np.all(g == expect)
    assert g.flags.writeable and g.flags.c_contiguous


def test_embedding_map_squares_to_metric():
    rng = np.random.default_rng(5)
    e = random_normalized(rng, 12)
    metric = ComplexityMetric(mu=12.0, nu=4.0, q=projector_q(e))
    lat = ComplexityPipeline(e, metric, chain="babai").lattice
    assert np.abs(lat.r.T @ lat.r - metric.matrix(12)).max() < 1e-9
    assert np.abs(lat.target - lat.r @ e).max() < 1e-12


def test_pipeline_rejects_indefinite_metric():
    q = NonlocalityMatrix(-2.0 * np.eye(3), [-2.0, -2.0, -2.0])
    with pytest.raises(ArithmeticError, match="positive definite"):
        ComplexityPipeline(np.array([-0.5, 0.1, 0.4]), ComplexityMetric(mu=2.0, q=q))


@pytest.mark.parametrize("chain", ["babai+greedy", "lll+babai+greedy"])
def test_pipeline_given_g_is_the_pipeline_given_the_metric(chain):
    """The metric matrix alone builds the same lattice and trace bit for bit;
    the pipeline keeps that G itself."""
    rng = np.random.default_rng(7)
    e = random_normalized(rng, 40)
    metric = ComplexityMetric(mu=40.0, nu=3.0, q=projector_q(e))
    g = metric.matrix(40)
    from_metric, from_g = ComplexityPipeline(e, metric, chain), ComplexityPipeline(e, g, chain)
    assert from_g.metric_matrix is g
    assert np.array_equal(from_g.lattice.r, from_metric.lattice.r)
    ts = np.sort(rng.uniform(100.0, 3000.0, size=6))
    a, b = from_metric.sweep(ts), from_g.sweep(ts)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.minimizers, b.minimizers)
    with pytest.raises(ValueError, match="shape"):
        ComplexityPipeline(e, g[:-1, :-1], chain)


def test_pipeline_lattice_is_the_cholesky_factor(monkeypatch):
    """Without LLL the lattice holds the Cholesky factor itself, not a copy
    of it, read-only."""
    factors = []
    cholesky = np.linalg.cholesky

    def keep(g):
        factors.append(cholesky(g))
        return factors[-1]

    monkeypatch.setattr(np.linalg, "cholesky", keep)
    e = random_normalized(np.random.default_rng(9), 30)
    pipe = ComplexityPipeline(e, ComplexityMetric(mu=30.0, q=projector_q(e)), "babai+greedy")
    assert len(factors) == 1
    assert np.shares_memory(pipe.lattice.r, factors[0])
    assert np.array_equal(pipe.lattice.r, factors[0].T) and not pipe.lattice.r.flags.writeable


def test_nonlocality_matrix_stores_read_only_eigenvalues():
    q = NonlocalityMatrix(np.eye(2), [0.0, 1.0])
    assert isinstance(q.eigenvalues, np.ndarray) and q.eigenvalues.dtype == np.float64
    assert not q.eigenvalues.flags.writeable
    with pytest.raises(ValueError, match="eigenvalues"):
        NonlocalityMatrix(np.eye(2), [0.0, 1.0, 1.0])


def test_bi_invariant_matches_direct_wrap():
    rng = np.random.default_rng(2)
    e = random_normalized(rng, 30)
    for t in (3.0, 47.0, 911.0):
        phases = e * t
        wrapped = phases - 2.0 * np.pi * np.round(phases / (2.0 * np.pi))
        assert bi_invariant_complexity(e, t) == pytest.approx(
            np.sqrt((wrapped ** 2).sum()), abs=1e-12
        )


def test_bi_invariant_two_level_value():
    e = normalize_energies(np.array([0.0, 1.0]))
    assert bi_invariant_complexity(e, 10.0) == pytest.approx(1.114234123683267, abs=1e-12)


def test_bi_invariant_vectorized_times():
    e = normalize_energies(np.arange(5.0))
    ts = np.array([1.0, 10.0, 100.0])
    vals = bi_invariant_complexity(e, ts)
    assert vals.shape == (3,)
    for i, t in enumerate(ts):
        assert vals[i] == pytest.approx(float(bi_invariant_complexity(e, float(t))))


def test_bi_invariant_early_linear():
    e = normalize_energies(np.linspace(-1.0, 1.0, 20))
    tmax = 0.9 * np.pi / np.abs(e).max()
    for t in np.linspace(0.01, tmax, 9):
        assert bi_invariant_complexity(e, float(t)) == pytest.approx(t, abs=1e-12)


def test_solver_chain_parse_and_label():
    c = SolverChain.parse("lll+babai+greedy")
    assert (c.base, c.use_lll, c.use_greedy) == ("babai", True, True)
    assert c.label() == "lll+babai+greedy"
    assert SolverChain.parse("naive").label() == "naive"
    assert SolverChain.parse("babai").use_lll is False


@pytest.mark.parametrize("bad", ["lll+naive", "greedy", "lll", "", "babai+babai"])
def test_solver_chain_rejects_malformed(bad):
    with pytest.raises(ValueError):
        SolverChain.parse(bad)


def test_solver_chain_normalizes_token_order():
    assert SolverChain.parse("babai+lll").label() == "lll+babai"


def test_pipeline_mu_one_reduces_to_bi_invariant():
    rng = np.random.default_rng(17)
    e = random_normalized(rng, 50)
    pipe = ComplexityPipeline(e, ComplexityMetric(mu=1.0, nu=0.0, q=None))
    trace = pipe.sweep(np.sort(rng.uniform(5.0, 2000.0, size=12)))
    for t, v, k in zip(trace.times, trace.values, trace.minimizers):
        assert v == pytest.approx(float(bi_invariant_complexity(e, float(t))), abs=1e-9)
        # the minimizer is the per-mode winding count
        assert np.array_equal(k, np.round(e * t / (2.0 * np.pi)).astype(np.int64))


def test_pipeline_value_matches_quadratic_form():
    rng = np.random.default_rng(23)
    e = random_normalized(rng, 24)
    metric = ComplexityMetric(mu=24.0, nu=0.0, q=projector_q(e))
    pipe = ComplexityPipeline(e, metric)
    g = metric.matrix(24)
    trace = pipe.sweep([10.0, 300.0, 4000.0])
    for t, v, k in zip(trace.times, trace.values, trace.minimizers):
        r = e * t - 2.0 * np.pi * k
        assert v == pytest.approx(float(np.sqrt(r @ g @ r)), rel=1e-10)


def test_pipeline_naive_chain_rounds_windings():
    rng = np.random.default_rng(31)
    e = random_normalized(rng, 16)
    metric = ComplexityMetric(mu=16.0, nu=0.0, q=projector_q(e))
    pipe = ComplexityPipeline(e, metric, chain="naive")
    t = 500.0
    k = pipe.sweep([t]).minimizers[0]
    assert np.array_equal(k, np.round(e * t / (2.0 * np.pi)).astype(np.int64))


def test_pipeline_su_restriction_traceless_minimizer():
    rng = np.random.default_rng(41)
    e = random_normalized(rng, 20)
    pipe = ComplexityPipeline(e, ComplexityMetric(20.0, SU_NU_FACTOR * 20.0, projector_q(e)))
    for k in pipe.sweep(np.sort(rng.uniform(10.0, 5000.0, size=8))).minimizers:
        assert int(k.sum()) == 0


def test_pipeline_greedy_never_hurts():
    rng = np.random.default_rng(43)
    e = random_normalized(rng, 30)
    metric = ComplexityMetric(mu=30.0, nu=0.0, q=projector_q(e))
    with_g = ComplexityPipeline(e, metric, chain="lll+babai+greedy")
    without = ComplexityPipeline(e, metric, chain="lll+babai")
    ts = np.sort(rng.uniform(100.0, 3000.0, size=10))
    assert np.all(with_g.sweep(ts).values <= without.sweep(ts).values + 1e-9)


CHAINS = ["naive", "babai", "babai+greedy", "lll+babai", "lll+babai+greedy"]


@lru_cache(maxsize=None)
def resonant_metric(n: int):
    """The truncated (n, n) block at threshold 4 and mu = D."""
    block = resonant.enumerate_block(n, n)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    q = nonlocality_matrix(spec, resonant.ResonantClassifier(block, 4))
    return spec.energies, ComplexityMetric(mu=float(spec.dim), q=q)


def assert_sweep_matches_reference(pipe, times):
    """Every time of a sweep holds the value, to the byte, and the minimizer
    that solving that time alone with the serial solvers gives."""
    trace = pipe.sweep(times)
    assert trace.minimizers.shape == (len(times), pipe.dim)
    for t, v, k in zip(trace.times, trace.values, trace.minimizers):
        ref_v, ref_k = bound_at(pipe, t)
        assert np.array_equal(k, ref_k)
        assert v.tobytes() == np.float64(ref_v).tobytes()


@pytest.mark.parametrize("chain", CHAINS)
@pytest.mark.parametrize("n", [12, 14])
def test_sweep_matches_per_time_reference_on_resonant_blocks(n, chain):
    e, metric = resonant_metric(n)
    pipe = ComplexityPipeline(e, metric, chain)
    assert_sweep_matches_reference(pipe, np.linspace(20000.0, 24000.0, 41))


@pytest.mark.parametrize("chain", CHAINS)
def test_sweep_matches_per_time_reference_su_and_unit_cost(chain):
    rng = np.random.default_rng(59)
    e = random_normalized(rng, 20)
    times = np.sort(rng.uniform(10.0, 5000.0, size=15))
    su = ComplexityMetric(20.0, SU_NU_FACTOR * 20.0, projector_q(e))
    for metric in (su, ComplexityMetric()):
        assert_sweep_matches_reference(ComplexityPipeline(e, metric, chain), times)


def test_sweep_rejects_unsorted_times():
    e = normalize_energies(np.arange(4.0))
    pipe = ComplexityPipeline(e, ComplexityMetric(mu=1.0, nu=0.0, q=None))
    with pytest.raises(ValueError):
        pipe.sweep(np.array([2.0, 1.0, 3.0]))


def test_complexity_single_time_sweep():
    e = normalize_energies(np.arange(6.0))
    v = ComplexityPipeline(e, ComplexityMetric(mu=1.0, nu=0.0, q=None)).sweep([50.0]).values[0]
    assert v == pytest.approx(float(bi_invariant_complexity(e, 50.0)), abs=1e-9)


def test_ceiling_formula():
    assert complexity_ceiling(1.0, 9) == pytest.approx(np.pi * 3.0)
    assert complexity_ceiling(64.0, 100) == pytest.approx(np.pi * 80.0)


def test_trace_validation():
    with pytest.raises(ValueError):
        ComplexityTrace(np.array([1.0, 1.0]), np.array([0.1, 0.2]), "naive", np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ComplexityTrace(np.array([1.0, 2.0]), np.array([-0.1, 0.2]), "naive", np.zeros((2, 1)))


def test_plateau_stats_windowing():
    ts = np.linspace(0.0, 100.0, 101)
    vals = np.full(101, 4.0)
    tr = ComplexityTrace(ts, vals, "biinvariant", np.zeros((101, 1), dtype=np.int64))
    ps = plateau_stats(tr, (50.0, 100.0))
    assert ps.mean == pytest.approx(4.0)
    assert ps.variance == pytest.approx(0.0)
    assert ps.count == 51
    strided = plateau_stats(tr, (50.0, 100.0, 5.0))
    assert strided.count == 11


def test_plateau_window_indices_select_the_stats_samples():
    ts = np.linspace(0.0, 100.0, 101)
    assert np.array_equal(plateau_window(ts, (50.0, 100.0)), np.arange(50, 101))
    assert np.array_equal(plateau_window(ts, (50.0, 100.0, 5.0)), np.arange(50, 101, 5))
    vals = np.sin(ts)
    tr = ComplexityTrace(ts, np.abs(vals), "biinvariant", np.zeros((101, 1), dtype=np.int64))
    picked = np.abs(vals)[plateau_window(ts, (20.0, 90.0, 3.0))]
    stats = plateau_stats(tr, (20.0, 90.0, 3.0))
    assert (stats.mean, stats.variance, stats.count) == (
        float(picked.mean()), float(picked.var(ddof=1)), picked.size)
    with pytest.raises(ValueError, match="3 samples"):
        plateau_window(ts, (10.0, 12.0))


def test_plateau_stats_window_errors():
    tr = bi_invariant_trace(normalize_energies(np.arange(5.0)), np.linspace(1.0, 30.0, 30))
    with pytest.raises(ValueError):
        plateau_stats(tr, (25.0, 40.0))
    with pytest.raises(ValueError):
        plateau_stats(tr, (1.0, 2.0))  # too few samples


def test_bi_invariant_trace_matches_scalar():
    e = normalize_energies(np.arange(7.0))
    ts = np.linspace(10.0, 50.0, 11)
    tr = bi_invariant_trace(e, ts)
    assert tr.method == "biinvariant"
    for t, v in zip(tr.times, tr.values):
        assert v == pytest.approx(float(bi_invariant_complexity(e, float(t))))


def test_local_conservation_laws_commute():
    # identity plus energy direction as the local set: two null directions
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    h = HermitianMatrix((a + a.T) / 2.0)
    spec = eigendecompose(h)
    e = spec.energies
    raw = np.vstack([np.ones(8) / np.sqrt(8.0), e])
    rows = np.linalg.qr(raw.T)[0].T
    q = nonlocality_matrix(spec, ArrayClassifier(rows))
    laws = local_conservation_laws(q, spec)
    assert laws.vectors.shape[1] == 2
    hm = h.entries
    for op in laws.operators:
        assert np.abs(hm @ op - op @ hm).max() < 1e-8
