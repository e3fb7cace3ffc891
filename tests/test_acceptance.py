"""Acceptance suite: seventeen numbered end-to-end checks of shipped behavior.

Each test appends one PASS/FAIL line to RESULTS; the terminal-summary hook
in conftest echoes those lines after the normal pytest output.  Seeds,
windows, and block sizes are frozen so every run sees the same numbers.
The tolerances are contractual: do not loosen them to make a run green.

Heavy sweeps are cached at module level and shared between criteria (the
ceiling check walks the same traces the separation and correlation checks
consume), which keeps the whole suite under about a minute.
"""

import functools
import itertools
import json
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import numpy as np

from evolat import engine, lattice, linalg, resonant, spectral, syk
from evolat.lattice import (
    TriangularLattice,
    babai_nearest_plane,
    enumerate_cvp,
    greedy_descent,
    lll_reduce_with_transform,
    triangularize,
)
from oracles import integer_determinant

FIXTURES = Path(__file__).parent / "fixtures"

RESULTS: list = []


def criterion(num: int):
    """Wrap a () -> (passed, detail) function into a recording test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                passed, detail = fn()
            except Exception as exc:
                RESULTS.append(f"criterion {num:02d}: FAIL - crashed: {exc!r}")
                raise
            RESULTS.append(f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
            assert passed, f"criterion {num:02d}: {detail}"

        return wrapper

    return deco


# ---------------------------------------------------------------- shared builders

@lru_cache(maxsize=None)
def uniform_energies(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return linalg.normalize_energies(np.sort(rng.uniform(0.0, 1.0, dim)))


@lru_cache(maxsize=None)
def goe_energies(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return linalg.normalize_energies(np.linalg.eigvalsh((a + a.T) / np.sqrt(8.0 * dim)))


@lru_cache(maxsize=None)
def resonant_model(n: int, m: int, kind: str, seed):
    block = resonant.enumerate_block(n, m)
    options = {"alpha": {"alpha": 1.0}, "delta": {"delta_coeff": 0.5}, "random": {"seed": seed}}
    scheme = resonant.CouplingScheme(kind, **options.get(kind, {}))
    h = resonant.build_block_hamiltonian(block, scheme)
    return block, h, linalg.normalize_spectrum(linalg.eigendecompose(h))


@lru_cache(maxsize=None)
def syk_model(variant: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    rep = syk.build_clifford(n)
    j2 = syk.sample_quadratic_couplings(n, rng)
    if variant == "free":
        h = syk.free_syk(rep, j2)
    elif variant == "integrable":
        omegas, frame = syk.antisymmetric_canonical_form(j2)
        h = syk.integrable_syk(rep, omegas, syk.sample_pair_couplings(n, rng), 1.0,
                               frame=frame)
    else:
        body = 4 if variant == "chaotic4" else 3
        h = syk.chaotic_syk(rep, j2, syk.sample_many_body_couplings(n, body, rng), 1.0,
                            body=body)
    return rep, h, linalg.normalize_spectrum(linalg.eigendecompose(h))


def featureless_projector(energies: np.ndarray) -> engine.NonlocalityMatrix:
    """Maximal nonlocality compatible with the two structural null directions
    (uniform phase and the energies themselves): Q projects off their span."""
    cols = np.stack([np.ones_like(energies), energies], axis=1)
    span, _ = np.linalg.qr(cols)
    q = np.eye(energies.size) - span @ span.T
    q = 0.5 * (q + q.T)
    return engine.NonlocalityMatrix(q, np.linalg.eigvalsh(q))


TIMES_LATE = np.linspace(20000.0, 24000.0, 41)
WINDOW_LATE = (20000.0, 24000.0)


@lru_cache(maxsize=None)
def resonant_run(n: int, m: int, kind: str, seed, k: int):
    """Late-window plateau mean, lattice estimate, trace max, and ceiling for
    one resonant block at cost factor mu = D."""
    block, _, spec = resonant_model(n, m, kind, seed)
    q = engine.nonlocality_matrix(spec, resonant.ResonantClassifier(block, k))
    mu = float(spec.dim)
    pipe = engine.ComplexityPipeline(spec.energies, engine.ComplexityMetric(mu=mu, q=q))
    trace = pipe.sweep(TIMES_LATE)
    mean = engine.plateau_stats(trace, WINDOW_LATE).mean
    est = lattice.plateau_estimate(pipe.lattice)
    return mean, est, float(trace.values.max()), engine.complexity_ceiling(mu, spec.dim)


@lru_cache(maxsize=None)
def late_plateau_trace_max() -> float:
    e = uniform_energies(1000, 3)
    times = np.linspace(20000.0, 100000.0, 401)
    return float(engine.bi_invariant_complexity(e, times).max())


# ---------------------------------------------------------------- criteria

@criterion(1)
def test_01_plateau_height_and_variance():
    # Samples are spaced 2*pi/sigma apart so the window average decorrelates.
    t0 = perf_counter()
    e = uniform_energies(1000, 3)
    times = np.linspace(20000.0, 100000.0, 401)
    vals = engine.bi_invariant_complexity(e, times)
    mean, var = vals.mean(), vals.var(ddof=1)
    target_mean = np.pi * np.sqrt(1000.0 / 3.0)
    target_var = np.pi**2 / 15.0
    elapsed = perf_counter() - t0
    passed = (
        abs(mean / target_mean - 1.0) <= 0.03
        and abs(var / target_var - 1.0) <= 0.25
        and elapsed < 60.0
    )
    return passed, (
        f"plateau mean {mean:.3f} (target {target_mean:.3f}), "
        f"variance {var:.4f} (target {target_var:.4f}), {elapsed:.1f}s"
    )


@criterion(2)
def test_02_early_linear_growth_and_departure():
    battery = []
    e120 = uniform_energies(120, 7)
    battery.append((e120, featureless_projector(e120)))
    block, _, spec = resonant_model(10, 10, "truncated", None)
    battery.append((spec.energies, engine.nonlocality_matrix(
        spec, resonant.ResonantClassifier(block, 4))))
    rep, _, sfree = syk_model("free", 8, 3)
    battery.append((sfree.energies, engine.nonlocality_matrix(
        sfree, syk.MonomialClassifier(rep, 2))))

    worst_early = 0.0
    departures_ok = True
    for energies, q in battery:
        emax = np.abs(energies).max()
        for mu in (1.0, float(energies.size)):
            tcap = 0.5 * min(np.sqrt(mu), np.pi / emax)
            ts = np.linspace(tcap / 24.0, tcap, 24)
            metric = (engine.ComplexityMetric() if mu == 1.0
                      else engine.ComplexityMetric(mu=mu, q=q))
            trace = engine.ComplexityPipeline(energies, metric).sweep(ts)
            worst_early = max(worst_early, float(np.abs(trace.values - ts).max()))
        # mu = 1: first wrap becomes favorable when |E_max| t passes pi
        tdep = np.pi / emax
        grid = np.linspace(0.5 * min(1.0, tdep), 2.5 * tdep, 80)
        gvals = engine.bi_invariant_complexity(energies, grid)
        below = grid - gvals > 1e-6
        step = grid[1] - grid[0]
        departures_ok &= bool(below.any()) and abs(grid[np.argmax(below)] - tdep) <= step
    passed = worst_early <= 1e-6 and departures_ok
    return passed, (
        f"worst early |C(t)-t| {worst_early:.2e} over 3 models x 2 cost factors; "
        f"mu=1 departure within one grid step of pi/|E_max| for all 3"
    )


@criterion(3)
def test_03_ceiling_never_exceeded():
    margins = [np.pi * np.sqrt(1000.0) - late_plateau_trace_max()]
    for key in (
        (12, 12, "truncated", None, 2), (12, 12, "truncated", None, 4),
        (12, 12, "random", 1, 2), (12, 12, "random", 1, 4),
        (10, 10, "truncated", None, 2), (10, 10, "truncated", None, 4),
    ):
        _, _, trace_max, ceiling = resonant_run(*key)
        margins.append(ceiling - trace_max)
    block, _, spec = resonant_model(8, 8, "truncated", None)
    q = engine.nonlocality_matrix(spec, resonant.ResonantClassifier(block, 2))
    mu = float(spec.dim)
    su = engine.ComplexityMetric(mu, engine.SU_NU_FACTOR * mu, q)
    trace = engine.ComplexityPipeline(spec.energies, su).sweep(TIMES_LATE)
    margins.append(engine.complexity_ceiling(float(spec.dim), spec.dim)
                   - float(trace.values.max()))
    rep, _, sfree = syk_model("free", 8, 3)
    qf = engine.nonlocality_matrix(sfree, syk.MonomialClassifier(rep, 2))
    trace = engine.ComplexityPipeline(
        sfree.energies, engine.ComplexityMetric(mu=16.0, q=qf)
    ).sweep(np.linspace(1.0, 4000.0, 60))
    margins.append(engine.complexity_ceiling(16.0, 16) - float(trace.values.max()))
    passed = min(margins) >= -1e-6
    return passed, (
        f"{len(margins)} traces (bi-invariant, mu=D blocks, SU variant, fermionic); "
        f"smallest margin below pi*sqrt(mu*D) is {min(margins):.3f}"
    )


@criterion(4)
def test_04_unit_cost_reduces_to_closed_form():
    worst = 0.0
    for seed in range(5):
        energies = (uniform_energies(200, seed) if seed % 2 == 0
                    else goe_energies(200, seed))
        ts = np.linspace(0.5, 5000.0, 40)
        trace = engine.ComplexityPipeline(energies).sweep(ts)
        closed = engine.bi_invariant_complexity(energies, ts)
        worst = max(worst, float(np.abs(trace.values - closed).max()))
    return worst <= 1e-9, f"worst pointwise gap {worst:.2e} over 5 spectra at D = 200"


@criterion(5)
def test_05_solver_between_exact_and_guarantee():
    rng = np.random.default_rng(2024)
    ratios = []
    bounds_ok = True
    for _ in range(200):
        d = int(rng.integers(6, 9))
        basis = rng.standard_normal((d, d))
        target = basis @ rng.uniform(-4.0, 4.0, size=d)
        reduced, _ = lll_reduce_with_transform(TriangularLattice.from_columns(basis, target))
        approx = reduced.distance(greedy_descent(reduced, babai_nearest_plane(reduced)))
        exact = reduced.distance(enumerate_cvp(reduced))
        bounds_ok &= exact - 1e-9 <= approx <= 2 ** (d / 2.0) * exact + 1e-9
        ratios.append(approx / exact)
    ratios = np.array(ratios)
    return bool(bounds_ok), (
        f"200 instances in 6-8 dimensions; median ratio {np.median(ratios):.4f}, "
        f"max {ratios.max():.4f}, guarantee factor 2^(D/2) never breached"
    )


@criterion(6)
def test_06_reduction_contract_on_random_bases():
    rng = np.random.default_rng(4096)
    worst_mu = 0.0
    all_ok = True
    for i in range(200):
        d = int(rng.integers(2, 65))
        if i % 3 == 0:
            mat = rng.integers(-9, 10, size=(d, d)).astype(float)
            while abs(np.linalg.det(mat)) < 0.5:
                mat = rng.integers(-9, 10, size=(d, d)).astype(float)
        else:
            mat = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-2, 3)
        frame, r = triangularize(mat)
        reduced, transform = lll_reduce_with_transform(TriangularLattice(r, np.zeros(d)))
        if d > 1:
            mu_abs = np.abs(reduced.mu[np.tril_indices(d, -1)])
            worst_mu = max(worst_mu, float(mu_abs.max()))
            all_ok &= bool((mu_abs <= 0.5 + 1e-9).all())
        for j in range(1, d):
            lhs = reduced.star_sq[j] + reduced.mu[j, j - 1] ** 2 * reduced.star_sq[j - 1]
            all_ok &= lhs >= (0.99 - 1e-12) * reduced.star_sq[j - 1]
        all_ok &= abs(integer_determinant(transform)) == 1
        # reduced columns in the input coordinates: both frames applied to R
        reduced_frame, _ = triangularize(r @ transform.astype(float))
        all_ok &= np.allclose(frame @ reduced_frame @ reduced.r, mat @ transform.astype(float),
                              atol=1e-9 * np.abs(mat).max(), rtol=1e-9)
    return bool(all_ok), (
        f"200 bases up to D = 64: size reduction (worst |mu| {worst_mu:.6f}), "
        f"Lovasz at delta = 0.99, exact unimodular transforms"
    )


@criterion(7)
def test_07_nonlocality_matrix_laws():
    # Each model is paired with the threshold that covers its interactions;
    # only then is the spectrum a null direction of Q.
    entries = []
    e120 = uniform_energies(120, 7)
    entries.append(("synthetic span projector", e120, featureless_projector(e120)))
    for variant, n, k, seed in (
        ("free", 8, 2, 3), ("free", 12, 2, 7), ("integrable", 12, 4, 7),
        ("chaotic3", 8, 3, 11), ("chaotic4", 12, 4, 11),
    ):
        rep, _, spec = syk_model(variant, n, seed)
        entries.append((f"{variant}-{n}", spec.energies, engine.nonlocality_matrix(
            spec, syk.MonomialClassifier(rep, k))))
    for n in (8, 12):
        for kind, seed in (("gg", None), ("truncated", None), ("alpha", None),
                           ("delta", None), ("random", 3)):
            block, _, spec = resonant_model(n, n, kind, seed)
            entries.append((f"{kind}-{n}", spec.energies, engine.nonlocality_matrix(
                spec, resonant.ResonantClassifier(block, 2))))
    worst_resid = worst_sym = 0.0
    eig_ok = True
    for _, energies, q in entries:
        worst_sym = max(worst_sym, float(np.abs(q.entries - q.entries.T).max()))
        eig_ok &= q.eigenvalues.min() >= -1e-9 and q.eigenvalues.max() <= 1.0 + 1e-9
        worst_resid = max(worst_resid, q.null_residual(energies))
    passed = worst_sym <= 1e-12 and eig_ok and worst_resid <= 1e-8
    return passed, (
        f"{len(entries)} operator sets: symmetric, eigenvalues in [-1e-9, 1+1e-9], "
        f"worst energy-direction residual {worst_resid:.2e}"
    )


@criterion(8)
def test_08_commuting_charge_spectrum_is_binary():
    t0 = perf_counter()
    rep, _, spec = syk_model("integrable", 12, 7)
    worst_dev = 0.0
    counts = []
    for k in (2, 4):
        q = engine.nonlocality_matrix(spec, syk.MonomialClassifier(rep, k))
        dev = np.minimum(np.abs(q.eigenvalues), np.abs(q.eigenvalues - 1.0)).max()
        worst_dev = max(worst_dev, float(dev))
        counts.append(int(np.sum(q.eigenvalues < 0.5)))
    elapsed = perf_counter() - t0
    # 6 quadratic charges; adding their 15 pairwise products at the wider threshold
    passed = worst_dev <= 1e-6 and counts == [6, 21] and elapsed < 300.0
    return passed, (
        f"all eigenvalues within {worst_dev:.2e} of {{0, 1}}; "
        f"null counts {counts[0]}/{counts[1]} at thresholds 2/4; {elapsed:.1f}s"
    )


@criterion(9)
def test_09_quadratic_spectrum_is_sign_sums():
    rng = np.random.default_rng(7)
    rep = syk.build_clifford(12)
    j2 = syk.sample_quadratic_couplings(12, rng)
    h = syk.free_syk(rep, j2)
    omegas = syk.antisymmetric_canonical_form(j2)[0]
    expect = np.sort([
        sum(s * w for s, w in zip(signs, omegas))
        for signs in itertools.product((-1.0, 1.0), repeat=6)
    ])
    dev = float(np.abs(np.linalg.eigvalsh(h.entries) - expect).max())
    return dev <= 1e-8, f"64 eigenvalues match the sign combinations, max dev {dev:.2e}"


@criterion(10)
def test_10_unit_coupling_spectra_are_integer():
    worst = 0.0
    for n in range(2, 13):
        _, h, _ = resonant_model(n, n, "gg", None)
        w = np.linalg.eigvalsh(h.entries)
        worst = max(worst, float(np.abs(w - np.round(w)).max()))
    return worst <= 1e-8, f"blocks (2,2)..(12,12): worst integer deviation {worst:.2e}"


@criterion(11)
def test_11_minimal_charge_conservation():
    worst_comm = 0.0
    for n in (6, 8, 10):
        block = resonant.enumerate_block(n, n)
        hmin = resonant.min_coupling_operator(block).entries
        for kind in ("gg", "truncated", "alpha", "delta"):
            _, h, _ = resonant_model(n, n, kind, None)
            worst_comm = max(worst_comm, float(
                np.abs(h.entries @ hmin - hmin @ h.entries).max()))
    # Normalized violation: fraction of the charge's traceless weight that
    # sits off-diagonal in the Hamiltonian eigenbasis (0 conserved, 1 broken).
    fracs = []
    for n, seed in ((6, 1), (8, 2), (10, 9)):
        block = resonant.enumerate_block(n, n)
        hmin = resonant.min_coupling_operator(block).entries
        _, h, _ = resonant_model(n, n, "random", seed)
        spec = linalg.eigendecompose(h)
        m = spec.vectors.conj().T @ hmin @ spec.vectors
        off = m - np.diag(np.diag(m))
        base = hmin - (np.trace(hmin) / hmin.shape[0]) * np.eye(hmin.shape[0])
        fracs.append(float(np.linalg.norm(off) / np.linalg.norm(base)))
    passed = worst_comm <= 1e-8 and all(f > 0.1 for f in fracs)
    return passed, (
        f"commutator max {worst_comm:.2e} for 4 schemes x 3 blocks; random-scheme "
        f"off-diagonal fractions {', '.join(f'{f:.2f}' for f in fracs)}"
    )


@criterion(12)
def test_12_state_counts_by_pure_enumeration():
    d30 = resonant.enumerate_block(30, 30).dim
    d25 = resonant.enumerate_block(25, 25).dim
    passed = (d30 == 5604 and d25 == 1958
              and resonant.partition_count(30, 30) == 5604
              and resonant.partition_count(25, 25) == 1958)
    return passed, f"enumerated dims {d30} and {d25}; closed-form counts agree"


@criterion(13)
def test_13_coupling_structure_separates_plateaus():
    gaps = {}
    ordering_ok = True
    for k in (2, 4):
        truncated = resonant_run(12, 12, "truncated", None, k)[0]
        randoms = [resonant_run(12, 12, "random", seed, k)[0] for seed in (1, 2, 3)]
        ordering_ok &= all(truncated < r for r in randoms)
        gaps[k] = min(randoms) - truncated
    passed = ordering_ok and gaps[4] > gaps[2]
    return passed, (
        f"truncated below all 3 random realizations at both thresholds; "
        f"smallest gap widens {gaps[2]:.3f} -> {gaps[4]:.3f}"
    )


@criterion(14)
def test_14_plateau_tracks_lattice_estimate():
    measured, estimates = [], []
    for n in (10, 12):
        for kind, seed in (("truncated", None), ("random", 1), ("random", 2)):
            for k in (2, 4):
                mean, est, _, _ = resonant_run(n, n, kind, seed, k)
                measured.append(mean)
                estimates.append(est)
    slope, _ = np.polyfit(estimates, measured, 1)
    corr = np.corrcoef(estimates, measured)[0, 1]
    passed = 0.85 <= slope <= 1.15 and corr > 0.95
    return passed, (
        f"{len(measured)} configurations: fit slope {slope:.4f}, "
        f"correlation {corr:.5f}"
    )


@criterion(15)
def test_15_spacing_statistics_classify_models():
    sp_goe = spectral.unfold(goe_energies(1000, 3))
    sp_uni = spectral.unfold(uniform_energies(1000, 5))
    _, _, spec = resonant_model(12, 12, "truncated", None)
    sp_res = spectral.unfold(spec.energies)
    goe_w = spectral.ks_distance(sp_goe, "wigner")
    goe_p = spectral.ks_distance(sp_goe, "poisson")
    uni_w = spectral.ks_distance(sp_uni, "wigner")
    uni_p = spectral.ks_distance(sp_uni, "poisson")
    res_w = spectral.ks_distance(sp_res, "wigner")
    res_p = spectral.ks_distance(sp_res, "poisson")
    passed = goe_w < goe_p and uni_p < uni_w and res_p < res_w
    return passed, (
        f"random Hermitian -> Wigner ({goe_w:.3f} < {goe_p:.3f}), "
        f"uniform -> Poisson ({uni_p:.3f} < {uni_w:.3f}), "
        f"truncated block -> Poisson ({res_p:.3f} < {res_w:.3f})"
    )


@criterion(16)
def test_16_solver_ladder_tightens_plateau():
    fx = json.loads((FIXTURES / "method_ladder.json").read_text())
    mc = fx["model"]
    block, _, spec = resonant_model(mc["n_particles"], mc["total_level"], mc["kind"], None)
    q = engine.nonlocality_matrix(
        spec, resonant.ResonantClassifier(block, fx["threshold"]))
    metric = engine.ComplexityMetric(mu=float(spec.dim), q=q)
    ts = np.linspace(fx["times"]["start"], fx["times"]["stop"], fx["times"]["count"])
    means = []
    for chain in fx["chains"]:
        trace = engine.ComplexityPipeline(spec.energies, metric, chain).sweep(ts)
        means.append(engine.plateau_stats(trace, tuple(fx["window"])).mean)
    passed = all(a >= b for a, b in zip(means, means[1:]))
    return passed, (
        "plateau means " + " >= ".join(f"{m:.3f}" for m in means)
        + f" for chains {', '.join(fx['chains'])}"
    )


@criterion(17)
def test_17_unfolded_spacings_have_unit_mean():
    spectra = {
        "uniform": uniform_energies(1000, 3),
        "uniform-b": uniform_energies(1000, 5),
        "random-hermitian": goe_energies(1000, 3),
        "resonant-truncated": resonant_model(12, 12, "truncated", None)[2].energies,
        "resonant-random": resonant_model(12, 12, "random", 1)[2].energies,
        "fermionic-free": syk_model("free", 12, 7)[2].energies,
        "fermionic-integrable": syk_model("integrable", 12, 7)[2].energies,
        "fermionic-chaotic": syk_model("chaotic4", 12, 11)[2].energies,
    }
    worst = 0.0
    for energies in spectra.values():
        worst = max(worst, abs(float(spectral.unfold(energies).values.mean()) - 1.0))
    return worst <= 1e-12, f"worst |mean - 1| {worst:.2e} over {len(spectra)} spectra"
