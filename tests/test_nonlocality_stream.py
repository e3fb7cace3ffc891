"""The streamed, real-arithmetic Q against the dense complex formula.

`nonlocality_matrix` accumulates Q from real blocks of Hermitian-operator
diagonals.  The reference here is the earlier construction: one dense
complex array z of <n|T|n> over the |a><b| (or monomial) generators, and
Q = I - Re(z^T conj(z)).  The two must agree to roundoff.
"""

import tracemalloc

import numpy as np
import pytest

from evolat import engine, linalg, resonant, syk
from evolat.engine import Q_BLOCK_ROWS, nonlocality_matrix

from oracles import (
    dense_majoranas,
    dense_monomial,
    gathered_local_diagonals,
    kept_subsets,
    local_pairs,
    local_subsets,
)

SCHEMES = {
    "gg": resonant.CouplingScheme("gg"),
    "truncated": resonant.CouplingScheme("truncated"),
    "alpha": resonant.CouplingScheme("alpha", alpha=1.0),
    "delta": resonant.CouplingScheme("delta", delta_coeff=0.5),
    "random": resonant.CouplingScheme("random", seed=3),
}


def dense_q(rows: np.ndarray) -> np.ndarray:
    z = np.asarray(rows, dtype=np.complex128)
    return np.eye(z.shape[1]) - (z.T @ z.conj()).real


def dense_resonant_q(cls: resonant.ResonantClassifier, spec: linalg.Spectrum) -> np.ndarray:
    v = spec.vectors.astype(np.complex128)
    pairs = local_pairs(cls.block, cls.threshold)
    return dense_q(v[pairs[:, 0], :].conj() * v[pairs[:, 1], :])


def resonant_spectrum(n: int, kind: str):
    block = resonant.enumerate_block(n, n)
    h = resonant.build_block_hamiltonian(block, SCHEMES[kind])
    return block, linalg.normalize_spectrum(linalg.eigendecompose(h))


@pytest.mark.parametrize("kind", sorted(SCHEMES))
@pytest.mark.parametrize("n", range(4, 11))
def test_resonant_stream_matches_dense_formula(n, kind):
    block, spec = resonant_spectrum(n, kind)
    assert spec.vectors.dtype == np.float64
    for threshold in (0, 2, 4):
        cls = resonant.ResonantClassifier(block, threshold)
        q = nonlocality_matrix(spec, cls)
        assert np.array_equal(q.entries, q.entries.T)
        assert np.abs(q.entries - dense_resonant_q(cls, spec)).max() < 1e-12


def test_resonant_stream_with_complex_eigenvectors(monkeypatch):
    """A resonant H is real: complex eigenvectors are refused before the
    locality table, and so before any block, is built."""
    block, spec = resonant_spectrum(8, "random")
    phases = np.exp(1j * np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, spec.dim))
    cspec = linalg.Spectrum(spec.energies, spec.vectors * phases)
    assert cspec.vectors.dtype == np.complex128

    def no_table(block):
        raise AssertionError("the locality table was built")

    monkeypatch.setattr(resonant, "locality_table", no_table)
    for threshold in (0, 2, 4):
        cls = resonant.ResonantClassifier(block, threshold)
        with pytest.raises(ValueError, match="a resonant H is real"):
            next(iter(cls.local_diagonals(cspec)))
        with pytest.raises(ValueError, match="a resonant H is real"):
            nonlocality_matrix(cspec, cls)


class GatheredClassifier:
    """The resonant classifier's rows built by two gathers and a scale pass."""

    def __init__(self, classifier):
        self.classifier = classifier

    def local_diagonals(self, spectrum):
        return gathered_local_diagonals(self.classifier, spectrum)


@pytest.mark.parametrize("rows", [Q_BLOCK_ROWS, 21], ids=["default-rows", "half-dim-blocks"])
@pytest.mark.parametrize("kind", ["truncated", "random"])
def test_resonant_blocks_and_q_are_the_gathered_ones_bit_for_bit(monkeypatch, kind, rows):
    """One gather of V_b per block, times V_a per state run, gives the
    blocks and the Q of two gathers and a scale pass, bit for bit; the
    blocks cut the runs of one state apart."""
    block, spec = resonant_spectrum(10, kind)
    monkeypatch.setattr(engine, "Q_BLOCK_ROWS", rows)
    straddled = False
    for threshold in (0, 2, 4):
        cls = resonant.ResonantClassifier(block, threshold)
        new = list(cls.local_diagonals(spec))
        old = gathered_local_diagonals(cls, spec)
        assert len(new) == len(old)
        for x, y in zip(new, old):
            assert x.shape == y.shape and np.array_equal(x, y)
        q = nonlocality_matrix(spec, cls).entries
        assert np.array_equal(q, nonlocality_matrix(spec, GatheredClassifier(cls)).entries)
        # the rows are the pairs a <= b, row-major: state a owns one run of them
        a = np.nonzero(np.triu(resonant.locality_table(block) <= threshold))[0]
        cuts = np.arange(rows, a.size, rows)
        straddled |= bool(np.any(a[cuts - 1] == a[cuts]))
    assert straddled


def block_heights(blocks) -> list:
    return [z.shape[0] for z in blocks]


def assert_all_full_but_the_last(heights, rows):
    assert len(heights) > 1 and 0 < heights[-1] <= rows
    assert heights[:-1] == [rows] * (len(heights) - 1)


def test_blocks_hold_q_block_rows_but_the_last():
    """At default settings every block holds Q_BLOCK_ROWS rows but the last:
    the resonant gathers and the SYK monomials, whose packing carries on
    across the parity-flipping masks that yield no rows."""
    block, spec = resonant_spectrum(12, "random")
    cls = resonant.ResonantClassifier(block, 4)
    pairs = np.count_nonzero(np.triu(resonant.locality_table(block) <= 4))  # a <= b
    assert pairs > 6 * Q_BLOCK_ROWS
    real = block_heights(cls.local_diagonals(spec))
    assert_all_full_but_the_last(real, Q_BLOCK_ROWS)
    assert sum(real) == pairs
    rep, sspec = chaotic4_spectrum(12)  # 561 kept rows; at n = 10, 255 fill one block
    monomials = block_heights(syk.MonomialClassifier(rep, 4).local_diagonals(sspec))
    assert_all_full_but_the_last(monomials, Q_BLOCK_ROWS)
    assert sum(monomials) == len(kept_subsets(rep, 4, sspec.blocks)) < len(local_subsets(rep, 4))


def test_resonant_blocks_respect_the_budget(monkeypatch):
    """Blocks hold Q_BLOCK_ROWS rows, the last one excepted; splitting the
    rows over many blocks leaves Q unchanged, within roundoff of the dense
    formula and exactly symmetric."""
    block, spec = resonant_spectrum(10, "truncated")
    cls = resonant.ResonantClassifier(block, 4)
    whole = nonlocality_matrix(spec, cls)
    dense = dense_resonant_q(cls, spec)
    for rows in (21, 30, 5):
        monkeypatch.setattr(engine, "Q_BLOCK_ROWS", rows)
        blocks = list(cls.local_diagonals(spec))
        assert len(blocks) > 10
        assert_all_full_but_the_last(block_heights(blocks), rows)
        q = nonlocality_matrix(spec, cls)
        assert np.array_equal(q.entries, q.entries.T)
        assert np.abs(q.entries - whole.entries).max() < 1e-12
        assert np.abs(q.entries - dense).max() < 1e-12


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_resonant_block_working_set(monkeypatch):
    """Once the pair list exists, building a block holds at most two arrays
    of its rows x dim float64 entries."""
    block, spec = resonant_spectrum(12, "truncated")
    rows = 50
    monkeypatch.setattr(engine, "Q_BLOCK_ROWS", rows)
    blocks = resonant.ResonantClassifier(block, 4).local_diagonals(spec)
    next(blocks)

    def consume():
        for z in blocks:
            del z

    assert traced_peak(consume) < 2 * rows * spec.dim * 8 + 4096


class BlockClassifier:
    def __init__(self, *blocks):
        self.blocks = blocks

    def local_diagonals(self, spectrum):
        yield from self.blocks


class FreshBlocks:
    """Yields `count` new zero blocks, so only the consumer keeps them alive."""

    def __init__(self, rows, count):
        self.rows, self.count = rows, count

    def local_diagonals(self, spectrum):
        for _ in range(self.count):
            yield np.zeros((self.rows, spectrum.dim))


def test_nonlocality_matrix_releases_each_block():
    d = 40
    spec = linalg.Spectrum(np.linspace(-0.5, 0.5, d), np.eye(d))
    block_bytes = 20_000 * d * 8
    peak = traced_peak(lambda: nonlocality_matrix(spec, FreshBlocks(20_000, 4)))
    assert peak < 1.5 * block_bytes


@pytest.mark.parametrize("variant, threshold", [("free", 2), ("chaotic3", 3)])
def test_syk_stream_matches_dense_formula(variant, threshold):
    rng = np.random.default_rng(11)
    rep = syk.build_clifford(8)
    j2 = syk.sample_quadratic_couplings(8, rng)
    if variant == "free":
        h = syk.free_syk(rep, j2)
    else:
        h = syk.chaotic_syk(rep, j2, syk.sample_many_body_couplings(8, 3, rng), 1.0, body=3)
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    cls = syk.MonomialClassifier(rep, threshold)
    q = nonlocality_matrix(spec, cls)
    assert np.array_equal(q.entries, q.entries.T)
    assert np.abs(q.entries - dense_syk_q(cls, spec)).max() < 1e-12


def dense_syk_q(cls: syk.MonomialClassifier, spec: linalg.Spectrum) -> np.ndarray:
    """The seed formula with every monomial a dense matrix product."""
    psis = dense_majoranas(cls.rep.n_modes)
    v = spec.vectors
    return dense_q([np.einsum("in,in->n", v.conj(), dense_monomial(psis, s) @ v)
                    for s in local_subsets(cls.rep, cls.threshold)])


def chaotic4_spectrum(n: int) -> tuple:
    rng = np.random.default_rng(n)
    rep = syk.build_clifford(n)
    h = syk.chaotic_syk(rep, syk.sample_quadratic_couplings(n, rng),
                        syk.sample_many_body_couplings(n, 4, rng), 1.0, body=4)
    return rep, linalg.normalize_spectrum(linalg.eigendecompose(h))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_syk_pauli_stream_matches_dense_products(n):
    rep, spec = chaotic4_spectrum(n)
    for threshold in (2, 3, 4):
        cls = syk.MonomialClassifier(rep, threshold)
        q = nonlocality_matrix(spec, cls)
        assert np.array_equal(q.entries, q.entries.T)
        assert np.abs(q.entries - dense_syk_q(cls, spec)).max() < 1e-12


def test_syk_blocks_respect_the_budget(monkeypatch):
    """Blocks hold Q_BLOCK_ROWS rows, the last one excepted; splitting the
    rows over many blocks leaves Q unchanged, within roundoff of the dense
    formula and exactly symmetric."""
    rep, spec = chaotic4_spectrum(10)
    cls = syk.MonomialClassifier(rep, 4)
    whole = nonlocality_matrix(spec, cls)
    dense = dense_syk_q(cls, spec)
    for rows in (16, 100, 3):
        monkeypatch.setattr(engine, "Q_BLOCK_ROWS", rows)
        heights = block_heights(cls.local_diagonals(spec))
        assert_all_full_but_the_last(heights, rows)
        assert sum(heights) == len(kept_subsets(rep, 4, spec.blocks))
        q = nonlocality_matrix(spec, cls)
        assert np.array_equal(q.entries, q.entries.T)
        assert np.abs(q.entries - whole.entries).max() < 1e-12
        assert np.abs(q.entries - dense).max() < 1e-12


def test_syk_q_memory_is_one_block_plus_dense_arrays(monkeypatch):
    """chaotic4 at n = 16, threshold 4: the build stays within one block of
    rows x dim entries of 64 bytes (the block, its signs, and its complex
    and real rows) plus a few D x D complex arrays.  Under 64-row blocks,
    where the block no longer hides the rest, that is under three of them
    (Q, its Gram matrix and one shared A_x); building each monomial as a
    dense matrix took 4.5."""
    rep, spec = chaotic4_spectrum(16)
    cls = syk.MonomialClassifier(rep, 4)
    d = spec.dim
    assert d == 256
    peak = traced_peak(lambda: nonlocality_matrix(spec, cls))
    assert peak < Q_BLOCK_ROWS * d * 64 + 4 * d * d * 16
    monkeypatch.setattr(engine, "Q_BLOCK_ROWS", 64)
    assert traced_peak(lambda: nonlocality_matrix(spec, cls)) < 64 * d * 64 + 3 * d * d * 16


needs_dsyrk = pytest.mark.skipif(engine._DSYRK is None, reason="numpy's BLAS has no dsyrk64_")


def bundles_ilp64_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name") == "scipy-openblas" and "USE64BITINT" in blas.get(
        "openblas configuration", "")


@pytest.mark.skipif(not bundles_ilp64_openblas(), reason="numpy does not run on scipy-openblas64")
def test_numpy_dsyrk_resolves_with_its_bundled_openblas():
    """A numpy on its bundled ILP64 OpenBLAS accumulates Q by dsyrk, and
    never falls back to z.T @ z unnoticed."""
    assert engine._DSYRK is not None
    assert engine._DSYRK.__name__ == "scipy_cblas_dsyrk64_"


@needs_dsyrk
def test_fallback_q_matches_the_dsyrk_q(monkeypatch):
    """Without the kernel, numpy's z.T @ z gives the same Q to roundoff,
    and both are exactly symmetric; blocks of 1 row, 20 rows and all rows."""
    block, spec = resonant_spectrum(12, "truncated")
    rep, cspec = chaotic4_spectrum(10)
    cases = [(spec, resonant.ResonantClassifier(block, 4)), (cspec, syk.MonomialClassifier(rep, 4))]
    for rows in (1, 20, 10**4):
        for sp, cls in cases:
            monkeypatch.setattr(engine, "Q_BLOCK_ROWS", rows)
            fast = nonlocality_matrix(sp, cls).entries
            with monkeypatch.context() as m:
                m.setattr(engine, "_DSYRK", None)
                slow = nonlocality_matrix(sp, cls).entries
            assert np.array_equal(fast, fast.T) and np.array_equal(slow, slow.T)
            assert np.abs(fast - slow).max() < 1e-14


@pytest.mark.parametrize("kernel", ["dsyrk", "fallback"])
def test_blocks_of_zero_and_one_rows(monkeypatch, kernel):
    if kernel == "fallback":
        monkeypatch.setattr(engine, "_DSYRK", None)
    elif engine._DSYRK is None:
        pytest.skip("numpy's BLAS has no dsyrk64_")
    d = 300  # more than one mirror panel
    spec = linalg.Spectrum(np.linspace(-0.5, 0.5, d), np.eye(d))
    assert np.array_equal(nonlocality_matrix(spec, BlockClassifier(np.zeros((0, d)))).entries, np.eye(d))
    rows = np.eye(d)[[3, 250, 299]]  # three unit vectors, one row per block
    q = nonlocality_matrix(spec, BlockClassifier(np.zeros((0, d)), *rows[:, None]))
    assert np.array_equal(q.entries, np.diag(np.where(rows.sum(axis=0), 0.0, 1.0)))
    u = np.random.default_rng(5).standard_normal(d)
    u /= np.linalg.norm(u)
    q = nonlocality_matrix(spec, BlockClassifier(u[None, :], np.zeros((0, d)))).entries
    assert np.array_equal(q, q.T)
    assert np.abs(q - (np.eye(d) - np.outer(u, u))).max() < 1e-15


@needs_dsyrk
def test_dsyrk_q_holds_no_second_dense_array(monkeypatch):
    """On the dsyrk path Q is the only dim x dim array: the peak is Q and
    one block, plus two panels of the mirror or the symmetry check."""
    d, rows, panel = 600, 100, 64
    monkeypatch.setattr(linalg, "PANEL_ROWS", panel)
    spec = linalg.Spectrum(np.linspace(-0.5, 0.5, d), np.eye(d))
    peak = traced_peak(lambda: nonlocality_matrix(spec, FreshBlocks(rows, 5)))
    assert peak < d * d * 8 + rows * d * 8 + 2 * panel * d * 8


def test_complex_block_is_refused():
    """The protocol's blocks are real: a complex block is refused, even one
    whose imaginary part is zero, not converted."""
    spec = linalg.Spectrum(np.array([-0.5, 0.5]), np.eye(2))
    row = np.array([[1.0, 0.0]])
    for block in (row + 0j, row + 1e-10j, row * 0.0 + 1e-6j):
        with pytest.raises(ValueError, match="real 2-D blocks"):
            nonlocality_matrix(spec, BlockClassifier(row, block))


def test_syk_non_hermitian_monomials_raise(monkeypatch):
    rep = syk.build_clifford(6)
    spec = linalg.eigendecompose(
        syk.free_syk(rep, syk.sample_quadratic_couplings(6, np.random.default_rng(2))))
    original = syk.monomial_strings

    def rotated(rep, modes):  # i T is anti-Hermitian: its diagonals are imaginary
        x, z, c = original(rep, modes)
        return x, z, 1j * c

    monkeypatch.setattr(syk, "monomial_strings", rotated)
    with pytest.raises(ArithmeticError, match="imaginary"):
        nonlocality_matrix(spec, syk.MonomialClassifier(rep, 2))


def test_classifier_must_yield_2d_blocks():
    spec = linalg.Spectrum(np.array([-0.5, 0.5]), np.eye(2))
    with pytest.raises(ValueError, match="2-D blocks"):
        nonlocality_matrix(spec, BlockClassifier(np.array([1.0, 0.0])))


def test_q_memory_is_one_block_plus_dense_arrays():
    """(16,16) at threshold 4: the earlier complex pairs x D array alone took
    pairs * D * 16 bytes (77 MiB).  The streamed build stays within one
    block and one copy of it plus a few D x D float64 arrays."""
    block = resonant.enumerate_block(16, 16)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    d = spec.dim
    assert d == 231
    cls = resonant.ResonantClassifier(block, 4)
    dense_bytes = len(local_pairs(block, 4)) * d * 16
    peak = traced_peak(lambda: nonlocality_matrix(spec, cls))
    assert peak < 2 * Q_BLOCK_ROWS * d * 8 + 6 * d * d * 8
    assert peak < 0.5 * dense_bytes


def test_real_hamiltonians_stay_real():
    block = resonant.enumerate_block(6, 6)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("random", seed=1))
    assert h.entries.dtype == np.float64
    assert linalg.eigendecompose(h).vectors.dtype == np.float64
    rep = syk.build_clifford(6)
    hs = syk.free_syk(rep, syk.sample_quadratic_couplings(6, np.random.default_rng(1)))
    assert hs.entries.dtype == np.complex128
    assert linalg.eigendecompose(hs).vectors.dtype == np.complex128
