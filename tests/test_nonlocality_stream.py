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
from evolat.engine import Q_BLOCK_BYTES, nonlocality_matrix

from oracles import dense_majoranas, dense_monomial, local_pairs, local_subsets

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


def test_resonant_stream_with_complex_eigenvectors():
    """Column phases leave every <n|T|n> unchanged; with complex vectors the
    classifier adds the i(|a><b| - |b><a|)/sqrt(2) rows and Q is the same."""
    block, spec = resonant_spectrum(8, "random")
    phases = np.exp(1j * np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, spec.dim))
    cspec = linalg.Spectrum(spec.energies, spec.vectors * phases)
    assert cspec.vectors.dtype == np.complex128
    for threshold in (0, 2, 4):
        cls = resonant.ResonantClassifier(block, threshold)
        q = nonlocality_matrix(cspec, cls)
        assert np.array_equal(q.entries, q.entries.T)
        assert np.abs(q.entries - dense_resonant_q(cls, cspec)).max() < 1e-12
        assert np.abs(q.entries - nonlocality_matrix(spec, cls).entries).max() < 1e-12


def test_resonant_blocks_respect_the_budget(monkeypatch):
    """A small budget splits the rows over many blocks without changing Q."""
    block, spec = resonant_spectrum(10, "truncated")
    cls = resonant.ResonantClassifier(block, 4)
    whole = nonlocality_matrix(spec, cls)
    monkeypatch.setattr(engine, "Q_BLOCK_BYTES", 16 * spec.dim * 8)
    blocks = list(cls.local_diagonals(spec))
    assert len(blocks) > 10
    assert max(z.shape[0] for z in blocks) == 8
    q = nonlocality_matrix(spec, cls)
    assert np.abs(q.entries - whole.entries).max() < 1e-12


def test_small_blocks_are_staged_without_changing_q(monkeypatch):
    """Blocks under dim // 2 rows are copied, in order, into batches of
    dim // 2 rows before each Gram product; Q moves by roundoff only."""
    block, spec = resonant_spectrum(10, "truncated")
    cls = resonant.ResonantClassifier(block, 4)
    d = spec.dim
    whole = nonlocality_matrix(spec, cls)
    assert min(z.shape[0] for z in cls.local_diagonals(spec)) >= d // 2  # unstaged
    monkeypatch.setattr(engine, "Q_BLOCK_BYTES", 4 * d * 16)
    blocks = list(cls.local_diagonals(spec))
    assert max(z.shape[0] for z in blocks) == 4 < d // 2
    batches = [z.copy() for z in engine.gram_batches(iter(blocks), d)]
    assert [z.shape[0] for z in batches[:-1]] == [d // 2] * (len(batches) - 1)
    assert np.array_equal(np.concatenate(batches), np.concatenate(blocks))
    q = nonlocality_matrix(spec, cls)
    assert np.array_equal(q.entries, q.entries.T)
    assert np.abs(q.entries - whole.entries).max() < 1e-12


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
    of its size, within the budget."""
    block, spec = resonant_spectrum(12, "truncated")
    budget = 64 * 1024
    monkeypatch.setattr(engine, "Q_BLOCK_BYTES", budget)
    blocks = resonant.ResonantClassifier(block, 4).local_diagonals(spec)
    next(blocks)

    def consume():
        for z in blocks:
            del z

    assert traced_peak(consume) < budget + 4096


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
    """Row blocks stay within block_rows at any budget; Q does not change."""
    rep, spec = chaotic4_spectrum(10)
    cls = syk.MonomialClassifier(rep, 4)
    whole = nonlocality_matrix(spec, cls)
    monkeypatch.setattr(engine, "Q_BLOCK_BYTES", 7 * spec.dim * 64)
    blocks = list(cls.local_diagonals(spec))
    assert max(z.shape[0] for z in blocks) == 7
    assert sum(z.shape[0] for z in blocks) == len(local_subsets(rep, 4))
    assert np.abs(nonlocality_matrix(spec, cls).entries - whole.entries).max() < 1e-12


def test_syk_q_memory_is_one_block_plus_dense_arrays(monkeypatch):
    """chaotic4 at n = 16, threshold 4: the build stays within the block
    budget plus a few D x D complex arrays.  Under a 1 MiB budget, where the
    block no longer hides the rest, that is under three of them (Q, its Gram
    matrix and one shared A_x); building each monomial as a dense matrix
    took 4.5."""
    rep, spec = chaotic4_spectrum(16)
    cls = syk.MonomialClassifier(rep, 4)
    d = spec.dim
    assert d == 256
    assert traced_peak(lambda: nonlocality_matrix(spec, cls)) < Q_BLOCK_BYTES + 4 * d * d * 16
    monkeypatch.setattr(engine, "Q_BLOCK_BYTES", 2**20)
    assert traced_peak(lambda: nonlocality_matrix(spec, cls)) < 2**20 + 3 * d * d * 16


def test_complex_block_above_tolerance_raises():
    spec = linalg.Spectrum(np.array([-0.5, 0.5]), np.eye(2))
    row = np.array([[1.0, 0.0]])
    nonlocality_matrix(spec, BlockClassifier(row + 1e-10j))  # roundoff is dropped
    with pytest.raises(ArithmeticError, match="imaginary"):
        nonlocality_matrix(spec, BlockClassifier(row, row * 0.0 + 1e-6j))


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
    pairs * D * 16 bytes (77 MiB).  The streamed build stays within the block
    budget plus a few D x D float64 arrays."""
    block = resonant.enumerate_block(16, 16)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    d = spec.dim
    assert d == 231
    cls = resonant.ResonantClassifier(block, 4)
    dense_bytes = len(local_pairs(block, 4)) * d * 16
    peak = traced_peak(lambda: nonlocality_matrix(spec, cls))
    assert peak < Q_BLOCK_BYTES + 6 * d * d * 8
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
