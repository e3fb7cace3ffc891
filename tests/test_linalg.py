import errno
import os

import numpy as np
import pytest

from evolat import linalg, resonant
from evolat.linalg import (
    PANEL_ROWS,
    HermitianMatrix,
    Spectrum,
    _hermiticity,
    atomic_write,
    eigendecompose,
    normalize_energies,
    normalize_spectrum,
)

from test_nonlocality_stream import bundles_ilp64_openblas, traced_peak


def test_hermitian_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))


def test_hermitian_matrix_is_read_only():
    m = HermitianMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_hermitian_tolerance_scales_with_entries():
    # a 1e-13 asymmetry on order-1e4 entries is within the relative tolerance
    big = np.full((2, 2), 1.0e4)
    big[0, 1] += 1.0e-13
    HermitianMatrix(big)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermiticity_check_is_the_two_temporary_one_bit_for_bit(dtype):
    """One work buffer gives the deviation and scale of
    |m - m^dagger|.max() and max(|m|.max(), 1) to the bit."""
    rng = np.random.default_rng(8)
    for d, size in ((1, 1.0), (7, 1e-3), (40, 1.0), (40, 3e5)):
        a = size * rng.standard_normal((d, d))
        if dtype is np.complex128:
            a = a + 1j * size * rng.standard_normal((d, d))
        for m in (a, (a + a.conj().T) / 2.0, a + 1e-13 * a.T):
            dev, scale = _hermiticity(m)
            assert dev == np.abs(m - m.conj().T).max()
            assert scale == max(np.abs(m).max(), 1.0)


def test_eigendecompose_identity():
    s = eigendecompose(HermitianMatrix(np.eye(3)))
    assert np.allclose(s.energies, [1.0, 1.0, 1.0])
    assert np.allclose(s.vectors @ s.vectors.conj().T, np.eye(3), atol=1e-12)


def test_eigendecompose_diagonal_sorts():
    s = eigendecompose(HermitianMatrix(np.diag([2.0, -1.0])))
    assert np.allclose(s.energies, [-1.0, 2.0])
    assert np.allclose(np.abs(s.vectors), [[0.0, 1.0], [1.0, 0.0]])


def test_eigendecompose_pauli_x():
    s = eigendecompose(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(s.energies, [-1.0, 1.0])
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(s.vectors), [[r, r], [r, r]], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_eigendecompose_reconstructs(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 30))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = HermitianMatrix((a + a.conj().T) / 2.0)
    s = eigendecompose(m)
    rebuilt = (s.vectors * s.energies) @ s.vectors.conj().T
    assert np.abs(rebuilt - m.entries).max() < 1e-10
    assert np.all(np.diff(s.energies) >= 0.0)


def random_hermitian(d: int, dtype, seed: int = 4) -> HermitianMatrix:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    if dtype is np.complex128:
        a = a + 1j * rng.standard_normal((d, d))
    return HermitianMatrix((a + a.conj().T) / 2.0)


@pytest.mark.skipif(not bundles_ilp64_openblas(), reason="numpy does not run on scipy-openblas64")
def test_numpy_eigh_kernels_resolve_with_its_bundled_openblas():
    """A numpy on its bundled ILP64 OpenBLAS diagonalizes through LAPACKE,
    and never falls back to np.linalg.eigh unnoticed."""
    assert linalg._DSYEVD.__name__ == "scipy_LAPACKE_dsyevd_work64_"
    assert linalg._ZHEEVD.__name__ == "scipy_LAPACKE_zheevd_work64_"


needs_evd = pytest.mark.skipif(linalg._DSYEVD is None or linalg._ZHEEVD is None,
                               reason="numpy's LAPACK has no dsyevd/zheevd work64_")


@needs_evd
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d", [1, 2, PANEL_ROWS + 44])
def test_eigendecompose_is_numpy_eigh_bit_for_bit(monkeypatch, dtype, d):
    """The LAPACK call gives np.linalg.eigh's energies and vectors to the
    bit, in C order, on a matrix larger than one panel; so does the
    fallback that runs without the symbols."""
    m = random_hermitian(d, dtype)
    e, v = np.linalg.eigh(m.entries)
    s = eigendecompose(m)
    assert s.vectors.dtype == dtype and s.vectors.flags.c_contiguous
    assert np.array_equal(s.energies, e) and np.array_equal(s.vectors, v)
    monkeypatch.setattr(linalg, "_DSYEVD", None)
    monkeypatch.setattr(linalg, "_ZHEEVD", None)
    fallback = eigendecompose(m)
    assert np.array_equal(fallback.energies, e) and np.array_equal(fallback.vectors, v)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigendecompose_holds_at_most_three_copies(dtype):
    """At dim 627, (20,20) truncated and a random complex matrix: beyond H,
    eigendecompose holds at most 3 dim^2 entries (the copy that becomes V
    and LAPACK's 2 dim^2 workspace), plus one panel of the checks."""
    if dtype is np.float64:
        block = resonant.enumerate_block(20, 20)
        m = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    else:
        m = random_hermitian(627, dtype)
    d, size = m.dim, np.dtype(dtype).itemsize
    assert d == 627
    peak = traced_peak(lambda: eigendecompose(m))
    assert peak <= 3 * d * d * size + PANEL_ROWS * d * size


def test_spectrum_check_covers_every_panel():
    d = PANEL_ROWS + 44
    Spectrum(np.arange(d, dtype=float), np.eye(d))
    v = np.eye(d)
    v[d - 1, d - 2] = 1e-6  # columns d-2 and d-1, both in the last panel, now overlap
    with pytest.raises(ValueError, match="not orthonormal"):
        Spectrum(np.arange(d, dtype=float), v)


def test_reconstruction_check_covers_every_panel(monkeypatch):
    """An energy off in the last panel fails the reconstruction, whose scale
    is the largest entry of H over all panels."""
    d = PANEL_ROWS + 44
    h = np.diag(np.arange(d, dtype=float))
    wrong = np.arange(d, dtype=float)
    wrong[-1] += 1e-3
    monkeypatch.setattr(linalg, "_DSYEVD", "a kernel")
    monkeypatch.setattr(linalg, "_lapack_eigh", lambda kernel, m: (wrong.copy(), np.eye(d)))
    with pytest.raises(ArithmeticError, match="reconstruct"):
        eigendecompose(HermitianMatrix(h))
    wrong[-1] = d - 1 + 1e-9 * (d - 1) / 2  # within the tolerance at the scale of H
    eigendecompose(HermitianMatrix(h))


def test_normalize_energies_contract():
    e = normalize_energies(np.array([1.0, 2.0, 4.0, 9.0]))
    assert abs(e.sum()) < 1e-12
    assert abs((e ** 2).sum() - 1.0) < 1e-12
    assert np.all(np.diff(e) > 0)


@pytest.mark.parametrize("shift,scale", [(5.0, 1.0), (0.0, 3.0), (-2.5, 0.25), (12.0, 7.0)])
def test_normalize_energies_shift_scale_invariant(shift, scale):
    rng = np.random.default_rng(1)
    e = rng.standard_normal(40)
    a = normalize_energies(e)
    b = normalize_energies(scale * e + shift)
    assert np.abs(a - b).max() < 1e-12


def test_normalize_energies_idempotent():
    e = normalize_energies(np.array([0.3, 1.7, -2.0, 0.9]))
    assert np.abs(normalize_energies(e) - e).max() < 1e-12


def test_normalize_energies_rejects_flat():
    with pytest.raises(ValueError):
        normalize_energies(np.full(5, 3.0))


def test_normalize_spectrum_keeps_vectors():
    m = HermitianMatrix(np.diag([1.0, 4.0, 6.0]))
    s = eigendecompose(m)
    ns = normalize_spectrum(s)
    assert np.array_equal(ns.vectors, s.vectors)
    assert abs(ns.energies.sum()) < 1e-12
    assert abs((ns.energies ** 2).sum() - 1.0) < 1e-12


def test_normalize_spectrum_shares_the_checked_vectors():
    s = eigendecompose(HermitianMatrix(np.diag([1.0, 4.0, 6.0])))
    ns = normalize_spectrum(s)
    assert ns.vectors is s.vectors and not ns.vectors.flags.writeable
    assert np.array_equal(s.energies, [1.0, 4.0, 6.0])
    assert not ns.energies.flags.writeable and np.all(np.diff(ns.energies) > 0)
    with pytest.raises(ValueError, match="degenerate"):
        normalize_spectrum(Spectrum(np.full(3, 2.0), np.eye(3)))


def test_spectrum_rejects_unsorted():
    with pytest.raises(ValueError):
        Spectrum(energies=np.array([1.0, 0.0]), vectors=np.eye(2))


def test_spectrum_rejects_nonunitary_vectors():
    with pytest.raises(ValueError):
        Spectrum(energies=np.array([0.0, 1.0]), vectors=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_atomic_write_failing_part_way_keeps_earlier_file(tmp_path, monkeypatch):
    """A write that fails after its first chunk, as on a full disk, leaves the
    earlier file whole and no temporary file behind."""
    path = tmp_path / "m.txt"
    atomic_write(path, "head", b"body")
    before = path.read_bytes()
    fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, mode):
            self.fh, self.chunks = fdopen(fd, mode), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.chunks:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.chunks += 1
            return self.fh.write(data)

    monkeypatch.setattr(os, "fdopen", FullDisk)
    with pytest.raises(OSError, match="No space left"):
        atomic_write(path, "new head", b"new body")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
