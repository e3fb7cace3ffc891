import errno
import os
import sys
import warnings
import weakref

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
    m = np.eye(PANEL_ROWS + 44)
    m[-1, -2] = 1e-6  # both indices in the last panel
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(m)


def test_hermitian_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("bad, where", [
    (np.nan, (1, 1)), (np.nan, (0, 2)), (np.inf, (0, 2)), (-np.inf, (3, 3)),
], ids=["nan-diagonal", "nan-pair", "inf-pair", "minus-inf-diagonal"])
def test_hermitian_matrix_refuses_a_non_finite_entry(dtype, bad, where):
    """NaN compares false and inf - inf is NaN, so either would pass the
    Hermiticity tolerance; both are refused before it, without a warning."""
    m = np.eye(4, dtype=dtype)
    m[where] = m[where[::-1]] = bad
    last = np.eye(PANEL_ROWS + 4, dtype=dtype)  # the entry in the last panel
    last[-1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (m, last):
            with pytest.raises(ValueError, match="non-finite entry"):
                HermitianMatrix(a)
    if dtype is np.complex128:
        m = np.eye(4, dtype=dtype)
        m[where] = m[where[::-1]] = complex(0.0, bad)
        with pytest.raises(ValueError, match="non-finite entry"):
            HermitianMatrix(m)


def test_hermitian_matrix_is_read_only():
    m = HermitianMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_matrix_keeps_the_array_it_is_handed(monkeypatch, dtype):
    """A float64 or complex128 H is kept as it is, not copied, and made
    read-only, and its check holds no D x D array: under 16-row panels the
    H stage adds less than a tenth of H.  Other dtypes are converted, and
    the array handed in is left as it was."""
    d = 320
    monkeypatch.setattr(linalg, "PANEL_ROWS", 16)
    h = random_hermitian(d, dtype).entries.copy()
    kept = []
    peak = traced_peak(lambda: kept.append(HermitianMatrix(h)))
    assert np.shares_memory(kept[0].entries, h) and not h.flags.writeable
    assert peak < 0.1 * h.nbytes
    ints = np.eye(3, dtype=np.int64)
    m = HermitianMatrix(ints)
    assert m.entries.dtype == np.float64 and not np.shares_memory(m.entries, ints)
    assert ints.flags.writeable


def test_hermitian_tolerance_scales_with_entries():
    # a 1e-13 asymmetry on order-1e4 entries is within the relative tolerance
    big = np.full((2, 2), 1.0e4)
    big[0, 1] += 1.0e-13
    HermitianMatrix(big)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermiticity_check_is_the_two_temporary_one_bit_for_bit(dtype):
    """Row panels give the deviation and scale of |m - m^dagger|.max() and
    max(|m|.max(), 1) to the bit, also over more than one panel."""
    rng = np.random.default_rng(8)
    for d, size in ((1, 1.0), (7, 1e-3), (40, 1.0), (40, 3e5), (PANEL_ROWS + 44, 1.0)):
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
    for kernels, names in ((linalg._DSYEVD, "dsyevd dlansy dlascl dsytrd dstedc dormtr"),
                           (linalg._ZHEEVD, "zheevd zlanhe zlascl zhetrd zstedc zunmtr")):
        assert [k.__name__ for k in kernels] == [f"scipy_LAPACKE_{n}_work64_" for n in names.split()]


needs_evd = pytest.mark.skipif(linalg._DSYEVD is None or linalg._ZHEEVD is None,
                               reason="numpy's LAPACK lacks a dsyevd/zheevd stage in work64_")
needs_311 = pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "CPython before 3.11 keeps a call's arguments alive in the caller until it returns"))


def stage_spy(monkeypatch, dtype, stage, spy):
    """Replace one LAPACK stage of dtype's eigensolver by spy(kernel, *args)."""
    name = "_ZHEEVD" if dtype is np.complex128 else "_DSYEVD"
    kernels = getattr(linalg, name)
    kernel = getattr(kernels, stage)
    monkeypatch.setattr(linalg, name, kernels._replace(**{stage: lambda *a: spy(kernel, *a)}))


@needs_evd
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d", [1, 2, PANEL_ROWS + 44, 700])
def test_eigendecompose_is_numpy_eigh_bit_for_bit(monkeypatch, dtype, d):
    """LAPACK's stages give np.linalg.eigh's energies and vectors to the
    bit, in C order, on a matrix larger than one panel; so does the
    fallback that runs without the symbols.  An H of entries near 1e-150
    or 1e150 goes through dsyevd's and zheevd's rescaling branch, which
    scales the copy's lower triangle into range and the energies back."""
    scaled = []
    stage_spy(monkeypatch, dtype, "lascl", lambda kernel, *a: scaled.append(a[5]) or kernel(*a))
    for size in (1.0, 1e-150, 1e150):
        m = HermitianMatrix(size * random_hermitian(d, dtype).entries)
        e, v = np.linalg.eigh(m.entries)
        before = len(scaled)
        s = eigendecompose(m)
        assert s.vectors.dtype == dtype and s.vectors.flags.c_contiguous
        assert np.array_equal(s.energies, e) and np.array_equal(s.vectors, v)
        assert len(scaled) - before == (d > 1 and size != 1.0)
        with monkeypatch.context() as fallback:
            fallback.setattr(linalg, "_DSYEVD", None)
            fallback.setattr(linalg, "_ZHEEVD", None)
            s = eigendecompose(m)
        assert np.array_equal(s.energies, e) and np.array_equal(s.vectors, v)


@needs_evd
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d", [2, PANEL_ROWS + 44])
def test_lapack_stages_leave_the_copys_upper_triangle(dtype, d):
    """The reduction, scaling included, works on the lower triangle: the
    copy's strict upper triangle is still H's after the stages."""
    for size in (1.0, 1e150):
        h = size * random_hermitian(d, dtype).entries
        a = np.array(h, order="F")
        linalg._lapack_eigh(linalg._ZHEEVD if dtype is np.complex128 else linalg._DSYEVD, a)
        assert np.array_equal(np.triu(a, 1), np.triu(h, 1))


def truncated_20_20() -> HermitianMatrix:
    block = resonant.enumerate_block(20, 20)
    return resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigendecompose_holds_at_most_three_copies(dtype):
    """At dim 627, (20,20) truncated and a random complex matrix: beyond H,
    eigendecompose holds at most 3 dim^2 entries (the copy, the
    eigenvectors and LAPACK's workspace), plus one panel of the checks."""
    m = truncated_20_20() if dtype is np.float64 else random_hermitian(627, dtype)
    d, size = m.dim, np.dtype(dtype).itemsize
    assert d == 627
    peak = traced_peak(lambda: eigendecompose(m))
    assert peak <= 3 * d * d * size + PANEL_ROWS * d * size


@needs_311
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigendecompose_frees_an_h_handed_over(dtype):
    """An H built in the call and handed over, as the CLI does it, is
    freed before LAPACK runs: with H counted, eigendecompose holds at most
    3 dim^2 entries plus one panel, at dim 627 as above."""
    if dtype is np.float64:
        make = truncated_20_20
    else:
        h = random_hermitian(627, dtype).entries

        def make():
            return HermitianMatrix(h.copy())
    d, size = 627, np.dtype(dtype).itemsize
    peak = traced_peak(lambda: eigendecompose(make()))
    assert peak <= 3 * d * d * size + PANEL_ROWS * d * size


@needs_evd
@needs_311
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("blocks", [False, True], ids=["one-block", "three-blocks"])
def test_h_is_gone_when_the_reduction_starts(monkeypatch, dtype, blocks):
    """H's array is freed before the first tridiagonal reduction, also
    when H is diagonalized block by block."""
    h = permuted_block_diagonal(dtype)[0] if blocks else random_hermitian(40, dtype).entries
    ref, alive = [], []
    stage_spy(monkeypatch, dtype, "trd", lambda kernel, *a: alive.append(ref[0]() is not None)
              or kernel(*a))

    def handed_over():
        entries = h.copy()
        ref.append(weakref.ref(entries))
        return HermitianMatrix(entries)

    s = eigendecompose(handed_over())
    assert alive == [False] * (3 if blocks else 1)
    e, v = np.linalg.eigh(h)
    assert blocks or (np.array_equal(s.energies, e) and np.array_equal(s.vectors, v))


def test_spectrum_check_covers_every_panel():
    d = PANEL_ROWS + 44
    Spectrum(np.arange(d, dtype=float), np.eye(d))
    v = np.eye(d)
    v[d - 1, d - 2] = 1e-6  # columns d-2 and d-1, both in the last panel, now overlap
    with pytest.raises(ValueError, match="not orthonormal"):
        Spectrum(np.arange(d, dtype=float), v)


def test_reconstruction_check_covers_every_panel(monkeypatch):
    """An energy off in the last panel fails the reconstruction, whose scale
    is the largest entry of H over all panels.  A coupling of 1e-13 between
    neighbours keeps H one block, so the check runs over H's panels."""
    d = PANEL_ROWS + 44
    h = np.diag(np.arange(d, dtype=float))
    h += np.diag(np.full(d - 1, 1e-13), 1) + np.diag(np.full(d - 1, 1e-13), -1)
    wrong = np.arange(d, dtype=float)
    wrong[-1] += 1e-3
    monkeypatch.setattr(linalg, "_DSYEVD", "a kernel")
    monkeypatch.setattr(linalg, "_lapack_eigh", lambda kernels, a: (wrong.copy(), np.eye(d)))
    with pytest.raises(ArithmeticError, match="reconstruct"):
        eigendecompose(HermitianMatrix(h))
    wrong[-1] = d - 1 + 1e-9 * (d - 1) / 2  # within the tolerance at the scale of H
    eigendecompose(HermitianMatrix(h))


@needs_evd
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_reconstruction_check_reads_the_copys_upper_triangle(monkeypatch, dtype):
    """The check reads H in the strict upper triangle of LAPACK's copy: one
    entry there changed after the stages, in the last row panel, fails
    it."""
    m = random_hermitian(PANEL_ROWS + 44, dtype)
    eigendecompose(m)
    lapack_eigh = linalg._lapack_eigh

    def corrupted(kernels, a):
        e, v = lapack_eigh(kernels, a)
        a[PANEL_ROWS, -1] += 1e-3
        return e, v

    monkeypatch.setattr(linalg, "_lapack_eigh", corrupted)
    with pytest.raises(ArithmeticError, match="reconstruct"):
        eigendecompose(m)


def permuted_block_diagonal(dtype, sizes=(5, 17, 9), seed=11) -> tuple:
    """A Hermitian direct sum of random blocks of the given sizes, its basis
    shuffled so that the blocks' states interleave, and the block of each
    state, numbered in the order of the blocks' first states."""
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    h = np.zeros((d, d), dtype)
    for b, k in enumerate(sizes):
        a = rng.standard_normal((k, k))
        if dtype is np.complex128:
            a = a + 1j * rng.standard_normal((k, k))
        states = np.flatnonzero(owner == b)
        h[np.ix_(states, states)] = (a + a.conj().T) / 2.0
    first = sorted(range(len(sizes)), key=lambda b: np.flatnonzero(owner == b)[0])
    return h, np.argsort(first)[owner]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigendecompose_splits_a_permuted_block_diagonal_matrix(dtype):
    """Three unequal decoupled blocks, their states interleaved: the energies
    are eigvalsh's, every eigenvector is exactly zero off its own block, and
    the spectrum carries each state's block."""
    h, labels = permuted_block_diagonal(dtype)
    s = eigendecompose(HermitianMatrix(h))
    assert s.vectors.dtype == dtype
    assert np.array_equal(s.blocks, labels)
    scale = np.abs(h).max()
    assert np.abs(s.energies - np.linalg.eigvalsh(h)).max() < 1e-12 * scale
    own = labels[np.abs(s.vectors).argmax(axis=0)]  # each eigenvector's block
    assert np.all(s.vectors[labels[:, None] != own] == 0.0)
    assert np.array_equal(np.bincount(own), np.bincount(labels))
    rebuilt = (s.vectors * s.energies) @ s.vectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-12 * scale


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigendecompose_checks_every_block(monkeypatch, dtype):
    """A wrong energy in one block of a block-diagonal H fails the
    reconstruction."""
    h, _ = permuted_block_diagonal(dtype)

    def wrong_in_the_9_block(kernels, a):
        e, v = np.linalg.eigh(a)
        if len(a) == 9:
            e[-1] += 1e-3
        return e, v

    monkeypatch.setattr(linalg, "_DSYEVD", "a kernel")
    monkeypatch.setattr(linalg, "_ZHEEVD", "a kernel")
    monkeypatch.setattr(linalg, "_lapack_eigh", wrong_in_the_9_block)
    with pytest.raises(ArithmeticError, match="reconstruct"):
        eigendecompose(HermitianMatrix(h))


def test_spectrum_checks_each_block():
    """Block labels are checked against V: an eigenvector with an entry in
    another block, a state relabelled into another block, or eigenvectors
    that are not orthonormal are refused."""
    h, labels = permuted_block_diagonal(np.float64)
    s = eigendecompose(HermitianMatrix(h))
    v = s.vectors * np.where(np.arange(labels.size) == labels.size - 1, 1.001, 1.0)
    with pytest.raises(ValueError, match="not orthonormal"):
        Spectrum(s.energies, v, labels)
    v = s.vectors.copy()
    own = labels[np.abs(v).argmax(axis=0)]
    j = int(np.flatnonzero(labels != own[0])[0])
    v[j, 0] = 1e-300
    with pytest.raises(ValueError, match="not zero off their blocks"):
        Spectrum(s.energies, v, labels)
    moved = labels.copy()
    moved[np.flatnonzero(labels == 0)[0]] = 1  # a state of block 0 relabeled
    with pytest.raises(ValueError):
        Spectrum(s.energies, s.vectors, moved)
    with pytest.raises(ValueError, match="block labels"):
        Spectrum(s.energies, s.vectors, labels[:-1])


def test_asymmetric_pattern_is_one_block():
    """An entry within the Hermiticity tolerance on one side only couples
    two blocks in one direction; H is then diagonalized whole, as
    np.linalg.eigh does it."""
    h, _ = permuted_block_diagonal(np.float64)
    i, j = 0, int(np.flatnonzero(h[0] == 0.0)[0])
    h[max(i, j), min(i, j)] = 1e-14  # lower triangle only
    m = HermitianMatrix(h)
    assert not linalg._block_labels(m.entries).any()
    s = eigendecompose(m)
    e, v = np.linalg.eigh(m.entries)
    assert not s.blocks.any()
    assert np.array_equal(s.energies, e) and np.array_equal(s.vectors, v)


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
