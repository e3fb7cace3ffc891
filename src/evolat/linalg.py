"""Hermitian matrices, spectra, and atomic file writes.

Energy spectra are kept in a normalized convention (zero mean, unit sum of
squares) so that complexity values computed from different Hamiltonians are
directly comparable.
"""

from __future__ import annotations

import copy
import ctypes
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
# rows of the panels that the checks on dim x dim arrays work through, so no
# temporary of a check is larger than a panel
PANEL_ROWS = 256


def numpy_blas_kernel(name: str, restype, *argtypes):
    """The function `name` of the OpenBLAS numpy runs on, typed for ctypes,
    or None.  numpy's wheels bundle the ILP64 scipy-openblas build
    (numpy.libs/libscipy_openblas64_*), and the symbol is looked up through
    numpy's own extension module, so it comes from the library numpy has
    loaded and from no other BLAS."""
    try:
        from numpy._core import _multiarray_umath

        kernel = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        return None
    kernel.argtypes = argtypes
    kernel.restype = restype
    return kernel


class _Evd(NamedTuple):
    """A divide and conquer eigensolver, queried for its workspace, and the
    routines it runs: the max-norm and scaling of its rescaling branch, the
    tridiagonal reduction, stedc and the back transformation."""

    evd: object
    lan: object
    lascl: object
    trd: object
    stedc: object
    mtr: object


def _lapacke(prefix: str, names: str, cplx: bool) -> _Evd | None:
    """The _work forms of LAPACKE's `names`, which take their workspace from
    the caller and pass column-major (102) input straight through; None
    when numpy's OpenBLAS lacks one of them."""
    c, i, p, f = ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lo = ctypes.c_int  # the matrix layout
    rwork = (p, i) if cplx else ()  # zheevd's and zstedc's real workspace
    signatures = (  # the return type, then the arguments
        (i, lo, c, c, i, p, i, p, p, i, *rwork, p, i),  # jobz uplo n a lda w work lwork iwork
        (f, lo, c, c, i, p, i, p),  # norm uplo n a lda work
        (i, lo, c, i, i, f, f, i, i, p, i),  # type kl ku cfrom cto m n a lda
        (i, lo, c, i, p, i, p, p, p, p, i),  # uplo n a lda d e tau work lwork
        (i, lo, c, i, p, p, p, i, p, i, *rwork, p, i),  # compz n d e z ldz work lwork iwork
        (i, lo, c, c, c, i, i, p, i, p, p, i, p, i),  # side uplo trans m n a lda tau c ldc work lwork
    )
    kernels = [numpy_blas_kernel(f"scipy_LAPACKE_{prefix}{name}_work64_", *sig)
               for name, sig in zip(names.split(), signatures)]
    return None if None in kernels else _Evd(*kernels)


# resolved once; None falls back to np.linalg.eigh
_DSYEVD = _lapacke("d", "syevd lansy lascl sytrd stedc ormtr", False)
_ZHEEVD = _lapacke("z", "heevd lanhe lascl hetrd stedc unmtr", True)
# dsyevd's and zheevd's range for max |H|, outside which they scale H into
# it: the square roots of safe minimum / precision (2^-1022 / 2^-52) and
# of its inverse
_RMIN, _RMAX = 2.0**-485, 2.0**485


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _float_dtype(a: np.ndarray):
    """complex128 for complex input, float64 for everything else."""
    return np.complex128 if np.iscomplexobj(a) else np.float64


def _hermiticity(m: np.ndarray) -> tuple:
    """max |m - m^dagger| and max(max |m|, 1) of a square float64 or
    complex128 m, PANEL_ROWS rows at a time, so no temporary is larger than
    a panel.  Refuses a non-finite m before it subtracts, as NaN would pass
    any tolerance."""
    panels = range(0, m.shape[0], PANEL_ROWS)
    scale = np.max([1.0] + [np.abs(m[r : r + PANEL_ROWS]).max() for r in panels])  # NaN stays NaN
    if not np.isfinite(scale):
        raise ValueError(f"matrix has a non-finite entry: max |H| = {scale}")
    return np.max([_panel_deviation(m, r) for r in panels]), scale


def _panel_deviation(m: np.ndarray, r: int) -> float:
    """max |m - m^dagger| over rows r:r+PANEL_ROWS, through one panel (plus
    the modulus's for complex m)."""
    work = m[:, r : r + PANEL_ROWS].T.copy()  # a ufunc would buffer the strided read
    np.subtract(m[r : r + PANEL_ROWS], np.conjugate(work, out=work), out=work)
    return _abs_max(work)


def _abs_max(work: np.ndarray) -> float:
    """max |work|, taken in place for a real work, which it overwrites."""
    return (np.abs(work) if np.iscomplexobj(work) else np.abs(work, out=work)).max()


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix with finite entries and H = H^dagger enforced at
    construction.

    Real input is kept as float64 (a real symmetric matrix), complex input
    as complex128, so a real Hamiltonian is diagonalized in real arithmetic.
    A float64 or complex128 array is kept as it is handed, not copied, and
    made read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
        m = m.astype(_float_dtype(m), copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev, scale = _hermiticity(m)
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}"
            )
        object.__setattr__(self, "entries", _read_only(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    energies are real and ascending; vectors holds the eigenvectors as
    columns, orthonormal to ORTHONORMALITY_TOL.  vectors is float64 when
    given real and complex128 when given complex.  blocks[j] labels the
    block of basis state j when the matrix is a direct sum of exactly
    decoupled blocks; then every eigenvector is exactly zero off its own
    block.  None, the default, is one block (every label 0).
    """

    energies: np.ndarray
    vectors: np.ndarray
    blocks: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.vectors)
        v = v.astype(_float_dtype(v), copy=False)
        lab = np.zeros(e.size, np.intp) if self.blocks is None else np.array(self.blocks, np.intp)
        if e.ndim != 1:
            raise ValueError("energies must be a vector")
        if v.shape != (e.size, e.size):
            raise ValueError(f"vectors shape {v.shape} does not match {e.size} energies")
        if lab.shape != e.shape:
            raise ValueError(f"{lab.size} block labels for {e.size} energies")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        if lab.any():
            _refuse_off_blocks(v, lab)
        dev = max(_gram_deviation(v, r) for r in range(0, e.size, PANEL_ROWS))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: deviation {dev:.3e}")
        object.__setattr__(self, "energies", _read_only(e))
        object.__setattr__(self, "vectors", _read_only(v))
        object.__setattr__(self, "blocks", _read_only(lab))

    @property
    def dim(self) -> int:
        return self.energies.size


def _gram_deviation(v: np.ndarray, r: int) -> float:
    """max |V^dagger V - I| over rows r:r+PANEL_ROWS."""
    g = v[:, r : r + PANEL_ROWS].conj().T @ v
    g.reshape(-1)[r :: v.shape[0] + 1] -= 1.0  # the identity's entries in these rows
    return np.abs(g).max()


def _refuse_off_blocks(v: np.ndarray, lab: np.ndarray) -> None:
    """Refuse a V whose columns are not each exactly zero off one block of
    the labels lab; each column's block is that of its largest entry.  With
    V orthonormal this also gives each block as many eigenvectors as states."""
    panels = range(0, lab.size, PANEL_ROWS)
    cols = lab[np.concatenate([np.abs(v[:, c : c + PANEL_ROWS]).argmax(axis=0) for c in panels])]
    if any(np.any(v[r : r + PANEL_ROWS], where=lab[r : r + PANEL_ROWS, None] != cols)
           for r in panels):
        raise ValueError("eigenvector columns are not zero off their blocks")


def _reconstruction_deviation(a: np.ndarray, diag: np.ndarray, v: np.ndarray, e: np.ndarray,
                              r: int) -> tuple:
    """(max |V diag(e) V^dagger - H|, max |H|) over rows r:r+PANEL_ROWS of
    the H whose strict upper triangle a holds and whose diagonal is diag.
    Both sides are conjugated, so V^dagger is read as V^T and never copied,
    and H's rows left of the diagonal are read down a's columns as they
    are."""
    d, rows = a.shape[0], slice(r, r + PANEL_ROWS)
    dev = (v[rows].conj() * e) @ v.T
    h = a[:, rows].T.copy()  # conj(H) left of the diagonal; a ufunc would buffer the strided read
    np.conjugate(a[rows], out=h, where=np.arange(d) > np.arange(d)[rows, None])
    h.reshape(-1)[r :: d + 1] = diag[rows].conj()
    dev -= h
    return _abs_max(dev), _abs_max(h)


def _run(kernel, *args) -> None:
    """Call a LAPACKE kernel on column-major arrays, passed by pointer."""
    info = kernel(102, *(x.ctypes.data if isinstance(x, np.ndarray) else x for x in args))
    if info != 0:
        raise np.linalg.LinAlgError(f"{kernel.__name__} failed (info {info})")


def _lapack_eigh(kernels: _Evd, a: np.ndarray) -> tuple:
    """(energies, vectors) of the Hermitian matrix whose lower triangle the
    column-major float64 or complex128 a holds, by the stages that dsyevd
    or zheevd run, with their rescaling and their split of the workspace
    they ask for, so both match np.linalg.eigh, which calls dsyevd or
    zheevd, bit for bit.  a's lower triangle and diagonal are overwritten
    and its strict upper triangle is left as it was.  The eigenvectors get
    an array of their own, which is returned in column-major order, where
    dsyevd and zheevd compute them in their workspace and copy them over
    a.  The reduction's workspace goes before they are allocated, so at
    most 3 dim^2 entries are held with a."""
    d, cplx = a.shape[0], np.iscomplexobj(a)
    if d == 1:  # dsyevd's and zheevd's own shortcut
        return a.real[0].copy(), np.ones_like(a)
    w, e, tau = np.empty(d), np.empty(d), np.empty(d, a.dtype)
    query = [np.zeros(1, kind) for kind in ((a.dtype, float, np.int64) if cplx else (float, np.int64))]
    _run(kernels.evd, b"V", b"L", d, a, d, w, *(x for q in query for x in (q, -1)))
    lwork, *rwork, liwork = (int(q[0].real) for q in query)
    # dsyevd's and zheevd's workspace holds tau (and e, in dsyevd's), then the
    # reduction's share, which past the eigenvectors' d^2 entries is stedc's and mtr's
    share = lwork - (d if cplx else 2 * d)
    anrm = kernels.lan(102, b"M", b"L", d, a.ctypes.data, d, None)
    sigma = _RMIN / anrm if 0.0 < anrm < _RMIN else _RMAX / anrm if anrm > _RMAX else None
    if sigma is not None:  # scale the lower triangle into range
        _run(kernels.lascl, b"L", 0, 0, 1.0, sigma, d, d, a, d)
    _run(kernels.trd, b"L", d, a, d, w, e, tau, np.empty(share, a.dtype), share)
    z = np.empty((d, d), a.dtype, order="F")
    work, iwork = np.empty(share - d * d, a.dtype), np.empty(liwork, np.int64)
    rwork = [np.empty(rwork[0] - d), rwork[0] - d] if cplx else []  # past e
    _run(kernels.stedc, b"I", d, w, e, z, d, work, work.size, *rwork, iwork, liwork)
    del rwork, iwork
    _run(kernels.mtr, b"L", b"L", b"N", d, d, a, d, tau, z, d, work, work.size)
    if sigma is not None:
        w *= 1.0 / sigma
    return w, z


def _block_labels(h: np.ndarray) -> np.ndarray:
    """The block of each basis state: the connected components of H's
    nonzero pattern, numbered from 0 in the order of their first state.
    Found breadth first, so each row of H is read once, PANEL_ROWS rows at
    a time.  A row that reaches a state of an earlier block means the
    pattern is not symmetric; H is then one block (every label 0)."""
    d = h.shape[0]
    lab = np.full(d, -1)
    count = 0
    for first in range(d):
        if lab[first] >= 0:
            continue
        lab[first], front = count, np.array([first])
        while front.size:
            reached = np.zeros(d, dtype=bool)
            for i in range(0, front.size, PANEL_ROWS):
                reached |= np.any(h[front[i : i + PANEL_ROWS]], axis=0)
            if np.any(reached & (lab >= 0) & (lab < count)):
                return np.zeros(d, np.intp)
            front = np.flatnonzero(reached & (lab < 0))
            lab[front] = count
        count += 1
    return lab


def _checked_eigh(kernels: _Evd | None, a: np.ndarray) -> tuple:
    """(energies, vectors, max |V diag(e) V^dagger - H|, max |H|) of the H
    whose column-major copy a is handed over, by LAPACK, or by
    np.linalg.eigh when kernels is None.  Both read a's lower triangle and
    leave its strict upper triangle as it was, so the check, over row
    panels, reads H there and on the saved diagonal.  a is freed before
    this returns."""
    diag = a.diagonal().copy()
    e, v = np.linalg.eigh(a) if kernels is None else _lapack_eigh(kernels, a)
    panels = [_reconstruction_deviation(a, diag, v, e, r) for r in range(0, a.shape[0], PANEL_ROWS)]
    return (e, v, *np.max(panels, axis=0))


def eigendecompose(matrix: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition, ascending eigenvalues; real eigenvectors for a
    real matrix.

    H is a direct sum of exactly decoupled blocks, the components of its
    nonzero pattern: one for a connected H, more for a Hamiltonian that
    conserves fermion parity.  Each block is copied once, column-major, and
    this drops its references to H once every block is gathered, before
    LAPACK runs, so an H handed over as a temporary, as in
    eigendecompose(model.hamiltonian()), is freed here (from CPython 3.11,
    where the caller keeps no reference to a call's arguments).  Each copy
    is reduced to tridiagonal form and its eigenvectors are computed
    beside it: at most 3 dim^2 entries (the copies, the eigenvectors and
    LAPACK's workspace), and the checks work in row panels.  The reduction
    leaves a copy's strict upper triangle as it was, and each block's
    reconstruction is checked against it and the largest entry of the
    whole H, as V diag(e) V^dagger and H are both zero off the blocks.  The
    energies are merged by a stable sort, V is exactly zero off the
    blocks, and the spectrum carries the block labels."""
    h = matrix.entries
    kernels = _ZHEEVD if np.iscomplexobj(h) else _DSYEVD
    lab = _block_labels(h)
    blocks = [np.flatnonzero(lab == b) for b in range(lab.max() + 1)]
    copies = [h.T[np.ix_(rows, rows)].T for rows in blocks]  # column-major, as gathered
    del matrix, h
    parts = [_checked_eigh(kernels, copies.pop(0)) for _ in blocks]  # each copy freed once checked
    dev, scale = np.max([part[2:] for part in parts], axis=0)
    e = np.concatenate([part[0] for part in parts])
    order = np.argsort(e, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)  # where each block's eigenvectors go in V
    v = np.zeros((lab.size, lab.size), parts[0][1].dtype)
    for rows, cols in zip(blocks, np.split(column, np.cumsum([b.size for b in blocks[:-1]]))):
        v[np.ix_(rows, cols)] = parts.pop(0)[1]  # each block's vectors freed once placed
    spec = Spectrum(e[order], v, lab)
    if dev > RECONSTRUCTION_TOL * max(scale, 1.0):
        raise ArithmeticError(f"eigendecomposition failed to reconstruct: {dev:.3e}")
    return spec


def normalize_energies(energies: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit sum of squares."""
    e = np.asarray(energies, dtype=float)
    e = e - e.mean()
    norm = np.sqrt(np.sum(e * e))
    if norm == 0.0:
        raise ValueError("spectrum is fully degenerate, cannot normalize")
    return e / norm


def normalize_spectrum(spectrum: Spectrum) -> Spectrum:
    """Same eigenvectors, energies shifted and scaled to the standard
    convention.  The vectors are not checked again, and a positive scale
    keeps the energies sorted."""
    out = copy.copy(spectrum)
    object.__setattr__(out, "energies", _read_only(normalize_energies(spectrum.energies)))
    return out


def atomic_write(path, *chunks) -> None:
    """Write str or bytes-like chunks to path through a temporary file in the
    same directory, renamed over path once complete: a failed write leaves
    the earlier file, if any, as it was and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
