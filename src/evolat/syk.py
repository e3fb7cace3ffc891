"""Majorana-fermion (SYK-type) Hamiltonians on n modes.

The Clifford algebra {psi_i, psi_j} = delta_ij is realized by a Jordan-Wigner
chain on n/2 qubits, so psi_i^2 = 1/2 and the Hilbert space has dimension
2^(n/2).  Each psi_i, and so each product of them, is a Pauli string
c X^x Z^z with bit masks x, z over the qubits (qubit 0 the highest bit); only
Hamiltonians are dense.  On top of the free quadratic model the module builds
an integrable deformation (commuting number-like charges J3_p) and chaotic
three- and four-body deformations with Gaussian couplings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import engine
from .linalg import HermitianMatrix, Spectrum

# Refuse, before allocating it, a dense Hamiltonian whose build and eigh
# working set (about eight complex D x D arrays) would exceed this.
DENSE_BYTES_LIMIT = 4 * 2**30
_IMAG_TOL = 1e-8  # an imaginary part of a diagonal up to this is roundoff


@dataclass(frozen=True)
class CliffordRep:
    """psi_i = phase_i X^x_i Z^z_i / sqrt(2) with {psi_i, psi_j} = delta_ij,
    where (X^x Z^z)|k> = (-1)^popcount(z & k) |k ^ x>."""

    n_modes: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << (self.n_modes // 2)


def build_clifford(n_modes: int) -> CliffordRep:
    if n_modes % 2 != 0 or not 2 <= n_modes <= 124:
        raise ValueError(f"need an even number of modes in [2, 124] (int64 masks), got {n_modes}")
    qubits = n_modes // 2
    bit = np.left_shift(1, np.arange(qubits - 1, -1, -1, dtype=np.int64))
    z = np.repeat(np.cumsum(bit) - bit, 2)  # Z on every earlier qubit
    z[1::2] |= bit  # psi_2p carries X, psi_2p+1 carries Y = i X Z on qubit p
    rep = CliffordRep(n_modes, np.repeat(bit, 2), z, np.tile([1.0, 1.0j], qubits))
    for a in (rep.x, rep.z, rep.phase):
        a.flags.writeable = False
    return rep


def string_product(a: tuple, b: tuple) -> tuple:
    """(x, z, phase) of (c X^x Z^z)(c' X^x' Z^z'), elementwise over arrays:
    moving Z^z past X^x' gives (-1)^popcount(z & x')."""
    (x, z, c), (x2, z2, c2) = a, b
    return x ^ x2, z ^ z2, c * c2 * (1.0 - 2.0 * (np.bitwise_count(z & x2) & 1))


def _products(rep: CliffordRep, modes: np.ndarray) -> tuple:
    """(x, z, phase) of 2^(w/2) psi_i1 ... psi_iw for each row of modes."""
    m = modes.shape[0]
    acc = (np.zeros(m, np.int64), np.zeros(m, np.int64), np.ones(m, np.complex128))
    for col in modes.T:
        acc = string_product(acc, (rep.x[col], rep.z[col], rep.phase[col]))
    return acc


def _combinations(n: int, w: int) -> np.ndarray:
    """itertools.combinations(range(n), w) as the rows of an array."""
    count = math.comb(n, w)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), w))
    return np.fromiter(flat, np.intp, count * w).reshape(count, w)


def _signs(z: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(-1)^popcount(z_t & c), one row per mask z_t and one column per c."""
    return 1.0 - 2.0 * (np.bitwise_count(z[:, None] & cols) & 1)


def _distinct(x: np.ndarray) -> list:
    """The distinct x masks, ascending.  (np.unique would import numpy.ma,
    about 15 ms, on its first call.)"""
    return sorted(set(x.tolist()))


def check_dense(rep: CliffordRep) -> None:
    """Raise ValueError when the dense Hamiltonian of rep and its eigh need
    more than DENSE_BYTES_LIMIT bytes; D alone decides, so a caller can ask
    before anything of size D x D exists."""
    d = rep.dim
    need = 8 * 16 * d * d
    if need > DENSE_BYTES_LIMIT:
        raise ValueError(
            f"n = {rep.n_modes} modes: the dense D = {d} Hamiltonian and its eigh need "
            f"about {need} bytes, above DENSE_BYTES_LIMIT = {DENSE_BYTES_LIMIT}")


def _scatter(rep: CliffordRep, x: np.ndarray, z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Dense sum_t coeff_t X^x_t Z^z_t.  Entry [k, k ^ x] of X^x Z^z is
    (-1)^popcount(z & (k ^ x)), so strings sharing an x are one product."""
    check_dense(rep)
    d = rep.dim
    h = np.zeros((d, d), dtype=np.complex128)
    k = np.arange(d)
    for mask in _distinct(x):
        group, cols = np.flatnonzero(x == mask), k ^ mask
        h[k, cols] += coeff[group] @ _signs(z[group], cols)  # (k, cols) never repeats
    return h


def free_syk(rep: CliffordRep, j2: np.ndarray) -> HermitianMatrix:
    """H = i sum_{ij} J_ij psi_i psi_j with antisymmetric J."""
    j = np.asarray(j2, dtype=float)
    n = rep.n_modes
    if j.shape != (n, n):
        raise ValueError(f"coupling matrix shape {j.shape}, expected {(n, n)}")
    if np.abs(j + j.T).max() > 1e-12 * max(1.0, np.abs(j).max()):
        raise ValueError("quadratic couplings must be antisymmetric")
    a, b = np.triu_indices(n, 1)
    x, z, phase = _products(rep, np.stack([a, b], axis=1))
    # 2i J_ab psi_a psi_b, with a factor 1/2 from the two Majoranas
    return HermitianMatrix(_scatter(rep, x, z, 1j * j[a, b] * phase))


def antisymmetric_canonical_form(j2: np.ndarray):
    """Rotate a real antisymmetric matrix to 2x2 blocks [[0, w], [-w, 0]].

    Returns (omegas, v) with omegas >= 0 sorted descending and
    j2 = v @ blockdiag(omegas) @ v.T, v orthogonal.
    """
    j = np.asarray(j2, dtype=float)
    n = j.shape[0]
    if j.shape != (n, n) or n % 2 != 0:
        raise ValueError("expected an even-dimensional square matrix")
    scale = max(np.abs(j).max(), 1.0)
    if np.abs(j + j.T).max() > 1e-12 * scale:
        raise ValueError("matrix must be antisymmetric")
    # iJ is Hermitian: an eigenvector x + iy at w > 0 has J x = w y, J y = -w x,
    # and is orthogonal to its conjugate at -w, so |x| = |y| = 1/sqrt(2), x . y = 0
    w, u = np.linalg.eigh(1j * j)
    pos = int(np.count_nonzero(w > 1e-10 * scale))
    top = np.arange(n - 1, n - 1 - pos, -1)  # the positive eigenvalues, descending
    v = np.empty((n, n))
    v[:, 0 : 2 * pos : 2] = np.sqrt(2.0) * u[:, top].imag
    v[:, 1 : 2 * pos : 2] = np.sqrt(2.0) * u[:, top].real
    null = u[:, pos : n - pos]  # J's null space is the real span of their parts
    if null.size:
        basis = np.linalg.svd(np.hstack([null.real, null.imag]), full_matrices=False)[0]
        v[:, 2 * pos :] = basis[:, : n - 2 * pos]
    omegas = np.concatenate([w[top], np.zeros(n // 2 - pos)])
    if np.abs(v @ v.T - np.eye(n)).max() > 1e-10:
        raise ArithmeticError("canonical rotation lost orthogonality")
    d = np.zeros((n, n))
    even = np.arange(0, n, 2)
    d[even, even + 1] = omegas
    d[even + 1, even] = -omegas
    if np.abs(v @ d @ v.T - j).max() > 1e-10 * scale:
        raise ArithmeticError("canonical form failed to reconstruct input")
    return omegas, v


def _charge_couplings(rep: CliffordRep, frame: np.ndarray | None) -> list:
    """J^p with J3_p = 2i Psi_2p Psi_2p+1 = 2i sum_{a<b} J^p_ab psi_a psi_b for
    Psi_i = sum_j frame[j, i] psi_j; the identity part, half the dot product
    of frame columns 2p and 2p+1, is zero for an orthogonal frame."""
    n = rep.n_modes
    v = np.eye(n) if frame is None else np.asarray(frame, dtype=float)
    if v.shape != (n, n):
        raise ValueError("frame must be an n x n orthogonal matrix")
    return [np.outer(v[:, 2 * p], v[:, 2 * p + 1]) - np.outer(v[:, 2 * p + 1], v[:, 2 * p])
            for p in range(n // 2)]


def integrable_syk(
    rep: CliffordRep,
    omegas: np.ndarray,
    pair_couplings: np.ndarray,
    epsilon: float,
    frame: np.ndarray | None = None,
) -> HermitianMatrix:
    """H = sum_p w_p J3_p + eps sum_{p<q} M_pq J3_p J3_q.

    Every term commutes with every J3_p, so the model is integrable for any
    pair couplings; the spectrum is sum_p s_p w_p + eps sum_{p<q} M_pq s_p s_q
    over sign vectors s in {-1, 1}^(n/2).  J3 is linear in its couplings, so
    sum_{q>p} M_pq J3_q is one quadratic form.
    """
    w = np.asarray(omegas, dtype=float)
    m = np.asarray(pair_couplings, dtype=float)
    half = rep.n_modes // 2
    if w.shape != (half,):
        raise ValueError(f"need {half} block coefficients, got shape {w.shape}")
    if m.shape != (half, half):
        raise ValueError(f"pair couplings must be {half} x {half}")
    js = _charge_couplings(rep, frame)
    h = free_syk(rep, sum(w[p] * js[p] for p in range(half))).entries.copy()
    for p in range(half - 1):
        tail = sum(m[p, q] * js[q] for q in range(p + 1, half))
        h += epsilon * (free_syk(rep, js[p]).entries @ free_syk(rep, tail).entries)
    return HermitianMatrix(h)


def chaotic_syk(
    rep: CliffordRep,
    j2: np.ndarray,
    many_body: np.ndarray,
    epsilon: float,
    body: int = 4,
) -> HermitianMatrix:
    """Free model plus eps sum J_abcd psi_a psi_b psi_c psi_d (4-body) or
    i eps sum J_abc psi_a psi_b psi_c (3-body).

    many_body holds one coupling per index combination, ordered as
    itertools.combinations(range(n), body).
    """
    if body not in (3, 4):
        raise ValueError(f"body must be 3 or 4, got {body}")
    vals = np.asarray(many_body, dtype=float)
    count = math.comb(rep.n_modes, body)
    if vals.shape != (count,):
        raise ValueError(f"expected {count} couplings, got shape {vals.shape}")
    h = free_syk(rep, j2).entries.copy()
    x, z, phase = _products(rep, _combinations(rep.n_modes, body))
    scale = 0.25 if body == 4 else 1j * 2.0**-1.5  # 2^(-body/2), and i for 3-body
    h += _scatter(rep, x, z, epsilon * scale * vals * phase)
    return HermitianMatrix(h)


def sample_quadratic_couplings(n: int, rng: np.random.Generator) -> np.ndarray:
    """Antisymmetric Gaussian couplings, variance 1/n per entry."""
    a = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n))
    return (a - a.T) / np.sqrt(2.0)

def sample_pair_couplings(n: int, rng: np.random.Generator) -> np.ndarray:
    """Charge-charge couplings M_pq, variance 3!/n^3 (strictly upper used)."""
    half = n // 2
    return rng.normal(0.0, np.sqrt(6.0 / n**3), size=(half, half))


def sample_many_body_couplings(n: int, body: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian couplings per combination: variance 3!/n^3 for 4-body,
    2!/n^2 for 3-body (unit overall scale)."""
    var = 6.0 / n**3 if body == 4 else 2.0 / n**2
    return rng.normal(0.0, np.sqrt(var), size=math.comb(n, body))


def _real_block(z: np.ndarray) -> np.ndarray:
    """The real part of a block of diagonals of Hermitian operators, after
    checking that its imaginary part is roundoff."""
    imag = float(np.abs(z.imag).max())
    if imag > _IMAG_TOL:
        raise ArithmeticError(
            f"local operator diagonals have imaginary part {imag:.3e}; "
            "the local operators are not Hermitian"
        )
    return z.real


def monomial_strings(rep: CliffordRep, modes: np.ndarray) -> tuple:
    """Normalized Hermitian monomials T = h_w 2^(w/2 - n/4) psi_i1 ... psi_iw,
    Tr[T_a T_b] = delta_ab, h_w = i when w(w-1)/2 is odd, as (x, z, c) with
    T = c X^x Z^z; one per row (i_1 < ... < i_w) of modes, width 0 the identity.
    """
    modes = np.asarray(modes, dtype=np.intp)
    if modes.ndim != 2 or np.any(np.diff(modes, axis=1) <= 0):
        raise ValueError("modes must be rows of strictly increasing indices")
    x, z, phase = _products(rep, modes)
    w = modes.shape[1]
    herm = 1.0j if w * (w - 1) // 2 % 2 else 1.0
    return x, z, herm * 2.0 ** (-rep.n_modes / 4) * phase


@dataclass(frozen=True)
class MonomialClassifier:
    """Local operators = Majorana monomials of weight 1 to threshold.

    The identity (weight 0) is excluded, matching the restriction of the
    evolution to the special-unitary group.
    """

    rep: CliffordRep
    threshold: int

    def __post_init__(self):
        if not (1 <= self.threshold <= self.rep.n_modes):
            raise ValueError(f"threshold must be in [1, {self.rep.n_modes}]")

    def local_diagonals(self, spectrum: Spectrum) -> Iterator[np.ndarray]:
        """Real blocks of monomial diagonals <n|T|n>, one row per monomial
        whose mask keeps some state in its block: by x mask ascending, then
        by weight and itertools.combinations order.

        T = c X^x Z^z gives <n|T|n> = c sum_j (-1)^popcount(z & j) A_x[j, n],
        A_x[j, n] = conj(v[j ^ x, n]) v[j, n], so the rows of the monomials
        sharing an x are one product with A_x, gathered from one conj(V)
        into one buffer.  A mask that takes every basis state to another of
        the spectrum's blocks (an odd one, for a Hamiltonian that conserves
        fermion parity) has A_x = 0 exactly: its diagonals are zero and it
        yields no rows.  Each diagonal's imaginary part is checked before it
        is dropped.
        """
        if spectrum.dim != self.rep.dim:
            raise ValueError("spectrum dimension does not match representation")
        modes = [_combinations(self.rep.n_modes, w) for w in range(1, self.threshold + 1)]
        x, z, c = map(np.concatenate, zip(*(monomial_strings(self.rep, m) for m in modes)))
        order = np.argsort(x, kind="stable")
        d, v, j, lab = spectrum.dim, spectrum.vectors, np.arange(spectrum.dim), spectrum.blocks
        conj_v = np.conjugate(v, dtype=np.complex128)
        a = np.empty((d, d), np.complex128)
        rows = engine.Q_BLOCK_ROWS
        block, fill = None, 0
        for group in np.split(order, np.flatnonzero(np.diff(x[order])) + 1):
            flip = j ^ x[group[0]]
            if np.all(lab[flip] != lab):
                continue
            np.take(conj_v, flip, axis=0, out=a, mode="clip")
            a *= v
            while group.size:
                if block is None:  # allocated only once the last one is released
                    block = np.empty((rows, d))
                part, group = group[: rows - fill], group[rows - fill:]
                # (d, 2d) reals: one real product gives both parts
                diag = (_signs(z[part], j) @ a.view(np.float64)).view(np.complex128)
                block[fill : fill + part.size] = _real_block(c[part, None] * diag)
                fill += part.size
                if fill == rows:
                    yield block
                    block, fill = None, 0
        if fill:
            yield block[:fill]
