"""Majorana-fermion (SYK-type) Hamiltonians on n modes.

The Clifford algebra {psi_i, psi_j} = delta_ij is realized by a Jordan-Wigner
chain of Pauli matrices on n/2 qubits, so psi_i^2 = 1/2 and the Hilbert space
has dimension 2^(n/2).  On top of the free quadratic model the module builds
an integrable deformation (commuting number-like charges J3_p) and chaotic
three- and four-body deformations with Gaussian couplings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg

from .engine import block_rows, real_block
from .linalg import HermitianMatrix, Spectrum

MAX_MODES = 28

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class CliffordRep:
    """Hermitian Majorana matrices psi_i with {psi_i, psi_j} = delta_ij."""

    n_modes: int
    psis: tuple

    @property
    def dim(self) -> int:
        return self.psis[0].shape[0]


def build_clifford(n_modes: int) -> CliffordRep:
    if n_modes % 2 != 0 or n_modes < 2:
        raise ValueError(f"need an even number of modes >= 2, got {n_modes}")
    if n_modes > MAX_MODES:
        raise ValueError(f"{n_modes} modes exceeds the {MAX_MODES}-mode guard")
    qubits = n_modes // 2
    psis = []
    for p in range(qubits):
        for letter in (_PAULI_X, _PAULI_Y):
            m = np.array([[1.0]], dtype=np.complex128)
            for q in range(qubits):
                if q < p:
                    factor = _PAULI_Z
                elif q == p:
                    factor = letter
                else:
                    factor = np.eye(2, dtype=np.complex128)
                m = np.kron(m, factor)
            m /= np.sqrt(2.0)
            m.flags.writeable = False
            psis.append(m)
    return CliffordRep(n_modes, tuple(psis))


def free_syk(rep: CliffordRep, j2: np.ndarray) -> HermitianMatrix:
    """H = i sum_{ij} J_ij psi_i psi_j with antisymmetric J."""
    j = np.asarray(j2, dtype=float)
    n = rep.n_modes
    if j.shape != (n, n):
        raise ValueError(f"coupling matrix shape {j.shape}, expected {(n, n)}")
    if np.abs(j + j.T).max() > 1e-12 * max(1.0, np.abs(j).max()):
        raise ValueError("quadratic couplings must be antisymmetric")
    h = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
    for a, b in itertools.combinations(range(n), 2):
        h += (2.0j * j[a, b]) * (rep.psis[a] @ rep.psis[b])
    return HermitianMatrix(h)


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
    t, z = scipy.linalg.schur(j, output="real")
    tol = 1e-10 * scale
    pairs = []
    singles = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i, i + 1]) > tol:
            w = t[i, i + 1]
            if w >= 0:
                pairs.append((w, z[:, i].copy(), z[:, i + 1].copy()))
            else:
                pairs.append((-w, z[:, i + 1].copy(), z[:, i].copy()))
            i += 2
        else:
            singles.append(z[:, i].copy())
            i += 1
    for a, b in zip(singles[0::2], singles[1::2]):
        pairs.append((0.0, a, b))
    pairs.sort(key=lambda p: -p[0])
    omegas = np.array([p[0] for p in pairs])
    v = np.empty((n, n))
    for p, (_, a, b) in enumerate(pairs):
        v[:, 2 * p] = a
        v[:, 2 * p + 1] = b
    if np.abs(v @ v.T - np.eye(n)).max() > 1e-10:
        raise ArithmeticError("canonical rotation lost orthogonality")
    d = np.zeros((n, n))
    for p, w in enumerate(omegas):
        d[2 * p, 2 * p + 1] = w
        d[2 * p + 1, 2 * p] = -w
    if np.abs(v @ d @ v.T - j).max() > 1e-10 * scale:
        raise ArithmeticError("canonical form failed to reconstruct input")
    return omegas, v


def extract_omegas(j2: np.ndarray) -> np.ndarray:
    """Positive block coefficients of the canonical form, descending."""
    return antisymmetric_canonical_form(j2)[0]


def _rotated_majoranas(rep: CliffordRep, frame: np.ndarray | None):
    if frame is None:
        return list(rep.psis)
    v = np.asarray(frame, dtype=float)
    n = rep.n_modes
    if v.shape != (n, n):
        raise ValueError("frame must be an n x n orthogonal matrix")
    return [sum(v[j, i] * rep.psis[j] for j in range(n)) for i in range(n)]


def charge_operators(rep: CliffordRep, frame: np.ndarray | None = None) -> list:
    """J3_p = 2i Psi_{2p-1} Psi_{2p}: commuting charges squaring to one."""
    psis = _rotated_majoranas(rep, frame)
    return [
        2.0j * (psis[2 * p] @ psis[2 * p + 1]) for p in range(rep.n_modes // 2)
    ]


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
    over sign vectors s in {-1, 1}^(n/2).
    """
    w = np.asarray(omegas, dtype=float)
    m = np.asarray(pair_couplings, dtype=float)
    half = rep.n_modes // 2
    if w.shape != (half,):
        raise ValueError(f"need {half} block coefficients, got shape {w.shape}")
    if m.shape != (half, half):
        raise ValueError(f"pair couplings must be {half} x {half}")
    j3 = charge_operators(rep, frame)
    h = sum(w[p] * j3[p] for p in range(half))
    for p, q in itertools.combinations(range(half), 2):
        h = h + (epsilon * m[p, q]) * (j3[p] @ j3[q])
    return HermitianMatrix(h)


def chaotic_syk(
    rep: CliffordRep,
    j2: np.ndarray,
    many_body: np.ndarray,
    epsilon: float,
    body: int = 4,
) -> HermitianMatrix:
    """Free model plus eps times a 3- or 4-body interaction.

    many_body holds one coupling per index combination, ordered as
    itertools.combinations(range(n), body).
    """
    if body not in (3, 4):
        raise ValueError(f"body must be 3 or 4, got {body}")
    n = rep.n_modes
    vals = np.asarray(many_body, dtype=float)
    combos = list(itertools.combinations(range(n), body))
    if vals.shape != (len(combos),):
        raise ValueError(f"expected {len(combos)} couplings, got shape {vals.shape}")
    pair = {}
    for a, b in itertools.combinations(range(n), 2):
        pair[(a, b)] = rep.psis[a] @ rep.psis[b]
    h = free_syk(rep, j2).entries.copy()
    if body == 4:
        for val, (a, b, c, d) in zip(vals, combos):
            h += (epsilon * val) * (pair[(a, b)] @ pair[(c, d)])
    else:
        for val, (a, b, c) in zip(vals, combos):
            h += (1.0j * epsilon * val) * (pair[(a, b)] @ rep.psis[c])
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
    count = len(list(itertools.combinations(range(n), body)))
    var = 6.0 / n**3 if body == 4 else 2.0 / n**2
    return rng.normal(0.0, np.sqrt(var), size=count)


def monomial_matrix(rep: CliffordRep, indices: tuple) -> np.ndarray:
    """Normalized Hermitian Majorana monomial: Tr[T_a T_b] = delta_ab.

    indices is a strictly increasing tuple; the empty tuple gives the
    normalized identity.
    """
    w = len(indices)
    if any(indices[i] >= indices[i + 1] for i in range(w - 1)):
        raise ValueError("indices must be strictly increasing")
    m = np.eye(rep.dim, dtype=np.complex128)
    for i in indices:
        m = m @ rep.psis[i]
    phase = 1.0j if (w * (w - 1) // 2) % 2 else 1.0
    scale = 2.0 ** (0.5 * w - 0.25 * rep.n_modes)
    return phase * scale * m


@dataclass(frozen=True)
class MonomialClassifier:
    """Local operators = Majorana monomials of weight <= threshold.

    The identity (weight 0) is excluded by default, matching the restriction
    of the evolution to the special-unitary group; set include_identity to
    lift that.
    """

    rep: CliffordRep
    threshold: int
    include_identity: bool = False

    def __post_init__(self):
        if not (1 <= self.threshold <= self.rep.n_modes):
            raise ValueError(f"threshold must be in [1, {self.rep.n_modes}]")

    def local_subsets(self):
        start = 0 if self.include_identity else 1
        for w in range(start, self.threshold + 1):
            yield from itertools.combinations(range(self.rep.n_modes), w)

    def local_diagonals(self, spectrum: Spectrum) -> Iterator[np.ndarray]:
        """Real blocks of monomial diagonals <n|T|n>, a chunk of monomials
        per block; each diagonal's imaginary part is checked before it is
        dropped."""
        if spectrum.dim != self.rep.dim:
            raise ValueError("spectrum dimension does not match representation")
        v = spectrum.vectors
        vc = v.conj()
        rows = block_rows(spectrum.dim, 8)
        subsets = self.local_subsets()
        while chunk := list(itertools.islice(subsets, rows)):
            z = np.empty((len(chunk), spectrum.dim))
            for i, subset in enumerate(chunk):
                t = monomial_matrix(self.rep, subset)
                z[i] = real_block(np.einsum("in,in->n", vc, t @ v))
            yield z


def syk_locality_classifier(
    rep: CliffordRep, threshold: int, include_identity: bool = False
) -> MonomialClassifier:
    return MonomialClassifier(rep, threshold, include_identity)
