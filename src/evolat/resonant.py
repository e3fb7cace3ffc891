"""Resonant bosonic systems on blocks of fixed particle number and level.

The Hamiltonian H = 1/2 sum C_nmkl a+_n a+_m a_k a_l, with n + m = k + l,
conserves both particle number N and total level M = sum n eta_n, so it
splits into finite blocks labeled by (N, M).  Block states are occupation
vectors of modes 0..M, in bijection with partitions of M into at most N
parts; the block dimension is the restricted partition count p_N(M).

Coupling schemes: gg (all ones), truncated (one index must be zero), alpha
and delta (gg plus a bilinear shift counting zero-mode particles), and a
seeded random scheme.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import engine
from .linalg import HermitianMatrix, Spectrum

MAX_BLOCK_STATES = 20_000
# rows of the locality table per step: as fast as larger steps from 8 rows up
# (0.02 s at dim = 627, 0.12 s at dim = 1575, 0.8 s at dim = 3718)
LOCALITY_ROWS = 16


def partition_count(n_particles: int, total_level: int) -> int:
    """Number of partitions of total_level into at most n_particles parts."""
    if total_level == 0:
        return 1
    if n_particles == 0:
        return 0
    # partitions into at most N parts = partitions into parts of size <= N
    ways = np.zeros(total_level + 1, dtype=object)
    ways[0] = 1
    for part in range(1, min(n_particles, total_level) + 1):
        for m in range(part, total_level + 1):
            ways[m] += ways[m - part]
    return int(ways[total_level])


def _partitions_desc(total: int, max_part: int, max_parts: int):
    """Partitions in decreasing lexicographic order, largest part first."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_desc(total - first, first, max_parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class FockBlock:
    """All occupation states with fixed particle number and total level."""

    n_particles: int
    total_level: int
    states: tuple

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupations(self) -> np.ndarray:
        return np.array(self.states, dtype=np.int64)


def enumerate_block(n_particles: int, total_level: int) -> FockBlock:
    """Deterministic block enumeration.

    States are ordered by their partition representation in decreasing
    lexicographic order; each occupation vector covers modes 0..M.
    """
    if n_particles < 0 or total_level < 0:
        raise ValueError("block labels must be non-negative")
    count = partition_count(n_particles, total_level)
    if count == 0:
        raise ValueError(
            f"no states with {n_particles} particles at total level {total_level}"
        )
    if count > MAX_BLOCK_STATES:
        raise ValueError(
            f"block ({n_particles}, {total_level}) has {count} states, "
            f"exceeding the {MAX_BLOCK_STATES}-state guard"
        )
    states = []
    for parts in _partitions_desc(total_level, total_level, n_particles):
        occ = [0] * (total_level + 1)
        for p in parts:
            occ[p] += 1
        occ[0] = n_particles - len(parts)
        states.append(tuple(occ))
    return FockBlock(n_particles, total_level, tuple(states))


@dataclass(frozen=True)
class CouplingScheme:
    """Quartic coupling table C_nmkl plus an optional diagonal shift.

    kind is one of gg, truncated, alpha, delta, random.  The random table is
    sampled per ordered quadruple from uniform(0, 1) and then averaged over
    the index symmetries of a Hermitian real coupling.
    """

    kind: str
    alpha: float = 0.0
    delta_coeff: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("gg", "truncated", "alpha", "delta", "random"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random couplings need a seed")
        object.__setattr__(self, "_tables", {})

    def _random_table(self, max_level: int) -> dict:
        table = self._tables.get(max_level)
        if table is not None:
            return table
        rng = np.random.default_rng(self.seed)
        quads = [
            (n, s - n, k, s - k)
            for s in range(max_level + 1)
            for n in range(s + 1)
            for k in range(s + 1)
        ]
        raw = dict(zip(quads, rng.uniform(0.0, 1.0, size=len(quads))))
        table = {}
        for q in quads:
            n, m, k, l = q
            orbit = {
                (n, m, k, l), (m, n, k, l), (n, m, l, k), (m, n, l, k),
                (k, l, n, m), (l, k, n, m), (k, l, m, n), (l, k, m, n),
            }
            table[q] = float(np.mean([raw[img] for img in orbit]))
        self._tables[max_level] = table
        return table

    def quartic(self, n: int, m: int, k: int, l: int, max_level: int) -> float:
        if self.kind == "truncated":
            return 1.0 if min(n, m, k, l) == 0 else 0.0
        if self.kind == "random":
            return self._random_table(max_level)[(n, m, k, l)]
        return 1.0  # gg, alpha, delta share the constant quartic part

    def diagonal_shift(self, block: FockBlock) -> np.ndarray:
        """Extra diagonal, in units of the zero-mode occupation."""
        eta0 = np.array([s[0] for s in block.states], dtype=float)
        if self.kind == "alpha":
            return self.alpha * eta0
        if self.kind == "delta":
            return self.delta_coeff * block.total_level * eta0
        return np.zeros(block.dim)


def build_block_hamiltonian(block: FockBlock, scheme: CouplingScheme) -> HermitianMatrix:
    """Block matrix of H in the occupation basis.

    Annihilating two occupied modes k, l of a block state always satisfies
    k + l <= M, so creation never leaves the 0..M mode range.  Each term
    (k <= l, n) acts on all states at once, finding targets by integer key;
    every entry sums its terms in (k, l, n) order, as a loop over states.
    """
    m_lvl, d = block.total_level, block.dim
    occ = block.occupations()
    # keys: occupations times powers of an odd 64-bit constant, wrapping around
    weights = np.cumprod(np.full(m_lvl + 1, 0x9E3779B97F4A7C15, dtype=np.uint64)).view(np.int64)
    keys = occ @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ArithmeticError(f"occupation keys collide in block ({block.n_particles}, {m_lvl})")
    cells, terms = [], []
    for k in range(m_lvl // 2 + 1):
        for l in range(k, m_lvl - k + 1):
            b = np.flatnonzero(occ[:, k] >= 2 if k == l else (occ[:, k] > 0) & (occ[:, l] > 0))
            # zero terms are skipped: adding ±0.0 changes no entry, none being -0.0
            quads = [(n, k + l - n, c) for n in range((k + l) // 2 + 1)
                     if (c := scheme.quartic(n, k + l - n, k, l, m_lvl)) != 0.0]
            if not (quads and b.size):
                continue
            n, m, c = (np.array(col) for col in zip(*quads))
            amp_ann = np.sqrt(occ[b, k] * (occ[b, l] - float(k == l)))
            mid_n = occ[np.ix_(b, n)] - (n == k) - (n == l) + 1.0
            mid_m = occ[np.ix_(b, m)] - (m == k) - (m == l) + 1.0
            amp_cre = np.sqrt(mid_n * np.where(n == m, mid_n + 1.0, mid_m))
            coeff = 0.5 * ((2 - (n == m)) * (2 - (k == l))) * c
            terms.append((coeff * amp_ann[:, None] * amp_cre).ravel())
            step = weights[n] + weights[m] - weights[k] - weights[l]
            a = order[np.searchsorted(sorted_keys, keys[b, None] + step)]
            cells.append((a * d + b[:, None]).ravel())
    h = np.zeros((d, d))
    if terms:
        np.add.at(h.reshape(-1), np.concatenate(cells), np.concatenate(terms))
    h.flat[:: d + 1] += scheme.diagonal_shift(block)
    return HermitianMatrix(h)


class _MinCharge:
    """The scheme behind min_coupling_operator: C_nmkl = min(n, m, k, l) and
    half of the diagonal sum of k^2 eta_k."""

    @staticmethod
    def quartic(n: int, m: int, k: int, l: int, max_level: int) -> float:
        return float(min(n, m, k, l))

    @staticmethod
    def diagonal_shift(block: FockBlock) -> np.ndarray:
        return 0.5 * (block.occupations() @ np.arange(block.total_level + 1) ** 2)


def min_coupling_operator(block: FockBlock) -> HermitianMatrix:
    """Quartic operator with couplings min(n, m, k, l) over nonzero modes,
    plus the diagonal sum of k^2 eta_k: twice the Hamiltonian of _MinCharge.

    Commutes with the gg, truncated, alpha and delta Hamiltonians on every
    block and has an integer spectrum; a generic random scheme breaks it.
    """
    return HermitianMatrix(2.0 * build_block_hamiltonian(block, _MinCharge).entries)


def locality_table(block: FockBlock) -> np.ndarray:
    """Pairwise locality of all block states (symmetric within a block), in
    the smallest signed integer type that holds the particle number.  Rows
    are computed LOCALITY_ROWS at a time, through one difference array of
    LOCALITY_ROWS x dim x modes entries."""
    dtype = np.min_scalar_type(-block.n_particles - 1)
    occ = block.occupations().astype(dtype)
    d = block.dim
    out = np.empty((d, d), dtype=dtype)
    for start in range(0, d, LOCALITY_ROWS):
        stop = min(start + LOCALITY_ROWS, d)
        diff = occ[None, start:stop, :] - occ[:, None, :]
        out[start:stop, :] = np.maximum(diff, 0, out=diff).sum(axis=2, dtype=dtype).T
    return out


@dataclass(frozen=True)
class ResonantClassifier:
    """Local operators span |a><b| over state pairs with locality <= threshold.

    The diagonals come from a Hermitian orthonormal basis of the same span:
    |a><a| for each state, (|a><b| + |b><a|)/sqrt(2) for each local pair
    a < b, and i(|a><b| - |b><a|)/sqrt(2) as well when the eigenvectors are
    complex.  Its rows sqrt(2) Re(conj(V_a) V_b) and sqrt(2) Im(conj(V_a) V_b)
    are real, and the Gram matrix equals that of the |a><b| set.
    """

    block: FockBlock
    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    def local_diagonals(self, spectrum: Spectrum) -> Iterator[np.ndarray]:
        if spectrum.dim != self.block.dim:
            raise ValueError("spectrum dimension does not match block")
        local = locality_table(self.block) <= self.threshold
        if not np.array_equal(local, local.T):
            raise ValueError("locality table is not symmetric; the a<->b fold needs it")
        v = spectrum.vectors
        # row-major pairs: state a owns rows runs[a]:runs[a + 1], (a, a) first
        a, b = np.nonzero(np.triu(local))
        runs = np.searchsorted(a, np.arange(v.shape[0] + 1))
        rows = engine.Q_BLOCK_ROWS  # pairs per block
        for start in range(0, a.size, rows):
            stop = min(start + rows, a.size)
            prod = v[b[start:stop]]
            for s in range(a[start], a[stop - 1] + 1):
                lo, hi = max(runs[s], start) - start, min(runs[s + 1], stop) - start
                # conj(V_a) stays left: with FMA the complex product is not commutative
                np.multiply(v[s].conj(), prod[lo:hi], out=prod[lo:hi])
                # the rows with b > a, past the diagonal pair, carry a sqrt(2)
                off = prod[lo + (runs[s] >= start) : hi].view(np.float64)
                off *= np.sqrt(2.0)
            yield prod.real
            if np.iscomplexobj(prod):
                yield prod.imag[a[start:stop] != b[start:stop]]
            del prod, off  # release the block before the next one is gathered


def block_states_csv(block: FockBlock) -> str:
    """index,partition,occupation table of the block states."""
    buf = io.StringIO()
    buf.write("index,partition,occupation\n")
    for i, occ in enumerate(block.states):
        parts = []
        for mode in range(block.total_level, 0, -1):
            parts.extend([str(mode)] * occ[mode])
        buf.write(f"{i},{'+'.join(parts) if parts else '0'},{' '.join(map(str, occ))}\n")
    return buf.getvalue()
