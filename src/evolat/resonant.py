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

from .engine import block_rows
from .linalg import HermitianMatrix, Spectrum

MAX_BLOCK_STATES = 20_000


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

    def state_index(self, occupation) -> int:
        return self._index[tuple(occupation)]

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
    block = FockBlock(n_particles, total_level, tuple(states))
    object.__setattr__(block, "_index", {s: i for i, s in enumerate(states)})
    return block


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


def coupling_gg() -> CouplingScheme:
    return CouplingScheme("gg")


def coupling_truncated() -> CouplingScheme:
    return CouplingScheme("truncated")


def coupling_alpha(alpha: float) -> CouplingScheme:
    return CouplingScheme("alpha", alpha=alpha)


def coupling_delta(delta_coeff: float) -> CouplingScheme:
    return CouplingScheme("delta", delta_coeff=delta_coeff)


def coupling_random(seed: int) -> CouplingScheme:
    return CouplingScheme("random", seed=seed)


def build_block_hamiltonian(block: FockBlock, scheme: CouplingScheme) -> HermitianMatrix:
    """Block matrix of H in the occupation basis.

    Annihilating two occupied modes k, l of a block state always satisfies
    k + l <= M, so creation never leaves the 0..M mode range.
    """
    m_lvl = block.total_level
    d = block.dim
    h = np.zeros((d, d))
    for b_idx, occ in enumerate(block.states):
        occupied = [n for n, c in enumerate(occ) if c > 0]
        for ki in range(len(occupied)):
            for li in range(ki, len(occupied)):
                k, l = occupied[ki], occupied[li]
                if k == l:
                    if occ[k] < 2:
                        continue
                    amp_ann = np.sqrt(occ[k] * (occ[k] - 1.0))
                else:
                    amp_ann = np.sqrt(float(occ[k]) * occ[l])
                mid = list(occ)
                mid[k] -= 1
                mid[l] -= 1
                s = k + l
                for n in range(s // 2 + 1):
                    m = s - n
                    if n == m:
                        amp_cre = np.sqrt((mid[n] + 1.0) * (mid[n] + 2.0))
                    else:
                        amp_cre = np.sqrt((mid[n] + 1.0) * (mid[m] + 1.0))
                    out = list(mid)
                    out[n] += 1
                    out[m] += 1
                    a_idx = block.state_index(out)
                    weight = (2 - (n == m)) * (2 - (k == l))
                    c = scheme.quartic(n, m, k, l, m_lvl)
                    h[a_idx, b_idx] += 0.5 * weight * c * amp_ann * amp_cre
    h += np.diag(scheme.diagonal_shift(block))
    return HermitianMatrix(h)


def min_coupling_operator(block: FockBlock) -> HermitianMatrix:
    """Quartic operator with couplings min(n, m, k, l) over nonzero modes,
    plus the diagonal sum of k^2 eta_k.

    Commutes with the gg, truncated, alpha and delta Hamiltonians on every
    block and has an integer spectrum; a generic random scheme breaks it.
    """
    m_lvl = block.total_level
    d = block.dim
    h = np.zeros((d, d))
    for b_idx, occ in enumerate(block.states):
        for s in range(2, m_lvl + 1):
            for l in range(1, s):
                k = s - l
                if k < 1:
                    continue
                for n in range(1, s):
                    m = s - n
                    if m < 1:
                        continue
                    work = list(occ)
                    if work[l] == 0:
                        continue
                    f = np.sqrt(work[l])
                    work[l] -= 1
                    if work[k] == 0:
                        continue
                    f *= np.sqrt(work[k])
                    work[k] -= 1
                    f *= np.sqrt(work[m] + 1.0)
                    work[m] += 1
                    f *= np.sqrt(work[n] + 1.0)
                    work[n] += 1
                    h[block.state_index(work), b_idx] += min(n, m, k, l) * f
        h[b_idx, b_idx] += sum(kk * kk * occ[kk] for kk in range(1, m_lvl + 1))
    return HermitianMatrix(h)


def resonant_locality(occ_a, occ_b) -> int:
    """Particles that must be moved to turn state a into state b."""
    a = np.asarray(occ_a, dtype=np.int64)
    b = np.asarray(occ_b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("occupation vectors must have equal length")
    return int(np.maximum(b - a, 0).sum())


def locality_table(block: FockBlock) -> np.ndarray:
    """Pairwise locality of all block states (symmetric within a block)."""
    occ = block.occupations()
    d = block.dim
    out = np.empty((d, d), dtype=np.int64)
    chunk = max(1, 2**22 // max(occ.shape[1] * d, 1))
    for start in range(0, d, chunk):
        stop = min(start + chunk, d)
        diff = occ[None, start:stop, :] - occ[:, None, :]
        out[start:stop, :] = np.maximum(diff, 0).sum(axis=2).T
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

    def _local_mask(self) -> np.ndarray:
        local = locality_table(self.block) <= self.threshold
        if not np.array_equal(local, local.T):
            raise ValueError("locality table is not symmetric; the a<->b fold needs it")
        return local

    def local_pairs(self) -> np.ndarray:
        """Ordered pairs (a, b), one per generator |a><b|."""
        a, b = np.nonzero(self._local_mask())
        return np.stack([a, b], axis=1)

    def local_diagonals(self, spectrum: Spectrum) -> Iterator[np.ndarray]:
        if spectrum.dim != self.block.dim:
            raise ValueError("spectrum dimension does not match block")
        v = spectrum.vectors
        a, b = np.nonzero(np.triu(self._local_mask()))  # a <= b
        scale = np.where(a == b, 1.0, np.sqrt(2.0))[:, None]
        # a block of rows lives next to one gathered copy of the same size
        rows = block_rows(v.shape[1], 2 * v.itemsize)
        for start in range(0, a.size, rows):
            sl = slice(start, start + rows)
            prod = v[a[sl]]
            if np.iscomplexobj(prod):
                np.conjugate(prod, out=prod)
            prod *= v[b[sl]]
            if np.iscomplexobj(prod):
                yield prod.real * scale[sl]
                yield prod.imag[a[sl] != b[sl]] * np.sqrt(2.0)
            else:
                prod *= scale[sl]
                yield prod


def resonant_locality_classifier(block: FockBlock, threshold: int) -> ResonantClassifier:
    return ResonantClassifier(block, threshold)


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
