import numpy as np
import pytest

from evolat.engine import nonlocality_matrix
from evolat.linalg import Spectrum, eigendecompose, normalize_energies
from evolat.resonant import (
    MAX_BLOCK_STATES,
    CouplingScheme,
    block_states_csv,
    build_block_hamiltonian,
    coupling_alpha,
    coupling_delta,
    coupling_gg,
    coupling_random,
    coupling_truncated,
    enumerate_block,
    locality_table,
    min_coupling_operator,
    partition_count,
    resonant_locality,
    resonant_locality_classifier,
)
from oracles import build_block_hamiltonian_oracle


@pytest.mark.parametrize(
    "n,m,count",
    [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 5), (12, 12, 77), (5, 0, 1), (0, 0, 1)],
)
def test_partition_count_table(n, m, count):
    assert partition_count(n, m) == count


def test_partition_count_matches_enumeration():
    for n in range(1, 8):
        for m in range(0, 9):
            assert partition_count(n, m) == enumerate_block(n, m).dim


def test_block_ordering_three_three():
    blk = enumerate_block(3, 3)
    assert blk.states == ((2, 0, 0, 1), (1, 1, 1, 0), (0, 3, 0, 0))


def test_block_states_conserve_charges():
    blk = enumerate_block(5, 7)
    occ = blk.occupations()
    levels = np.arange(8)
    assert np.all(occ.sum(axis=1) == 5)
    assert np.all(occ @ levels == 7)


def test_block_partition_order_is_decreasing_lex():
    blk = enumerate_block(6, 10)
    def partition_of(occ):
        parts = []
        for level in range(len(occ) - 1, 0, -1):
            parts.extend([level] * occ[level])
        return tuple(parts)
    parts = [partition_of(s) for s in blk.states]
    assert parts == sorted(parts, reverse=True)


def test_state_index_round_trip():
    blk = enumerate_block(4, 6)
    for i, s in enumerate(blk.states):
        assert blk.state_index(s) == i


def test_enumerate_block_guards():
    with pytest.raises(ValueError):
        enumerate_block(-1, 3)
    with pytest.raises(ValueError):
        enumerate_block(40, 40)  # 37338 states, beyond the guard
    assert partition_count(40, 40) > MAX_BLOCK_STATES


def test_gg_two_two_block_oracle():
    # states |eta_0=1, eta_2=1> and |eta_1=2>; closed 2x2 with eigenvalues 0, 3
    blk = enumerate_block(2, 2)
    h = build_block_hamiltonian(blk, coupling_gg())
    expect = np.array([[2.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]])
    assert np.abs(h.entries - expect).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(h.entries) - [0.0, 3.0]).max() < 1e-12


def test_all_zero_couplings_give_zero_matrix():
    class ZeroScheme:
        kind = "zero"

        def quartic(self, n, m, k, l, max_level):
            return 0.0

        def diagonal_shift(self, block):
            return np.zeros(block.dim)

    blk = enumerate_block(3, 3)
    h = build_block_hamiltonian(blk, ZeroScheme())
    assert np.abs(h.entries).max() == 0.0


@pytest.mark.parametrize(
    "scheme_factory",
    [coupling_gg, coupling_truncated, lambda: coupling_alpha(1.0),
     lambda: coupling_delta(0.5), lambda: coupling_random(5)],
)
def test_builder_matches_ladder_oracle(scheme_factory):
    scheme = scheme_factory()
    for n, m in ((4, 4), (6, 6), (5, 7)):
        blk = enumerate_block(n, m)
        fast = build_block_hamiltonian(blk, scheme).entries
        slow = build_block_hamiltonian_oracle(blk, scheme).entries
        assert np.abs(fast - slow).max() < 1e-11


def test_truncated_quartic_piecewise():
    # table is pure: the resonance condition n+m = k+l lives in the builder
    s = coupling_truncated()
    assert s.quartic(1, 1, 1, 1, 4) == 0.0
    assert s.quartic(0, 0, 1, 1, 4) == 1.0
    assert s.quartic(0, 2, 1, 1, 4) == 1.0
    assert s.quartic(2, 1, 3, 0, 4) == 1.0


def test_gg_quartic_constant():
    s = coupling_gg()
    assert s.quartic(3, 1, 2, 2, 6) == 1.0


def test_random_scheme_reproducible_and_symmetric():
    a = coupling_random(7)
    b = coupling_random(7)
    blk = enumerate_block(5, 5)
    ha = build_block_hamiltonian(blk, a).entries
    hb = build_block_hamiltonian(blk, b).entries
    assert np.array_equal(ha, hb)
    # the averaged table respects the index symmetries of a real coupling
    s = coupling_random(13)
    for (n, m, k, l) in ((0, 3, 1, 2), (1, 2, 0, 3), (2, 2, 1, 3)):
        base = s.quartic(n, m, k, l, 4)
        assert s.quartic(m, n, k, l, 4) == pytest.approx(base, abs=1e-15)
        assert s.quartic(n, m, l, k, 4) == pytest.approx(base, abs=1e-15)
        assert s.quartic(k, l, n, m, 4) == pytest.approx(base, abs=1e-15)
    vals = [s.quartic(n, 4 - n, k, 4 - k, 4) for n in range(5) for k in range(5)]
    assert min(vals) > 0.0 and max(vals) < 1.0


def test_random_scheme_requires_seed():
    with pytest.raises(ValueError):
        CouplingScheme(kind="random")


def test_unknown_scheme_kind_rejected():
    with pytest.raises(ValueError):
        CouplingScheme(kind="cubic")


def test_alpha_delta_block_equivalence():
    # alpha adds alpha * eta_0, delta adds delta * M * eta_0: identical on a
    # block when delta = alpha / M
    for n, m, alpha in ((5, 5, 1.0), (4, 6, 2.5)):
        blk = enumerate_block(n, m)
        ha = build_block_hamiltonian(blk, coupling_alpha(alpha)).entries
        hd = build_block_hamiltonian(blk, coupling_delta(alpha / m)).entries
        assert np.abs(ha - hd).max() < 1e-12


def test_alpha_shifts_only_diagonal():
    blk = enumerate_block(4, 4)
    h0 = build_block_hamiltonian(blk, coupling_gg()).entries
    h1 = build_block_hamiltonian(blk, coupling_alpha(2.0)).entries
    diff = h1 - h0
    eta0 = np.array([s[0] for s in blk.states], dtype=float)
    assert np.abs(diff - np.diag(2.0 * eta0)).max() < 1e-12


@pytest.mark.parametrize("n,m", [(4, 4), (6, 6), (8, 8), (5, 9)])
def test_min_coupling_integer_spectrum(n, m):
    blk = enumerate_block(n, m)
    w = np.linalg.eigvalsh(min_coupling_operator(blk).entries)
    assert np.abs(w - np.round(w)).max() < 1e-8


def test_min_coupling_single_state_value():
    # lone state of (1, 1): no quartic term acts, diagonal k^2 eta_k = 1
    blk = enumerate_block(1, 1)
    h = min_coupling_operator(blk)
    assert h.entries.shape == (1, 1)
    assert h.entries[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "scheme_factory",
    [coupling_gg, coupling_truncated, lambda: coupling_alpha(1.0), lambda: coupling_delta(0.5)],
)
def test_min_coupling_commutes_with_integrable_family(scheme_factory):
    blk = enumerate_block(7, 7)
    h = build_block_hamiltonian(blk, scheme_factory()).entries
    hm = min_coupling_operator(blk).entries
    assert np.abs(h @ hm - hm @ h).max() < 1e-8


def test_min_coupling_broken_by_random_couplings():
    blk = enumerate_block(7, 7)
    h = build_block_hamiltonian(blk, coupling_random(3)).entries
    hm = min_coupling_operator(blk).entries
    assert np.abs(h @ hm - hm @ h).max() > 0.1


def test_resonant_locality_pairs():
    assert resonant_locality((2, 0, 0, 1), (2, 0, 0, 1)) == 0
    assert resonant_locality((2, 0, 0, 1), (1, 1, 1, 0)) == 2
    assert resonant_locality((1, 1, 1, 0), (0, 3, 0, 0)) == 2
    assert resonant_locality((2, 0, 0, 1), (0, 3, 0, 0)) == 3


def test_resonant_locality_symmetric_within_block():
    blk = enumerate_block(6, 8)
    occ = blk.occupations()
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, blk.dim, size=2)
        assert resonant_locality(occ[i], occ[j]) == resonant_locality(occ[j], occ[i])


def test_locality_table_matches_pairwise():
    blk = enumerate_block(5, 6)
    table = locality_table(blk)
    occ = blk.occupations()
    for i in range(blk.dim):
        for j in range(blk.dim):
            assert table[i, j] == resonant_locality(occ[i], occ[j])
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) == 0)


def test_classifier_pair_counts():
    blk = enumerate_block(4, 4)
    cls0 = resonant_locality_classifier(blk, 0)
    assert len(cls0.local_pairs()) == blk.dim  # only the diagonal at threshold 0
    cls_all = resonant_locality_classifier(blk, blk.total_level)
    table = locality_table(blk)
    # one generator |a><b| per ordered pair with locality within threshold
    assert len(cls_all.local_pairs()) == np.count_nonzero(table <= blk.total_level)
    cls2 = resonant_locality_classifier(blk, 2)
    assert len(cls2.local_pairs()) == np.count_nonzero(table <= 2)


def test_classifier_diagonals_formula():
    """Real 2-D blocks: |V_a|^2 per state, then sqrt(2) Re(conj(V_a) V_b)
    per local pair a < b, in row-major order of the pairs."""
    blk = enumerate_block(4, 4)
    h = build_block_hamiltonian(blk, coupling_random(2))
    spec = eigendecompose(h)
    cls = resonant_locality_classifier(blk, 2)
    blocks = list(cls.local_diagonals(spec))
    for z in blocks:
        assert z.dtype == np.float64 and z.ndim == 2 and z.shape[1] == blk.dim
    rows = np.vstack(blocks)
    pairs = cls.local_pairs()
    upper = pairs[pairs[:, 0] <= pairs[:, 1]]
    assert rows.shape == (blk.dim + (len(pairs) - blk.dim) // 2, blk.dim)
    assert len(upper) == rows.shape[0]
    v = spec.vectors
    for r, (a, b) in zip(rows, upper):
        scale = 1.0 if a == b else np.sqrt(2.0)
        expect = scale * np.real(v[a, :].conj() * v[b, :])
        assert np.abs(r - expect).max() < 1e-15


def test_resonant_hamiltonian_is_two_local():
    """Quartic terms move at most two particles, so H only connects states
    at locality <= 2 and its energies are local at threshold 2."""
    blk = enumerate_block(6, 6)
    h = build_block_hamiltonian(blk, coupling_random(11))
    table = locality_table(blk)
    far = table > 2
    assert np.abs(h.entries[far]).max() == 0.0
    spec = eigendecompose(h)
    e = normalize_energies(spec.energies)
    q = nonlocality_matrix(Spectrum(e, spec.vectors), resonant_locality_classifier(blk, 2))
    assert q.null_residual(e) < 1e-8


def test_block_states_csv_golden():
    blk = enumerate_block(3, 3)
    lines = block_states_csv(blk).splitlines()
    assert lines[0] == "index,partition,occupation"
    assert lines[1] == "0,3,2 0 0 1"
    assert lines[2] == "1,2+1,1 1 1 0"
    assert lines[3] == "2,1+1+1,0 3 0 0"
