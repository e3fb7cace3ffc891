import numpy as np
import pytest

from evolat import resonant
from evolat.engine import nonlocality_matrix
from evolat.linalg import Spectrum, eigendecompose, normalize_energies
from evolat.resonant import (
    MAX_BLOCK_STATES,
    CouplingScheme,
    FockBlock,
    block_states_csv,
    ResonantClassifier,
    build_block_hamiltonian,
    enumerate_block,
    locality_table,
    min_coupling_operator,
    partition_count,
)
from oracles import (
    build_block_hamiltonian_loop,
    build_block_hamiltonian_oracle,
    local_pairs,
    resonant_locality,
)

SCHEMES = [
    CouplingScheme("gg"),
    CouplingScheme("truncated"),
    CouplingScheme("alpha", alpha=1.0),
    CouplingScheme("delta", delta_coeff=0.5),
    CouplingScheme("random", seed=5),
]


def scheme_id(scheme: CouplingScheme) -> str:
    return f"coupling_{scheme.kind}"


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


def test_enumerate_block_guards():
    with pytest.raises(ValueError):
        enumerate_block(-1, 3)
    with pytest.raises(ValueError):
        enumerate_block(40, 40)  # 37338 states, beyond the guard
    assert partition_count(40, 40) > MAX_BLOCK_STATES


def test_gg_two_two_block_oracle():
    # states |eta_0=1, eta_2=1> and |eta_1=2>; closed 2x2 with eigenvalues 0, 3
    blk = enumerate_block(2, 2)
    h = build_block_hamiltonian(blk, CouplingScheme("gg"))
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


@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_builder_matches_ladder_oracle(scheme):
    for n, m in ((4, 4), (6, 6), (5, 7)):
        blk = enumerate_block(n, m)
        fast = build_block_hamiltonian(blk, scheme).entries
        slow = build_block_hamiltonian_oracle(blk, scheme).entries
        assert np.abs(fast - slow).max() < 1e-11


@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_builder_is_the_state_loop_bit_for_bit(scheme):
    for n in range(1, 13):
        blk = enumerate_block(n, n)
        fast = build_block_hamiltonian(blk, scheme).entries
        assert np.array_equal(fast, build_block_hamiltonian_loop(blk, scheme).entries), n


def test_min_coupling_operator_is_the_state_loop_bit_for_bit():
    for n in range(1, 13):
        blk = enumerate_block(n, n)
        loop = 2.0 * build_block_hamiltonian_loop(blk, resonant._MinCharge).entries
        assert np.array_equal(min_coupling_operator(blk).entries, loop), n


@pytest.mark.parametrize("scheme", [SCHEMES[1], SCHEMES[4]], ids=scheme_id)
def test_builder_is_the_state_loop_bit_for_bit_at_d_627(scheme):
    blk = enumerate_block(20, 20)
    assert blk.dim == 627
    fast = build_block_hamiltonian(blk, scheme).entries
    assert np.array_equal(fast, build_block_hamiltonian_loop(blk, scheme).entries)


@pytest.mark.parametrize("scheme", SCHEMES, ids=scheme_id)
def test_block_without_quartic_terms_is_its_diagonal_shift(scheme):
    """One particle cannot feed a quartic term: H is the diagonal shift."""
    for m in (0, 1, 3):
        blk = enumerate_block(1, m)
        shift = np.diag(scheme.diagonal_shift(blk))
        assert np.array_equal(build_block_hamiltonian(blk, scheme).entries, shift)


def test_builder_refuses_colliding_state_keys():
    """Target states are looked up by integer key; equal keys would make the
    lookup ambiguous, so the builder refuses them."""
    state = enumerate_block(3, 3).states[0]
    with pytest.raises(ArithmeticError, match="collide"):
        build_block_hamiltonian(FockBlock(3, 3, (state, state)), CouplingScheme("gg"))


def test_truncated_quartic_piecewise():
    # table is pure: the resonance condition n+m = k+l lives in the builder
    s = CouplingScheme("truncated")
    assert s.quartic(1, 1, 1, 1, 4) == 0.0
    assert s.quartic(0, 0, 1, 1, 4) == 1.0
    assert s.quartic(0, 2, 1, 1, 4) == 1.0
    assert s.quartic(2, 1, 3, 0, 4) == 1.0


def test_gg_quartic_constant():
    s = CouplingScheme("gg")
    assert s.quartic(3, 1, 2, 2, 6) == 1.0


def test_random_scheme_reproducible_and_symmetric():
    a = CouplingScheme("random", seed=7)
    b = CouplingScheme("random", seed=7)
    blk = enumerate_block(5, 5)
    ha = build_block_hamiltonian(blk, a).entries
    hb = build_block_hamiltonian(blk, b).entries
    assert np.array_equal(ha, hb)
    # the averaged table respects the index symmetries of a real coupling
    s = CouplingScheme("random", seed=13)
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
        ha = build_block_hamiltonian(blk, CouplingScheme("alpha", alpha=alpha)).entries
        hd = build_block_hamiltonian(blk, CouplingScheme("delta", delta_coeff=alpha / m)).entries
        assert np.abs(ha - hd).max() < 1e-12


def test_alpha_shifts_only_diagonal():
    blk = enumerate_block(4, 4)
    h0 = build_block_hamiltonian(blk, CouplingScheme("gg")).entries
    h1 = build_block_hamiltonian(blk, CouplingScheme("alpha", alpha=2.0)).entries
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


@pytest.mark.parametrize("scheme", SCHEMES[:4], ids=scheme_id)
def test_min_coupling_commutes_with_integrable_family(scheme):
    blk = enumerate_block(7, 7)
    h = build_block_hamiltonian(blk, scheme).entries
    hm = min_coupling_operator(blk).entries
    assert np.abs(h @ hm - hm @ h).max() < 1e-8


def test_min_coupling_broken_by_random_couplings():
    blk = enumerate_block(7, 7)
    h = build_block_hamiltonian(blk, CouplingScheme("random", seed=3)).entries
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


@pytest.mark.parametrize("n,m,dtype", [
    (12, 12, np.int8), (127, 3, np.int8), (128, 3, np.int16), (200, 4, np.int16),
])
def test_locality_table_narrow_dtype_holds_the_particle_number(n, m, dtype):
    """The table is computed in the smallest signed type that holds N, so
    occupations above 127 move it past int8 without overflow."""
    blk = enumerate_block(n, m)
    table = locality_table(blk)
    assert table.dtype == dtype
    occ = blk.occupations()
    expect = [[resonant_locality(x, y) for y in occ] for x in occ]
    assert np.array_equal(table, expect)


def test_classifier_pair_counts():
    """One real row per state and one per unordered local pair a < b: half
    of the ordered pairs off the diagonal."""
    blk = enumerate_block(4, 4)
    spec = eigendecompose(build_block_hamiltonian(blk, CouplingScheme("random", seed=2)))
    table = locality_table(blk)
    assert np.count_nonzero(table <= 0) == blk.dim  # only the diagonal at threshold 0
    for threshold in (0, 2, blk.total_level):
        ordered = np.count_nonzero(table <= threshold)
        rows = sum(z.shape[0] for z in ResonantClassifier(blk, threshold).local_diagonals(spec))
        assert rows == blk.dim + (ordered - blk.dim) // 2


def test_classifier_diagonals_formula():
    """Real 2-D blocks: |V_a|^2 per state, then sqrt(2) Re(conj(V_a) V_b)
    per local pair a < b, in row-major order of the pairs."""
    blk = enumerate_block(4, 4)
    h = build_block_hamiltonian(blk, CouplingScheme("random", seed=2))
    spec = eigendecompose(h)
    blocks = list(ResonantClassifier(blk, 2).local_diagonals(spec))
    for z in blocks:
        assert z.dtype == np.float64 and z.ndim == 2 and z.shape[1] == blk.dim
    rows = np.vstack(blocks)
    pairs = local_pairs(blk, 2)
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
    h = build_block_hamiltonian(blk, CouplingScheme("random", seed=11))
    table = locality_table(blk)
    far = table > 2
    assert np.abs(h.entries[far]).max() == 0.0
    spec = eigendecompose(h)
    e = normalize_energies(spec.energies)
    q = nonlocality_matrix(Spectrum(e, spec.vectors), ResonantClassifier(blk, 2))
    assert q.null_residual(e) < 1e-8


def test_block_states_csv_golden():
    blk = enumerate_block(3, 3)
    lines = block_states_csv(blk).splitlines()
    assert lines[0] == "index,partition,occupation"
    assert lines[1] == "0,3,2 0 0 1"
    assert lines[2] == "1,2+1,1 1 1 0"
    assert lines[3] == "2,1+1+1,0 3 0 0"
