import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolat.engine import nonlocality_matrix
from evolat.linalg import Spectrum, eigendecompose, normalize_energies
from evolat.syk import (
    DENSE_BYTES_LIMIT,
    MonomialClassifier,
    antisymmetric_canonical_form,
    build_clifford,
    chaotic_syk,
    free_syk,
    integrable_syk,
    monomial_strings,
    sample_many_body_couplings,
    sample_pair_couplings,
    sample_quadratic_couplings,
    string_product,
)

from oracles import (
    dense_chaotic_syk,
    dense_charges,
    dense_free_syk,
    dense_integrable_syk,
    dense_majoranas,
    dense_monomial,
    local_subsets,
    string_matrix,
)


@pytest.fixture(scope="module")
def rep8():
    return build_clifford(8)


def majoranas(rep):
    """The Majoranas of a representation as dense matrices."""
    return [string_matrix(rep.dim, x, z, c / np.sqrt(2.0))
            for x, z, c in zip(rep.x, rep.z, rep.phase)]


def monomials(rep, subsets):
    """Dense matrices of the monomials T for the given index tuples."""
    mats = []
    for s in subsets:
        x, z, c = monomial_strings(rep, np.array([s], dtype=np.intp).reshape(1, len(s)))
        mats.append(string_matrix(rep.dim, x[0], z[0], c[0]))
    return mats


def test_build_clifford_counts():
    rep = build_clifford(4)
    assert rep.x.shape == rep.z.shape == rep.phase.shape == (4,)
    assert rep.dim == 4


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_clifford_anticommutators(n):
    rep = build_clifford(n)
    dim = rep.dim
    psis = majoranas(rep)
    for i in range(n):
        for j in range(i, n):
            anti = psis[i] @ psis[j] + psis[j] @ psis[i]
            expect = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(anti - expect).max() < 1e-12
    # the strings are the Jordan-Wigner Kronecker products
    for a, b in zip(psis, dense_majoranas(n)):
        assert np.abs(a - b).max() < 1e-15


def test_clifford_hermitian_and_normalized(rep8):
    for psi in majoranas(rep8):
        assert np.abs(psi - psi.conj().T).max() < 1e-12
        # psi^2 = 1/2 by the anticommutator convention
        assert np.abs(psi @ psi - 0.5 * np.eye(rep8.dim)).max() < 1e-12


def test_clifford_pair_traces(rep8):
    dim = rep8.dim
    psis = majoranas(rep8)
    for i in range(8):
        for j in range(8):
            tr = np.trace(psis[i] @ psis[j])
            expect = dim / 2.0 if i == j else 0.0
            assert abs(tr - expect) < 1e-12


def test_build_clifford_validates():
    with pytest.raises(ValueError):
        build_clifford(5)
    with pytest.raises(ValueError):
        build_clifford(0)
    # the representation is O(n); only a dense Hamiltonian is refused, with
    # n, D and the bytes it would need, before any D x D array exists
    rep = build_clifford(30)
    assert rep.dim == 2**15 and rep.x.shape == (30,)
    big = build_clifford(26)
    assert 8 * 16 * big.dim**2 > DENSE_BYTES_LIMIT
    j2 = np.zeros((26, 26))
    builds = [
        lambda: free_syk(big, j2),
        lambda: chaotic_syk(big, j2, np.zeros(14950), 1.0, body=4),
        lambda: integrable_syk(big, np.ones(13), np.zeros((13, 13)), 1.0),
    ]
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n = 26 modes.*D = 8192.*8589934592 bytes"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_canonical_form_two_by_two():
    j = np.array([[0.0, 3.0], [-3.0, 0.0]])
    omegas, v = antisymmetric_canonical_form(j)
    assert np.allclose(omegas, [3.0])
    d = np.array([[0.0, omegas[0]], [-omegas[0], 0.0]])
    assert np.abs(v @ d @ v.T - j).max() < 1e-12


def test_canonical_form_zero_matrix():
    omegas, v = antisymmetric_canonical_form(np.zeros((4, 4)))
    assert np.allclose(omegas, 0.0)
    assert np.abs(v @ v.T - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_canonical_form_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 6, 8, 10]))
    j = sample_quadratic_couplings(n, rng)
    omegas, v = antisymmetric_canonical_form(j)
    assert omegas.shape == (n // 2,)
    assert np.all(omegas >= 0.0)
    assert np.all(np.diff(omegas) <= 1e-12)  # descending
    d = np.zeros((n, n))
    for p, w in enumerate(omegas):
        d[2 * p, 2 * p + 1] = w
        d[2 * p + 1, 2 * p] = -w
    assert np.abs(v @ d @ v.T - j).max() < 1e-9
    assert np.abs(v @ v.T - np.eye(n)).max() < 1e-10


def test_canonical_form_null_space_and_repeated_pairs():
    """A repeated w and a two-pair null space, in a random orthogonal frame."""
    rng = np.random.default_rng(3)
    frame, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    d = np.zeros((8, 8))
    for p, w in enumerate([2.0, 2.0, 0.0, 0.0]):
        d[2 * p, 2 * p + 1], d[2 * p + 1, 2 * p] = w, -w
    j = frame @ d @ frame.T
    omegas, v = antisymmetric_canonical_form(j)
    assert np.abs(omegas - [2.0, 2.0, 0.0, 0.0]).max() < 1e-12
    assert np.abs(v @ d @ v.T - j).max() < 1e-12
    assert np.abs(v @ v.T - np.eye(8)).max() < 1e-12


def test_canonical_form_rejects_symmetric():
    with pytest.raises(ValueError):
        antisymmetric_canonical_form(np.eye(4))


def test_free_spectrum_is_sign_sum(rep8):
    rng = np.random.default_rng(12)
    j2 = sample_quadratic_couplings(8, rng)
    h = free_syk(rep8, j2)
    omegas = antisymmetric_canonical_form(j2)[0]
    expect = sorted(
        sum(s * w for s, w in zip(signs, omegas))
        for signs in itertools.product((-1.0, 1.0), repeat=4)
    )
    got = np.linalg.eigvalsh(h.entries)
    assert np.abs(got - np.array(expect)).max() < 1e-10


def test_free_syk_rejects_symmetric_couplings(rep8):
    with pytest.raises(ValueError):
        free_syk(rep8, np.eye(8))


def test_charges_square_to_identity_and_commute(rep8):
    j3 = dense_charges(dense_majoranas(8))
    dim = rep8.dim
    for a in j3:
        assert np.abs(a - a.conj().T).max() < 1e-12
        assert np.abs(a @ a - np.eye(dim)).max() < 1e-12
    for a, b in itertools.combinations(j3, 2):
        assert np.abs(a @ b - b @ a).max() < 1e-12


def test_charges_commute_with_free_hamiltonian(rep8):
    rng = np.random.default_rng(4)
    j2 = sample_quadratic_couplings(8, rng)
    omegas, frame = antisymmetric_canonical_form(j2)
    h = free_syk(rep8, j2).entries
    j3 = dense_charges(dense_majoranas(8), frame)
    for a in j3:
        assert np.abs(h @ a - a @ h).max() < 1e-10
    # and the free Hamiltonian is the canonical charge combination
    rebuilt = sum(w * c for w, c in zip(omegas, j3))
    assert np.abs(h - rebuilt).max() < 1e-10


def test_integrable_spectrum_sign_enumeration():
    rep = build_clifford(6)
    rng = np.random.default_rng(9)
    j2 = sample_quadratic_couplings(6, rng)
    omegas, frame = antisymmetric_canonical_form(j2)
    pair = sample_pair_couplings(6, rng)
    eps = 0.7
    h = integrable_syk(rep, omegas, pair, epsilon=eps, frame=frame)
    expect = sorted(
        sum(s * w for s, w in zip(signs, omegas))
        + eps
        * sum(
            pair[p, q] * signs[p] * signs[q]
            for p, q in itertools.combinations(range(3), 2)
        )
        for signs in itertools.product((-1.0, 1.0), repeat=3)
    )
    got = np.linalg.eigvalsh(h.entries)
    assert np.abs(got - np.array(expect)).max() < 1e-10


def test_integrable_commutes_with_charges(rep8):
    rng = np.random.default_rng(20)
    j2 = sample_quadratic_couplings(8, rng)
    omegas, frame = antisymmetric_canonical_form(j2)
    h = integrable_syk(rep8, omegas, sample_pair_couplings(8, rng), epsilon=1.0, frame=frame)
    for a in dense_charges(dense_majoranas(8), frame):
        assert np.abs(h.entries @ a - a @ h.entries).max() < 1e-10


def test_integrable_validates_shapes(rep8):
    with pytest.raises(ValueError):
        integrable_syk(rep8, np.ones(3), np.eye(4), epsilon=1.0)
    with pytest.raises(ValueError):
        integrable_syk(rep8, np.ones(4), np.eye(3), epsilon=1.0)


@pytest.mark.parametrize("body", [3, 4])
def test_chaotic_hermitian_traceless(rep8, body):
    rng = np.random.default_rng(33)
    j2 = sample_quadratic_couplings(8, rng)
    vals = sample_many_body_couplings(8, body, rng)
    h = chaotic_syk(rep8, j2, vals, epsilon=0.5, body=body)
    assert abs(np.trace(h.entries)) < 1e-10


def test_chaotic_rejects_other_bodies(rep8):
    with pytest.raises(ValueError):
        chaotic_syk(rep8, np.zeros((8, 8)), np.zeros(10), epsilon=1.0, body=5)


def test_chaotic_coupling_count_enforced(rep8):
    with pytest.raises(ValueError):
        chaotic_syk(rep8, np.zeros((8, 8)), np.zeros(3), epsilon=1.0, body=4)


def test_sample_quadratic_statistics():
    rng = np.random.default_rng(100)
    n = 60
    j = sample_quadratic_couplings(n, rng)
    assert np.abs(j + j.T).max() < 1e-15
    off = j[np.triu_indices(n, 1)]
    assert abs(off.var() * n - 1.0) < 0.15  # variance 1/n per entry


def test_sample_pair_statistics():
    rng = np.random.default_rng(101)
    n = 40
    m = sample_pair_couplings(n, rng)
    assert m.shape == (n // 2, n // 2)
    vals = m[np.triu_indices(n // 2, 1)]
    assert abs(vals.var() / (6.0 / n ** 3) - 1.0) < 0.5


@pytest.mark.parametrize("body,var_scale", [(3, 2.0), (4, 6.0)])
def test_sample_many_body_statistics(body, var_scale):
    rng = np.random.default_rng(102)
    n = 20
    vals = sample_many_body_couplings(n, body, rng)
    assert vals.shape == (len(list(itertools.combinations(range(n), body))),)
    power = 2 if body == 3 else 3
    assert abs(vals.var() / (var_scale / n ** power) - 1.0) < 0.2


def test_monomial_rejects_unsorted(rep8):
    with pytest.raises(ValueError):
        monomial_strings(rep8, np.array([[3, 1]]))
    with pytest.raises(ValueError):
        monomial_strings(rep8, np.array([[1, 1]]))


def test_monomial_orthonormality():
    rep = build_clifford(6)
    subsets = [()]
    subsets += list(itertools.combinations(range(6), 1))
    subsets += list(itertools.combinations(range(6), 2))
    subsets += [(0, 1, 2, 3), (1, 2, 4, 5), (0, 2, 3, 5)]
    mats = monomials(rep, subsets)
    for a in mats:
        assert np.abs(a - a.conj().T).max() < 1e-12
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            tr = np.trace(a.conj().T @ b)
            expect = 1.0 if i == j else 0.0
            assert abs(tr - expect) < 1e-12, (subsets[i], subsets[j])


def test_classifier_counts_and_shape(rep8):
    cls = MonomialClassifier(rep8, 2)
    subsets = local_subsets(rep8, 2)
    assert len(subsets) == 8 + 28  # weights 1 and 2, identity excluded
    spec = eigendecompose(free_syk(rep8, sample_quadratic_couplings(8, np.random.default_rng(0))))
    blocks = list(cls.local_diagonals(spec))
    for z in blocks:
        assert z.dtype == np.float64 and z.ndim == 2 and z.shape[1] == rep8.dim
    rows = np.vstack(blocks)
    assert rows.shape == (36, rep8.dim)
    v = spec.vectors
    psis = dense_majoranas(8)
    for r, subset in zip(rows, subsets):
        expect = np.einsum("in,in->n", v.conj(), dense_monomial(psis, subset) @ v)
        assert np.abs(r - expect).max() < 1e-14


def test_classifier_threshold_bounds(rep8):
    with pytest.raises(ValueError):
        MonomialClassifier(rep8, 0)
    with pytest.raises(ValueError):
        MonomialClassifier(rep8, 9)


def test_free_syk_quadratic_locality(rep8):
    """Free model energies lie in the span of weight <= 2 monomial diagonals."""
    rng = np.random.default_rng(6)
    h = free_syk(rep8, sample_quadratic_couplings(8, rng))
    spec = eigendecompose(h)
    e = normalize_energies(spec.energies)
    q = nonlocality_matrix(Spectrum(e, spec.vectors), MonomialClassifier(rep8, 2))
    assert q.null_residual(e) < 1e-8
    assert np.abs(q.eigenvalues - np.round(q.eigenvalues)).max() < 1e-6


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_monomials_match_dense_products(n):
    rep = build_clifford(n)
    psis = dense_majoranas(n)
    for w in range(n + 1):
        subsets = list(itertools.combinations(range(n), w))
        for t, s in zip(monomials(rep, subsets), subsets):
            assert np.abs(t - dense_monomial(psis, s)).max() < 1e-15, s


@pytest.mark.parametrize("n", [8, 10])
def test_hamiltonians_match_dense_formulas(n):
    rng = np.random.default_rng(40 + n)
    rep = build_clifford(n)
    psis = dense_majoranas(n)
    j2 = sample_quadratic_couplings(n, rng)
    assert np.abs(free_syk(rep, j2).entries - dense_free_syk(psis, j2)).max() < 1e-13
    for body in (3, 4):
        vals = sample_many_body_couplings(n, body, rng)
        h = chaotic_syk(rep, j2, vals, 0.8, body=body)
        assert np.abs(h.entries - dense_chaotic_syk(psis, j2, vals, 0.8, body)).max() < 1e-13
    omegas, frame = antisymmetric_canonical_form(j2)
    pair = sample_pair_couplings(n, rng)
    h = integrable_syk(rep, omegas, pair, 1.3, frame=frame)
    expect = dense_integrable_syk(psis, omegas, pair, 1.3, frame)
    assert np.abs(h.entries - expect).max() < 1e-13


def strings(n_modes):
    """Random Pauli strings (x, z, phase) on n_modes / 2 qubits."""
    top = 2 ** (n_modes // 2) - 1
    return st.tuples(st.integers(0, top), st.integers(0, top),
                     st.sampled_from([1.0, -1.0, 1.0j, -1.0j]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]).flatmap(lambda n: st.tuples(
    st.just(n), strings(n), strings(n), strings(n))))
def test_string_product_is_associative_and_dense(case):
    n, a, b, c = case
    dim = 2 ** (n // 2)
    ab = string_product(a, b)
    assert string_product(ab, c) == string_product(a, string_product(b, c))
    dense = string_matrix(dim, *ab)
    assert np.abs(dense - string_matrix(dim, *a) @ string_matrix(dim, *b)).max() < 1e-15
