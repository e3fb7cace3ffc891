import numpy as np
import pytest

from evolat.linalg import (
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    load_matrix,
    normalize_energies,
    normalize_spectrum,
    save_matrix,
    spectrum_from_json,
    spectrum_to_json,
)


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


def test_spectrum_rejects_unsorted():
    with pytest.raises(ValueError):
        Spectrum(energies=np.array([1.0, 0.0]), vectors=np.eye(2))


def test_spectrum_rejects_nonunitary_vectors():
    with pytest.raises(ValueError):
        Spectrum(energies=np.array([0.0, 1.0]), vectors=np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matrix_file_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7)).astype(dtype)
    if dtype is np.complex128:
        a = a + 1j * rng.standard_normal((7, 7))
        a = (a + a.conj().T) / 2
    else:
        a = (a + a.T) / 2
    path = tmp_path / "m.evlm"
    save_matrix(path, a)
    back = load_matrix(path)
    assert back.dtype == np.dtype(dtype)
    assert np.array_equal(back, a)


def test_matrix_file_header(tmp_path):
    path = tmp_path / "m.evlm"
    save_matrix(path, np.eye(4))
    raw = path.read_bytes()
    assert raw[:4] == b"EVLM"
    assert len(raw) == 16 + 4 * 4 * 8


def test_load_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.evlm"
    save_matrix(path, np.eye(2))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_matrix_rejects_truncated_payload(tmp_path):
    path = tmp_path / "m.evlm"
    save_matrix(path, np.eye(3))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_matrix(path)


def test_spectrum_json_round_trip():
    m = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = eigendecompose(m)
    back = spectrum_from_json(spectrum_to_json(s))
    assert np.abs(back.energies - s.energies).max() < 1e-15
    assert np.abs(back.vectors - s.vectors).max() < 1e-15
    assert s.vectors.dtype == back.vectors.dtype == np.float64


def test_spectrum_json_complex_vectors():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    s = eigendecompose(HermitianMatrix(a))
    back = spectrum_from_json(spectrum_to_json(s))
    assert np.abs(back.vectors - s.vectors).max() < 1e-15
    assert back.vectors.dtype == np.complex128
