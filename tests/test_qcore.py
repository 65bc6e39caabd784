"""Core linear algebra: eigensolver, validated containers, composition."""

import numpy as np
import pytest

from qledger.qcore import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    QuantumChannel,
    ValidationError,
    apply_channel,
    hermitian_eig,
    hermitian_eigvals,
    matrix_from_json,
    matrix_log_hermitian,
    matrix_to_json,
    partial_trace,
    partial_trace_stack,
    tensor,
)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density_matrix(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


# ---------------------------------------------------------------------------
# eigensolver

def test_eigensolver_random_sweep():
    """Reconstruction, unitarity, ordering, and an independent oracle."""
    rng = np.random.default_rng(901)
    for _ in range(400):
        dim = int(rng.integers(1, 17))
        a = random_hermitian(rng, dim)
        w, v = hermitian_eig(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-10 * scale
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)
        # numpy's LAPACK-backed solver as an independent reference
        ref = np.linalg.eigvalsh(a)
        assert np.abs(w - ref).max() <= 1e-10 * scale


def test_eigensolver_two_level():
    rng = np.random.default_rng(902)
    for _ in range(200):
        a = random_hermitian(rng, 2)
        w, v = hermitian_eig(a)
        ref = np.linalg.eigvalsh(a)
        assert np.abs(w - ref).max() <= 1e-12 * max(1.0, abs(a).max())
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-12 * max(1.0, abs(a).max())
    # already diagonal: no rotation, eigenbasis is the computational one
    w, v = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0])
    assert np.abs(np.abs(v) - np.array([[0, 1], [1, 0]])).max() <= 1e-15


def test_eigensolver_edge_cases():
    w, v = hermitian_eig(np.array([[3.5]]))
    assert w[0] == 3.5 and v[0, 0] == 1.0

    w, v = hermitian_eig(np.zeros((4, 4)))
    assert np.all(w == 0.0)
    assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-14

    w, _ = hermitian_eig(np.eye(5) * 2.0)
    assert np.allclose(w, 2.0)

    # diagonal input comes back sorted without losing pairing
    d = np.diag([3.0, -1.0, 2.0, 0.0])
    w, v = hermitian_eig(d)
    assert np.allclose(w, [-1.0, 0.0, 2.0, 3.0])
    assert np.abs((v * w) @ v.conj().T - d).max() <= 1e-14


def test_eigensolver_scaling():
    """Convergence threshold is relative, so extreme scales still work."""
    rng = np.random.default_rng(903)
    base = random_hermitian(rng, 5)
    for s in (1e-9, 1e9):
        a = base * s
        w, v = hermitian_eig(a)
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-12 * np.abs(a).max()


def test_eigensolver_degenerate_spectrum():
    rng = np.random.default_rng(904)
    # random basis, eigenvalues with a double and a triple degeneracy
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(g)
    target = np.array([1.0, 1.0, 2.0, 5.0, 5.0, 5.0])
    a = (q * target) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    w, v = hermitian_eig(a)
    assert np.abs(np.sort(w) - target).max() <= 1e-12
    assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-12


def test_eigvals_only_matches_full():
    rng = np.random.default_rng(905)
    a = random_hermitian(rng, 7)
    assert np.array_equal(hermitian_eigvals(a), hermitian_eig(a)[0])


def test_eigensolver_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigvals_only_rejects_nonhermitian():
    """The eigenvalues-only entry point passes the same hermiticity gate."""
    with pytest.raises(ValidationError, match="hermiticity defect 4.000e-01"):
        hermitian_eigvals(np.array([[0.5, 0.4], [0.0, 0.5]]))


# ---------------------------------------------------------------------------
# validated containers

def test_hermitian_operator_validation():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    assert h.dim == 2
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        HermitianOperator(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        HermitianOperator(np.full((2, 2), np.nan))
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(65))


def test_density_matrix_validation():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.3, 0.3]))  # trace
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.1, -0.1]))  # negativity
    # the positivity check is skippable for constructions positive by design
    r = DensityMatrix(np.diag([1.1, -0.1]), check_psd=False)
    assert r.dim == 2


def test_pure_state_and_channel_validation():
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    rho = psi.to_density()
    assert abs(rho.matrix[0, 1] - 0.5) <= 1e-15
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))

    # incomplete Kraus family
    with pytest.raises(ValidationError):
        QuantumChannel([np.eye(2) * 0.5])
    with pytest.raises(ValidationError):
        QuantumChannel([])
    with pytest.raises(ValidationError):
        QuantumChannel([np.eye(2), np.eye(3)])


def test_containers_are_immutable():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    with pytest.raises(AttributeError):
        h.matrix = np.eye(2)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 1] = 1.0
    ch = QuantumChannel([np.eye(2)])
    with pytest.raises(AttributeError):
        ch.kraus = ()


def test_constructor_accepts_wrapped_input():
    h = HermitianOperator(np.diag([1.0, 2.0]))
    again = HermitianOperator(h)
    assert np.array_equal(again.matrix, h.matrix)


# ---------------------------------------------------------------------------
# composition and reduction

def test_tensor_matches_kron_chain():
    rng = np.random.default_rng(906)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))
    assert np.allclose(tensor([a, b]), np.kron(a, b))
    assert np.allclose(tensor(a), a)
    with pytest.raises(ValidationError):
        tensor()


def test_partial_trace_against_index_sum():
    """Explicitly summed indices as the oracle for the einsum path."""
    rng = np.random.default_rng(907)
    dims = [2, 3, 2]
    rho = random_density_matrix(rng, 12)
    r = rho.reshape(dims + dims)

    # keep the middle factor: sum over factor 0 and 2 diagonals
    oracle = np.zeros((3, 3), dtype=np.complex128)
    for i in range(2):
        for k in range(2):
            oracle += r[i, :, k, i, :, k]
    got = partial_trace(rho, dims, [1])
    assert np.abs(got.matrix - oracle).max() <= 1e-14
    assert abs(got.matrix.trace() - 1.0) <= 1e-12

    # keep factors 0 and 2
    oracle2 = np.zeros((4, 4), dtype=np.complex128)
    for j in range(3):
        block = r[:, j, :, :, j, :]
        oracle2 += block.reshape(4, 4)
    got2 = partial_trace(rho, dims, [0, 2])
    assert np.abs(got2.matrix - oracle2).max() <= 1e-14


def test_partial_trace_keep_all_and_errors():
    rng = np.random.default_rng(908)
    rho = random_density_matrix(rng, 4)
    same = partial_trace(rho, [2, 2], [0, 1])
    assert np.abs(same.matrix - rho).max() <= 1e-15
    with pytest.raises(ValidationError):
        partial_trace(rho, [2, 3], [0])
    with pytest.raises(ValidationError):
        partial_trace(rho, [2, 2], [1, 0])
    with pytest.raises(ValidationError):
        partial_trace(rho, [2, 2], [2])
    with pytest.raises(ValidationError):
        partial_trace(rho, [2, 2], [])


def test_partial_trace_stack_matches_single():
    rng = np.random.default_rng(909)
    stack = np.stack([random_density_matrix(rng, 8) for _ in range(5)])
    red = partial_trace_stack(stack, [2, 2, 2], [0, 2])
    for k in range(5):
        single = partial_trace(stack[k], [2, 2, 2], [0, 2])
        assert np.abs(red[k] - single.matrix).max() <= 1e-14


def test_partial_trace_stack_validates_dims_and_keep():
    stack = np.stack([np.eye(4, dtype=np.complex128) / 4.0] * 3)
    with pytest.raises(ValidationError, match="do not factor"):
        partial_trace_stack(stack, [2, 3], [0])
    with pytest.raises(ValidationError, match="ascending"):
        partial_trace_stack(stack, [2, 2], [1, 0])
    with pytest.raises(ValidationError, match="ascending"):
        partial_trace_stack(stack, [2, 2], [0, 0])
    with pytest.raises(ValidationError, match="ascending"):
        partial_trace_stack(stack, [2, 2], [2])


def test_apply_channel_amplitude_damping():
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    ch = QuantumChannel([k0, k1])
    rho = DensityMatrix(np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, 0.6]]))
    out = apply_channel(ch, rho)
    assert abs(out.matrix[1, 1] - (1 - gamma) * 0.6) <= 1e-14
    assert abs(out.matrix[0, 1] - np.sqrt(1 - gamma) * (0.2 - 0.1j)) <= 1e-14
    assert abs(out.matrix.trace() - 1.0) <= 1e-14

    with pytest.raises(ValidationError):
        apply_channel(ch, DensityMatrix(np.eye(3) / 3))


def test_apply_channel_unitary_conjugation():
    rng = np.random.default_rng(910)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    ch = QuantumChannel([u])
    rho = random_density_matrix(rng, 3)
    out = apply_channel(ch, DensityMatrix(rho))
    assert np.abs(out.matrix - u @ rho @ u.conj().T).max() <= 1e-12


# ---------------------------------------------------------------------------
# matrix log and wire format

def test_matrix_log_from_known_spectrum():
    rng = np.random.default_rng(911)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    a = (q * p) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    expected = (q * np.log(p)) @ q.conj().T
    got = matrix_log_hermitian(a)
    assert np.abs(got - expected).max() <= 1e-11


def test_matrix_log_floor_keeps_value_finite():
    out = matrix_log_hermitian(np.diag([1.0, 0.0]))
    assert np.all(np.isfinite(out.view(np.float64)))
    assert out[0, 0].real == pytest.approx(0.0, abs=1e-14)
    assert out[1, 1].real < -600.0  # log of the tiny floor


def test_json_round_trip():
    rng = np.random.default_rng(912)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_json_rejects_malformed():
    good = matrix_to_json(np.eye(2))
    with pytest.raises(ValidationError):
        matrix_from_json("nope")
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ValidationError):
        matrix_from_json(bad)
    short = dict(good)
    short["re"] = short["re"][:-1]
    with pytest.raises(ValidationError):
        matrix_from_json(short)
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 0, "re": [], "im": []})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": good["re"]})
