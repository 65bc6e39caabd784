"""Core linear algebra: eigensolver, validated containers, composition."""

import hashlib
import math
import re

import numpy as np
import pytest

from qledger import qcore, sampling
from qledger.measures import Trajectory, _tables, dephase
from qledger.qcore import (
    MAX_DIM,
    SCALAR_MAX_DIM,
    STACK_BLOCK,
    DensityMatrix,
    HermitianOperator,
    NumericError,
    PureState,
    QuantumChannel,
    ValidationError,
    _jacobi,
    _jacobi_stack,
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
from qledger.thermo import first_law_ledger, gibbs_state


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
# stack eigensolver

def random_hermitian_stack(rng, b, dim):
    g = rng.normal(size=(b, dim, dim)) + 1j * rng.normal(size=(b, dim, dim))
    return 0.5 * (g + g.conj().transpose(0, 2, 1))


def mixed_stack(rng, dim):
    """Random, rescaled, diagonal, degenerate and zero matrices of one dimension."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    levels = np.repeat([1.0, 2.0, 5.0], -(-dim // 3))[:dim]
    degenerate = (q * levels) @ q.conj().T
    return np.stack([
        random_hermitian(rng, dim),
        1e-9 * random_hermitian(rng, dim),
        1e9 * random_hermitian(rng, dim),
        np.diag(rng.normal(size=dim)).astype(complex),
        0.5 * (degenerate + degenerate.conj().T),
        np.zeros((dim, dim), complex),
        random_hermitian(rng, dim),
    ])


@pytest.mark.parametrize("dim", range(1, SCALAR_MAX_DIM + 1))
def test_scalar_solver_matches_lapack(dim):
    """The one-triangle scalar path, every dimension it takes: eigenvalues
    within 1e-13 of the Frobenius norm of ``numpy.linalg.eigvalsh``'s, vectors
    that reconstruct the matrix within 1e-12 of that norm and are unitary
    within 1e-12."""
    for a in mixed_stack(np.random.default_rng(940 + dim), dim):
        norm = np.linalg.norm(a)
        w, v = _jacobi(a)
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-13 * norm
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * norm
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12


def _pinned_inputs() -> list:
    """Seeded Hermitian matrices at d = 1 to ``SCALAR_MAX_DIM``, plain and
    scaled to 1e150 and 1e300 (whose squares overflow), then a zero matrix,
    the tied diagonal (1, 0, 1, 0) and a rotated spectrum (1, 1, 2, 2)."""
    rng = np.random.default_rng(2024)
    mats = []
    for d in range(1, SCALAR_MAX_DIM + 1):
        for scale in (1.0, 1e150, 1e300):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mats.append(scale * 0.5 * (g + g.conj().T))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    tied = (q * [1.0, 1.0, 2.0, 2.0]) @ q.conj().T
    return mats + [np.zeros((3, 3), complex), np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex),
                   0.5 * (tied + tied.conj().T)]


def test_scalar_solver_bits_are_pinned():
    """The scalar path is plain Python arithmetic, so its bits do not depend
    on the numpy build: (w, V) hash to a recorded digest.  The inputs up to
    1e200 keep the bits of the solver that sorted with
    ``np.argsort(kind="stable")``; those at 1e300, whose squared norm
    overflows, are solved exactly scaled, with LAPACK's eigenvalues to
    1e-13.  Tied eigenvalues keep their diagonal order, as a stable sort
    keeps them."""
    digest, kept = hashlib.sha256(), hashlib.sha256()
    for a in _pinned_inputs():
        w, v = _jacobi(a)
        assert w.dtype == np.float64 and v.dtype == np.complex128
        big = np.abs(a).max() > 1e200
        for h in (digest,) if big else (digest, kept):
            h.update(w.tobytes())
            h.update(v.tobytes())
        if big:
            ref = np.linalg.eigvalsh(a)
            assert np.abs(w - ref).max() <= 1e-13 * np.abs(ref).max()
    assert kept.hexdigest() == "e5a8c4cd7d5160bdcd55444619d58f5eee675f8fca54d032fdadd67586b76c71"
    assert digest.hexdigest() == "8b2c962f83d42badaa77f829aad1707e96b9a2676f9cacfff26dd7a4dd551b20"
    w, v = _jacobi(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
    assert w.tolist() == [0.0, 0.0, 1.0, 1.0] and np.array_equal(v, np.eye(4)[:, [1, 3, 0, 2]])


@pytest.mark.parametrize("x", [1e-170, 1e-162, 1e154, 1e300])
def test_a_squared_norm_beyond_the_normal_floats_is_solved_scaled(x):
    """|A|_F^2 of [[0, x], [x, 0]] and of a seeded 4x4 scaled by x is 0,
    subnormal or inf; both paths solve 2^-e A, an exact scaling, and agree
    with eigvalsh (+-x for the first) to 1e-14 of the largest eigenvalue."""
    g = np.random.default_rng(1).normal(size=(4, 4, 2)) @ [1.0, 1j]
    for a in (np.array([[0.0, x], [x, 0.0]], dtype=complex), x * 0.5 * (g + g.conj().T)):
        ref = np.linalg.eigvalsh(a)
        tol = 1e-14 * np.abs(ref).max()
        stack = _jacobi_stack(a[None], want_vectors=True)
        for w, v in (_jacobi(a), (stack[0][0], stack[1][0])):
            assert np.abs(w - ref).max() <= tol
            assert np.abs((v * w) @ v.conj().T - a).max() <= tol


def test_an_eigenvalue_beyond_the_float_range_is_a_numeric_error():
    """Scaled back, the eigenvalue 3e308 of a matrix of 1.5e308 overflows."""
    a = np.full((2, 2), 1.5e308, dtype=complex)
    for solve in (_jacobi, lambda m: _jacobi_stack(m[None], want_vectors=False)):
        with pytest.raises(NumericError, match=r"an eigenvalue overflows \(dim 2\); scale the matrix down"):
            solve(a)


def test_checks_that_overflow_raise_their_error_without_a_warning():
    """A hermiticity defect and an eigenvalue that overflow become the
    checks' own errors, with no numpy warning printed first."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="hermiticity defect inf"):
            HermitianOperator([[0.0, 1.7e308], [-1.7e308, 0.0]])
        with pytest.raises(NumericError, match="an eigenvalue overflows"):
            hermitian_eigvals(np.full((2, 2), 1.5e308))


def test_scalar_solver_skips_a_tiny_2x2_coupling():
    """A 2x2 takes the scalar loop like any other matrix, with its skip rule:
    an off-diagonal at or below JACOBI_TOL * |A|_F / (2 n) is left alone, so
    the matrix already counts as diagonal and comes back as it is."""
    a = np.array([[1.0, 1e-15j], [-1e-15j, 2.0]])
    assert 0.0 < abs(a[0, 1]) <= qcore.JACOBI_TOL * np.linalg.norm(a) / 4
    w, v = _jacobi(a)
    assert np.array_equal(w, [1.0, 2.0]) and np.array_equal(v, np.eye(2))
    assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 32, 33, 64])
def test_stack_matches_scalar_solver(monkeypatch, dim):
    """Eigenvalues agree with the scalar path, and the vectors reconstruct
    each matrix, within 1e-12 of its Frobenius norm."""
    monkeypatch.setattr(qcore, "SCALAR_MAX_DIM", MAX_DIM)
    rng = np.random.default_rng(910 + dim)
    a = random_hermitian_stack(rng, 2, dim)
    w, v = _jacobi_stack(a, want_vectors=True)
    w_only, none = _jacobi_stack(a, want_vectors=False)
    assert none is None and np.array_equal(w_only, w)
    for k in range(a.shape[0]):
        tol = 1e-12 * np.linalg.norm(a[k])
        assert np.abs(w[k] - _jacobi(a[k])[0]).max() <= tol
        assert np.all(np.diff(w[k]) >= 0.0)
        assert np.linalg.norm((v[k] * w[k]) @ v[k].conj().T - a[k]) <= tol
        assert np.linalg.norm(v[k].conj().T @ v[k] - np.eye(dim)) <= tol


@pytest.mark.parametrize("dim", [2, 3, 6, 17, 32, 64])
def test_stack_bits_do_not_depend_on_the_stack(dim):
    """A matrix gets the same bits alone, at any position of a mixed stack,
    and in a second run."""
    rng = np.random.default_rng(920 + dim)
    a = mixed_stack(rng, dim)
    if dim == 64:  # random, rescaled, degenerate and zero: still converging apart
        a = a[[0, 2, 4, 5]]
    w, v = _jacobi_stack(a, want_vectors=True)
    w2, v2 = _jacobi_stack(a, want_vectors=True)
    assert np.array_equal(w, w2) and np.array_equal(v, v2)
    perm = rng.permutation(a.shape[0])
    wp, vp = _jacobi_stack(a[perm], want_vectors=True)
    assert np.array_equal(wp, w[perm]) and np.array_equal(vp, v[perm])
    for k in range(a.shape[0]):
        wk, vk = _jacobi_stack(a[k : k + 1], want_vectors=True)
        assert np.array_equal(wk[0], w[k]) and np.array_equal(vk[0], v[k])


def test_stack_across_block_boundary():
    rng = np.random.default_rng(930)
    a = random_hermitian_stack(rng, STACK_BLOCK + 3, 2)
    w, v = _jacobi_stack(a, want_vectors=True)
    assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(a).max()
    tail, _ = _jacobi_stack(a[STACK_BLOCK - 2 :], want_vectors=False)
    assert np.array_equal(tail, w[STACK_BLOCK - 2 :])


def test_stack_special_inputs():
    rng = np.random.default_rng(931)
    w, v = _jacobi_stack(np.zeros((3, 4, 4), complex), want_vectors=True)
    assert np.all(w == 0.0) and np.array_equal(v, np.broadcast_to(np.eye(4), (3, 4, 4)))

    d = np.stack([np.diag([3.0, -1.0, 2.0, 0.0]), np.diag([1.0, 1.0, 0.0, 1.0])]).astype(complex)
    w, v = _jacobi_stack(d, want_vectors=True)
    assert np.array_equal(w, [[-1.0, 0.0, 2.0, 3.0], [0.0, 1.0, 1.0, 1.0]])
    assert np.array_equal(np.abs(v[0]), np.eye(4)[:, [1, 3, 2, 0]])

    a = mixed_stack(rng, 9)[4:5]  # levels 1, 1, 1, 2, 2, 2, 5, 5, 5
    w, v = _jacobi_stack(a, want_vectors=True)
    assert np.abs(w[0] - np.repeat([1.0, 2.0, 5.0], 3)).max() <= 1e-12 * np.linalg.norm(a[0])
    assert np.abs(v[0].conj().T @ v[0] - np.eye(9)).max() <= 1e-12

    one = np.array([[[2.5]], [[-1.0]]], complex)
    w, v = _jacobi_stack(one, want_vectors=True)
    assert np.array_equal(w, [[2.5], [-1.0]]) and np.array_equal(v, np.ones((2, 1, 1)))
    assert _jacobi_stack(one, want_vectors=False)[1] is None


def test_stack_nonconvergence_names_dimension(monkeypatch):
    monkeypatch.setattr(qcore, "JACOBI_MAX_SWEEPS", 1)
    a = random_hermitian_stack(np.random.default_rng(932), 3, 5)
    with pytest.raises(NumericError, match=r"within 1 sweeps \(dim 5\)"):
        _jacobi_stack(a, want_vectors=False)


def test_large_single_matrix_goes_through_the_stack():
    a = random_hermitian(np.random.default_rng(933), 64)
    w, v = _jacobi(a)
    ws, vs = _jacobi_stack(a[None], want_vectors=True)
    assert np.array_equal(w, ws[0]) and np.array_equal(v, vs[0])
    assert np.array_equal(_jacobi(a)[0], ws[0])


def test_tables_with_time_dependent_hamiltonian():
    """The stacked H branch of the measure tables against a per-point
    reference on the scalar solver, across a block boundary."""
    rng = np.random.default_rng(934)
    n, dim, beta = STACK_BLOCK + 5, 3, 0.7
    states = np.stack([random_density_matrix(rng, dim) for _ in range(n)])
    hams = random_hermitian_stack(rng, n, dim)
    tr = Trajectory(np.linspace(0.0, 1.0, n), states, hams, beta)
    energy, s_rho, s_deph, log_z = _tables(tr)

    def shannon(p):
        p = p[p > 0.0]
        return -(p * np.log(p)).sum()

    for k in range(n):
        w = _jacobi(states[k])[0]
        wh, vh = _jacobi(hams[k])
        pops = np.einsum("an,ab,bn->n", vh.conj(), states[k], vh).real
        assert energy[k] == pytest.approx(np.trace(states[k] @ hams[k]).real, abs=1e-12)
        assert s_rho[k] == pytest.approx(shannon(w), abs=1e-12)
        assert s_deph[k] == pytest.approx(shannon(pops), abs=1e-12)
        log_z_ref = math.log(np.exp(-beta * (wh - wh[0])).sum()) - beta * wh[0]
        assert log_z[k] == pytest.approx(log_z_ref, abs=1e-12)


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


def test_a_state_whose_trace_is_nan_is_rejected():
    """Finite entries whose trace sums to nan fail the trace check."""
    with pytest.raises(ValidationError) as info:
        DensityMatrix(np.diag([1.7e308, -1.7e308, 0, 0, 1.7e308, -1.7e308, 0, 0]), check_psd=False)
    assert str(info.value) == "DensityMatrix: trace (nan+0j) deviates from 1 beyond 1e-10"


@pytest.mark.parametrize("d", range(1, 9))
def test_projector_of_a_pure_state_is_exactly_hermitian(d):
    """np.outer may round v_i conj(v_j) and v_j conj(v_i) differently; the
    projector keeps its upper triangle and real diagonal, and mirrors them."""
    rng = np.random.default_rng(11)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    m = DensityMatrix.from_pure(psi).matrix
    assert np.array_equal(m, m.conj().T)
    outer = np.outer(psi, psi.conj())
    upper = np.triu_indices(d, 1)
    assert np.array_equal(m[upper], outer[upper])
    assert np.array_equal(m.diagonal().real, outer.diagonal().real)


def test_from_pure_takes_a_bare_input_only_as_a_vector():
    for bare in ([[1, 0], [0, 0]], [[1.0]], 1.0, np.zeros((1, 2, 1))):
        shape = re.escape(str(np.shape(bare)))
        with pytest.raises(ValidationError, match=rf"^DensityMatrix.from_pure: .*shape {shape}$"):
            DensityMatrix.from_pure(bare)
    # an unnormalized vector is still reported by the trace check
    with pytest.raises(ValidationError, match="DensityMatrix: trace"):
        DensityMatrix.from_pure([1.0, 1.0])


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
    hermitian_eig(h)  # the kept spectrum is no more writable than the rest
    for x in (h, rho, PureState([1.0, 0.0]), ch):
        for attr in ("matrix", "_eig", "amplitudes", "kraus", "dim", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)


def test_containers_leave_the_callers_array_writable():
    h = np.diag([0.0, 1.0]).astype(complex)
    gibbs_state(h, 1.0)
    h[0, 0] = 5.0
    rho = np.eye(2, dtype=complex) / 2
    psi = np.array([1.0, 0.0], dtype=complex)
    k = np.eye(2, dtype=complex)
    held = (HermitianOperator(h), DensityMatrix(rho), PureState(psi), QuantumChannel([k]))
    rho[0, 1] = psi[1] = k[0, 1] = 0.25
    assert held[0].matrix[0, 0] == 5.0 and held[1].matrix[0, 1] == 0.0
    assert held[2].amplitudes[1] == 0.0 and held[3].kraus[0][0, 1] == 0.0


def test_constructor_accepts_wrapped_input():
    h = HermitianOperator(np.diag([1.0, 2.0]))
    again = HermitianOperator(h)
    assert np.array_equal(again.matrix, h.matrix)


# ---------------------------------------------------------------------------
# the spectrum each container keeps

def test_psd_check_keeps_its_spectrum(solves):
    rng = np.random.default_rng(920)
    rho = DensityMatrix(random_density_matrix(rng, 4))
    w, v = hermitian_eig(rho)
    assert solves == [4]
    assert np.abs((v * w) @ v.conj().T - rho.matrix).max() <= 1e-12
    # returned as copies: the caller may write, the kept pair stays read-only
    w[0] = 7.0
    assert hermitian_eigvals(rho)[0] != 7.0
    assert not any(a.flags.writeable for a in qcore._spectrum(rho))


def test_a_container_built_from_a_container_takes_its_spectrum(solves):
    rng = np.random.default_rng(921)
    h = HermitianOperator(random_hermitian(rng, 3))
    hermitian_eig(h)
    rho = DensityMatrix(random_density_matrix(rng, 3))  # the positivity check solves
    solves.clear()
    for copy, source in ((HermitianOperator(h), h), (DensityMatrix(rho), rho),
                         (HermitianOperator(rho), rho)):
        assert qcore._spectrum(copy) is qcore._spectrum(source)
    assert solves == []


def test_cold_slot_solves_once(solves):
    rng = np.random.default_rng(922)
    h = HermitianOperator(random_hermitian(rng, 5))
    bare = np.array(h.matrix)
    for _ in range(3):
        hermitian_eig(h)
        hermitian_eigvals(bare)
    # the container once, the bare array on every call
    assert solves == [5] * 4


def test_kept_spectrum_cannot_go_stale():
    rng = np.random.default_rng(923)
    for dim in (1, 2, 3, 8, 17):
        h = random_hermitian(rng, dim)
        r = random_density_matrix(rng, dim)
        held = (HermitianOperator(h), DensityMatrix(r), DensityMatrix(r, check_psd=False))
        hermitian_eig(held[0])
        h += np.eye(dim)
        r[0, 0] += 0.5
        hermitian_eig(held[2])
        for x in held:
            ref = np.linalg.eigvalsh(x.matrix)
            assert np.abs(qcore._spectrum(x)[0] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_known_spectra_are_kept():
    """Gibbs and dephased states hold the spectrum they were built from:
    ascending, and an eigendecomposition of their own matrix."""
    rng = np.random.default_rng(924)
    for dim in (1, 2, 3, 4, 8, 17):
        h = HermitianOperator(random_hermitian(rng, dim))
        rho = DensityMatrix(random_density_matrix(rng, dim))
        for out in (gibbs_state(h, 0.7).state, dephase(rho, h)):
            w, v = qcore._spectrum(out)
            assert np.all(np.diff(w) >= 0.0)
            assert np.abs(w - np.linalg.eigvalsh(out.matrix)).max() <= 1e-14
            assert np.abs((v * w) @ v.conj().T - out.matrix).max() <= 1e-14
        # the Gibbs state's eigenvectors are the Hamiltonian's, reversed
        assert np.array_equal(qcore._spectrum(gibbs_state(h, 0.7).state)[1], hermitian_eig(h)[1][:, ::-1])


def test_operands_in_containers_pass_the_gate(gates):
    rng = np.random.default_rng(925)
    h0, h1 = (HermitianOperator(random_hermitian(rng, 3)) for _ in range(2))
    r0, r1 = (DensityMatrix(random_density_matrix(rng, 3)) for _ in range(2))
    gates.clear()
    first_law_ledger(r0, h0, r1, h1, 0.5)
    assert gates == []
    first_law_ledger(r0.matrix, h0, r1, h1, 0.5)
    assert gates == ["first_law_ledger rho0"]
    with pytest.raises(ValidationError, match="^first_law_ledger: operands must share one dimension"):
        first_law_ledger(r0, h0, r1, HermitianOperator(np.eye(2)), 0.5)


def test_a_bare_array_is_gated_once_into_a_container(gates):
    rng = np.random.default_rng(926)
    r = random_density_matrix(rng, 3)
    h = HermitianOperator(random_hermitian(rng, 3))
    gates.clear()
    x = qcore._gated(r, "caller rho")
    assert type(x) is HermitianOperator and x._eig is None and not x.matrix.flags.writeable
    assert qcore._gated(h, "caller h") is h and qcore._gated(x, "again") is x
    # a container is not gated again when it is wrapped as a state
    assert DensityMatrix(x).matrix is x.matrix
    assert gates == ["caller rho"]
    a, b, c = qcore._as_operands("f", rho=r, sigma=r, h=h)
    assert a is b and c is h and gates == ["caller rho", "f rho"]


# ---------------------------------------------------------------------------
# several spectra at once: one stack per dimension above the scalar limit

def cold_process(rng, dim):
    """rho0, h0, rho_tau, h_tau as containers with no spectrum yet."""
    return (DensityMatrix(random_density_matrix(rng, dim), check_psd=False),
            HermitianOperator(random_hermitian(rng, dim)),
            DensityMatrix(random_density_matrix(rng, dim), check_psd=False),
            HermitianOperator(random_hermitian(rng, dim)))


def test_cold_ledger_operands_share_one_stack(solves, stack_solves):
    ops = cold_process(np.random.default_rng(926), 32)
    first_law_ledger(*ops, 0.5)
    assert stack_solves == [(4, 32)] and solves == []
    # each seeded spectrum has the bits of a solve alone
    for x in ops:
        w, v = _jacobi(x.matrix)
        assert np.array_equal(qcore._spectrum(x)[0], w) and np.array_equal(qcore._spectrum(x)[1], v)


def test_a_repeated_operand_is_solved_once(solves, stack_solves):
    rng = np.random.default_rng(927)
    r0, h0, r1, _ = cold_process(rng, 32)
    first_law_ledger(r0, h0, r1, h0, 0.5)
    assert stack_solves == [(3, 32)] and solves == []
    stack_solves.clear()
    bare = [np.array(x.matrix) for x in cold_process(rng, 32)]
    first_law_ledger(bare[0], bare[1], bare[2], bare[1], 0.5)
    assert stack_solves == [(3, 32)] and solves == []


def test_warm_operands_make_no_solve(solves, stack_solves):
    ops = cold_process(np.random.default_rng(928), 17)
    first_law_ledger(*ops, 0.5)
    solves.clear()
    stack_solves.clear()
    led = first_law_ledger(*ops, 0.5)
    assert stack_solves == [] and solves == []
    assert led == first_law_ledger(*(np.array(x.matrix) for x in ops), 0.5)


def test_small_operands_stay_on_the_scalar_solver(solves, stack_solves):
    first_law_ledger(*cold_process(np.random.default_rng(929), 16), 0.5)
    assert solves == [16] * 4 and stack_solves == []


def test_spectra_equal_spectrum_for_mixed_operands(solves, stack_solves):
    """Bare and contained, warm and cold, of several dimensions: the
    spectra are those of ``_spectrum``, one stack per large dimension."""
    rng = np.random.default_rng(930)
    xs = [HermitianOperator(random_hermitian(rng, 17)), random_hermitian(rng, 33),
          DensityMatrix(random_density_matrix(rng, 33), check_psd=False), random_hermitian(rng, 3),
          HermitianOperator(random_hermitian(rng, 33)), HermitianOperator(random_hermitian(rng, 5))]
    hermitian_eig(xs[4])  # warm
    refs = [_jacobi(np.array(getattr(x, "matrix", x))) for x in xs]
    solves.clear()
    stack_solves.clear()
    ops = [qcore._gated(x, "operand") for x in xs]
    got = qcore._spectra(*ops, ops[0])
    assert sorted(stack_solves) == [(1, 17), (2, 33)] and solves == [3, 5]
    for (w, v), (wr, vr) in zip(got, refs + refs[:1]):
        assert np.array_equal(w, wr) and np.array_equal(v, vr)
    assert got[-1] is got[0]


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


def test_partial_trace_stack_checks_its_shape():
    """A (T, d, d) square stack, as an array or a list of matrices; anything
    else is rejected under partial_trace's name, not by a numpy reshape."""
    rho = np.eye(4) / 4
    for bad in (rho, np.zeros((2, 4, 3)), [[1.0]]):
        with pytest.raises(ValidationError, match=r"^partial_trace: expected a \(T, d, d\) stack, got shape"):
            partial_trace_stack(bad, [2, 2], [0])
    assert np.array_equal(partial_trace_stack([rho, rho], [2, 2], [0]),
                          partial_trace_stack(np.stack([rho, rho]), [2, 2], [0]))


def test_partial_trace_returns_a_state(solves):
    """A bare array is checked as a state under partial_trace's name, so the
    reduced matrix it returns is one; a DensityMatrix is one already."""
    with pytest.raises(ValidationError, match="^partial_trace: smallest eigenvalue -5.000e-01"):
        partial_trace(np.diag([1.5, 0.0, 0.0, -0.5]), [2, 2], [0])
    skew = np.kron(np.array([[0.5, 0.4], [0.0, 0.5]]), np.eye(2) / 2)
    with pytest.raises(ValidationError, match="^partial_trace: hermiticity defect"):
        partial_trace(skew, [2, 2], [0])
    with pytest.raises(ValidationError, match="^partial_trace: trace"):
        partial_trace(np.eye(4) / 2, [2, 2], [0])
    rho = random_density_matrix(np.random.default_rng(910), 4)
    solves.clear()
    assert np.array_equal(partial_trace(rho, [2, 2], [1]).matrix,
                          partial_trace_stack(rho[None], [2, 2], [1])[0])
    assert solves == [4]  # the input's positivity check; the output needs none
    state = DensityMatrix(rho)
    solves.clear()
    partial_trace(state, [2, 2], [1])
    assert solves == []


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


def _isometry_channel(rng, d, n_kraus):
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    w, _ = np.linalg.qr(g)
    return [w[k * d : (k + 1) * d] for k in range(n_kraus)]


@pytest.mark.parametrize("d", [2, 3, 4, 16, 17, 32, 64])
def test_kraus_sum_equals_the_loop_bitwise(d):
    """The stacked sum_k K rho K^dag has the bits of one product per operator."""
    rng = np.random.default_rng(d)
    kraus = _isometry_channel(rng, d, 3)
    rho = random_density_matrix(rng, d)
    out = sum(k @ rho @ k.conj().T for k in kraus)
    ref = qcore._mirror(out)
    assert qcore._kraus_sum(QuantumChannel(kraus), rho).tobytes() == ref.tobytes()


def test_gibbs_preserving_kraus_stack_equals_outer_products_bitwise():
    """The broadcast stack has the bits of one np.outer per Kraus operator."""
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        h, beta = random_hermitian(rng, d), float(rng.uniform(0.1, 5.0))
        seed = int(rng.integers(2**31))
        got = np.stack(sampling.gibbs_preserving_channel(np.random.default_rng(seed), h, beta).kraus)
        draw = np.random.default_rng(seed)
        spec = gibbs_state(h, beta)
        w, v = hermitian_eig(spec.hamiltonian)
        weights = draw.dirichlet(np.ones(3))
        phases = np.exp(1j * draw.uniform(0.0, 2.0 * np.pi, size=d))
        ref = [np.sqrt(weights[0]) * ((v * phases) @ v.conj().T)]
        pops = hermitian_eigvals(spec.state)[::-1]
        ref += [np.sqrt(weights[1] * pops[k]) * np.outer(v[:, k], v[:, j].conj())
                for k in range(d) for j in range(d)]
        ref += [np.sqrt(weights[2]) * np.outer(v[:, k], v[:, k].conj()) for k in range(d)]
        assert got.tobytes() == np.stack(ref).tobytes()


@pytest.mark.parametrize("bad", [np.diag([0.7, 0.6]), np.diag([1.2, -0.2])], ids=["trace", "negative"])
def test_stacked_state_check_reports_as_the_single_one(bad):
    """The first failing matrix of a stack gets ``_check_state``'s message."""
    stack = np.stack([np.eye(2) / 2, bad, np.diag([1.3, -0.3])]).astype(complex)
    with pytest.raises(ValidationError) as single:
        qcore._gated(bad, "audit rho_t", state=True)
    with pytest.raises(ValidationError) as stacked:
        qcore._check_states(stack, np.linalg.eigvalsh(stack), "audit rho_t")
    assert str(stacked.value) == str(single.value)
    qcore._check_states(stack[:1], np.linalg.eigvalsh(stack[:1]), "audit rho_t")


@pytest.mark.parametrize("cls, bad", [
    (HermitianOperator, [[0.0, 0.3], [0.0, 0.0]]),
    (HermitianOperator, [[np.nan, 0.0], [0.0, 0.0]]),
    (DensityMatrix, np.diag([0.7, 0.6])),
], ids=["non-hermitian", "non-finite", "trace"])
def test_stacked_rows_report_as_their_containers(cls, bad):
    """A stack gated as rows (``_as_operands``' bare operands) fails with the
    message its container gives its bad matrix, and a stack of states
    checked by its traces alone (the audit's rho0) with the message of
    ``DensityMatrix``; the rows it holds are read-only and unsolved."""
    bad = np.asarray(bad, dtype=complex)
    stack = np.stack([np.eye(2) / 2, bad]).astype(complex)
    with pytest.raises(ValidationError) as single:
        cls(bad, check_psd=False) if cls is DensityMatrix else cls(bad)
    with pytest.raises(ValidationError) as stacked:
        if cls is DensityMatrix:
            qcore._check_states(stack, None, "DensityMatrix")
        else:
            qcore._rows(stack, "HermitianOperator")
    assert str(stacked.value) == str(single.value)
    (row,) = qcore._rows(np.eye(2)[None] / 2 + 0j, "HermitianOperator")
    assert type(row) is HermitianOperator and row._eig is None and not row.matrix.flags.writeable


def test_stacked_kraus_check_reports_as_the_channel():
    """A stack of channels fails on its first incomplete one, as that
    channel's constructor does."""
    kraus = np.stack([np.eye(2)[None], 1.001 * np.eye(2)[None], 1.1 * np.eye(2)[None]])
    with pytest.raises(ValidationError) as single:
        QuantumChannel(kraus[1])
    with pytest.raises(ValidationError) as stacked:
        qcore._check_kraus(kraus)
    assert str(stacked.value) == str(single.value)
    assert str(single.value).startswith("QuantumChannel: completeness defect 2.001e-03")
    qcore._check_kraus(kraus[:1])


def test_channel_kraus_is_a_tuple_of_read_only_operators():
    kraus = _isometry_channel(np.random.default_rng(3), 3, 4)
    ch = QuantumChannel(kraus)
    assert type(ch.kraus) is tuple and len(ch.kraus) == 4 and ch.dim == 3
    for k, given in zip(ch.kraus, kraus):
        assert k.shape == (3, 3) and not k.flags.writeable
        assert np.array_equal(k, given) and not np.shares_memory(k, given)
        with pytest.raises(ValueError):
            k[0, 0] = 1.0


@pytest.mark.parametrize(
    "kraus, message",
    [([], "QuantumChannel: at least one Kraus operator required"),
     ([np.eye(2), np.eye(3)], "QuantumChannel: Kraus operators must share one dimension"),
     ([np.ones((2, 3))], "QuantumChannel kraus: expected a square matrix, got shape (2, 3)"),
     ([np.eye(2) * 0.5], "QuantumChannel: completeness defect 7.500e-01 exceeds 1e-10"),
     # K^dag K overflows to inf and inf - inf: a nan defect
     ([1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])], "QuantumChannel: completeness defect nan exceeds 1e-10")],
    ids=["empty", "mixed", "non-square", "incomplete", "nan-defect"],
)
def test_channel_errors_keep_their_messages(kraus, message):
    with pytest.raises(ValidationError) as info:
        QuantumChannel(kraus)
    assert str(info.value) == message


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
