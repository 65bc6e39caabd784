"""Fixed-step integrators: master equation, closed-system propagator."""

import math

import numpy as np
import pytest

import qledger.dynamics as dyn
import qledger.models as models
from qledger.dynamics import GridSpec, LindbladSpec, lindblad_evolve, schrodinger_evolve
from qledger.models import Example1Params, Example2Params, example1_pseudomode_oracle, run_example2
from qledger.qcore import STACK_BLOCK, DensityMatrix, NumericError, PureState, ValidationError, tensor

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
SP = SM.conj().T
NUM = np.diag([0.0, 1.0]).astype(np.complex128)
I2 = np.eye(2, dtype=np.complex128)
H2 = np.diag([0.0, 1.0])


def test_grid_spec():
    g = GridSpec(2.0, 4)
    assert g.dt == 0.5
    t = g.times()
    assert t[0] == 0.0 and t[-1] == 2.0 and len(t) == 5
    with pytest.raises(ValidationError):
        GridSpec(0.0, 10)
    with pytest.raises(ValidationError):
        GridSpec(-1.0, 10)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 1)
    with pytest.raises(ValidationError):
        GridSpec(math.inf, 10)


@pytest.mark.parametrize(
    "t_max, steps, dt",
    [(np.int64(20), 100, 0.2), (20.0, np.int64(100), 0.2), (np.float32(2.0), 10, 0.2)],
    ids=["int64-t_max", "int64-steps", "float32-t_max"],
)
def test_grid_spec_takes_numpy_numbers(t_max, steps, dt):
    g = GridSpec(t_max, steps)
    assert type(g.t_max) is float and type(g.steps) is int
    assert g.dt == dt and len(g.times()) == g.steps + 1


@pytest.mark.parametrize(
    "t_max, steps, message",
    [(True, 10, "t_max must be a positive finite real number, got True"),
     (1.0, True, "steps must be an integer >= 2, got True")],
    ids=["bool-t_max", "bool-steps"],
)
def test_grid_spec_rejects_bools(t_max, steps, message):
    with pytest.raises(ValidationError, match=f"^GridSpec: {message}$"):
        GridSpec(t_max, steps)


def test_grid_spec_rejects_steps_beyond_numpy_size_limit():
    limit = np.iinfo(np.intp).max
    message = (f"^GridSpec: steps must be within numpy's size limit: a float64 grid of steps \\+ 1 "
               f"points in {limit} bytes, got 100000000000000000000$")
    with pytest.raises(ValidationError, match=message):
        GridSpec(1.0, 10**20)
    # numpy sizes the grid from the float value of its point count, which
    # rounds 2**60 - 63 points up to 2**60 and 2**60 - 128 points to themselves
    with pytest.raises(ValidationError, match="^GridSpec: steps must be within numpy's size limit"):
        GridSpec(1.0, 2**60 - 64)
    assert GridSpec(1.0, 2**60 - 129).steps == 2**60 - 129


def test_lindblad_spec_validation():
    LindbladSpec(H2, [(SM, 0.5)])
    with pytest.raises(ValidationError):
        LindbladSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), [])  # not Hermitian
    with pytest.raises(ValidationError):
        LindbladSpec(H2, [(SM, -0.1)])  # negative rate
    with pytest.raises(ValidationError):
        LindbladSpec(H2, [(np.eye(3), 0.1)])  # jump dim mismatch
    # cross terms must keep the rate matrix positive semidefinite
    with pytest.raises(ValidationError):
        LindbladSpec(
            tensor(NUM, I2) + tensor(I2, NUM),
            [(tensor(SM, I2), 0.1), (tensor(I2, SM), 0.1)],
            cross_terms=[(0, 1, 0.5)],
        )
    # and a consistent cross term is accepted
    spec = LindbladSpec(
        tensor(NUM, I2) + tensor(I2, NUM),
        [(tensor(SM, I2), 0.4), (tensor(I2, SM), 0.4)],
        cross_terms=[(0, 1, 0.4)],
    )
    assert spec.dim == 4


def test_closed_system_matches_spectral_propagator():
    """No dissipation: RK4 must track the exact unitary evolution."""
    h = np.array([[1.0, 0.4 - 0.2j], [0.4 + 0.2j, -0.5]])
    psi0 = PureState(np.array([0.6, 0.8]))
    grid = GridSpec(5.0, 5000)
    exact = schrodinger_evolve(h, psi0, grid, beta=1.0)
    stepped = lindblad_evolve(LindbladSpec(h, []), psi0.to_density(), grid, beta=1.0)
    assert np.abs(stepped.states - exact.states).max() <= 1e-9


def test_amplitude_damping_closed_form():
    gamma = 1.0
    spec = LindbladSpec(H2, [(SM, gamma)])
    rho0 = DensityMatrix.from_pure(np.array([0.6, 0.8]))
    grid = GridSpec(1.0, 1000)
    tr = lindblad_evolve(spec, rho0, grid, beta=1.0)
    t = tr.times
    p_ex = tr.states[:, 1, 1].real
    coh = tr.states[:, 0, 1]
    assert np.abs(p_ex - 0.64 * np.exp(-gamma * t)).max() <= 1e-6
    # coherence decays at half the population rate, on top of the phase
    expected = 0.6 * 0.8 * np.exp((1j - gamma / 2.0) * t)
    assert np.abs(coh - expected).max() <= 1e-6


def test_rk4_error_scales_fourth_order():
    gamma = 1.0
    spec = LindbladSpec(H2, [(SM, gamma)])
    rho0 = DensityMatrix(np.diag([0.0, 1.0]))
    errs = []
    for steps in (50, 100, 200):
        tr = lindblad_evolve(spec, rho0, GridSpec(1.0, steps), beta=1.0)
        p = tr.states[-1, 1, 1].real
        errs.append(abs(p - math.exp(-gamma)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 12.0 <= r1 <= 20.0
    assert 12.0 <= r2 <= 20.0


def test_gibbs_state_is_stationary():
    """Detailed-balance rates fix the thermal state."""
    beta = 0.8
    n_bar = 1.0 / math.expm1(beta)
    spec = LindbladSpec(H2, [(SM, 0.7 * (n_bar + 1.0)), (SP, 0.7 * n_bar)])
    p1 = math.exp(-beta) / (1.0 + math.exp(-beta))
    pi = DensityMatrix(np.diag([1.0 - p1, p1]))
    tr = lindblad_evolve(spec, pi, GridSpec(4.0, 2000), beta)
    assert np.abs(tr.states - pi.matrix).max() <= 1e-8


def test_thermal_relaxation_reaches_gibbs():
    beta = 0.8
    n_bar = 1.0 / math.expm1(beta)
    spec = LindbladSpec(H2, [(SM, 1.0 * (n_bar + 1.0)), (SP, 1.0 * n_bar)])
    rho0 = DensityMatrix.from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
    tr = lindblad_evolve(spec, rho0, GridSpec(25.0, 10000), beta)
    p1 = math.exp(-beta) / (1.0 + math.exp(-beta))
    assert np.abs(tr.states[-1] - np.diag([1.0 - p1, p1])).max() <= 1e-6


def test_collective_decay_protects_dark_state():
    """Cross terms at full strength: the antisymmetric state cannot emit."""
    gamma = 1.0
    h = tensor(NUM, I2) + tensor(I2, NUM)
    spec = LindbladSpec(
        h,
        [(tensor(SM, I2), gamma), (tensor(I2, SM), gamma)],
        cross_terms=[(0, 1, gamma)],
    )
    dark = np.zeros(4, dtype=np.complex128)
    dark[1] = 1.0 / math.sqrt(2)
    dark[2] = -1.0 / math.sqrt(2)
    tr = lindblad_evolve(spec, DensityMatrix.from_pure(dark), GridSpec(5.0, 5000), beta=1.0)
    assert np.abs(tr.states[-1] - tr.states[0]).max() <= 1e-8
    # while the symmetric state decays superradiantly at 2 gamma
    bright = np.zeros(4, dtype=np.complex128)
    bright[1] = bright[2] = 1.0 / math.sqrt(2)
    tr2 = lindblad_evolve(spec, DensityMatrix.from_pure(bright), GridSpec(2.0, 2000), beta=1.0)
    excited = tr2.states[:, 1, 1].real + tr2.states[:, 2, 2].real
    assert np.abs(excited - np.exp(-2.0 * gamma * tr2.times)).max() <= 1e-6


def test_coarse_grid_raises_numeric_error():
    spec = LindbladSpec(10.0 * H2, [(SM, 8.0)])
    rho0 = DensityMatrix(np.diag([0.2, 0.8]))
    with pytest.raises(NumericError) as info:
        lindblad_evolve(spec, rho0, GridSpec(10.0, 20), beta=1.0)
    assert "steps" in str(info.value)


def test_integrators_check_beta_before_integrating(monkeypatch):
    """An invalid beta fails at entry under the integrator's name, before
    any propagator or eigendecomposition is built."""
    import qledger.dynamics as dyn

    def started(*_):
        raise AssertionError("integration started")

    monkeypatch.setattr(dyn, "_rk4_propagator", started)
    monkeypatch.setattr(dyn, "_spectrum", started)
    spec = LindbladSpec(H2, [(SM, 0.5)])
    with pytest.raises(ValidationError, match="^lindblad_evolve: beta"):
        lindblad_evolve(spec, DensityMatrix(np.diag([0.5, 0.5])), GridSpec(1.0, 10), beta=math.inf)
    with pytest.raises(ValidationError, match="^schrodinger_evolve: beta"):
        schrodinger_evolve(H2, PureState([1.0, 0.0]), GridSpec(1.0, 10), beta=math.inf)


def test_integrators_check_their_spec_and_grid():
    """A grid that is no GridSpec and a spec that is no LindbladSpec fail at
    entry under the integrator's name."""
    spec, rho0 = LindbladSpec(H2, [(SM, 0.5)]), np.diag([0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^lindblad_evolve: grid must be a GridSpec, got \(1.0, 10\)$"):
        lindblad_evolve(spec, rho0, (1.0, 10), 1.0)
    with pytest.raises(ValidationError, match="^lindblad_evolve: spec must be a LindbladSpec"):
        lindblad_evolve(H2, rho0, GridSpec(1.0, 10), 1.0)
    with pytest.raises(ValidationError, match="^schrodinger_evolve: grid must be a GridSpec, got 10$"):
        schrodinger_evolve(H2, PureState([1.0, 0.0]), 10, 1.0)
    with pytest.raises(ValidationError, match=r"^example1_pseudomode_oracle: grid must be a GridSpec, got \(1.0, 100\)$"):
        example1_pseudomode_oracle(Example1Params(), grid=(1.0, 100))


def _stage_loop_rk4(spec, rho0, grid, psd_check_every):
    """Reference: the four RK4 stages per step on the matrix-form generator,
    each state projected back to Hermitian, with the integrator's monitors."""
    h = spec.hamiltonian.matrix
    ops, gamma = spec.jumps, spec.rate_matrix

    def gen(rho):
        out = -1j * (h @ rho - rho @ h)
        for i, li in enumerate(ops):
            for j, lj in enumerate(ops):
                a = lj.conj().T @ li
                out = out + gamma[i, j] * (li @ rho @ lj.conj().T - 0.5 * (a @ rho + rho @ a))
        return out

    dt, n = grid.dt, grid.steps
    states = [rho0.matrix]
    rho = rho0.matrix
    for k in range(n):
        k1 = gen(rho)
        k2 = gen(rho + 0.5 * dt * k1)
        k3 = gen(rho + 0.5 * dt * k2)
        k4 = gen(rho + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rho = 0.5 * (rho + rho.conj().T)
        assert abs(rho.trace().real - 1.0) <= 1e-8
        if k % psd_check_every == psd_check_every - 1 or k == n - 1:
            assert np.linalg.eigvalsh(rho)[0] >= -1e-7
        states.append(rho)
    return np.array(states)


def test_chunked_propagator_matches_stage_loop():
    """1037 steps fit no chunk length evenly; cross terms and a coherent
    exchange make every entry of the d=4 state move."""
    h = tensor(NUM, I2) + 1.3 * tensor(I2, NUM) + 0.6 * (tensor(SP, SM) + tensor(SM, SP))
    spec = LindbladSpec(
        h,
        [(tensor(SM, I2), 0.5), (tensor(I2, SM), 0.3), (tensor(NUM, I2), 0.2)],
        cross_terms=[(0, 1, 0.2 + 0.1j)],
    )
    psi0 = np.array([0.1, 0.5 + 0.2j, 0.7, 0.3 - 0.4j])
    rho0 = DensityMatrix.from_pure(psi0 / np.linalg.norm(psi0))
    grid = GridSpec(6.0, 1037)
    tr = lindblad_evolve(spec, rho0, grid, beta=1.0, psd_check_every=7)
    ref = _stage_loop_rk4(spec, rho0, grid, psd_check_every=7)
    assert np.abs(tr.states - ref).max() <= 1e-12


def _qubit_chain(n):
    """An exchange-coupled chain of n qubits, every entry of its state moving:
    both end qubits decay with a correlated cross term, the first dephases."""
    def at(op, i):
        return tensor(*[op if j == i else I2 for j in range(n)])

    h = sum((1.0 + 0.3 * i) * at(NUM, i) for i in range(n))
    h = h + sum(0.6 * (at(SP, i) @ at(SM, i + 1) + at(SM, i) @ at(SP, i + 1)) for i in range(n - 1))
    spec = LindbladSpec(h, [(at(SM, 0), 0.5), (at(SM, n - 1), 0.3), (at(NUM, 0), 0.2)],
                        cross_terms=[(0, 1, 0.2 + 0.1j)])
    rng = np.random.default_rng(n)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return spec, DensityMatrix.from_pure(psi / np.linalg.norm(psi))


@pytest.mark.parametrize("n, chunk, steps", [(3, 32, 2501), (4, 2, 2101)], ids=["d8", "d16"])
def test_block_monitored_chunks_match_stage_loop(n, chunk, steps):
    """At d = 8 and 16 the chunks are shorter than at d = 4, and the grid ends
    inside a third monitor block that no chunk length divides."""
    spec, rho0 = _qubit_chain(n)
    m_bytes = 8 * spec.dim**4  # one real (d^2, d^2) power
    assert min(dyn.MAX_CHUNK, dyn.PROPAGATOR_POWERS_BYTES // m_bytes) == chunk
    grid = GridSpec(3.0, steps)
    tr = lindblad_evolve(spec, rho0, grid, beta=1.0, psd_check_every=7)
    ref = _stage_loop_rk4(spec, rho0, grid, psd_check_every=7)
    assert np.abs(tr.states - ref).max() <= 1e-12


def _random_spec(d, seed):
    """A random generator with three jumps, a correlated pair among them, and
    a random pure state: every coordinate of the state moves."""
    rng = np.random.default_rng(seed)

    def ginibre():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    g = ginibre()
    jumps = [(ginibre() / d, rate) for rate in (0.5, 0.3, 0.2)]
    spec = LindbladSpec(0.5 * (g + g.conj().T), jumps, cross_terms=[(0, 1, 0.2 + 0.1j)])
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return spec, DensityMatrix.from_pure(psi / np.linalg.norm(psi))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_real_steps_give_exactly_hermitian_states(d):
    """Each state is written from the real coordinates, so it is Hermitian to
    the bit; odd d cover the triangle index maps.  1100 steps cross a monitor
    block, and the states agree with the four-stage loop."""
    spec, rho0 = _random_spec(d, seed=d)
    grid = GridSpec(1.0, 1100)
    tr = lindblad_evolve(spec, rho0, grid, beta=1.0, psd_check_every=7)
    assert np.array_equal(tr.states, tr.states.conj().swapaxes(1, 2))
    ref = _stage_loop_rk4(spec, rho0, grid, psd_check_every=7)
    assert np.abs(tr.states - ref).max() <= 1e-12


def test_coordinate_maps_round_trip():
    """A Hermitian matrix goes to its d^2 coordinates and back bit for bit."""
    rng = np.random.default_rng(10)
    for d in (1, 2, 3, 5):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g + g.conj().T  # Hermitian to the bit
        pick, src, sign = dyn._coordinates(d)
        x = np.append(a.view(np.float64).ravel()[pick], 0.0)
        assert x.size == d * d + 1 and set(np.unique(sign)) <= {-1.0, 1.0}
        assert np.array_equal((sign * x[src]).view(np.complex128).reshape(d, d), a)


def test_propagator_build_peak_memory_at_d32():
    """The real generator is built without the complex superoperator: the
    build's traced peak at d = 32 stays within the complex build's 64 MiB,
    four complex (d^2, d^2) matrices."""
    import tracemalloc

    spec, _ = _random_spec(32, seed=32)
    tracemalloc.start()
    try:
        m = dyn._rk4_propagator(dyn._liouvillian(spec), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dtype == np.float64 and m.shape == (1024, 1024)
    assert peak <= 64 * 2**20


def test_monitor_runs_once_per_block(monkeypatch):
    """The default oracle run checks positivity in blocks of STACK_BLOCK
    states: one _min_eigvals call per block, not one per chunk, on the
    occupied rows only: 3 of 4 in the calibration, 4 of 8 in the d = 8 run."""
    checks = []
    min_eigvals = dyn._min_eigvals
    monkeypatch.setattr(dyn, "_min_eigvals", lambda a: checks.append((len(a), a.shape[-1])) or min_eigvals(a))
    per_run = []
    steps = models._lindblad_steps

    def counted(spec, rho0, grid, every, name, **kw):
        before = len(checks)
        out = steps(spec, rho0, grid, every, name, **kw)
        widths = {width for _, width in checks[before:]}
        per_run.append((grid.steps, len(checks) - before, kw.get("reduce"), widths))
        return out

    monkeypatch.setattr(models, "_lindblad_steps", counted)
    example1_pseudomode_oracle(Example1Params(R=12.5))
    assert len(per_run) == 2  # the d = 4 calibration and the d = 8 run
    assert all(reduce is not None for _, _, reduce, _ in per_run)
    assert [widths for *_, widths in per_run] == [{3}, {4}]
    per_run = [(n, calls) for n, calls, _, _ in per_run]
    for n, calls in per_run:
        assert 1 <= calls <= -(-n // STACK_BLOCK) + 1
    assert sum(n for n, _ in checks) == sum(-(-n // 10) for n, _ in per_run)  # every 10th state and the last


@pytest.mark.parametrize("steps", [100, STACK_BLOCK, 2500])
@pytest.mark.parametrize("n, keep", [(2, [0]), (3, [0]), (3, [0, 1])], ids=["d4-0", "d8-0", "d8-01"])
def test_reduced_run_is_the_partial_trace_of_the_full_run(n, keep, steps):
    """Reducing each block as it is checked keeps the bits of reducing the
    whole run at the end, on grids shorter than, equal to and longer than a
    block."""
    spec, rho0 = _qubit_chain(n)
    grid, dims = GridSpec(1.0, steps), [2] * n
    times, full = dyn._lindblad_steps(spec, rho0, grid, 7, "test")
    rtimes, red = dyn._lindblad_steps(spec, rho0, grid, 7, "test", reduce=(dims, keep))
    assert np.array_equal(rtimes, times)
    assert red.shape == (steps + 1, 2 ** len(keep), 2 ** len(keep)) and not red.flags.writeable
    assert np.array_equal(red, dyn.partial_trace_stack(full, dims, keep))


def _oracle_runs(p):
    """The oracle's two generators, initial states and factor dimensions: the
    d = 4 calibration (qubit, mode) and the d = 8 run (battery, partner, mode)."""
    h4 = p.omega0 * (tensor(NUM, I2) + tensor(I2, NUM)) + p.rabi * (tensor(SP, SM) + tensor(SM, SP))
    coupling = p.beta1 * tensor(SP, I2, SM) + p.beta2 * tensor(I2, SP, SM)
    num3 = tensor(NUM, I2, I2) + tensor(I2, NUM, I2) + tensor(I2, I2, NUM)
    h8 = p.omega0 * num3 + p.rabi * (coupling + coupling.conj().T)
    psi4, psi8 = np.eye(4)[2], p.c01 * np.eye(8)[4] + p.c02 * np.eye(8)[2]
    return [(LindbladSpec(h4, [(tensor(I2, SM), 2.0 * p.lam)]), DensityMatrix.from_pure(psi4), [2, 2]),
            (LindbladSpec(h8, [(tensor(I2, I2, SM), 2.0 * p.lam)]), DensityMatrix.from_pure(psi8), [2, 2, 2])]


@pytest.mark.parametrize("run", [0, 1], ids=["calibration", "d8"])
def test_reduced_run_fails_as_the_full_run(run):
    """On a grid too coarse for the oracle's generators each reduced run raises
    the unreduced run's error, word for word."""
    spec, rho0, dims = _oracle_runs(Example1Params(R=1.0))[run]
    messages = []
    for reduce in (None, (dims, [0])):
        with pytest.raises(NumericError) as info:
            dyn._lindblad_steps(spec, rho0, GridSpec(20.0, 120), 10, "test", reduce=reduce)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "increase steps" in messages[0]


def test_oracle_peak_memory():
    """The oracle keeps the battery, not the d = 8 trajectory: its traced
    peak at R = 12.5 (100001 states) stays within 32 MiB, where the full
    trajectory alone is 98 MiB."""
    import tracemalloc

    p = Example1Params(R=12.5)
    example1_pseudomode_oracle(p)  # warm-up: imports and lazy caches
    tracemalloc.start()
    try:
        tr = example1_pseudomode_oracle(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.states.shape == (100001, 2, 2)
    assert peak <= 32 * 2**20


def test_lindblad_evolve_peak_memory():
    """Every run writes its states through one buffer of STACK_BLOCK +
    MAX_CHUNK full states.  At d = 8 the traced peak of a run stays within
    its output (states and times) plus three such buffers: the buffer
    itself, and under two more for the coordinate rows, the propagator
    powers and the block temporaries of the monitor and the gate.  A second
    whole-run stack would add 5.1 MB."""
    import tracemalloc

    spec, rho0 = _qubit_chain(3)
    grid = GridSpec(1.0, 5000)
    lindblad_evolve(spec, rho0, grid, 1.0)  # warm-up: lazy caches
    tracemalloc.start()
    try:
        tr = lindblad_evolve(spec, rho0, grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = (STACK_BLOCK + dyn.MAX_CHUNK) * 8 * 8 * 16
    assert tr.states.shape == (5001, 8, 8)
    assert peak <= tr.states.nbytes + tr.times.nbytes + 3 * buffer


def _full_steps(spec, rho0, grid):
    """The states of a loop that applies the real RK4 step to all d^2
    coordinates of the state once per step."""
    m = dyn._rk4_propagator(dyn._liouvillian(spec), grid.dt)
    pick, src, sign = dyn._coordinates(spec.dim)
    x = np.append(np.ascontiguousarray(rho0.matrix).view(np.float64).ravel()[pick], 0.0)
    for _ in range(grid.steps):
        x[:-1] = m @ x[:-1]
        yield (sign * x[src]).view(np.complex128).reshape(rho0.matrix.shape)


def _step_by_step_failure(spec, rho0, grid, psd_check_every):
    """The first monitor message of ``_full_steps`` when it checks every
    state right after it is made."""
    times = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rho in enumerate(_full_steps(spec, rho0, grid)):
            t = times[k + 1]
            if not np.isfinite(rho).all():
                return k + 1, f"state became non-finite at t={t:.6g};"
            if abs(rho.trace().real - 1.0) > dyn.TRACE_DRIFT_TOL:
                return k + 1, f"trace drifted to {float(rho.trace().real)} at t={t:.6g};"
            if (k % psd_check_every == psd_check_every - 1 or k == grid.steps - 1):
                w = float(np.linalg.eigvalsh(rho)[0])
                if w < dyn.POSITIVITY_FLOOR:
                    return k + 1, f"eigenvalue {w:.3e} below {dyn.POSITIVITY_FLOOR:.0e} at t={t:.6g};"
    return None


def _full_rank_d3():
    """A random d = 3 generator and a full-rank state with every coordinate
    nonzero, so every coordinate is live."""
    spec, _ = _random_spec(3, seed=33)
    g = np.random.default_rng(33).normal(size=(3, 3, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    return spec, DensityMatrix(rho / rho.trace().real)


@pytest.mark.parametrize("case", ["oracle-d8", "full-d3"])
def test_live_block_run_matches_the_full_step_loop(case):
    """Stepping only the live coordinates is exact: outside them the states
    are exactly zero, and they agree with a loop that steps all d^2
    coordinates.  The oracle's d = 8 run occupies rows {0, 1, 2, 4}; a
    full-rank state makes every coordinate live."""
    if case == "oracle-d8":
        spec, rho0, _ = _oracle_runs(Example1Params(R=5.0))[1]
        occupied, live = [0, 1, 2, 4], 7
    else:
        spec, rho0 = _full_rank_d3()
        occupied, live = [0, 1, 2], 9
    pick, _, _ = dyn._coordinates(spec.dim)
    x0 = np.ascontiguousarray(rho0.matrix).view(np.float64).ravel()[pick]
    assert dyn._live(dyn._liouvillian(spec) != 0, x0 != 0).size == live
    grid = GridSpec(2.5, 2500)  # past two monitor blocks
    times, states = dyn._lindblad_steps(spec, rho0, grid, 10, "test")
    dead = np.ones(spec.dim, dtype=bool)
    dead[occupied] = False
    assert not states[:, dead, :].any() and not states[:, :, dead].any()
    ref = np.array([rho0.matrix] + [rho.copy() for rho in _full_steps(spec, rho0, grid)])
    assert np.abs(states - ref).max() <= 1e-12


@pytest.mark.parametrize(
    "rate, rho0, psd_check_every",
    [(6.4, DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2.0)), 10**6),
     (5.5712, DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]])), 7)],
    ids=["overflow", "positivity"],
)
def test_failure_past_the_first_block_matches_step_by_step_loop(rate, rho0, psd_check_every):
    """Dephasing just beyond RK4's stability limit grows the coherence slowly,
    so the state breaks after the first monitor block, inside a chunk."""
    spec = LindbladSpec(np.zeros((2, 2)), [(NUM, rate)])
    grid = GridSpec(1500.0, 1500)
    step, message = _step_by_step_failure(spec, rho0, grid, psd_check_every)
    assert step > STACK_BLOCK and step % dyn.MAX_CHUNK not in (0, 1)
    with pytest.raises(NumericError) as info:
        lindblad_evolve(spec, rho0, grid, beta=1.0, psd_check_every=psd_check_every)
    assert str(info.value).startswith(f"lindblad_evolve: {message} increase steps")


def test_powers_budget_keeps_the_bits_at_d4(monkeypatch):
    """Up to d = 4 the chunks are as long under the old 4 MiB budget, so the
    example2 case-2 states keep every bit."""
    p = Example2Params(case=2)
    tr, series = run_example2(p)
    monkeypatch.setattr(dyn, "PROPAGATOR_POWERS_BYTES", 4 * 2**20)
    old, old_series = run_example2(p)
    assert tr.states.shape[1] == 4
    assert tr.states.tobytes() == old.states.tobytes()
    assert series.power.tobytes() == old_series.power.tobytes()


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: lindblad_evolve(LindbladSpec(10.0 * H2, [(SM, 8.0)]), DensityMatrix(np.diag([0.2, 0.8])),
                                 GridSpec(10.0, 20), beta=1.0),
         ("eigenvalue -7.812e+06 ", "at t=5;")),
        (lambda: lindblad_evolve(LindbladSpec(10.0 * H2, [(SM, 8.0)]), DensityMatrix(np.diag([0.2, 0.8])),
                                 GridSpec(10.0, 20), beta=1.0, psd_check_every=3),
         ("eigenvalue -9.900e+01 ", "at t=1.5;")),
        (lambda: example1_pseudomode_oracle(Example1Params(R=1.0), grid=GridSpec(20.0, 120)),
         ("eigenvalue -1.821e-05 ", "at t=1.66667;")),
    ],
    ids=["every-10", "every-3", "oracle"],
)
def test_first_failure_matches_step_by_step_monitors(run, expected):
    """The error names the quantity and time a step-by-step loop trips on
    first, although later steps of the same chunk fail the trace check."""
    with pytest.raises(NumericError) as info:
        run()
    msg = str(info.value)
    for part in expected:
        assert part in msg
    assert "increase steps" in msg


def test_monitor_errors_name_the_caller():
    """run_example2 steps the case-2 generator itself; on a coarse grid its
    error is lindblad_evolve's, under its own name."""
    p = Example2Params(case=2, steps=10)
    spec, rho0 = models.example2_build(p)
    with pytest.raises(NumericError) as ref:
        lindblad_evolve(spec, rho0, GridSpec(p.t_max, p.steps), p.beta)
    with pytest.raises(NumericError) as info:
        run_example2(p)
    assert str(ref.value).startswith("lindblad_evolve: eigenvalue ")
    assert str(info.value) == str(ref.value).replace("lindblad_evolve:", "run_example2:", 1)
    with pytest.raises(NumericError, match="^example1_pseudomode_oracle: eigenvalue "):
        example1_pseudomode_oracle(Example1Params(R=1.0), grid=GridSpec(20.0, 120))


def test_overflowing_state_raises_numeric_error():
    """Dephasing beyond RK4's stability limit: each step multiplies the
    coherence by P4(-8) = 110.3 while the populations, and so the trace,
    stay exact.  The coherence 0.5 * 110.3^151 = 1.35e308 is still finite;
    the state overflows at step 152, in the middle of a chunk, and that must
    be a NumericError at its t."""
    spec = LindbladSpec(np.zeros((2, 2)), [(NUM, 16.0)])
    rho0 = DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(NumericError) as info:
        lindblad_evolve(spec, rho0, GridSpec(300.0, 300), beta=1.0, psd_check_every=1000)
    assert "non-finite at t=152;" in str(info.value)


def test_unstable_mode_left_empty_stays_exact():
    """A coherence mode growing 4e30-fold per step, unoccupied: single steps
    keep it at exact zero, and so must the chunks, although the high powers
    of the step overflow."""
    spec = LindbladSpec(np.zeros((2, 2)), [(NUM, 2.0e8)])
    rho0 = DensityMatrix(np.diag([0.3, 0.7]))
    tr = lindblad_evolve(spec, rho0, GridSpec(100.0, 100), beta=1.0)
    assert np.array_equal(tr.states, np.broadcast_to(rho0.matrix, tr.states.shape))


def test_psd_check_every_names_rejected_value():
    spec = LindbladSpec(H2, [(SM, 0.5)])
    rho0 = DensityMatrix(np.diag([0.5, 0.5]))
    for bad in (0, 2.5):
        with pytest.raises(ValidationError, match=f"got {bad!r}"):
            lindblad_evolve(spec, rho0, GridSpec(1.0, 7), beta=1.0, psd_check_every=bad)


def test_psd_check_every_rejects_a_bool():
    spec = LindbladSpec(H2, [(SM, 0.5)])
    with pytest.raises(ValidationError, match="psd_check_every must be an integer >= 1, got True"):
        lindblad_evolve(spec, DensityMatrix(np.diag([0.5, 0.5])), GridSpec(1.0, 7), beta=1.0,
                        psd_check_every=True)


def test_psd_check_every_takes_a_numpy_integer():
    spec = LindbladSpec(H2, [(SM, 0.5)])
    rho0 = DensityMatrix(np.diag([0.5, 0.5]))
    ref = lindblad_evolve(spec, rho0, GridSpec(1.0, 70), beta=1.0, psd_check_every=10)
    tr = lindblad_evolve(spec, rho0, GridSpec(1.0, 70), beta=1.0, psd_check_every=np.int64(10))
    assert np.array_equal(tr.states, ref.states)


def test_final_step_is_checked():
    """Positivity monitoring must include the last point regardless of cadence."""
    spec = LindbladSpec(H2, [(SM, 0.5)])
    rho0 = DensityMatrix(np.diag([0.5, 0.5]))
    tr = lindblad_evolve(spec, rho0, GridSpec(1.0, 7), beta=1.0, psd_check_every=1000)
    assert len(tr) == 8  # ran to completion with the sparse cadence


def test_zero_hamiltonian_pure_dissipation():
    spec = LindbladSpec(np.zeros((2, 2)), [(SM, 2.0)])
    rho0 = DensityMatrix(np.diag([0.0, 1.0]))
    tr = lindblad_evolve(spec, rho0, GridSpec(2.0, 2000), beta=1.0)
    assert np.abs(tr.states[-1, 1, 1].real - math.exp(-4.0)) <= 1e-8


def test_label_swap_symmetry():
    """Relabeling the two qubits commutes with the evolution."""
    g = 0.7
    h = tensor(NUM, I2) + tensor(I2, NUM) + g * (tensor(SP, SM) + tensor(SM, SP))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    spec = LindbladSpec(h, [(tensor(SM, I2), 0.3), (tensor(I2, SM), 0.3)])
    psi0 = np.zeros(4, dtype=np.complex128)
    psi0[2] = 1.0
    tr = lindblad_evolve(spec, DensityMatrix.from_pure(psi0), GridSpec(3.0, 3000), beta=1.0)
    tr_sw = lindblad_evolve(
        spec, DensityMatrix.from_pure(swap @ psi0), GridSpec(3.0, 3000), beta=1.0
    )
    mapped = np.einsum("ab,tbc,cd->tad", swap, tr.states, swap)
    assert np.abs(mapped - tr_sw.states).max() <= 1e-12


def test_schrodinger_free_precession():
    psi0 = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    grid = GridSpec(6.0, 600)
    tr = schrodinger_evolve(H2, psi0, grid, beta=1.0)
    # populations frozen, coherence rotates at the gap frequency
    assert np.ptp(tr.states[:, 0, 0].real) <= 1e-12
    expected = 0.5 * np.exp(1j * tr.times)
    assert np.abs(tr.states[:, 0, 1] - expected).max() <= 1e-12
    purity = np.einsum("tab,tba->t", tr.states, tr.states).real
    assert np.abs(purity - 1.0).max() <= 1e-12


def test_excitation_exchange_oscillates():
    g = 1.3
    h = tensor(NUM, I2) + tensor(I2, NUM) + g * (tensor(SP, SM) + tensor(SM, SP))
    psi0 = np.zeros(4, dtype=np.complex128)
    psi0[2] = 1.0  # first qubit excited
    grid = GridSpec(4.0, 800)
    tr = schrodinger_evolve(h, PureState(psi0), grid, beta=1.0)
    p_second = tr.states[:, 1, 1].real
    assert np.abs(p_second - np.sin(g * tr.times) ** 2).max() <= 1e-10
    energy = np.einsum("tab,ba->t", tr.states, h).real
    assert np.ptp(energy) <= 1e-12


def test_schrodinger_state_vs_grid_mismatch():
    with pytest.raises(ValidationError):
        schrodinger_evolve(H2, PureState(np.array([1.0, 0.0, 0.0])), GridSpec(1.0, 10), 1.0)


@pytest.mark.parametrize("steps", [100, STACK_BLOCK - 1, STACK_BLOCK, 2500])
@pytest.mark.parametrize("keep", [[0, 1], [0], [2]])
def test_reduced_closed_run_is_the_partial_trace_of_the_full_run(steps, keep):
    """Reducing each block of projectors as it is made keeps the bits of
    reducing the whole closed run, on grids shorter than, equal to and
    longer than a block."""
    h8, psi0 = models.example2_build(Example2Params(case=1))
    grid, dims = GridSpec(5.0, steps), [2, 2, 2]
    full = schrodinger_evolve(h8, psi0, grid, 1.0)
    times, red = dyn._schrodinger_steps(h8, psi0, grid, "test", reduce=(dims, keep))
    assert np.array_equal(times, full.times)
    assert red.shape == (steps + 1, 2 ** len(keep), 2 ** len(keep)) and not red.flags.writeable
    assert np.array_equal(red, dyn.partial_trace_stack(full.states, dims, keep))


def test_closed_run_checks_name_the_caller():
    with pytest.raises(ValidationError, match="^run_example2: grid must be a GridSpec, got 10$"):
        dyn._schrodinger_steps(H2, PureState([1.0, 0.0]), 10, "run_example2")
    with pytest.raises(ValidationError, match="^run_example2: state dim 3 does not match H dim 2$"):
        dyn._schrodinger_steps(H2, PureState([1.0, 0.0, 0.0]), GridSpec(1.0, 10), "run_example2")


def test_example2_case1_peak_memory():
    """Case 1 reduces each block of d = 8 projectors to the battery as it is
    made: its traced peak stays below the 7.8 MiB of the (8001, 8, 8) stack."""
    import tracemalloc

    p = Example2Params(case=1)
    run_example2(p)  # warm-up: imports and lazy caches
    tracemalloc.start()
    try:
        tr, _ = run_example2(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.states.shape == (8001, 4, 4)
    assert peak < 8001 * 8 * 8 * 16
