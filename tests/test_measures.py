"""Trajectory measures: dephasing, coherence, entropy flows, CSV wire."""

import io
import math
from dataclasses import fields

import numpy as np
import pytest

from qledger.dynamics import GridSpec, LindbladSpec, lindblad_evolve
from qledger.measures import (
    CSV_HEADER,
    MeasureSeries,
    Trajectory,
    charging_power_series,
    coherence,
    coherent_power_series,
    dephase,
    format_csv,
    incoherent_power_series,
    irreversible_entropy_series,
    measure_series,
    non_markovianity_series,
    read_csv,
    write_csv,
)
from qledger.models import Example1Params, Example2Params, run_example1, run_example2
from qledger.qcore import STACK_BLOCK, DensityMatrix, NumericError, ValidationError
from qledger.sampling import random_density, random_hermitian
from qledger.thermo import gibbs_state, von_neumann_entropy

H2 = np.diag([0.0, 1.0])
PLUS = DensityMatrix(np.full((2, 2), 0.5))


def precession_trajectory(beta=1.0, t_max=3.0, steps=600):
    """Unitary rotation generated by the reference H itself."""
    grid = GridSpec(t_max, steps)
    times = grid.times()
    states = np.empty((steps + 1, 2, 2), dtype=np.complex128)
    for k, t in enumerate(times):
        u = np.diag(np.exp(-1j * np.array([0.0, 1.0]) * t))
        states[k] = u @ PLUS.matrix @ u.conj().T
    return Trajectory(times, states, H2, beta)


def thermal_qubit_trajectory(beta=1.0, t_max=6.0, steps=2400):
    """Damped qubit with detailed-balance rates, so Gibbs is stationary."""
    n_bar = 1.0 / math.expm1(beta)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    spec = LindbladSpec(H2, [(sm, 0.8 * (n_bar + 1.0)), (sm.conj().T, 0.8 * n_bar)])
    rho0 = DensityMatrix.from_pure(np.array([0.6, 0.8]))
    return lindblad_evolve(spec, rho0, GridSpec(t_max, steps), beta)


# ---------------------------------------------------------------------------
# dephasing and coherence

def test_dephase_basics():
    out = dephase(PLUS, H2)
    assert np.abs(out.matrix - np.eye(2) / 2).max() <= 1e-14
    # idempotent, diagonal states are fixed
    again = dephase(out, H2)
    assert np.abs(again.matrix - out.matrix).max() <= 1e-14
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    assert np.abs(dephase(rho, H2).matrix - rho.matrix).max() <= 1e-14


def test_dephase_kills_offdiagonals_in_energy_basis():
    rng = np.random.default_rng(501)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        out = dephase(rho, h)
        # commutes with H and has the populations of rho
        assert np.abs(out.matrix @ h.matrix - h.matrix @ out.matrix).max() <= 1e-10
        w, v = np.linalg.eigh(h.matrix)
        pops = np.einsum("an,ab,bn->n", v.conj(), rho.matrix, v).real
        got = np.einsum("an,ab,bn->n", v.conj(), out.matrix, v).real
        assert np.abs(np.sort(got) - np.sort(pops)).max() <= 1e-10


def test_dephase_degenerate_uses_level_basis():
    """Diagonal H keeps the computational basis even inside degeneracies."""
    h = np.diag([0.0, 1.0, 1.0, 2.0])
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    rho = DensityMatrix.from_pure(psi)
    out = dephase(rho, h)
    # the two degenerate levels decohere per level, not per subspace
    assert np.abs(out.matrix - np.diag([0.0, 0.5, 0.5, 0.0])).max() <= 1e-14
    assert coherence(rho, h) == pytest.approx(math.log(2), abs=1e-12)


def test_coherence_values_and_floor():
    assert coherence(PLUS, H2) == pytest.approx(math.log(2), abs=1e-12)
    assert coherence(DensityMatrix(np.diag([0.3, 0.7])), H2) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(502)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        assert coherence(random_density(rng, dim), random_hermitian(rng, dim)) >= -1e-12


def test_coherence_decreases_under_partial_dephasing():
    rng = np.random.default_rng(503)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        lam = rng.uniform(0.1, 0.9)
        mixed = DensityMatrix(
            lam * rho.matrix + (1 - lam) * dephase(rho, h).matrix, check_psd=False
        )
        assert coherence(mixed, h) <= coherence(rho, h) + 1e-10


# ---------------------------------------------------------------------------
# trajectory container

def test_trajectory_validation():
    grid = GridSpec(1.0, 4)
    times = grid.times()
    states = np.stack([np.eye(2, dtype=np.complex128) / 2] * 5)
    tr = Trajectory(times, states, H2, 1.0)
    assert len(tr) == 5 and tr.dim == 2 and tr.constant_hamiltonian
    assert tr.state(2).dim == 2
    assert tr.hamiltonian(3).matrix[1, 1] == 1.0
    with pytest.raises(ValueError):
        tr.states[0, 0, 0] = 9.0

    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 0.1, 0.3]), states[:3], H2, 1.0)  # uneven grid
    with pytest.raises(ValidationError):
        Trajectory(times, states[:3], H2, 1.0)  # length mismatch
    with pytest.raises(ValidationError):
        Trajectory(times, states, H2, -1.0)
    bad = states.copy()
    bad[2, 0, 0] = 0.9  # trace off
    with pytest.raises(ValidationError):
        Trajectory(times, bad, H2, 1.0)
    skew = states.copy()
    skew[1, 0, 1] = 0.2  # not Hermitian
    with pytest.raises(ValidationError):
        Trajectory(times, skew, H2, 1.0)
    with pytest.raises(ValidationError):
        Trajectory(times, states, np.stack([H2] * 3), 1.0)  # H stack length
    for bad in (math.inf, math.nan, True, "1"):
        with pytest.raises(ValidationError, match="^Trajectory: beta must be"):
            Trajectory(times, states, H2, bad)
    for beta in (np.float32(0.5), np.int64(2)):
        assert Trajectory(times, states, H2, beta).beta == float(beta)


def test_trajectory_errors_name_the_stack():
    times = GridSpec(1.0, 2).times()
    states = np.stack([np.eye(2, dtype=np.complex128) / 2] * 3)
    skew = states.copy()
    skew[1, 0, 1] = 0.2
    with pytest.raises(ValidationError, match="^Trajectory states: hermiticity defect 2.000e-01"):
        Trajectory(times, skew, H2, 1.0)
    nan_state = states.copy()
    nan_state[2, 1, 1] = math.nan
    with pytest.raises(ValidationError, match="^Trajectory states: entries must be finite"):
        Trajectory(times, nan_state, H2, 1.0)
    with pytest.raises(ValidationError, match="^Trajectory hamiltonians: hermiticity defect"):
        Trajectory(times, states, [[0.0, 1.0], [0.0, 1.0]], 1.0)
    hs = np.stack([H2, H2, H2]).astype(np.complex128)
    hs[1, 0, 0] = math.inf
    with pytest.raises(ValidationError, match="^Trajectory hamiltonians: entries must be finite"):
        Trajectory(times, states, hs, 1.0)


def test_single_matrix_functions_reject_a_stack():
    stack = np.stack([np.eye(2) / 2] * 3)
    with pytest.raises(ValidationError, match="^von_neumann_entropy rho: expected a square matrix"):
        von_neumann_entropy(stack)
    with pytest.raises(ValidationError, match="^coherence rho: expected a square matrix"):
        coherence(stack, H2)


def test_trajectory_leaves_the_callers_arrays_writable():
    times = GridSpec(1.0, 2).times()
    states = np.stack([np.eye(2, dtype=np.complex128) / 2] * 3)
    h = H2.astype(np.complex128)
    tr = Trajectory(times, states, h, 1.0)
    times[0] = -1.0
    states[0, 0, 1] = 0.25
    h[1, 1] = 5.0
    assert tr.times[0] == 0.0 and tr.states[0, 0, 1] == 0.0 and tr.hamiltonians[1, 1] == 1.0
    with pytest.raises(ValueError):
        tr.times[0] = 1.0


def test_trajectory_keeps_read_only_arrays_without_a_copy():
    tr = thermal_qubit_trajectory(steps=20)
    again = Trajectory(tr.times, tr.states, tr.hamiltonians, tr.beta)
    assert again.states is tr.states and again.times is tr.times


def test_trajectory_with_a_bad_trace_names_its_first_bad_grid_point():
    """The unit-trace check is the containers': the first grid point off
    by more than the tolerance is named, not the worst one."""
    times = GridSpec(1.0, 4).times()
    states = np.stack([np.eye(2, dtype=np.complex128) / 2] * 5)
    states[2, 1, 1] = 0.75
    states[4, 1, 1] = 2.5
    with pytest.raises(ValidationError, match=r"^Trajectory states: trace \(1\.25\+0j\) deviates from 1 beyond 1e-10$"):
        Trajectory(times, states, H2, 1.0)


def test_measure_series_leaves_the_callers_arrays_writable_and_unshared():
    columns = {f.name: np.linspace(0.0, 1.0, 4) for f in fields(MeasureSeries)}
    series = MeasureSeries(**columns)
    columns["times"][0] = 1.0
    columns["power"][3] = -1.0
    assert series.times[0] == 0.0 and series.power[3] == 1.0
    for f in fields(MeasureSeries):
        assert not np.shares_memory(getattr(series, f.name), columns[f.name])
        with pytest.raises(ValueError):
            getattr(series, f.name)[0] = 9.0


def test_measure_series_keeps_read_only_arrays_without_a_copy():
    tr = thermal_qubit_trajectory(steps=20)
    series = measure_series(tr)
    assert series.times is tr.times
    again = MeasureSeries(**{f.name: getattr(series, f.name) for f in fields(MeasureSeries)})
    assert all(getattr(again, f.name) is getattr(series, f.name) for f in fields(MeasureSeries))


def test_measure_series_peak_memory():
    """The series keeps the trajectory's times and the columns it made, not
    copies: on the default example 1 (20001 points) the traced peak is at most
    the 2 402 704 bytes it took when it copied the times."""
    import tracemalloc

    tr, _ = run_example1(Example1Params())  # and a warm-up
    tracemalloc.start()
    try:
        measure_series(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_402_704


def test_a_non_finite_measure_is_a_numeric_error():
    """A subnormal grid step overflows the edge stencil's difference quotient:
    the columns at fault are named, with beta and dt, and nothing warns."""
    times = np.array([0.0, 1.0, 2.0]) * 5e-324
    states = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), np.diag([0.25, 0.75])]).astype(complex)
    tr = Trajectory(times, states, H2, 1.0)
    with pytest.raises(NumericError, match=r"^measure_series: I, P, P_c, P_i not finite at beta = 1, "
                                           r"dt = 4\.94066e-324; lengthen the time step"):
        measure_series(tr)


@pytest.mark.parametrize("dim", [8, 16])
def test_entropy_of_a_rank_deficient_state_matches_its_series_row(dim):
    """A single state and a trajectory row share one entropy, to the bit."""
    rng = np.random.default_rng(dim)
    pops = rng.random((40, dim))
    for row in pops:
        row[rng.permutation(dim)[: rng.integers(1, dim - 1)]] = 0.0
    pops /= pops.sum(axis=1, keepdims=True)
    states = np.stack([np.diag(p) for p in pops]).astype(np.complex128)
    tr = Trajectory(np.arange(40.0), states, np.diag(np.arange(dim, dtype=float)), 1.0)
    entropy = measure_series(tr).entropy
    for k in range(40):
        assert von_neumann_entropy(states[k]) == entropy[k]


def test_entropy_of_a_non_diagonal_state_matches_its_series_row_to_rounding():
    """A d = 4 state alone takes the scalar solver, its trajectory row the
    round-robin stack: the rotation orders differ, so the bits may too."""
    tr, series = run_example2(Example2Params(case=1, steps=200))
    off = tr.states - np.einsum("tii->ti", tr.states)[:, :, None] * np.eye(4)
    assert np.abs(off).max() > 0.1
    gap = [abs(von_neumann_entropy(tr.states[k]) - series.entropy[k]) for k in range(len(series))]
    assert max(gap) < 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_coherence_and_dephasing_are_unitarily_covariant(dim):
    """C_r(U rho U^dag, U H U^dag) = C_r(rho, H) and the dephased state
    rotates along, for random (non-degenerate) H."""
    rng = np.random.default_rng([951, dim])
    for _ in range(50):
        h, rho = random_hermitian(rng, dim).matrix, random_density(rng, dim).matrix
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

        def rotated(m):
            m = u @ m @ u.conj().T
            return 0.5 * (m + m.conj().T)

        c = coherence(rho, h)
        assert c >= -1e-12
        assert abs(coherence(rotated(rho), rotated(h)) - c) <= 1e-10 * max(1.0, abs(c))
        want = u @ dephase(rho, h).matrix @ u.conj().T
        assert np.abs(dephase(rotated(rho), rotated(h)).matrix - want).max() <= 1e-10


def test_coherence_error_names_the_caller():
    skew = np.array([[0.5, 0.4], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="^coherence rho: hermiticity defect"):
        coherence(skew, H2)
    with pytest.raises(ValidationError, match="^dephase: operands must share one dimension"):
        dephase(np.eye(3) / 3, H2)


def test_trajectory_accepts_state_objects_and_h_stack():
    times = GridSpec(1.0, 2).times()
    states = [DensityMatrix(np.eye(2) / 2)] * 3
    hs = np.stack([H2, 2 * H2, 3 * H2])
    tr = Trajectory(times, states, hs, 0.5)
    assert not tr.constant_hamiltonian
    assert tr.hamiltonian(2).matrix[1, 1] == 3.0


# ---------------------------------------------------------------------------
# series behavior on known dynamics

def test_stationary_trajectory_gives_flat_series():
    beta = 0.7
    pi = gibbs_state(H2, beta).state
    times = GridSpec(2.0, 50).times()
    states = np.stack([pi.matrix] * 51)
    tr = Trajectory(times, states, H2, beta)
    s = measure_series(tr)
    assert np.abs(s.irr_entropy).max() <= 1e-12
    assert np.abs(s.backflow).max() <= 1e-10
    assert np.abs(s.power).max() <= 1e-10
    assert np.abs(s.coherent_power).max() <= 1e-10
    assert np.abs(s.incoherent_power).max() <= 1e-10
    assert np.abs(s.extractable_work).max() <= 1e-10
    assert np.ptp(s.energy) <= 1e-13


def test_unitary_precession_has_no_irreversibility():
    """Rotation generated by H commutes with the thermal reference."""
    s = measure_series(precession_trajectory())
    assert np.abs(s.irr_entropy).max() <= 1e-12
    assert np.abs(s.power).max() <= 1e-9
    assert np.ptp(s.energy) <= 1e-12
    assert np.ptp(s.coherence) <= 1e-12
    assert np.ptp(s.extractable_work) <= 1e-12


def test_thermalizing_qubit_is_markovian():
    tr = thermal_qubit_trajectory()
    s_ir = irreversible_entropy_series(tr)
    assert s_ir[0] == 0.0
    assert np.all(np.diff(s_ir) >= -1e-9)  # monotone growth, no revivals
    backflow = non_markovianity_series(tr)
    assert backflow[1:].max() <= 1e-6
    # relaxation destroys extractable work
    s = measure_series(tr)
    assert s.extractable_work[-1] <= s.extractable_work[0]
    assert s.extractable_work[-1] >= -1e-9


def test_power_is_scaled_backflow():
    tr = thermal_qubit_trajectory(beta=0.5)
    assert np.array_equal(charging_power_series(tr), non_markovianity_series(tr) / 0.5)


def test_power_split_adds_up():
    """Coherent plus incoherent power equals the total on the same stencil."""
    tr = thermal_qubit_trajectory(beta=1.3)
    total = charging_power_series(tr)
    split = coherent_power_series(tr) + incoherent_power_series(tr)
    assert np.abs(split - total).max() <= 1e-9


def test_series_fields_obey_free_energy_identity():
    tr = thermal_qubit_trajectory(beta=0.9)
    s = measure_series(tr)
    # W_f - W_f[0] must equal dE - dS/beta pointwise (constant H)
    lhs = s.extractable_work - s.extractable_work[0]
    rhs = (s.energy - s.energy[0]) - (s.entropy - s.entropy[0]) / 0.9
    assert np.abs(lhs - rhs).max() <= 1e-11
    # and S_ir is the mirrored relative-entropy drop
    assert np.abs((s.extractable_work[0] - s.extractable_work) - s.irr_entropy / 0.9).max() <= 1e-11


def test_coherent_power_tracks_analytic_derivative():
    """Pure sinusoidal coherence: P_c approximates its derivative at O(dt^2)."""
    beta = 2.0
    grid = GridSpec(4.0, 4000)
    times = grid.times()
    states = np.empty((len(times), 2, 2), dtype=np.complex128)
    for k, t in enumerate(times):
        c = 0.25 * math.cos(3.0 * t)
        states[k] = np.array([[0.5, c], [c, 0.5]])
    tr = Trajectory(times, states, H2, beta)
    pc = coherent_power_series(tr)
    cr = np.array([coherence(tr.state(k), H2) for k in range(0, len(times), 400)])
    dcr = np.gradient(
        np.array([coherence(tr.state(k), H2) for k in range(len(times))]), grid.dt, edge_order=2
    )
    assert np.abs(pc - dcr / beta).max() <= 1e-12
    assert cr.max() > 0.01  # the signal is actually there


def test_incoherent_power_constant_h_drops_partition_term():
    tr = thermal_qubit_trajectory(beta=1.1)
    s = measure_series(tr)
    # direct recomputation: P_i = dE/dt - (dS(deph)/dt)/beta for fixed H
    deph_entropy = np.array(
        [von_neumann_entropy(dephase(tr.state(k), H2)) for k in range(len(tr))]
    )
    dt = tr.times[1] - tr.times[0]
    expected = np.gradient(s.energy, dt, edge_order=2) - np.gradient(deph_entropy, dt, edge_order=2) / 1.1
    assert np.abs(s.incoherent_power - expected).max() <= 1e-9


# ---------------------------------------------------------------------------
# CSV wire format

def test_csv_round_trip_exact_digits():
    tr = thermal_qubit_trajectory(t_max=1.0, steps=50)
    s = measure_series(tr)
    text = format_csv(s, comments=["config: {}"])
    back = read_csv(io.StringIO(text))
    for field in ("times", "energy", "entropy", "coherence", "irr_entropy",
                  "backflow", "power", "coherent_power", "incoherent_power",
                  "extractable_work"):
        a = getattr(s, field)
        b = getattr(back, field)
        assert np.abs(a - b).max() <= 1e-11 * max(1.0, np.abs(a).max())


def test_csv_layout():
    tr = thermal_qubit_trajectory(t_max=0.5, steps=10)
    text = format_csv(measure_series(tr), comments=["alpha", "beta"])
    lines = text.splitlines()
    assert lines[0] == "# alpha"
    assert lines[1] == "# beta"
    assert lines[2] == CSV_HEADER
    assert len(lines) == 3 + 11
    assert text.endswith("\n")
    assert "-0," not in text and not any(cell == "-0" for cell in text.replace("\n", ",").split(","))


def test_csv_write_and_read_file(tmp_path):
    tr = thermal_qubit_trajectory(t_max=0.5, steps=8)
    s = measure_series(tr)
    path = tmp_path / "series.csv"
    write_csv(s, path, comments=["note"])
    back = read_csv(path)
    assert len(back) == len(s)
    assert np.abs(back.times - s.times).max() <= 1e-12


def test_csv_rejects_malformed():
    with pytest.raises(ValidationError):
        read_csv(io.StringIO("t,E\n0,1\n"))
    good_header = CSV_HEADER + "\n"
    with pytest.raises(ValidationError):
        read_csv(io.StringIO(good_header + "1,2,3\n"))
    with pytest.raises(ValidationError):
        read_csv(io.StringIO(good_header + ",".join(["x"] * 10) + "\n"))
    with pytest.raises(ValidationError):
        read_csv(io.StringIO(""))


def _random_series(rows: int, seed: int = 7):
    """A MeasureSeries of ``rows`` random values of mixed sign and scale, each
    exact at the CSV's 12 digits, with negative zeros for the fold."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((10, rows)) * 10.0 ** rng.integers(-8, 8, (10, rows))
    cols = np.array([[float("%.12g" % v) for v in col] for col in cols]).reshape(10, rows)
    cols[:, ::7] = -0.0
    return MeasureSeries(*cols)


@pytest.mark.parametrize("comments, match", [
    (["ok", "a\nb"], r"^format_csv: comment must be one line, got 'a\\nb'$"),
    (["a\r"], r"^format_csv: comment must be one line, got 'a\\r'$"),
    (["a\u2028b"], r"^format_csv: comment must be one line, got 'a\\u2028b'$"),
    ("abc", r"^format_csv: comments must be a sequence of one-line comments, got 'abc'$"),
    (None, r"^format_csv: comments must be a sequence of one-line comments, got None$"),
])
def test_csv_comments_must_be_one_line_each(tmp_path, comments, match):
    """A comment that would split into lines, a bare string and None are
    rejected by name; write_csv rejects them before it opens the file."""
    s = _random_series(3)
    with pytest.raises(ValidationError, match=match):
        format_csv(s, comments)
    path = tmp_path / "kept.csv"
    path.write_text("old")
    with pytest.raises(ValidationError, match=match.replace("format_csv", "write_csv")):
        write_csv(s, path, comments)
    assert path.read_text() == "old"


def test_csv_comments_round_trip(tmp_path):
    s = _random_series(5)
    path = tmp_path / "c.csv"
    write_csv(s, path, comments=("config: {\"a\": 1}", "", "  second # note"))
    text = path.read_text()
    assert text.splitlines()[:3] == ['# config: {"a": 1}', "# ", "#   second # note"]
    back = read_csv(path)
    for f in fields(MeasureSeries):
        assert np.array_equal(getattr(back, f.name), getattr(s, f.name) + 0.0)


@pytest.mark.parametrize("rows", [0, 1, STACK_BLOCK, STACK_BLOCK + 1, 20001])
def test_write_csv_writes_format_csv_text(tmp_path, rows):
    """The blocks write_csv streams join to format_csv's text, on either side
    of a block edge."""
    s = _random_series(rows)
    path = tmp_path / "s.csv"
    write_csv(s, path, comments=["note"])
    text = format_csv(s, comments=["note"])
    assert path.read_bytes() == text.encode()
    assert len(text.splitlines()) == rows + 2 and "-0," not in text
    back = read_csv(path)
    assert len(back) == rows
    assert np.array_equal(back.energy, s.energy + 0.0)


def test_write_csv_peak_memory(tmp_path):
    """write_csv holds one block of rows, not the text: at 20001 rows its
    traced peak stays within 2 MiB, where the text alone is larger."""
    import tracemalloc

    s = _random_series(20001)
    path = tmp_path / "big.csv"
    write_csv(s, path)  # warm-up
    assert path.stat().st_size > 2 * 2**20
    tracemalloc.start()
    try:
        write_csv(s, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_read_csv_reports_the_line():
    text = "# c\n" + CSV_HEADER + "\n" + ",".join(["1"] * 10) + "\n\n" + ",".join(["1"] * 9 + ["y"]) + "\n"
    with pytest.raises(ValidationError, match="^CSV line 5: could not convert string to float: 'y'$"):
        read_csv(io.StringIO(text))
    assert len(read_csv(io.StringIO(CSV_HEADER + "\n"))) == 0


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_read_csv_counts_every_line_separator(tmp_path, sep):
    """A line ends wherever ``str.splitlines`` ends one, read from a path or a
    file object, so an error names the same line either way."""
    row = ",".join(["1"] * 10)
    text = "# c" + sep + CSV_HEADER + "\n" + row + sep + sep + row + "\n" + ",".join(["1"] * 9 + ["y"])
    assert text.splitlines()[5].endswith("y")
    path = tmp_path / "s.csv"
    path.write_text(text, newline="")
    for source in (io.StringIO(text), path):
        with pytest.raises(ValidationError, match="^CSV line 6: could not convert string to float: 'y'$"):
            read_csv(source)


def test_read_csv_peak_memory(tmp_path):
    """read_csv holds one line of the file at a time: at 20001 rows its traced
    peak stays within 3 MiB, where the text and its lines alone are larger."""
    import tracemalloc

    s = _random_series(20001)
    path = tmp_path / "big.csv"
    write_csv(s, path)
    read_csv(path)  # warm-up
    tracemalloc.start()
    try:
        read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20
