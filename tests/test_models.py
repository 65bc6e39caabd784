"""The two worked battery models and their independent oracles."""

import math

import numpy as np
import pytest

from qledger.dynamics import GridSpec, lindblad_evolve
from qledger.measures import coherence, measure_series
from qledger.models import (
    Example1Params,
    Example2Params,
    example1_amplitude,
    example1_pseudomode_oracle,
    example2_build,
    run_example1,
    run_example2,
)
from qledger.qcore import DensityMatrix, NumericError, PureState, ValidationError


def test_example1_params_validation():
    Example1Params()
    with pytest.raises(ValidationError):
        Example1Params(lam=0.0)
    with pytest.raises(ValidationError):
        Example1Params(R=-0.5)
    with pytest.raises(ValidationError):
        Example1Params(beta=0.0)
    for bad in (math.inf, math.nan, True, "1"):
        with pytest.raises(ValidationError, match="^Example1Params: beta must be"):
            Example1Params(beta=bad)
    with pytest.raises(ValidationError):
        Example1Params(t_max=-1.0)
    with pytest.raises(ValidationError):
        Example1Params(steps=1)
    with pytest.raises(ValidationError):
        Example1Params(c01=1.0, c02=1.0)  # not normalized
    with pytest.raises(ValidationError):
        Example1Params(alpha1=0.0, alpha2=0.0)
    p = Example1Params(R=2.5, lam=0.8)
    assert p.rabi == pytest.approx(2.0)


def test_amplitude_initial_value_and_frozen_coupling():
    t = np.array([0.0])
    p = Example1Params(c01=0.6, c02=0.8)
    assert example1_amplitude(t, p)[0] == pytest.approx(0.6, abs=1e-12)
    # no coupling: the battery amplitude never moves
    p0 = Example1Params(R=0.0, c01=0.6, c02=0.8)
    tt = np.linspace(0.0, 20.0, 200)
    amps = example1_amplitude(tt, p0)
    assert np.abs(amps - 0.6).max() <= 1e-12


def test_amplitude_long_time_limit():
    """Overdamped decay leaves only the uncoupled antisymmetric share."""
    p = Example1Params()  # c01=0, c02=1, equal alphas
    amp = example1_amplitude(np.array([400.0]), p)[0]
    assert abs(abs(amp) ** 2 - 0.25) <= 1e-12


def test_amplitude_degenerate_branch_is_continuous():
    # the two-rate formula degenerates at R = 1/2; both branches must agree
    t = np.linspace(0.0, 10.0, 101)
    near = example1_amplitude(t, Example1Params(R=0.5 + 1e-9))
    at = example1_amplitude(t, Example1Params(R=0.5))
    assert np.abs(near - at).max() <= 1e-6


def test_run_example1_shapes_and_energy():
    p = Example1Params(steps=400)
    tr, series = run_example1(p)
    assert len(tr) == 401
    assert tr.dim == 2
    assert tr.constant_hamiltonian
    pops = tr.states[:, 1, 1].real
    assert np.abs(series.energy - p.omega0 * pops).max() <= 1e-12
    # battery state stays diagonal in this reduced model
    assert np.abs(tr.states[:, 0, 1]).max() <= 1e-15


def test_pseudomode_oracle_matches_closed_form():
    p = Example1Params(R=0.3)
    tr = example1_pseudomode_oracle(p)
    pops = tr.states[:, 1, 1].real
    analytic = np.abs(example1_amplitude(tr.times, p)) ** 2
    assert np.abs(pops - analytic).max() <= 1e-3
    # far tighter in practice; the loose bound is the acceptance contract
    assert np.abs(pops - analytic).max() <= 1e-8


def test_coarse_oracle_grid_trips_positivity_monitor():
    with pytest.raises(NumericError) as info:
        example1_pseudomode_oracle(Example1Params(R=1.0), grid=GridSpec(20.0, 120))
    assert "steps" in str(info.value)


def test_pseudomode_calibration_gate_fires_on_coarse_grids():
    """With interior positivity checks relaxed, the calibration gate is the
    guard that catches an inaccurate grid."""
    with pytest.raises(NumericError) as info:
        example1_pseudomode_oracle(
            Example1Params(R=1.0), grid=GridSpec(20.0, 200), psd_check_every=10**9
        )
    assert "calibration" in str(info.value)


def test_example2_params_validation():
    Example2Params()
    Example2Params(gamma=0.0)  # closed-system limit is allowed
    with pytest.raises(ValidationError):
        Example2Params(gamma=-0.1)
    with pytest.raises(ValidationError):
        Example2Params(case=3)
    with pytest.raises(ValidationError):
        Example2Params(beta=-1.0)
    for bad in (math.inf, math.nan, True, "1"):
        with pytest.raises(ValidationError, match="^Example2Params: beta must be"):
            Example2Params(beta=bad)
    with pytest.raises(ValidationError):
        Example2Params(g=0.0)
    assert Example2Params(omega0=1.0, omegap=2.0).detuning == pytest.approx(-1.0)
    # the effective coupling needs a detuned photon
    with pytest.raises(ValidationError):
        run_example2(Example2Params(case=2, omegap=1.0))


def test_case1_conserves_total_excitation():
    h, psi0 = example2_build(Example2Params(case=1))
    n_op = np.zeros((8, 8))
    for k in range(8):
        n_op[k, k] = bin(k).count("1")
    assert np.abs(h.matrix @ n_op - n_op @ h.matrix).max() <= 1e-12
    assert psi0.amplitudes[1] == 1.0  # single photon-side excitation
    assert h.dim == 8


def test_case1_coherence_closed_form():
    p = Example2Params(case=1, steps=2000)
    tr, series = run_example2(p)
    expected = (8.0 / 9.0) * math.log(2.0) * np.sin(1.5 * tr.times) ** 2
    assert np.abs(series.coherence - expected).max() <= 1e-12
    # battery energy breathes with the same period
    assert series.energy[0] == pytest.approx(0.0, abs=1e-12)


def test_case1_battery_reference_is_free_ladder():
    tr, _ = run_example2(Example2Params(case=1, steps=200))
    assert tr.constant_hamiltonian
    assert np.abs(tr.hamiltonian(0).matrix - np.diag([0.0, 1.0, 1.0, 2.0])).max() <= 1e-12
    assert tr.dim == 4


def test_case2_unitary_limit_keeps_purity():
    p = Example2Params(case=2, gamma=0.0, t_max=6.0, steps=3000)
    tr, series = run_example2(p)
    purity = np.einsum("tab,tba->t", tr.states, tr.states).real
    assert np.abs(purity - 1.0).max() <= 1e-8
    # exchange between the qubits at the effective coupling |g12| = 1
    p_first = tr.states[:, 2, 2].real
    assert np.abs(p_first - np.cos(tr.times) ** 2).max() <= 1e-6


def test_case2_damped_run_decays():
    p = Example2Params(case=2, t_max=60.0, steps=24000)
    tr, series = run_example2(p)
    excited = 1.0 - tr.states[:, 0, 0].real
    assert excited[0] == pytest.approx(1.0, abs=1e-12)
    assert excited[-1] <= 5e-3
    assert series.coherence[-1] <= 1e-3
    # coherence was generated along the way even though rho0 is incoherent
    assert series.coherence.max() > 0.3


def test_case2_thermo_reference_is_free_ladder():
    tr, _ = run_example2(Example2Params(case=2, t_max=2.0, steps=800))
    assert tr.constant_hamiltonian
    assert np.abs(tr.hamiltonian(0).matrix - np.diag([0.0, 1.0, 1.0, 2.0])).max() <= 1e-12


def test_case2_checks_its_states_once(gates):
    """The battery trajectory is built from the integrator's raw states, which
    are the states lindblad_evolve would return."""
    p = Example2Params(case=2, t_max=2.0, steps=800)
    tr, _ = run_example2(p)
    assert gates.count("Trajectory states") == 1
    spec, rho0 = example2_build(p)
    assert np.array_equal(tr.states, lindblad_evolve(spec, rho0, GridSpec(p.t_max, p.steps), p.beta).states)


def test_example2_takes_a_custom_initial_state_bare_or_held():
    """A bare matrix or vector gives the run of the container it becomes:
    case 2 from |01><01|, case 1 from |100>."""
    rho = np.zeros((4, 4))
    rho[1, 1] = 1.0
    psi = np.zeros(8)
    psi[4] = 1.0
    for case, bare, held in ((2, rho, DensityMatrix(rho)), (1, psi, PureState(psi))):
        p = Example2Params(case=case, t_max=2.0, steps=400)
        tr, _ = run_example2(p, bare)
        assert np.array_equal(tr.states, run_example2(p, held)[0].states)
        assert not np.array_equal(tr.states, run_example2(p)[0].states)
    assert np.abs(tr.states[0] - np.diag([0.0, 0.0, 1.0, 0.0])).max() <= 1e-14  # case 1: battery |10>


def test_example2_rejects_a_bad_initial_state_by_name():
    p = Example2Params(case=2, t_max=2.0, steps=400)
    with pytest.raises(ValidationError, match="^run_example2: state dim 2 does not match spec dim 4"):
        run_example2(p, np.eye(2) / 2)
    with pytest.raises(ValidationError, match="^example2_build initial: trace"):
        run_example2(p, np.eye(4) / 2)


def test_case2_coherent_power_integrates_coherence():
    """P_c is the scaled derivative of C_r: its integral recovers C_r."""
    p = Example2Params(case=2, t_max=10.0, steps=4000)
    _, series = run_example2(p)
    dt = series.times[1] - series.times[0]
    integral = np.cumsum(series.coherent_power) * dt * p.beta
    # trapezoid-grade agreement is enough here
    assert np.abs(integral[-1] - series.coherence[-1]) <= 5e-3


def test_example1_regime_boundary_at_r_one_half():
    """R = 1/2 is where D = sqrt(lam^2 - 4 rabi^2) in the envelope turns from
    real to imaginary.  Up to it the power is never positive after t = 0, on a
    window long enough for the battery to settle (measured max after t = 0:
    -1.9e-11 at R = 0.1, -1.2e-9 at 0.3, and +5.6e-13, rounding as P -> 0, at
    0.5); beyond it stretches of P > 0 appear, over which W_f rises."""
    for R in (0.1, 0.3, 0.5):
        _, s = run_example1(Example1Params(R=R, t_max=200.0, steps=200000))
        assert s.power[1:].max() <= 1e-9, R
    for R in (0.55, 0.6):  # measured max P: 1.13e-3 from t = 13.8, 1.08e-2 from t = 9.5
        _, s = run_example1(Example1Params(R=R))
        up = s.power > 1e-4
        inside = up[:-1] & up[1:]  # the steps within a stretch
        assert inside.any(), R
        assert np.all(np.diff(s.extractable_work)[inside] > 0.0), R
