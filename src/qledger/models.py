"""The package's two charging case studies.

Case study 1: a pair of qubits sharing a lossy single-mode (Lorentzian)
environment of width lambda; only one of them, the battery, is read out.
The single-excitation amplitude has a closed form built from the
superradiant/subradiant split, and an independent check channel simulates
the equivalent dissipative-mode model (two qubits plus one leaky mode)
with the Lindblad integrator.  The mode decays at 2*lambda: the Lorentzian
width is the half width at half maximum.  That identification is never
assumed blindly; a single-qubit sub-case is integrated first and compared
against its own closed form, and the run aborts if the two disagree beyond
1e-6.

Case study 2: a two-qubit battery charged through one photon.  Case 1 of
it keeps the photon explicitly (truncated to one excitation, exact because
the total excitation number is conserved) and evolves unitarily; case 2
eliminates the far-detuned photon into an effective qubit-qubit exchange
g12 = g^2/(omega0 - omegap) and adds spontaneous emission on both qubits.
All thermodynamic readings of the battery are referenced to its own free
ladder omega0 * (n1 + n2), not to the dressed Hamiltonian.

Conventions: qubit basis |0> ground, |1> excited; tensor factors ordered
(battery qubit, partner qubit, mode/photon); all parameters in units of
omega0 = 1 unless set otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GridSpec, LindbladSpec, _as_grid, _lindblad_steps, _schrodinger_steps
from .measures import MeasureSeries, Trajectory, measure_series
from .qcore import (
    _COMPLEX,
    _FINITE,
    _NONNEGATIVE,
    _POSITIVE,
    DensityMatrix,
    HermitianOperator,
    NumericError,
    PureState,
    ValidationError,
    _as_beta,
    _count,
    _gated,
    _scalar,
    tensor,
)

CALIBRATION_TOL = 1e-6

_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |0><1|
_SP = _SM.conj().T
_NUM = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def _check_fields(p, kind, *fields: str) -> None:
    """Each named field of the dataclass ``p`` a number of the qcore ``kind``."""
    for field in fields:
        _scalar(getattr(p, field), f"{type(p).__name__}: {field}", kind)


@dataclass(frozen=True)
class Example1Params:
    """Two qubits in a common Lorentzian environment; qubit 1 is the battery.

    R = (Rabi frequency)/lambda is the control knob: small R is the flat,
    memoryless regime, large R the strongly non-Markovian one.  c01, c02
    are the initial single-excitation amplitudes on qubits 1 and 2.
    """

    omega0: float = 1.0
    lam: float = 1.0
    R: float = 0.3
    alpha1: float = 1.0 / math.sqrt(2.0)
    alpha2: float = 1.0 / math.sqrt(2.0)
    beta: float = 0.1
    c01: complex = 0.0
    c02: complex = 1.0
    t_max: float = 20.0
    steps: int = 20000

    def __post_init__(self):
        _check_fields(self, _POSITIVE, "omega0", "lam")
        _check_fields(self, _NONNEGATIVE, "R")
        _as_beta(self.beta, "Example1Params")
        _as_grid(self.t_max, self.steps, "Example1Params")
        _check_fields(self, _FINITE, "alpha1", "alpha2")
        if math.hypot(self.alpha1, self.alpha2) <= 0.0:
            raise ValidationError("Example1Params: couplings alpha1, alpha2 must not both vanish")
        _check_fields(self, _COMPLEX, "c01", "c02")
        nrm = abs(complex(self.c01)) ** 2 + abs(complex(self.c02)) ** 2
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(
                f"Example1Params: |c01|^2 + |c02|^2 = {nrm} must equal 1 within 1e-12"
            )

    @property
    def rabi(self) -> float:
        return self.R * self.lam

    @property
    def beta1(self) -> float:
        return self.alpha1 / math.hypot(self.alpha1, self.alpha2)

    @property
    def beta2(self) -> float:
        return self.alpha2 / math.hypot(self.alpha1, self.alpha2)


def _envelope(t: np.ndarray, lam: float, rabi: float) -> np.ndarray:
    """E(t) = exp(-lam t/2) [cosh(D t/2) + (lam/D) sinh(D t/2)], D = sqrt(lam^2 - 4 rabi^2).

    The decay envelope of the superradiant combination, and the |c(t)| of
    a single qubit with coupling rabi in the same bath.  D may be real or
    imaginary.
    """
    d = np.sqrt(complex(lam * lam - 4.0 * rabi * rabi))
    if abs(d) < 1e-7 * lam:
        # degenerate branch; relative error below (|D| t / 2)^2 / 2, under
        # 1e-12 for lam t <= 40
        return (1.0 + 0.5 * lam * t) * np.exp(-0.5 * lam * t)
    x = 0.5 * d * t
    return (np.exp(-0.5 * lam * t) * (np.cosh(x) + (lam / d) * np.sinh(x))).real


def example1_amplitude(t, p: Example1Params):
    """Battery excitation amplitude c1(t) in the frame rotating at omega0.

    The superradiant combination decays with the envelope E(t) of
    ``_envelope`` at the Rabi frequency; the subradiant one is frozen.
    c1 = beta1 b_+(0) E(t) + beta2 b_-(0).  The lab-frame phase
    exp(-i omega0 t) is dropped; it cancels in |c1|^2.
    """
    t = np.asarray(t, dtype=np.float64)
    b1, b2 = p.beta1, p.beta2
    bp0 = b1 * p.c01 + b2 * p.c02
    bm0 = b2 * p.c01 - b1 * p.c02
    return b1 * bp0 * _envelope(t, p.lam, p.rabi) + b2 * bm0


def run_example1(p: Example1Params) -> tuple[Trajectory, MeasureSeries]:
    """Battery trajectory rho_1(t) = diag(1-|c1|^2, |c1|^2) and its measures."""
    times = GridSpec(p.t_max, p.steps).times()
    pop = np.abs(example1_amplitude(times, p)) ** 2
    states = np.zeros((times.size, 2, 2), dtype=np.complex128)
    states[:, 0, 0] = 1.0 - pop
    states[:, 1, 1] = pop
    times.setflags(write=False)  # so the Trajectory keeps them, not copies
    states.setflags(write=False)
    h = np.diag([0.0, p.omega0]).astype(np.complex128)
    tr = Trajectory(times, states, h, p.beta)
    return tr, measure_series(tr)


def _oracle_grid(p: Example1Params) -> GridSpec:
    # stiff oscillations at large R need a finer default step
    dt_target = 2e-4 if p.R >= 10.0 else 1e-3
    return GridSpec(p.t_max, max(p.steps, int(math.ceil(p.t_max / dt_target))))


def example1_pseudomode_oracle(p: Example1Params, grid: GridSpec | None = None,
                               psd_check_every: int = 10) -> Trajectory:
    """Independent battery trajectory from the dissipative-mode simulation.

    Two qubits and a single two-level mode; the mode decays at 2*lam.  One
    excitation is present at most, so the two-level truncation of the mode
    is exact.  Before the run, the same machinery integrates the
    single-qubit sub-case and must match its closed form within 1e-6,
    otherwise ``NumericError`` is raised: the width-to-decay calibration is
    tested, not assumed.  The stepper reduces each checked block of states
    to the qubit (calibration) or the battery (full run) as it goes, so
    neither run holds its whole trajectory of full states.
    """
    if grid is None:
        grid = _oracle_grid(p)
    rabi = p.rabi

    # --- single-qubit calibration gate
    h_cal = p.omega0 * (tensor(_NUM, _I2) + tensor(_I2, _NUM)) + rabi * (
        tensor(_SP, _SM) + tensor(_SM, _SP)
    )
    jump_cal = (tensor(_I2, _SM), 2.0 * p.lam)
    psi_cal = np.zeros(4, dtype=np.complex128)
    psi_cal[2] = 1.0  # |1>_qubit |0>_mode
    # raw integrator output, checked by its monitor and reduced to the qubit as it goes
    times, cal = _lindblad_steps(
        LindbladSpec(h_cal, [jump_cal]), DensityMatrix.from_pure(psi_cal), grid, psd_check_every,
        "example1_pseudomode_oracle", reduce=([2, 2], [0]),
    )
    defect = float(np.abs(cal[:, 1, 1].real - _envelope(times, p.lam, rabi) ** 2).max())
    del cal
    if defect > CALIBRATION_TOL:
        raise NumericError(
            f"pseudomode calibration off by {defect:.3e} (tolerance {CALIBRATION_TOL:.0e}); "
            f"grid dt={grid.dt:.3e} is too coarse for R={p.R}"
        )

    # --- full two-qubit run, factors (battery, partner, mode); only the battery is kept
    num3 = tensor(_NUM, _I2, _I2) + tensor(_I2, _NUM, _I2) + tensor(_I2, _I2, _NUM)
    coupling = p.beta1 * tensor(_SP, _I2, _SM) + p.beta2 * tensor(_I2, _SP, _SM)
    h8 = p.omega0 * num3 + rabi * (coupling + coupling.conj().T)
    jump = (tensor(_I2, _I2, _SM), 2.0 * p.lam)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[4] = complex(p.c01)  # |1 0 0>
    psi0[2] = complex(p.c02)  # |0 1 0>
    _, battery = _lindblad_steps(LindbladSpec(h8, [jump]), DensityMatrix.from_pure(psi0), grid,
                                 psd_check_every, "example1_pseudomode_oracle", reduce=([2, 2, 2], [0]))
    h_b = np.diag([0.0, p.omega0]).astype(np.complex128)
    return Trajectory(times, battery, h_b, p.beta)


@dataclass(frozen=True)
class Example2Params:
    """Two-qubit battery charged by one photon of frequency omegap.

    case 1 keeps the photon as a dynamical mode (closed evolution); case 2
    is the detuned effective model with spontaneous emission gamma on both
    qubits.  gamma = 0 in case 2 is allowed and reduces to unitary
    exchange, a useful limit check.
    """

    g: float = 1.0
    omega0: float = 1.0
    omegap: float = 2.0
    gamma: float = 0.1
    beta: float = 0.1
    case: int = 1
    t_max: float = 20.0
    steps: int = 8000

    def __post_init__(self):
        _check_fields(self, _POSITIVE, "g", "omega0")
        _check_fields(self, _FINITE, "omegap")
        _check_fields(self, _NONNEGATIVE, "gamma")
        _as_beta(self.beta, "Example2Params")
        _as_grid(self.t_max, self.steps, "Example2Params")
        _check_fields(self, _count(1, 2), "case")

    @property
    def detuning(self) -> float:
        return self.omega0 - self.omegap


def _battery_free_h(omega0: float) -> np.ndarray:
    return omega0 * (tensor(_NUM, _I2) + tensor(_I2, _NUM))


def example2_build(p: Example2Params, initial=None):
    """Dynamics inputs for the configured case.

    case 1 -> (HermitianOperator on qubit x qubit x photon, PureState);
    case 2 -> (LindbladSpec on the two qubits, DensityMatrix).
    The default initial states put the single excitation on the photon
    (case 1) and on qubit 1 (case 2); pass ``initial`` to override.
    """
    if p.case == 1:
        h8 = (
            p.omega0 * (tensor(_NUM, _I2, _I2) + tensor(_I2, _NUM, _I2))
            + p.omegap * tensor(_I2, _I2, _NUM)
        )
        coupling = tensor(_SP, _I2, _SM) + tensor(_I2, _SP, _SM)
        h8 = h8 + p.g * (coupling + coupling.conj().T)
        if initial is None:
            psi0 = np.zeros(8, dtype=np.complex128)
            psi0[1] = 1.0  # |0 0> x |1 photon>
            initial = PureState(psi0)
        elif not isinstance(initial, PureState):
            initial = PureState(initial)
        return HermitianOperator(h8), initial

    delta = p.detuning
    if delta == 0.0:
        raise ValidationError("example2_build: omega0 = omegap makes the effective coupling diverge")
    g12 = p.g * p.g / delta
    h4 = _battery_free_h(p.omega0) + g12 * (tensor(_SP, _SM) + tensor(_SM, _SP))
    spec = LindbladSpec(h4, [(tensor(_SM, _I2), p.gamma), (tensor(_I2, _SM), p.gamma)])
    if initial is None:
        rho0 = np.zeros((4, 4), dtype=np.complex128)
        rho0[2, 2] = 1.0  # |1 0><1 0|
        initial = DensityMatrix(rho0, check_psd=False)
    else:
        initial = _gated(initial, "example2_build initial", state=True)
    return spec, initial


def run_example2(p: Example2Params, initial=None,
                 psd_check_every: int = 10) -> tuple[Trajectory, MeasureSeries]:
    """Battery trajectory and measures for the configured case.

    The battery's thermodynamic reference is always its free ladder
    omega0 (n1 + n2): extractable work is priced on the battery's own
    levels, not on the dressed interaction Hamiltonian.
    """
    grid = GridSpec(p.t_max, p.steps)
    h_free = _battery_free_h(p.omega0)
    if p.case == 1:
        h8, psi0 = example2_build(p, initial)
        # each block of projectors reduced to the battery as it is made
        times, battery = _schrodinger_steps(h8, psi0, grid, "run_example2", reduce=([2, 2, 2], [0, 1]))
        tr = Trajectory(times, battery, h_free, p.beta)
    else:
        spec, rho0 = example2_build(p, initial)
        # the integrator's raw states, validated once as the battery trajectory
        tr = Trajectory(*_lindblad_steps(spec, rho0, grid, psd_check_every, "run_example2"), h_free, p.beta)
    return tr, measure_series(tr)
