"""Trajectory-level resource measures for charging processes.

Given a state trajectory rho(t) on a uniform time grid, held at inverse
temperature beta, this module evaluates the running extractable work, the
irreversible entropy anchored at t = 0, the backflow rate and the charging
power together with its split into a coherent and an incoherent part:

    S_ir(t) = S(rho_0||pi_0) - S(rho_t||pi_t)        (so S_ir(0) = 0)
    I(t)    = -dS_ir/dt
    P(t)    = I(t)/beta
    C_r(t)  = S(drho_t) - S(rho_t)
    P_c(t)  = (dC_r/dt)/beta
    P_i(t)  = dE/dt - (dS(drho)/dt - dlnZ/dt)/beta

where drho is the state with its energy-basis off-diagonals removed and
pi_t the Gibbs state of the instantaneous Hamiltonian.  Entropies are in
nats, energies in the Hamiltonian's units, hbar = k_B = 1.

Derivatives are second-order central differences with second-order
one-sided stencils at the endpoints (``np.gradient`` with edge_order=2),
matching the order of the integrators that produce the trajectories.
Relative entropy against a Gibbs state is evaluated in closed form,
S(rho||pi) = beta E + ln Z - S(rho), which is exact because pi has full
rank for any finite beta.  All series share the trajectory grid.

``measure_series`` is the one place these formulas are written; the five
single-column ``*_series`` functions return its columns.  Entropy, ln Z and
energy come from the ``thermo`` kernels and populations from ``_populations``,
so a trajectory row and a single matrix get the same bits.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields

import numpy as np

from ._text import _decimal_text
from .qcore import (
    STACK_BLOCK,
    TRACE_TOL,
    DensityMatrix,
    HermitianOperator,
    ValidationError,
    _as_array,
    _as_beta,
    _as_hermitian,
    _as_operands,
    _frozen,
    _Frozen,
    _jacobi,
    _jacobi_stack,
    _listed,
    _reject,
    _seed,
    _spectrum,
    _synthesize,
)
from .thermo import _coherence, _energy, _entropy, _gibbs, _log_z


def _populations(v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<v_n|rho|v_n> for the columns of v, over leading axes that broadcast."""
    return np.einsum("...an,...ab,...bn->...n", v.conj(), rho, v).real


def _energy_populations(rho, hamiltonian, name: str):
    """The validated state, H's eigenvectors and the state's populations in them."""
    a, h = _as_operands(name, rho=rho, hamiltonian=hamiltonian)
    v = _spectrum(h)[1]
    return a, v, _populations(v, a.matrix)


def dephase(rho, hamiltonian) -> DensityMatrix:
    """Remove energy-basis coherences: zero the off-diagonals of rho in the
    eigenbasis of H.

    Inside a degenerate level the basis is whatever the eigensolver
    returns; for a diagonal H that is the computational basis, which is
    the convention the case studies rely on.  Idempotent, since the solver
    is deterministic.  The output keeps its spectrum: the populations, sorted.
    """
    _, v, pops = _energy_populations(rho, hamiltonian, "dephase")
    order = np.argsort(pops, kind="stable")
    return _seed(DensityMatrix(_synthesize(v, pops), check_psd=False), pops[order], v[:, order])


def coherence(rho, hamiltonian) -> float:
    """Relative entropy of coherence, S(dephased rho) - S(rho), in nats.

    Nonnegative up to rounding: dephasing is doubly stochastic on the
    spectrum, so it can only raise the entropy.
    """
    a, _, pops = _energy_populations(rho, hamiltonian, "coherence")
    return float(_coherence(pops, _entropy(_spectrum(a)[0])))


class Trajectory(_Frozen):
    """An evolving state on a uniform time grid, with its Hamiltonian(s).

    ``states`` is a read-only (T, d, d) complex stack, a copy if the caller's
    was writable.  Unit trace is checked here, the rest by the ``qcore`` gate;
    positivity is the producing integrator's job (its monitor has already
    walked every step, and an eigendecomposition per grid point would double
    the cost of a run).

    ``hamiltonians`` is a single (d, d) Hermitian matrix when the drive is
    constant, or a (T, d, d) stack otherwise.  Either stack may be given as
    a list or tuple of matrices or containers of one shape.
    """

    __slots__ = ("times", "states", "hamiltonians", "beta", "dt")

    def __init__(self, times, states, hamiltonians, beta: float) -> None:
        beta = _as_beta(beta, "Trajectory")
        t = _as_array(times, "Trajectory times", np.float64, "Trajectory: grid times must be finite")
        if t.ndim != 1 or t.size < 3:
            raise ValidationError("Trajectory: need a 1-d grid with at least 3 points")
        dt = float(t[1] - t[0])
        steps = np.diff(t)
        if not dt > 0.0 or steps.min() <= 0.0:
            raise ValidationError("Trajectory: grid must be strictly increasing")
        if np.abs(steps - dt).max() > 1e-9 * max(dt, 1.0):
            raise ValidationError("Trajectory: grid must be uniform")

        s = _as_hermitian(states, "Trajectory states", stack=True)
        if s.ndim != 3 or s.shape[0] != t.size:
            raise ValidationError(
                f"Trajectory: states must be one square matrix per grid point, got shape {s.shape}"
            )
        trdev = np.abs(np.einsum("tii->t", s) - 1.0).max()
        if trdev > TRACE_TOL:
            raise ValidationError(
                f"Trajectory: worst state trace deviation {trdev:.3e} exceeds {TRACE_TOL:.0e}"
            )

        h = _as_hermitian(hamiltonians, "Trajectory hamiltonians", stack=True)
        if h.ndim == 3 and h.shape[0] == 1:
            h = h[0]
        if h.shape not in (s.shape, s.shape[1:]):
            raise ValidationError(
                f"Trajectory: hamiltonians must be one matrix or one per grid point, "
                f"got shape {h.shape} for states {s.shape}"
            )

        object.__setattr__(self, "times", _frozen(t, times))
        object.__setattr__(self, "states", _frozen(s, states))
        object.__setattr__(self, "hamiltonians", _frozen(h, hamiltonians))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def constant_hamiltonian(self) -> bool:
        return self.hamiltonians.ndim == 2

    def state(self, k: int) -> DensityMatrix:
        """State at grid point k; positivity per the integrator's monitor."""
        return DensityMatrix(self.states[k], check_psd=False)

    def hamiltonian(self, k: int = 0) -> HermitianOperator:
        h = self.hamiltonians if self.constant_hamiltonian else self.hamiltonians[k]
        return HermitianOperator(h)

    def __repr__(self) -> str:
        return f"Trajectory(points={len(self)}, dim={self.dim}, dt={self.dt:g}, beta={self.beta:g})"


@dataclass(frozen=True, eq=False)
class MeasureSeries:
    """All per-step measures of one trajectory, one array per column.

    Attribute -> CSV column: times=t, energy=E, entropy=S, coherence=C_r,
    irr_entropy=S_ir, backflow=I, power=P, coherent_power=P_c,
    incoherent_power=P_i, extractable_work=W_f.
    """

    times: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    coherence: np.ndarray
    irr_entropy: np.ndarray
    backflow: np.ndarray
    power: np.ndarray
    coherent_power: np.ndarray
    incoherent_power: np.ndarray
    extractable_work: np.ndarray

    def __post_init__(self):
        n = None
        for f in fields(self):
            a = _as_array(getattr(self, f.name), f"MeasureSeries {f.name}", np.float64)
            if a.ndim != 1:
                raise ValidationError(f"MeasureSeries: {f.name} must be 1-d")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValidationError("MeasureSeries: all columns must share one length")
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)

    def __len__(self) -> int:
        return self.times.size


CSV_HEADER = "t,E,S,C_r,S_ir,I,P,P_c,P_i,W_f"

_CSV_FIELDS = tuple(f.name for f in fields(MeasureSeries))


def _comment_lines(comments, name: str) -> list[str]:
    """The ``# `` lines of a ``comments`` argument, a sequence of one-line texts;
    a comment that ``str.splitlines`` would split could not be read back."""
    want = "a sequence of one-line comments"
    if isinstance(comments, str):
        raise _reject(f"{name}: comments", comments, want)
    lines = [f"# {c}" for c in _listed(comments, f"{name}: comments", want)]
    for line in lines:
        if line.splitlines() != [line]:
            raise _reject(f"{name}: comment", line[2:], "one line")
    return lines


def _csv_blocks(series: MeasureSeries, lines: list[str]):
    """The text of ``format_csv`` in pieces: the comment ``lines`` and the
    header, then the rows of one block of ``STACK_BLOCK`` grid points at a time."""
    yield "\n".join([*lines, CSV_HEADER]) + "\n"
    for i in range(0, len(series), STACK_BLOCK):
        # x + 0.0 folds negative zero into plain 0
        block = np.stack([getattr(series, f)[i : i + STACK_BLOCK] for f in _CSV_FIELDS], axis=1) + 0.0
        yield from (_decimal_text(block, "%.12g", "\n"), "\n")


def format_csv(series: MeasureSeries, comments=()) -> str:
    """Render a series as CSV text, 12 significant digits per value: the
    bytes of ``"%.12g" % v`` (-0 as 0), from ``_text._decimal_text``.

    ``comments`` lines are emitted first, each prefixed with ``# ``; the
    parser skips them, so they are free-form text of one line each (the CLI
    echoes its effective configuration here).
    """
    return "".join(_csv_blocks(series, _comment_lines(comments, "format_csv")))


def write_csv(series: MeasureSeries, path, comments=()) -> None:
    """Write ``format_csv``'s text to ``path``, one block of rows at a time."""
    lines = _comment_lines(comments, "write_csv")
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_csv_blocks(series, lines))


def read_csv(source) -> MeasureSeries:
    """Parse CSV produced by ``format_csv``; strict about the header row.

    The file is read one line at a time, and each line is split again by
    ``str.splitlines``, which also splits at separators a file object keeps
    inside a line (form feed, U+0085, U+2028, ...), so line numbers count them."""
    if not hasattr(source, "read"):
        with open(source, "r") as fh:
            return read_csv(fh)
    header_seen = False
    width = len(_CSV_FIELDS)
    values = array("d")
    lines = (part for row in source for part in row.splitlines())
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValidationError(f"CSV line {ln}: expected header {CSV_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"CSV line {ln}: expected {width} columns, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ValidationError(f"CSV line {ln}: {exc}") from exc
    if not header_seen:
        raise ValidationError("CSV: header row missing")
    data = np.frombuffer(values, dtype=np.float64).reshape(-1, width)
    return MeasureSeries(**{f: data[:, i] for i, f in enumerate(_CSV_FIELDS)})


# ---------------------------------------------------------------------------
# per-step tables and the series operations

def _tables(tr: Trajectory):
    """Energy, entropy, dephased entropy and ln Z columns of a trajectory;
    ln Z is a scalar when the Hamiltonian is constant."""
    s, h = tr.states, tr.hamiltonians
    if tr.constant_hamiltonian:
        w, v = _jacobi(h)
        diag = _populations(v, s)
    else:
        w, v = _jacobi_stack(h, want_vectors=True)
        diag = np.empty(w.shape)
        for i in range(0, len(tr), STACK_BLOCK):
            blk = slice(i, i + STACK_BLOCK)
            diag[blk] = _populations(v[blk], s[blk])
    s_rho = _entropy(_jacobi_stack(s, want_vectors=False)[0])
    return _energy(s, h), s_rho, _entropy(diag), _log_z(w, _gibbs(w, tr.beta)[1], tr.beta)


def _ddt(y: np.ndarray, dt: float) -> np.ndarray:
    # the one finite-difference stencil of the package: second-order central,
    # second-order one-sided at the ends
    return np.gradient(y, dt, edge_order=2)


def irreversible_entropy_series(tr: Trajectory) -> np.ndarray:
    """S_ir(t_k) = S(rho_0||pi_0) - S(rho_k||pi_k); zero at the first point.

    The Gibbs reference has full rank, so the relative entropies are always
    finite and the closed form beta E + ln Z - S(rho) applies.
    """
    return measure_series(tr).irr_entropy


def non_markovianity_series(tr: Trajectory) -> np.ndarray:
    """Backflow rate I(t) = -dS_ir/dt; positive stretches mark memory effects."""
    return measure_series(tr).backflow


def charging_power_series(tr: Trajectory) -> np.ndarray:
    """P(t) = I(t)/beta, the rate of change of extractable work."""
    return measure_series(tr).power


def coherent_power_series(tr: Trajectory) -> np.ndarray:
    """P_c(t) = (dC_r/dt)/beta, the coherent share of the charging power."""
    return measure_series(tr).coherent_power


def incoherent_power_series(tr: Trajectory) -> np.ndarray:
    """P_i(t) = dE/dt - (dS(drho)/dt - dlnZ/dt)/beta.

    With a constant Hamiltonian the partition-function term is identically
    zero and is skipped, not differentiated numerically.
    """
    return measure_series(tr).incoherent_power


def measure_series(tr: Trajectory) -> MeasureSeries:
    """All measures of one trajectory in a single pass over the grid."""
    energy, s_rho, s_deph, log_z = _tables(tr)
    beta = tr.beta
    dt = tr.dt

    relent = beta * energy + log_z - s_rho
    s_ir = relent[0] - relent
    coh = s_deph - s_rho
    backflow = -_ddt(s_ir, dt)
    de = _ddt(energy, dt)
    if tr.constant_hamiltonian:
        p_i = de - _ddt(s_deph, dt) / beta
    else:
        p_i = de - (_ddt(s_deph, dt) - _ddt(log_z, dt)) / beta

    return MeasureSeries(
        times=tr.times.copy(),
        energy=energy,
        entropy=s_rho,
        coherence=coh,
        irr_entropy=s_ir,
        backflow=backflow,
        power=backflow / beta,
        coherent_power=_ddt(coh, dt) / beta,
        incoherent_power=p_i,
        extractable_work=relent / beta,
    )
