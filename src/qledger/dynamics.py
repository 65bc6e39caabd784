"""Fixed-step trajectory generators: exact unitary evolution and RK4
integration of a Lindblad master equation.

Both evolvers emit a ``measures.Trajectory`` on a uniform grid, because the
downstream finite-difference measures require one.  The generator sign
convention is drho/dt = -i[H, rho] + D(rho) with

    D(rho) = sum_ij gamma_ij (L_i rho L_j^dag - 1/2 {L_j^dag L_i, rho})

where the rate matrix gamma is Hermitian and positive semidefinite; plain
uncorrelated jumps sit on its diagonal.

The unitary path never steps: with a constant H the propagator is built
once from the eigendecomposition and applied per grid point, so case
studies that reduce to closed evolution carry no integrator error at all.
Its projectors are made one block of ``STACK_BLOCK`` grid points at a time,
and each block is kept as its partial trace, as on the Lindblad path.

The Lindblad path is classical RK4 with fixed dt.  The generator maps
Hermitian matrices to Hermitian matrices, so it acts on a state's d^2 real
coordinates x = (Re rho_ii; Re rho_ij and Im rho_ij for i < j) as a real
(d^2, d^2) generator L.  A run steps only its live coordinates: the
closure of x0's nonzero coordinates under L's nonzero pattern (``_live``).
No live coordinate feeds one outside the set, so those are exactly zero
at every step and dropping them is exact.  A generator that conserves a
quantity, such as the oracle's excitation number, confines a run to a
small block (the oracle's d = 8 run has 7 of 64 coordinates live); a rho0
with no zero coordinate, as a generic full-rank one, drops nothing.  For a
constant L one RK4 step is exactly x <- P4(dt L) x, with P4 the degree-4
Taylor polynomial, so the step is built once on the live block as a dense
real propagator M, by Horner's rule in three dense products.  The powers
M, M^2, ..., M^B sit in one stacked array of at most
``PROPAGATOR_POWERS_BYTES``, sized to stay in a core's L2 cache, so B
follows the live count n (n = d^2 when every coordinate is live):

    n  <= 45   49   64   81  100  128  181  256  > 256
    B      64   54   32   19   13    8    4    2      1

and a single matrix-vector product advances B steps at a time; the next
chunk starts from the last chunk's coordinates.  Once per block of
``STACK_BLOCK`` states the coordinates are written into the full complex
states by an exact signed gather: each float of a state is a live
coordinate, its negative or zero, so every state is exactly Hermitian by
construction.
Every run writes its states into one buffer of a block's size and keeps
each checked block as its ``partial_trace_stack``: the example-1 oracle
keeps its battery only, any other run the identity trace, a plain copy.
The build is paid once per run, so at large n a run of few steps costs
more than the four stage products per step it replaces.

Trace and finiteness are watched every step, positivity every
``psd_check_every`` steps; the monitors run over a block of
``STACK_BLOCK`` states (the chunks that first reach it) and report the
earliest failing step, trace before positivity at the same step.  The
positivity monitor compares LAPACK eigenvalues (``qcore._min_eigvals``)
against its floor; they never reach a reported number.  It solves only the
occupied rows and columns, those that hold a live coordinate: the state is
exactly zero outside them, so its other eigenvalues are zero, above the
floor.  A breach raises ``NumericError`` asking for a finer grid; nothing
is ever renormalized silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Trajectory
from .qcore import (
    _COMPLEX,
    _MAX_ARRAY_BYTES,
    _NONNEGATIVE,
    _POSITIVE,
    STACK_BLOCK,
    NumericError,
    PureState,
    ValidationError,
    _as_beta,
    _as_square,
    _count,
    _Frozen,
    _gated,
    _integral,
    _jacobi,
    _listed,
    _min_eigvals,
    _mirror,
    _real,
    _reject,
    _scalar,
    _spectrum,
    partial_trace_stack,
)

TRACE_DRIFT_TOL = 1e-8
POSITIVITY_FLOOR = -1e-7

# the stacked propagator powers [M, ..., M^B] fit in this many bytes, B <= MAX_CHUNK;
# chosen by timing 256 KiB to 4 MiB at d = 4, 8 and 16 on a host with 2 MiB of L2
# per core, and again with real powers from 256 KiB to 2 MiB: at d = 8 a larger
# stack is streamed from L3 on every chunk, a smaller one pays more products.  It
# stays >= 256 KiB, so B = 64 for any d = 4 run (at most 16 live coordinates).
PROPAGATOR_POWERS_BYTES = 2**20
MAX_CHUNK = 64


def _as_grid(t_max, steps, name: str) -> tuple[float, int]:
    """A grid's t_max (positive and finite) and steps (an integer >= 2 whose
    float64 grid numpy can index) as a float and an int, whatever number
    types were passed."""
    t = _scalar(t_max, f"{name}: t_max", _POSITIVE)
    # two steps minimum: the measures need three grid points
    n = _scalar(steps, f"{name}: steps", _count(2))
    # np.linspace sizes the grid from the float value of its point count; an
    # int beyond the float range reads as inf, so it is over the limit too
    if _real(n + 1) * 8 > _MAX_ARRAY_BYTES:
        want = f"within numpy's size limit: a float64 grid of steps + 1 points in {_MAX_ARRAY_BYTES} bytes"
        raise _reject(f"{name}: steps", steps, want)
    return t, n


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid 0, dt, ..., t_max with dt = t_max/steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        t_max, steps = _as_grid(self.t_max, self.steps, "GridSpec")
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "steps", steps)

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


class LindbladSpec(_Frozen):
    """Hamiltonian, jump operators and their (possibly correlated) rates.

    ``jumps`` is a sequence of ``(operator, rate)`` with rate >= 0;
    ``cross_terms`` an optional sequence of ``(i, j, gamma_ij)`` filling the
    off-diagonal of the rate matrix (the conjugate entry is implied).  The
    assembled rate matrix must be positive semidefinite, otherwise the
    generator is not completely positive.
    """

    __slots__ = ("hamiltonian", "jumps", "rate_matrix")

    def __init__(self, hamiltonian, jumps, cross_terms=None) -> None:
        h = _gated(hamiltonian, "LindbladSpec hamiltonian")
        d = h.dim
        ops = []
        rates = []
        jumps = _listed(jumps, "LindbladSpec: jumps", "a sequence of (operator, rate) pairs")
        for entry in jumps:
            try:
                op, rate = entry
            except (TypeError, ValueError):
                raise ValidationError("LindbladSpec: jumps must be (operator, rate) pairs") from None
            a = _as_square(op, "LindbladSpec jump")
            if a.shape[0] != d:
                raise ValidationError(
                    f"LindbladSpec: jump dim {a.shape[0]} does not match Hamiltonian dim {d}"
                )
            r = _scalar(rate, "LindbladSpec: jump rate", _NONNEGATIVE)
            a = a.copy()
            a.setflags(write=False)
            ops.append(a)
            rates.append(r)

        m = len(ops)
        gamma = np.zeros((m, m), dtype=np.complex128)
        for i, rate in enumerate(rates):
            gamma[i, i] = rate
        if cross_terms is None:
            cross_terms = ()
        cross_terms = _listed(cross_terms, "LindbladSpec: cross_terms", "a sequence of (i, j, rate) triples")
        for entry in cross_terms:
            try:
                i, j, g = entry
            except (TypeError, ValueError):
                raise ValidationError("LindbladSpec: cross_terms must be (i, j, rate) triples") from None
            if not (_integral(i) and _integral(j) and 0 <= i < m and 0 <= j < m and i != j):
                want = f"two distinct integers in 0..{m - 1}"
                raise _reject("LindbladSpec: cross term indices", (i, j), want)
            z = _scalar(g, "LindbladSpec: cross term rate", _COMPLEX)
            gamma[i, j] = z
            gamma[j, i] = z.conjugate()
        if m:
            wmin = float(_jacobi(gamma)[0][0])
            if wmin < -1e-10 * max(1.0, float(np.abs(gamma).max())):
                raise ValidationError(
                    f"LindbladSpec: rate matrix has eigenvalue {wmin:.3e}; must be positive semidefinite"
                )
        gamma.setflags(write=False)

        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(ops))
        object.__setattr__(self, "rate_matrix", gamma)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def _coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps between a Hermitian d x d matrix and its d^2 real coordinates
    x = (Re rho_ii; Re rho_ij for i < j; Im rho_ij for i < j), over the
    matrix's float view (Re and Im of each entry, row-major).

    ``view[pick]`` is x; ``sign * xz[src]`` is the view again, where xz is x
    with a zero appended: each float is one coordinate, its negative or zero,
    so the matrix is exactly Hermitian by construction."""
    n2 = d * d
    iu, ju = np.triu_indices(d, 1)
    diag = np.arange(d)
    re, im = d + np.arange(iu.size), d + iu.size + np.arange(iu.size)
    pick = np.concatenate([2 * (diag * (d + 1)), 2 * (iu * d + ju), 2 * (iu * d + ju) + 1])
    src = np.full((d, d, 2), n2)  # Im rho_ii is the zero
    sign = np.ones((d, d, 2))
    src[diag, diag, 0] = diag
    src[iu, ju, 0] = src[ju, iu, 0] = re
    src[iu, ju, 1] = src[ju, iu, 1] = im
    sign[ju, iu, 1] = -1.0
    return pick, src.ravel(), sign.ravel()


def _liouvillian(spec: LindbladSpec) -> np.ndarray:
    """The generator as a real (d^2, d^2) matrix on the coordinates x of
    ``_coordinates``.

    With K = -iH - 1/2 sum_ij gamma_ij L_j^dag L_i and N_i = sum_j gamma_ij L_j^dag
    the generator is rho -> K rho + rho K^dag + sum_i L_i rho N_i, which maps
    Hermitian matrices to Hermitian matrices.  Only the rows of the output
    entries (p, q) with p <= q are built, as the complex coefficients
    t[r, a, b] of rho_ab, and the columns combine rho_ab and rho_ba into the
    coordinates; the complex (d^2, d^2) superoperator is never formed.
    """
    h = spec.hamiltonian.matrix
    d = h.shape[0]
    ls = np.array(spec.jumps, dtype=np.complex128).reshape(-1, d, d)
    ns = np.einsum("ij,jba->iab", spec.rate_matrix, ls.conj())
    k = -1j * h - 0.5 * np.einsum("iab,ibc->ac", ns, ls)
    diag = np.arange(d)
    iu, ju = np.triu_indices(d, 1)
    rp, rq = np.concatenate([diag, iu]), np.concatenate([diag, ju])
    rows = rp.size  # the diagonal entries, then the upper triangle
    t = np.einsum("ira,ibr->rab", ls[:, rp, :], ns[:, :, rq])
    t[np.arange(rows), :, rq] += k[rp, :]
    t[np.arange(rows), rp, :] += k.conj()[rq, :]

    # x rows: Re of every row, then Im of the upper ones; columns: rho_ii,
    # then Re rho_ab = x_re and Im rho_ab = x_im for a < b, with
    # rho_ab = x_re + i x_im and rho_ba = x_re - i x_im
    sup = np.empty((d * d, d * d))
    cols = (t[:, diag, diag], t[:, iu, ju] + t[:, ju, iu], 1j * (t[:, iu, ju] - t[:, ju, iu]))
    start = 0
    for c in cols:
        stop = start + c.shape[1]
        sup[:rows, start:stop] = c.real
        sup[rows:, start:stop] = c[d:].imag
        start = stop
    return sup


def _live(pattern: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """The coordinates a run can reach, ascending: the closure of the nonzero
    coordinates ``seed`` under the generator's nonzero ``pattern``.  No live
    coordinate feeds one outside the closure, so those stay exactly zero."""
    live = frontier = seed
    while frontier.any():
        reached = pattern[:, frontier].any(axis=1)
        frontier = reached & ~live
        live = live | reached
    return np.flatnonzero(live)


def _rk4_propagator(a: np.ndarray, dt: float) -> np.ndarray:
    """The real matrix one classical RK4 step applies to the coordinates of a
    state for the constant real generator ``a`` (scaled in place),
    P4(hL) = I + hL(I + hL/2(I + hL/3(I + hL/4))) with h = dt, by Horner."""
    a *= dt
    diag = slice(None, None, a.shape[0] + 1)
    m = a * 0.25
    m.reshape(-1)[diag] += 1.0
    for c in (3.0, 2.0, 1.0):
        m = a @ m
        m /= c
        m.reshape(-1)[diag] += 1.0
    return m


def _monitor(seg: np.ndarray, k: int, psd_due: np.ndarray, occupied: np.ndarray, times: np.ndarray,
             dt: float, name: str) -> None:
    """Check the states ``seg`` produced by steps k, k+1, ... as a step-by-step
    loop would, and raise the error it would raise first, under ``name``: the
    earliest failing step, and at one step finiteness and trace before positivity.

    The stepper calls it once per block of at least ``STACK_BLOCK`` new states
    and once at the end; every earlier block passed, so the first failure in
    ``seg`` is the first of the run.  ``psd_due[i]`` marks the states whose
    positivity is checked, all in one ``_min_eigvals`` call on the
    ``occupied`` rows and columns: every other entry is exactly zero, so the
    other eigenvalues are zero, above the floor."""
    remedy = f"increase steps (dt={dt:.3e} too coarse)"
    tr = np.einsum("tii->t", seg).real
    finite = np.isfinite(seg).all(axis=(1, 2))
    broken = ~finite | ~(np.abs(tr - 1.0) <= TRACE_DRIFT_TOL)  # a NaN trace is broken
    first = int(broken.argmax()) if broken.any() else len(seg)
    due = np.flatnonzero(psd_due[:first])
    if due.size:
        wmin = _min_eigvals(seg[due[:, None, None], occupied[:, None], occupied])
        low = np.flatnonzero(wmin < POSITIVITY_FLOOR)
        if low.size:
            raise NumericError(
                f"{name}: eigenvalue {float(wmin[low[0]]):.3e} below {POSITIVITY_FLOOR:.0e} "
                f"at t={times[k + 1 + due[low[0]]]:.6g}; {remedy}"
            )
    if first < len(seg):
        t = times[k + 1 + first]
        if not finite[first]:
            raise NumericError(f"{name}: state became non-finite at t={t:.6g}; {remedy}")
        raise NumericError(f"{name}: trace drifted to {float(tr[first])} at t={t:.6g}; {remedy}")


def lindblad_evolve(spec: LindbladSpec, rho0, grid: GridSpec, beta: float,
                    psd_check_every: int = 10) -> Trajectory:
    """Integrate the master equation with classical RK4 on a fixed grid.

    Raises ``NumericError`` when the trace drifts beyond 1e-8, a state
    entry stops being finite or an eigenvalue of the state falls below
    -1e-7; each means dt is too coarse for this generator and the caller
    should increase ``steps``.
    """
    beta = _as_beta(beta, "lindblad_evolve")
    return Trajectory(*_lindblad_steps(spec, rho0, grid, psd_check_every, "lindblad_evolve"),
                      spec.hamiltonian, beta)


def _lindblad_steps(spec: LindbladSpec, rho0, grid: GridSpec, psd_check_every: int, name: str,
                    reduce=None):
    """Read-only times and states of ``lindblad_evolve``, checked by its monitor
    only; errors name the caller ``name``.

    Each checked block of states is written into one buffer of a block's size
    and kept as ``partial_trace_stack(block, dims, keep)``, with ``reduce=(dims,
    keep)``; without it ``([d], [0])``, the identity, a plain copy."""
    if not isinstance(spec, LindbladSpec):
        raise _reject(f"{name}: spec", spec, "a LindbladSpec")
    if not isinstance(grid, GridSpec):
        raise _reject(f"{name}: grid", grid, "a GridSpec")
    state = _gated(rho0, f"{name} rho0", state=True)
    if state.dim != spec.dim:
        raise ValidationError(f"{name}: state dim {state.dim} does not match spec dim {spec.dim}")
    psd_check_every = _scalar(psd_check_every, f"{name}: psd_check_every", _count(1))

    d = spec.dim
    n2 = d * d
    dt = grid.dt
    n = grid.steps
    times = grid.times()

    # step k (0-based) produces the state at times[k + 1]
    psd_due = np.zeros(n, dtype=bool)
    psd_due[psd_check_every - 1::psd_check_every] = True
    psd_due[-1] = True
    pick, src, sign = _coordinates(d)
    x0 = np.append(np.ascontiguousarray(state.matrix).view(np.float64).reshape(-1)[pick], 0.0)
    dims, keep = reduce or ([d], [0])
    # the full states of one block, fewer than STACK_BLOCK + MAX_CHUNK
    full = np.empty((STACK_BLOCK + MAX_CHUNK, d, d), dtype=np.complex128)
    view = full.view(np.float64).reshape(len(full), 2 * n2)
    np.multiply(x0[src], sign, out=view[0])
    # reducing row 0 checks dims and keep before any stepping
    first = partial_trace_stack(full[:1], dims, keep)
    out = np.empty((n + 1,) + first.shape[1:], dtype=np.complex128)
    out[0] = first[0]

    # only the live coordinates are stepped; every other float of a state
    # reads the zero column, and only the rows holding a live float are occupied
    a = _liouvillian(spec)
    live = _live(a != 0, x0[:n2] != 0)
    nl = live.size
    m = _rk4_propagator(a[np.ix_(live, live)], dt)
    del a
    at = np.full(n2 + 1, nl)
    at[live] = np.arange(nl)
    src = at[src]
    occupied = np.flatnonzero((src.reshape(d, 2 * d) < nl).any(axis=1))
    b = min(MAX_CHUNK, max(1, PROPAGATOR_POWERS_BYTES // m.nbytes))
    powers = np.empty((b, nl, nl))
    powers[0] = m
    del m
    # the live coordinates of the last checked state (row 0) and of the
    # states stepped since, and the zero column
    xs = np.zeros((STACK_BLOCK + b, nl + 1))
    xs[0, :nl] = x0[live]
    chunk = np.empty(b * nl)
    # overflow is caught by the monitor, as a non-finite state at its step
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, b):
            np.matmul(powers[j - 1], powers[0], out=powers[j])
        # an overflowed power would turn exact zeros of a state into NaN,
        # where single steps keep them zero: chunks end before it
        finite = np.isfinite(powers).all(axis=(1, 2))
        if not finite.all():
            b = max(1, int(finite.argmin()))
        stacked = powers.reshape(-1, nl)

        k = checked = 0
        while k < n:
            c = min(b, n - k)
            j = k - checked
            np.matmul(stacked[: c * nl], xs[j, :nl], out=chunk[: c * nl])
            xs[j + 1 : j + 1 + c, :nl] = chunk[: c * nl].reshape(c, nl)
            k += c
            if k - checked >= STACK_BLOCK or k == n:
                rows = slice(0, k - checked)
                # "clip" skips the bounds check; src is in range
                np.take(xs[1 : k - checked + 1], src, axis=1, out=view[rows], mode="clip")
                view[rows] *= sign
                _monitor(full[rows], checked, psd_due[checked:k], occupied, times, dt, name)
                out[checked + 1 : k + 1] = partial_trace_stack(full[rows], dims, keep)
                xs[0] = xs[k - checked]
                checked = k
    del powers, stacked, full

    times.setflags(write=False)  # so a Trajectory keeps them, not copies
    out.setflags(write=False)
    return times, out


def schrodinger_evolve(hamiltonian, psi0, grid: GridSpec, beta: float) -> Trajectory:
    """Closed evolution under a constant H, as pure-state projectors.

    The propagator is exact: psi(t_k) = V exp(-i w t_k) V^dag psi(0) from
    one eigendecomposition, so norm and <H> are conserved to rounding.
    """
    beta = _as_beta(beta, "schrodinger_evolve")
    h = _gated(hamiltonian, "schrodinger_evolve hamiltonian")
    return Trajectory(*_schrodinger_steps(h, psi0, grid, "schrodinger_evolve"), h, beta)


def _schrodinger_steps(h, psi, grid: GridSpec, name: str, reduce=None):
    """Read-only times and projector states of ``schrodinger_evolve``; errors
    name the caller ``name``.

    The projectors of one block of ``STACK_BLOCK`` grid points at a time are
    kept as ``partial_trace_stack(block, dims, keep)``, with ``reduce=(dims,
    keep)``; without it ``([d], [0])``, the identity, a plain copy."""
    if not isinstance(grid, GridSpec):
        raise _reject(f"{name}: grid", grid, "a GridSpec")
    h = _gated(h, f"{name} hamiltonian")
    psi = psi if isinstance(psi, PureState) else PureState(psi)
    if psi.dim != h.dim:
        raise ValidationError(f"{name}: state dim {psi.dim} does not match H dim {h.dim}")

    w, vecs = _spectrum(h)
    a0 = np.einsum("ji,j->i", vecs.conj(), psi.amplitudes)  # V^dag psi(0)
    times = grid.times()
    phases = np.exp(-1j * np.outer(times, w))
    amps = np.einsum("tk,ik->ti", phases * a0, vecs)  # amps[k] = V (e^{-i w t_k} . a0)
    dims, keep = reduce or ([h.dim], [0])
    out = None
    for i in range(0, times.size, STACK_BLOCK):
        a = amps[i : i + STACK_BLOCK]
        block = partial_trace_stack(_mirror(a[:, :, None] * a.conj()[:, None, :]), dims, keep)
        if out is None:
            out = np.empty((times.size,) + block.shape[1:], dtype=np.complex128)
        out[i : i + len(a)] = block
    times.setflags(write=False)  # so a Trajectory keeps them, not copies
    out.setflags(write=False)
    return times, out
