"""Dense complex linear algebra and quantum state primitives.

Every reported spectral quantity in this package comes from a cyclic Jacobi
eigensolver with complex rotations, on one of two paths chosen by shape
alone.  ``_jacobi`` takes one matrix: every dimension from 1 to
``SCALAR_MAX_DIM`` runs one scalar loop of rotations on Python complex
numbers, the fastest choice for the many tiny solves of the fuzz suites;
larger matrices go through ``_jacobi_stack``, which takes a (B, n, n) stack,
such as the states of a trajectory, and rotates n/2 disjoint pairs of every
matrix per numpy call (parallel-ordering Jacobi; 64 is a hard cap on the
dimension).  Both paths use elementwise arithmetic only, never BLAS, so a
spectrum has the same bits on every numpy build.  The one exception is a
monitor: ``_min_eigvals`` takes LAPACK eigenvalues for the integrator's
positivity check, and they never reach a reported number.  One kernel builds
every matrix from a spectrum or a factor: ``_synthesize(v, x)``, V diag(x)
V^H as one einsum (no BLAS) through ``_mirror``, which keeps the upper
triangle and a real diagonal and writes the lower triangle as their exact
conjugate.

Each input check lives in one place: ``_as_array`` reads a regular array
of numbers (an int beyond the float range is non-finite), ``_as_square``
bounds a matrix or a (..., d, d) stack (a list of one shape is stacked) in
blocks of ``STACK_BLOCK``, and ``_as_hermitian`` adds the hermiticity
check.  A bare array becomes an operand in ``_gated``, held in a
``HermitianOperator`` (with ``state=True``, a ``DensityMatrix`` checked by
``_check_state``), or, as ``_as_operands`` gates the bare operands of one
call, as a row of one stack gated in ``_rows``; each reports under
"<function> <argument>".  A scalar is read by ``_scalar`` as one of the
kinds ``_POSITIVE`` ... ``_DIM`` or ``_count(lo, hi)``, and ``_reject``
reports a failure as "<caller>: <argument> must be ..., got <value>".
Every value object is a ``_Frozen``, whose slots are set once.  A
container keeps its (w, V) in a slot, filled on first use (``_spectrum``)
or by the positivity check; ``_spectra`` seeds the cold operands above
``SCALAR_MAX_DIM`` from one stack call per dimension (``_stack_seed``),
whose per-matrix convergence test gives each the bits of a solve alone.

Conventions: matrices are dense complex128 ``numpy`` arrays, row-major;
eigenvalues ascend with matching eigenvector columns, whose phases (and the
basis inside a degenerate cluster) are arbitrary, so downstream code only
consumes basis-independent quantities; the JSON wire format for a matrix is
``{"dim": n, "re": [...], "im": [...]}`` with row-major entry lists.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np

MAX_DIM = 64

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
KRAUS_TOL = 1e-10

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# single matrices above this dimension go through the stack solver, which
# is faster from d = 17 on (measured at d = 16, 17, 20 and 24)
SCALAR_MAX_DIM = 16
# the input gate, the stack solver and the integrator's monitors work this
# many matrices at a time, so their temporaries stay small however long the
# stack, and the monitors' numpy calls are paid per block, not per state
STACK_BLOCK = 1024
# numpy refuses an array of more bytes than this
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max

LOG_FLOOR = 1e-300


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


class NumericError(RuntimeError):
    """Raised when a numerical routine fails to meet its tolerance."""


class PropertyViolation(RuntimeError):
    """Raised when a physical property check fails during an audit."""


def _as_square(m, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Coerce to a finite square complex128 array, dim in [1, MAX_DIM];
    with ``stack``, a (..., d, d) stack of them, or a list or tuple of
    matrices or containers of one shape, stacked."""
    if stack and isinstance(m, (list, tuple)):
        parts = [_as_array(x, name) for x in m]
        shapes = sorted({p.shape for p in parts})
        if len(shapes) > 1:
            raise ValidationError(f"{name}: matrices of mixed shapes {', '.join(map(str, shapes))}")
        m = np.stack(parts) if parts else np.empty(0)
    a = _as_array(m, name)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not (1 <= a.shape[-1] <= MAX_DIM):
        raise ValidationError(f"{name}: dimension {a.shape[-1]} outside [1, {MAX_DIM}]")
    for b in _blocks(a):
        if not np.isfinite(b).all():
            raise ValidationError(f"{name}: entries must be finite")
    return a


def _as_array(m, name: str, dtype=np.complex128, finite: str | None = None) -> np.ndarray:
    """A matrix, container or nested sequence as a ``dtype`` array; a ragged or
    non-numeric input is a ``ValidationError`` under ``name``, an int beyond the
    float range one with the message ``finite`` ("<name>: entries must be finite").
    Given ``finite``, any non-finite entry is rejected with it too."""
    try:
        a = np.asarray(getattr(m, "matrix", m), dtype=dtype)
    except OverflowError:
        raise ValidationError(finite or f"{name}: entries must be finite") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected a regular array of numbers ({exc})") from None
    if finite and not np.isfinite(a).all():
        raise ValidationError(finite)
    return a


def _as_hermitian(m, name: str, *, stack: bool = False) -> np.ndarray:
    """``_as_square`` plus the hermiticity check against ``HERMITICITY_TOL``."""
    a = _as_square(m, name, stack=stack)
    defect = 0.0
    # an overflowed defect is inf, above the tolerance: no warning before the error
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _blocks(a):
            defect = max(defect, float(np.abs(b - b.conj().swapaxes(-1, -2)).max()))
    if defect > HERMITICITY_TOL:
        raise ValidationError(f"{name}: hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return a


def _blocks(a: np.ndarray):
    """A (..., d, d) array as views of at most ``STACK_BLOCK`` matrices, so a
    check never holds a temporary of a whole stack; one matrix is one block."""
    if a.ndim == 2:
        return (a,)
    flat = a.reshape(-1, a.shape[-2], a.shape[-1])
    return [flat[i : i + STACK_BLOCK] for i in range(0, flat.shape[0], STACK_BLOCK)]


def _as_operands(name: str, **ops) -> tuple:
    """Each distinct operand (by identity) gated once as ``"<name> <key>"``;
    all share one dimension.  Containers pass as they are; two or more bare
    ones are gated as one stack (``_rows``), or if it fails each alone
    (``_gated``) in order, so the first at fault is named as before."""
    named = {}
    for key, m in ops.items():
        named.setdefault(id(m), (f"{name} {key}", m))
    bare = {i: nm for i, nm in named.items() if not isinstance(nm[1], _Operator)}
    held = {}
    if len(bare) > 1:
        names, ms = zip(*bare.values())
        try:
            held = dict(zip(bare, _rows(list(ms), names)))
        except ValidationError:
            pass
    held = {i: held.get(i) or _gated(m, n) for i, (n, m) in named.items()}
    xs = tuple(held[id(m)] for m in ops.values())
    if len({x.dim for x in xs}) > 1:
        dims = ", ".join(f"{key} {x.dim}" for key, x in zip(ops, xs))
        raise ValidationError(f"{name}: operands must share one dimension, got {dims}")
    return xs


def _real(x) -> float | None:
    """A real number that is not a bool (numpy scalars too) as a float, an
    int beyond the float range as inf; None for anything else."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _integral(x) -> bool:
    """An integer (numpy integers too) that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _complex(x) -> complex | None:
    """A finite complex number that is not a bool (real and numpy scalars
    too) as a complex; None for anything else."""
    if not (isinstance(x, numbers.Complex) and not isinstance(x, bool)):
        return None
    try:
        z = complex(x)
    except OverflowError:
        return None
    return z if cmath.isfinite(z) else None


def _reject(name: str, value, want: str) -> ValidationError:
    """The error for a scalar argument: "<caller>: <argument> must be <want>,
    got <repr>", with ``name`` the caller and the argument.  An int too long
    for ``repr`` (``sys.get_int_max_str_digits()``) is given by its length."""
    try:
        got = repr(value)
    except ValueError:
        n = abs(int(value))
        k = int(n.bit_length() * math.log10(2))  # the digit count is k or k + 1
        got = f"an integer of {k + (n >= 10**k)} digits"
    return ValidationError(f"{name} must be {want}, got {got}")


def _count(lo: int, hi: int | None = None):
    """The kind of an integer argument (``_integral``, read as an int) in
    [lo, hi], or >= lo with no ``hi``."""
    want = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return want, lambda x: int(x) if _integral(x) else None, lambda v: v >= lo and (hi is None or v <= hi)


# the kinds of scalar argument: what one must be, the reader that takes it
# (None when it is no such number), and the test its value must pass
_POSITIVE = ("a positive finite real number", _real, lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = ("a finite real number >= 0", _real, lambda v: 0.0 <= v < math.inf)
_FINITE = ("a finite real number", _real, math.isfinite)
_UNIT = ("a real number in (0, 1]", _real, lambda v: 0.0 < v <= 1.0)
_COMPLEX = ("a finite complex number", _complex, cmath.isfinite)
_DIM = _count(1, MAX_DIM)


def _scalar(x, name: str, kind):
    """``x`` read as a number of ``kind``, or ``_reject``-ed under ``name``."""
    want, read, ok = kind
    v = read(x)
    if v is None or not ok(v):
        raise _reject(name, x, want)
    return v


def _as_beta(beta, name: str) -> float:
    """An inverse temperature: a real number, not a bool, positive and finite."""
    return _scalar(beta, f"{name}: beta", _POSITIVE)


class _Frozen:
    """A value object: ``__init__`` sets its slots by ``object.__setattr__``, once."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _frozen(a: np.ndarray, source) -> np.ndarray:
    """``a`` made read-only, copied first if it is the caller's writable array."""
    if a.flags.writeable and isinstance(source, np.ndarray) and np.may_share_memory(a, source):
        a = a.copy()
    a.setflags(write=False)
    return a


def _hold(x, m, name: str) -> None:
    """Set the matrix and spectrum slot of the new container ``x`` from ``m``:
    a container's as they are, anything else gated and frozen, slot empty."""
    if isinstance(m, _Operator):
        a, eig = m.matrix, m._eig
    else:
        a, eig = _frozen(_as_hermitian(m, name), getattr(m, "matrix", m)), None
    object.__setattr__(x, "matrix", a)
    object.__setattr__(x, "_eig", eig)


class _Operator(_Frozen):
    """The matrix and spectrum slots of the two operator containers."""

    __slots__ = ("matrix", "_eig")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianOperator(_Operator):
    """A validated Hermitian matrix (observable or Hamiltonian)."""

    __slots__ = ()

    def __init__(self, matrix) -> None:
        _hold(self, matrix, "HermitianOperator")


class DensityMatrix(_Operator):
    """A validated quantum state: Hermitian, unit trace, positive.

    The positivity check's eigendecomposition is kept as the state's spectrum
    (a container's carried spectrum is checked without one).  Callers that
    already guarantee positivity (integrators with their own monitoring,
    algebraic constructions from a known spectrum) may pass ``check_psd=False``.
    """

    __slots__ = ()

    def __init__(self, matrix, *, check_psd: bool = True) -> None:
        _hold(self, matrix, "DensityMatrix")
        _check_state(self, "DensityMatrix", check_psd)

    @classmethod
    def from_pure(cls, state: "PureState | np.ndarray") -> "DensityMatrix":
        """|v><v| through ``_mirror``, since ``np.outer`` may round v_i conj(v_j)
        and v_j conj(v_i) differently.  A bare input must be a vector."""
        v = state.amplitudes if isinstance(state, PureState) else _as_array(state, "DensityMatrix.from_pure")
        if v.ndim != 1:
            raise ValidationError(f"DensityMatrix.from_pure: expected a vector, got shape {v.shape}")
        return cls(_mirror(np.outer(v, v.conj())), check_psd=False)


def _check_state(x, name: str, check_psd: bool = True):
    """A container's unit trace and, with ``check_psd``, positivity on its
    spectrum (solved once, and kept), reported under ``name``."""
    _check_states(x.matrix[None], _spectrum(x)[0][None] if check_psd else None, name)
    return x


def _check_states(m: np.ndarray, w, name: str) -> None:
    """``_check_state`` over a (n, d, d) stack with its ascending eigenvalues
    (n, d), or with ``w`` None its traces alone: each matrix's trace (the
    bits of ``matrix.trace()``) and smallest eigenvalue against the same
    tolerances, the first that fails raising the same message."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan trace fails below
        tr = np.trace(m, axis1=-2, axis2=-1)
    low = np.zeros(len(m)) if w is None else w[:, 0]
    bad = ~(np.abs(tr - 1.0) <= TRACE_TOL) | ~(low >= -PSD_TOL)  # so that nan fails
    for t, wmin in zip(tr[bad][:1], low[bad][:1]):
        if not abs(t - 1.0) <= TRACE_TOL:
            raise ValidationError(f"{name}: trace {t} deviates from 1 beyond {TRACE_TOL:.0e}")
        if not wmin >= -PSD_TOL:
            raise ValidationError(f"{name}: smallest eigenvalue {wmin:.3e} below -{PSD_TOL:.0e}")


def _gated(m, name: str, *, state: bool = False):
    """One operand: a container as it is; anything else through
    ``_as_hermitian`` once and held in a ``HermitianOperator`` with an empty
    spectrum slot (``_rows`` for a stack of them).  With ``state``, a
    ``DensityMatrix``: a ``HermitianOperator`` is re-held without a new
    gate, and it or the gated array is checked by ``_check_state``."""
    if isinstance(m, DensityMatrix) or (not state and isinstance(m, HermitianOperator)):
        return m
    x = object.__new__(DensityMatrix if state else HermitianOperator)
    _hold(x, m, name)
    return _check_state(x, name) if state else x


def _rows(m, name) -> list:
    """The matrices of a fresh (n, d, d) stack, or of a list, gated as one
    under ``name`` (or a tuple of one name per matrix); each held, read only,
    in a new ``HermitianOperator``."""
    a = _as_hermitian(m, name, stack=True)
    if a.ndim != 3:
        raise ValidationError(f"{name}: expected a stack of square matrices, got shape {a.shape}")
    a.setflags(write=False)
    out = [object.__new__(HermitianOperator) for _ in a]
    for x, row in zip(out, a):
        object.__setattr__(x, "matrix", row)
        object.__setattr__(x, "_eig", None)
    return out


def _spectrum(x):
    """Ascending eigenvalues and eigenvector columns of a container: its
    read-only pair, solved once."""
    if x._eig is None:
        _seed(x, *_jacobi(x.matrix))
    return x._eig


def _spectra(*xs) -> tuple:
    """``_spectrum`` of each container; the cold ones above ``SCALAR_MAX_DIM``
    are first seeded by ``_stack_seed``."""
    _stack_seed(xs, SCALAR_MAX_DIM + 1)
    return tuple(map(_spectrum, xs))


def _stack_seed(xs, min_dim: int) -> None:
    """Seed the cold containers of ``xs`` of dimension ``min_dim`` and up from
    one ``_jacobi_stack`` call per dimension, which gives each the bits of a
    stack solve alone.  A repeated container is solved once."""
    stacks = {}
    for x in xs:
        if x._eig is None and x.dim >= min_dim:
            stacks.setdefault(x.dim, {})[id(x)] = x
    for group in stacks.values():
        w, v = _jacobi_stack(np.stack([x.matrix for x in group.values()]), want_vectors=True)
        for x, wk, vk in zip(group.values(), w, v):
            _seed(x, wk, vk)


def _seed(x, w: np.ndarray, v: np.ndarray):
    """Store a known spectrum (w ascending, V its columns) in an empty slot."""
    for a in (w, v):
        a.setflags(write=False)
    object.__setattr__(x, "_eig", (w, v))
    return x


class PureState(_Frozen):
    """A normalized complex state vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        source = getattr(amplitudes, "amplitudes", amplitudes)
        v = _as_array(source, "PureState", finite="PureState: amplitudes must be finite")
        if v.ndim != 1 or not (1 <= v.size <= MAX_DIM):
            raise ValidationError(f"PureState: expected a vector of length 1..{MAX_DIM}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValidationError(f"PureState: norm {nrm} deviates from 1 beyond {NORM_TOL:.0e}")
        object.__setattr__(self, "amplitudes", _frozen(v, source))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)


class QuantumChannel(_Frozen):
    """A CPTP map given by Kraus operators with sum_k K_k^dag K_k = I.

    The operators are held as one read-only (K, d, d) stack, copied from the
    caller's and gated once; ``kraus`` is the tuple of its rows.
    """

    __slots__ = ("kraus", "_stack")

    def __init__(self, kraus) -> None:
        kraus = _listed(kraus, "QuantumChannel kraus", "a sequence of Kraus operators")
        kraus = [_as_array(k, "QuantumChannel kraus") for k in kraus]
        if not kraus:
            raise ValidationError("QuantumChannel: at least one Kraus operator required")
        shapes = {k.shape for k in kraus}
        if len(shapes) > 1:
            raise ValidationError("QuantumChannel: Kraus operators must share one dimension")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != shape[1]:  # named per operator, not as a stack
            raise ValidationError(f"QuantumChannel kraus: expected a square matrix, got shape {shape}")
        ops = _as_square(np.stack(kraus), "QuantumChannel kraus", stack=True)
        _check_kraus(ops)
        ops.setflags(write=False)  # np.stack always makes a new array
        object.__setattr__(self, "_stack", ops)
        object.__setattr__(self, "kraus", tuple(ops))

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]


def _check_kraus(ops: np.ndarray) -> None:
    """sum_k K_k^dag K_k = I within ``KRAUS_TOL`` for the Kraus operators
    (..., K, d, d) of one channel or of a stack of them; the first channel
    that fails raises."""
    eye = np.eye(ops.shape[-1])
    defect = np.abs(np.einsum("...kji,...kjl->...il", ops.conj(), ops) - eye).max(axis=(-2, -1))
    for x in defect[~(defect <= KRAUS_TOL)][:1]:  # a nan defect fails too
        raise ValidationError(f"QuantumChannel: completeness defect {x:.3e} exceeds {KRAUS_TOL:.0e}")


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver

@functools.lru_cache(maxsize=None)
def _cyclic_pairs(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The pairs (p, q), p < q, in cyclic row order, each with the other indices."""
    return tuple((p, q, tuple(i for i in range(n) if i != p and i != q))
                 for p in range(n - 1) for q in range(p + 1, n))


def _jacobi(a: np.ndarray):
    """Diagonalize one Hermitian matrix by cyclic Jacobi sweeps.

    Complex plane rotations annihilate one off-diagonal pair at a time;
    sweeps repeat until the off-diagonal Frobenius norm drops below
    ``JACOBI_TOL`` times the Frobenius norm of the input.  Raises
    ``NumericError`` after ``JACOBI_MAX_SWEEPS`` sweeps without convergence.
    A squared Frobenius norm below the normal floats (2^-1022) or beyond
    them is met by solving 2^-e A (``_exponent``), an exact scaling.

    The path depends on the dimension alone.  From 1 to ``SCALAR_MAX_DIM``
    the inner loops work on plain Python complex scalars, which beats numpy
    calls per rotation for the many tiny solves of the fuzz suites.  A
    rotation of the pair (p, q) rotates the column entries outside the pair
    and writes the row entries as their exact conjugates, so it works one
    triangle and A stays exactly Hermitian; the diagonal is a real list,
    whose pair moves in closed form to a_pp + t r and a_qq - t r (r =
    |a_pq|), and a_pq becomes 0 (Golub & Van Loan, Matrix Computations,
    8.5).  Larger matrices go through ``_jacobi_stack`` as a stack of one.
    """
    n = a.shape[0]
    if n > SCALAR_MAX_DIM:
        w, v = _jacobi_stack(a[None], want_vectors=True)
        return w[0], v[0]

    A = a.tolist()  # complex128 entries come out as Python complex
    norm2 = 0.0
    for row in A:
        for x in row:
            norm2 += x.real * x.real + x.imag * x.imag
    e = int(_exponent(a)) if not 2.0**-1022 <= norm2 < math.inf else 0
    if e:  # a zero matrix has e = 0 and needs no sweep
        w, v = _jacobi(_ldexp(a, -e))
        return _unscaled(w, e, n), v
    norm_f = math.sqrt(norm2)
    stop2 = (JACOBI_TOL * norm_f) ** 2
    # rotations on pairs below this threshold cannot push the off-diagonal
    # norm above the stopping level, so they are skipped
    skip = JACOBI_TOL * norm_f / (2.0 * n)

    dg = [A[i][i].real for i in range(n)]
    V = [[1.0 + 0.0j if i == j else 0.0 + 0.0j for j in range(n)] for i in range(n)]

    for _ in range(JACOBI_MAX_SWEEPS):
        # summed directly over off-diagonal entries; subtracting the diagonal
        # from the full Frobenius norm would cancel catastrophically near
        # convergence
        off2 = 0.0
        for i in range(n - 1):
            row = A[i]
            for j in range(i + 1, n):
                x = row[j]
                off2 += 2.0 * (x.real * x.real + x.imag * x.imag)
        if off2 <= stop2:
            break
        for p, q, others in _cyclic_pairs(n):
            rp = A[p]
            rq = A[q]
            apq = rp[q]
            r = abs(apq)
            if r <= skip:
                continue
            phase = apq / r
            # tangent t, cosine c and sine t c of the Jacobi angle
            tau = (dg[p] - dg[q]) / (2.0 * r)
            if abs(tau) > 1e12:
                t = 1.0 / (2.0 * tau)
            else:
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            sf = t * c * phase          # s e^{+i phi}
            sc = sf.conjugate()         # s e^{-i phi}

            for i in others:
                row = A[i]
                aip = row[p]
                aiq = row[q]
                x = c * aip + sc * aiq
                y = c * aiq - sf * aip
                row[p] = x
                row[q] = y
                rp[i] = x.conjugate()
                rq[i] = y.conjugate()
            dg[p] += t * r
            dg[q] -= t * r
            rp[q] = 0j
            rq[p] = 0j
            for row in V:
                vip = row[p]
                viq = row[q]
                row[p] = c * vip + sc * viq
                row[q] = c * viq - sf * vip
    else:
        raise NumericError(
            f"Jacobi eigensolver did not converge within {JACOBI_MAX_SWEEPS} sweeps (dim {n})"
        )

    order = sorted(range(n), key=dg.__getitem__)  # stable, as the stack solver's sort
    return np.array([dg[i] for i in order]), np.array([[row[i] for i in order] for row in V])


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Rounds of disjoint pairs (p < q) that together visit every pair once:
    the circle method, with a dummy index for odd n whose pairs are dropped."""
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted(pr) for pr in zip(ring[: m // 2], ring[::-1]) if max(pr) < n]
        pq = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        pq.setflags(write=False)  # the cache hands the same arrays to every call
        rounds.append((pq[0], pq[1]))
        ring.insert(1, ring.pop())
    return tuple(rounds)


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis by explicit adds in index order."""
    acc = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        acc += x[..., j]
    return acc


def _jacobi_stack(a: np.ndarray, want_vectors: bool):
    """Diagonalize a (B, n, n) Hermitian stack by parallel-ordering cyclic
    Jacobi (Brent & Luk 1985; Golub & Van Loan, Matrix Computations, 8.5).

    Each sweep runs the rounds of ``_round_robin(n)``; a round rotates its
    disjoint pairs in every matrix at once with elementwise numpy operations.
    Scaling, rotation, stopping rule, skip rule and sort are those of ``_jacobi``.
    Convergence is tested per matrix at the start of each sweep and only the
    matrices still active are rotated, so a matrix gets the same bits in any
    stack.  The stack is worked in blocks of ``STACK_BLOCK`` matrices.
    Returns eigenvalues (B, n) and eigenvector columns (B, n, n) or None.
    """
    b, n = a.shape[0], a.shape[1]
    diag = np.arange(n)
    w = np.empty((b, n))
    e = np.zeros(b, dtype=np.int16)  # |e| <= 1074
    v = np.empty((b, n, n), dtype=np.complex128) if want_vectors else None
    for start in range(0, b, STACK_BLOCK):
        A = np.array(a[start : start + STACK_BLOCK], dtype=np.complex128)
        idx = np.arange(start, start + A.shape[0])
        V = np.broadcast_to(np.eye(n, dtype=np.complex128), A.shape).copy() if want_vectors else None
        with np.errstate(over="ignore"):  # an overflow is scaled away below
            norm2 = _sum_last(_sum_last(A.real**2 + A.imag**2))
        scaled = (norm2 < 2.0**-1022) | (norm2 == math.inf)
        if scaled.any():  # e = 0, a factor of exactly 1, elsewhere
            e[idx[scaled]] = _exponent(A[scaled])
            A = _ldexp(A, -e[idx, None, None])
            norm2 = _sum_last(_sum_last(A.real**2 + A.imag**2))
        norm_f = np.sqrt(norm2)
        stop2 = (JACOBI_TOL * norm_f) ** 2
        skip = JACOBI_TOL * norm_f / (2.0 * n)
        for _ in range(JACOBI_MAX_SWEEPS):
            sq = A.real**2 + A.imag**2
            sq[:, diag, diag] = 0.0
            done = _sum_last(_sum_last(sq)) <= stop2
            w[idx[done]] = A[done][:, diag, diag].real
            if want_vectors:
                v[idx[done]] = V[done]
                V = V[~done]
            idx, A, stop2, skip = idx[~done], A[~done], stop2[~done], skip[~done]
            if not idx.size:
                break
            for p, q in _round_robin(n):
                apq = A[:, p, q]
                r = np.abs(apq)
                rot = r > skip[:, None]
                r = np.where(rot, r, 1.0)
                tau = (A[:, p, p].real - A[:, q, q].real) / (2.0 * r)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                np.divide(0.5, tau, out=t, where=np.abs(tau) > 1e12)
                c = np.where(rot, 1.0 / np.sqrt(1.0 + t * t), 1.0)
                sf = np.where(rot, t * c * (apq / r), 0.0)  # s e^{+i phi}; 0 where skipped
                cc, sc, sf = c[:, None, :], sf.conj()[:, None, :], sf[:, None, :]
                for X in (A, V) if want_vectors else (A,):
                    xp, xq = X[:, :, p], X[:, :, q]
                    X[:, :, p] = cc * xp + sc * xq
                    X[:, :, q] = cc * xq - sf * xp
                cr, sc, sf = c[:, :, None], sc.swapaxes(1, 2), sf.swapaxes(1, 2)
                ap, aq = A[:, p, :], A[:, q, :]
                A[:, p, :] = cr * ap + sf * aq
                A[:, q, :] = cr * aq - sc * ap
                A[:, p, q] = np.where(rot, 0.0, A[:, p, q])
                A[:, q, p] = np.where(rot, 0.0, A[:, q, p])
                A[:, p, p] = A[:, p, p].real
                A[:, q, q] = A[:, q, q].real
        else:
            raise NumericError(
                f"Jacobi eigensolver did not converge within {JACOBI_MAX_SWEEPS} sweeps (dim {n})"
            )
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if e.any():  # no copy of a trajectory's w when nothing was scaled
        w = _unscaled(w, e[:, None], n)
    return w, (np.take_along_axis(v, order[:, None, :], axis=2) if want_vectors else None)


def _exponent(a: np.ndarray):
    """Per matrix of a (..., n, n) stack, the e of frexp(max |Re a|, |Im a|):
    2^-e A has its largest part in [1/2, 1), and e = 0 for a zero matrix."""
    return np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1)))[1]


def _ldexp(a: np.ndarray, e) -> np.ndarray:
    """Complex a times 2^e (e broadcasts), exact where the result stays normal."""
    return np.ldexp(np.ascontiguousarray(a, np.complex128).view(np.float64), e).view(np.complex128)


def _unscaled(w: np.ndarray, e, n: int) -> np.ndarray:
    """The eigenvalues w 2^e of A from those w of 2^-e A."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf is the error below
        w = np.ldexp(w, e)
    if np.isinf(w).any():
        raise NumericError(f"Jacobi eigensolver: an eigenvalue overflows (dim {n}); scale the matrix down")
    return w


def _min_eigvals(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (T, d, d) Hermitian stack.

    One batched ``numpy.linalg.eigvalsh`` call, eigenvalues only.  Its last
    bits depend on the LAPACK build, so it serves threshold monitors only;
    reported numbers come from ``_jacobi``.
    """
    return np.linalg.eigvalsh(stack)[:, 0]


def hermitian_eig(operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector columns of a Hermitian matrix.

    Accepts a ``HermitianOperator``, ``DensityMatrix`` or bare array.
    """
    return tuple(a.copy() for a in _spectrum(_gated(operator, "hermitian_eig")))


def hermitian_eigvals(operator) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix; a container keeps its
    spectrum, a bare array is held in one for this call."""
    return _spectrum(_gated(operator, "hermitian_eigvals"))[0].copy()


# ---------------------------------------------------------------------------
# composition and reduction

def tensor(*factors) -> np.ndarray:
    """Kronecker product of matrices (or vectors), left to right."""
    if len(factors) == 1 and not isinstance(factors[0], np.ndarray) and hasattr(factors[0], "__iter__"):
        factors = tuple(factors[0])
    if not factors:
        raise ValidationError("tensor: at least one factor required")
    out = _as_array(factors[0], "tensor")
    for f in factors[1:]:
        out = np.kron(out, _as_array(f, "tensor"))
    return out


def partial_trace(rho, dims, keep) -> DensityMatrix:
    """Reduced state over the subsystems listed in ``keep`` (ascending indices).

    ``dims`` gives the local dimension of every tensor factor of ``rho``.  A
    bare array is checked as a state (hermiticity, trace and positivity); a
    ``DensityMatrix`` already is one.  Either way the reduced state is one.
    """
    rho = _gated(rho, "partial_trace", state=True)
    return DensityMatrix(partial_trace_stack(rho.matrix[None], dims, keep)[0], check_psd=False)


def partial_trace_stack(states: np.ndarray, dims, keep) -> np.ndarray:
    """Vectorized partial trace over a (T, d, d) stack of states; only its
    shape is checked, not its entries."""
    states = _as_array(states, "partial_trace")
    if states.ndim != 3 or states.shape[1] != states.shape[2]:
        raise ValidationError(f"partial_trace: expected a (T, d, d) stack, got shape {states.shape}")
    d = states.shape[-1]
    dims = _listed(dims, "partial_trace: dims", "positive integers")
    if not all(_integral(x) and x >= 1 for x in dims):
        raise _reject("partial_trace: dims", dims, "positive integers")
    dims = [int(x) for x in dims]
    n = len(dims)
    if math.prod(dims) != d:
        raise ValidationError(f"partial_trace: dims {dims} do not factor dimension {d}")
    want = f"distinct ascending indices in 0..{n - 1}"
    keep = _listed(keep, "partial_trace: keep", want)
    ascending = keep and all(map(_integral, keep)) and keep == sorted(set(keep))
    if not (ascending and 0 <= keep[0] and keep[-1] < n):
        raise ValidationError(f"partial_trace: keep {keep} must be {want}")
    keep = [int(k) for k in keep]
    t = states.shape[0]
    reshaped = states.reshape([t] + dims + dims)
    row = list(range(1, n + 1))
    col = [i if i - 1 not in keep else n + i for i in range(1, n + 1)]
    out = [0] + [k + 1 for k in keep] + [n + k + 1 for k in keep]
    red = np.einsum(reshaped, [0] + row + col, out)
    dk = math.prod(dims[k] for k in keep)
    return red.reshape(t, dk, dk)


def _listed(x, name: str, want: str) -> list:
    """A sequence argument as a list; anything else is ``_reject``-ed."""
    try:
        return list(x)
    except TypeError:
        raise _reject(name, x, want) from None


def apply_channel(channel: QuantumChannel, rho) -> DensityMatrix:
    """Apply a Kraus channel, sum_k K rho K^dag, to a Hermitian ``rho`` gated
    as "apply_channel rho"; the output is checked as a state."""
    return DensityMatrix(_kraus_sum(channel, _gated(rho, "apply_channel rho")))


def _kraus_sum(channel: QuantumChannel, rho) -> np.ndarray:
    """sum_k K rho K^dag through ``_mirror``; not checked as a state."""
    a = _as_square(rho, "apply_channel")
    if a.shape[0] != channel.dim:
        raise ValidationError(
            f"apply_channel: state dim {a.shape[0]} does not match channel dim {channel.dim}"
        )
    return _kraus_apply(channel._stack, a)


def _kraus_apply(k: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k K rho K^dag through ``_mirror`` for Kraus operators (..., K, d, d)
    and matrices (..., d, d) whose leading axes broadcast; a stack's products
    are those of each channel alone, so each row has its bits."""
    return _mirror((k @ a[..., None, :, :] @ k.conj().swapaxes(-1, -2)).sum(axis=-3))


def matrix_log_hermitian(operator, floor: float = LOG_FLOOR) -> np.ndarray:
    """Matrix logarithm of a Hermitian operator via its spectrum.

    Eigenvalues below ``floor`` are clamped to ``floor`` before taking the
    log.  The default floor only guards against log(0); callers that need a
    support check must inspect the spectrum themselves.
    """
    f = _scalar(floor, "matrix_log_hermitian: floor", _POSITIVE)
    w, v = _spectrum(_gated(operator, "matrix_log_hermitian operator"))
    return _synthesize(v, np.log(np.maximum(w, f)))


def _mirror(m: np.ndarray) -> np.ndarray:
    """A fresh (..., d, d) array made exactly Hermitian in place: the upper
    triangle and real diagonal kept, the lower triangle their conjugate.
    Row i is written from column i, so no temporary of a stack is made."""
    d = m.shape[-1]
    for i in range(1, d):
        np.conjugate(m[..., :i, i], out=m[..., i, :i])
    m.imag[..., range(d), range(d)] = 0.0
    return m


def _synthesize(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V diag(x) V^H for real x: one einsum, no BLAS call, through ``_mirror``."""
    return _mirror(np.einsum("...ik,...k,...jk->...ij", v, x, v.conj()))


# ---------------------------------------------------------------------------
# JSON wire format

def matrix_to_json(m) -> dict:
    """Encode a matrix as {"dim": n, "re": [...], "im": [...]}, row-major."""
    a = _as_square(m, "matrix_to_json")
    return {
        "dim": int(a.shape[0]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix wire format; strict about keys and lengths."""
    if not isinstance(obj, dict):
        raise ValidationError(f"matrix JSON: expected an object, got {type(obj).__name__}")
    extra = set(obj) - {"dim", "re", "im"}
    if extra:
        raise ValidationError(f"matrix JSON: unknown keys {sorted(extra)}")
    try:
        dim, re, im = obj["dim"], obj["re"], obj["im"]
    except KeyError as exc:
        raise ValidationError(f"matrix JSON: malformed fields ({exc})") from exc
    dim = _scalar(dim, "matrix JSON: dim", _DIM)
    # finite reals, and a shape fixed by the reshape: nothing is left to gate
    return (_json_reals(re, dim) + 1j * _json_reals(im, dim)).reshape(dim, dim)


def _json_reals(entries, dim: int) -> np.ndarray:
    """One entry list of the wire format as float64: dim^2 real numbers.
    ``_real`` decides on an entry by its type alone, so it is asked once per
    distinct type, not once per entry."""
    try:
        kinds = {type(x): x for x in entries}
        ok = len(entries) == dim * dim
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"matrix JSON: re/im must each hold dim^2 = {dim * dim} entries")
    for x in kinds.values():
        if _real(x) is None:
            raise _reject("matrix JSON: entries", x, "real numbers")
    try:
        x = np.array(entries, dtype=np.float64)
        if np.isfinite(x).all():
            return x
    except OverflowError:  # an int beyond the float range
        pass
    raise ValidationError("matrix JSON: entries must be finite")
