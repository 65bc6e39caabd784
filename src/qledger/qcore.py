"""Dense complex linear algebra and quantum state primitives.

Spectra come from the eigensolvers of ``_eig``.  One kernel builds every
matrix from a spectrum or a factor: ``_synthesize(v, x)``, V diag(x) V^H as
one einsum (no BLAS) through ``_mirror``, which keeps the upper triangle
and a real diagonal and writes the lower triangle as their exact conjugate.

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
import math
import numbers

import numpy as np

from ._eig import SCALAR_MAX_DIM, _jacobi, _jacobi_stack

MAX_DIM = 64

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
KRAUS_TOL = 1e-10

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
    """The matrices of a (n, d, d) stack, or of a list, gated as one under
    ``name`` (or a tuple of one name per matrix); each held, read only, in a
    new ``HermitianOperator``."""
    a = _as_hermitian(m, name, stack=True)
    if a.ndim != 3:
        raise ValidationError(f"{name}: expected a stack of square matrices, got shape {a.shape}")
    a = _frozen(a, m)
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
        ops = _frozen(ops, kraus)
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
