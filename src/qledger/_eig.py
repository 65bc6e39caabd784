"""The eigensolvers: the one module that knows how a spectrum is computed.

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
positivity check, and they never reach a reported number.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import qcore

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# single matrices above this dimension go through the stack solver, which
# is faster from d = 17 on (measured at d = 16, 17, 20 and 24)
SCALAR_MAX_DIM = 16


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
        raise qcore.NumericError(
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
    stack.  The stack is worked in blocks of ``qcore.STACK_BLOCK`` matrices.
    Returns eigenvalues (B, n) and eigenvector columns (B, n, n) or None.
    """
    b, n = a.shape[0], a.shape[1]
    diag = np.arange(n)
    w = np.empty((b, n))
    e = np.zeros(b, dtype=np.int16)  # |e| <= 1074
    v = np.empty((b, n, n), dtype=np.complex128) if want_vectors else None
    for start in range(0, b, qcore.STACK_BLOCK):
        A = np.array(a[start : start + qcore.STACK_BLOCK], dtype=np.complex128)
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
            raise qcore.NumericError(
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
        raise qcore.NumericError(f"Jacobi eigensolver: an eigenvalue overflows (dim {n}); scale the matrix down")
    return w


def _min_eigvals(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (T, d, d) Hermitian stack.

    One batched ``numpy.linalg.eigvalsh`` call, eigenvalues only.  Its last
    bits depend on the LAPACK build, so it serves threshold monitors only;
    reported numbers come from ``_jacobi``.
    """
    return np.linalg.eigvalsh(stack)[:, 0]
