"""Seeded random states, observables and channels for fuzz tests and audits.

Everything takes an explicit ``numpy.random.Generator``: determinism is a
package-level guarantee, so no function here ever touches global RNG
state.
"""

from __future__ import annotations

import numpy as np

from .qcore import (
    _DIM,
    _FINITE,
    _MAX_ARRAY_BYTES,
    _UNIT,
    DensityMatrix,
    HermitianOperator,
    PureState,
    QuantumChannel,
    _as_beta,
    _as_operands,
    _count,
    _scalar,
    _spectrum,
    _synthesize,
)
from .thermo import gibbs_state


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    """The Hermitian part of a Ginibre block, scaled (``_hermitian_part``)."""
    dim = _scalar(dim, "random_hermitian: dim", _DIM)
    _scalar(scale, "random_hermitian: scale", _FINITE)
    return HermitianOperator(_hermitian_part(_ginibre(rng, dim, dim), scale))


def _hermitian_part(g: np.ndarray, scale=1.0) -> np.ndarray:
    """0.5 scale (G + G^H) over leading axes: ``random_hermitian``'s matrix."""
    return 0.5 * scale * (g + g.conj().swapaxes(-1, -2))


def spectral_span_bound(op) -> float:
    """Gershgorin upper bound on the eigenvalue spread of a Hermitian matrix.

    Cheap and never an underestimate, so capping beta * span_bound keeps
    every thermal population above float support in randomized sweeps.
    """
    return float(_span_bounds(_as_operands("spectral_span_bound", op=op)[0].matrix))


def _span_bounds(m: np.ndarray) -> np.ndarray:
    """``spectral_span_bound`` over leading axes."""
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    radii = np.abs(m).sum(axis=-1) - np.abs(diag)
    return (diag.real + radii).max(axis=-1) - (diag.real - radii).min(axis=-1)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Normalized Gram matrix of a Gaussian block (``_gram_state``), full rank by default."""
    dim = _scalar(dim, "random_density: dim", _DIM)
    rank = dim if rank is None else _scalar(rank, "random_density: rank", _count(1, dim))
    # a Gram matrix is positive semidefinite by construction
    return DensityMatrix(_gram_state(_ginibre(rng, dim, rank)), check_psd=False)


def _gram_state(g: np.ndarray) -> np.ndarray:
    """G G^H over its trace (``np.trace``, with each matrix's bits), over leading axes."""
    m = _synthesize(g, np.ones(g.shape[-1]))
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    dim = _scalar(dim, "random_pure: dim", _DIM)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int = 3) -> QuantumChannel:
    """Random CPTP map: QR-orthonormalized Gaussian blocks as Kraus operators.

    The stacked (n_kraus*dim, dim) Gaussian matrix is reduced to an
    isometry W, and W's dim-sized blocks satisfy sum K^dag K = W^dag W = I
    exactly up to rounding.
    """
    dim = _scalar(dim, "random_channel: dim", _DIM)
    # the complex (n_kraus*dim, dim) Gaussian block must be within numpy's size limit
    n_kraus = _scalar(n_kraus, "random_channel: n_kraus", _count(1, _MAX_ARRAY_BYTES // (16 * dim * dim)))
    g = _ginibre(rng, n_kraus * dim, dim)
    w, _ = np.linalg.qr(g)
    return QuantumChannel(w.reshape(n_kraus, dim, dim))


def gibbs_preserving_channel(rng: np.random.Generator, hamiltonian, beta: float) -> QuantumChannel:
    """A random channel with the Gibbs state of (H, beta) as a fixed point.

    Convex mixture of three commuting building blocks: a unitary generated
    by H with random per-level phases, full replacement by the Gibbs state,
    and dephasing in the H eigenbasis.  Each fixes the Gibbs state, hence
    so does the mixture.  The random numbers (``_channel_draws``) do not
    depend on the spectrum of H, so a caller may draw them first and build
    the channel later (``_channel_from``), or the Kraus operators of many
    channels at once (``_gibbs_preserving_kraus``), as the audit does.
    """
    beta = _as_beta(beta, "gibbs_preserving_channel")
    (h,) = _as_operands("gibbs_preserving_channel", hamiltonian=hamiltonian)
    spec = gibbs_state(h, beta)
    return _channel_from(spec, _channel_draws(rng, h.dim))


def _channel_draws(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The random numbers of a Gibbs-preserving channel on ``dim`` levels, in
    draw order: the three mixture weights, then one phase angle per level."""
    weights = rng.dirichlet(np.ones(3))
    return weights, rng.uniform(0.0, 2.0 * np.pi, size=dim)


def _channel_from(spec, draws) -> QuantumChannel:
    """The Gibbs-preserving channel of the ``GibbsSpec`` ``spec`` for the
    random numbers ``draws`` of ``_channel_draws``."""
    weights, angles = draws
    pops = _spectrum(spec.state)[0][::-1]  # the state's spectrum by energy
    return QuantumChannel(_gibbs_preserving_kraus(_spectrum(spec.hamiltonian)[1], pops, weights, angles))


def _gibbs_preserving_kraus(v, pops, weights, angles) -> np.ndarray:
    """The (..., 1 + d^2 + d, d, d) Kraus operators of the Gibbs-preserving
    channel of H's eigenvectors ``v`` (..., d, d), the Gibbs populations
    ``pops`` (..., d) in the same order and the draws (..., 3) and (..., d) of
    ``_channel_draws``; leading axes broadcast, and a channel of a stack has
    the bits of the channel alone."""
    d = pops.shape[-1]
    vt = v.swapaxes(-1, -2)  # vt[..., k, :] is the k-th energy eigenvector

    # random phases per energy level: commutes with H
    phases = np.exp(1j * angles)
    unitary = np.sqrt(weights[..., :1, None]) * ((v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2))

    # full replacement: K_kj = sqrt(p_k) |e_k><e_j|, maps anything to Gibbs
    replace = np.sqrt(weights[..., 1:2] * pops)[..., :, None, None, None] * (
        vt[..., :, None, :, None] * vt.conj()[..., None, :, None, :]
    )

    # dephasing onto the energy eigenprojectors
    dephase = np.sqrt(weights[..., 2:, None, None]) * (vt[..., :, :, None] * vt.conj()[..., :, None, :])

    lead = pops.shape[:-1]
    return np.concatenate([unitary[..., None, :, :], replace.reshape(*lead, d * d, d, d), dephase], axis=-3)


def ground_damping_channel(dim: int, strength: float) -> QuantumChannel:
    """Decay of every excited basis level toward |0> with given strength.

    Not Gibbs-preserving for any finite temperature; used to exhibit
    negative irreversible-entropy differences in the audit.
    """
    dim = _scalar(dim, "ground_damping_channel: dim", _DIM)
    s = _scalar(strength, "ground_damping_channel: strength", _UNIT)
    levels = np.arange(1, dim)
    kraus = np.zeros((dim, dim, dim), dtype=np.complex128)
    kraus[0, 0, 0] = 1.0
    kraus[0, levels, levels] = np.sqrt(1.0 - s)  # keep
    kraus[levels, 0, levels] = np.sqrt(s)  # drop level k to |0>
    return QuantumChannel(kraus)
