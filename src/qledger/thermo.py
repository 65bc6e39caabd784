"""Equilibrium references, work and heat bookkeeping for finite systems.

Two closures of the first law are tracked side by side for a process
(rho_0, H_0) -> (rho_tau, H_tau) at inverse temperature beta:

  * an ergotropy split,  dE = dW_e + W_ad + Q_op,  whose adiabatic work and
    operational heat are built from passive states (eigenvalues of the state
    sorted descending against energies sorted ascending), and
  * a free-energy split,  dE = dW_f + W_ad + (dS(rho) - dS(gibbs)) / beta,
    whose adiabatic work connects the initial and final Gibbs states.

Both residuals are carried in the ledger and close to rounding error by
construction.  Entropies are in nats; hbar = k_B = 1 throughout.

The log of a Gibbs state is always evaluated in closed form,
ln(gibbs) = -beta H - ln(Z) I, never through a numerical matrix log.

One kernel per quantity, over leading axes, serves the public functions,
the ledger, a trajectory in ``measures`` and the audit in ``cli``:
``_entropy``, ``_gibbs`` with ``_log_z``, ``_energy``, ``_dot`` for every p . w,
``_free`` for F = E - S/beta (the Gibbs one is F(p . w, S(p))), ``_coherence``
for S(pops) - S(rho), and ``_relent`` for S(rho || sigma), against a spectrum
under its support rule or against a Gibbs ln p in closed form.

Each public function checks its operands (``_as_operands``) and beta
(``_as_beta``) at entry, so errors name the function and the argument.
After that every operand is a container: a bare array is gated once and
held in one for the call, and a public function called from another gets
the containers, not the arrays.  Spectra come from ``qcore._spectrum``, so
a container is solved once for every function it is passed to; a Gibbs
state holds its known (p, V_H).  Every stored spectrum ascends, so a passive
ordering is the spectrum reversed.  The ledger and ``relative_entropy`` take
theirs from one ``qcore._spectra`` call, which solves their large cold
operands as one stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .qcore import (
    DensityMatrix,
    HermitianOperator,
    NumericError,
    _as_beta,
    _as_operands,
    _seed,
    _spectra,
    _spectrum,
    _synthesize,
)

# support cutoffs for relative entropy: sigma eigenvalues below
# SIGMA_SUPPORT_TOL are treated as outside the support; rho weight above
# RHO_WEIGHT_TOL on that null space makes the divergence infinite
SIGMA_SUPPORT_TOL = 1e-14
RHO_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class GibbsSpec:
    """A thermal state exp(-beta H)/Z together with its construction data.

    ``Z`` is inf once ln Z exceeds the float range (ln Z > ~709.78);
    ``log_Z`` stays exact."""

    hamiltonian: HermitianOperator
    beta: float
    Z: float
    log_Z: float
    state: DensityMatrix

    def __post_init__(self):
        _as_beta(self.beta, "GibbsSpec")


@dataclass(frozen=True)
class ThermoLedger:
    """First-law bookkeeping for one process; field names are the wire names.

    ``adiabaticWork`` is the passive-ordering variant that pairs with
    ``operationalHeat`` in the ergotropy closure.  The Gibbs-referenced
    adiabatic work of the free-energy closure is recoverable as
    ``deltaE - heat``.
    """

    deltaE: float
    deltaWe: float
    deltaWf: float
    adiabaticWork: float
    operationalHeat: float
    heat: float
    deltaS_rho: float
    deltaS_gibbs: float
    deltaS_ir: float
    deltaS_r: float
    residual_eq2: float
    residual_eq7: float

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def _energy(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr[rho H] over the leading axes, which broadcast."""
    return np.einsum("...ij,...ji->...", rho, h).real


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis of clipped probabilities; 0 ln 0 = 0."""
    q = np.maximum(p, 0.0)  # the bits of np.clip(p, 0.0, None), at less call overhead
    return -(q * np.log(np.where(q > 0.0, q, 1.0))).sum(axis=-1)


def _gibbs(w: np.ndarray, beta: float):
    """Populations and ln p of exp(-beta w)/Z over the last axis, for
    ascending w; shifted by the ground energy, so no large terms cancel and
    ln p stays finite where a population underflows to 0."""
    x = -beta * (w - w[..., :1])
    shifted = np.exp(x)
    zs = shifted.sum(axis=-1, keepdims=True)
    return shifted / zs, x - np.log(zs)


def _log_z(w: np.ndarray, log_p: np.ndarray, beta: float):
    """ln Z = -beta w_0 - ln p_0; beta w_0 may overflow where the span does not."""
    return -log_p[..., 0] - beta * w[..., 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, leading axes broadcasting; one product per
    row, so a row of a stack, a 1-D pair and a reversed view all give the
    bits of ``float(x @ y)``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _free(e, s, beta):
    """F = E - S/beta; the Gibbs free energy is ``_free(_dot(p, w), _entropy(p), beta)``."""
    return e - s / beta


def _coherence(pops, s_rho):
    """S(pops) - S(rho) from the populations in the energy basis and S(rho)."""
    return _entropy(pops) - s_rho


def _relent(s_rho, wr, vr, vs, ws=None, log_ps=None):
    """S(rho || sigma) over leading axes from rho's entropy ``s_rho``, spectrum
    and eigenvectors and sigma's eigenvectors ``vs``, with sigma's ascending
    spectrum ``ws``: +inf where rho weight above ``RHO_WEIGHT_TOL`` meets a
    sigma eigenvalue below ``SIGMA_SUPPORT_TOL``; or with a Gibbs state's
    ``log_ps`` in closed form, which has full support."""
    weights = _overlap_weights(wr, vr, vs)
    if log_ps is not None:
        return -s_rho - _dot(weights, log_ps)
    unsupported = ws < SIGMA_SUPPORT_TOL
    rel = -s_rho - _dot(weights, np.log(np.where(unsupported, 1.0, ws)))
    return np.where((unsupported & (weights > RHO_WEIGHT_TOL)).any(axis=-1), math.inf, rel)


def _overlap_weights(wr, vr, vsigma) -> np.ndarray:
    """rho's weight on each sigma eigenvector, sum_i p_i |<r_i|s_j>|^2 with
    rho's spectrum clipped at 0, over leading axes that broadcast."""
    overlap = np.abs(vr.conj().swapaxes(-1, -2) @ vsigma) ** 2
    return (np.clip(wr, 0.0, None)[..., None, :] @ overlap)[..., 0, :]


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho ln rho] in nats; 0 ln 0 contributes nothing."""
    (a,) = _as_operands("von_neumann_entropy", rho=rho)
    return float(_entropy(_spectrum(a)[0]))


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) in nats, or +inf when rho leaves the support of sigma.

    Divergence is declared when sigma has an eigenvalue below
    ``SIGMA_SUPPORT_TOL`` carrying rho-weight above ``RHO_WEIGHT_TOL``; the
    weight is never silently floored.

    A ``GibbsSpec`` sigma uses the eigenvectors of H and ln p in closed form, so
    it stays finite where a population underflows; its ``state`` gives inf there.
    """
    if isinstance(sigma, GibbsSpec):
        a, h = _as_operands("relative_entropy", rho=rho, sigma=sigma.hamiltonian)
        (wh, vh), (wr, vr) = _spectra(h, a)
        return float(_relent(_entropy(wr), wr, vr, vh, log_ps=_gibbs(wh, sigma.beta)[1]))
    a, b = _as_operands("relative_entropy", rho=rho, sigma=sigma)
    (wr, vr), (ws, vs) = _spectra(a, b)
    return float(_relent(_entropy(wr), wr, vr, vs, ws=ws))


def gibbs_state(hamiltonian, beta: float) -> GibbsSpec:
    """Thermal state of a Hamiltonian at inverse temperature beta > 0."""
    beta = _as_beta(beta, "gibbs_state")
    (h,) = _as_operands("gibbs_state", hamiltonian=hamiltonian)
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    w, v = _spectrum(op)
    p, log_p = _gibbs(w, beta)
    log_z = _log_z(w, log_p, beta)
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = math.inf
    # p falls as w rises, so the reversed pair is the ascending spectrum
    state = _seed(DensityMatrix(_synthesize(v, p), check_psd=False), p[::-1], v[:, ::-1])
    return GibbsSpec(hamiltonian=op, beta=beta, Z=z, log_Z=float(log_z), state=state)


def passive_state(rho, hamiltonian) -> DensityMatrix:
    """State with the spectrum of rho rearranged passively along H.

    Eigenvalues of rho in decreasing order sit on energy levels in
    increasing order, which minimizes the energy over unitary orbits.
    """
    a, h = _as_operands("passive_state", rho=rho, hamiltonian=hamiltonian)
    r = _spectrum(a)[0][::-1]
    w, v = _spectrum(h)
    return DensityMatrix(_synthesize(v, r), check_psd=False)


def ergotropy(rho, hamiltonian) -> float:
    """Unitarily extractable work Tr[rho H] - Tr[passive(rho) H]."""
    a, h = _as_operands("ergotropy", rho=rho, hamiltonian=hamiltonian)
    r = _spectrum(a)[0][::-1]
    return float(_energy(a.matrix, h.matrix)) - float(_dot(r, _spectrum(h)[0]))


def free_energy(rho, hamiltonian, beta: float) -> float:
    """F(rho) = Tr[H rho] - S(rho)/beta."""
    beta = _as_beta(beta, "free_energy")
    a, h = _as_operands("free_energy", rho=rho, hamiltonian=hamiltonian)
    return float(_free(_energy(a.matrix, h.matrix), _entropy(_spectrum(a)[0]), beta))


def extractable_work(rho, hamiltonian, beta: float) -> float:
    """F(rho) - F(gibbs), the work extractable with a bath at beta.

    Evaluated through free energies; equals relative_entropy(rho, gibbs)/beta
    up to rounding, which is the dual path used in tests.
    """
    beta = _as_beta(beta, "extractable_work")
    a, h = _as_operands("extractable_work", rho=rho, hamiltonian=hamiltonian)
    w = _spectrum(h)[0]
    p = _gibbs(w, beta)[0]
    f_rho = _free(_energy(a.matrix, h.matrix), _entropy(_spectrum(a)[0]), beta)
    return float(f_rho) - float(_free(_dot(p, w), _entropy(p), beta))


def delta_S_ir(rho0, h0, rho_tau, h_tau, beta: float) -> float:
    """Irreversible entropy change S(rho0||gibbs0) - S(rho_tau||gibbs_tau).

    The Gibbs states have full rank, so an infinite relative entropy can
    only mean that a thermal population underflowed to zero; that raises
    ``NumericError`` instead of returning inf or nan.
    """
    beta = _as_beta(beta, "delta_S_ir")
    a0, m0, at, mt = _as_operands("delta_S_ir", rho0=rho0, h0=h0, rho_tau=rho_tau, h_tau=h_tau)
    g0 = gibbs_state(m0, beta).state
    gt = gibbs_state(mt, beta).state
    ds_ir = relative_entropy(a0, g0) - relative_entropy(at, gt)
    if not math.isfinite(ds_ir):
        span = max(float(np.ptp(_spectrum(m)[0])) for m in (m0, mt))
        raise NumericError(
            f"delta_S_ir: a Gibbs population underflows to 0 at beta = {beta:g} over the spectral "
            f"span {span:.6g}; lower beta, or use first_law_ledger, which takes the Gibbs log in closed form"
        )
    return ds_ir


def delta_S_r(rho0, h0, rho_tau, h_tau, beta: float) -> float:
    """Reversible entropy change, Gibbs-log weighted deviation difference.

    Uses ln(gibbs) = -beta H - ln(Z) I, under which the ln Z parts cancel
    against the traceless deviations and the value reduces to energy terms.
    """
    beta = _as_beta(beta, "delta_S_r")
    a0, m0, at, mt = _as_operands("delta_S_r", rho0=rho0, h0=h0, rho_tau=rho_tau, h_tau=h_tau)
    dev0 = float(_energy(a0.matrix, m0.matrix)) - _gibbs_energy(m0, beta)
    devt = float(_energy(at.matrix, mt.matrix)) - _gibbs_energy(mt, beta)
    return -beta * (devt - dev0)


def _gibbs_energy(h, beta: float) -> float:
    w = _spectrum(h)[0]
    return float(_dot(_gibbs(w, beta)[0], w))


def heat(rho0, h0, rho_tau, h_tau, beta: float) -> float:
    """Heat exchanged, -delta_S_r/beta; equals dE minus Gibbs adiabatic work."""
    beta = _as_beta(beta, "heat")
    a0, m0, at, mt = _as_operands("heat", rho0=rho0, h0=h0, rho_tau=rho_tau, h_tau=h_tau)
    return -delta_S_r(a0, m0, at, mt, beta) / beta


def adiabatic_work_gibbs(h0, h_tau, beta: float) -> float:
    """Tr[gibbs_tau H_tau] - Tr[gibbs_0 H_0], the Gibbs-referenced quench work."""
    beta = _as_beta(beta, "adiabatic_work_gibbs")
    m0, mt = _as_operands("adiabatic_work_gibbs", h0=h0, h_tau=h_tau)
    return _gibbs_energy(mt, beta) - _gibbs_energy(m0, beta)


def adiabatic_work_passive(rho_tau, h0, h_tau) -> float:
    """Passive-ordering adiabatic work between the old and new energy ladder.

    The final-state spectrum, passively ordered, is priced on H_tau and on
    H_0; the difference is the work of the drive stripped of ergotropy flow.
    """
    at, m0, mt = _as_operands("adiabatic_work_passive", rho_tau=rho_tau, h0=h0, h_tau=h_tau)
    r = _spectrum(at)[0][::-1]
    return float(_dot(r, _spectrum(mt)[0])) - float(_dot(r, _spectrum(m0)[0]))


def operational_heat(rho0, rho_tau, h0) -> float:
    """Energy of the final spectrum minus the initial one, both passive on H_0."""
    a0, at, m0 = _as_operands("operational_heat", rho0=rho0, rho_tau=rho_tau, h0=h0)
    r0 = _spectrum(a0)[0][::-1]
    rt = _spectrum(at)[0][::-1]
    w0 = _spectrum(m0)[0]
    return float(_dot(rt, w0)) - float(_dot(r0, w0))


def first_law_ledger(rho0, h0, rho_tau, h_tau, beta: float) -> ThermoLedger:
    """Full two-closure ledger for one process at inverse temperature beta.

    Every eigendecomposition is computed once (``_spectra``) and shared.
    ``deltaS_ir`` follows the relative-entropy path (eigenbasis overlaps),
    ``deltaWf`` the free-energy path, so deltaWf = -deltaS_ir/beta is a
    genuine cross-check.  Raises ``NumericError`` when beta times a spectral
    span overflows or a field is not finite (beta too large or too small).
    """
    beta = _as_beta(beta, "first_law_ledger")
    a0, m0, at, mt = _as_operands("first_law_ledger", rho0=rho0, h0=h0, rho_tau=rho_tau, h_tau=h_tau)

    (wr0, vr0), (wrt, vrt), (wh0, vh0), (wht, vht) = _spectra(a0, at, m0, mt)
    # plain float checks, so an overflow raises here instead of warning in _gibbs
    span = max(float(wh0[-1]) - float(wh0[0]), float(wht[-1]) - float(wht[0]))
    remedy = "rescale beta or the Hamiltonians"
    if not math.isfinite(beta * span):
        raise NumericError(f"first_law_ledger: beta = {beta:g} times the spectral span {span:.6g} "
                           f"overflows; {remedy}")

    e0 = float(_energy(a0.matrix, m0.matrix))
    et = float(_energy(at.matrix, mt.matrix))
    delta_e = et - e0

    p0, log_p0 = _gibbs(wh0, beta)
    pt, log_pt = _gibbs(wht, beta)
    s_rho0 = float(_entropy(wr0))
    s_rhot = float(_entropy(wrt))
    s_g0 = float(_entropy(p0))
    s_gt = float(_entropy(pt))
    eg0 = float(_dot(p0, wh0))
    egt = float(_dot(pt, wht))

    # ergotropy split, passive pricing of the spectra (each reversed)
    passive0 = float(_dot(wr0[::-1], wh0))
    passive_t = float(_dot(wrt[::-1], wht))
    passive_t0 = float(_dot(wrt[::-1], wh0))
    delta_we = (et - passive_t) - (e0 - passive0)
    w_ad_passive = passive_t - passive_t0
    q_op = passive_t0 - passive0

    # free-energy split
    delta_wf = ((_free(et, s_rhot, beta) - _free(egt, s_gt, beta))
                - (_free(e0, s_rho0, beta) - _free(eg0, s_g0, beta)))
    w_ad_gibbs = egt - eg0
    ds_r = -beta * ((et - egt) - (e0 - eg0))

    # relative entropies through eigenbasis overlaps, against the Gibbs log
    # in closed form, which stays finite where a population underflows
    ds_ir = (float(_relent(s_rho0, wr0, vr0, vh0, log_ps=log_p0))
             - float(_relent(s_rhot, wrt, vrt, vht, log_ps=log_pt)))

    residual_eq2 = delta_e - (delta_we + w_ad_passive + q_op)
    residual_eq7 = delta_e - (delta_wf + w_ad_gibbs + (s_rhot - s_rho0 - (s_gt - s_g0)) / beta)

    values = (delta_e, delta_we, delta_wf, w_ad_passive, q_op, -ds_r / beta, s_rhot - s_rho0,
              s_gt - s_g0, ds_ir, ds_r, residual_eq2, residual_eq7)  # in field order
    bad = [name for name, x in zip(ThermoLedger.__dataclass_fields__, values) if not math.isfinite(x)]
    if bad:
        raise NumericError(f"first_law_ledger: {', '.join(bad)} not finite at beta = {beta:g}; {remedy}")
    return ThermoLedger(*values)
