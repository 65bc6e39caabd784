"""First-law bookkeeping: entropies, work, heat, and the closed ledger."""

import itertools
import json
import math

import numpy as np
import pytest

from qledger import cli, sampling
from qledger.measures import coherence, dephase
from qledger.qcore import (
    DensityMatrix,
    HermitianOperator,
    NumericError,
    ValidationError,
    _spectrum,
    _stack_seed,
    apply_channel,
    hermitian_eig,
    hermitian_eigvals,
)
from qledger.sampling import gibbs_preserving_channel, random_density, random_hermitian, spectral_span_bound
from qledger.thermo import (
    GibbsSpec,
    ThermoLedger,
    _dot,
    adiabatic_work_gibbs,
    adiabatic_work_passive,
    delta_S_ir,
    delta_S_r,
    ergotropy,
    extractable_work,
    first_law_ledger,
    free_energy,
    gibbs_state,
    heat,
    operational_heat,
    passive_state,
    relative_entropy,
    von_neumann_entropy,
)

# thermal two-level fixture used throughout: H = diag(0, 1) at beta = 1.
# Z = 1 + e^-1, excited population p1 = 1/(1+e), so
#   S(pi)  = ln Z + <E>      = ln(1+e^-1) + 1/(1+e)
#   W_f(|1><1|) = F(|1><1|) - F(pi) = 1 + ln(1+e^-1)
#   Q(|1><1| -> pi) = <E>_pi - 1 = 1/(1+e) - 1
H2 = np.diag([0.0, 1.0])
S_THERMAL = math.log(1.0 + math.exp(-1.0)) + 1.0 / (1.0 + math.e)
WF_EXCITED = 1.0 + math.log(1.0 + math.exp(-1.0))
Q_THERMALIZE = 1.0 / (1.0 + math.e) - 1.0


def test_fixture_constants_are_the_frozen_digits():
    assert S_THERMAL == pytest.approx(0.5822031088882179, abs=1e-15)
    assert WF_EXCITED == pytest.approx(1.3132616875182228, abs=1e-15)
    assert Q_THERMALIZE == pytest.approx(-0.7310585786300049, abs=1e-15)


def test_entropy_known_values():
    assert von_neumann_entropy(DensityMatrix.from_pure(np.array([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-14)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(math.log(4), abs=1e-14)
    pi = gibbs_state(H2, 1.0).state
    assert von_neumann_entropy(pi) == pytest.approx(S_THERMAL, abs=1e-13)


def test_entropy_rejects_nonhermitian():
    with pytest.raises(ValidationError, match="hermiticity"):
        von_neumann_entropy([[0.5, 0.4], [0.0, 0.5]])


def test_entropy_basis_invariance():
    rng = np.random.default_rng(301)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        rho = random_density(rng, dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(g)
        rotated = u @ rho.matrix @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-11)


def test_relative_entropy_properties():
    rng = np.random.default_rng(302)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        rho = random_density(rng, dim)
        sigma = random_density(rng, dim)
        val = relative_entropy(rho, sigma)
        assert val >= -1e-12
    rho = random_density(rng, 3)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_commuting_closed_form():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.5, 0.25, 0.25])
    expected = float(np.sum(p * np.log(p / q)))
    got = relative_entropy(np.diag(p), np.diag(q))
    assert got == pytest.approx(expected, abs=1e-13)


def test_relative_entropy_divergent_support():
    ket0 = DensityMatrix.from_pure(np.array([1.0, 0.0]))
    ket1 = DensityMatrix.from_pure(np.array([0.0, 1.0]))
    assert relative_entropy(ket0, ket1) == math.inf
    # rank-deficient reference supporting the state is fine
    mixed = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    narrower = DensityMatrix(np.diag([0.3, 0.7, 0.0]))
    assert math.isfinite(relative_entropy(narrower, mixed))
    with pytest.raises(ValidationError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_gibbs_state_structure():
    rng = np.random.default_rng(303)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        beta = float(10.0 ** rng.uniform(-1.0, 0.5))
        spec = gibbs_state(h, beta)
        pi = spec.state.matrix
        assert abs(pi.trace() - 1.0) <= 1e-12
        assert np.abs(pi @ h.matrix - h.matrix @ pi).max() <= 1e-12
        # populations follow the Boltzmann ratio on the spectrum
        w = np.linalg.eigvalsh(h.matrix)
        pops = np.sort(np.linalg.eigvalsh(pi))[::-1]
        expected = np.exp(-beta * (w - w[0]))
        expected /= expected.sum()
        assert np.abs(pops - expected).max() <= 1e-12
        assert spec.log_Z == pytest.approx(math.log(np.exp(-beta * w).sum()), abs=1e-12)
    with pytest.raises(ValidationError):
        gibbs_state(H2, 0.0)
    with pytest.raises(ValidationError):
        gibbs_state(H2, -1.0)


def test_ergotropy_against_permutation_search():
    """Brute-force minimum over spectrum-to-level assignments."""
    rng = np.random.default_rng(304)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        erg = ergotropy(rho, h)
        p_eig = np.linalg.eigvalsh(rho.matrix)
        h_eig = np.linalg.eigvalsh(h.matrix)
        e_now = float(np.einsum("ij,ji->", rho.matrix, h.matrix).real)
        best = min(
            float(np.dot(p_eig[list(perm)], h_eig))
            for perm in itertools.permutations(range(dim))
        )
        assert abs(erg - (e_now - best)) <= 1e-10
        assert erg >= -1e-12


def test_every_stored_spectrum_ascends():
    """The passive ordering reverses a stored spectrum instead of sorting it,
    so each route that fills a spectrum slot must leave it ascending: the
    solver at both sizes, the stack seed, gibbs_state and dephase."""
    rng = np.random.default_rng(11)
    ops = [random_hermitian(rng, d) for d in (1, 2, 3, 4, 8, 16, 17, 32)]
    ops.append(HermitianOperator(np.diag([1.0, 0.0, 0.0, 1.0])))  # degenerate, unsorted diagonal
    cold = [HermitianOperator(np.array(h.matrix)) for h in ops]
    _stack_seed(cold, 1)
    slots = [_spectrum(h) for h in ops] + [h._eig for h in cold]
    for h in ops[:5]:
        slots += [_spectrum(gibbs_state(h, beta).state) for beta in (0.1, 1.0)]
        slots.append(_spectrum(dephase(random_density(rng, h.dim), h)))
    # the upper populations underflow to 0
    slots.append(_spectrum(gibbs_state(np.diag([0.0, 1000.0, 2000.0]), 1.0).state))
    for w, _ in slots:
        assert np.all(np.diff(w) >= 0.0), w


def test_gibbs_is_passive():
    rng = np.random.default_rng(305)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        beta = float(10.0 ** rng.uniform(-1.0, 0.5))
        assert ergotropy(gibbs_state(h, beta).state, h) <= 1e-10


def test_passive_state_properties():
    rng = np.random.default_rng(306)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        pas = passive_state(rho, h)
        # spectrum preserved
        assert np.abs(
            np.sort(np.linalg.eigvalsh(pas.matrix)) - np.sort(np.linalg.eigvalsh(rho.matrix))
        ).max() <= 1e-11
        # passive energy never exceeds the original
        e_rho = float(np.einsum("ij,ji->", rho.matrix, h.matrix).real)
        e_pas = float(np.einsum("ij,ji->", pas.matrix, h.matrix).real)
        assert e_pas <= e_rho + 1e-10
        # and a passive state has zero ergotropy
        assert ergotropy(pas, h) <= 1e-10


def test_extractable_work_dual_path():
    rng = np.random.default_rng(307)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        beta = min(beta, 10.0 / spectral_span_bound(h))
        spec = gibbs_state(h, beta)
        via_free_energy = extractable_work(rho, h, beta)
        via_relent = relative_entropy(rho, spec.state) / beta
        assert abs(via_free_energy - via_relent) <= 1e-10
        assert via_free_energy >= -1e-10
        # the Gibbs state itself has nothing left to give
        assert abs(extractable_work(spec.state, h, beta)) <= 1e-10


def test_free_energy_definition():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    beta = 2.0
    expected = 0.75 - von_neumann_entropy(rho) / beta
    assert free_energy(rho, H2, beta) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValidationError):
        free_energy(rho, H2, 0.0)


def test_thermalization_fixture_values():
    excited = DensityMatrix(np.diag([0.0, 1.0]))
    pi = gibbs_state(H2, 1.0).state
    led = first_law_ledger(excited, H2, pi, H2, 1.0)
    assert led.deltaWf == pytest.approx(-WF_EXCITED, abs=1e-12)
    assert led.heat == pytest.approx(Q_THERMALIZE, abs=1e-12)
    assert led.deltaE == pytest.approx(Q_THERMALIZE, abs=1e-12)  # fixed H, no adiabatic work
    assert abs(led.residual_eq2) <= 1e-12
    assert abs(led.residual_eq7) <= 1e-12


def test_identity_process_all_zero():
    rng = np.random.default_rng(308)
    rho = random_density(rng, 3)
    h = random_hermitian(rng, 3)
    led = first_law_ledger(rho, h, rho, h, 1.3)
    for field in ("deltaE", "deltaWe", "deltaWf", "adiabaticWork", "operationalHeat",
                  "heat", "deltaS_rho", "deltaS_gibbs", "deltaS_ir", "deltaS_r"):
        assert abs(getattr(led, field)) <= 1e-10, field


def _closure_draws():
    rng = np.random.default_rng(309)
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        h0 = random_hermitian(rng, dim)
        h1 = random_hermitian(rng, dim)
        r0 = random_density(rng, dim)
        r1 = random_density(rng, dim)
        yield r0, h0, r1, h1, beta


def _uncapped_closure_draws():
    """beta times the wider spectral span in [10, 1000] at d = 2 to 5: past
    the cap of the audit and criterion 1, where Gibbs populations underflow."""
    rng = np.random.default_rng(314)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        h0, h1 = random_hermitian(rng, dim), random_hermitian(rng, dim)
        r0, r1 = random_density(rng, dim), random_density(rng, dim)
        span = max(np.ptp(np.linalg.eigvalsh(h.matrix)) for h in (h0, h1))
        yield r0, h0, r1, h1, float(10.0 ** rng.uniform(1.0, 3.0)) / span


def test_ledger_fuzz_closures():
    for r0, h0, r1, h1, beta in itertools.chain(_closure_draws(), _uncapped_closure_draws()):
        led = first_law_ledger(r0, h0, r1, h1, beta)
        assert abs(led.residual_eq2) <= 1e-9
        assert abs(led.residual_eq7) <= 1e-9
        # entropy split of the two closures
        assert abs((led.deltaS_rho - led.deltaS_gibbs) - (led.deltaS_ir - led.deltaS_r)) <= 1e-10
        # heat against the quench-work route
        assert abs(led.heat - (led.deltaE - adiabatic_work_gibbs(h0, h1, beta))) <= 1e-9
        # free-energy work against the irreversibility route
        assert abs(led.deltaWf + led.deltaS_ir / beta) <= 1e-10


def test_ledger_wire_format():
    rng = np.random.default_rng(310)
    led = first_law_ledger(random_density(rng, 2), H2, random_density(rng, 2), H2, 0.7)
    d = led.as_dict()
    assert sorted(d) == sorted([
        "deltaE", "deltaWe", "deltaWf", "adiabaticWork", "operationalHeat", "heat",
        "deltaS_rho", "deltaS_gibbs", "deltaS_ir", "deltaS_r",
        "residual_eq2", "residual_eq7",
    ])
    back = json.loads(led.to_json())
    assert back == d
    assert isinstance(led, ThermoLedger)


def test_component_routes_agree_with_ledger():
    rng = np.random.default_rng(311)
    dim = 3
    beta = 0.8
    h0 = random_hermitian(rng, dim)
    h1 = random_hermitian(rng, dim)
    r0 = random_density(rng, dim)
    r1 = random_density(rng, dim)
    led = first_law_ledger(r0, h0, r1, h1, beta)
    assert led.deltaS_ir == pytest.approx(delta_S_ir(r0, h0, r1, h1, beta), abs=1e-10)
    assert led.deltaS_r == pytest.approx(delta_S_r(r0, h0, r1, h1, beta), abs=1e-10)
    assert led.heat == pytest.approx(heat(r0, h0, r1, h1, beta), abs=1e-12)
    assert led.adiabaticWork == pytest.approx(adiabatic_work_passive(r1, h0, h1), abs=1e-12)
    assert led.operationalHeat == pytest.approx(operational_heat(r0, r1, h0), abs=1e-12)
    assert led.deltaWf == pytest.approx(
        extractable_work(r1, h1, beta) - extractable_work(r0, h0, beta), abs=1e-10
    )


def test_operational_heat_vanishes_for_unitary_processes():
    rng = np.random.default_rng(312)
    rho = random_density(rng, 4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    rotated = u @ rho.matrix @ u.conj().T
    rotated = DensityMatrix(0.5 * (rotated + rotated.conj().T), check_psd=False)
    h = random_hermitian(rng, 4)
    assert abs(operational_heat(rho, rotated, h)) <= 1e-10


PROCESS_KEYS = ("rho0", "h0", "rho_tau", "h_tau")
GATE_ONCE = [
    (delta_S_ir, PROCESS_KEYS),
    (heat, PROCESS_KEYS),
    (extractable_work, ("rho", "hamiltonian")),
    (ergotropy, ("rho", "hamiltonian")),
]


@pytest.mark.parametrize("fn, keys", GATE_ONCE, ids=[fn.__name__ for fn, _ in GATE_ONCE])
def test_each_bare_operand_is_gated_once(gates, fn, keys):
    """Nested public calls get the containers, not the arrays again; the
    Gibbs states that delta_S_ir builds are new containers."""
    rng = np.random.default_rng(315)
    r0, r1 = (np.array(random_density(rng, 3).matrix) for _ in range(2))
    h0, h1 = (np.array(random_hermitian(rng, 3).matrix) for _ in range(2))
    ops = {"rho0": r0, "h0": h0, "rho_tau": r1, "h_tau": h1, "rho": r0, "hamiltonian": h0}
    gates.clear()
    fn(*(ops[k] for k in keys), *(() if fn is ergotropy else (0.7,)))
    assert [g for g in gates if g != "DensityMatrix"] == [f"{fn.__name__} {k}" for k in keys]
    assert gates.count("DensityMatrix") == (2 if fn is delta_S_ir else 0)


def test_a_repeated_bare_operand_is_one_operand(gates, solves):
    rng = np.random.default_rng(316)
    r0, r1 = (np.array(random_density(rng, 3).matrix) for _ in range(2))
    h = np.array(random_hermitian(rng, 3).matrix)
    gates.clear()
    ds_ir = delta_S_ir(r0, h, r1, h, 0.7)
    assert [g for g in gates if g != "DensityMatrix"] == ["delta_S_ir rho0", "delta_S_ir h0", "delta_S_ir rho_tau"]
    assert solves == [3] * 3
    assert ds_ir == delta_S_ir(r0, h, r1, np.array(h), 0.7)


def test_spectral_span_bound_takes_a_state():
    rho = random_density(np.random.default_rng(317), 3)
    assert spectral_span_bound(rho) == spectral_span_bound(np.array(rho.matrix))


@pytest.mark.parametrize("op, detail", [
    ([[0.0, 1.0], [5.0, 0.0]], "hermiticity defect"),
    (np.ones((2, 3)), "expected a square matrix"),
], ids=["non-hermitian", "non-square"])
def test_spectral_span_bound_rejects_what_the_gate_rejects(op, detail):
    with pytest.raises(ValidationError, match=f"^spectral_span_bound op: {detail}"):
        spectral_span_bound(op)


def test_validation_errors():
    rng = np.random.default_rng(313)
    rho = random_density(rng, 2)
    with pytest.raises(ValidationError):
        extractable_work(rho, H2, -2.0)
    with pytest.raises(ValidationError):
        delta_S_r(rho, H2, rho, H2, 0.0)
    with pytest.raises(ValidationError):
        first_law_ledger(rho, H2, random_density(rng, 3), np.eye(3), 1.0)


# a wide ladder at beta = 1: exp(-1000) underflows, so the excited Gibbs
# population is exactly 0 in floating point, while its log is -1000 - ln Z
H_WIDE = np.diag([0.0, 1000.0])
RHO_HALF = np.diag([0.5, 0.5])
RHO_MOSTLY_GROUND = np.diag([0.9, 0.1])


def test_ledger_identity_survives_gibbs_underflow():
    led = first_law_ledger(RHO_HALF, H_WIDE, RHO_MOSTLY_GROUND, H_WIDE, 1.0)
    # S(rho||pi) = -S(rho) + 1000 p_1 + ln Z with ln Z = ln(1 + e^-1000) = 0
    h01 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    expected = (500.0 - math.log(2.0)) - (100.0 - h01)
    assert led.deltaS_ir == pytest.approx(expected, rel=1e-13)
    assert abs(led.deltaWf + led.deltaS_ir) <= 1e-12


def test_delta_S_ir_names_gibbs_underflow():
    with pytest.raises(NumericError, match=r"beta = 1 over the spectral span 1000"):
        delta_S_ir(RHO_HALF, H_WIDE, RHO_MOSTLY_GROUND, H_WIDE, 1.0)


def test_gibbs_state_beyond_the_float_range_of_z():
    """ln Z = 1000 is beyond exp's float range: Z is inf, ln Z stays exact,
    and delta_S_ir still names the underflow."""
    h = np.diag([-1000.0, 0.0])
    spec = gibbs_state(h, 1.0)
    assert (spec.Z, spec.log_Z) == (math.inf, 1000.0)
    with pytest.raises(NumericError, match="^delta_S_ir: a Gibbs population underflows to 0"):
        delta_S_ir(RHO_HALF, h, RHO_MOSTLY_GROUND, h, 1.0)


def test_relative_entropy_to_a_gibbs_spec_survives_underflow():
    spec = gibbs_state(H_WIDE, 1.0)
    # S(rho||pi) = -S(rho) + 1000 p_1 + ln Z = 500 - ln 2, the dual path of W_f
    assert abs(relative_entropy(RHO_HALF, spec) - extractable_work(RHO_HALF, H_WIDE, 1.0)) <= 1e-12
    assert relative_entropy(RHO_HALF, spec) == pytest.approx(500.0 - math.log(2.0), rel=1e-15)
    # the state matrix holds the underflowed population as an exact 0
    assert relative_entropy(RHO_HALF, spec.state) == math.inf


def test_relative_entropy_to_a_gibbs_spec_matches_its_state():
    rng = np.random.default_rng(318)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        h = random_hermitian(rng, dim)
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        beta = min(float(10.0 ** rng.uniform(-1.0, 1.0)), 10.0 / max(spectral_span_bound(h), 1e-9))
        spec = gibbs_state(h, beta)
        assert abs(relative_entropy(rho, spec) - relative_entropy(rho, spec.state)) <= 1e-12
        assert abs(relative_entropy(rho, spec) / beta - extractable_work(rho, h, beta)) <= 1e-10
    with pytest.raises(ValidationError, match="^relative_entropy: operands must share one dimension"):
        relative_entropy(RHO3, gibbs_state(H2, 1.0))


# ---------------------------------------------------------------------------
# one spectrum per operand: a container's spectrum is solved once and shared,
# and sharing it changes no bits

def _value(out):
    """A result as plain comparable data: floats, and matrices as bytes."""
    if isinstance(out, GibbsSpec):
        return (out.Z, out.log_Z, _value(out.state), _value(out.hamiltonian))
    if isinstance(out, (DensityMatrix, HermitianOperator)):
        return _value((out.matrix,) + hermitian_eig(out))
    if isinstance(out, ThermoLedger):
        return tuple(out.as_dict().values())
    if isinstance(out, tuple):
        return tuple(_value(x) for x in out)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    assert type(out) is float
    return out


FUNCTIONS = {
    "von_neumann_entropy": lambda r0, h0, r1, h1, b: von_neumann_entropy(r0),
    "relative_entropy": lambda r0, h0, r1, h1, b: relative_entropy(r0, r1),
    "gibbs_state": lambda r0, h0, r1, h1, b: gibbs_state(h0, b),
    "passive_state": lambda r0, h0, r1, h1, b: passive_state(r0, h0),
    "ergotropy": lambda r0, h0, r1, h1, b: ergotropy(r0, h0),
    "free_energy": lambda r0, h0, r1, h1, b: free_energy(r0, h0, b),
    "extractable_work": lambda r0, h0, r1, h1, b: extractable_work(r0, h0, b),
    "delta_S_ir": lambda r0, h0, r1, h1, b: delta_S_ir(r0, h0, r1, h1, b),
    "delta_S_r": lambda r0, h0, r1, h1, b: delta_S_r(r0, h0, r1, h1, b),
    "heat": lambda r0, h0, r1, h1, b: heat(r0, h0, r1, h1, b),
    "adiabatic_work_gibbs": lambda r0, h0, r1, h1, b: adiabatic_work_gibbs(h0, h1, b),
    "adiabatic_work_passive": lambda r0, h0, r1, h1, b: adiabatic_work_passive(r1, h0, h1),
    "operational_heat": lambda r0, h0, r1, h1, b: operational_heat(r0, r1, h0),
    "first_law_ledger": lambda r0, h0, r1, h1, b: first_law_ledger(r0, h0, r1, h1, b),
    "dephase": lambda r0, h0, r1, h1, b: dephase(r0, h0),
    "coherence": lambda r0, h0, r1, h1, b: coherence(r1, h1),
    "hermitian_eig": lambda r0, h0, r1, h1, b: hermitian_eig(r0),
    "hermitian_eigvals": lambda r0, h0, r1, h1, b: hermitian_eigvals(h1),
}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 17])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_cold_warm_and_bare_operands_give_the_same_bits(name, dim):
    rng = np.random.default_rng([931, dim])
    h0, h1 = random_hermitian(rng, dim).matrix, random_hermitian(rng, dim).matrix
    r0, r1 = random_density(rng, dim).matrix, random_density(rng, dim).matrix
    beta = min(0.8, 10.0 / max(spectral_span_bound(h0), spectral_span_bound(h1), 1e-9))

    def cold():
        return (DensityMatrix(r0, check_psd=False), HermitianOperator(h0),
                DensityMatrix(r1, check_psd=False), HermitianOperator(h1))

    warm = cold()
    for x in warm:
        hermitian_eig(x)
    fn = FUNCTIONS[name]
    bare = _value(fn(r0, h0, r1, h1, beta))
    assert _value(fn(*cold(), beta)) == bare
    assert _value(fn(*warm, beta)) == bare


def _criterion_1_draws(count: int):
    rng = np.random.default_rng(20260823)
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        h0, h1 = random_hermitian(rng, dim), random_hermitian(rng, dim)
        r0, r1 = random_density(rng, dim), random_density(rng, dim)
        span = max(spectral_span_bound(h0), spectral_span_bound(h1))
        yield min(beta, 10.0 / span), h0, h1, r0, r1


def test_criterion_1_draw_body_solves_four_matrices(solves):
    draws = list(_criterion_1_draws(20))
    solves.clear()
    for draw, (beta, h0, h1, r0, r1) in enumerate(draws, start=1):
        # the body of the acceptance suite's criterion 1, operand for operand
        first_law_ledger(r0, h0, r1, h1, beta)
        gibbs_state(h0, beta), gibbs_state(h1, beta)
        coherence(r1, h1) - coherence(r0, h0)
        von_neumann_entropy(dephase(r1, h1)) - von_neumann_entropy(dephase(r0, h0))
        adiabatic_work_gibbs(h0, h1, beta)
        assert len(solves) <= 4 * draw


def _audit_blocks(channel_draws: list, count: int, size: int) -> list:
    """The audit's first ``count`` cases at seed 7 in blocks of ``size``, drawn
    from one generator: per block, its groups (``cli._audit_groups``) and its
    cases' channel draws in case order."""
    rng, blocks = np.random.default_rng(7), []
    for first in range(0, count, size):
        channel_draws.clear()
        blocks.append((cli._audit_groups(rng, min(size, count - first)), channel_draws[:]))
    return blocks


def _cases(groups) -> list:
    """Per case of a block's groups, in case order: (beta, H, rho0, kraus, rho_t)."""
    cases = {}
    for idx, beta, (h, _, _), _, kraus, ((rho0, _, _), (rho_t, _, _)) in groups:
        cases.update((i, row) for i, *row in zip(idx, beta, h, rho0, kraus, rho_t))
    return [cases[i] for i in range(len(cases))]


def test_audit_case_solves_three_matrices(solves, stack_solves, capsys, monkeypatch):
    """Per block and dimension, one stack over every H and rho0, then one over
    every channel output: 3 x 25 matrices, no scalar solve.  A stack gives a
    matrix the bits of a solve alone, so the block size moves no output."""
    dims = [h.shape[-1] for _, h, _, _, _ in _cases(cli._audit_groups(np.random.default_rng(7), 25))]
    outs = set()
    for block in (cli._AUDIT_BLOCK, 10, 1):
        monkeypatch.setattr(cli, "_AUDIT_BLOCK", block)
        expected = []
        for start in range(0, 25, block):
            counts = {}
            for d in dims[start : start + block]:
                counts[d] = counts.get(d, 0) + 1
            expected += [solve for d, k in counts.items() for solve in ((2 * k, d), (k, d))]
        stack_solves.clear()
        assert cli.main(["audit", "--count", "25", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS (25 cases, 0 violations)" in out
        assert solves == [] and stack_solves == expected
        assert sum(b for b, _ in stack_solves) == 3 * 25
        outs.add(out)
    assert len(outs) == 1


def test_audit_stacks_agree_with_the_public_functions(channel_draws):
    """Each row of the audit's stacked evaluation is what the public functions
    give its case, and has the same bits in blocks of 60 and of 7.  Given the
    spectra of the block's stack solves, the relative entropy, extractable
    work, coherence and dephased entropy have the wrappers' bits (the energy
    agrees within 1e-12); each stacked channel and its output are those of
    ``_channel_from`` and ``apply_channel``, bit for bit."""
    by_size = []
    for size in (60, 7):
        values, cases = [], []
        for groups, draws in _audit_blocks(channel_draws, 60, size):
            betas, rows = cli._audit_values(groups)
            block = _cases(groups)
            assert betas.tolist() == [case[0] for case in block]
            values.append(rows)
            cases += block
            for (beta, h, rho0, kraus, rho_t), chan in zip(block, draws):
                h = HermitianOperator(h)
                _stack_seed([h], 1)  # the bits of the block's stack solve
                channel = sampling._channel_from(gibbs_state(h, beta), chan)
                assert np.array_equal(kraus, channel._stack)
                assert np.array_equal(rho_t, apply_channel(channel, rho0).matrix)
        by_size.append((np.concatenate(values, axis=1), cases))
    assert by_size[0][0].tobytes() == by_size[1][0].tobytes()

    values, cases = by_size[0]
    assert {h.shape[-1] for _, h, _, _, _ in cases} == {2, 3, 4}
    for i, (beta, h, rho0, _, rho_t) in enumerate(cases):
        h, rho0 = HermitianOperator(h), DensityMatrix(rho0, check_psd=False)
        rho_t = DensityMatrix(rho_t, check_psd=False)
        _stack_seed([h, rho0, rho_t], 1)
        pi = gibbs_state(h, beta).state
        expected = []
        for rho in (rho0, rho_t):
            expected += [relative_entropy(rho, pi), extractable_work(rho, h, beta),
                         free_energy(rho, h, beta) + von_neumann_entropy(rho) / beta,
                         coherence(rho, h), von_neumann_entropy(dephase(rho, h))]
        got = values[:, i]
        assert np.abs(got - expected).max() < 1e-12, i
        exact = [0, 1, 3, 4, 5, 6, 8, 9]
        assert got[exact].tolist() == [expected[k] for k in exact], i


def test_dot_has_the_bits_of_the_one_dimensional_product():
    """``_dot``, the one energy product of the ledger, the public functions
    and the audit, gives ``float(x @ y)``'s bits for a pair, for a reversed
    (passive-order) view, and for each row of a stack."""
    rng = np.random.default_rng(2023)
    for d in range(1, 65):
        x = rng.dirichlet(np.ones(d), size=40)
        y = np.sort(rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-3, 3, (40, 1)), axis=-1)
        rows = _dot(x, y)
        for i in range(40):
            for xi in (x[i], x[i, ::-1]):
                assert float(_dot(xi, y[i])).hex() == float(xi @ y[i]).hex(), d
            assert float(rows[i]).hex() == float(x[i] @ y[i]).hex(), d


def test_channel_draws_then_build_give_the_public_channel():
    """``gibbs_preserving_channel`` is its draws followed by its build, to the
    bit, and leaves the generator where they do."""
    h = random_hermitian(np.random.default_rng(960), 4)
    rng, ref = np.random.default_rng(961), np.random.default_rng(961)
    chan = sampling._channel_from(gibbs_state(h, 0.7), sampling._channel_draws(rng, 4))
    assert np.array_equal(chan._stack, gibbs_preserving_channel(ref, h, 0.7)._stack)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("block", [128, 7, 1])
def test_audit_draws_are_the_one_case_at_a_time_draws(channel_draws, block):
    """The audit draws its cases ahead of their solves, in the order of a loop
    that draws (dim, beta, H, rho0) and builds the channel one case at a time,
    and builds each block's H and rho0 as stacks with the public samplers'
    bits, whatever the block size, its blocks drawn from one generator."""
    cases = [(case, chan) for groups, draws in _audit_blocks(channel_draws, 60, block)
             for case, chan in zip(_cases(groups), draws)]
    rng = np.random.default_rng(7)
    for (beta, h, rho0, _, _), draws in cases:
        dim = int(rng.integers(2, 5))
        b = float(10.0 ** rng.uniform(-1.0, 1.0))
        h_ref, rho0_ref = random_hermitian(rng, dim), random_density(rng, dim)
        b = min(b, 10.0 / spectral_span_bound(h_ref))
        chan = gibbs_preserving_channel(rng, h_ref, b)
        assert h.shape[-1] == dim and beta == b
        assert np.array_equal(h, h_ref.matrix) and np.array_equal(rho0, rho0_ref.matrix)
        channel = sampling._channel_from(gibbs_state(HermitianOperator(h), beta), draws)
        assert np.array_equal(channel._stack, chan._stack)


# ---------------------------------------------------------------------------
# unitary covariance: every quantity depends on the spectra and their
# overlaps only, so (rho, H) -> (U rho U^dag, U H U^dag) leaves it unchanged

def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _covariant_values(r0, h0, r1, h1, beta) -> dict:
    # the ledger first, so its cold operands above d = 16 take the stack path
    out = {f"ledger {k}": v for k, v in first_law_ledger(r0, h0, r1, h1, beta).as_dict().items()}
    out.update(
        von_neumann_entropy=von_neumann_entropy(r1),
        relative_entropy=relative_entropy(r0, r1),
        ergotropy=ergotropy(r0, h0),
        free_energy=free_energy(r1, h1, beta),
        extractable_work=extractable_work(r0, h1, beta),
    )
    return out


@pytest.mark.parametrize("dim, draws", [(2, 20), (3, 20), (4, 20), (5, 20), (17, 3)])
def test_unitary_covariance(dim, draws):
    rng = np.random.default_rng([950, dim])
    for _ in range(draws):
        h0, h1 = random_hermitian(rng, dim).matrix, random_hermitian(rng, dim).matrix
        r0, r1 = random_density(rng, dim).matrix, random_density(rng, dim).matrix
        beta = min(float(10.0 ** rng.uniform(-1.0, 1.0)),
                   10.0 / max(spectral_span_bound(h0), spectral_span_bound(h1)))
        u = _random_unitary(rng, dim)

        def rotated(m, cls):
            m = u @ m @ u.conj().T
            return cls(0.5 * (m + m.conj().T))

        ref = _covariant_values(DensityMatrix(r0, check_psd=False), HermitianOperator(h0),
                                DensityMatrix(r1, check_psd=False), HermitianOperator(h1), beta)
        got = _covariant_values(rotated(r0, DensityMatrix), rotated(h0, HermitianOperator),
                                rotated(r1, DensityMatrix), rotated(h1, HermitianOperator), beta)
        assert len(ref) == 17
        for name, x in ref.items():
            assert abs(got[name] - x) <= 1e-10 * max(1.0, abs(x)), (name, x, got[name])


# ---------------------------------------------------------------------------
# input gates: every operand and every beta is checked at entry, and the
# error names the function and the argument

RHO3 = np.eye(3) / 3
SKEW = np.array([[0.5, 0.4], [0.0, 0.5]])
BAD_BETAS = (math.inf, math.nan, True, "1")


MISMATCHED = [
    (free_energy, (RHO_HALF, np.eye(3), 1.0)),
    (extractable_work, (RHO_HALF, np.eye(3), 1.0)),
    (passive_state, (RHO_HALF, np.eye(3))),
    (delta_S_r, (RHO_HALF, np.eye(3), RHO_HALF, H2, 1.0)),
    (adiabatic_work_passive, (RHO_HALF, H2, np.eye(3))),
    (operational_heat, (RHO_HALF, RHO3, H2)),
]


@pytest.mark.parametrize("fn, args", MISMATCHED, ids=[fn.__name__ for fn, _ in MISMATCHED])
def test_dimension_mismatch_is_a_validation_error(fn, args):
    with pytest.raises(ValidationError, match=f"^{fn.__name__}: operands must share one dimension"):
        fn(*args)


def test_free_energy_rejects_nonhermitian_hamiltonian():
    with pytest.raises(ValidationError, match="^free_energy hamiltonian: hermiticity defect"):
        free_energy(RHO_HALF, [[0.0, 1.0], [0.0, 1.0]], 1.0)


NON_HERMITIAN_CALLS = {
    "von_neumann_entropy rho": lambda: von_neumann_entropy(SKEW),
    "relative_entropy sigma": lambda: relative_entropy(RHO_HALF, SKEW),
    "ergotropy rho": lambda: ergotropy(SKEW, H2),
    "gibbs_state hamiltonian": lambda: gibbs_state(SKEW, 1.0),
    "extractable_work hamiltonian": lambda: extractable_work(RHO_HALF, SKEW, 1.0),
    "delta_S_ir rho_tau": lambda: delta_S_ir(RHO_HALF, H2, SKEW, H2, 1.0),
    "first_law_ledger h_tau": lambda: first_law_ledger(RHO_HALF, H2, RHO_HALF, SKEW, 1.0),
}


@pytest.mark.parametrize("name", list(NON_HERMITIAN_CALLS))
def test_hermiticity_error_names_the_caller(name):
    with pytest.raises(ValidationError, match=f"^{name}: hermiticity defect 4.000e-01"):
        NON_HERMITIAN_CALLS[name]()


BETA_CALLS = {
    "gibbs_state": lambda b: gibbs_state(H2, b),
    "free_energy": lambda b: free_energy(RHO_HALF, H2, b),
    "extractable_work": lambda b: extractable_work(RHO_HALF, H2, b),
    "delta_S_ir": lambda b: delta_S_ir(RHO_HALF, H2, RHO_MOSTLY_GROUND, H2, b),
    "delta_S_r": lambda b: delta_S_r(RHO_HALF, H2, RHO_MOSTLY_GROUND, H2, b),
    "heat": lambda b: heat(RHO_HALF, H2, RHO_MOSTLY_GROUND, H2, b),
    "adiabatic_work_gibbs": lambda b: adiabatic_work_gibbs(H2, 2 * H2, b),
    "first_law_ledger": lambda b: first_law_ledger(RHO_HALF, H2, RHO_MOSTLY_GROUND, H2, b),
    "GibbsSpec": lambda b: GibbsSpec(hamiltonian=HermitianOperator(H2), beta=b, Z=2.0,
                                     log_Z=math.log(2.0), state=DensityMatrix(RHO_HALF)),
}


@pytest.mark.parametrize("name", sorted(BETA_CALLS))
def test_beta_must_be_a_positive_finite_real(name):
    for bad in BAD_BETAS:
        with pytest.raises(ValidationError, match=f"^{name}: beta must be"):
            BETA_CALLS[name](bad)


@pytest.mark.parametrize("beta", [np.float32(0.5), np.int64(2)], ids=["float32", "int64"])
def test_numpy_scalar_beta_accepted(beta):
    g = gibbs_state(H2, beta)
    assert type(g.beta) is float
    assert np.array_equal(g.state.matrix, gibbs_state(H2, float(beta)).state.matrix)
    led = first_law_ledger(RHO_HALF, H2, RHO_MOSTLY_GROUND, 2 * H2, beta)
    assert led == first_law_ledger(RHO_HALF, H2, RHO_MOSTLY_GROUND, 2 * H2, float(beta))
    assert type(free_energy(RHO_HALF, H2, beta)) is float
