"""Release gate: every numerical guarantee checked with its pinned tolerance.

Each test prints exactly one PASS/FAIL line carrying the measured worst
case, so a verbose run doubles as a numerical report.  Tolerances here
are frozen contract values, not tuning knobs; a FAIL line plus the
failing assert is the intended signal when a guarantee does not hold.
"""

import contextlib
import io
import itertools
import math
import time

import numpy as np

from qledger import cli, sampling
from qledger.dynamics import GridSpec, LindbladSpec, lindblad_evolve
from qledger.measures import Trajectory, coherence, dephase, non_markovianity_series
from qledger.models import (
    Example1Params,
    Example2Params,
    example1_amplitude,
    example1_pseudomode_oracle,
    run_example1,
    run_example2,
)
from qledger.qcore import DensityMatrix, apply_channel, hermitian_eig
from qledger.thermo import (
    adiabatic_work_gibbs,
    delta_S_ir,
    ergotropy,
    extractable_work,
    first_law_ledger,
    gibbs_state,
    relative_entropy,
    von_neumann_entropy,
)

FUZZ_SEED = 20260823
FUZZ_DRAWS = 10_000


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _fuzz_draws(count: int = FUZZ_DRAWS):
    """Random endpoint processes; criteria 1 and 4 must see identical draws."""
    rng = np.random.default_rng(FUZZ_SEED)
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        h0 = sampling.random_hermitian(rng, dim)
        h1 = sampling.random_hermitian(rng, dim)
        r0 = sampling.random_density(rng, dim)
        r1 = sampling.random_density(rng, dim)
        # keep every thermal population above float support; the identities
        # hold at any beta but are only representable below this cap
        span = max(sampling.spectral_span_bound(h0), sampling.spectral_span_bound(h1))
        yield min(beta, 10.0 / span), h0, h1, r0, r1


def test_criterion_1_ledger_identities():
    """Five closures of the first-law ledger over 10^4 random processes."""
    t0 = time.perf_counter()
    worst = np.zeros(6)
    for beta, h0, h1, r0, r1 in _fuzz_draws():
        led = first_law_ledger(r0, h0, r1, h1, beta)
        g0 = gibbs_state(h0, beta)
        g1 = gibbs_state(h1, beta)
        d_coh = coherence(r1, h1) - coherence(r0, h0)
        d_deph = von_neumann_entropy(dephase(r1, h1)) - von_neumann_entropy(dephase(r0, h0))
        checks = (
            abs(led.residual_eq2),
            abs(led.residual_eq7),
            abs((led.deltaS_rho - led.deltaS_gibbs) - (led.deltaS_ir - led.deltaS_r)),
            abs(led.heat - (led.deltaE - adiabatic_work_gibbs(h0, h1, beta))),
            abs(led.deltaWf + led.deltaS_ir / beta),
            abs(led.deltaWf - (led.deltaE + (d_coh - d_deph + g1.log_Z - g0.log_Z) / beta)),
        )
        np.maximum(worst, checks, out=worst)
    elapsed = time.perf_counter() - t0
    tols = (1e-9, 1e-9, 1e-10, 1e-9, 1e-10, 1e-9)
    ok = all(w <= t for w, t in zip(worst, tols)) and elapsed < 30.0
    labels = ("eq2", "eq7", "split", "heat", "rate", "coh")
    pairs = ", ".join(f"{n}={w:.1e}" for n, w in zip(labels, worst))
    _report("criterion 1", ok, f"{FUZZ_DRAWS} draws, worst {pairs}, {elapsed:.1f}s")


def test_criterion_2_ergotropy_brute_force():
    """Ergotropy equals the permutation-minimum reachable energy; Gibbs is passive."""
    rng = np.random.default_rng(211)
    worst_match = 0.0
    worst_gibbs = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        h = sampling.random_hermitian(rng, dim)
        rho = sampling.random_density(rng, dim)
        levels = np.sort(np.linalg.eigvalsh(h.matrix))
        pops = np.linalg.eigvalsh(rho.matrix)
        energy = float(np.einsum("ij,ji->", rho.matrix, h.matrix).real)
        floor = min(
            float(np.dot(perm, levels)) for perm in itertools.permutations(pops)
        )
        worst_match = max(worst_match, abs(ergotropy(rho, h) - (energy - floor)))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        worst_gibbs = max(worst_gibbs, abs(ergotropy(gibbs_state(h, beta).state, h)))
    ok = worst_match <= 1e-10 and worst_gibbs <= 1e-10
    _report(
        "criterion 2",
        ok,
        f"1000 draws dim<=5, worst vs brute force {worst_match:.1e}, "
        f"worst ergotropy(Gibbs) {worst_gibbs:.1e}",
    )


def test_criterion_3_contractivity_and_violation_audit():
    """Thermal-fixed-point channels never raise the relative entropy to Gibbs."""
    rng = np.random.default_rng(3)
    floor = math.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        h = sampling.random_hermitian(rng, dim)
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        beta = min(beta, 10.0 / sampling.spectral_span_bound(h))
        rho = sampling.random_density(rng, dim)
        ch = sampling.gibbs_preserving_channel(rng, h, beta)
        floor = min(floor, delta_S_ir(rho, h, apply_channel(ch, rho), h, beta))
    # the bound is specific to thermal-fixed-point maps: the audit must be
    # able to construct a channel that breaks it
    rc = cli.main(["audit", "--expect-violation"])
    ok = floor >= -1e-10 and rc == 0
    _report(
        "criterion 3",
        ok,
        f"1000 channels, min dS_ir={floor:.3e} (>= -1e-10), violation audit rc={rc}",
    )


def test_criterion_4_free_energy_dual_path():
    """Free-energy difference route equals the relative-entropy route."""
    worst = 0.0
    for beta, h0, h1, r0, r1 in _fuzz_draws():
        for rho, h in ((r0, h0), (r1, h1)):
            g = gibbs_state(h, beta)
            gap = abs(extractable_work(rho, h, beta) - relative_entropy(rho, g.state) / beta)
            worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(
        "criterion 4",
        ok,
        f"criterion-1 fuzz set, both endpoints, worst |W_f - S(rho||pi)/beta| = {worst:.1e}",
    )


def test_criterion_5_decay_model_vs_dissipative_oracle():
    """Closed-form battery population tracks the lossy-mode simulation."""
    t0 = time.perf_counter()
    sup = {}
    for r in (0.1, 0.3, 1.0, 5.0, 30.0):
        p = Example1Params(R=r)
        tr = example1_pseudomode_oracle(p)  # raises if the 1e-6 calibration gate trips
        ref = np.abs(example1_amplitude(tr.times, p)) ** 2
        sup[r] = float(np.abs(tr.states[:, 1, 1].real - ref).max())
    elapsed = time.perf_counter() - t0
    ok = max(sup.values()) <= 1e-3 and elapsed < 60.0
    per_r = ", ".join(f"R={r:g}: {w:.1e}" for r, w in sup.items())
    _report(
        "criterion 5",
        ok,
        f"sup|pop - |c1|^2| {per_r}; single-qubit calibration gated at 1e-6; {elapsed:.1f}s",
    )


def test_criterion_6a_flat_regime_power_monotonic():
    """R=0.3 charging power should only ever decrease.

    This guarantee does not hold at these parameters; the test states the
    requirement as written and reports the measured violation.
    """
    _, series = run_example1(Example1Params(R=0.3))
    diffs = np.diff(series.power)
    rises = int(np.count_nonzero(diffs > 1e-9))
    t_min = float(series.times[np.argmin(series.power)])
    ok = rises == 0
    _report(
        "criterion 6a",
        ok,
        f"R=0.3: {rises} of {diffs.size} power steps increase by more than 1e-9, "
        f"largest step {diffs.max():+.3e}, power minimum {series.power.min():.4f} at t={t_min:.2f}",
    )


def _power_rises(R: float, steps: int = Example1Params.steps):
    """Steps where the example-1 power rises by more than 1e-9, and its minimum."""
    _, series = run_example1(Example1Params(R=R, steps=steps))
    return int(np.count_nonzero(np.diff(series.power) > 1e-9)), float(series.power.min())


def test_criterion_6a_diagnostic_crossover_and_grid():
    """Why 6a fails: the power starts at P(0) = 0, falls to a minimum and
    climbs back toward 0 as the battery settles, so any window that holds the
    minimum has rising steps.  Between R = 0.1 and 0.2 the minimum enters the
    t <= 20 window; that is the window's edge, not a change of regime (the
    regime boundary is R = 1/2, see the example 1 tests).  The dip at R = 0.3
    is the same on the default grid and on one 4x finer (measured: they differ
    by 3.6e-9), so it belongs to the closed-form model, not to the grid."""
    lo, hi = 0.1, 0.2
    ok = _power_rises(lo)[0] == 0 and _power_rises(hi)[0] > 0
    while ok and hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if _power_rises(mid)[0] == 0:
            lo = mid
        else:
            hi = mid
    steps = Example1Params.steps
    (rises, p_min), (rises_fine, p_min_fine) = _power_rises(0.3), _power_rises(0.3, 4 * steps)
    gap = abs(p_min - p_min_fine)
    ok = ok and gap <= 1e-8
    _report(
        "criterion 6a diagnostic",
        ok,
        f"on t <= {Example1Params.t_max:g} the power minimum lies beyond the window up to R={lo:.4f} "
        f"and inside it, with rising steps, from R={hi:.4f}; R=0.3 power minimum "
        f"{p_min:.7f} with {steps} steps ({rises} rising), {p_min_fine:.7f} with {4 * steps} "
        f"({rises_fine} rising), gap {gap:.1e} <= 1e-8",
    )


def test_criterion_6b_oscillatory_regime_backflow():
    """R=30 information backflow must change sign repeatedly."""
    _, series = run_example1(Example1Params(R=30.0))
    signs = np.sign(series.backflow)
    signs = signs[signs != 0.0]
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    ok = changes >= 3
    _report("criterion 6b", ok, f"R=30: backflow sign changes = {changes}, need >= 3")


def test_criterion_7_charger_model_panels():
    """Resonant peaks repeat without drift; detuned lossy case dies out."""
    _, s1 = run_example2(Example2Params(case=1, beta=0.1))
    c = s1.coherence
    high = np.flatnonzero(c > 0.9 * c.max())
    groups = np.split(high, np.flatnonzero(np.diff(high) > 1) + 1)
    peaks = np.array([c[g].max() for g in groups[:5]])
    spread = float((peaks.max() - peaks.min()) / peaks.max())
    ok_case1 = len(groups) >= 5 and spread < 0.01

    # 10 lifetimes of the gamma=0.1 decay; one run per panel temperature
    late = dict(case=2, t_max=100.0, steps=40000)
    _, s_low = run_example2(Example2Params(beta=0.1, **late))
    _, s_pow = run_example2(Example2Params(beta=1.0, **late))
    cr_end = float(s_low.coherence[-1])
    pc_end = abs(float(s_low.coherent_power[-1]))
    p_end = abs(float(s_pow.power[-1]))
    ok = ok_case1 and cr_end < 1e-3 and pc_end < 1e-3 and p_end < 1e-3
    _report(
        "criterion 7",
        ok,
        f"case-1 peak spread {spread:.1e} over 5 cycles; case-2 at t=100: "
        f"C_r={cr_end:.1e}, |P_c|={pc_end:.1e} (beta=0.1), |P|={p_end:.1e} (beta=1)",
    )


def test_criterion_8_numerical_orders():
    """Integrator is 4th order, derivatives 2nd order, eigensolver exact to 1e-10."""
    t0 = time.perf_counter()

    # excited qubit decaying at gamma: global error must fall 16x per dt halving
    h2 = np.diag([0.0, 1.0]).astype(np.complex128)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    spec = LindbladSpec(h2, [(sm, 1.0)])
    rho0 = DensityMatrix(np.diag([0.0, 1.0]))
    errs = []
    for steps in (50, 100, 200):
        tr = lindblad_evolve(spec, rho0, GridSpec(1.0, steps), beta=1.0)
        errs.append(abs(tr.states[-1, 1, 1].real - math.exp(-1.0)))
    rk4 = (errs[0] / errs[1], errs[1] / errs[2])
    ok_rk4 = all(12.0 <= r <= 20.0 for r in rk4)

    # diagonal qubit with prescribed populations: the backflow column is a
    # central-difference derivative, so its error must fall 4x per halving
    beta = 0.7
    pi1 = math.exp(-beta) / (1.0 + math.exp(-beta))
    errs = []
    for n in (60, 120):
        times = np.linspace(0.0, 6.0, n + 1)
        p1 = 0.5 + 0.25 * np.sin(times)
        states = np.zeros((times.size, 2, 2), dtype=np.complex128)
        states[:, 0, 0] = 1.0 - p1
        states[:, 1, 1] = p1
        i_num = non_markovianity_series(Trajectory(times, states, h2, beta))
        dp = 0.25 * np.cos(times)
        i_exact = dp * (np.log(p1 / pi1) - np.log((1.0 - p1) / (1.0 - pi1)))
        errs.append(float(np.abs(i_num - i_exact).max()))
    diff_ratio = errs[0] / errs[1]
    ok_diff = 3.5 <= diff_ratio <= 4.5

    rng = np.random.default_rng(88)
    worst_eig = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        m = sampling.random_hermitian(rng, dim).matrix
        w, v = hermitian_eig(m)
        recon = float(np.abs((v * w) @ v.conj().T - m).max())
        ortho = float(np.abs(v.conj().T @ v - np.eye(dim)).max())
        worst_eig = max(worst_eig, recon, ortho)
    elapsed = time.perf_counter() - t0
    ok = ok_rk4 and ok_diff and worst_eig <= 1e-10 and elapsed < 30.0
    _report(
        "criterion 8",
        ok,
        f"rk4 ratios {rk4[0]:.1f}/{rk4[1]:.1f} (16+-4), gradient ratio {diff_ratio:.2f} "
        f"(4+-0.5), eigensolver worst {worst_eig:.1e} over 1000 draws dim<=16, {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Identical physics must give byte-identical CSV wherever it is written."""
    results = {}
    for name, argv in (
        ("example1", ["example1", "--override", "steps=400", "--override", "t_max=4.0"]),
        ("example2", ["example2", "--override", "case=1", "--override", "steps=400",
                      "--override", "t_max=4.0"]),
    ):
        payloads = []
        for rep in ("a", "b"):
            sub = tmp_path / f"{name}_{rep}"
            sub.mkdir()
            out = sub / "run.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", str(out), "--seed", "7"])
            assert rc == 0
            payloads.append(out.read_bytes())
        results[name] = payloads[0] == payloads[1]
    ok = all(results.values())
    detail = ", ".join(f"{k} rerun identical: {v}" for k, v in results.items())
    _report("criterion 9", ok, detail)
