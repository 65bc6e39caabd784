"""Command-line surface: run the case studies, compute ledgers from state
files, audit the package's own inequalities.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 property violation.  Failures print one JSON object to stderr,
``{"error": code, "detail": text}``, so scripts never have to parse prose.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import models, sampling
from .measures import _populations, write_csv
from .qcore import (
    HermitianOperator,
    NumericError,
    PropertyViolation,
    QuantumChannel,
    ValidationError,
    _as_hermitian,
    _check_kraus,
    _check_states,
    _gated,
    _integral,
    _jacobi_stack,
    _kraus_apply,
    _kraus_sum,
    _real,
    _spectra,
    apply_channel,
    matrix_from_json,
)
from .svg import line_plot
from .thermo import _coherence, _dot, _energy, _entropy, _free, _gibbs, _relent
from .thermo import delta_S_ir, first_law_ledger, gibbs_state

# subcommand number -> (parameter dataclass, name of the runner in models,
# the fields the CLI exposes); c01, c02, alpha1 and alpha2 stay library-only.
# The runner is looked up at call time, so a rebound models attribute (a
# profiler's wrapper, a test's stub) is the one that runs.
_EXAMPLES = {
    1: (models.Example1Params, "run_example1",
        ("omega0", "lam", "R", "beta", "t_max", "steps")),
    2: (models.Example2Params, "run_example2",
        ("case", "omega0", "g", "omegap", "gamma", "beta", "t_max", "steps")),
}

# config keys that differ from the dataclass field names
_ALIASES = {"lam": "lambda"}

CONTRACTIVITY_TOL = 1e-10
DUAL_PATH_TOL = 1e-10
CLOSURE_TOL = 1e-9
_AUDIT_KINDS = ("contractivity", "dual-path", "closure")

# the audit draws, solves and checks its cases this many at a time: enough
# that each stack solve spreads numpy's call overhead over many matrices,
# few enough that the held cases stay small
_AUDIT_BLOCK = 128


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep a nesting
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _coerce(key: str, value, default):
    """Check ``value`` against the type of the key's default."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValidationError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if isinstance(default, int):
        if _integral(value):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValidationError(f"config key {key!r} must be an integer, got {value!r}")
    x = _real(value)  # an int beyond the float range is inf, for the dataclass to reject
    if x is None:
        raise ValidationError(f"config key {key!r} must be a number, got {value!r}")
    return x


def _parse_override(text: str):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValidationError(f"override {text!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:  # too long an int, or too deep a nesting
        raise ValidationError(f"override {key!r}: {exc}") from None
    return key, value


def _effective_config(defaults: dict, config_path, overrides) -> dict:
    """Overrides beat the config file, which beats the defaults."""
    cfg = dict(defaults)
    if config_path:
        data = _read_json(config_path)
        if not isinstance(data, dict):
            raise ValidationError(f"{config_path}: config must be a JSON object")
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValidationError(f"unknown config keys {sorted(unknown)}")
        for k, v in data.items():
            cfg[k] = _coerce(k, v, defaults[k])
    for item in overrides or ():
        k, v = _parse_override(item)
        if k not in defaults:
            raise ValidationError(f"unknown override key {k!r}")
        cfg[k] = _coerce(k, v, defaults[k])
    return cfg


def _echo_comment(cfg: dict) -> list[str]:
    # the output path is routing, not physics; leaving it out keeps runs
    # with identical physics byte-identical wherever they are written
    physics = {k: v for k, v in cfg.items() if k != "out"}
    return ["config: " + json.dumps(physics, sort_keys=True)]


def _cmd_example(n: int, args) -> int:
    params_cls, run, fields = _EXAMPLES[n]
    base = params_cls()
    defaults = {"example": n, "out": f"example{n}.csv"}
    defaults.update((_ALIASES.get(f, f), getattr(base, f)) for f in fields)
    cfg = _effective_config(defaults, args.config, args.override)
    if cfg["example"] != n:
        raise ValidationError(f"config says example {cfg['example']} but the subcommand is example{n}")
    if args.out:
        cfg["out"] = args.out
    _, series = getattr(models, run)(params_cls(**{f: cfg[_ALIASES.get(f, f)] for f in fields}))
    write_csv(series, cfg["out"], _echo_comment(cfg))
    if args.svg:
        if n == 1:
            curves = [("P", series.power)]
            title, ylabel = f"charging power, R = {cfg['R']:g}", "P"
        else:
            curves = [("C_r", series.coherence), ("P_c", series.coherent_power), ("P", series.power)]
            title, ylabel = f"coherence and power, case {cfg['case']}", ""
        line_plot(args.svg, series.times, curves, title=title, xlabel="t", ylabel=ylabel)
    print(f"wrote {cfg['out']}")
    return 0


_LEDGER_KEYS = {"beta", "rho0", "h0", "rho_tau", "h_tau", "channel"}


def _cmd_ledger(args) -> int:
    if not args.config:
        raise ValidationError("ledger: --config FILE is required")
    data = _read_json(args.config)
    if not isinstance(data, dict):
        raise ValidationError(f"{args.config}: config must be a JSON object")
    unknown = set(data) - _LEDGER_KEYS
    if unknown:
        raise ValidationError(f"unknown ledger config keys {sorted(unknown)}")
    for key in ("beta", "rho0", "h0"):
        if key not in data:
            raise ValidationError(f"ledger config needs key {key!r}")

    def operator(key):
        return _gated(matrix_from_json(data[key]), f"ledger config {key}")

    rho0 = operator("rho0")
    h0 = operator("h0")
    h_tau = operator("h_tau") if "h_tau" in data else h0
    if "rho_tau" in data and "channel" in data:
        raise ValidationError("ledger config: give rho_tau or channel, not both")
    if "rho_tau" in data:
        rho_tau = operator("rho_tau")
    elif "channel" in data:
        if not isinstance(data["channel"], list):
            raise ValidationError("ledger config: channel must be a list of Kraus matrices")
        chan = QuantumChannel([matrix_from_json(k) for k in data["channel"]])
        rho_tau = HermitianOperator(_kraus_sum(chan, rho0))
    else:
        raise ValidationError("ledger config needs rho_tau or channel")
    # the operands are solved together (one stack above SCALAR_MAX_DIM) before
    # the states are checked, so each positivity check reads a carried spectrum
    _spectra(rho0, h0, h_tau, rho_tau)
    rho0 = _gated(rho0, "ledger config rho0", state=True)
    rho_tau = _gated(rho_tau, "ledger config rho_tau", state=True)

    led = first_law_ledger(rho0, h0, rho_tau, h_tau, data["beta"])
    text = led.to_json()
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_audit(args) -> int:
    if args.count < 0:
        raise ValidationError("audit: count must be >= 0")
    if args.seed < 0:
        raise ValidationError("audit: seed must be >= 0")
    if args.expect_violation:
        # deliberately non-Gibbs-preserving: damp the Gibbs state toward the
        # ground level and watch the irreversible entropy go negative
        h = HermitianOperator(np.diag([0.0, 1.0]))
        beta = 1.0
        pi = gibbs_state(h, beta).state
        damped = apply_channel(sampling.ground_damping_channel(2, 0.5), pi)
        ds_ir = delta_S_ir(pi, h, damped, h, beta)
        print(f"audit: ground damping on the thermal state, dS_ir = {ds_ir:.6e}")
        if ds_ir < -CONTRACTIVITY_TOL:
            print("audit: negative irreversible entropy exhibited, as constructed")
            return 0
        raise PropertyViolation(
            f"expected the damping construction to give dS_ir < 0, got {ds_ir:.3e}"
        )

    rng = np.random.default_rng(args.seed)
    failures = []
    min_ds_ir = np.inf
    worst_dual = 0.0
    worst_closure = 0.0
    for first in range(0, args.count, _AUDIT_BLOCK):
        # the block's groups are freed before the next block is drawn
        beta, values = _audit_values(_audit_groups(rng, min(_AUDIT_BLOCK, args.count - first)))
        rel0, wf0, e0, coh0, sdeph0, rel_t, wf_t, e_t, coh_t, sdeph_t = values
        ds_ir = rel0 - rel_t
        dual = np.abs(wf0 - rel0 / beta)
        # free-energy change against its coherence decomposition (H fixed,
        # so the partition term drops)
        closure = np.abs((wf_t - wf0) - ((e_t - e0) + ((coh_t - coh0) - (sdeph_t - sdeph0)) / beta))
        # fmin and fmax pass over nan, as the comparisons below do
        min_ds_ir = np.fmin(min_ds_ir, np.fmin.reduce(ds_ir))
        worst_dual = np.fmax(worst_dual, np.fmax.reduce(dual))
        worst_closure = np.fmax(worst_closure, np.fmax.reduce(closure))
        failed = np.array([ds_ir < -CONTRACTIVITY_TOL, dual > DUAL_PATH_TOL, closure > CLOSURE_TOL])
        values = (ds_ir, dual, closure)
        # case by case, each case's kinds in the order above
        failures += [(first + i, _AUDIT_KINDS[k], values[k][i]) for i, k in np.argwhere(failed.T)]

    print(f"audit: seed={args.seed} count={args.count}")
    if args.count:
        print(f"audit: contractivity min dS_ir = {min_ds_ir:.6e}")
        print(f"audit: dual-path worst deviation = {worst_dual:.6e}")
        print(f"audit: closure worst deviation = {worst_closure:.6e}")
    if failures:
        for case, kind, value in failures[:20]:
            print(f"audit: FAIL case={case} kind={kind} value={value:.6e}")
        raise PropertyViolation(
            f"{len(failures)} violation(s) in {args.count} cases; "
            f"reproduce with --seed {args.seed} (first failing case {failures[0][0]})"
        )
    print(f"audit: PASS ({args.count} cases, 0 violations)")
    return 0


def _audit_groups(rng: np.random.Generator, n: int) -> list:
    """The audit's next ``n`` cases, each drawn whole (dim, beta, H's and
    rho0's Ginibre blocks, the channel's) before the next, grouped once by
    dimension in order of first appearance and worked as stacks, gated as
    the containers gate: per group (idx, beta, (H, wh, vh), p, kraus,
    ((rho0, w, V), (rho_t, wt, vt))), with beta capped, the Gibbs
    populations by energy and the Kraus operators checked."""
    cases = {}
    for i in range(n):
        dim = int(rng.integers(2, 5))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        g_h, g_rho = sampling._ginibre(rng, dim, dim), sampling._ginibre(rng, dim, dim)
        cases.setdefault(dim, []).append((i, beta, g_h, g_rho, *sampling._channel_draws(rng, dim)))
    groups = []
    for group in cases.values():
        idx, beta, g_h, g_rho, weights, angles = map(np.array, zip(*group))
        h = _as_hermitian(sampling._hermitian_part(g_h), "HermitianOperator", stack=True)
        rho0 = _as_hermitian(sampling._gram_state(g_rho), "DensityMatrix", stack=True)
        _check_states(rho0, None, "DensityMatrix")
        # keep every thermal population above float support, so the checks
        # probe the inequalities rather than representation loss
        beta = np.minimum(beta, 10.0 / sampling._span_bounds(h))
        w, v = _jacobi_stack(np.concatenate([h, rho0]), want_vectors=True)
        (wh, w0), (vh, v0) = np.split(w, 2), np.split(v, 2)
        p = _gibbs(wh, beta[:, None])[0]
        kraus = sampling._gibbs_preserving_kraus(vh, p, weights, angles)
        _check_kraus(kraus)
        rho_t = _kraus_apply(kraus, rho0)
        if not np.isfinite(rho_t).all():
            raise ValidationError("audit rho_t: entries must be finite")
        wt, vt = _jacobi_stack(rho_t, want_vectors=True)
        _check_states(rho_t, wt, "audit rho_t")
        groups.append((idx, beta, (h, wh, vh), p, kraus, ((rho0, w0, v0), (rho_t, wt, vt))))
    return groups


def _audit_values(groups) -> tuple[np.ndarray, np.ndarray]:
    """Per case of the groups, in case order, beta (n,) and, for rho0 then
    rho_t, S(rho || gibbs), F(rho) - F(gibbs), the energy, the coherence and
    the dephased entropy as a (10, n) array, one kernel call per quantity
    and group.  The relative entropy takes the overlaps with the Gibbs
    state's eigenvalues and F the traces, so the dual path has two routes."""
    n = sum(len(group[0]) for group in groups)
    betas, values = np.empty(n), np.empty((10, n))
    for idx, beta, (h, wh, vh), p, _, states in groups:
        f_gibbs = _free(_dot(p, wh), _entropy(p), beta)
        # the Gibbs state's spectrum ascends: its populations reversed
        ws, vs = p[:, ::-1], vh[:, :, ::-1]
        rows = []
        for rho, w, v in states:
            energy, s, pops = _energy(rho, h), _entropy(w), _populations(vh, rho)
            rows += [_relent(s, w, v, vs, ws=ws), _free(energy, s, beta) - f_gibbs, energy,
                     _coherence(pops, s), _entropy(np.sort(pops, axis=-1))]
        betas[idx], values[:, idx] = beta, rows
    return betas, values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qledger",
        description="thermodynamic ledgers, charging power and coherence measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the options it reads
    for n, help_text in ((1, "run the two-qubit Lorentzian-bath battery"),
                         (2, "run the photon-charged two-qubit battery")):
        s = sub.add_parser(f"example{n}", help=help_text)
        s.add_argument("--config", metavar="FILE", help="JSON configuration")
        s.add_argument("--override", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
        s.add_argument("--out", metavar="FILE", help="output path")
        s.add_argument("--svg", metavar="FILE", help="also write an SVG line plot")
        s.add_argument("--seed", type=int, help="no effect; the examples are deterministic")
        s.set_defaults(func=functools.partial(_cmd_example, n))
    s = sub.add_parser("ledger", help="first-law ledger from state/Hamiltonian JSON")
    s.add_argument("--config", metavar="FILE", help="JSON process description (required)")
    s.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    s.set_defaults(func=_cmd_ledger)
    s = sub.add_parser("audit", help="randomized self-check of the package inequalities")
    s.add_argument("--seed", type=int, default=42, help="PRNG seed")
    s.add_argument("--count", type=int, default=1000, help="number of random cases")
    s.add_argument("--expect-violation", action="store_true",
                   help="demonstrate a constructed negative dS_ir instead")
    s.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit_error("validation", str(exc))
        return 2
    except NumericError as exc:
        _emit_error("numeric", str(exc))
        return 3
    except PropertyViolation as exc:
        _emit_error("property", str(exc))
        return 4
    except OSError as exc:
        _emit_error("validation", str(exc))
        return 2
    except MemoryError as exc:  # a grid or process too large to allocate
        _emit_error("validation", f"out of memory: {exc}")
        return 2


def _emit_error(code: str, detail: str) -> None:
    print(json.dumps({"error": code, "detail": detail}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
