"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

``prepare`` runs in the benchmark process with numpy only and writes the
inputs of every pass of a run into its work directory.  ``load``,
``run_pass`` and ``check`` run in the worker: ``load`` turns the inputs
into arrays before the clock starts, ``run_pass`` is the timed pass, and
``check`` verifies its outputs after the clock stops.

An operation is one CLI invocation, one oracle run or one ledger draw.
It fails on an exception, a nonzero exit code or a failed output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

NAMES = ("charge", "oracle", "fuzz", "ledger-wide")

REFERENCE_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference" / f"charge-seed{REFERENCE_SEED}.json"
# values of a charge CSV must match the reference within this tolerance
REF_RTOL = 1e-9
REF_ATOL = 1e-9
REF_STRIDE = 250

CLOSURE_TOL = 1e-9          # max|P - (P_c + P_i)|, relative to the largest |P_c|, |P_i|
ORACLE_TOL = 1e-3           # criterion 5: sup|pop - |c1|^2|
LEDGER_TOLS = {"eq2": 1e-9, "eq7": 1e-9, "split": 1e-10, "rate": 1e-10}   # criterion 1
WIDE_DIMS = (16, 32, 64)
WIDE_TOL = 1e-9             # ledger-wide residuals and deltaS_rho against numpy
FUZZ_DRAWS = 1000
AUDIT_COUNT = 1000


# ---------------------------------------------------------------------------
# inputs (numpy only)

def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _hermitian(rng, d):
    g = _ginibre(rng, d, d)
    return 0.5 * (g + g.conj().T)


def _density(rng, d):
    g = _ginibre(rng, d, d)
    m = g @ g.conj().T
    return m / m.trace().real


def _span_bound(h):
    radii = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
    d = np.diag(h).real
    return float((d + radii).max() - (d - radii).min())


def _capped_beta(rng, *hs):
    # the criterion-1 cap keeps every thermal population above float support
    beta = float(10.0 ** rng.uniform(-1.0, 1.0))
    return min(beta, 10.0 / max(_span_bound(h) for h in hs))


def _matrix_json(m):
    return {"dim": int(m.shape[0]), "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Make the run's inputs from the seed; returns the inputs document."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "charge":
        beta = lambda: round(float(10.0 ** rng.uniform(math.log10(0.05), math.log10(0.5))), 6)
        jobs = [
            ("ex1-flat", "example1", {"R": round(float(rng.uniform(0.1, 0.6)), 6), "beta": beta()}, 20001),
            ("ex1-osc", "example1", {"R": round(float(rng.uniform(10.0, 40.0)), 6), "beta": beta()}, 20001),
            ("ex2-case1", "example2", {"case": 1, "beta": beta()}, 8001),
            ("ex2-case2", "example2", {"case": 2, "beta": beta(),
                                       "gamma": round(float(rng.uniform(0.05, 0.2)), 6)}, 8001),
        ]
        doc = {"jobs": [{"name": n, "cmd": c, "overrides": o, "rows": r} for n, c, o, r in jobs]}
    elif name == "oracle":
        doc = {"R": round(float(rng.uniform(10.0, 40.0)), 6)}
    elif name == "fuzz":
        doc = {"audit_seed": int(rng.integers(2**31)), "draw_seed": int(rng.integers(2**31))}
    elif name == "ledger-wide":
        configs = []
        for d in WIDE_DIMS:
            h0, h1 = _hermitian(rng, d), _hermitian(rng, d)
            rho0 = _density(rng, d)
            cfg = {"beta": _capped_beta(rng, h0, h1), "rho0": _matrix_json(rho0),
                   "h0": _matrix_json(h0), "h_tau": _matrix_json(h1)}
            if d == WIDE_DIMS[0]:
                # one process goes through a Kraus channel: an isometry cut in blocks
                w, _ = np.linalg.qr(_ginibre(rng, 3 * d, d))
                cfg["channel"] = [_matrix_json(w[k * d:(k + 1) * d]) for k in range(3)]
            else:
                cfg["rho_tau"] = _matrix_json(_density(rng, d))
            path = workdir / f"process-d{d}.json"
            path.write_text(json.dumps(cfg))
            configs.append({"dim": d, "config": str(path)})
        doc = {"configs": configs}
    else:
        raise ValueError(f"unknown workload {name!r}")
    doc["workload"] = name
    doc["seed"] = seed
    return doc


def fuzz_draws(seed: int, count: int = FUZZ_DRAWS):
    """Criterion-1 processes (d 2 to 4) as plain arrays."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        h0, h1 = _hermitian(rng, d), _hermitian(rng, d)
        r0, r1 = _density(rng, d), _density(rng, d)
        draws.append((min(beta, 10.0 / max(_span_bound(h0), _span_bound(h1))), h0, h1, r0, r1))
    return draws


def load(doc: dict) -> dict:
    """Build per-pass inputs that should not be timed."""
    if doc["workload"] == "fuzz":
        return {**doc, "draws": fuzz_draws(doc["draw_seed"])}
    return doc


def items(doc: dict) -> int:
    """Operations in one pass."""
    return {"charge": 4, "oracle": 1, "fuzz": 1 + FUZZ_DRAWS, "ledger-wide": len(WIDE_DIMS)}[doc["workload"]]


# ---------------------------------------------------------------------------
# the timed pass

def _cli(qledger, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = qledger.cli.main(argv)
    return rc, buf.getvalue()


def _attempt(fn):
    """(result, None) or (None, error text); one operation never stops the pass."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(qledger, doc: dict, passdir: Path) -> list:
    """One pass of the workload; returns one (result, error) per operation."""
    name = doc["workload"]
    if name == "charge":
        out = []
        for job in doc["jobs"]:
            argv = [job["cmd"], *(f"--override={k}={v!r}" for k, v in job["overrides"].items()),
                    "--out", str(passdir / f"{job['name']}.csv"),
                    "--svg", str(passdir / f"{job['name']}.svg")]
            out.append(_attempt(lambda: _cli(qledger, argv)))
        return out
    if name == "oracle":
        models = qledger.models
        return [_attempt(lambda: models.example1_pseudomode_oracle(models.Example1Params(R=doc["R"])))]
    if name == "fuzz":
        argv = ["audit", "--count", str(AUDIT_COUNT), "--seed", str(doc["audit_seed"])]
        out = [_attempt(lambda: _cli(qledger, argv))]
        thermo = qledger.thermo
        for beta, h0, h1, r0, r1 in doc["draws"]:
            out.append(_attempt(lambda: thermo.first_law_ledger(r0, h0, r1, h1, beta)))
        return out
    if name == "ledger-wide":
        out = []
        for cfg in doc["configs"]:
            argv = ["ledger", "--config", cfg["config"], "--out", str(passdir / f"ledger-d{cfg['dim']}.json")]
            out.append(_attempt(lambda: _cli(qledger, argv)))
        return out
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks, outside the timed region

def _guard(fn, *args):
    """The error text of one operation's output check, or None; a check
    that raises fails its operation instead of stopping the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return f"check raised {type(exc).__name__}: {exc}"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_columns(qledger, path: Path) -> np.ndarray:
    series = qledger.measures.read_csv(path)
    return np.column_stack([getattr(series, f) for f in qledger.measures._CSV_FIELDS])


def charge_reference(qledger, doc: dict, passdir: Path) -> dict:
    """Digest and sampled rows of each CSV, the reference for one seed."""
    ref = {}
    for job in doc["jobs"]:
        path = passdir / f"{job['name']}.csv"
        ref[job["name"]] = {
            "sha256": _digest(path),
            "stride": REF_STRIDE,
            "sample": _csv_columns(qledger, path)[::REF_STRIDE].tolist(),
        }
    return ref


def _check_charge(qledger, doc, results, passdir, info):
    ref = json.loads(REFERENCE.read_text()) if doc["seed"] == REFERENCE_SEED else None
    info["reference"] = ref is not None
    info["byte_identical"] = 0
    info["closure_max"] = 0.0
    errors = []
    for job, (res, err) in zip(doc["jobs"], results):
        if err is None and res[0] != 0:
            err = f"exit code {res[0]}"
        if err is None:
            err = _guard(_check_csv, qledger, job, passdir, ref, info)
        errors.append(err)
    return errors


def _check_csv(qledger, job, passdir, ref, info):
    csv_path = passdir / f"{job['name']}.csv"
    svg_path = passdir / f"{job['name']}.svg"
    data = _csv_columns(qledger, csv_path)
    if data.shape[0] != job["rows"]:
        return f"{job['name']}: {data.shape[0]} rows, expected {job['rows']}"
    if not np.all(np.isfinite(data)):
        return f"{job['name']}: non-finite values"
    p, p_c, p_i = data[:, 6], data[:, 7], data[:, 8]
    scale = max(1.0, float(np.abs(p_c).max()), float(np.abs(p_i).max()))
    closure = float(np.abs(p - (p_c + p_i)).max()) / scale
    info["closure_max"] = max(info["closure_max"], closure)
    if closure > CLOSURE_TOL:
        return f"{job['name']}: trajectory closure {closure:.3e} above {CLOSURE_TOL:.0e}"
    if not svg_path.read_text().rstrip().endswith("</svg>"):
        return f"{job['name']}: SVG incomplete"
    if ref is not None:
        r = ref[job["name"]]
        sample = np.asarray(r["sample"])
        if not np.allclose(data[::r["stride"]], sample, rtol=REF_RTOL, atol=REF_ATOL):
            dev = float(np.abs(data[::r["stride"]] - sample).max())
            return f"{job['name']}: values differ from the reference by up to {dev:.3e}"
        info["byte_identical"] += _digest(csv_path) == r["sha256"]
    return None


def _check_oracle(qledger, doc, results, passdir, info):
    tr, err = results[0]
    return [err if err is not None else _guard(_check_decay, qledger, doc, tr, info)]


def _check_decay(qledger, doc, tr, info):
    p = qledger.models.Example1Params(R=doc["R"])
    ref = np.abs(qledger.models.example1_amplitude(tr.times, p)) ** 2
    sup = float(np.abs(tr.states[:, 1, 1].real - ref).max())
    info["sup_dev"] = sup
    info["steps"] = len(tr) - 1
    return None if sup <= ORACLE_TOL else f"sup|pop - |c1|^2| = {sup:.3e} above {ORACLE_TOL:.0e}"


def _check_fuzz(qledger, doc, results, passdir, info):
    (res, err), ledgers = results[0], results[1:]
    if err is None:
        rc, text = res
        if rc != 0 or f"audit: PASS ({AUDIT_COUNT} cases, 0 violations)" not in text:
            err = f"audit exit code {rc}: {text.strip().splitlines()[-1:]}"
    errors = [err]
    worst = dict.fromkeys(LEDGER_TOLS, 0.0)
    for (beta, *_), (led, err) in zip(doc["draws"], ledgers):
        errors.append(err if err is not None else _guard(_check_ledger, led, beta, worst))
    info["worst"] = worst
    return errors


def _check_ledger(led, beta, worst):
    dev = {
        "eq2": abs(led.residual_eq2),
        "eq7": abs(led.residual_eq7),
        "split": abs((led.deltaS_rho - led.deltaS_gibbs) - (led.deltaS_ir - led.deltaS_r)),
        "rate": abs(led.deltaWf + led.deltaS_ir / beta),
    }
    for k, v in dev.items():
        worst[k] = max(worst[k], v)
    bad = [k for k, v in dev.items() if not v <= LEDGER_TOLS[k]]
    return f"ledger residuals {bad} above tolerance" if bad else None


def _entropy(rho):
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _from_json(obj):
    return (np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])).reshape(obj["dim"], obj["dim"])


def _check_ledger_wide(qledger, doc, results, passdir, info):
    errors = []
    for cfg, (res, err) in zip(doc["configs"], results):
        if err is None and res[0] != 0:
            err = f"d={cfg['dim']}: exit code {res[0]}"
        if err is None:
            err = _guard(_check_wide, cfg, passdir, info)
        errors.append(err)
    return errors


def _check_wide(cfg, passdir, info):
    led = json.loads((passdir / f"ledger-d{cfg['dim']}.json").read_text())
    proc = json.loads(Path(cfg["config"]).read_text())
    rho0 = _from_json(proc["rho0"])
    if "channel" in proc:
        rho_t = sum(k @ rho0 @ k.conj().T for k in map(_from_json, proc["channel"]))
    else:
        rho_t = _from_json(proc["rho_tau"])
    ds = _entropy(rho_t) - _entropy(rho0)
    devs = {"eq2": abs(led["residual_eq2"]), "eq7": abs(led["residual_eq7"]),
            "deltaS_rho": abs(led["deltaS_rho"] - ds)}
    info[f"d{cfg['dim']}"] = devs
    bad = [k for k, v in devs.items() if not v <= WIDE_TOL]
    return f"d={cfg['dim']}: {bad} above {WIDE_TOL:.0e}" if bad else None


_CHECKS = {
    "charge": _check_charge,
    "oracle": _check_oracle,
    "fuzz": _check_fuzz,
    "ledger-wide": _check_ledger_wide,
}


def check(qledger, doc: dict, results: list, passdir: Path) -> tuple[list, dict]:
    """One error text or None per operation, plus what the checks measured."""
    info: dict = {}
    return _CHECKS[doc["workload"]](qledger, doc, results, passdir, info), info
