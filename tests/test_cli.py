"""Command-line behavior: exit codes, wire formats, determinism."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qledger import cli, measures, models, sampling, svg
from qledger.cli import main
from qledger.measures import CSV_HEADER, read_csv
from qledger.qcore import matrix_from_json, matrix_to_json
from qledger.sampling import random_density, random_hermitian
from qledger.thermo import first_law_ledger, gibbs_state


def run(args):
    return main(list(args))


def test_example1_writes_parseable_csv(tmp_path, capsys):
    out = tmp_path / "e1.csv"
    code = run(["example1", "--override", "steps=500", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == CSV_HEADER
    series = read_csv(out)
    assert len(series) == 501
    assert series.times[-1] == pytest.approx(20.0)


def test_repeat_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "sub" / "b.csv"
    b.parent.mkdir()
    assert run(["example1", "--override", "steps=400", "--out", str(a)]) == 0
    assert run(["example1", "--override", "steps=400", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _percent_rows(block, spec, end):
    """The reference for the number text: one ``%`` per row, a CSV row of ten
    values as ``"%.12g,...,%.12g" % row``, an SVG point as ``"%.2f,%.2f" % pt``."""
    row = ",".join([spec] * block.shape[1])
    return end.join(row % tuple(values) for values in block.tolist())


@pytest.mark.parametrize("args", [
    ["example1"], ["example1", "--override", "R=25"],
    ["example2", "--override", "case=1"], ["example2", "--override", "case=2"],
])
def test_example_text_is_that_of_one_percent_per_row(tmp_path, capsys, monkeypatch, args):
    """The CSV and the SVG of the worked examples are, byte for byte, those
    written when ``%`` formats every CSV row and every polyline point."""
    files = [tmp_path / name for name in ("a.csv", "a.svg", "b.csv", "b.svg")]
    assert run([*args, "--out", str(files[0]), "--svg", str(files[1])]) == 0
    for module in (measures, svg):
        monkeypatch.setattr(module, "_decimal_text", _percent_rows)
    assert run([*args, "--out", str(files[2]), "--svg", str(files[3])]) == 0
    capsys.readouterr()
    assert files[0].read_bytes() == files[2].read_bytes()
    assert files[1].read_bytes() == files[3].read_bytes()


def test_override_beats_config_beats_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 1.0, "steps": 300}))
    out = tmp_path / "o.csv"
    code = run(["example1", "--config", str(cfg), "--override", "R=2.5", "--out", str(out)])
    assert code == 0
    echo = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    assert echo["R"] == 2.5  # override wins
    assert echo["steps"] == 300  # config wins over default
    assert echo["lambda"] == 1.0  # default survives


@pytest.mark.parametrize("example, keys", [
    ("example1", {"R", "beta", "example", "lambda", "omega0", "steps", "t_max"}),
    ("example2", {"beta", "case", "example", "g", "gamma", "omega0", "omegap", "steps", "t_max"}),
])
def test_echoed_config_keys_are_pinned(tmp_path, capsys, example, keys):
    """The echoed key set is part of the CSV bytes; library-only fields stay out."""
    out = tmp_path / "o.csv"
    assert run([example, "--override", "steps=50", "--out", str(out)]) == 0
    echo = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    assert set(echo) == keys
    for library_only in ("alpha1", "alpha2", "c01", "c02", "lam"):
        assert run([example, "--override", f"{library_only}=0.5"]) == 2
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.2}))  # example2-only key
    code = run(["example1", "--config", str(cfg)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "gamma" in err["detail"]


def test_unknown_override_key_rejected(capsys):
    assert run(["example2", "--override", "R=1"]) == 2  # example1-only key
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_type_errors_rejected(capsys):
    assert run(["example1", "--override", "steps=12.5"]) == 2
    assert run(["example1", "--override", "steps"]) == 2
    assert run(["example1", "--override", "t_max=fast"]) == 2
    capsys.readouterr()


def test_example_key_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 2}))
    assert run(["example1", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_missing_config_file(capsys):
    assert run(["example1", "--config", "/no/such/file.json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


@pytest.mark.parametrize("subcommand", ["ledger", "example1"])
def test_config_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, subcommand):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run([subcommand, "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["detail"].startswith(f"{path}: not UTF-8 text")


def test_svg_output_is_valid_xml(tmp_path, capsys):
    out = tmp_path / "o.csv"
    svg = tmp_path / "o.svg"
    assert run(["example2", "--override", "steps=2000", "--override", "case=2",
                "--out", str(out), "--svg", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 3  # coherence, coherent power, total power


def test_numeric_failure_exit_code(capsys):
    code = run(["example2", "--override", "case=2", "--override", "steps=30",
                "--override", "gamma=0.5"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"
    assert "steps" in err["detail"]


def test_unallocatable_grid_is_a_validation_error(monkeypatch, capsys):
    """A grid too large for memory exits 2 with the JSON error, not a
    traceback; the runner stands in for the allocation that fails."""
    def too_large(p):
        raise MemoryError(f"Unable to allocate 7.28 TiB for {p.steps + 1} states")

    monkeypatch.setattr(models, "run_example1", too_large)
    assert run(["example1", "--override", "steps=1000000000000"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["detail"] == "out of memory: Unable to allocate 7.28 TiB for 1000000000001 states"


@pytest.mark.parametrize("steps", ["1e20", "1e300"])
def test_grid_beyond_numpy_size_limit_is_a_validation_error(capsys, steps):
    """numpy refuses such a grid before it tries to allocate, so this is no
    MemoryError; the parameters reject it first."""
    assert run(["example1", "--override", f"steps={steps}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["detail"].startswith("Example1Params: steps must be within numpy's size limit")


@pytest.mark.parametrize("example, override, detail", [
    ("example1", "R=1" + "0" * 400, "Example1Params: R must be a finite real number >= 0, got inf"),
    ("example2", "steps=1" + "0" * 400, "Example2Params: steps must be within numpy's size limit"),
], ids=["example1-R", "example2-steps"])
def test_int_beyond_the_float_range_is_a_validation_error(capsys, example, override, detail):
    """A JSON integer too large for a float reads as inf, as in the library,
    so the parameters reject it: exit 2 and one JSON object, no traceback."""
    assert run([example, "--override", override]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "validation"
    assert json.loads(err[0])["detail"].startswith(detail)


LONG_INT = "1" * 5000  # beyond Python's int-to-str digit limit (4300 by default)


@pytest.mark.parametrize("route", ["config", "override", "ledger"])
def test_int_beyond_the_digit_limit_is_a_validation_error(tmp_path, capsys, route):
    """json raises a plain ValueError for such a literal, not a JSONDecodeError:
    each route still exits 2 with one JSON object, no traceback."""
    path = tmp_path / "c.json"
    if route == "ledger":
        path.write_text(ledger_config(tmp_path).read_text().replace('"beta": 1.0', f'"beta": {LONG_INT}'))
    else:
        path.write_text(f'{{"R": {LONG_INT}}}')
    argv = {"config": ["example1", "--config", str(path)],
            "override": ["example1", "--override", f"R={LONG_INT}"],
            "ledger": ["ledger", "--config", str(path)]}[route]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    detail = json.loads(err[0])["detail"]
    prefix = "override 'R': " if route == "override" else f"{path}: not valid JSON ("
    assert detail.startswith(prefix + "Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("route", ["config", "override", "ledger"])
def test_nesting_beyond_the_recursion_limit_is_a_validation_error(tmp_path, capsys, route):
    """json raises RecursionError for arrays nested 100000 deep: each route
    exits 2 with one JSON object, no traceback."""
    deep = "[" * 100000
    path = tmp_path / "c.json"
    path.write_text(deep)
    argv = {"config": ["example1", "--config", str(path), "--out", str(tmp_path / "o.csv")],
            "override": ["example1", "--override", f"R={deep}", "--out", str(tmp_path / "o.csv")],
            "ledger": ["ledger", "--config", str(path)]}[route]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    detail = json.loads(err[0])["detail"]
    prefix = "override 'R': " if route == "override" else f"{path}: not valid JSON ("
    assert detail.startswith(prefix + "maximum recursion depth exceeded")
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# ledger subcommand

def ledger_config(tmp_path, **extra):
    h = np.diag([0.0, 1.0]).astype(complex)
    cfg = {"beta": 1.0, "h0": matrix_to_json(h),
           "rho0": matrix_to_json(np.diag([0.0, 1.0]).astype(complex))}
    cfg.update(extra)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(cfg))
    return path


def test_ledger_identity_process(tmp_path, capsys):
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    path = ledger_config(tmp_path, rho0=rho, rho_tau=rho)
    assert run(["ledger", "--config", str(path)]) == 0
    led = json.loads(capsys.readouterr().out)
    for key, val in led.items():
        assert abs(val) <= 1e-12, key


def test_ledger_thermalization_fixture(tmp_path, capsys):
    pi = gibbs_state(np.diag([0.0, 1.0]), 1.0).state
    path = ledger_config(tmp_path, rho_tau=matrix_to_json(pi.matrix))
    assert run(["ledger", "--config", str(path)]) == 0
    led = json.loads(capsys.readouterr().out)
    assert led["deltaWf"] == pytest.approx(-1.3132616875182228, abs=1e-6)
    assert abs(led["residual_eq2"]) <= 1e-9
    assert abs(led["residual_eq7"]) <= 1e-9


def test_ledger_channel_route(tmp_path, capsys):
    gamma = 0.4
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    path = ledger_config(tmp_path, channel=[matrix_to_json(k0), matrix_to_json(k1)])
    assert run(["ledger", "--config", str(path)]) == 0
    led = json.loads(capsys.readouterr().out)
    # the excited state sheds energy gamma through the damping channel
    assert led["deltaE"] == pytest.approx(-gamma, abs=1e-12)


def test_ledger_output_file(tmp_path, capsys):
    pi = gibbs_state(np.diag([0.0, 1.0]), 1.0).state
    path = ledger_config(tmp_path, rho_tau=matrix_to_json(pi.matrix))
    out = tmp_path / "led.json"
    assert run(["ledger", "--config", str(path), "--out", str(out)]) == 0
    led = json.loads(out.read_text())
    assert "deltaWf" in led
    capsys.readouterr()


def test_ledger_config_validation(tmp_path, capsys):
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    both = ledger_config(tmp_path, rho_tau=rho, channel=[matrix_to_json(np.eye(2, dtype=complex))])
    assert run(["ledger", "--config", str(both)]) == 2
    neither = ledger_config(tmp_path)
    assert run(["ledger", "--config", str(neither)]) == 2
    assert run(["ledger"]) == 2
    bad_key = ledger_config(tmp_path, rho_tau=rho, extras=1)
    assert run(["ledger", "--config", str(bad_key)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["rho0", "h0", "h_tau", "rho_tau"])
def test_ledger_hermiticity_error_names_the_config_key(tmp_path, capsys, key):
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    skew = matrix_to_json(np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex))
    path = ledger_config(tmp_path, **{"rho_tau": rho, key: skew})
    assert run(["ledger", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["detail"].startswith(f"ledger config {key}: hermiticity defect")


def test_ledger_state_errors_keep_their_wording(tmp_path, capsys):
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    for key, bad, detail in (("rho0", np.diag([0.6, 0.7]), "ledger config rho0: trace"),
                             ("rho_tau", np.diag([1.2, -0.2]), "ledger config rho_tau: smallest eigenvalue")):
        path = ledger_config(tmp_path, **{"rho_tau": rho, key: matrix_to_json(bad.astype(complex))})
        assert run(["ledger", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["detail"].startswith(detail)


def _cli_in_a_child(*args, cwd=None):
    """``qledger *args`` in a fresh interpreter, whose stderr shows any
    warning: (exit code, stdout, stderr lines)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qledger

    src = str(Path(qledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "qledger.cli", *args],
                          env=env, capture_output=True, text=True, cwd=cwd)
    return done.returncode, done.stdout, done.stderr.splitlines()


def _ledger_in_a_child(path):
    """``qledger ledger --config path`` in a fresh interpreter."""
    return _cli_in_a_child("ledger", "--config", str(path))


def test_ledger_failure_prints_one_json_line_and_no_warning(tmp_path):
    """A finite rho0 whose trace overflows is a validation error: stderr holds
    its JSON object alone, no numpy warning before it."""
    big = np.diag([1.7e308, -1.7e308, 0.0, 0.0, 1.7e308, -1.7e308, 0.0, 0.0]).astype(complex)
    path = ledger_config(tmp_path, rho0=matrix_to_json(big), h0=matrix_to_json(np.eye(8, dtype=complex)),
                         rho_tau=matrix_to_json(np.diag(np.eye(8)[0]).astype(complex)))
    code, _, lines = _ledger_in_a_child(path)
    assert code == 2
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "validation",
                                    "detail": "ledger config rho0: trace (nan+0j) deviates from 1 beyond 1e-10"}


@pytest.mark.parametrize("beta, detail", [
    (1e307, "beta = 1e+307 times the spectral span 100 overflows"),
    (1e-320, "deltaWf, residual_eq7 not finite at beta = 9.99989e-321"),
])
def test_ledger_beta_that_leaves_the_float_range_is_a_numeric_error(tmp_path, beta, detail):
    """An extreme beta overflows inside the ledger (beta times the spectral
    span, or the entropies over beta): exit 3, one JSON line on stderr and
    nothing on stdout, not NaN fields with exit 0."""
    path = ledger_config(tmp_path, beta=beta, rho0=matrix_to_json(np.eye(2, dtype=complex) / 2),
                         h0=matrix_to_json(np.diag([0.0, 100.0]).astype(complex)),
                         rho_tau=matrix_to_json(np.diag([0.6, 0.4]).astype(complex)))
    code, out, lines = _ledger_in_a_child(path)
    assert (code, out) == (3, "")
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "numeric", "detail": f"first_law_ledger: {detail}; "
                                    "rescale beta or the Hamiltonians"}


def test_ledger_never_forms_beta_times_the_ground_energy(tmp_path):
    """beta times the ground energy overflows where beta times the spectral
    span does not; the ledger has no use for ln Z, so stderr stays empty and
    stdout holds the ledger it printed when ln Z was formed (and warned)."""
    h = matrix_to_json(np.diag([1e300, 1.000000000000001e300]).astype(complex))
    path = ledger_config(tmp_path, beta=1e10, rho0=matrix_to_json(np.eye(2, dtype=complex) / 2), h0=h, h_tau=h,
                         rho_tau=matrix_to_json(np.diag([0.6, 0.4]).astype(complex)))
    code, out, lines = _ledger_in_a_child(path)
    assert (code, lines) == (0, [])
    e, s_rho = -1.487016908477783e+284, -0.020135513550688766
    assert out == json.dumps({
        "deltaE": e, "deltaWe": 0.0, "deltaWf": e, "adiabaticWork": 0.0, "operationalHeat": e, "heat": e,
        "deltaS_rho": s_rho, "deltaS_gibbs": 0.0, "deltaS_ir": 8.922101450866698e+293,
        "deltaS_r": 1.487016908477783e+294, "residual_eq2": 0.0, "residual_eq7": 0.0,
    }, indent=2) + "\n"


@pytest.mark.parametrize("overrides, detail", [
    (("t_max=1e-320", "steps=4"), "measure_series: I, P, P_c, P_i not finite at beta = 0.1, dt = 2.49997e-321; "
                                  "lengthen the time step, or rescale beta or the Hamiltonian"),
    (("omega0=1e300", "beta=1e10"), "measure_series: beta = 1e+10 times the spectral span 1e+300 overflows; "
                                    "rescale beta or the Hamiltonians"),
])
def test_example_with_a_non_finite_measure_is_a_numeric_error(tmp_path, overrides, detail):
    """A grid step or a beta that takes a measure out of the float range: exit
    3, one JSON line on stderr and no warning, nothing on stdout and no CSV."""
    args = [arg for item in overrides for arg in ("--override", item)]
    code, out, lines = _cli_in_a_child("example1", *args, "--svg", "e1.svg", cwd=tmp_path)
    assert (code, out, list(tmp_path.iterdir())) == (3, "", [])
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "numeric", "detail": detail}


def test_ledger_gates_each_config_matrix_once(tmp_path, capsys, gates):
    rng = np.random.default_rng(241)
    h0, h1 = (random_hermitian(rng, 3).matrix for _ in range(2))
    r0, r1 = (random_density(rng, 3).matrix for _ in range(2))
    gates.clear()
    path = ledger_config(tmp_path, rho0=matrix_to_json(r0), h0=matrix_to_json(h0),
                         h_tau=matrix_to_json(h1), rho_tau=matrix_to_json(r1))
    assert run(["ledger", "--config", str(path)]) == 0
    assert gates == [f"ledger config {key}" for key in ("rho0", "h0", "h_tau", "rho_tau")]
    # through a channel, its output is one more operator
    gates.clear()
    path = ledger_config(tmp_path, channel=[matrix_to_json(np.eye(2, dtype=complex))])
    assert run(["ledger", "--config", str(path)]) == 0
    assert gates == ["ledger config rho0", "ledger config h0", "HermitianOperator"]
    capsys.readouterr()


def test_ledger_solves_a_wide_process_in_one_stack(tmp_path, capsys, solves, stack_solves):
    """At d = 32, rho0, h0, h_tau and rho_tau make one stack of four and no
    single solve, and the output is the ledger of the same arrays; through a
    channel with h_tau left out, rho0, h0 and the channel's output make one
    stack of three."""
    rng = np.random.default_rng(240)
    h0, h1 = (random_hermitian(rng, 32).matrix for _ in range(2))
    r0, r1 = (random_density(rng, 32).matrix for _ in range(2))
    kraus, _ = np.linalg.qr(rng.normal(size=(96, 32)) + 1j * rng.normal(size=(96, 32)))
    solves.clear()
    stack_solves.clear()
    path = ledger_config(tmp_path, beta=0.3, rho0=matrix_to_json(r0), h0=matrix_to_json(h0),
                         h_tau=matrix_to_json(h1), rho_tau=matrix_to_json(r1))
    assert run(["ledger", "--config", str(path)]) == 0
    assert stack_solves == [(4, 32)] and solves == []
    json_arrays = [matrix_from_json(matrix_to_json(m)) for m in (r0, h0, r1, h1)]
    assert capsys.readouterr().out == first_law_ledger(*json_arrays, 0.3).to_json() + "\n"

    stack_solves.clear()
    path = ledger_config(tmp_path, beta=0.3, rho0=matrix_to_json(r0), h0=matrix_to_json(h0),
                         channel=[matrix_to_json(kraus[32 * k : 32 * (k + 1)]) for k in range(3)])
    assert run(["ledger", "--config", str(path)]) == 0
    assert stack_solves == [(3, 32)] and solves == []
    capsys.readouterr()


def test_ledger_beta_beyond_float_range(tmp_path, capsys):
    """A JSON integer beta too large for a float is a validation error."""
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    path = ledger_config(tmp_path, rho_tau=rho, beta=10**400)
    assert run(["ledger", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "beta must be a positive finite real number" in err["detail"]


# ---------------------------------------------------------------------------
# audit subcommand

def test_audit_passes_on_small_sweep(capsys):
    assert run(["audit", "--count", "40", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "contractivity" in out


def test_audit_counterexample_mode(capsys):
    assert run(["audit", "--expect-violation"]) == 0
    out = capsys.readouterr().out
    assert "negative irreversible entropy" in out


def _damp_cases(monkeypatch, chosen: dict) -> None:
    """Give each chosen case (index -> its phase draws) the channel of
    ``--expect-violation``, ground damping of strength 1/2, wherever a channel
    is built: one at a time (``sampling._channel_from``) or a stack at a time
    (``sampling._gibbs_preserving_kraus``, padded with zero operators)."""
    def is_chosen(angles):
        return any(np.array_equal(angles, a) for a in chosen.values())

    one = sampling._channel_from

    def channel_from(spec, draws):
        if is_chosen(draws[1]):
            return sampling.ground_damping_channel(len(draws[1]), 0.5)
        return one(spec, draws)

    monkeypatch.setattr(sampling, "_channel_from", channel_from)
    stacked = getattr(sampling, "_gibbs_preserving_kraus", None)
    if stacked is None:
        return

    def kraus_stack(v, pops, weights, angles):
        kraus = stacked(v, pops, weights, angles)
        d = pops.shape[-1]
        for row in np.ndindex(angles.shape[:-1]):
            if is_chosen(angles[row]):
                kraus[row] = 0.0
                kraus[row][:d] = sampling.ground_damping_channel(d, 0.5)._stack
        return kraus

    monkeypatch.setattr(sampling, "_gibbs_preserving_kraus", kraus_stack)


def test_audit_reports_violations_in_case_order(capsys, monkeypatch, channel_draws):
    """Damped cases in three dimension groups of one block, whose groups come
    in another order than the cases (d = 4 first, at case 0): each fails as
    contractivity, listed in case order, and the first names the case."""
    groups = cli._audit_groups(np.random.default_rng(7), 40)
    dims = {i: h.shape[-1] for idx, _, (hs, _, _), *_ in groups for i, h in zip(idx, hs)}
    chosen = {3: 2, 13: 4, 29: 3}
    assert {i: dims[i] for i in chosen} == chosen and dims[0] == 4
    _damp_cases(monkeypatch, {i: channel_draws[i][1] for i in chosen})
    assert run(["audit", "--count", "40", "--seed", "7"]) == 4
    captured = capsys.readouterr()
    fails = [line.split()[2:4] for line in captured.out.splitlines() if line.startswith("audit: FAIL")]
    assert fails == [[f"case={i}", "kind=contractivity"] for i in (3, 13, 29)]
    assert json.loads(captured.err) == {
        "error": "property",
        "detail": "3 violation(s) in 40 cases; reproduce with --seed 7 (first failing case 3)",
    }


def test_audit_checks_each_stacked_channel(capsys, monkeypatch):
    """Kraus operators that are not complete stop the audit with the
    channel's own message, exit 2."""
    build = sampling._gibbs_preserving_kraus
    monkeypatch.setattr(sampling, "_gibbs_preserving_kraus", lambda *args: 1.001 * build(*args))
    assert run(["audit", "--count", "5", "--seed", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["detail"].startswith("QuantumChannel: completeness defect 2.001e-03 exceeds 1e-10")


def test_audit_zero_count(capsys):
    assert run(["audit", "--count", "0"]) == 0
    capsys.readouterr()


def test_audit_negative_count(capsys):
    assert run(["audit", "--count", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "detail": "audit: count must be >= 0"}


def test_audit_negative_seed(capsys):
    assert run(["audit", "--count", "3", "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "detail": "audit: seed must be >= 0"}


def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys):
    rho = matrix_to_json(np.diag([0.3, 0.7]).astype(complex))
    path = ledger_config(tmp_path, rho_tau=rho)
    for argv in (["ledger", "--config", str(path), "--override", "beta=2"],
                 ["audit", "--count", "0", "--svg", str(tmp_path / "a.svg")],
                 ["example1", "--count", "5"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        run([])
    capsys.readouterr()
