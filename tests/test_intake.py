"""Matrix operands and states: every site takes them through qcore's gate
(``_gated``, with ``state=True`` for a state) and rejects a bad one under
"<function> <argument>".

Every operand site rejects a non-square, a non-finite and a non-Hermitian
matrix (at the channel, the unit-trace one that a symmetrized Kraus sum
would otherwise pass off as a state); a state site also rejects a trace of
1.3 and an eigenvalue of -0.2.  The ledger reads its matrices through the
JSON wire format, whose decoder rejects the first two kinds itself.
"""

import contextlib
import io
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from qledger import sampling
from qledger.cli import main
from qledger.dynamics import GridSpec, LindbladSpec, lindblad_evolve, schrodinger_evolve
from qledger.measures import MeasureSeries, Trajectory
from qledger.models import Example1Params, Example2Params, example2_build, run_example2
from qledger.qcore import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    QuantumChannel,
    ValidationError,
    _reject,
    apply_channel,
    hermitian_eig,
    matrix_log_hermitian,
    matrix_to_json,
    partial_trace,
    partial_trace_stack,
    tensor,
)
from qledger.svg import line_plot
from qledger.thermo import first_law_ledger, von_neumann_entropy

SM = np.array([[0.0, 1.0], [0.0, 0.0]])
H2 = np.diag([0.0, 1.0])
GRID = GridSpec(1.0, 10)


def _bad(kind: str, d: int) -> np.ndarray:
    """A d x d operand (d x (d + 1) when non-square) with one defect."""
    if kind == "non-square":
        return np.zeros((d, d + 1))
    m = np.eye(d) / d
    if kind == "non-finite":
        m[0, 0] = np.nan
    elif kind == "non-Hermitian":
        m[0, 1] = 0.3  # unit trace; the defect is 0.3
    elif kind == "trace":
        m *= 1.3
    else:  # "eigenvalue": unit trace, one eigenvalue -0.2
        m = np.zeros((d, d))
        m[0, 0], m[1, 1] = 1.2, -0.2
    return m


def _ledger(key: str, tmp_path, m) -> None:
    """The ledger CLI with ``m`` as its ``key``; its error detail re-raised."""
    cfg = {"beta": 1.0, "rho0": np.eye(2) / 2, "h0": H2, "rho_tau": np.eye(2) / 2, key: m}
    path = tmp_path / "process.json"
    path.write_text(json.dumps({k: v if k == "beta" else matrix_to_json(v.astype(complex))
                                for k, v in cfg.items()}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["ledger", "--config", str(path), "--out", str(tmp_path / "led.json")])
    if code == 2:
        raise ValidationError(json.loads(err.getvalue())["detail"])
    assert code == 0


def _trajectory(m, which: str):
    """A three-point Trajectory whose last state or Hamiltonian is ``m``, as a list."""
    good = np.eye(2) / 2 if which == "states" else H2
    ms = [good, good, m]
    states, hams = (ms, H2) if which == "states" else ([np.eye(2) / 2] * 3, ms)
    return Trajectory([0.0, 0.5, 1.0], states, hams, 1.0)


OPERAND = ("non-square", "non-finite", "non-Hermitian")
STATE = OPERAND + ("trace", "eigenvalue")
WIRE_STATE = ("non-Hermitian", "trace", "eigenvalue")

# (the site's prefix, the defects it rejects, the operand's dimension, the
# call with the operand in place)
SITES = [
    ("LindbladSpec hamiltonian", OPERAND, 2, lambda m, _: LindbladSpec(m, [(SM, 0.5)])),
    ("schrodinger_evolve hamiltonian", OPERAND, 2,
     lambda m, _: schrodinger_evolve(m, PureState([1.0, 0.0]), GRID, 1.0)),
    ("lindblad_evolve rho0", STATE, 2, lambda m, _: lindblad_evolve(LindbladSpec(H2, [(SM, 0.5)]), m, GRID, 1.0)),
    ("example2_build initial", STATE, 4, lambda m, _: example2_build(Example2Params(case=2), m)),
    ("example2_build initial", STATE, 4, lambda m, _: run_example2(Example2Params(case=2, steps=100), m)),
    ("apply_channel rho", OPERAND, 2, lambda m, _: apply_channel(QuantumChannel([np.eye(2)]), m)),
    ("matrix_log_hermitian operator", OPERAND, 2, lambda m, _: matrix_log_hermitian(m)),
    ("ledger config rho0", WIRE_STATE, 2, lambda m, tmp: _ledger("rho0", tmp, m)),
    ("ledger config rho_tau", WIRE_STATE, 2, lambda m, tmp: _ledger("rho_tau", tmp, m)),
    ("partial_trace", STATE, 2, lambda m, _: partial_trace(m, [2], [0])),
    ("Trajectory states", OPERAND, 2, lambda m, _: _trajectory(m, "states")),
    ("Trajectory hamiltonians", OPERAND, 2, lambda m, _: _trajectory(m, "hamiltonians")),
]

CASES = [(name, kind, d, call) for name, kinds, d, call in SITES for kind in kinds]


@pytest.mark.parametrize("name, kind, d, call", CASES,
                         ids=[f"{c[0]}-{c[1]}-{k}" for k, c in enumerate(CASES)])
def test_operand_is_gated_under_its_caller(name, kind, d, call, tmp_path):
    call(np.eye(d) / d, tmp_path)
    with pytest.raises(ValidationError, match="^" + re.escape(name + ":")):
        call(_bad(kind, d), tmp_path)


LEDGER_KEYS = ("rho0", "h0", "rho_tau", "h_tau")
LEDGER_OPERANDS = (np.eye(2) / 2, H2, np.diag([0.75, 0.25]), 2 * H2)
LEDGER_DEFECTS = {
    "non-finite": (np.array([[0.5, np.inf], [np.inf, 0.5]]), "{key}: entries must be finite"),
    "non-Hermitian": (np.array([[0.5, 0.3], [0.0, 0.5]]), "{key}: hermiticity defect 3.000e-01 exceeds 1e-12"),
    "non-square": (np.zeros((2, 3)), "{key}: expected a square matrix, got shape (2, 3)"),
    "vector": (np.array([0.5, 0.5]), "{key}: expected a square matrix, got shape (2,)"),
    "stack": (np.stack([np.eye(2) / 2] * 2), "{key}: expected a square matrix, got shape (2, 2, 2)"),
    "mixed dims": (np.eye(3) / 3, ": operands must share one dimension, got {dims}"),
}


@pytest.mark.parametrize("kind", LEDGER_DEFECTS)
@pytest.mark.parametrize("position", range(4), ids=LEDGER_KEYS)
def test_a_faulty_bare_operand_of_a_stacked_gate_is_named_alone(kind, position):
    """The ledger's bare operands pass the gate as one stack; one faulty
    operand in any position gets the message it got when each operand was
    gated alone, word for word, under its own key."""
    bad, message = LEDGER_DEFECTS[kind]
    ops = list(LEDGER_OPERANDS)
    ops[position] = bad
    key = LEDGER_KEYS[position]
    dims = ", ".join(f"{k} {3 if k == key else 2}" for k in LEDGER_KEYS)
    with pytest.raises(ValidationError) as err:
        first_law_ledger(*ops, 1.0)
    assert str(err.value) == "first_law_ledger" + message.format(key=" " + key, dims=dims)


def test_the_first_faulty_bare_operand_in_key_order_is_reported():
    """As when each operand was gated alone in key order: rho0's hermiticity
    defect is reported, not rho_tau's non-finite entry."""
    ops = [LEDGER_DEFECTS["non-Hermitian"][0], H2, LEDGER_DEFECTS["non-finite"][0], [[1.0, 0.0], [0.0]]]
    with pytest.raises(ValidationError, match=r"^first_law_ledger rho0: hermiticity defect 3\.000e-01 exceeds"):
        first_law_ledger(*ops, 1.0)


@pytest.mark.parametrize("which", ["states", "hamiltonians"])
def test_trajectory_rejects_a_list_of_mixed_shapes(which):
    with pytest.raises(ValidationError, match=f"^Trajectory {which}: matrices of mixed shapes"):
        _trajectory(np.eye(3) / 3, which)


def test_apply_channel_reads_no_lower_triangle_into_a_state():
    """The unit-trace non-Hermitian matrix used to come out as a state whose
    off-diagonal was the mean of its two entries."""
    with pytest.raises(ValidationError, match="^apply_channel rho: hermiticity defect 3.000e-01"):
        apply_channel(QuantumChannel([np.eye(2)]), [[0.5, 0.3], [0.0, 0.5]])


@pytest.mark.parametrize(
    "name, call",
    [("hermitian_eig", lambda: hermitian_eig("ab")),
     ("apply_channel rho", lambda: apply_channel(QuantumChannel([np.eye(2)]), [[1, 0], [0]])),
     ("PureState", lambda: PureState([1, [0]])),
     ("QuantumChannel kraus", lambda: QuantumChannel([[[1, 0], [0]]])),
     ("partial_trace", lambda: partial_trace_stack([[1, 0], [0]], [2], [0])),
     ("DensityMatrix.from_pure", lambda: DensityMatrix.from_pure("ab")),
     ("tensor", lambda: tensor("ab"))],
    ids=["non-numeric", "ragged", "pure-state", "kraus", "partial-trace-stack", "from-pure", "tensor"],
)
def test_unreadable_array_is_rejected_under_its_caller(name, call):
    """numpy's own error on coercing a non-numeric or ragged input comes out
    as a ValidationError that names the caller."""
    with pytest.raises(ValidationError, match="^" + re.escape(name + ": expected a regular array of numbers")):
        call()


BIG = 10**400  # an int beyond the float range: float(BIG) raises OverflowError
SIZE_LIMIT = "steps must be within numpy's size limit"


def _series(**columns):
    return MeasureSeries(**({f.name: [0.0, 1.0] for f in fields(MeasureSeries)} | columns))


@pytest.mark.parametrize(
    "message, call",
    [("von_neumann_entropy rho: entries must be finite", lambda _: von_neumann_entropy([[BIG]])),
     ("HermitianOperator: entries must be finite", lambda _: HermitianOperator([[BIG]])),
     ("PureState: amplitudes must be finite", lambda _: PureState([BIG, 0])),
     ("QuantumChannel kraus: entries must be finite", lambda _: QuantumChannel([[[BIG]]])),
     ("tensor: entries must be finite", lambda _: tensor(np.eye(2), [[BIG]])),
     ("partial_trace: entries must be finite", lambda _: partial_trace_stack([[[BIG]]], [1], [0])),
     ("matrix_to_json: entries must be finite", lambda _: matrix_to_json([[BIG]])),
     ("Trajectory: grid times must be finite",
      lambda _: Trajectory([0, 1, BIG], [np.eye(2) / 2] * 3, H2, 1.0)),
     ("MeasureSeries power: entries must be finite", lambda _: _series(power=[0, BIG])),
     ("line_plot: x values must be finite", lambda path: line_plot(path, [0, BIG], [("y", [0, 1])])),
     ("line_plot: curve 'y' has non-finite values", lambda path: line_plot(path, [0, 1], [("y", [BIG, 1])])),
     (f"GridSpec: {SIZE_LIMIT}", lambda _: GridSpec(1.0, BIG)),
     (f"Example1Params: {SIZE_LIMIT}", lambda _: Example1Params(steps=BIG)),
     ("random_channel: n_kraus must be an integer in [1, ",
      lambda _: sampling.random_channel(np.random.default_rng(0), 2, BIG))],
    ids=["entropy", "operator", "pure-state", "kraus", "tensor", "partial-trace-stack", "to-json",
         "trajectory-times", "measure-series", "plot-x", "plot-y", "grid-steps", "example1-steps",
         "kraus-count"],
)
def test_int_beyond_the_float_range_is_rejected_under_its_caller(message, call, tmp_path):
    """Every intake that numpy or float() would hand such an int to says what
    it says of inf, and ``line_plot`` says it before it opens its file."""
    path = tmp_path / "plot.svg"
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        call(path)
    assert not path.exists()



HUGE = 10**5000  # too long for repr: beyond sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "message, call",
    [("GridSpec: steps must be within numpy's size limit", lambda: GridSpec(1.0, HUGE)),
     ("random_channel: n_kraus must be an integer in [1, ",
      lambda: sampling.random_channel(np.random.default_rng(0), 2, HUGE))],
    ids=["grid-steps", "kraus-count"],
)
def test_int_too_long_for_repr_is_rejected_under_its_caller(message, call):
    """Such an int is named by its length: its repr would itself raise a bare
    ValueError."""
    with pytest.raises(ValidationError, match="^" + re.escape(message) + ".*, got an integer of 5001 digits$"):
        call()


@pytest.mark.parametrize("value, digits", [(HUGE, 5001), (HUGE - 1, 5000), (-HUGE, 5001)],
                         ids=["10**5000", "10**5000-1", "-10**5000"])
def test_too_long_int_digit_count(value, digits):
    assert str(_reject("f: x", value, "small")) == f"f: x must be small, got an integer of {digits} digits"
