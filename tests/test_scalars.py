"""Scalar arguments: every site reads its numbers with qcore's ``_real``,
``_integral`` and ``_complex``, and rejects anything else under its own name.

A bool and a numeric string are rejected everywhere, nan and inf wherever a
real or complex number is read, and a float (integral or not) wherever an
integer is; numpy scalars of the right kind are accepted everywhere.  A list
argument (``partial_trace``'s dims and keep, ``LindbladSpec``'s jumps and
cross_terms, ``QuantumChannel``'s kraus) rejects anything that is not a
sequence under the same name, and accepts a tuple or a numpy array; an
optional one (cross_terms) also takes None.
"""

import math
import re

import numpy as np
import pytest

from qledger import sampling
from qledger.dynamics import GridSpec, LindbladSpec, lindblad_evolve
from qledger.models import Example1Params, Example2Params, example1_pseudomode_oracle, run_example2
from qledger.qcore import (
    HermitianOperator,
    QuantumChannel,
    ValidationError,
    matrix_from_json,
    matrix_log_hermitian,
    partial_trace,
    partial_trace_stack,
)
from qledger.thermo import gibbs_state

SM = np.array([[0.0, 1.0], [0.0, 0.0]])
H2 = np.diag([0.0, 1.0])
H4 = np.diag([0.0, 1.0, 1.0, 2.0])
RHO4 = np.eye(4) / 4
JUMPS4 = [(np.kron(SM, np.eye(2)), 2.0), (np.kron(np.eye(2), SM), 2.0)]


def _rng():
    return np.random.default_rng(7)


def _json(dim=2, re=(1, 0, 0, 1), im=(0, 0, 0, 0)):
    return matrix_from_json({"dim": dim, "re": list(re), "im": list(im)})


def _cross(i=0, j=1, g=1.0):
    return LindbladSpec(H4, JUMPS4, [(i, j, g)])


# (caller and argument, kind, a good value, the call with the value in place);
# every good value is an integer, so numpy scalars of every kind can hold it,
# except at a "sequence" site, where the whole list argument is replaced
# ("sequence or None": an optional list argument)
SITES = [
    ("Example1Params: omega0", "real", 1, lambda v: Example1Params(omega0=v)),
    ("Example1Params: lam", "real", 1, lambda v: Example1Params(lam=v)),
    ("Example1Params: R", "real", 1, lambda v: Example1Params(R=v)),
    ("Example1Params: beta", "real", 1, lambda v: Example1Params(beta=v)),
    ("Example1Params: alpha1", "real", 1, lambda v: Example1Params(alpha1=v)),
    ("Example1Params: alpha2", "real", 1, lambda v: Example1Params(alpha2=v)),
    ("Example1Params: c01", "complex", 1, lambda v: Example1Params(c01=v, c02=0.0)),
    ("Example1Params: c02", "complex", 1, lambda v: Example1Params(c02=v)),
    ("Example1Params: t_max", "real", 2, lambda v: Example1Params(t_max=v)),
    ("Example1Params: steps", "integer", 200, lambda v: Example1Params(steps=v)),
    ("Example2Params: g", "real", 1, lambda v: Example2Params(g=v)),
    ("Example2Params: omega0", "real", 1, lambda v: Example2Params(omega0=v)),
    ("Example2Params: omegap", "real", 2, lambda v: Example2Params(omegap=v)),
    ("Example2Params: gamma", "real", 1, lambda v: Example2Params(gamma=v)),
    ("Example2Params: beta", "real", 1, lambda v: Example2Params(beta=v)),
    ("Example2Params: case", "integer", 2, lambda v: Example2Params(case=v)),
    ("Example2Params: t_max", "real", 2, lambda v: Example2Params(t_max=v)),
    ("Example2Params: steps", "integer", 200, lambda v: Example2Params(steps=v)),
    ("GridSpec: t_max", "real", 2, lambda v: GridSpec(v, 10)),
    ("GridSpec: steps", "integer", 10, lambda v: GridSpec(1.0, v)),
    ("LindbladSpec: jump rate", "real", 1, lambda v: LindbladSpec(H2, [(SM, v)])),
    ("LindbladSpec: cross term indices", "integer", 0, lambda v: _cross(i=v)),
    ("LindbladSpec: cross term indices", "integer", 1, lambda v: _cross(j=v)),
    ("LindbladSpec: cross term rate", "complex", 1, lambda v: _cross(g=v)),
    ("lindblad_evolve: psd_check_every", "integer", 10,
     lambda v: lindblad_evolve(LindbladSpec(H2, [(SM, 0.5)]), np.diag([0.5, 0.5]), GridSpec(1.0, 20), 1.0,
                               psd_check_every=v)),
    ("random_hermitian: dim", "integer", 3, lambda v: sampling.random_hermitian(_rng(), v)),
    ("random_hermitian: scale", "real", 1, lambda v: sampling.random_hermitian(_rng(), 3, v)),
    ("random_density: dim", "integer", 3, lambda v: sampling.random_density(_rng(), v)),
    ("random_density: rank", "integer", 2, lambda v: sampling.random_density(_rng(), 3, rank=v)),
    ("random_pure: dim", "integer", 3, lambda v: sampling.random_pure(_rng(), v)),
    ("random_channel: dim", "integer", 3, lambda v: sampling.random_channel(_rng(), v)),
    ("random_channel: n_kraus", "integer", 2, lambda v: sampling.random_channel(_rng(), 3, v)),
    ("ground_damping_channel: dim", "integer", 2, lambda v: sampling.ground_damping_channel(v, 0.5)),
    ("ground_damping_channel: strength", "real", 1, lambda v: sampling.ground_damping_channel(2, v)),
    ("gibbs_state: beta", "real", 1, lambda v: gibbs_state(H2, v)),
    ("partial_trace: dims", "integer", 2, lambda v: partial_trace(RHO4, [v, 2], [0])),
    ("partial_trace: keep", "integer", 0, lambda v: partial_trace(RHO4, [2, 2], [v])),
    ("partial_trace: dims", "integer", 2, lambda v: partial_trace_stack(RHO4[None], [2, v], [0])),
    ("partial_trace: keep", "integer", 1, lambda v: partial_trace_stack(RHO4[None], [2, 2], [0, v])),
    ("matrix JSON: dim", "integer", 2, lambda v: _json(dim=v)),
    ("matrix JSON: entries", "real", 1, lambda v: _json(re=(v, 0, 0, 1))),
    ("matrix JSON: entries", "real", 0, lambda v: _json(im=(0, 0, v, 0))),
    ("matrix_log_hermitian: floor", "real", 1, lambda v: matrix_log_hermitian(H2, v)),
    ("run_example2: psd_check_every", "integer", 10,
     lambda v: run_example2(Example2Params(case=2, steps=100), psd_check_every=v)),
    ("example1_pseudomode_oracle: psd_check_every", "integer", 10,
     lambda v: example1_pseudomode_oracle(Example1Params(), grid=GridSpec(2.0, 400), psd_check_every=v)),
    ("gibbs_preserving_channel: beta", "real", 1, lambda v: sampling.gibbs_preserving_channel(_rng(), H2, v)),
    ("partial_trace: dims", "sequence", [2, 2], lambda v: partial_trace(RHO4, v, [0])),
    ("partial_trace: keep", "sequence", [0], lambda v: partial_trace(RHO4, [2, 2], v)),
    ("partial_trace: dims", "sequence", [2, 2], lambda v: partial_trace_stack(RHO4[None], v, [0])),
    ("partial_trace: keep", "sequence", [0, 1], lambda v: partial_trace_stack(RHO4[None], [2, 2], v)),
    # a container jump, so that the bare (operator, rate) entry cannot unpack
    ("LindbladSpec: jumps", "sequence", [(HermitianOperator(np.diag([1.0, -1.0])), 1.0)],
     lambda v: LindbladSpec(H2, v)),
    ("LindbladSpec: cross_terms", "sequence or None", [(0, 1, 1)], lambda v: LindbladSpec(H4, JUMPS4, v)),
    ("QuantumChannel kraus", "sequence", [np.eye(2)], lambda v: QuantumChannel(v)),
]


def _rejected(kind: str, good) -> list:
    common = [True, "1", math.nan]
    if kind.startswith("sequence"):  # a bare entry is no sequence
        return common + [good[0], 5] + ([] if kind.endswith("None") else [None])
    if kind == "real":
        return common + [math.inf, -math.inf]
    if kind == "integer":
        return common + [good + 0.5, float(good), math.inf]
    return common + [complex(math.inf, 0.0), complex(0.0, math.nan)]


def _accepted(kind: str, good) -> list:
    if kind.startswith("sequence"):
        return [tuple(good), np.array(good)] + ([None] if kind.endswith("None") else [])
    out = [np.int64(good)]
    if kind != "integer":
        out.append(np.float64(good))
    if kind == "complex":
        out.append(np.complex128(good))
    return out


@pytest.mark.parametrize("name, kind, good, call", SITES,
                         ids=[f"{site[0]}-{k}" for k, site in enumerate(SITES)])
def test_scalar_argument_is_checked_under_its_caller(name, kind, good, call):
    call(good)
    for ok in _accepted(kind, good):
        call(ok)
    for bad in _rejected(kind, good):
        with pytest.raises(ValidationError, match="^" + re.escape(name)):
            call(bad)


def test_accepted_numpy_scalars_change_no_number():
    """A numpy scalar is read as the Python number it holds."""
    assert np.array_equal(_json(re=(np.float64(1.0), np.int64(0), 0, 1)), np.eye(2))
    assert np.array_equal(partial_trace(RHO4, [np.int64(2), 2], [np.int64(1)]).matrix, np.eye(2) / 2)
    a = _cross(g=np.complex128(1.0)).rate_matrix
    assert np.array_equal(a, _cross(g=1.0).rate_matrix) and a[0, 1] == 1.0
    assert Example1Params(steps=np.int64(2000)).steps == 2000


def test_matrix_json_entries_must_be_numbers():
    for bad in (True, False, "1", None, [1.0]):
        with pytest.raises(ValidationError, match="^matrix JSON: entries must be real numbers"):
            _json(re=(1, bad, 0, 1))
    with pytest.raises(ValidationError, match=r"^matrix JSON: entries must be finite"):
        _json(re=(10**400, 0, 0, 1))
    with pytest.raises(ValidationError, match=r"^matrix JSON: re/im must each hold dim\^2 = 4 entries"):
        matrix_from_json({"dim": 2, "re": 1.0, "im": [0, 0, 0, 0]})


def test_partial_trace_names_every_rejected_value():
    message = "partial_trace: dims must be positive integers, got [2.9, 2.1]"
    with pytest.raises(ValidationError, match=re.escape(message)):
        partial_trace(RHO4, [2.9, 2.1], [0])
    with pytest.raises(ValidationError, match="^partial_trace: dims must be positive integers"):
        partial_trace_stack(RHO4[None], [-2, -2], [0])
    # the product is exact: in int64 it would wrap to 4
    message = f"partial_trace: dims [{2**62 + 1}, 4] do not factor dimension 4"
    for call in (partial_trace, lambda r, dims, keep: partial_trace_stack(r[None], dims, keep)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call(RHO4, [2**62 + 1, 4], [0])


def test_gibbs_preserving_channel_names_its_hamiltonian():
    message = "^gibbs_preserving_channel hamiltonian: expected a square matrix"
    with pytest.raises(ValidationError, match=message):
        sampling.gibbs_preserving_channel(_rng(), np.zeros((2, 3)), 1.0)
