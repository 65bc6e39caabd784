"""Every state and operator producer returns an exactly Hermitian matrix, and
the ones built from a spectrum or a factor take no BLAS product."""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from qledger import cli, dynamics, measures, qcore, sampling, thermo
from qledger.dynamics import GridSpec, schrodinger_evolve
from qledger.measures import dephase
from qledger.models import Example1Params, Example2Params, run_example1, run_example2
from qledger.qcore import DensityMatrix, apply_channel, matrix_log_hermitian, partial_trace
from qledger.sampling import random_channel, random_density, random_hermitian, random_pure
from qledger.thermo import gibbs_state, passive_state

DIMS = (1, 2, 3, 4, 5, 8, 17)


def _draws(make, count=40):
    """``make(rng, d)`` over ``DIMS``, ``count`` draws each, from one seed."""
    rng = np.random.default_rng(2014)
    return [make(rng, d) for d in DIMS for _ in range(count)]


PRODUCERS = {
    "random_density": lambda: _draws(lambda rng, d: random_density(rng, d).matrix),
    "random_density rank 1": lambda: _draws(lambda rng, d: random_density(rng, d, rank=1).matrix),
    "schrodinger_evolve": lambda: _draws(
        lambda rng, d: schrodinger_evolve(random_hermitian(rng, d), random_pure(rng, d), GridSpec(5.0, 50), 1.0).states,
        count=4,
    ),
    "from_pure": lambda: _draws(lambda rng, d: DensityMatrix.from_pure(random_pure(rng, d)).matrix),
    "gibbs_state": lambda: _draws(lambda rng, d: gibbs_state(random_hermitian(rng, d), rng.uniform(0.1, 5.0)).state.matrix),
    "passive_state": lambda: _draws(lambda rng, d: passive_state(random_density(rng, d), random_hermitian(rng, d)).matrix),
    "dephase": lambda: _draws(lambda rng, d: dephase(random_density(rng, d), random_hermitian(rng, d)).matrix),
    "matrix_log_hermitian": lambda: _draws(lambda rng, d: matrix_log_hermitian(random_density(rng, d))),
    "apply_channel": lambda: _draws(lambda rng, d: apply_channel(random_channel(rng, d), random_density(rng, d)).matrix),
    "partial_trace": lambda: _draws(
        lambda rng, d: partial_trace(random_density(rng, 2 * d), [2, d], [1]).matrix, count=10
    ),
    "run_example1": lambda: [run_example1(Example1Params(steps=2000))[0].states],
    "run_example2 case 1": lambda: [run_example2(Example2Params(case=1))[0].states],
    "run_example2 case 2": lambda: [run_example2(Example2Params(case=2, steps=2000))[0].states],
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_every_producer_is_exactly_hermitian(name):
    for m in PRODUCERS[name]():
        assert np.array_equal(m, m.conj().swapaxes(-1, -2)), name


# the functions that build a matrix from a spectrum or a factor, by module
SYNTHESIS = {
    qcore: ("_mirror", "_synthesize", "matrix_log_hermitian"),
    measures: ("dephase",),
    thermo: ("gibbs_state", "passive_state"),
    sampling: ("random_density",),
    dynamics: ("schrodinger_evolve", "_schrodinger_steps"),
}


def _blas_products(obj, skip=()) -> list[str]:
    """Each ``@``, ``matmul`` or ``dot`` in the source of a function or a
    module, outside the module's top-level functions named in ``skip``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    tree.body = [node for node in tree.body if getattr(node, "name", None) not in skip]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{obj.__name__}:{node.lineno} @")
        elif isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"):
            found.append(f"{obj.__name__}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.Name) and node.id in ("matmul", "dot"):
            found.append(f"{obj.__name__}:{node.lineno} {node.id}")
    return found


def test_synthesis_takes_no_blas_product():
    found = [hit for module, names in SYNTHESIS.items() for name in names
             for hit in _blas_products(getattr(module, name))]
    assert not found, found


def test_thermo_and_cli_take_their_products_from_two_kernels():
    """Every product in ``thermo`` and ``cli`` goes through ``thermo._dot`` (p . w)
    or ``thermo._overlap_weights`` (the eigenbasis overlaps), which hold them all."""
    kernels = ("_dot", "_overlap_weights")
    assert _blas_products(thermo, kernels) + _blas_products(cli) == []
    assert len(_blas_products(thermo)) == 3


def test_the_scan_sees_a_blas_product():
    def product(a, b):
        return a @ b + np.matmul(a, b) + a.dot(b)

    assert len(_blas_products(product)) == 3
