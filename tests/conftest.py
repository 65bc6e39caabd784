"""Shared fixtures."""

import pytest

import qledger
from qledger import qcore, sampling


def _recorded(monkeypatch, name: str, record) -> list:
    """The entries ``record(a, *args)`` lists for every call of the qcore
    function ``name`` (its positional arguments), through every module that
    binds it, from the start of the test; clear it to restart."""
    calls = []
    solve = getattr(qcore, name)

    def counted(a, *args, **kwargs):
        calls.extend(record(a, *args))
        return solve(a, *args, **kwargs)

    for mod in vars(qledger).values():
        if getattr(mod, name, None) is solve:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def solves(monkeypatch) -> list:
    """The dimension of every ``_jacobi`` call."""
    return _recorded(monkeypatch, "_jacobi", lambda a, *_: [a.shape[0]])


@pytest.fixture
def stack_solves(monkeypatch) -> list:
    """(B, n) of every ``_jacobi_stack`` call, including the stacks of one
    that ``_jacobi`` makes above ``SCALAR_MAX_DIM``."""
    return _recorded(monkeypatch, "_jacobi_stack", lambda a, *_: [a.shape[:2]])


@pytest.fixture
def gates(monkeypatch) -> list:
    """The name of every matrix gated by ``_as_hermitian``: one per operand
    that passes the hermiticity gate, and one per matrix of a stack gated
    under a tuple of names (``_as_operands``)."""
    return _recorded(monkeypatch, "_as_hermitian", lambda a, name: name if isinstance(name, tuple) else [name])


@pytest.fixture
def channel_draws(monkeypatch) -> list:
    """The (weights, angles) of every ``sampling._channel_draws`` call, in
    call order, from the start of the test; clear it to restart."""
    drawn = []
    draw = sampling._channel_draws

    def recorded(rng, dim):
        drawn.append(draw(rng, dim))
        return drawn[-1]

    monkeypatch.setattr(sampling, "_channel_draws", recorded)
    return drawn
