"""Shared fixtures."""

import pytest

import qledger
from qledger import qcore


def _recorded(monkeypatch, name: str, record) -> list:
    """``record(a)`` of every call of the qcore solver ``name``, through every
    module that binds it, from the start of the test; clear it to restart."""
    calls = []
    solve = getattr(qcore, name)

    def counted(a, *args, **kwargs):
        calls.append(record(a))
        return solve(a, *args, **kwargs)

    for mod in vars(qledger).values():
        if getattr(mod, name, None) is solve:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def solves(monkeypatch) -> list:
    """The dimension of every ``_jacobi`` call."""
    return _recorded(monkeypatch, "_jacobi", lambda a: a.shape[0])


@pytest.fixture
def stack_solves(monkeypatch) -> list:
    """(B, n) of every ``_jacobi_stack`` call, including the stacks of one
    that ``_jacobi`` makes above ``SCALAR_MAX_DIM``."""
    return _recorded(monkeypatch, "_jacobi_stack", lambda a: a.shape[:2])
