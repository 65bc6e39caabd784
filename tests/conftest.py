"""Shared fixtures."""

import pytest

import qledger
from qledger import qcore


@pytest.fixture
def solves(monkeypatch) -> list:
    """The dimension of every ``_jacobi`` call, through every module that
    binds the solver, from the start of the test; clear it to restart."""
    calls = []
    solve = qcore._jacobi

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return solve(a, *args, **kwargs)

    for mod in vars(qledger).values():
        if getattr(mod, "_jacobi", None) is solve:
            monkeypatch.setattr(mod, "_jacobi", counted)
    return calls
