"""Each rule of the value objects is written in one place: arrays are frozen
by ``qcore._frozen`` (or by the producer that made them), finiteness and
unit trace are reported by the ``qcore`` gate alone, and spectra are
computed in ``_eig`` alone."""

import ast
import inspect
import pkgutil
import textwrap
from collections import Counter
from importlib import import_module

import numpy as np

import qledger

MODULES = [import_module(f"qledger.{m.name}") for m in pkgutil.iter_modules(qledger.__path__)]


def _sites(obj, match) -> Counter:
    """Counts, by ``name.top`` for each top-level function or class in the
    source of the module (or function) ``obj``, of the nodes for which
    ``match`` is true."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    name = obj.__name__.rpartition(".")[2]
    return Counter(f"{name}.{getattr(top, 'name', '<module>')}"
                   for top in tree.body for node in ast.walk(top) if match(node))


def _package_sites(match, skip=()) -> Counter:
    return sum((_sites(m, match) for m in MODULES if m not in skip), Counter())


def _setflags(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"


def _gate_text(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(text in node.value for text in ("entries must be finite", "deviates from 1")))


def test_arrays_are_frozen_by_frozen_or_by_the_producer_that_made_them():
    """Every ``.setflags(`` call in the package: ``_frozen``, the two caches
    of solved arrays, and the producers that freeze what they made before a
    value object holds it (so that ``_frozen`` keeps it, not copies)."""
    assert _package_sites(_setflags) == {
        "qcore._frozen": 1, "qcore._seed": 1, "_eig._round_robin": 1,
        "dynamics._lindblad_steps": 2, "dynamics._schrodinger_steps": 2, "dynamics.LindbladSpec": 1,
        "models.run_example1": 2, "measures.measure_series": 1, "measures.read_csv": 1,
    }


# the solver's tolerances and its path rule by dimension
SOLVER_CONSTANTS = {"JACOBI_TOL", "JACOBI_MAX_SWEEPS", "SCALAR_MAX_DIM"}


def _solver_site(node) -> bool:
    """An ``np.linalg.eig*`` call, a definition of a ``_jacobi*`` function,
    or an assignment of a solver constant."""
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Attribute) and f.attr.startswith("eig")
                and getattr(f.value, "attr", None) == "linalg")
    if isinstance(node, ast.FunctionDef):
        return node.name.startswith("_jacobi")
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(getattr(t, "id", None) in SOLVER_CONSTANTS for t in targets)
    return False


def test_the_eigensolvers_live_in_eig_alone():
    """LAPACK's eigensolvers are called, the Jacobi solvers defined and
    their constants set in ``_eig`` and nowhere else."""
    assert _package_sites(_solver_site) == {
        "_eig.<module>": 3, "_eig._jacobi": 1, "_eig._jacobi_stack": 1, "_eig._min_eigvals": 1,
    }


def test_only_the_gate_words_finiteness_and_unit_trace():
    assert _package_sites(_gate_text, skip=(qledger.qcore,)) == {}


def test_the_scans_see_a_site():
    def stray(a):
        a.setflags(write=False)
        JACOBI_TOL = np.linalg.eigvalsh(a)

        def _jacobi_twin():
            return JACOBI_TOL

        raise ValueError("x: entries must be finite")

    assert _sites(stray, _setflags) == _sites(stray, _gate_text) == {"stray.stray": 1}
    assert _sites(stray, _solver_site) == {"stray.stray": 3}
