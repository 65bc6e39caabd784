"""The package imports nothing beyond the standard library and numpy, its
cold start loads no network, mail or XML stack, and outside qcore an integer
is checked by hand only where no qcore kind states the rule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qledger


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(Path(qledger.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert not found, found


def test_every_module_level_import_is_used():
    """A name a module imports is read somewhere in it; ``__init__.py`` only
    re-exports, and ``from __future__`` binds nothing."""
    unused = []
    for path in sorted(Path(qledger.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


# the integer rules that qcore's ``_count`` kinds do not state: LindbladSpec's
# index pair must be distinct, and a config key also takes an integral float
INTEGRAL_READERS = {"dynamics.py LindbladSpec", "cli.py _coerce"}


def test_integers_are_read_through_qcore_kinds():
    """Outside qcore, an integer argument is read by a ``_count`` kind of
    ``_scalar``, not checked by hand with ``_integral``."""
    found = set()
    for path in sorted(Path(qledger.__file__).parent.glob("*.py")):
        if path.name == "qcore.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(isinstance(node, ast.Name) and node.id == "_integral" for node in ast.walk(top)):
                found.add(f"{path.name} {getattr(top, 'name', top.lineno)}")
    assert found <= INTEGRAL_READERS, sorted(found - INTEGRAL_READERS)


# the stack that xml.sax.saxutils brings in through urllib.request: with ssl
# it maps OpenSSL, several MB of resident memory in every run
COLD_START_EXCLUDED = ("ssl", "_ssl", "socket", "http", "email", "urllib.request", "xml")


def test_cold_import_loads_no_network_mail_or_xml_stack():
    probe = "import sys; before = set(sys.modules); import qledger.cli; print(*sorted(set(sys.modules) - before))"
    src = str(Path(qledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            check=True).stdout.split()
    assert "qledger.cli" in loaded
    excluded = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in COLD_START_EXCLUDED)]
    assert not excluded, excluded
