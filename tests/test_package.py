"""The package namespace: every exported name is imported from its
submodule on first use; and the package imports only what it declares."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trapquad
from trapquad import inference, trap

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", trapquad.__all__)
def test_name_is_its_submodules_own_object(name):
    module = importlib.import_module(f"trapquad.{trapquad._MODULE_OF[name]}")
    value = getattr(trapquad, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__   # where it is defined


def test_all_is_the_table_without_repeats():
    assert len(set(trapquad.__all__)) == len(trapquad.__all__) == 48
    assert set(trapquad.__all__) <= set(dir(trapquad))
    assert "__version__" in dir(trapquad)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'wigner_9j'"):
        trapquad.wigner_9j
    assert not hasattr(trapquad, "_private")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from trapquad import *", namespace)
    assert {name: namespace[name] for name in trapquad.__all__} == {
        name: getattr(trapquad, name) for name in trapquad.__all__}


def test_inference_reexports_the_extraction():
    for name in ("NoiseModel", "ThetaEstimate", "combine_runs", "extract_theta"):
        assert getattr(inference, name) is getattr(trap, name)


def test_submodule_import_in_a_fresh_process():
    # `angular` is not in the table, so the package's __getattr__ raises and
    # the import system falls back to the submodule
    code = ("import sys\n"
            "from trapquad import angular, trap\n"
            "import trapquad\n"
            "assert trapquad.angular is angular is sys.modules['trapquad.angular']\n"
            "assert trapquad.TrapConfig is trap.TrapConfig\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _import_statements():
    """(file name, node) for every import statement of the package, inside
    functions too."""
    for path in sorted((SRC / "trapquad").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def test_imports_match_declared_dependencies():
    # every import statement against the names in [project] dependencies of
    # pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for _, node in _import_statements():
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"trapquad"}
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party == declared


def test_no_module_imports_a_siblings_private_name():
    # the seams between modules are their public names: effects reads
    # couplings through coupling.amplitudes, never coupling._channel_factors
    private = [f"{name}: {alias.name}" for name, node in _import_statements()
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("trapquad"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
