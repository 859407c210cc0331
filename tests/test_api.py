"""Every exported name resolves, and so does every binding the benchmark
traces; no invariant of the package rests on `assert`."""

import ast
import glob
import importlib
import importlib.util
import os
import pkgutil

import pytest

import nilweier

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(nilweier.__path__))


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"nilweier.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"nilweier.{module}.__all__ names missing objects: {missing}"


def test_package_reexports_resolve():
    path = os.path.join(os.path.dirname(nilweier.__file__), "__init__.py")
    tree = ast.parse(open(path, encoding="utf-8").read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"nilweier.{node.module}")
        for alias in node.names:
            assert getattr(nilweier, alias.name) is getattr(mod, alias.name)


def test_benchmark_bindings_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    for span, module_name, attr in tracer.BINDINGS:
        assert callable(_resolve(module_name, attr)), (span, module_name, attr)


def test_benchmark_worker_imports_resolve():
    assert callable(_resolve("nilweier.config", "threads_from_env"))


def test_package_has_no_assert_statements():
    """`python -O` strips assert statements, so no check in the package may be one."""
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(nilweier.__file__), "*.py"))):
        tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
        name = os.path.basename(path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
