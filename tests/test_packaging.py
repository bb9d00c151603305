"""The packaging metadata names only things that exist in the tree."""
from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_readme_exists():
    assert (ROOT / _project()["readme"]).is_file()


def test_script_targets_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, func = target.partition(":")
        path = SRC.joinpath(*module.split("."))
        source = path.with_suffix(".py")
        if not source.is_file():
            source = path / "__init__.py"
        assert source.is_file(), f"script {name}: no module {module}"
        assert re.search(rf"^def {func}\(", source.read_text(), re.M), (
            f"script {name}: {module} defines no {func}")


def test_runtime_dependencies_are_imported():
    sources = "\n".join(p.read_text() for p in SRC.rglob("*.py"))
    for requirement in _project()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        module = name.lower().replace("-", "_")
        assert re.search(rf"^\s*(import|from)\s+{module}\b", sources, re.M), (
            f"dependency {name} is imported nowhere under src/")


def test_every_exported_name_resolves():
    package = importlib.import_module("fracheat")
    modules = [package] + [
        importlib.import_module(f"fracheat.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ names {name}, which it lacks")


def test_no_scalar_twin():
    """One array function per quantity: no public callable ``f`` lives
    beside an ``f_grid`` in any fracheat module."""
    package = importlib.import_module("fracheat")
    modules = [package] + [
        importlib.import_module(f"fracheat.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)]
    twins = [f"{module.__name__}.{name}"
             for module in modules for name in dir(module)
             if not name.startswith("_")
             and callable(getattr(module, name))
             and hasattr(module, name + "_grid")]
    assert twins == []


def test_oracles_import_and_are_not_collected():
    """The tests' reference implementations import from any test module,
    and hold no file that pytest would collect as tests."""
    from oracles import timelaw
    oracles = ROOT / "tests" / "oracles"
    assert Path(timelaw.__file__).resolve().parent == oracles
    assert not [p.name for p in oracles.rglob("*.py")
                if p.name.startswith("test_") or p.name.endswith("_test.py")]


def test_tracer_keep_alive_imports_have_probes(monkeypatch):
    """An import that ``src`` keeps only because ``bench/tracer.py`` probes
    it by name (marked by a comment naming that file) must name an
    attribute some probe of that module reads; the change that drops the
    probe then drops the import too."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    probed = {(p.module, p.attr)
              for p in importlib.import_module("tracer").PROBES}
    kept = []
    for path in sorted((SRC / "fracheat").glob("*.py")):
        lines = path.read_text().splitlines()
        for marker, line in zip(lines, lines[1:]):
            if marker.startswith("# bench/tracer.py probes"):
                names = re.match(r"from \.\w+ import ([\w, ]+)", line)
                kept += [(path.stem, name.strip())
                         for name in names.group(1).split(",")]
    assert kept, "no import is marked as kept for the tracer"
    assert [k for k in kept if k not in probed] == []


def test_every_private_constant_is_read():
    """No dead knobs: each module-level ``_UPPER_CASE`` constant assigned
    in ``src/fracheat`` is read somewhere in the package."""
    trees = [ast.parse(path.read_text())
             for path in sorted((SRC / "fracheat").glob("*.py"))]
    assigned = {name.id for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
                and re.fullmatch(r"_[A-Z][A-Z0-9_]*", name.id)}
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert assigned, "no private constant found"
    assert sorted(assigned - read) == []


def test_no_function_calls_itself():
    """No recursion: no function defined in ``src/fracheat`` calls itself
    by its own name."""
    recursive = []
    for path in sorted((SRC / "fracheat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                recursive += [
                    f"{path.stem}.{node.name}" for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == node.name]
    assert recursive == []


def test_every_private_definition_is_read(monkeypatch):
    """No dead private code: each module-level ``def _x`` or ``class _X``
    in ``src/fracheat`` is read in its own module, imported by name from
    it, or read as an attribute somewhere in the package, or else wrapped
    by a probe of ``bench/tracer.py`` on that module.  Checked per module,
    so a stale copy left beside a moved function is caught."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    probed = {(p.module, p.attr)
              for p in importlib.import_module("tracer").PROBES}
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "fracheat").glob("*.py"))}
    defined = {(module, node.name) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                read.update((m, node.attr) for m in trees)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module, alias.name)
                            for alias in node.names)
    assert defined, "no private definition found"
    assert sorted(defined - read - probed) == []


def _module_trees() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((SRC / "fracheat").glob("*.py"))}


def test_only_quadrature_builds_gauss_legendre_rules():
    """``quadrature.gauss_legendre`` is the one source of Gauss-Legendre
    rules: no other module names numpy's ``leggauss`` or scipy's
    ``roots_legendre``."""
    builders = {"leggauss", "roots_legendre"}
    found = []
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [getattr(node, "attr", getattr(node, "id", None))])
            found += [(module, name) for name in names
                      if name and name.split(".")[-1] in builders]
    assert [f for f in found if f[0] != "quadrature"] == []


def test_only_quadrature_sets_a_block_size():
    """One block rule: ``quadrature._CHUNK`` is the only module constant
    named ``*_CHUNK`` in ``src/fracheat``."""
    defined = sorted(
        (module, name.id) for module, tree in _module_trees().items()
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.endswith("_CHUNK"))
    assert defined == [("quadrature", "_CHUNK")]
