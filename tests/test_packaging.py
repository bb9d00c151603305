"""The packaging metadata names only things that exist in the tree."""
from __future__ import annotations

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
