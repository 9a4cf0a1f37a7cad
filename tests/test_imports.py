"""The library depends on numpy alone; scipy and the test tools are extras."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "hfstab")
             .glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_src_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    outside = [m for m in found if m.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    # a name that leaves a module must leave its __all__ too (the package
    # and the CLI have none)
    module = importlib.import_module(
        "hfstab" if path.stem == "__init__" else f"hfstab.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{path.name} exports missing names {missing}"
