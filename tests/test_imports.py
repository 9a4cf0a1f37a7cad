"""The library depends on numpy alone; scipy and the test tools are extras."""

import ast
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
