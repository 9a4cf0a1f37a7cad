"""The library depends on numpy alone; scipy and the test tools are extras.
The CLI loads the Hill layer only in the commands that use it."""

import ast
import importlib
import os
import subprocess
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


def test_cli_import_leaves_out_the_hill_layer():
    # analyze, collide and curves build no wave: hill and waves load only
    # in the commands that use them, or once a command has failed
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hfstab.cli; print(sorted("
         "m for m in ('hfstab.hill', 'hfstab.waves') if m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
