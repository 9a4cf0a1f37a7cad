"""The library depends on numpy alone; scipy and the test tools are extras.
The CLI loads the Hill layer only in the commands that use it, the
expression language only for custom models, and numpy.ma and numpy.typing
never.  Each error's class decides its exit code and is caught by name or
carries fields of its own, and every exported name has a user outside the
tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hfstab").glob("*.py"))
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


PROBE = re.compile(r"hfstab\.(\w+):(\w+)")


def _references(path: Path) -> set[str]:
    """What ``path`` references by name, as ``module.name``: an import
    from the module (``from hfstab.m import name`` or ``from .m
    import name``), an attribute ``m.name``, a probe string such as
    ``"hfstab.hill:assemble"``, and, in the module's own file, a load of
    ``name``."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            refs.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):   # m.name or hfstab.m.name
            owner = node.value
            module = getattr(owner, "attr", getattr(owner, "id", None))
            refs.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(".".join(m) for m in PROBE.findall(node.value))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and path.parent.name == "hfstab"):
            refs.add(f"{path.stem}.{node.id}")
    return refs


def test_every_exported_name_has_a_user_outside_the_tests():
    # code kept only for the tests belongs in tests/: each name in an
    # __all__ must be referenced from src/, scripts/ or perfbench/ by an
    # import, an attribute, a probe string or a load in its own module
    refs = set().union(*(_references(path)
                         for folder in ("src", "scripts", "perfbench")
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unused = []
    for path in SRC:
        module = importlib.import_module(
            "hfstab" if path.stem == "__init__" else f"hfstab.{path.stem}")
        unused += [f"{path.stem}.{name}"
                   for name in getattr(module, "__all__", ())
                   if f"{path.stem}.{name}" not in refs]
    assert unused == []


def _fresh_interpreter(code: str) -> str:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


LOADED = ("print(sorted(m for m in ('hfstab.dsl', 'hfstab.hill', "
          "'hfstab.waves') if m in sys.modules))")


def test_cli_import_leaves_out_the_hill_layer():
    # analyze and curves build no wave: hill and waves load only in the
    # commands that use them, and dsl only for a custom model
    assert _fresh_interpreter("import sys, hfstab.cli; " + LOADED) == "[]\n"


def test_no_command_loads_numpy_ma_or_numpy_typing():
    # numpy.ma (which np.unique loads) costs 16-18 ms and about 1.25 MB per
    # start; numpy.typing serves annotations only
    code = ("import sys, hfstab.cli; from hfstab import hill; "
            "hill.build_mu_grid(hill.MuGridSpec(count=16, windows=(0.2,))); "
            "print(sorted(m for m in ('numpy.ma', 'numpy.typing') "
            "if m in sys.modules))")
    assert _fresh_interpreter(code) == "[]\n"


def test_only_a_custom_model_loads_the_dsl(tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"model": {"kind": "scalar", "omega1": "k^3"}}')
    runs = {"--model water-waves": "[]\n",
            f"--config {config}": "['hfstab.dsl']\n"}
    for flags, loaded in runs.items():
        argv = ["analyze", *flags.split(), "--n-max", "4",
                "--out", str(tmp_path / "report.json")]
        assert _fresh_interpreter(
            f"import sys; from hfstab import cli; "
            f"assert cli.main({argv!r}) == 0; " + LOADED) == loaded


def _error_classes() -> list[type]:
    """The exception classes defined in src/hfstab, warnings left out (they
    are warned, not raised)."""
    errors = []
    for path in SRC:
        module = importlib.import_module(
            "hfstab" if path.stem == "__init__" else f"hfstab.{path.stem}")
        errors += [cls for cls in vars(module).values()
                   if isinstance(cls, type) and issubclass(cls, Exception)
                   and not issubclass(cls, Warning)
                   and cls.__module__ == module.__name__]
    return errors


def test_every_error_class_has_one_exit_code():
    # NumericalError exits 3, ModelError and ConfigError exit 2: a class
    # under neither would end in a traceback, one under both is ambiguous
    from hfstab.config import ConfigError
    from hfstab.models import ModelError, NumericalError
    errors = _error_classes()
    assert {ModelError, NumericalError, ConfigError} <= set(errors)
    unmapped = [cls.__qualname__ for cls in errors
                if issubclass(cls, NumericalError)
                == issubclass(cls, (ModelError, ConfigError))]
    assert unmapped == []


def test_every_error_class_is_caught_by_name_or_carries_fields():
    # a class that no except clause outside the tests names, and that adds
    # no fields to its base (as ParseError's offset does), only renames
    # the base
    caught = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ExceptHandler) and node.type:
                    types = getattr(node.type, "elts", [node.type])
                    caught |= {getattr(t, "attr", getattr(t, "id", None))
                               for t in types}
    idle = [cls.__qualname__ for cls in _error_classes()
            if cls.__name__ not in caught and "__init__" not in vars(cls)]
    assert idle == []
