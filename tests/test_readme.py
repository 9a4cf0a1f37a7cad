"""The README's examples run, and the hfstab names it and the sources'
documentation cite exist."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SOURCES = sorted((ROOT / "src" / "hfstab").glob("*.py"))
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)
MODULES = ("cli", "collisions", "config", "dsl", "hill", "krein", "models",
           "report", "waves")


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index + 1}",
                   "exec")
    exec(code, {})


def _exists(owner: str, name: str) -> bool | None:
    """Whether ``owner.name`` exists, for an hfstab module or class owner;
    None when the owner is not an hfstab name.  A capitalised owner cites a
    class, so one that names no hfstab class is missing."""
    if owner in MODULES:
        return hasattr(importlib.import_module(f"hfstab.{owner}"), name)
    for module in MODULES:
        cls = getattr(importlib.import_module(f"hfstab.{module}"), owner, None)
        if isinstance(cls, type):
            return (hasattr(cls, name)
                    or name in getattr(cls, "__dataclass_fields__", {}))
    return False if owner[:1].isupper() else None


def _missing(text: str, pattern: str) -> list[str]:
    """The ``owner.name`` pairs that ``pattern`` finds in ``text`` and that
    do not exist; at least one found pair must name hfstab."""
    checked = {pair: _exists(*pair) for pair in re.findall(pattern, text)}
    assert any(found is not None for found in checked.values())
    return [f"{o}.{n}" for (o, n), found in sorted(checked.items())
            if found is False]


def test_cited_names_exist():
    # every `module.name` or `Class.attribute` at the start of a code span
    assert _missing(README, r"`(\w+)\.(\w+)\b") == []


def test_names_cited_in_the_sources_exist():
    # every ``module.name`` or ``Class.attribute`` span in the package's
    # docstrings and comments
    text = "".join(path.read_text() for path in SOURCES)
    assert _missing(text, r"``(\w+)\.(\w+)\b") == []
