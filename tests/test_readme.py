"""The README's examples run, and the hfstab names it cites exist."""

import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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
    None when the owner is not an hfstab name."""
    if owner in MODULES:
        return hasattr(importlib.import_module(f"hfstab.{owner}"), name)
    for module in MODULES:
        cls = getattr(importlib.import_module(f"hfstab.{module}"), owner, None)
        if isinstance(cls, type):
            return (hasattr(cls, name)
                    or name in getattr(cls, "__dataclass_fields__", {}))
    return None


def test_cited_names_exist():
    # every `module.name` or `Class.attribute` at the start of a code span
    cited = set(re.findall(r"`(\w+)\.(\w+)\b", README))
    checked = {pair: _exists(*pair) for pair in cited}
    assert any(found is not None for found in checked.values())
    assert [f"{o}.{n}" for (o, n), found in sorted(checked.items())
            if found is False] == []
