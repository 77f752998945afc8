import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gwrange

MODULES = sorted(m.name for m in pkgutil.iter_modules(gwrange.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gwrange.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_no_weighted_choice_in_src():
    # every weighted categorical draw goes through environment._atom_index
    found = []
    for path in sorted(Path(gwrange.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "choice"
                    and (len(node.args) >= 4 or any(k.arg == "p" for k in node.keywords))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
