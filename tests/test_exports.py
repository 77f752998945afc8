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


ENUMERATORS = {"reference_tuple_sum", "enumerate_delta_k"}
ENUMERATION_SITES = {"rangestats.reference_tuple_sum"}


def test_per_tuple_enumeration_only_at_oracle_sites():
    # library sums go through the signature engine; per-tuple enumeration
    # stays in the reference sum (the exact identities built on it live in
    # tests/identity_oracle.py), and the brute-force signature-mean path
    # lists its tuples as arrays
    found = set()
    for path in sorted(Path(gwrange.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            site = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ENUMERATORS:
                        found.add(site)
    assert found - ENUMERATION_SITES == set()


def _imports_scipy_sparse(node):
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.sparse") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return (node.module.startswith("scipy.sparse")
                or node.module == "scipy" and any(a.name == "sparse" for a in node.names))
    return False


def test_scipy_sparse_imported_only_inside_functions():
    # a module-level scipy.sparse import costs every workload its memory,
    # while only the hitting oracle solves a sparse system
    found = []
    for path in sorted(Path(gwrange.__file__).parent.glob("*.py")):
        todo = list(ast.parse(path.read_text()).body)
        while todo:
            node = todo.pop()
            if _imports_scipy_sparse(node):
                found.append(f"{path.name}:{node.lineno}")
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
    assert found == []


def test_walk_kernel_has_no_step_loop():
    # the walk advances all excursions one generation at a time; a while
    # loop in walk.py would be a return of the step-by-step kernel
    path = Path(gwrange.__file__).parent / "walk.py"
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.While)]
    assert found == []


def test_no_tilted_path_matrix_in_src():
    # the tilted-walk estimators run a perpetuity recursion over the steps;
    # a call of the path sampler in the package would bring back the
    # (replicas, steps) potential matrix
    found = []
    for path in sorted(Path(gwrange.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "sample_tilted_walk":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_uniforms_drawn_only_in_atom_index():
    # every uniform block goes through environment._atom_index, which draws
    # it slab by slab; a .random( call elsewhere could hold a whole block
    found = []
    for path in sorted(Path(gwrange.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            site = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "random"):
                    found.append(site)
    assert found == ["environment._atom_index"]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_step_oracle_imported_only_under_tests():
    # the step-by-step walk is a test oracle, never a library or benchmark path
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("bench/**/*.py")]):
        if any(m.split(".")[-1] == "walk_oracle"
               for m in _imported_modules(ast.parse(path.read_text()))):
            found.append(str(path.relative_to(root)))
    assert found == []
    assert "walk_oracle" in {m for m in _imported_modules(
        ast.parse((root / "tests" / "test_walk.py").read_text()))}
