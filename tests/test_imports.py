"""Source hygiene: every module-level import in the library, the tests and
the scripts is used, and every tolerance is enforced by the library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvforge"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, quoted annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree).items() if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    modules += sorted((ROOT / "tests").glob("*.py"))
    modules += sorted((ROOT / "scripts").glob("*.py"))
    assert modules
    unused = [f"{path.parent.name}/{entry}"
              for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_every_tolerance_is_enforced_in_the_library():
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    constants = [target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)]
    assert constants
    used = set()
    for path in SRC.glob("*.py"):
        if path.name not in ("__init__.py", "tolerances.py"):
            used |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in constants if name not in used] == []
