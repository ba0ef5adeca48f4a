import ast
import importlib
import pkgutil
from pathlib import Path

import polaron_lab

ROOT = Path(polaron_lab.__file__).resolve().parent
# the Dirac-Frenkel certificate's helpers, which the package has not adopted yet
AWAITING_A_CALLER = {"make_defect_evaluator", "df_error_integral"}


def _references(tree) -> set:
    """Identifiers a module uses (Name ids, attribute names, imported names), each name
    left out inside a function or class definition of the same name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if name is not None and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return found


def _package_modules():
    return [
        importlib.import_module(f"polaron_lab.{info.name}")
        for info in pkgutil.iter_modules(polaron_lab.__path__)
    ]


class TestExports:
    def test_package_imports_only_names_its_modules_export(self):
        tree = ast.parse(Path(polaron_lab.__file__).read_text())
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert imports
        for node in imports:
            module = importlib.import_module(f"polaron_lab.{node.module}")
            missing = [alias.name for alias in node.names if alias.name not in module.__all__]
            assert not missing, f"{node.module}.__all__ lacks {missing}"

    def test_every_exported_name_resolves(self):
        for module in _package_modules():
            unresolved = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
            assert not unresolved, f"{module.__name__}.__all__ names missing {unresolved}"

    def test_every_exported_name_has_a_caller_outside_tests(self):
        # the package's own re-exports are not callers
        sources = [p for p in ROOT.glob("*.py") if p.name != "__init__.py"]
        sources += sorted((ROOT.parents[1] / "demos").glob("*.py"))
        used = set().union(*(_references(ast.parse(p.read_text())) for p in sources))
        modules = _package_modules()
        exported = {name for module in modules for name in getattr(module, "__all__", ())}
        assert sorted(exported - used - AWAITING_A_CALLER) == []
