import ast
import importlib
import pkgutil
from pathlib import Path

import polaron_lab


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
