import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import polaron_lab

ROOT = Path(polaron_lab.__file__).resolve().parent
# the Dirac-Frenkel certificate's helpers, which the package has not adopted yet
AWAITING_A_CALLER = {"make_defect_evaluator", "df_error_integral"}
# defaults that no call outside tests sets, kept for the reason given with each
UNSET_DEFAULTS_KEPT = {
    # mirrors evolve_stack and dfn_evolve, whose callers set it
    "evolve(sample_interval)",
    # the pair reversibility test starts from a non-stationary label
    "dfn_evolve(z0)",
    # pairs with load_solution(tag), which lp-evolve sets from --init
    "save_solution(tag)",
    # property tests draw forms without a k = 0 mode on 1-d and 2-d grids
    "FormFactor.toy(exponent)",
    # safety code: the dual-evaluation check's tolerance, and the reference solver
    "hartree_energy(rtol)",
    *(
        f"radial_ground_state({name})"
        for name in ("r_cut", "r_max", "n", "max_iter", "mix", "tol")
    ),
}


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


def _sources():
    """The package's modules, its own re-exports left out (they are not callers), and the
    demos."""
    sources = [p for p in ROOT.glob("*.py") if p.name != "__init__.py"]
    return sources + sorted((ROOT.parents[1] / "demos").glob("*.py"))


def _calls(paths) -> dict:
    """Called name -> (number of positional arguments, keyword names) of each call in the files;
    an unpacked ``*args`` or ``**kwargs`` counts as passing every argument of its kind."""
    found = {}
    for node in (node for path in paths for node in ast.walk(ast.parse(path.read_text()))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            n_positional = float("inf") if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            found.setdefault(name, []).append((n_positional, keywords))
    return found


def _exported_functions():
    """(name, plain function, bound) for every exported function and every public method of an
    exported class, looking through classmethod, staticmethod and functools wrappers such as
    ``lru_cache``; ``bound`` says whether a call's receiver fills the first parameter."""
    for module in _package_modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                yield name, inspect.unwrap(obj), False
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                bound = not isinstance(member, staticmethod)
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member, bound


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
        used = set().union(*(_references(ast.parse(p.read_text())) for p in _sources()))
        modules = _package_modules()
        exported = {name for module in modules for name in getattr(module, "__all__", ())}
        assert sorted(exported - used - AWAITING_A_CALLER) == []

    def test_every_default_is_set_outside_tests(self):
        # a default no caller sets is a setting with one value in use: a constant, or deleted
        calls = _calls(_sources())
        unset = set()
        for label, func, bound in _exported_functions():
            parameters = list(inspect.signature(func).parameters.values())[int(bound):]
            for position, param in enumerate(parameters):
                if param.default is inspect.Parameter.empty:
                    continue
                by_position = param.kind is not inspect.Parameter.KEYWORD_ONLY
                if not any(
                    param.name in keywords
                    or None in keywords
                    or (by_position and position < n_positional)
                    for n_positional, keywords in calls.get(func.__name__, ())
                ):
                    unset.add(f"{label}({param.name})")
        assert sorted(unset - UNSET_DEFAULTS_KEPT) == []
        assert sorted(UNSET_DEFAULTS_KEPT - unset) == []
