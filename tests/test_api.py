"""The public surface: every ``__all__`` entry and package re-export
resolves to a real object, the package's modules import each other
without a cycle, and the README's library quick start runs."""

import ast
import contextlib
import importlib
import io
import pkgutil
import re
import types
from fractions import Fraction
from pathlib import Path

import netexposure


def _modules():
    for info in pkgutil.iter_modules(netexposure.__path__):
        yield importlib.import_module(f"netexposure.{info.name}")


def test_every_all_entry_resolves():
    for module in _modules():
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_reexports_come_from_a_module_all():
    public = {}
    for module in _modules():
        for name in getattr(module, "__all__", []):
            public[name] = getattr(module, name)
    for name, value in vars(netexposure).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert public.get(name) is value, name


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules that a module imports anywhere, function bodies
    included: ``from .x import y`` and ``from . import x``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_module_import_graph_is_acyclic():
    root = Path(netexposure.__file__).parent
    graph = {p.stem: _relative_imports(p) for p in root.glob("*.py")}
    assert set(graph) >= {"charfn", "transforms", "exposure", "cli"}
    done, on_path = set(), []

    def visit(module):
        assert module not in on_path, " -> ".join(on_path + [module])
        if module in done or module not in graph:
            return
        on_path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        on_path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, namespace)
    report, mc = namespace["report"], namespace["mc"]
    assert report.market_total_exact == Fraction(3, 2)
    assert abs(mc.estimate - 1.5) <= 4 * mc.stderr
    assert out.getvalue().splitlines()[-1] == repr(mc)
