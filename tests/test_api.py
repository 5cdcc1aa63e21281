"""The public surface: every ``__all__`` entry and package re-export
resolves to a real object, the package's modules import each other
without a cycle and use every name they import, one constant owns the
default tolerance, and the README's library quick start runs."""

import ast
import contextlib
import importlib
import inspect
import io
import math
import pkgutil
import re
import types
from fractions import Fraction
from pathlib import Path

import netexposure
from netexposure import UniformSym, charfn_of, cli, exposure, transforms
from netexposure.transforms import HilbertResult, hilbert_eval
from test_bench_targets import trace_targets


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
    # both ways: a package name is some module's public name, and every
    # module's public name is the package's same object
    public = {}
    for module in _modules():
        for name in getattr(module, "__all__", []):
            assert name not in public, name
            public[name] = getattr(module, name)
    for name, value in vars(netexposure).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert public.get(name) is value, name
    for name, value in public.items():
        assert getattr(netexposure, name, None) is value, name


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


def _unused_imports(source: str) -> set[str]:
    """Names bound by a module-level import that the module never names,
    in code or in its ``__all__``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    named = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "__all__"
                        for t in node.targets)):
            named.update(ast.literal_eval(node.value))
    return imported - named


def test_modules_name_every_import():
    # the benchmark's tracer wraps some bindings in the module whose
    # callers look them up, so those imports stay even where unread
    traced = {(module, attr) for module, attr, _ in trace_targets()}
    root = Path(netexposure.__file__).parent
    for path in sorted(root.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"netexposure.{path.stem}"
        unused = {name for name in _unused_imports(path.read_text())
                  if (module, name) not in traced}
        assert unused == set(), module


def test_unused_import_check_flags_an_unread_name():
    assert _unused_imports("import math\nfrom typing import Callable, "
                           "Sequence\nx: Callable = math.pi\n") == {
        "Sequence"}
    assert _unused_imports("from .a import b\n__all__ = ['b']\n") == set()


def _tol_defaults(source: str):
    """(function, default as written) of every defaulted ``tol``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):],
                          a.defaults),
                     *zip(a.kwonlyargs, a.kw_defaults)]
            yield from ((node.name, ast.unparse(default))
                        for arg, default in pairs
                        if arg.arg == "tol" and default is not None)


def test_one_default_tolerance(monkeypatch):
    # a literal equal to DEFAULT_TOL in its own module compiles to the
    # same constant object, so the source is read as well
    root = Path(netexposure.__file__).parent
    written = {(path.stem, name, default)
               for path in root.glob("*.py")
               for name, default in _tol_defaults(path.read_text())}
    assert {default for _, _, default in written} == {"DEFAULT_TOL"}, written
    for module in _modules():
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                continue
            tol = inspect.signature(obj).parameters.get("tol")
            if tol is not None and tol.default is not tol.empty:
                assert tol.default is transforms.DEFAULT_TOL, (
                    module.__name__, name)
    assert exposure.DEFAULT_TOL is transforms.DEFAULT_TOL
    seen = []

    def record(f, omega, tol, method):
        seen.append(tol)
        return HilbertResult(0j, method, 0.0)

    monkeypatch.setattr(cli, "hilbert_eval", record)
    assert cli.main(["hilbert-eval", "--dist", "uniform", "--omega",
                     "1"]) == 0
    assert seen == [transforms.DEFAULT_TOL]


def test_default_tolerance_answers_the_uniform_transform():
    # H{sin t / t}(1) = 1 - cos 1: the attached closed form at any tol,
    # and the forced principal value within its estimate at the default
    f = charfn_of(UniformSym(1.0))
    want = 1.0 - math.cos(1.0)
    for tol in (1e-7, 1e-8, 1e-13):
        result = hilbert_eval(f, 1.0, tol)
        assert (result.method, result.error) == ("closed-form", 0.0)
        assert abs(result.value - want) <= 1e-15
    pv = hilbert_eval(f, 1.0, method="pv")
    assert pv.method == "pv"
    assert abs(pv.value - want) <= pv.error


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
