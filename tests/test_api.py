"""The public surface: every ``__all__`` entry and package re-export
resolves to a real object, the package's modules import each other
without a cycle and use every name they import, the exact path loads no
numpy, one constant owns the default tolerance, and the README's library
quick start runs."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
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


# modules whose load imports no numpy, and the modules that do
NUMPY_FREE = ("__init__", "laws", "market", "io", "exposure", "advantage",
              "cli")
NUMERIC = ("numpy", "netexposure.charfn", "netexposure.transforms",
           "netexposure.mc")


def _load_time_imports(source: str) -> set[str]:
    """Modules that a module's statements import when it loads: all but
    those in function bodies and under ``if TYPE_CHECKING:``. Siblings are
    written ".name"."""
    out = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == (
                "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                out.add(node.module.split(".")[0])
            elif node.module:
                out.add("." + node.module.split(".")[0])
            else:
                out.update("." + alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_exact_path_modules_import_no_numpy_when_they_load():
    # numpy costs more than any Laplace or uniform command; the numeric
    # modules load it, and bind in these modules on first use only
    root = Path(netexposure.__file__).parent
    for stem in NUMPY_FREE:
        imports = _load_time_imports((root / f"{stem}.py").read_text())
        siblings = {name[1:] for name in imports if name.startswith(".")}
        assert "numpy" not in imports, stem
        assert siblings <= set(NUMPY_FREE), (stem, siblings)


def test_load_time_import_check_sees_module_level_imports():
    source = ("import numpy.random as npr\nfrom . import mc\ntry:\n"
              "    from .charfn import x\nexcept ImportError:\n    pass\n"
              "class A:\n    from .io import y\n"
              "def f():\n    from . import transforms\n"
              "if TYPE_CHECKING:\n    from .transforms import z\n")
    assert _load_time_imports(source) == {"numpy", ".mc", ".charfn", ".io"}


def test_exact_commands_load_no_numpy(tmp_path):
    # in a fresh interpreter: analyze and compare-netting on Laplace and
    # uniform markets and every advantage-table; a normal market with
    # directed links then loads the transforms, and not the oracle
    golden = Path(__file__).parent / "data" / "golden"
    laplace = golden / "laplace-12.json"
    uniform = tmp_path / "uniform-12.json"
    uniform.write_text(json.dumps({**json.loads(laplace.read_text()),
                                   "dist": {"type": "uniform",
                                            "half_width": 2.5}}))
    commands = [[*command, "--market", str(path)]
                for path in (laplace, uniform)
                for command in (["analyze"], ["analyze", "--format", "json"],
                                ["compare-netting", "--class", "1"])]
    commands += [["advantage-table", "--dist", law]
                 for law in ("laplace", "uniform", "normal")]
    script = (
        "import contextlib, io, json, sys\n"
        "import netexposure.cli as cli\n"
        f"numeric = {NUMERIC!r}\n"
        "loaded = lambda: [m for m in numeric if m in sys.modules]\n"
        "print(json.dumps([None, 0, loaded()]))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([argv[0], code, loaded()]))\n")
    src = str(Path(netexposure.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(
            commands + [["analyze", "--market",
                         str(golden / "normal-5.json")]])],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    *exact, last = map(json.loads, done.stdout.splitlines())
    assert len(exact) == len(commands) + 1
    for command, code, loaded in exact:
        assert (code, loaded) == (0, []), command
    assert last == ["analyze", 0, list(NUMERIC[:3])]


def _lazy_and_bound_names(source: str) -> tuple[set[str], set[str]]:
    """The names a module-level ``__getattr__`` compares against, and the
    names the module's own statements bind when it loads."""
    lazy, bound = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            lazy = {const.value for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    for const in ast.walk(compare)
                    if isinstance(const, ast.Constant)
                    and isinstance(const.value, str)}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound.update(target.id for target in ast.walk(node)
                         if isinstance(target, ast.Name)
                         and isinstance(target.ctx, ast.Store))
    return lazy, bound


def test_lazy_bindings_are_exactly_the_traced_ones():
    # numpy modules are imported where they are called; a module binds a
    # name of theirs on first access only because the benchmark's tracer
    # wraps that binding, and then for every such binding it lacks
    root = Path(netexposure.__file__).parent
    for stem in ("cli", "exposure", "advantage"):
        lazy, bound = _lazy_and_bound_names((root / f"{stem}.py").read_text())
        traced = {attr for module, attr, _ in trace_targets()
                  if module == f"netexposure.{stem}"}
        assert lazy == traced - bound, stem
        assert lazy, stem


def test_lazy_name_check_reads_the_hook():
    source = ("import x\nfrom .m import a as b\nc: int = 1\nd = e = 2\n"
              "def __getattr__(name):\n    if name not in ('f', 'g'):\n"
              "        raise AttributeError(name)\n    if name == 'f':\n"
              "        return 1\n    return 'h'\n")
    assert _lazy_and_bound_names(source) == (
        {"f", "g"}, {"x", "b", "c", "d", "e", "__getattr__"})


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

    monkeypatch.setattr(transforms, "hilbert_eval", record)
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
