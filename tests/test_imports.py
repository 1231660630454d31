"""Checks on what importing the package offers and pulls in, the latter
on fresh interpreters, and on what running the CLI costs the process."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import d2d_secrecy
from oracle import REFERENCE

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = ["d2d_secrecy"] + [
    f"d2d_secrecy.{info.name}" for info in pkgutil.iter_modules(d2d_secrecy.__path__)
]


def _fresh(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a name removed from a module but left in an __all__ would otherwise
    # only fail on a star import
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_republishes_each_library_module():
    # each library module's __all__ is its public API; the package exports
    # all of it, as the very objects the module defines, and nothing else
    modules = [
        importlib.import_module(f"d2d_secrecy.{name}")
        for name in ("errors", "model", "optimizer", "specfun", "montecarlo")
    ]
    names = [name for module in modules for name in module.__all__]
    assert sorted(d2d_secrecy.__all__) == sorted(["__version__", *names])
    assert [
        name for module in modules for name in module.__all__
        if getattr(d2d_secrecy, name) is not getattr(module, name)
    ] == []


def test_package_import_loads_no_scipy():
    # importing scipy costs a fresh CLI process about a second, so no
    # module of the package may reach it; nothing under src/ or tests/
    # imports it (test_test_imports_are_declared)
    probe = (
        "import sys, d2d_secrecy, d2d_secrecy.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh(["-c", probe]).stdout.strip() == "[]"


_LAZY_PROBE = f"REFERENCE = {asdict(replace(REFERENCE, d=0.6))!r}\n" + """
import sys
import d2d_secrecy as pkg

def numpy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

seen = {"import": numpy_modules()}
params = pkg.SystemParams(**REFERENCE)
gz = pkg.GuardZoneDesign(r_g=pkg.optimal_guard_radius(params).parameter)
an = pkg.NoiseSplitDesign(gamma=pkg.optimal_power_split(params).parameter)
pkg.lambda_threshold(params)
pkg.selection_function(params)
pkg.critical_distance(params)
for closed_form, design in ((pkg.p_active, gz), (pkg.p_cov_gz, gz), (pkg.p_sec_gz, gz),
                            (pkg.p_cov_an, an), (pkg.p_sec_an, an)):
    closed_form(params, design)
seen["closed forms"] = numpy_modules()
run_trials = pkg.run_trials
seen["numpy loaded by reading run_trials"] = "numpy" in sys.modules
seen["same object"] = run_trials is pkg.montecarlo.run_trials
run_trials(params, [(params.d, gz)], pkg.TrialConfig(n_trials=8, seed=0))
seen["numpy loaded by the first simulation"] = "numpy" in sys.modules
seen["not in dir"] = [n for n in pkg._MONTECARLO_NAMES if n not in dir(pkg)]
try:
    pkg.no_such_name
    seen["unknown name"] = "resolved"
except AttributeError:
    seen["unknown name"] = "AttributeError"
star = {}
exec("from d2d_secrecy import *", star)
seen["unbound by star import"] = [n for n in pkg.__all__ if n not in star]
print(repr(seen))
"""


def test_package_import_defers_numpy_to_first_simulation():
    # the closed forms, the optimizer and the selection rule need only
    # math; a Monte-Carlo name is resolved on first read, and numpy is
    # loaded when something is first simulated
    seen = ast.literal_eval(_fresh(["-c", _LAZY_PROBE]).stdout.strip())
    assert seen == {
        "import": [],
        "closed forms": [],
        "numpy loaded by reading run_trials": False,
        "same object": True,
        "numpy loaded by the first simulation": True,
        "not in dir": [],
        "unknown name": "AttributeError",
        "unbound by star import": [],
    }


def test_montecarlo_import_loads_no_numpy_random():
    # numpy adds about 11 MB resident, numpy.random 6 MB of that; a process
    # that imports the simulation but draws nothing, such as the
    # benchmark's design-grid worker, must load neither, so no module-level
    # code may touch np
    probe = (
        "import sys, d2d_secrecy.cli, d2d_secrecy.montecarlo; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _fresh(["-c", probe]).stdout.strip() == "[]"


_PLANNING = (
    ["analytic", "--d", "0.6", "--r-g", "0.79"],
    ["optimize", "--d", "0.6"],
    ["select", "--d", "0.6"],
    ["sweep-lambda"],
    ["sweep-d"],
)
_SIMULATIONS = (
    ["mc-validate", "--d", "0.6", "--r-g", "0.79", "--trials", "1000"],
    ["sweep-d", "--mc", "1000"],
)

# runs cli.main on each argv of ARGVS in turn and records, after each, its
# exit code and the numpy modules loaded
_CLI_PROBE = """
import contextlib, io, sys
from d2d_secrecy import cli

seen = []
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    seen.append((code, numpy))
print(repr(seen))
"""


def _cli_probe(simulation):
    # the five planning commands, then one simulation, in one fresh
    # interpreter
    argvs = [*_PLANNING, simulation]
    out = _fresh(["-c", f"ARGVS = {argvs!r}\n" + _CLI_PROBE]).stdout
    return ast.literal_eval(out.strip())


@pytest.mark.parametrize("simulation", _SIMULATIONS, ids=["mc-validate", "sweep-d-mc"])
def test_only_a_simulation_loads_numpy(simulation):
    # the planning commands are closed-form arithmetic: numpy costs each
    # about 70 ms and 11 MB resident, so none may load it
    seen = _cli_probe(simulation)
    assert [code for code, _ in seen] == [0] * len(seen)
    assert [numpy for _, numpy in seen[:-1]] == [[]] * len(_PLANNING)
    assert "numpy" in seen[-1][1]


def _imported_modules(tree, into_functions):
    # absolute name of each module an import statement names, relative
    # ones resolved against the package
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "d2d_secrecy." if node.level else ""
            if node.module:
                found.append(prefix + node.module)
            else:
                found += [prefix + alias.name for alias in node.names]
        elif into_functions or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_only_montecarlo_imports_numpy():
    # numpy must stay behind the first simulation: only montecarlo imports
    # it, and only inside a function, never at module level; and behind
    # the package's lazy montecarlo names: __init__ never imports
    # montecarlo at module level, and the lazy names are montecarlo's
    # public ones. No other module reaches a private montecarlo name, so
    # montecarlo alone decides when numpy loads
    package = SRC / "d2d_secrecy"
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}

    def numpy_users(into_functions):
        return [
            name
            for name, tree in trees.items()
            if any(m.split(".")[0] == "numpy"
                   for m in _imported_modules(tree, into_functions=into_functions))
        ]

    assert numpy_users(into_functions=True) == ["montecarlo.py"]
    assert numpy_users(into_functions=False) == []
    init = trees["__init__.py"]
    assert [
        m for m in _imported_modules(init, into_functions=False)
        if m.split(".")[:2] == ["d2d_secrecy", "montecarlo"]
    ] == []
    (lazy,) = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["_MONTECARLO_NAMES"]
    ]
    montecarlo = importlib.import_module("d2d_secrecy.montecarlo")
    assert sorted(lazy) == sorted(montecarlo.__all__)
    private = [
        f"{name}: {alias.name}"
        for name, tree in trees.items()
        if name != "montecarlo.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("montecarlo", "d2d_secrecy.montecarlo")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _unused_names(path):
    # names a module imports but neither uses nor re-exports in __all__, and
    # that a function binds but never reads ("_" drops a value on purpose);
    # with them the module's private top-level definitions and every name
    # it reads, as a name, an attribute or an import. A star import binds
    # its module's __all__, and an __all__ built from other modules' is
    # read off the module itself
    package = "d2d_secrecy" if path.parent.name == "d2d_secrecy" else None
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    unread = set()
    read_anywhere = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            for alias in node.names:
                star = alias.name == "*"
                for name in importlib.import_module(source).__all__ if star else [alias.name]:
                    imported[alias.asname or name] = node.lineno
                    read_anywhere.add(name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
            if isinstance(node.ctx, ast.Load):
                read_anywhere.add(node.id)
        elif isinstance(node, ast.Attribute):
            read_anywhere.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            try:
                exported.update(ast.literal_eval(node.value))
            except ValueError:
                module = package if path.stem == "__init__" else f"{package}.{path.stem}"
                exported.update(importlib.import_module(module).__all__)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [name for name in ast.walk(node) if isinstance(name, ast.Name)]
            read = {name.id for name in names if isinstance(name.ctx, ast.Load)}
            unread.update((name.id, name.lineno) for name in names
                          if isinstance(name.ctx, ast.Store) and name.id not in read | {"_"})
    unused = {(name, line) for name, line in imported.items() if name not in used | exported}
    hits = sorted(f"{path.name}:{line}: {name}" for name, line in unused | unread)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    private = {name: line for name, line in defined.items()
               if name.startswith("_") and not name.startswith("__")}
    return hits, private, read_anywhere


def test_no_unused_imports():
    # no linter is installed, so this stands in for the rules on unused
    # imports and on locals assigned but never read
    root = SRC.parent
    paths = sorted((SRC / "d2d_secrecy").glob("*.py")) + sorted(
        (root / "tests").glob("*.py")
    )
    assert [hit for path in paths for hit in _unused_names(path)[0]] == []


def test_every_private_definition_in_src_is_read():
    # a private module-level function, class or constant of the package
    # that nothing in the package reads is dead code; the tests do not
    # count, as one may still reach code the package left behind
    scans = {path: _unused_names(path) for path in sorted((SRC / "d2d_secrecy").glob("*.py"))}
    read = set().union(*(names for _, _, names in scans.values()))
    assert sum(len(private) for _, private, _ in scans.values()) > 0
    assert [
        f"{path.name}:{line}: {name}"
        for path, (_, private, _) in scans.items()
        for name, line in private.items()
        if name not in read
    ] == []


# bench/ modules that a test puts on sys.path itself
_BENCH_MODULES = {"reference", "tracer", "workloads"}


def _top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {name.split(".")[0] for name in _imported_modules(tree, into_functions=True)}


def _declared_requirements():
    # project names in [project] dependencies and the [test] extra; a
    # regular expression, as tomllib needs Python 3.11
    text = (SRC.parent / "pyproject.toml").read_text()
    names = set()
    for key in ("dependencies", "test"):
        block = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1)
        names.update(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    return {name.lower().replace("-", "_") for name in names}


def test_version_is_declared_once():
    # setuptools reads the version off d2d_secrecy.__version__, so
    # [project] must not write one of its own
    text = (SRC.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S).group(1)
    assert re.search(r"^version\s*=", project, re.M) is None
    assert re.search(r'^dynamic = \[.*"version"', project, re.M)
    assert re.search(r'^version = \{attr = "d2d_secrecy.__version__"\}', text, re.M)


def test_test_imports_are_declared():
    # every third-party module the tests import is a declared requirement,
    # and nothing under src/ or tests/ imports scipy
    root = SRC.parent
    tests = sorted((root / "tests").glob("*.py"))
    local = {path.stem for path in tests} | {"d2d_secrecy"}
    third_party = {
        name
        for path in tests
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name not in local | _BENCH_MODULES
    }
    assert sorted(third_party - _declared_requirements()) == []
    sources = sorted((SRC / "d2d_secrecy").glob("*.py")) + tests
    assert [p.name for p in sources if "scipy" in _top_level_imports(p)] == []
