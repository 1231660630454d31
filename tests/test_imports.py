"""Checks on what importing the package offers and pulls in, the latter
on fresh interpreters, and on what running the CLI costs the process."""

import ast
import importlib
import os
import pkgutil
import platform
import re
import resource
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
seen["numpy loaded by run_trials"] = "numpy" in sys.modules
seen["same object"] = run_trials is pkg.montecarlo.run_trials
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
    # math; numpy is loaded when a Monte-Carlo name is first read
    seen = ast.literal_eval(_fresh(["-c", _LAZY_PROBE]).stdout.strip())
    assert seen == {
        "import": [],
        "closed forms": [],
        "numpy loaded by run_trials": True,
        "same object": True,
        "not in dir": [],
        "unknown name": "AttributeError",
        "unbound by star import": [],
    }


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
    # numpy must stay behind the package's lazy montecarlo names: only
    # montecarlo imports it, __init__ never imports montecarlo at module
    # level, and the lazy names are montecarlo's public ones
    package = SRC / "d2d_secrecy"
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    numpy_users = [
        name
        for name, tree in trees.items()
        if any(m.split(".")[0] == "numpy" for m in _imported_modules(tree, into_functions=True))
    ]
    assert numpy_users == ["montecarlo.py"]
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
    assert sorted(lazy) == sorted(set(montecarlo.__all__) - {"trial_outcomes"})


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_cli_reuses_batch_memory():
    # 4 and 16 batches of 65 536 trials: with glibc's default trimming each
    # extra batch faulted about 200 pages back in (2 300 for the 12), with
    # the freed arrays kept the count barely moves
    faults = []
    for trials in (4 << 16, 16 << 16):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        _fresh(["-m", "d2d_secrecy.cli", "mc-validate", "--d", "0.6", "--r-g", "0.79",
                "--trials", str(trials), "--seed", "1"])
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert faults[1] - faults[0] < 200, faults


def _unused_names(path):
    # names a module imports but neither uses nor re-exports in __all__, and
    # that a function binds but never reads ("_" drops a value on purpose)
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    unread = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [name for name in ast.walk(node) if isinstance(name, ast.Name)]
            read = {name.id for name in names if isinstance(name.ctx, ast.Load)}
            unread.update((name.id, name.lineno) for name in names
                          if isinstance(name.ctx, ast.Store) and name.id not in read | {"_"})
    unused = {(name, line) for name, line in imported.items() if name not in used | exported}
    return sorted(f"{path.name}:{line}: {name}" for name, line in unused | unread)


def test_no_unused_imports():
    # no linter is installed, so this stands in for the rules on unused
    # imports and on locals assigned but never read
    root = SRC.parent
    paths = sorted((SRC / "d2d_secrecy").glob("*.py")) + sorted(
        (root / "tests").glob("*.py")
    )
    assert [hit for path in paths for hit in _unused_names(path)] == []


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
