"""Source hygiene: no module imports a name it never uses, defines a private
top-level name it never reads, binds a module-level logger it never reads, or
keeps a private attribute it only writes.

Stdlib ``ast`` scans over the package modules and the test modules.  A name
bound by an import counts as used when the module reads it anywhere, or
lists it in ``__all__``.  Package ``__init__.py`` files re-export what they
import, so they are skipped, and so are ``__future__`` imports.  A private
name is a module-level function, class or constant whose name starts with
one underscore; it counts as read when the module loads it anywhere, so a
helper that a refactor leaves without callers is caught.  A module-level
name bound to a ``getLogger(...)`` call, public or not, is held to the same
rule, so a logger nothing writes to is caught.  A private
instance attribute (``self._name``) is only written when the module stores
it, or mutates it by a bare ``.add``, ``.append`` or ``.discard`` statement,
and loads ``._name`` nowhere else, on any object, so state that nothing
reads is caught.  Only the modules in NUMPY_MODULES import numpy, and each
of them does, so the list can only shrink.  They import it lazily, inside
the functions that compute with it, and the harness imports its process
pool only when it fans out: a fresh interpreter that imports the package
and solves, verifies and plays without those functions loads neither.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for pattern in ("src/diameter_games/*.py", "tests/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)

# The src/ modules that import numpy.  Remove a module once it stops.
NUMPY_MODULES = {"degree_games", "heuristics", "potential_engine"}


def unused_imports(source: str) -> list[str]:
    """Names the module binds by import and never reads, in source order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name, _ in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level `_name` functions, classes and constants the module never loads, in source order."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = _loaded_names(tree)
    return [name for name, _ in sorted(defined.items(), key=lambda kv: kv[1]) if name not in read]


def unread_module_loggers(source: str) -> list[str]:
    """Module-level names bound to a `getLogger(...)` call that the module never loads, in source order."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "getLogger":
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, node.lineno)
    read = _loaded_names(tree)
    return [name for name, _ in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def _loaded_names(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


_MUTATORS = {"add", "append", "discard"}


def write_only_private_attributes(source: str) -> list[str]:
    """Private `self._name` attributes the module stores or mutates and never otherwise loads, in source order.

    A load of `._name` on any object counts as a read; a store counts only on
    `self`, so a test that sets up another object's state is not flagged."""
    tree = ast.parse(source)
    mutated = set()  # the Attribute nodes a bare mutator statement acts on
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in _MUTATORS
        ):
            mutated.add(id(node.value.func.value))
    written: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or name.startswith("__"):
            continue
        if isinstance(node.ctx, ast.Store) or id(node) in mutated:
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                written.setdefault(name, node.lineno)
        else:
            loaded.add(name)
    return [name for name, _ in sorted(written.items(), key=lambda kv: kv[1]) if name not in loaded]


def test_scan_finds_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "print(d)\n"
    )
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_scan_finds_unread_and_keeps_read():
    source = (
        "import re\n"
        "_PATTERN = re.compile('x')\n"
        "_unused_limit: int = 3\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _PATTERN\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Gone:\n"
        "    _inner = 1\n"
        "class Kept:\n"
        "    def _method(self):\n"
        "        return _helper()\n"
    )
    assert unread_private_names(source) == ["_unused_limit", "_orphan", "_Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_logger_scan_finds_unread_and_keeps_read():
    """The first logger is the pattern the CLI once had: bound, never written to."""
    source = (
        "import logging\n"
        "from logging import getLogger\n"
        "log = logging.getLogger('diameter_games.cli')\n"
        "logger: logging.Logger = logging.getLogger(__name__)\n"
        "_quiet = getLogger('quiet')\n"
        "handler = logging.StreamHandler()\n"
        "def main():\n"
        "    logger.debug('ran')\n"
        "    return 0\n"
    )
    assert unread_module_loggers(source) == ["log", "_quiet"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_module_loggers(path):
    assert unread_module_loggers(path.read_text()) == []


def test_attribute_scan_finds_write_only_and_keeps_read():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._stored = 1\n"
        "        self._grown = []\n"
        "        self._seen = set()\n"
        "        self._kept = set()\n"
        "        self._used = []\n"
        "        self._count = 0\n"
        "        self.__mangled = 0\n"
        "    def step(self, x):\n"
        "        self._grown.append(x)\n"
        "        self._seen.discard(x)\n"
        "        self._kept.add(x)\n"
        "        self._count += 1\n"
        "        done = self._used.append(x)\n"
        "        return x in self._kept, done\n"
        "def build(a):\n"
        "    a._set_from_outside = 1\n"
        "    a._grown_outside.append(1)\n"
        "    return a._read_elsewhere\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self._read_elsewhere = 1\n"
    )
    assert write_only_private_attributes(source) == ["_stored", "_grown", "_seen", "_count"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_write_only_private_attributes(path):
    assert write_only_private_attributes(path.read_text()) == []


def top_level_bindings(source: str) -> tuple[set[str], list[str]]:
    """The names a module's top level binds, and its literal `__all__` list."""
    bound: set[str] = set()
    declared: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    declared = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound, declared


def package_imports(source: str) -> set[str]:
    """Names imported `from diameter_games` (the package top level), at any depth."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "diameter_games"
        for alias in node.names
    }


def test_surface_scans_find_bindings_and_package_imports():
    source = (
        '"""Doc."""\n'
        "from .a import b, c as d\n"
        "import os.path\n"
        "__all__ = ['b', 'd']\n"
        "__version__ = '1'\n"
        "def f():\n"
        "    from diameter_games import game_core\n"
        "from diameter_games.harness import run_experiment\n"
        "from diameter_games import solve\n"
    )
    bound = {"b", "d", "os", "__version__", "f", "run_experiment", "solve"}
    assert top_level_bindings(source) == (bound, ["b", "d"])
    assert package_imports(source) == {"game_core", "solve"}


def test_package_binds_its_declared_surface_and_perfbench_imports_only_from_it():
    """__init__.py binds exactly the names in its __all__, plus __version__,
    and every name perfbench imports from the package top level, other than
    a submodule, is in __all__.  perfbench's files are only read."""
    bound, declared = top_level_bindings((ROOT / "src/diameter_games/__init__.py").read_text())
    assert len(declared) == len(set(declared))
    assert bound == set(declared) | {"__version__"}
    submodules = {path.stem for path in ROOT.glob("src/diameter_games/*.py")}
    used = set().union(*(package_imports(path.read_text()) for path in ROOT.glob("perfbench/*.py")))
    assert used - submodules - set(declared) == set()


def imports_numpy(source: str) -> bool:
    """Whether the module imports numpy or a numpy submodule, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            return True
    return False


def test_numpy_scan_finds_every_import_form():
    assert imports_numpy("import numpy as np\n")
    assert imports_numpy("from numpy.linalg import norm\n")
    assert imports_numpy("def f():\n    import os, numpy\n")
    assert not imports_numpy("import numpyro\nfrom .numpy import x\n")


def test_numpy_importers_are_the_allowlist():
    importers = {
        path.stem
        for path in ROOT.glob("src/diameter_games/*.py")
        if imports_numpy(path.read_text())
    }
    assert importers == NUMPY_MODULES


# Loads the package, runs the exact solver, a board verifier, an expansion
# verifier cell and a d2-breaker match, and prints which of the lazily
# imported modules are loaded; then plays a mindeg-maker match and prints
# them again.
_LAZY_IMPORT_SCRIPT = """
import json, sys
import diameter_games as dg
from diameter_games.graph_metrics import closed_masks, expansion_of_closed

LAZY = ("numpy", "multiprocessing", "concurrent.futures.process")

class ExpScript:
    name = "exp-script"
    def __init__(self, params):
        self.params = params
    def select(self, state):
        return dg.exp_maker_select(state, self.params)

def play(spec):
    cfg = dg.ExperimentConfig.from_json({"name": "lazy", "seeds": [0], **spec})
    return dg.run_experiment(cfg)[0].transcript

def report():
    print(json.dumps(sorted(m for m in LAZY if m in sys.modules)))

assert dg.solve(4, 1, 1, 2).winner is dg.Player.BREAKER
assert dg.verify_one_sided(4, 1, 1, 2, dg.PairingBreaker(), dg.Player.BREAKER)
n, r, s, a, b = 5, 1, 3, 2, 1
assert dg.verify_final_property(
    n, a, b, ExpScript(dg.exp_condition(n, r, s, a, b)), dg.Player.MAKER,
    lambda snap: expansion_of_closed(closed_masks(n, snap.maker_edges), r, s),
)
d2 = play({"n": 40, "a": 1, "d": 2, "maker": "degree-greedy", "breaker": "d2-breaker"})
assert d2.winner is dg.Player.BREAKER and d2.fault is None
report()
mindeg = play({"n": 30, "a": 2, "b": 1, "maker": "mindeg-maker", "breaker": "random",
               "property_id": "mindeg>1", "early_stop": False})
assert mindeg.fault is None
report()
"""


def test_numpy_and_the_process_pool_load_only_where_used():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_SCRIPT], capture_output=True, text=True, check=True, env=env
    )
    before, after = map(json.loads, proc.stdout.splitlines())
    assert before == []
    assert after == ["numpy"]
