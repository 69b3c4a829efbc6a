"""Every name a library module imports is used, exported or marked, and
every private top-level name is referenced.

No linter ships with the project, so this is the F401 check over
``src/fracgaussiso/*.py`` (the package ``__init__`` re-exports by design):
an imported name must be used in the module or listed in its ``__all__``,
or its import statement must carry ``# noqa: F401`` with the reason.  Next
to it is a dead-definition check: a top-level ``_private`` function, class
or assignment must be referenced somewhere in the package outside its own
definition.  A third check keeps ndarray fields out of dataclasses whose
``__eq__`` (and, when frozen, ``__hash__``) is generated, a fourth
keeps the quadrature roots of ``scipy.special`` in ``gauss_core``, whose
cache every rule reads, and a fifth keeps the Hermite recurrence in
``_kernels_py`` and every coefficient table one kernel call per set.  The
last test imports the package in a fresh interpreter: the package and the
spectral commands load no scipy, and the paths that use it import it.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracgaussiso"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # name -> line of its import statement
    exported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_an_unused_import_and_honours_noqa():
    source = ("import math\nimport os  # noqa: F401\nfrom json import (dumps,\n    loads)\n"
              "__all__ = ['dumps']\n")
    assert unused_imports(source) == ["line 1: math", "line 3: loads"]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """'module: name' for each top-level private name of the sources that no
    code references outside its own definition (dunder names excepted)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(id(sub) not in own and name in (getattr(sub, "id", None),
                                                           getattr(sub, "attr", None),
                                                           getattr(sub, "name", None))
                           for other in trees.values() for sub in ast.walk(other)):
                    dead.append(f"{mod}: {name}")
    return dead


def test_package_has_no_dead_private_definition():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []


def test_the_check_flags_a_private_name_referenced_only_by_itself():
    sources = {
        "a.py": ("_LIMIT = 3\n_UNUSED: int = 4\n\n"
                 "def _recurse(n):\n    return _recurse(n - 1) if n else _LIMIT\n\n"
                 "def _shared():\n    return 1\n\n"
                 "class _Held:\n    pass\n\n"
                 "def __getattr__(name):\n    return None\n"),
        "b.py": "from a import _shared\nimport a\nprint(_shared(), a._Held)\n",
    }
    assert dead_definitions(sources) == ["a.py: _UNUSED", "a.py: _recurse"]


def ndarray_fields_under_generated_eq(source: str) -> list[str]:
    """'Class.field' for each field annotated ``ndarray`` in a dataclass with
    a generated ``__eq__``: comparing two instances compares the arrays, which
    raises, and a frozen one's generated hash raises too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if ast.unparse(call.func if call else deco).split(".")[-1] != "dataclass":
                continue
            eq = [kw.value for kw in (call.keywords if call else []) if kw.arg == "eq"]
            if (eq and isinstance(eq[0], ast.Constant) and eq[0].value is False) or any(
                    isinstance(item, ast.FunctionDef) and item.name == "__eq__"
                    for item in node.body):
                continue
            found += [f"{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and "ndarray" in ast.unparse(item.annotation)]
    return found


def test_no_dataclass_compares_an_ndarray_field():
    assert [f"{p.name}: {field}" for p in MODULES
            for field in ndarray_fields_under_generated_eq(p.read_text())] == []


def test_the_check_flags_ndarray_fields_only_under_a_generated_eq():
    source = ("import dataclasses\nfrom dataclasses import dataclass\nimport numpy as np\n\n"
              "@dataclass(frozen=True)\nclass A:\n    k: int\n    f: np.ndarray\n\n"
              "@dataclasses.dataclass\nclass B:\n    g: 'np.ndarray | None'\n\n"
              "@dataclass(frozen=True, eq=False)\nclass C:\n    f: np.ndarray\n\n"
              "@dataclass\nclass D:\n    f: np.ndarray\n\n"
              "    def __eq__(self, other):\n        return self is other\n\n"
              "class E:\n    f: np.ndarray\n")
    assert ndarray_fields_under_generated_eq(source) == ["A.f", "B.g"]


def special_root_calls(source: str) -> list[str]:
    """'line N: name' for each call of a ``roots_*`` function of
    ``scipy.special``, as an attribute (``special.roots_genlaguerre``) or as a
    name imported from it (``from scipy.special import roots_jacobi as rj``)."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
                for alias in node.names if alias.name.startswith("roots_")}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr.startswith("roots_"):
            found.append(f"line {node.lineno}: {func.attr}")
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append(f"line {node.lineno}: {imported[func.id]}")
    return found


def test_only_gauss_core_computes_quadrature_roots():
    assert [f"{p.name}: {call}" for p in MODULES if p.name != "gauss_core.py"
            for call in special_root_calls(p.read_text())] == []


def test_the_check_flags_root_calls_by_attribute_and_by_imported_name():
    source = ("import scipy.special\nfrom scipy import special\n"
              "from scipy.special import roots_jacobi as rj, gamma\n\n"
              "u, w = special.roots_genlaguerre(40, -0.75)\nx = rj(5, 0.0, 1.0)\n"
              "y = scipy.special.roots_legendre(3)\nz = gamma(0.5) + roots_of(3)\n")
    assert special_root_calls(source) == ["line 5: roots_genlaguerre", "line 6: roots_jacobi",
                                          "line 7: roots_legendre"]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _is_recurrence_step(node) -> bool:
    """(x * g - c * g_prev) / d, the three-term Hermite step in any notation."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (node.left.left, node.left.right)))


def looped_work(source: str) -> list[str]:
    """'function: recurrence' for each top-level function (or '<module>') that
    takes a three-term recurrence step inside a loop, and 'function: kernel
    call' for each that calls ``coeff_antideriv_table`` inside one."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef)) else "<module>"
        inside = {id(sub): sub for loop in ast.walk(top) if isinstance(loop, _LOOPS)
                  for sub in ast.walk(loop)}.values()
        if any(_is_recurrence_step(sub) for sub in inside):
            found.append(f"{name}: recurrence")
        if any(isinstance(sub, ast.Call) and ast.unparse(sub.func).split(".")[-1]
               == "coeff_antideriv_table" for sub in inside):
            found.append(f"{name}: kernel call")
    return sorted(set(found))


# ``hermite_eval`` is the public one-value evaluator, the oracle of the tests.
RECURRENCES_OUTSIDE_THE_KERNELS = {"gauss_core.py: hermite_eval: recurrence"}


def test_only_the_kernels_run_the_hermite_recurrence():
    found = {f"{p.name}: {item}" for p in MODULES for item in looped_work(p.read_text())}
    assert {item for item in found if not item.startswith("_kernels_py.py: ")} \
        == RECURRENCES_OUTSIDE_THE_KERNELS
    assert not any(item.endswith("kernel call") for item in found)
    assert "_kernels_py.py: _weighted_rows: recurrence" in found


def test_the_check_flags_recurrences_and_looped_kernel_calls():
    source = (
        "import math\nfrom . import _kernels_py as kp\n\n"
        "def per_endpoint(E, K):\n    f = 0\n    for a, b in E.intervals:\n"
        "        f += kp.coeff_antideriv_table(a, K)\n    return f\n\n"
        "def summed(xs, K):\n    return sum(coeff_antideriv_table(x, K) for x in xs)\n\n"
        "def once(xs, K, signs):\n    return coeff_antideriv_table(xs, K, signs)\n\n"
        "def terms(x, n):\n    g_prev, g = 0.0, 1.0\n    k = 0\n    while k < n:\n"
        "        g_next = (x * g - math.sqrt(k) * g_prev) / math.sqrt(k + 1)\n"
        "        g_prev, g, k = g, g_next, k + 1\n    return g\n\n"
        "def richardson(vals, rho):\n"
        "    return [(vals[i + 1] - rho * vals[i]) / (1.0 - rho) for i in range(3)]\n\n"
        "STEP = (2.0 * 1.0 - 1.0 * 0.0) / 1.0\n"
        "TABLE = [(x * 1.0 - 2.0 * x) / 3.0 for x in range(3)]\n")
    assert looped_work(source) == ["<module>: recurrence", "per_endpoint: kernel call",
                                   "summed: kernel call", "terms: recurrence"]


# Run in a fresh interpreter; prints, per step, the scipy modules loaded so far.
_SCIPY_PATHS = """
import contextlib, io, json, sys
import fracgaussiso
from fracgaussiso import cli, pde, sets

def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

steps = [["import", 0, loaded()]]
for argv in (["deficit", "--set", "(-1,0.5)|(1,inf)", "--s", "0.5"],
             ["perimeter", "--set", "(0,1)", "--s", "0.5"], ["asymptotic"],
             ["sweep", "--s", "0.5"], ["verify", "--suite", "levelset", "--n", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    steps.append([argv[0], rc, loaded()])
energy = pde.pde_energy(sets.halfline(0.0), 0.5, mesh=(64, 64))
steps.append(["pde_energy", int(not energy > 0.0), loaded()])
from scipy.sparse import linalg
served = pde.cg is linalg.cg and pde.spsolve is linalg.spsolve and not hasattr(pde, "solve")
steps.append(["pde.cg, pde.spsolve", int(not served), []])
print(json.dumps(steps))
"""


def test_import_and_the_spectral_commands_load_no_scipy():
    out = subprocess.run([sys.executable, "-c", _SCIPY_PATHS], capture_output=True, text=True,
                         check=True).stdout
    steps = {name: (rc, modules) for name, rc, modules in json.loads(out)}
    assert all(rc == 0 for rc, _ in steps.values()), steps
    for name in ("import", "deficit", "perimeter", "asymptotic", "sweep"):
        assert steps[name][1] == [], name
    # the Mehler path imports scipy.special for ndtr, and the PDE solve scipy.linalg
    assert "scipy.special" in steps["verify"][1]
    assert "scipy.linalg" in steps["pde_energy"][1]
