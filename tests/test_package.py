import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kratzerml
from kratzerml.momentum import MomentumProblem, OdeSolution, integrate_branch
from kratzerml.oracle import (
    correction_via_expectations,
    expectation_inverse_power,
    radial_overlap,
)
from kratzerml.physmodel import (
    KratzerCouplings,
    Molecule,
    QuantumNumbers,
    energy_from_joule,
)
from kratzerml.spectrum import energy_deformed
from kratzerml.wavefunctions import make_radial_state


def test_submodule_names_resolve_on_the_package():
    seen = []
    for module_name in kratzerml._MODULES:
        module = importlib.import_module(f"kratzerml.{module_name}")
        for name in module.__all__:
            assert getattr(kratzerml, name) is getattr(module, name), name
            seen.append(name)
    assert len(seen) == len(set(seen))
    assert sorted(kratzerml.__all__) == sorted(["__version__", *seen])


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_no_module_imports_an_unused_name():
    package = Path(kratzerml.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _unused_imports(tree) == [], path.name


def test_unused_import_guard_sees_unused_names():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "__all__ = ['sep']\nnp.zeros(path)\n"
    )
    assert _unused_imports(tree) == ["math (line 1)"]


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level single-underscore names that no module of trees reads."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def test_every_private_name_is_read():
    package = Path(kratzerml.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert _unread_private_names(trees) == []


def test_unread_name_guard_sees_unread_names():
    trees = {
        "a.py": ast.parse(
            "_USED = 1\n_unused = 2\ndef _helper():\n    return _USED\n"
            "class _Spare:\n    pass\n__all__ = []\n"
        ),
        "b.py": ast.parse("import a\na._helper()\n"),
    }
    assert _unread_private_names(trees) == ["a.py:_unused", "a.py:_Spare"]


def _private_imports(tree: ast.Module) -> list[str]:
    """Single-underscore names a module imports from the package."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kratzerml")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_no_module_imports_another_modules_private_name():
    package = Path(kratzerml.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _private_imports(tree) == [], path.name


def test_private_import_guard_sees_private_names():
    tree = ast.parse(
        "from .wavefunctions import RadialState, _kummer_sum\n"
        "from kratzerml.oracle import _moment\n"
        "from . import __version__\nfrom os import _exit\n"
    )
    assert _private_imports(tree) == ["_kummer_sum (line 1)", "_moment (line 2)"]


# the modules that bound, spectrum and fit load, none of which may import
# numpy or scipy at import time; shell defers verify, and with it both, to
# verify's command (the fresh-interpreter test below sees indirect imports)
_CLOSED_FORM_MODULES = (
    "__init__.py", "shell.py", "physmodel.py", "spectrum.py", "estimate.py",
)


def _import_time_imports(tree: ast.Module, roots: set[str]) -> list[str]:
    """Imports of the packages in roots that run when the module is imported.

    Everything outside a function body runs at import, class bodies and
    if/try blocks included.
    """
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            pending.extend(ast.iter_child_nodes(node))
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in roots]
    return sorted(found)


def test_closed_form_modules_import_neither_numpy_nor_scipy():
    package = Path(kratzerml.__file__).parent
    for name in _CLOSED_FORM_MODULES:
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        assert _import_time_imports(tree, {"numpy", "scipy"}) == [], name


def _deferred_imports(tree: ast.Module) -> list[str]:
    """Import statements inside function bodies, as 'function: statement'."""
    return [
        f"{fn.name}: {ast.unparse(node)}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_the_verify_command_is_the_one_deferred_import():
    package = Path(kratzerml.__file__).parent
    deferred = {
        path.name: _deferred_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in deferred.items() if found} == {
        "shell.py": ["cmd_verify: from . import verify"],
    }


def test_scipy_import_guard_sees_top_level_imports():
    tree = ast.parse(
        "import math\nfrom scipy import optimize\n"
        "if math.pi:\n    import scipy.special\n"
        "def f():\n    from scipy.integrate import quad\n"
    )
    assert _import_time_imports(tree, {"scipy"}) == [
        "scipy (line 2)", "scipy.special (line 4)",
    ]


def test_numpy_import_guard_sees_top_level_imports():
    tree = ast.parse(
        "import math\nimport numpy as np\nimport numpyish\n"
        "try:\n    from numpy.linalg import norm\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy\n"
    )
    assert _import_time_imports(tree, {"scipy", "numpy"}) == [
        "numpy (line 2)", "numpy.linalg (line 5)",
    ]


# Runs in a fresh interpreter: importing the package, looking up every
# closed-form name on it and running bound, spectrum and fit must leave
# numpy and scipy unloaded; after verify each scipy name is a module
# global holding the scipy object itself, which is what a tracer wraps.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy"))

import kratzerml
heavy_after_import = heavy_modules()
from kratzerml import estimate, physmodel, shell, spectrum
closed_forms = [name for module in (physmodel, spectrum, estimate)
                for name in module.__all__]
for name in closed_forms:
    getattr(kratzerml, name)
heavy_after_lookup = heavy_modules()

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return shell.main(list(argv))

codes = [
    run("bound", "H2", "--json"),
    run("spectrum", "H2", "--nmax", "2", "--lmax", "1",
        "--min-length", "0.01", "--json"),
    run("fit", sys.argv[2], "--mu", "1.2", "--init", "52000,1.0,0", "--json"),
]
heavy_after_closed_forms = heavy_modules()
codes.append(run("verify", "--json"))
import scipy.integrate
print(json.dumps({
    "codes": codes,
    "heavy_after_import": heavy_after_import,
    "looked_up": len(closed_forms),
    "heavy_after_lookup": heavy_after_lookup,
    "heavy_after_closed_forms": heavy_after_closed_forms,
    "bound": {
        "oracle.tanhsinh": kratzerml.oracle.tanhsinh is scipy.integrate.tanhsinh,
        "momentum.solve_ivp":
            kratzerml.momentum.solve_ivp is scipy.integrate.solve_ivp,
    },
}))
"""


def test_closed_form_commands_leave_scipy_unloaded(tmp_path):
    mol = Molecule("synth", 45000.0, 1.1, 1.2)
    lines = ["n,l,E_cm1"]
    for n in range(2):
        for l in range(2):
            level = energy_deformed(mol, 6.736924e41, QuantumNumbers(n, l))
            lines.append(f"{n},{l},{energy_from_joule(level.e, 'cm-1')!r}")
    levels = tmp_path / "synth.levels"
    levels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(kratzerml.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, src, str(levels)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["heavy_after_import"] == []
    assert doc["looked_up"] > 0
    assert doc["heavy_after_lookup"] == []
    assert doc["heavy_after_closed_forms"] == []
    assert doc["bound"] == dict.fromkeys(doc["bound"], True)


def test_scipy_names_are_read_at_call_time(monkeypatch):
    """A wrapper put in place of a module's scipy name is the one called."""
    state = make_radial_state(5.0, QuantumNumbers(0, 0), 1.0)
    calls = []
    original = kratzerml.oracle.tanhsinh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kratzerml.oracle, "tanhsinh", counted)
    expectation_inverse_power(0, state)
    assert kratzerml.oracle.tanhsinh is counted
    assert calls == [1]


# Runs in a fresh interpreter, so that dir() and __all__ are computed by
# the lazy module __getattr__ rather than read from modules that other
# tests imported.
_SURFACE_SCRIPT = """
import importlib, json
import kratzerml
listed = dir(kratzerml)
exported = kratzerml.__all__
union = ["__version__"] + [
    name for module_name in kratzerml._MODULES
    for name in importlib.import_module("kratzerml." + module_name).__all__
]
try:
    kratzerml.no_such_name
    missing = None
except Exception as exc:
    missing = type(exc).__name__
print(json.dumps({"dir": listed, "all": exported, "union": union,
                  "missing": missing}))
"""


def _python(*args):
    """A fresh interpreter that imports kratzerml from this checkout."""
    env = dict(os.environ, COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env, cwd=Path(kratzerml.__file__).parent.parent,
    )


def test_lazy_package_surface():
    out = _python("-c", _SURFACE_SCRIPT)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["all"] == doc["union"]
    assert doc["dir"] == sorted(doc["union"])
    assert doc["missing"] == "AttributeError"


def test_verify_parser_keeps_its_preset_text():
    shown = _python("-m", "kratzerml.shell", "verify", "--help")
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith(
        "usage: kratzerml verify [-h] [--grid-preset {small,paper}]"
    )
    assert "  --grid-preset {small,paper}\n" in shown.stdout
    refused = _python("-m", "kratzerml.shell", "verify", "--grid-preset", "bogus")
    assert (refused.returncode, refused.stdout) == (2, "")
    error = refused.stderr.splitlines()[-1]
    assert error.startswith(
        "kratzerml verify: error: argument --grid-preset: invalid choice: 'bogus'"
    )
    assert "small" in error and "paper" in error


_STATES = [make_radial_state(5.0, QuantumNumbers(n, 1), 1.0) for n in range(3)]
_PROBS = [MomentumProblem(sigma1=s, sigma2=0.4, k=1.0, beta=1.0)
          for s in (-1.0, 0.0, 2.0)]

#: each batch function with three members for each of its arguments
_BATCH_FUNCTIONS = {
    "expectation_inverse_power": (
        expectation_inverse_power, ([0, 1, 2], _STATES)),
    "radial_overlap": (radial_overlap, (_STATES, _STATES[::-1])),
    "correction_via_expectations": (
        lambda state: correction_via_expectations(
            state, KratzerCouplings(1e-38, 1e-28), 1e-27, 1e40),
        (_STATES,)),
    "integrate_branch": (
        lambda prob, branch: integrate_branch(
            prob, branch, (1.0, 2e3), p_stop=200.0),
        (_PROBS, ["fast-decay", "slow-decay", "fast-decay"])),
}


def _bits(result):
    if isinstance(result, OdeSolution):
        return result.branch, result.grid.tobytes(), result.values.tobytes()
    return result


@pytest.mark.parametrize("name", sorted(_BATCH_FUNCTIONS))
def test_every_batch_function_follows_one_rule(name):
    """A str or non-iterable is one item and any other iterable a batch;
    batches pair element by element, a single item pairs with every
    member, and only single items give a bare result."""
    function, members = _BATCH_FUNCTIONS[name]
    as_list = [_bits(r) for r in function(*members)]
    assert len(as_list) == 3
    for container in (tuple, iter, lambda items: np.array(items, dtype=object)):
        got = function(*(container(items) for items in members))
        assert isinstance(got, list), container
        assert [_bits(r) for r in got] == as_list, container
    single = function(*(items[0] for items in members))
    one = function(*(items[:1] for items in members))
    assert [_bits(single)] == [_bits(r) for r in one]
    with pytest.raises(ValueError, match="the batch is empty"):
        function(*([] for _ in members))
    if len(members) == 2:
        first, second = members
        got = function(first[0], second)
        assert isinstance(got, list) and len(got) == 3
        with pytest.raises(ValueError, match="cannot pair 2 items with 3"):
            function(first[:2], second)
        # a one-element batch is a batch, not a single item
        with pytest.raises(ValueError, match="cannot pair 1 items with 3"):
            function(first[:1], second)
        with pytest.raises(ValueError, match="the batch is empty"):
            function(first[0], [])
