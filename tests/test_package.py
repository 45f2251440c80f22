import ast
import importlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kratzerml
from kratzerml.estimate import (
    ATTRIBUTION_LABEL,
    BoundResult,
    FitResult,
    NoPositiveGapError,
    beta_upper_bound,
    fit_parameters,
)
from kratzerml.momentum import (
    MomentumProblem,
    OdeSolution,
    heun_params_general,
    integrate_branch,
    momentum_wavefunction_undeformed,
    quantize_swave,
)
from kratzerml.oracle import (
    QuadratureResult,
    correction_via_expectations,
    expectation_inverse_power,
    radial_overlap,
)
from kratzerml.physmodel import (
    InputError,
    KratzerCouplings,
    LambdaGuardError,
    Molecule,
    QuantumNumbers,
    ShapeNumbers,
    beta_from_min_length,
    energy_from_joule,
    minimal_length,
    require_beta,
    require_int,
    require_positive,
)
from kratzerml.spectrum import (
    EnergyLevel,
    Term,
    energy_deformed,
    level_energies,
    require_bound,
)
from kratzerml.verify import CheckResult, run_checks
from kratzerml.wavefunctions import RadialState, make_radial_state


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


def _read_names(trees: dict[str, ast.Module]) -> set[str]:
    """Every name that some module of trees loads or reads as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def _top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names a module defines at its
    top level, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names.append(getattr(node.target, "id", ""))
    return names


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level single-underscore names that no module of trees reads."""
    read = _read_names(trees)
    return [
        f"{module}:{name}"
        for module, tree in trees.items() for name in _top_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


def _unread_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Names listed in a module's __all__ that no module of trees reads:
    the listing is a string, and the definition is not a read."""
    read = _read_names(trees)
    return [
        f"{module}:{elt.value}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and elt.value not in read
    ]


#: public names that no code in the package reads, each with the reason it
#: stays; a name that gains a reader must leave this list
_KEPT_PUBLIC = {
    "momentum.py:momentum_wavefunction_undeformed":
        "the closed-form s-wave psi(p) that a momentum-shift check would "
        "integrate (ROADMAP item 16)",
}


def test_every_public_name_is_read():
    package = Path(kratzerml.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert sorted(_unread_public_names(trees)) == sorted(_KEPT_PUBLIC)


def test_unread_public_name_guard_sees_planted_names():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['used', 'unused', 'Spare', 'called']\n"
            "def used():\n    return 1\n"
            "def unused():\n    return used()\n"
            "class Spare:\n    pass\n"
            "def called():\n    pass\n"
        ),
        "b.py": ast.parse(
            "import a\nfrom a import called\n__all__ = ['late']\n"
            "a.used\ncalled()\nlate = 'unused'\n"
        ),
    }
    assert _unread_public_names(trees) == ["a.py:unused", "a.py:Spare", "b.py:late"]


#: the modules of tests/ that hold reference code for the tests to run
_REFERENCE_MODULES = ("hypervirial.py", "references.py")


def _unread_reference_names(
    trees: dict[str, ast.Module], references: tuple[str, ...]
) -> list[str]:
    """Top-level names of the reference modules that no module of trees
    reads; a definition is not a read, so code that no test reaches,
    directly or through another reference, shows."""
    read = _read_names(trees)
    return [
        f"{module}:{name}"
        for module in references for name in _top_level_names(trees[module])
        if not name.startswith("__") and name not in read
    ]


def test_every_reference_name_is_read():
    tests = Path(__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(tests.glob("*.py"))}
    assert _unread_reference_names(trees, _REFERENCE_MODULES) == []


def test_unread_reference_guard_sees_planted_names():
    trees = {
        "ref.py": ast.parse(
            "DIGITS = 60\nSPARE = 1\n__all__ = []\n"
            "def _helper():\n    return DIGITS\n"
            "def reference():\n    return _helper()\n"
            "def dead():\n    return reference()\n"
            "class Unused:\n    pass\n"
        ),
        "test_a.py": ast.parse(
            "import ref\ndef test_it():\n    assert ref.reference()\n"
        ),
    }
    assert _unread_reference_names(trees, ("ref.py",)) == [
        "ref.py:SPARE", "ref.py:dead", "ref.py:Unused"]


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


def _isnan_uses(tree: ast.Module) -> list[str]:
    """Lines that name isnan: a call, a reference or an import."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "isnan"
        or isinstance(node, ast.Attribute) and node.attr == "isnan"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "isnan" for alias in node.names)
    ]


def test_only_physmodel_spells_the_nan_rule():
    """physmodel.nan_worst is the one place that asks whether a value is
    NaN; every ranking that must put a NaN worst goes through it."""
    package = Path(kratzerml.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "physmodel.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _isnan_uses(tree) == [], path.name


def test_isnan_guard_sees_planted_uses():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom math import isfinite, isnan\n"
        "x = math.isnan(1.0)\ny = list(map(np.isnan, []))\n"
        "z = isfinite(2.0)\n"
    )
    assert _isnan_uses(tree) == ["line 3", "line 4", "line 5"]


# the modules that bound, spectrum and fit load, none of which may import
# numpy or scipy at import time; shell defers verify, and with it numpy, to
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


def test_no_module_imports_dataclasses():
    """dataclasses would load inspect, ast and dis into every fresh run;
    every record is a named tuple.  Imports inside functions are pinned
    by test_the_verify_command_is_the_one_deferred_import."""
    package = Path(kratzerml.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _import_time_imports(tree, {"dataclasses"}) == [], path.name


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
# closed-form name on it, running bound, spectrum and fit, and a verify
# whose --tol is refused must leave numpy and scipy unloaded, and verify
# loads numpy alone; bound, spectrum and fit load neither dataclasses nor
# inspect, and verify does not load dataclasses (numpy loads inspect).
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
stdlib_after_closed_forms = [m for m in ("dataclasses", "inspect")
                             if m in sys.modules]
with contextlib.redirect_stderr(io.StringIO()):
    codes.append(run("verify", "--tol", "0"))
heavy_after_refused_tol = heavy_modules()
codes.append(run("verify", "--json"))
print(json.dumps({
    "codes": codes,
    "heavy_after_import": heavy_after_import,
    "looked_up": len(closed_forms),
    "heavy_after_lookup": heavy_after_lookup,
    "heavy_after_closed_forms": heavy_after_closed_forms,
    "stdlib_after_closed_forms": stdlib_after_closed_forms,
    "heavy_after_refused_tol": heavy_after_refused_tol,
    "scipy_after_verify": [m for m in heavy_modules() if m.startswith("scipy")],
    "dataclasses_after_verify": "dataclasses" in sys.modules,
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
    assert doc["codes"] == [0, 0, 0, 2, 0]
    assert doc["heavy_after_import"] == []
    assert doc["looked_up"] > 0
    assert doc["heavy_after_lookup"] == []
    assert doc["heavy_after_closed_forms"] == []
    assert doc["stdlib_after_closed_forms"] == []
    assert doc["heavy_after_refused_tol"] == []
    assert doc["scipy_after_verify"] == []
    assert doc["dataclasses_after_verify"] is False


def test_no_module_imports_scipy():
    """scipy is a test dependency: the quadrature oracle and the branch
    integrator run the package's own rules.  Imports inside functions are
    pinned by test_the_verify_command_is_the_one_deferred_import."""
    package = Path(kratzerml.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _import_time_imports(tree, {"scipy"}) == [], path.name


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


def _object_array(items):
    # element by element: np.array(items, dtype=object) unpacks each
    # record, a tuple, into a row of its fields
    out = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        out[i] = item
    return out


@pytest.mark.parametrize("name", sorted(_BATCH_FUNCTIONS))
def test_every_batch_function_follows_one_rule(name):
    """A str or non-iterable is one item and any other iterable a batch;
    batches pair element by element, a single item pairs with every
    member, and only single items give a bare result."""
    function, members = _BATCH_FUNCTIONS[name]
    as_list = [_bits(r) for r in function(*members)]
    assert len(as_list) == 3
    for container in (tuple, iter, _object_array):
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


_POLE = MomentumProblem(sigma1=0.0, sigma2=3.0, k=1.0)  # k: the n = 2 pole
_MOL = Molecule("m", 45000.0, 1.1, 1.2)
_LEVELS = [
    (n, l, energy_from_joule(energy_deformed(_MOL, 0.0, QuantumNumbers(n, l)).e,
                             "cm-1"))
    for n in range(2) for l in range(2)
]

#: each integer argument: (call, a valid value, one out of range, its name)
_INTEGER_SITES = {
    "QuantumNumbers.n": (lambda v: QuantumNumbers(v, 1), 2, -1, "n"),
    "QuantumNumbers.l": (lambda v: QuantumNumbers(1, v), 2, -1, "l"),
    "quantize_swave": (
        lambda v: quantize_swave(_POLE, v, 1.0), 2, -1, "n_max"),
    "momentum_wavefunction_undeformed": (
        lambda v: momentum_wavefunction_undeformed(0.5, v, _POLE), 2, -1, "n"),
    "expectation_inverse_power": (
        lambda v: expectation_inverse_power(v, _STATES[0]), 2, 5, "p"),
}


@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_every_integer_argument_follows_one_rule(site):
    """What operator.index takes, numpy integers included, gives the
    plain int's result; a bool, an integral float, a str and a value out
    of range raise InputError naming the argument and the value."""
    call, valid, out_of_range, name = _INTEGER_SITES[site]
    expected = call(valid)
    for kind in (np.int64, np.intp):
        assert call(kind(valid)) == expected, kind
    for bad in (True, float(valid), str(valid), out_of_range):
        with pytest.raises(
            InputError, match=rf"\b{name} must be .*, got {re.escape(repr(bad))}$"
        ):
            call(bad)


def test_integer_records_store_a_plain_int():
    qn = QuantumNumbers(np.int64(1), np.intp(0))
    assert type(qn.n) is int and type(qn.l) is int


#: each record: every field by keyword in field order, the fields left
#: to their defaults, and, for a record that checks its fields, one field
#: made invalid and the exception that refuses it
_RECORDS = {
    "Molecule": (Molecule, dict(
        name="m", de_cm1=45000.0, re_angstrom=1.1, mu_amu=1.2,
        zpe_exp_cm1=2000.0), {"zpe_exp_cm1": None}, ("de_cm1", -1.0, InputError)),
    "QuantumNumbers": (QuantumNumbers, dict(n=2, l=1), {}, ("n", -1, InputError)),
    "KratzerCouplings": (KratzerCouplings, dict(g1=1e-38, g2=1e-28), {},
                         ("g2", -1.0, ValueError)),
    "ShapeNumbers": (ShapeNumbers, dict(gamma=5.0, lam=5.7, alpha=4.4), {},
                     ("lam", 0.5, ValueError)),
    "EnergyLevel": (EnergyLevel, dict(
        n=0, l=1, e0=-7.3e-19, de=2.2e-26, e=-7.29e-19, warning="w"),
        {"warning": None}, None),
    "Term": (Term, dict(tag="harmonic", value=1e-20), {}, None),
    "BoundResult": (BoundResult, dict(
        g_theory_cm1=2174.5, delta_cm1=4.8, beta_max=6.7e41,
        min_length_max_angstrom=0.0107, attribution=ATTRIBUTION_LABEL),
        {"attribution": ATTRIBUTION_LABEL}, None),
    "FitResult": (FitResult, dict(
        de_cm1=45000.0, re_angstrom=1.1, beta=0.0, rss_cm2=1e-20,
        iterations=7, converged=True, residuals=((0, 0, -4e4, -4e4, 1.0),)),
        {}, None),
    "RadialState": (RadialState, dict(
        qn=QuantumNumbers(0, 1), shape=ShapeNumbers(5.0, 6.6, 3.8), re=1e-10,
        log_norm=40.0), {}, None),
    "QuadratureResult": (QuadratureResult, dict(
        value=1.0, error_estimate=1e-11), {}, None),
    "CheckResult": (CheckResult, dict(
        name="fuchsian", worst=1e-13, tolerance=1e-12, comparisons=100,
        detail="sum rules"), {}, None),
    "MomentumProblem": (MomentumProblem, dict(
        sigma1=-1.0, sigma2=0.4, k=1.0, beta=1.0), {"beta": 0.0},
        ("k", 0.0, InputError)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_every_record_is_immutable_and_keeps_its_interface(name):
    """Each record takes its fields by keyword or in order, keeps its
    defaults and its repr, refuses assignment, holds no __dict__ (a
    subclass that forgets __slots__ = () takes new attributes), and
    pickles through the constructor, so a load re-runs its checks."""
    cls, fields, defaults, invalid = _RECORDS[name]
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert repr(record) == f"{name}(" + ", ".join(
        f"{key}={value!r}" for key, value in fields.items()) + ")"
    given = {key: value for key, value in fields.items() if key not in defaults}
    assert {key: getattr(cls(**given), key) for key in defaults} == defaults
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    assert not hasattr(record, "__dict__")
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and loaded == record
    if invalid is not None:
        key, value, kind = invalid
        bad = record._replace(**{key: value})  # _replace skips the checks
        with pytest.raises(kind) as err:
            pickle.loads(pickle.dumps(bad))
        assert type(err.value) is kind


#: each record whose numpy fields make == ambiguous, built by its function
_ARRAY_RECORDS = {
    "OdeSolution": lambda: integrate_branch(
        _PROBS[0], "fast-decay", (1.0, 2e3), p_stop=200.0),
    "HeunParams batch": lambda: heun_params_general(_PROBS),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_every_array_record_is_immutable_and_pickles_field_by_field(name):
    """A record with numpy fields refuses assignment, holds no __dict__,
    and pickles field by field; OdeSolution's arrays are read-only, also
    after a load, which re-runs its constructor."""
    record = _ARRAY_RECORDS[name]()
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    assert not hasattr(record, "__dict__")
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record)
    for field in record._fields:
        value, back = getattr(record, field), getattr(loaded, field)
        assert type(back) is type(value), field
        if isinstance(value, np.ndarray):
            assert back.dtype == value.dtype and back.tobytes() == value.tobytes()
        else:
            assert back == value, field
    if isinstance(record, OdeSolution):
        for solution in (record, loaded):
            for array in (solution.grid, solution.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[1]


#: each positive real argument: (call, a valid value, its name)
_POSITIVE_SITES = {
    "Molecule.de_cm1": (lambda v: Molecule("m", v, 1.1, 1.2), 45000.0, "de_cm1"),
    "Molecule.re_angstrom": (
        lambda v: Molecule("m", 45000.0, v, 1.2), 1.1, "re_angstrom"),
    "Molecule.mu_amu": (lambda v: Molecule("m", 45000.0, 1.1, v), 1.2, "mu_amu"),
    "run_checks tol": (lambda v: run_checks("small", v), 1.0, "tol"),
    "fit_parameters De": (
        lambda v: fit_parameters(_LEVELS, 1.2, (v, 1.0, 0.0)), 5e4, "initial De"),
    "fit_parameters re": (
        lambda v: fit_parameters(_LEVELS, 1.2, (5e4, v, 0.0)), 1.0, "initial re"),
    "fit_parameters mu": (
        lambda v: fit_parameters(_LEVELS, v, (5e4, 1.0, 0.0)), 1.2,
        "reduced mass"),
    "MomentumProblem.k": (
        lambda v: MomentumProblem(sigma1=0.0, sigma2=3.0, k=v), 1.0, "k"),
    "make_radial_state": (
        lambda v: make_radial_state(5.0, QuantumNumbers(0, 1), v), 1.0,
        "length scale re"),
    "quantize_swave": (lambda v: quantize_swave(_POLE, 2, v), 1.0,
                       "reduced mass"),
    "momentum_wavefunction_undeformed": (
        lambda v: momentum_wavefunction_undeformed(v, 2, _POLE), 0.5, "p"),
    "correction_via_expectations": (
        lambda v: correction_via_expectations(
            _STATES[0], KratzerCouplings(1e-38, 1e-28), v, 1e40),
        1e-27, "reduced mass"),
}


@pytest.mark.parametrize("site", sorted(_POSITIVE_SITES))
def test_every_positive_argument_follows_one_rule(site):
    """A valid value passes; 0, -1, nan and both infinities raise
    InputError naming the argument and the value, through
    physmodel.require_positive."""
    call, valid, name = _POSITIVE_SITES[site]
    call(valid)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(
            InputError,
            match=rf"^{name} must be positive and finite, got {re.escape(repr(bad))}$",
        ):
            call(bad)


_START = (50000.0, 1.0, 0.0)

#: each library refusal: (call, the type it raises, a pattern its message
#: matches, naming the argument where the type is InputError)
_REFUSALS = {
    "require_beta": (lambda: require_beta(-1.0), InputError, "^beta must"),
    "require_positive": (
        lambda: require_positive(0.0, "reduced mass"), InputError,
        "^reduced mass must"),
    "require_int": (
        lambda: require_int(-1, "n_max"), InputError, "^n_max must"),
    "beta_from_min_length non-finite": (
        lambda: beta_from_min_length(math.inf), InputError,
        "^minimal length must"),
    "beta_from_min_length negative": (
        lambda: beta_from_min_length(-1.0), InputError,
        "^minimal length must .*, got -1.0 angstrom$"),
    "fit_parameters level count": (
        lambda: fit_parameters(_LEVELS[:3], 1.2, _START), InputError,
        "^3 levels cannot"),
    "fit_parameters level row": (
        lambda: fit_parameters([(0.5, 0, -4e4)] + _LEVELS, 1.2, _START),
        InputError, "^level 0: n and l must"),
    "fit_parameters duplicate level": (
        lambda: fit_parameters(_LEVELS + _LEVELS[:1], 1.2, _START),
        InputError, "^level 4: duplicate level .*, first on level 0$"),
    "fit_parameters start": (
        lambda: fit_parameters(_LEVELS, 1.2, (0.0, 1.0, 0.0)), InputError,
        "^initial De must"),
    "fit_parameters start re": (
        lambda: fit_parameters(_LEVELS, 1.2, (5e4, math.inf, 0.0)),
        InputError, "^initial re must"),
    "fit_parameters start beta": (
        lambda: fit_parameters(_LEVELS, 1.2, (5e4, 1.0, -1.0)), InputError,
        "^beta must"),
    "fit_parameters mu": (
        lambda: fit_parameters(_LEVELS, math.nan, _START), InputError,
        "^reduced mass must"),
    "run_checks preset": (
        lambda: run_checks("bogus"), InputError, "^unknown preset 'bogus'"),
    "run_checks tol": (
        lambda: run_checks("small", 0.0), InputError, "^tol must"),
    "Molecule": (
        lambda: Molecule("m", 45000.0, -1.0, 1.2), InputError,
        "^re_angstrom must"),
    "MomentumProblem k": (
        lambda: MomentumProblem(0.0, 3.0, math.nan), InputError, "^k must"),
    "make_radial_state re": (
        lambda: make_radial_state(5.0, QuantumNumbers(0, 1), 0.0),
        InputError, "^length scale re must"),
    "beta_upper_bound without a ZPE": (
        lambda: beta_upper_bound(_MOL), InputError, "has no zpe_exp_cm1"),
    # failures during a computation: the CLI exits 1 on these, not 2
    "minimal_length overflow": (
        lambda: minimal_length(1e308), ValueError, "overflows"),
    "beta_from_min_length overflow": (
        lambda: beta_from_min_length(1e160), ValueError, "overflows"),
    "level_energies De overflow": (
        lambda: level_energies(Molecule("big", 1e200, 1.0, 1.0), 0.0, [(0, 0)]),
        ValueError, "^molecule 'big': De = 1e\\+200 cm\\^-1 overflows"),
    "fit start on the lambda guard": (
        lambda: fit_parameters(_LEVELS, 1e-6, (1.0, 1.0, 0.0)),
        LambdaGuardError, "singular value 1.0"),
    "beta_upper_bound without a gap": (
        lambda: beta_upper_bound(Molecule("m", 45000.0, 1.1, 1.2, 1.0)),
        NoPositiveGapError, "not positive"),
    "require_bound": (
        lambda: require_bound(energy_deformed(
            _MOL, beta_from_min_length(10.0), QuantumNumbers(0, 0))),
        ValueError, "not bound"),
}


@pytest.mark.parametrize("site", sorted(_REFUSALS))
def test_only_a_refused_argument_is_an_input_error(site):
    """An argument refused as given, before any computation, raises
    InputError, which the CLI maps to exit 2; what fails during a
    computation keeps its own type, a ValueError but not an InputError."""
    call, kind, pattern = _REFUSALS[site]
    with pytest.raises(ValueError, match=pattern) as err:
        call()
    assert type(err.value) is kind
    if kind is not InputError:
        assert not isinstance(err.value, InputError)
