import ast
from pathlib import Path

import kratzerml


def test_submodule_names_resolve_on_the_package():
    seen = []
    for module in kratzerml._MODULES:
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
