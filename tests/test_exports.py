"""Every name a ``repro`` module lists in ``__all__`` resolves, and no
module imports a name it never uses.

A deleted definition that a package still exports fails here, whether or
not any other test imports it.
"""

import ast
import importlib
import pathlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    assert len(modules) > 40
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def _unused_imports(path):
    """Module-level imported names that nothing in the module reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations ("ResourceLimits") read names too.
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def test_no_unused_module_level_imports():
    # Package __init__ modules import to re-export, so they are skipped.
    paths = [
        path
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 40
    unused = [line for path in paths for line in _unused_imports(path)]
    assert unused == []
