"""Every public top-level function and class in ``src/aggdiff`` has a caller there.

A name that only the tests reach is test code: it belongs in ``tests/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aggdiff"

# The dense drift builders are the tests' oracles; the benchmark's layer
# tracer wraps them by module attribute, so they stay in _accel until that
# tracer stops patching them (ROADMAP item 2).
ALLOWED = {"build_matrix_1d", "build_matrix_nd"}


def _references(module, tree, skip):
    """(module, name) of every package-level name that ``tree`` reads
    outside the top-level node ``skip``: bare names defined in the module
    or imported from a sibling, and attributes of an imported sibling."""
    modules, imported = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    for node in tree.body:
        if node is skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield imported.get(sub.id, (module, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
                yield modules[sub.value.id], sub.attr


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ALLOWED:
                continue
            if not any(
                (module, node.name) in _references(other, other_tree, node)
                for other, other_tree in trees.items()
            ):
                unreferenced.append(f"{module}.{node.name}")
    assert not unreferenced, f"public names that nothing in src/ uses: {unreferenced}"
