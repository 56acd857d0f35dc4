"""Every public top-level function, class and constant in ``src/aggdiff``
has a caller or reader there, and every field of its dataclasses and
NamedTuples has a reader.

A name that only the tests reach is test code: it belongs in ``tests/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aggdiff"

# The dense drift builders are the tests' oracles; the benchmark's layer
# tracer wraps them by module attribute, so they stay in _accel until that
# tracer stops patching them (ROADMAP item 4).
ALLOWED = {"build_matrix_1d", "build_matrix_nd"}
# The benchmark reports the backend in its machine block and reads it from
# _accel; nothing in src/ does.
ALLOWED_CONSTANTS = {"_accel.BACKEND"}


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


def _constant_names(node):
    """The UPPER_CASE public names that a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        t.id for t in targets
        if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_")
    ]


def test_every_public_constant_has_a_reader_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for name in _constant_names(node):
                if f"{module}.{name}" in ALLOWED_CONSTANTS:
                    continue
                if not any(
                    (module, name) in _references(other, other_tree, node)
                    for other, other_tree in trees.items()
                ):
                    unread.append(f"{module}.{name}")
    assert not unread, f"public constants that nothing in src/ reads: {unread}"


# Fields that no attribute access in src/ reads, each with its reason.
UNREAD_FIELDS = {
    # cli writes the constants into run.json and sweep.json with
    # dataclasses.asdict, which reads every field.
    "analysis.ConcentrationConstants.capped_moment": "written by asdict",
    "analysis.ConcentrationConstants.initial_moment": "written by asdict",
    "analysis.ConcentrationConstants.ball_factor": "written by asdict",
}


def _is_record(node):
    """A class decorated with ``dataclass`` or derived from ``NamedTuple``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def test_every_record_field_is_read_in_src():
    # By name: a field counts as read when any attribute load in src/ has
    # its name, whatever the object.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_record(node)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = f"{module}.{node.name}.{item.target.id}"
                    if item.target.id not in read and name not in UNREAD_FIELDS:
                        unread.append(name)
    assert not unread, f"record fields that nothing in src/ reads: {unread}"
