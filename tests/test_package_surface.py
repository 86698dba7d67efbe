"""Every public function, class and method of `src/parstab` is referred to
(`Name` or `Attribute`) by the package outside its own definition and
`__init__.py`, or by `perfbench/` or `demos/`, string constants included,
since `perfbench/spans.py` patches by name. Test-only code goes in
`tests/oracles.py`."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "parstab")

# library API that README documents and no command calls
ALLOWED = {
    "Border.of": "README shows how to hand a dense matrix to linalg.expm",
    "eval_psi": "README lists the dual eigenfunctions beside eval_phi",
}


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name, ast.parse(fh.read())


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _definitions(tree):
    """(qualified name, definition) of each public top-level function and
    class and each public method of those classes."""
    for node in filter(_public, tree.body):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in filter(_public, node.body):
                yield f"{node.name}.{item.name}", item


def _references(tree, skip=None, strings=False) -> set:
    skipped = {id(n) for n in ast.walk(skip)} if skip else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_names() -> list:
    modules = dict(_trees(PACKAGE))
    del modules["__init__.py"]
    outside = set()
    for directory in ("perfbench", "demos"):
        for _, tree in _trees(os.path.join(ROOT, directory)):
            outside |= _references(tree, strings=True)
    found = []
    for module, tree in modules.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if qualified in ALLOWED or name in outside:
                continue
            if not any(
                name in _references(other, skip=node if other is tree else None)
                for other in modules.values()
            ):
                found.append(f"{module[:-3]}.{qualified}")
    return found


def test_every_public_name_is_used_by_the_program():
    assert unreferenced_names() == []


def test_the_allowlist_names_only_defined_names():
    defined = {q for _, tree in _trees(PACKAGE) for q, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
