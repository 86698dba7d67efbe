"""Every public function, class and method of `src/parstab` is referred to
(`Name` or `Attribute`) by the package outside its own definition and
`__init__.py`, or by `perfbench/` or `demos/`, string constants included,
since `perfbench/spans.py` patches by name. Test-only code goes in
`tests/oracles.py`.

Every parameter with a default of those functions and methods, and of those
classes' `__init__`, is passed, by keyword or by position, in some call of
that name in the same places; a parameter only the tests set goes."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "parstab")

# library API that README documents and no command calls
ALLOWED = {
    "Border.of": "README shows how to hand a dense matrix to linalg.expm",
    "eval_psi": "README lists the dual eigenfunctions beside eval_phi",
}


# defaulted parameters that no call in the package, perfbench/ or demos/ passes
ALLOWED_PARAMS = {
    "cli.main(argv)": "the argparse entry: perfbench/op.py and the tests call it through a variable",
    "simulation.run(keep_states)": "the tests read the propagated states of `run` itself through it",
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


def _defaulted(fn) -> list:
    """(name, position) of each parameter of `fn` with a default; the
    position is None for a keyword-only one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls(tree, name, skip=None):
    """Calls of `name` or `*.name` in `tree` outside `skip`."""
    skipped = {id(n) for n in ast.walk(skip)} if skip else set()
    for node in ast.walk(tree):
        if id(node) in skipped or not isinstance(node, ast.Call):
            continue
        f = node.func
        if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
            yield node


def _callables(tree):
    """(label, called name, function, implicit first argument, definition)
    of each public function, method and class `__init__`; a class is called
    by its own name."""
    for qualified, node in _definitions(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield node.name, node.name, item, 1, node
        else:
            yield qualified, node.name, node, int("." in qualified), node


def unpassed_parameters() -> list:
    modules = dict(_trees(PACKAGE))
    del modules["__init__.py"]
    outside = [tree for d in ("perfbench", "demos") for _, tree in _trees(os.path.join(ROOT, d))]
    found = []
    for module, tree in modules.items():
        for label, name, fn, implicit, node in _callables(tree):
            calls = [
                call
                for other in [*modules.values(), *outside]
                for call in _calls(other, name, skip=node if other is tree else None)
            ]
            for param, position in _defaulted(fn):
                passed = any(
                    any(k.arg == param for k in call.keywords)
                    or (position is not None and len(call.args) > position - implicit)
                    for call in calls
                )
                entry = f"{module[:-3]}.{label}({param})"
                if not passed and entry not in ALLOWED_PARAMS:
                    found.append(entry)
    return found


def test_every_public_name_is_used_by_the_program():
    assert unreferenced_names() == []


def test_the_allowlist_names_only_defined_names():
    defined = {q for _, tree in _trees(PACKAGE) for q, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_every_defaulted_parameter_is_passed_by_the_program():
    assert unpassed_parameters() == []


def test_the_parameter_allowlist_names_only_defaulted_parameters():
    defaulted = {
        f"{module[:-3]}.{label}({param})"
        for module, tree in _trees(PACKAGE)
        for label, _, fn, _, _ in _callables(tree)
        for param, _ in _defaulted(fn)
    }
    assert set(ALLOWED_PARAMS) <= defaulted
