"""Every public function, class and method of `src/parstab` is referred to
(`Name` or `Attribute`) by the package outside its own definition and
`__init__.py`, or by `perfbench/` or `demos/`, string constants included,
since `perfbench/spans.py` patches by name. Test-only code goes in
`tests/oracles.py`.

Every parameter with a default of those functions and methods, and of those
classes' `__init__`, is passed, by keyword or by position, in some call of
that name in the same places; a parameter only the tests set goes.

Every leaf key of `cli.SCHEMA` is read by a string subscript in `cli.py`
outside `SCHEMA`, so a config key that nothing reads fails here.

Every field of a `@dataclass` of `src/parstab` is read, as an attribute or
as a string constant, by the package outside its class, or by `perfbench/`
or `demos/`: a field only the tests read goes. A class that serializes
itself through `dataclasses.fields(self)` reads all its fields.

At most one function of `src/parstab` calls `os.fork`: every fork goes
through one helper, which reaps its children and forks only while no other
thread is inside BLAS."""

import ast
import functools
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
}


class _Index:
    """One walk of a syntax tree: the positions of its `Name` and `Attribute`
    references by name, of its attribute reads (`Attribute` loads) by
    attribute, of its calls by called name (`name(...)` or `*.name(...)`),
    and of its string constants by value."""

    def __init__(self, tree):
        self.refs, self.reads, self.calls, self.strings = {}, {}, {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.refs.setdefault(node.id, []).append(_position(node))
            elif isinstance(node, ast.Attribute):
                self.refs.setdefault(node.attr, []).append(_position(node))
                if isinstance(node.ctx, ast.Load):
                    self.reads.setdefault(node.attr, []).append(_position(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.strings.setdefault(node.value, []).append(_position(node))
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called is not None:
                    self.calls.setdefault(called, []).append((_position(node), node))


def _position(node):
    return node.lineno, node.col_offset


def _outside(span, position) -> bool:
    """`position` is not within `span`, a definition's (first, end) positions."""
    first, end = span
    return not first <= position < end


def _span(node):
    """(first, end) positions of a definition, its decorators included."""
    first = min([_position(d) for d in node.decorator_list] + [_position(node)])
    return first, (node.end_lineno, node.end_col_offset)


@functools.cache
def _indexed(directory) -> dict:
    """File name -> (tree, `_Index`) of each .py file in `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                tree = ast.parse(fh.read())
            out[name] = tree, _Index(tree)
    return out


def _package() -> dict:
    modules = dict(_indexed(PACKAGE))
    del modules["__init__.py"]
    return modules


def _outside_indexes() -> list:
    dirs = [os.path.join(ROOT, d) for d in ("perfbench", "demos")]
    return [index for d in dirs for _, index in _indexed(d).values()]


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


def unreferenced_names() -> list:
    modules = _package()
    outside = set()
    for index in _outside_indexes():
        outside |= index.refs.keys() | index.strings
    found = []
    for module, (tree, own) in modules.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if qualified in ALLOWED or name in outside:
                continue
            span = _span(node)
            if not any(
                name in index.refs for other, (_, index) in modules.items() if other != module
            ) and not any(_outside(span, p) for p in own.refs.get(name, ())):
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
    modules = _package()
    outside = _outside_indexes()
    found = []
    for module, (tree, own) in modules.items():
        others = [index for other, (_, index) in modules.items() if other != module] + outside
        for label, name, fn, implicit, node in _callables(tree):
            span = _span(node)
            calls = [call for index in others for _, call in index.calls.get(name, ())]
            calls += [call for p, call in own.calls.get(name, ()) if _outside(span, p)]
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
    defined = {q for tree, _ in _indexed(PACKAGE).values() for q, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_every_defaulted_parameter_is_passed_by_the_program():
    assert unpassed_parameters() == []


def test_the_parameter_allowlist_names_only_defaulted_parameters():
    defaulted = {
        f"{module[:-3]}.{label}({param})"
        for module, (tree, _) in _indexed(PACKAGE).items()
        for label, _, fn, _, _ in _callables(tree)
        for param, _ in _defaulted(fn)
    }
    assert set(ALLOWED_PARAMS) <= defaulted


def _schema_leaves(node):
    """Keys of the leaves (kind, default) of a SCHEMA dict node, with the
    leaves of the object schemas nested in their kinds."""
    for key, value in zip(node.keys, node.values):
        if isinstance(value, ast.Dict):
            yield from _schema_leaves(value)
        else:
            yield key.value
            for inner in ast.walk(value):
                if isinstance(inner, ast.Dict):
                    yield from _schema_leaves(inner)


def unread_config_keys() -> list:
    tree, _ = _indexed(PACKAGE)["cli.py"]
    (schema,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SCHEMA"]
    ]
    span = _position(schema), (schema.end_lineno, schema.end_col_offset)
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.slice, ast.Constant)
        and _outside(span, _position(node))
    }
    return sorted(set(_schema_leaves(schema.value)) - read)


def test_every_config_key_is_read_by_the_cli():
    assert unread_config_keys() == []


def _dataclasses(tree):
    """Top-level classes decorated with `dataclass`, called or not."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)):
                    yield node
                    break


def _reads_every_field(cls) -> bool:
    """`cls` calls `fields(self)` (as `dataclasses.fields` or imported)."""
    return any(
        isinstance(node, ast.Call)
        and "fields" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and [getattr(a, "id", None) for a in node.args] == ["self"]
        for node in ast.walk(cls)
    )


def unread_fields() -> list:
    modules = _package()
    outside = _outside_indexes()
    found = []
    for module, (tree, own) in modules.items():
        others = [index for other, (_, index) in modules.items() if other != module] + outside
        for cls in _dataclasses(tree):
            if _reads_every_field(cls):
                continue
            span = _span(cls)
            for item in cls.body:
                if not isinstance(item, ast.AnnAssign):
                    continue
                name = item.target.id
                own_reads = own.reads.get(name, []) + own.strings.get(name, [])
                if not any(name in index.reads or name in index.strings for index in others) and not any(
                    _outside(span, p) for p in own_reads
                ):
                    found.append(f"{module[:-3]}.{cls.name}.{name}")
    return found


def test_every_dataclass_field_is_read_by_the_program():
    assert unread_fields() == []


def fork_callers() -> list:
    """`module.function` of the innermost function around each call of a
    name `fork`, such as `os.fork()`, in the package (`module` alone for a
    call at module level)."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                called = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if called == "fork":
                    found.append(owner)
            visit(child, module, owner)

    for name, (tree, _) in _indexed(PACKAGE).items():
        visit(tree, name[:-3], name[:-3])
    return found


def test_one_function_forks():
    assert len(set(fork_callers())) <= 1, fork_callers()
