"""Every public name earns its place: each name in a module's ``__all__``
is used by the package itself, a demo or the benchmark, not only by tests.

A use is an AST name, attribute or import of the name in ``src/``,
``demos/`` or ``perfbench/*.py``; the name's own ``def`` or ``class``
does not count.  The methods the benchmark tracer wraps must exist too.
"""

import ast
import glob
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "hpkernels", "*.py")))
USERS = MODULES + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))) + sorted(
    glob.glob(os.path.join(ROOT, "perfbench", "*.py")))

# public names kept without a production use, each for a stated reason
ALLOWED = {
    "s2_functional": "the s <= -1/2 functional; it either becomes an "
                     "importance-weight check of the damping or goes",
}


def _tree(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _used_names():
    used = set()
    for path in USERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_name_is_used():
    used = _used_names()
    unused = sorted(
        f"{os.path.basename(path)}:{name}"
        for path in MODULES for name in _exported(_tree(path))
        if name not in used and name not in ALLOWED
    )
    assert unused == []


def test_allowlist_holds_only_unused_public_names():
    exported = {n for path in MODULES for n in _exported(_tree(path))}
    assert sorted(set(ALLOWED) - (exported - _used_names())) == []


def test_traced_methods_exist():
    # the benchmark tracer wraps these methods by class __dict__: a method
    # deleted or renamed here would fail the traced run with a KeyError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{cls_name}.{meth}"
        for layer, classes in tracing.METHODS.items()
        for cls_name, methods in classes.items()
        for meth in methods
        if meth not in vars(getattr(importlib.import_module(f"hpkernels.{layer}"), cls_name))
    ]
    assert missing == []


def test_traced_build_attributes_read_as_numbers():
    # the benchmark tracer reads these off a built basis with getattr: the
    # Gram diagnostic must stay an attribute that reads as a float
    from hpkernels.weights_opuc import HPParam, build_opuc

    basis = build_opuc(HPParam(0.5), 8)
    assert type(basis.gram_residual) is float
    assert type(basis.degree_count) is int
