"""Every public name and every default earns its place: each name in a
module's ``__all__`` is used by the package itself, a demo or the
benchmark, not only by tests, and so is each parameter with a default.

A use of a name is an AST name, attribute or import of it in ``src/``,
``demos/`` or ``perfbench/*.py``; the name's own ``def`` or ``class``
does not count.  A use of a default is a call there, to a function,
method or dataclass of that name, that passes the parameter: by keyword,
by position (a method's position offset by its ``self``), or through a
``*`` or ``**`` argument that could carry it.  A default no call sets is
a constant in disguise.  The methods the benchmark tracer wraps must
exist too.
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


# parameters with defaults kept although no production call sets them,
# each for a stated reason; keys are "module.py:qualname.param"
ALLOWED_DEFAULTS: dict[str, str] = {}


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


def _init_fields(cls: ast.ClassDef) -> list:
    """The fields a dataclass's __init__ takes, in order: annotated
    assignments of its body but ClassVars and field(init=False)."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return []
    return [st for st in cls.body
            if isinstance(st, ast.AnnAssign) and "ClassVar" not in ast.unparse(st.annotation)
            and not (isinstance(st.value, ast.Call) and any(
                k.arg == "init" and ast.literal_eval(k.value) is False
                for k in st.value.keywords))]


def _defaults():
    """(key, callee name, parameter, position or None for keyword-only) for
    every parameter with a default in src/hpkernels: functions, methods and
    nested functions, and dataclass fields that __init__ takes."""
    out = []
    for path in MODULES:
        mod = os.path.basename(path)

        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = child.args
                    pos = a.posonlyargs + a.args
                    offset = 1 if in_class else 0
                    first = len(pos) - len(a.defaults)
                    for i in range(first, len(pos)):
                        out.append((f"{mod}:{prefix}{child.name}.{pos[i].arg}",
                                    child.name, pos[i].arg, i - offset))
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            out.append((f"{mod}:{prefix}{child.name}.{arg.arg}",
                                        child.name, arg.arg, None))
                    visit(child, f"{prefix}{child.name}.", False)
                elif isinstance(child, ast.ClassDef):
                    for i, st in enumerate(_init_fields(child)):
                        if st.value is not None:
                            out.append((f"{mod}:{prefix}{child.name}.{st.target.id}",
                                        child.name, st.target.id, i))
                    visit(child, f"{prefix}{child.name}.", True)

        visit(_tree(path), "", False)
    return out


def _calls():
    """Every call in src/, demos/ and perfbench/*.py, by callee name:
    (positional count before any *, whether it has * or **, keywords)."""
    calls = {}
    for path in USERS:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            npos = starred[0] if starred else len(node.args)
            spread = bool(starred) or any(k.arg is None for k in node.keywords)
            kws = {k.arg for k in node.keywords if k.arg is not None}
            calls.setdefault(name, []).append((npos, spread, kws))
    return calls


def _unset_defaults():
    calls = _calls()
    return sorted(
        key for key, name, param, index in _defaults()
        if not any(param in kws or spread or (index is not None and npos > index)
                   for npos, spread, kws in calls.get(name, ()))
    )


def test_every_default_is_set_by_a_caller():
    unset = [k for k in _unset_defaults() if k not in ALLOWED_DEFAULTS]
    assert unset == []


def test_default_allowlist_holds_only_unset_defaults():
    assert sorted(set(ALLOWED_DEFAULTS) - set(_unset_defaults())) == []


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
