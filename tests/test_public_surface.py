"""Every public name earns its place: each name in a module's ``__all__``
is used by the package itself, a demo or the benchmark, not only by tests.

A use is an AST name, attribute or import of the name in ``src/``,
``demos/`` or ``perfbench/*.py``; the name's own ``def`` or ``class``
does not count.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "hpkernels", "*.py")))
USERS = MODULES + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))) + sorted(
    glob.glob(os.path.join(ROOT, "perfbench", "*.py")))

# public names kept without a production use, each for a stated reason
ALLOWED = {
    "cd_sum_circle": "the direct Christoffel-Darboux sum; the tests' reference "
                     "for circle_moment_JN",
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
