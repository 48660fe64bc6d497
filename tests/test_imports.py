"""Every imported name is used: an `ast` scan of the package and its tests.

An import binding counts as used when the module reads the name anywhere
(a bare name, or the base of an attribute chain) or lists it in `__all__`.
No linter ships with the test dependencies, so this scan stands in for one.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(os.path.join(d, f) for d in (os.path.join(ROOT, "src", "algdeg"),
                                              os.path.join(ROOT, "tests"))
                 for f in os.listdir(d) if f.endswith(".py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_flags_only_unused_names():
    src = "import os\nimport a.b as c\nfrom x import y, z\n__all__ = ['z']\nprint(os)\n"
    assert unused_imports(src) == [(2, "c"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
