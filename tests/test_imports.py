"""Every imported name is used, every name and parameter `src/algdeg` defines is read
there, and `python -O` runs the same program as `python`.

Four `ast` scans stand in for a linter, since none ships with the test
dependencies.  An import binding counts as used when the module reads the
name anywhere (a bare name, or the base of an attribute chain) or lists it in
`__all__`.  A module-level function or class of `src/algdeg`, or a non-dunder
method of such a class, counts as read when code of the package that is
itself read (or runs at import) reads its name as an `ast.Name` or
`ast.Attribute` outside its own definition; an attribute spelled `C.m`, with
C a class of the package, reads C's method m alone.  Code only the tests need
belongs in `tests/oracles.py`, not in `src/`.  `python -O` removes `assert`
statements and sets `__debug__` to False, and a program sees the flag
otherwise only through `sys.flags`.  The third scan reads every line of
`src/algdeg`, not only the lines a test run reaches, and finds none of the
three, so `-O` strips no check there and no branch depends on the flag.
The fourth finds every parameter of a `def` in `src/algdeg` that its body
never reads, so a setting that does nothing cannot hide in a signature.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "algdeg")
MODULES = sorted(os.path.join(d, f) for d in (SRC, os.path.join(ROOT, "tests"))
                 for f in os.listdir(d) if f.endswith(".py"))

# Definitions nothing in the package reads, each with the reason it stays.
# `algdeg.__all__` earns none: an exported class or method that no package
# code reads needs an entry too.
TRACED = "perfbench/tracing.py wraps it; goes once the benchmark drops the name"
UNREAD_ALLOWED = {
    **{f"cli.cmd_{c}": "looked up by name from the subcommand"
       for c in ("dims", "canon", "spin", "survey", "series", "lattice", "degen",
                 "gamma", "verify_all")},
    "exactla.reduce_against": TRACED,
    "exactla.reduce_with_coeffs": TRACED,
    "exactla.quotient_coords": TRACED,
    "exactla.null_space": TRACED,
    "exactla.Matrix.rank": TRACED,
    "exactla.Subspace.quotient_dim": TRACED,
    "canon.omega_preimage": TRACED,
    "canon.predicate_K": ("the predicate half of the K pair (predicate vs basis), "
                          "which ROADMAP aim 2 keeps on purpose"),
    "spinmx.handle_spin": TRACED,
    "spinmx.close_subspace": TRACED,
    "gamma2.replay_irreducible_from": TRACED,
    "canon.ProjectivePoint.enumerate": "perfbench/workloads.py reads it",
    "exactla.Subspace.from_json": "perfbench/workloads.py reads it",
    "spinmx.rational_generators": ("the generators over Q that the ROADMAP item on "
                                   "characteristic zero builds on"),
}


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


def definitions(tree):
    """(qualified name, owner, node) of each module-level function or class,
    and of each non-dunder method of such a class (owner: its class)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                    yield f"{node.name}.{m.name}", node.name, m


def _local_names(fn):
    """The parameters of a function or lambda, and the names assigned in it."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return ({p.arg for p in params}
            | {x.id for x in ast.walk(fn) if isinstance(x, ast.Name)
               and isinstance(x.ctx, ast.Store)})


def reads(node, skip=(), classes=()):
    """("name", id) for each `ast.Name` read that no enclosing function binds,
    and for each `ast.Attribute` ("attr", "C.m") when it is spelled C.m with C
    one of `classes` that no enclosing function binds, else ("attr", attr),
    under `node`, not descending into the nodes in `skip`."""
    todo = [(node, frozenset())]
    while todo:
        x, local = todo.pop()
        if isinstance(x, (ast.FunctionDef, ast.Lambda)):
            local = local | _local_names(x)
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load) and x.id not in local:
            yield "name", x.id
        elif isinstance(x, ast.Attribute):
            v = x.value
            if isinstance(v, ast.Name) and v.id in classes and v.id not in local:
                yield "attr", f"{v.id}.{x.attr}"
            else:
                yield "attr", x.attr
        todo.extend((c, local) for c in ast.iter_child_nodes(x) if c not in skip)


def unread_definitions(sources, roots=()):
    """Qualified names of the definitions in {module: source} that no live code reads.

    Live code is module-level code outside definitions, the definitions in
    `roots` (a class there keeps its methods), and every definition that live
    code reads, so a name read only by unread code, or only by itself, is
    unread.  A class's own code is its body apart from its non-dunder methods.
    A bare name reads a module-level definition, an attribute reads any, and
    an attribute spelled C.m, C a class defined in `sources`, reads C.m alone.
    """
    trees = {m: ast.parse(src) for m, src in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    defs = []
    live = set()
    for m, tree in trees.items():
        found = list(definitions(tree))
        methods = [node for _, owner, node in found if owner]
        live.update(reads(tree, [node for _, _, node in found], classes))
        defs += [(node.name, qual, owner is None, f"{m}.{qual}", owner and f"{m}.{owner}",
                  list(reads(node, methods, classes)))
                 for qual, owner, node in found]
    reached = set()
    grew = True
    while grew:
        grew = False
        for name, short, top, qual, owner, reads_of in defs:
            if qual not in reached and (("attr", name) in live or ("attr", short) in live
                                        or top and ("name", name) in live
                                        or qual in roots or owner in roots):
                reached.add(qual)
                live.update(reads_of)
                grew = True
    return sorted(d[3] for d in defs if d[3] not in reached)


def test_the_definition_scan_flags_only_unread_names():
    a = ("import b\n"
         "def used():\n    return 1\n"
         "def recursive(k):\n    return recursive(k - 1)\n"
         "def dead():\n    return only_dead_reads_me()\n"
         "def only_dead_reads_me():\n    return 0\n"
         "def shadowed():\n    return 0\n"
         "def f(shadowed):\n    return [shadowed for len in shadowed]\n"
         "class C:\n    def m(self):\n        return used()\n"
         "    def len(self):\n        return 0\n"
         "    def __len__(self):\n        return helper()\n"
         "def helper():\n    return 0\n"
         "class Kept:\n    def kept(self):\n        return 0\n"
         "class D:\n    def m(self):\n        return 0\n"
         "    def n(self):\n        return 0\n"
         "    def k(self):\n        return 0\n"
         "print(f(C()), len([]))\n")
    # C.m reads C's m alone, so D.m stays unread; D bound by the lambda is
    # not the class, so its D.k reads every k
    b = "from a import C, D\nprint(C.m, D.n, (lambda D: D.k)(D))\n"
    assert unread_definitions({"a": a, "b": b}, {"a.Kept"}) == [
        "a.C.len", "a.D.m", "a.dead", "a.only_dead_reads_me", "a.recursive", "a.shadowed"]


def test_every_definition_in_the_package_is_read():
    sources = {}
    for f in os.listdir(SRC):
        if f.endswith(".py"):
            with open(os.path.join(SRC, f)) as fh:
                sources[f[:-3]] = fh.read()
    unread = unread_definitions(sources, set(UNREAD_ALLOWED))
    assert not unread, "read nowhere in src/algdeg: " + ", ".join(unread)
    # every allowlisted name is defined and would be flagged without its entry
    assert set(UNREAD_ALLOWED) <= set(unread_definitions(sources))


def unread_parameters(source):
    """("qualified function: parameter") for each parameter of a `def` in
    `source` that its body never reads.  `self` and `cls` are exempt, and so
    are lambdas, which keep fixed callback signatures.  A read inside a nested
    function or lambda counts unless that one binds the same name."""
    found = []
    todo = [(node, "") for node in ast.parse(source).body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            read = {name for stmt in node.body for kind, name in reads(stmt) if kind == "name"}
            found += [f"{prefix}{node.name}: {p.arg}" for p in params
                      if p.arg not in ("self", "cls") and p.arg not in read]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            prefix = f"{prefix}{node.name}."
        todo.extend((c, prefix) for c in ast.iter_child_nodes(node))
    return sorted(found)


def test_the_parameter_scan_flags_only_unread_parameters():
    src = ("def f(a, b, *args, c=1, **kw):\n    return a + c\n"
           "class C:\n    def m(self, x):\n        return 0\n"
           "    @classmethod\n    def k(cls):\n        return 0\n"
           "def outer(x, y, z):\n"
           "    def inner(y):\n        return y\n"
           "    g = lambda unused: x\n"
           "    return inner(0), [z for _ in ()], g\n")
    assert unread_parameters(src) == [
        "C.m: x", "f: args", "f: b", "f: kw", "outer: y"]


@pytest.mark.parametrize("path", [m for m in MODULES if os.path.dirname(m) == SRC],
                         ids=lambda p: os.path.relpath(p, ROOT))
def test_every_parameter_in_the_package_is_read(path):
    with open(path) as fh:
        assert unread_parameters(fh.read()) == []


def optimize_sensitive(source):
    """(line, what) of each `assert` statement, `__debug__` name and `sys.flags`
    read (including `from sys import flags`) in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif (isinstance(node, ast.Name) and node.id == "__debug__"
              or isinstance(node, ast.Attribute) and node.attr == "__debug__"):
            found.append((node.lineno, "__debug__"))
        elif (isinstance(node, ast.Attribute) and node.attr == "flags"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"
              or isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(a.name == "flags" for a in node.names)):
            found.append((node.lineno, "sys.flags"))
    return sorted(found)


def test_the_optimize_scan_flags_what_python_O_changes():
    src = ("import sys\n"
           "assert sys.argv, 'no argv'\n"
           "if __debug__:\n    print('checked')\n"
           "level = sys.flags.optimize\n"
           "from sys import flags\n"
           "if not sys.argv:\n    raise AssertionError('kept under -O')\n"
           "flags = {'assert': 1}\n"
           "print(level, flags['assert'], sys.argv.count)\n")
    assert optimize_sensitive(src) == [
        (2, "assert"), (3, "__debug__"), (5, "sys.flags"), (6, "sys.flags")]


@pytest.mark.parametrize("path", [m for m in MODULES if os.path.dirname(m) == SRC],
                         ids=lambda p: os.path.relpath(p, ROOT))
def test_python_O_strips_nothing_from_the_package(path):
    with open(path) as fh:
        assert optimize_sensitive(fh.read()) == []
