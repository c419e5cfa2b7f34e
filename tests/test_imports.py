"""No dead imports, private helpers, slots, attributes or public names in
the package: every name a module imports at its top level, and every
private function or class it defines there, is read somewhere in that
module, every __slots__ name of a package class is read somewhere in the
repository's code, every attribute a package class stores on self is read
somewhere in the package, and every public function, class and method is
read somewhere outside the tests.  Every package name the benchmark hooks
by getattr exists."""

import ast
import importlib.util
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvealg"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
READERS = [p for d in ("src", "tests", "demos", "perfbench")
           for p in sorted((SRC.parent.parent / d).rglob("*.py"))]
# the code that is not a test: the package, the demos and the benchmark
NON_TEST_READERS = [p for p in READERS if p.parent.name != "tests"
                    and not p.name.startswith("test_")]


def _spans():
    """perfbench/spans.py, loaded from its file."""
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _read_attributes(texts):
    return {n.attr for text in texts for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _read_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source):
    """Names bound by module-level imports of source that are never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = _read_names(tree)
    return [name for name in bound if name not in read]


def unused_private_helpers(source):
    """Module-level functions and classes of source named _x (not dunder)
    that source never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def unread_slots(source, readers):
    """(class, name) for each __slots__ name of a class in source that no
    attribute load in source or in readers reads."""
    read = _read_attributes((source, *readers))
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and \
                    any(getattr(t, "id", None) == "__slots__" for t in node.targets):
                out += [(cls.name, name) for name in ast.literal_eval(node.value)
                        if name not in read]
    return out


def unloaded_self_attributes(source, readers):
    """(class, name) for each attribute that a class in source stores on
    self and that no attribute load in source or in readers reads, sorted."""
    read = _read_attributes((source, *readers))
    return sorted({(cls.name, n.attr) for cls in ast.walk(ast.parse(source))
                   if isinstance(cls, ast.ClassDef) for n in ast.walk(cls)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                   and getattr(n.value, "id", None) == "self" and n.attr not in read})


def unread_public_names(source, readers, hooked=()):
    """Each public module-level function or class of source, and each public
    method of a class there as "Class.method", that no load in source or in
    readers reads and that is not one of the attribute names in hooked.  A
    function or class is read by a name or attribute load of its name; a
    method only by an attribute load, since a bare name is a local or
    another definition; a classmethod or staticmethod only by one from its
    class's name or a subclass's, or from cls inside one of those classes."""
    trees = [ast.parse(text) for text in (source, *readers)]
    loads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    names = {n.id for n in loads if isinstance(n, ast.Name)}
    attrs = {n.attr for n in loads if isinstance(n, ast.Attribute)}
    # (owner, attribute) for each load owner.attribute or x.owner.attribute
    qualified = {(getattr(n.value, "id", None) or getattr(n.value, "attr", None), n.attr)
                 for n in loads if isinstance(n, ast.Attribute)}
    classes = [node for node in trees[0].body if isinstance(node, ast.ClassDef)]
    from_cls = {c.name: {n.attr for n in ast.walk(c) if isinstance(n, ast.Attribute)
                         and isinstance(n.ctx, ast.Load) and getattr(n.value, "id", None) == "cls"}
                for c in classes}

    def family(name):
        """name and the names of its subclasses in source."""
        out, grown = set(), {name}
        while grown - out:
            out |= grown
            grown = out | {c.name for c in classes
                           if any(getattr(b, "id", None) in out for b in c.bases)}
        return out

    def read(cls, f):
        if f.name in hooked:
            return True
        if not any(getattr(d, "id", None) in ("classmethod", "staticmethod")
                   for d in f.decorator_list):
            return f.name in attrs
        return any((owner, f.name) in qualified or f.name in from_cls[owner]
                   for owner in family(cls.name))

    out, top_read = [], names | attrs | set(hooked)
    for node in trees[0].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") \
                and node.name not in top_read:
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += ["%s.%s" % (node.name, f.name) for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("_") and not read(node, f)]
    return out


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport os.path\n"
              "from .linalg import ONE, ZERO as Z, rat\n"
              "def f():\n    return rat(ONE) + len(os.path.sep)\n")
    assert unused_imports(source) == ["itertools", "Z"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_private_helpers(path):
    assert unused_private_helpers(path.read_text()) == []


def test_dead_private_helper_is_reported():
    source = ("import functools\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "def _left(T):\n    return T\n"
              "@functools.lru_cache(maxsize=None)\ndef _cached(r):\n    return r\n"
              "class _Base:\n    pass\n"
              "class Family(_Base):\n    pass\n"
              "def run(T):\n    return _cached(len(T))\n")
    assert unused_private_helpers(source) == ["_left"]


def test_no_unread_slots():
    readers = [p.read_text() for p in READERS]
    assert len(READERS) > len(MODULES)
    assert [slot for path in MODULES
            for slot in unread_slots(path.read_text(), readers)] == []


def test_unread_slot_is_reported():
    source = ("class Window:\n"
              "    __slots__ = ('depth', 'filled', 'codim')\n"
              "    def __init__(self, depth, filled):\n"
              "        self.depth = depth\n        self.filled = filled\n"
              "class Empty:\n    __slots__ = ()\n"
              "def size(w):\n    return w.depth\n")
    assert unread_slots(source, ["print(window.codim)"]) == \
        [("Window", "filled")]


def test_no_unloaded_self_attributes():
    # the readers are the package alone: an attribute that only the tests
    # read is built for them
    package = [p.read_text() for p in PACKAGE]
    assert [attr for path in MODULES
            for attr in unloaded_self_attributes(path.read_text(), package)] == []


def test_unloaded_self_attribute_is_reported():
    source = ("class Presentation:\n"
              "    def __init__(self, ring):\n"
              "        self.ring = ring\n        self.hs, self.f = {}, {}\n"
              "        self.h = {}\n        self.h = None\n"
              "    def names(self):\n        return self.ring.names\n"
              "def gens(pres):\n    pres.hs = {}\n    return pres.names()\n")
    assert unloaded_self_attributes(source, ["print(pres.f)"]) == \
        [("Presentation", "h"), ("Presentation", "hs")]


def test_no_unread_public_names():
    # a public name that only the tests read is built for them; the
    # benchmark's getattr hooks count as reads
    readers = [p.read_text() for p in NON_TEST_READERS]
    assert any(p.parent.name == "demos" for p in NON_TEST_READERS)
    hooked = [attr for _, _, attr in _spans().TARGETS]
    assert [name for path in MODULES
            for name in unread_public_names(path.read_text(), readers, hooked)] == []


def test_unread_public_name_is_reported():
    source = ("def main():\n    return Chart.identity().scaled(2)\n"
              "def helper():\n    pass\n"
              "def hooked():\n    pass\n"
              "def _private():\n    pass\n"
              "class Chart:\n"
              "    @classmethod\n    def identity(cls):\n        return cls()\n"
              "    def scaled(self, c):\n        return self\n"
              "    def inverse(self):\n        return self\n"
              "    def _cache(self):\n        pass\n"
              "class _Base:\n    def copy(self):\n        pass\n")
    assert unread_public_names(source, ["main()"], ["hooked"]) == \
        ["helper", "Chart.inverse", "_Base.copy"]


def test_method_read_only_by_a_bare_name_is_reported():
    # a local variable that shares a method's name does not read it
    source = ("class Poly:\n"
              "    def coeff(self, e):\n        return 0\n"
              "    def lead(self):\n        return 1\n"
              "def helper():\n    pass\n"
              "def main(p, coeff):\n    return coeff + p.lead() + helper()\n")
    assert unread_public_names(source, ["main(Poly(), 1)"]) == ["Poly.coeff"]


def test_classmethod_read_only_from_another_class_is_reported():
    # a classmethod or staticmethod is read from its own class, a subclass
    # or cls inside one of them, not from another class of the same name
    source = ("class Data:\n"
              "    @classmethod\n    def from_json(cls, obj):\n        return cls.from_rows(obj)\n"
              "    @classmethod\n    def from_rows(cls, rows):\n        return cls()\n"
              "    @staticmethod\n    def zero():\n        return 0\n"
              "    @classmethod\n    def empty(cls):\n        return cls()\n"
              "class Sub(Data):\n    pass\n"
              "class Other:\n"
              "    @classmethod\n    def from_json(cls, obj):\n        return cls()\n"
              "def main(obj):\n"
              "    return Other.from_json(obj), Sub.zero(), mod.Data.empty()\n")
    assert unread_public_names(source, ["main({})"]) == ["Data.from_json"]


def test_benchmark_hooks_resolve():
    # perfbench/spans.py wraps these (owner, attribute) pairs by getattr;
    # a rename or deletion in the package must fail here, not only in a
    # traced benchmark run
    spans = _spans()
    assert spans.TARGETS
    for span, owner, attr in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)
