"""No dead imports in the package: every name a module imports at its top
level is read somewhere in that module.  Every package name the benchmark
hooks by getattr exists."""

import ast
import importlib.util
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvealg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports of source that are never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


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


def test_benchmark_hooks_resolve():
    # perfbench/spans.py wraps these (owner, attribute) pairs by getattr;
    # a rename or deletion in the package must fail here, not only in a
    # traced benchmark run
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for span, owner, attr in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)
