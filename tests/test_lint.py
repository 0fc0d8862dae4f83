"""Static checks over the package source."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdcnet"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line; __future__ excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


ROOT = SRC.parents[1]
PROGRAM_FILES = sorted(p for d in ("src", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py"))


def _named(node, bare: bool = True) -> set[str]:
    """Every identifier a subtree names: variables, attributes, imported
    names and identifier-like strings (the tracer looks functions up by
    name). Without `bare`, variables are left out: they name the module's
    own definitions, and another module reaches a definition only through
    the other three."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and bare:
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _defined(stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or the
    targets of a module-level assignment, dunder names (__all__) excluded."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_top_level_definition_is_named_elsewhere():
    # one entry per top-level statement of every program file
    statements = [(path, stmt) for path in PROGRAM_FILES
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [_named(stmt) for _, stmt in statements]
    reached = [_named(stmt, bare=False) for _, stmt in statements]
    unused = []
    for i, (path, stmt) in enumerate(statements):
        if not path.is_relative_to(SRC):
            continue
        # a statement of the same file, or another file's import, attribute or string
        elsewhere = [named[j] if statements[j][0] == path else reached[j]
                     for j in range(len(statements)) if j != i]
        for name in _defined(stmt):
            if not any(name in names for names in elsewhere):
                unused.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    assert not unused, f"defined but never named outside their definition: {unused}"


def _load_tracing():
    """perfbench/tracing.py as a module, loaded from its file (perfbench is
    not a package on the test path)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_binds_resolves():
    # the tracer wraps these functions by name; a rename in src/ would
    # otherwise surface only in a traced benchmark run
    tracing = _load_tracing()
    missing = []
    for mod_name, funcs in tracing.OP_FUNCS.items():
        mod = importlib.import_module(mod_name)
        missing += [f"{mod_name}.{fn}" for fn in funcs if not callable(getattr(mod, fn, None))]
    for _, mod_name, fn_name, where in tracing.FUNCTION_SPANS:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        if not callable(fn):
            missing.append(f"{mod_name}.{fn_name}")
        for owner in where or []:
            if getattr(importlib.import_module(owner), fn_name, None) is not fn:
                missing.append(f"{owner}.{fn_name}")
    for _, mod_name, cls_name, meth in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if not callable(getattr(cls, meth, None)):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert not missing, f"names the tracer binds that src/ does not define: {missing}"


# the modules whose scratch buffers hold activations or their gradients;
# parameter initialisation elsewhere in model/ is float64 on purpose
BUFFER_MODULES = ("tensor.py", "kernels.py", "model/attention.py")
# allocators and the position of their dtype argument
ALLOCATORS = {"empty": 1, "zeros": 1, "ones": 1, "full": 2}


@pytest.mark.parametrize("rel", BUFFER_MODULES)
def test_every_scratch_buffer_names_its_dtype(rel):
    # a buffer without a dtype is float64, which silently turns a float32
    # pass back into float64; np.*_like takes its input's dtype
    path = SRC / rel
    bare = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in ALLOCATORS):
            continue
        if len(node.args) <= ALLOCATORS[node.func.attr] and not any(k.arg == "dtype" for k in node.keywords):
            bare.append(f"{rel}:{node.lineno} np.{node.func.attr}")
    assert not bare, f"allocations without a dtype: {bare}"
