"""The package surface: every public top-level function and class has a caller.

A public name of `src/moment_glioma/*.py` counts as used when it is read
somewhere other than inside its own definition: by any module of the
package except `__init__.py` (whose re-exports are not uses), by a script
under `scripts/`, by the benchmark under `perfbench/` (which also names
the functions it traces as strings), or as the `pyproject.toml` entry
point. Tests do not count: a function only a test calls belongs in the
tests.

The same holds for the parameter defaults of the functions and methods
`__init__.py` does not re-export: a default that no call in the package
overrides is dead, and one that every call overrides serves only the
tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moment_glioma"


def public_definitions():
    """(module, name) of every public top-level function and class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((path.stem, node.name))
    return out


def package_reads() -> set:
    """Names the package modules read, outside the definition of that name."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    reads.add(name)
    return reads


def outside_text() -> str:
    """The scripts, the benchmark's Python files and the entry point."""
    files = sorted(ROOT.glob("scripts/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))
    entry = re.findall(r"=\s*\"moment_glioma\.\w+:(\w+)\"", (ROOT / "pyproject.toml").read_text())
    return "\n".join([p.read_text() for p in files] + entry)


def test_every_public_function_and_class_is_used_outside_the_tests():
    reads, text = package_reads(), outside_text()
    unused = [
        f"{module}.{name}"
        for module, name in public_definitions()
        if name not in reads and not re.search(rf"\b{name}\b", text)
    ]
    assert not unused, f"public names that only tests (or nothing) use: {unused}"


#: the defaults the scan accepts, with why each stays
DEFAULTS_KEPT = {
    # the console entry point: argv=None makes argparse read sys.argv
    "cli.cli_main.argv",
    # the periodic value is the system under test of acceptance criterion 4
    # and of the step-kernel tests; every run takes the thermal wall
    "solver.flux_step.bc",
}


def private_functions():
    """(module, class or None, def) of every function and method, nested
    ones included, that `__init__.py` does not re-export (by its own name
    or its class's)."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    out = []

    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
            elif isinstance(child, ast.FunctionDef):
                if child.name not in exported and cls not in exported:
                    out.append((module, cls, child))
                visit(child, module, None)
            else:
                visit(child, module, cls)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return out


def package_calls():
    """(module the callee name resolves to or None, name, is an attribute
    call, call) of every call in the package modules but `__init__.py`. A
    bare name resolves through the caller's relative imports, else to the
    caller's own module."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imports = {a.asname or a.name: node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            f = call.func
            if isinstance(f, ast.Name):
                out.append((imports.get(f.id, path.stem), f.id, False, call))
            elif isinstance(f, ast.Attribute):
                out.append((None, f.attr, True, call))
    return out


def overrides(call, index, name) -> bool:
    """Whether `call` passes the parameter at positional `index` (None for
    keyword-only) named `name`; a starred argument may pass any."""
    return (
        any(isinstance(a, ast.Starred) for a in call.args)
        or any(k.arg in (None, name) for k in call.keywords)
        or (index is not None and index < len(call.args))
    )


def call_sites(calls, module, cls, fn):
    """The package's calls of `fn`, and the parameter its first argument
    binds to: a function's by its resolved name, a class's `__init__` by
    the class name, any other method by attribute name (the receiver binds
    `self`)."""
    if cls is None:
        return [c for m, n, attr, c in calls if not attr and (m, n) == (module, fn.name)], 0
    if fn.name == "__init__":
        return [c for m, n, attr, c in calls if not attr and (m, n) == (module, cls)], 1
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    return [c for m, n, attr, c in calls if attr and n == fn.name], 0 if static else 1


def test_no_private_default_is_dead_or_test_only():
    calls = package_calls()
    found = {}
    for module, cls, fn in private_functions():
        a = fn.args
        pos = a.posonlyargs + a.args
        defaulted = [(i, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        sites, shift = call_sites(calls, module, cls, fn)
        for i, name in defaulted:
            passed = [overrides(c, None if i is None else i - shift, name) for c in sites]
            key = ".".join(filter(None, (module, cls, fn.name, name)))
            if not any(passed):
                found[key] = "dead: no call passes it"
            elif all(passed):
                found[key] = "test-only: every call passes it"
    unexplained = {k: why for k, why in found.items() if k not in DEFAULTS_KEPT}
    assert not unexplained, f"defaults that src/ never varies: {unexplained}"
    stale = DEFAULTS_KEPT - set(found)
    assert not stale, f"kept defaults that src/ now varies: {stale}"
