"""The package surface: every public top-level function and class has a caller.

A public name of `src/moment_glioma/*.py` counts as used when it is read
somewhere other than inside its own definition: by any module of the
package except `__init__.py` (whose re-exports are not uses), by a script
under `scripts/`, by the benchmark under `perfbench/` (which also names
the functions it traces as strings), or as the `pyproject.toml` entry
point. Tests do not count: a function only a test calls belongs in the
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
