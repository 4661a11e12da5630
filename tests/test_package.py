"""The package's public surface: every exported name has a user besides the tests."""

import ast
import importlib
import re
from pathlib import Path

import spinring

PACKAGE = Path(spinring.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def package_uses() -> set[str]:
    """The names the package reads, as a name or an attribute, each outside the
    module-level statement that defines it; an import or an `__all__` entry is
    no use."""
    used = set()
    for source in PACKAGE.glob("*.py"):
        for statement in ast.parse(source.read_text(encoding="utf-8")).body:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
            defined = {getattr(statement, "name", None), *(getattr(t, "id", None) for t in targets)}
            reads = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)
            }
            used |= reads - defined
    return used


def test_every_public_name_is_used_outside_the_tests():
    # a name only the tests use belongs with them, in conftest.py
    outside = (ROOT / "README.md").read_text(encoding="utf-8") + "".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "benchmarks").glob("*.py"))
    )
    used = package_uses()
    modules = [f"spinring.{p.stem}".removesuffix(".__init__") for p in sorted(PACKAGE.glob("*.py"))]
    unused = [
        f"{module}.{name}"
        for module in modules
        for name in getattr(importlib.import_module(module), "__all__", [])
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert not unused, f"exported, but used only by the tests: {unused}"
