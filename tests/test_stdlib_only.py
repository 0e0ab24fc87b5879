"""The runtime stays stdlib-only: every module of the package imports only
the standard library, ``__future__`` and the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sepstats"


def _absolute_imports(tree: ast.AST):
    """The top-level name of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    allowed = {"__future__", "sepstats", *sys.stdlib_module_names}
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 9
    outside = {
        (path.relative_to(SRC).as_posix(), name)
        for path in modules
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    }
    assert outside == set()
