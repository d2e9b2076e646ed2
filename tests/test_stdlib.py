"""The runtime stays pure standard library, and `src/` imports inside a function only to break an import cycle."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "toeplitz_lab"


def imported_top_level_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = {
        (path.name, module)
        for path in paths
        for module in imported_top_level_modules(path)
        if module not in sys.stdlib_module_names and module != "toeplitz_lab"
    }
    assert not foreign


def function_level_imports(path):
    """The modules ``path`` imports inside a function body."""
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield node.module


def test_src_defers_only_the_two_cyclic_imports():
    # gallery imports words, and odometer imports elements
    deferred = {(path.stem, module) for path in SRC.glob("*.py") for module in function_level_imports(path)}
    assert deferred == {("words", "gallery"), ("elements", "odometer")}
