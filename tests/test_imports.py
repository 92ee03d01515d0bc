"""Every name a module imports is used in that module.

The modules are those of `src/prodmat/`, `tests/` and `tools/`.  A name
counts as used when it is read anywhere in the module, the root of an
attribute chain included.  The package's `__init__.py` is exempt: its
imports are its re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in ("src/prodmat", "tests", "tools")
    for path in sorted((ROOT / folder).glob("*.py"))
    if path.name != "__init__.py"
]


def _unused_imports(path: Path) -> list:
    """The names that `path` imports and never reads, in order."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_used():
    assert len(MODULES) > 20
    unused = {path.relative_to(ROOT).as_posix(): names for path in MODULES if (names := _unused_imports(path))}
    assert unused == {}
