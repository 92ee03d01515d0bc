"""Every name that the benchmark's files import from prodmat resolves.

The benchmark imports the program it measures, so a name pruned from the
library breaks the benchmark's import.  Names that `spans.TRACED` lists are
exempt: the tracer reports a missing one as absent by design.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def _prodmat_imports():
    """(file, module, name) for each `from prodmat... import name` in perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "prodmat":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_perfbench_imports_resolve():
    traced = {(module, attr.split(".")[0]) for _, module, attr in spans.TRACED}
    found = list(_prodmat_imports())
    assert len(found) >= 20, found
    missing = [f for f in found if f[1:] not in traced and not _resolves(*f[1:])]
    assert not missing, missing
