"""The benchmark's imports of ``repro`` resolve.

``perf/`` is frozen: it changes only with the benchmark, so a rename or
a move inside ``src/repro`` must keep every name it imports where it
imports it from.  Tier-1 never runs ``perf/run.py --trace 1``, the only
path into ``perf/perfbench/layers.py``'s imports, so this test reads
every ``from repro... import ...`` of ``perf/perfbench/*.py`` and
resolves it.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perf" \
    / "perfbench"


def _repro_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule: ``from repro import experiments``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_name_perf_imports_resolves():
    imports = list(_repro_imports())
    assert ("layers.py", "repro.compiler", "suspend_disk_store") in imports
    assert [entry for entry in imports if not _resolves(*entry[1:])] == []
