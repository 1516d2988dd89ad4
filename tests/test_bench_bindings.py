"""The benchmark under ``bench/`` binds mesocast names from the outside: the
tracer wraps a table of (module or class, attribute) pairs and the workloads
call module attributes through aliases.  These tests fail when a rename or a
deletion in ``src/`` would break that binding, before the benchmark runs."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mesocast import models

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workload_references():
    """(module name, attribute) for every ``alias.name`` in bench/workload.py
    whose alias was imported from mesocast, and every ``from mesocast.x
    import name``."""
    tree = ast.parse((BENCH / "workload.py").read_text(encoding="utf-8"))
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mesocast"):
            for name in node.names:
                if node.module == "mesocast":
                    aliases[name.asname or name.name] = f"mesocast.{name.name}"
                else:
                    refs.add((node.module, name.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
    return sorted(refs)


def test_tracer_table_names_exist():
    table = _load_tracing()._patch_table()
    assert table
    missing = [f"{getattr(home, '__name__', home)}.{attr}"
               for home, attr, *_ in table if not hasattr(home, attr)]
    assert not missing, f"bench/tracing.py wraps names mesocast no longer has: {missing}"


@pytest.mark.parametrize("module, attr", _workload_references())
def test_workload_names_exist(module, attr):
    assert hasattr(importlib.import_module(module), attr), \
        f"bench/workload.py uses {module}.{attr}, which no longer exists"


def test_workload_reads_forecast_horizons():
    # the serving path reads forecast_recursive(...).horizons
    assert "horizons" in {f.name for f in dataclasses.fields(models.Forecast)}
