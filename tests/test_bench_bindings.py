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

import numpy as np
import pytest

from mesocast import data, models, train

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


@pytest.fixture()
def workload(monkeypatch):
    # workload.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_set_up_shapes(workload):
    # the train and serve set-ups stage windows through these two calls
    S, H = workload.S, workload.HORIZONS
    rng = np.random.default_rng(0)
    make = lambda T: data.Series(minutes=np.arange(T),
                                 speeds=rng.uniform(0, 90, (T, data.NUM_SEGMENTS)))
    hard = [make(40), make(30)]
    x, y = workload.windows_of(hard, H)
    count = sum(len(s) - S - H + 1 for s in hard)
    assert x.shape == (count, S, data.NUM_SEGMENTS) and y.shape == (count, H, data.NUM_SEGMENTS)
    assert x.dtype == y.dtype == np.float64

    corpus = data.Corpus(train=make(200), easy=make(100), hard=hard)
    staged = train.stage_corpus(corpus, S, H, train.TrainConfig(train_stride=7, val_stride=3))
    train_count = len(range(0, 200 - S - H + 1, 7))
    assert staged.x.shape == (train_count, S, data.NUM_SEGMENTS)
    assert staged.y.shape == (train_count, H, data.NUM_SEGMENTS)
    easy_count = len(range(0, 100 - S - H + 1, 3))
    assert [a.shape[0] for a in staged.easy] == [easy_count, easy_count]
    assert [(hx.shape, hy.shape) for hx, hy in staged.hard] == \
        [((len(s) - S - H + 1, S, data.NUM_SEGMENTS), (len(s) - S - H + 1, H, data.NUM_SEGMENTS))
         for s in hard]
