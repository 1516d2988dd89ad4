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
from mesocast.config import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workload_references():
    """(module name, attribute) for every ``alias.name`` in bench/workload.py
    whose alias was imported from mesocast, every ``from mesocast.x import
    name``, and every name that a ``getattr(alias, var)`` call can look up."""
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
    for alias, var in _getattr_calls(tree, aliases):
        refs.update((aliases[alias], name) for name in _string_values(tree, var))
    return sorted(refs)


def _getattr_calls(tree, aliases):
    """(alias, variable) of every ``getattr(alias, variable)`` call."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in aliases:
            assert isinstance(node.args[1], ast.Name), ast.unparse(node)
            calls.append((node.args[0].id, node.args[1].id))
    return calls


def _string_values(tree, var):
    """The strings ``var`` can take when it is unpacked from a table, as in
    ``var, ... = table[key]`` with ``table = {key: (string, ...), ...}``."""
    tables = {ast.unparse(node.targets[0]): node.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple) \
                and isinstance(node.value, ast.Subscript):
            slots = [isinstance(t, ast.Name) and t.id == var for t in node.targets[0].elts]
            table = tables.get(ast.unparse(node.value.value))
            if True in slots and table is not None:
                names += [row.elts[slots.index(True)].value for row in table.values]
    assert names, f"bench/workload.py: cannot tell which names getattr(..., {var}) looks up"
    return names


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


def test_pipeline_config_loads_under_the_data_bounds(workload, monkeypatch, tmp_path):
    # every pipeline command loads this INI; a bound it broke would fail them all
    monkeypatch.setattr(workload, "generate", lambda *args: None)    # no simulation
    pipeline = workload.PipelineWorkload(seed=901, work=tmp_path, checks=workload.Checks())
    pipeline.make_inputs()
    cfg = load_config(pipeline.config)
    assert cfg.data.seed == 901
    assert cfg.corpus_sizes() == workload.SMALL_SIZES
    data.CtmSim(cfg.ctm_config())


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
        [((n, S, data.NUM_SEGMENTS), (n, H, data.NUM_SEGMENTS))
         for n in (len(range(0, len(s) - S - H + 1, 3)) for s in hard)]


@pytest.mark.parametrize("kind, frozen", [(kind, 0) for kind in models.MODEL_KINDS]
                         + [("nstep", 2)], ids=[*models.MODEL_KINDS, "nstep-stage3-prefix"])
def test_traced_chunk_opens_one_forward_span(kind, frozen):
    # the tracer wraps forward_graph twice through the model-class aliases and
    # forward_graph_with_states once; a taped training chunk must still read
    # as one forward holding every cell step of the unroll.  An nstep stage-3
    # chunk starts layers 1 and 2 from a depth-2 prefix with their blocks
    # frozen: it steps layer 2 once, on prediction 1, then all of layer 3
    tracing = _load_tracing()
    bindings = lambda: [(owner, attr, owner.__dict__.get(attr))
                        for _, attr, owners, *_ in tracing._patch_table() for owner in owners]
    before = bindings()
    s = 4
    model = models.build_model(kind, s=s, hidden=4, attn_width=2, horizon=3, seed=1)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.2, 1.0, (5, s, data.NUM_SEGMENTS))
    y = rng.uniform(0.2, 1.0, (5, 3, data.NUM_SEGMENTS))
    horizons, prefix = list(range(1, model.horizon + 1)), None
    if frozen:
        horizons, prefix = [3], models.fill_prefix(model, x, [], frozen)
    trainable = frozenset(name for name in model.blocks()
                          if not name.startswith(tuple(f"layer{i + 1}/" for i in range(frozen))))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        train._stage_loss(model, x, y, 3, horizons, prefix, trainable)
    names = [span.name for span in tracer.spans]
    assert names.count("models.forward_graph") == 1
    forward = names.index("models.forward_graph")
    steps = [span for span in tracer.spans
             if span.name in ("cells.lstm_step", "cells.sa_lstm_step")]
    if frozen:
        assert len(steps) == 1 + (s + 2)
        assert [span for span in tracer.spans if span.parent == forward] == steps
    else:
        assert len(steps) == (s + (s + 1) + (s + 2) if kind == "nstep" else s)
    assert all(span.parent == forward for span in steps)
    assert all(after is original for (_, _, original), (_, _, after) in zip(before, bindings()))
