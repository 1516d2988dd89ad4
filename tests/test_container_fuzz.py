"""Hypothesis fuzzing of the model and checkpoint readers: one header field
rewritten to an arbitrary JSON value (checksum recomputed) either raises a
ValueError or loads the same numbers as the original."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesocast import models
from mesocast.data import NUM_SEGMENTS, Corpus, Series
from mesocast.models import build_model, deserialize_model, serialize_model
from mesocast.train import TrainConfig, load_checkpoint, save_checkpoint, train_model
from containers import with_header

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)

MODELS = {kind: serialize_model(build_model(kind, s=4, hidden=4, attn_width=2, horizon=2, seed=3))
          for kind in models.MODEL_KINDS}


def header_of(blob):
    return json.loads(blob[8:8 + int.from_bytes(blob[4:8], "little")])


def model_paths(blob):
    header = header_of(blob)
    return [(key,) for key in header] + [("dims", key) for key in header["dims"]]


def rewrite(blob, path, value):
    def edit(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return with_header(blob, edit)


def same_blocks(a, b):
    return list(a.blocks()) == list(b.blocks()) and all(
        np.array_equal(x.data, y.data) for x, y in zip(a.blocks().values(), b.blocks().values()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_model_header_field_rewrite(data):
    kind = data.draw(st.sampled_from(sorted(MODELS)))
    blob = MODELS[kind]
    path = data.draw(st.sampled_from(model_paths(blob)))
    originals = st.sampled_from(list(header_of(blob).values()))
    value = data.draw(JSON | originals | st.integers(-2, 2 ** 40))
    try:
        back = deserialize_model(rewrite(blob, path, value))
    except ValueError:
        return
    original = deserialize_model(blob)
    assert back.kind == original.kind and same_blocks(back, original)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    T = 40
    speeds = 60 + 10 * np.sin(np.arange(T)[:, None] / 5.0 + np.arange(NUM_SEGMENTS)[None, :])
    make = lambda: Series(minutes=np.arange(T), speeds=speeds.copy())
    cfg = TrainConfig(epochs_per_stage=2, validate_every=1, train_stride=1, val_stride=1,
                      lap_depth=0)
    run = train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=4),
                               Corpus(train=make(), easy=make(), hard=[make()]), cfg)
    path = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    save_checkpoint(run, cfg, path)
    return path, path.read_bytes(), cfg, load_checkpoint(path, cfg)


def same_state(a, b):
    opt_a, opt_b = a.optimizer, b.optimizer
    return (same_blocks(a.model, b.model) and opt_a.t == opt_b.t
            and all(np.array_equal(opt_a.m[n], opt_b.m[n]) and np.array_equal(opt_a.v[n], opt_b.v[n])
                    for n in opt_a.m)
            and a.best_params.keys() == b.best_params.keys()
            and all(np.array_equal(a.best_params[n], b.best_params[n]) for n in a.best_params))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_header_field_rewrite(checkpoint, data):
    """Epoch, best_metric and history are read as written; the model,
    optimizer and best parameters must come back bitwise or not at all."""
    path, blob, cfg, original = checkpoint
    header = header_of(blob)
    field = data.draw(st.sampled_from(sorted(header)))
    value = data.draw(JSON | st.sampled_from(list(header.values())) | st.integers(-2, 2 ** 40))
    path.write_bytes(rewrite(blob, (field,), value))
    try:
        back = load_checkpoint(path, cfg)
    except ValueError:
        return
    assert same_state(back, original)
