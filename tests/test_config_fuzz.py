"""Hypothesis fuzzing of the INI boundary: any one key set to any scalar
string either makes ``mesocast train`` exit 2 naming that key before it
reads a CSV, or loads a config whose objects construct and validate.  For
``[training]`` that means a schedule with finite, positive learning rates;
nothing here simulates a corpus or trains."""

import contextlib
import io
import math
from dataclasses import asdict, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from mesocast import train as T
from mesocast.cli import main
from mesocast.config import (DataSection, EvaluationSection, ModelSection, TrainingSection,
                             load_config)
from mesocast.data import CtmSim
from mesocast.models import build_model, check_dims

KEYS = [f.name for f in fields(TrainingSection)]
OTHER_KEYS = [(section, f.name) for section, cls in (("data", DataSection),
                                                     ("model", ModelSection),
                                                     ("evaluation", EvaluationSection))
              for f in fields(cls)]

NUMBERS = (st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-400, 1e400, 5e-324]))
# one line of text: configparser reads a value up to the line end and strips it
LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=12)
SCALAR = NUMBERS.map(str) | LINE | st.sampled_from(["nan", "-inf", "inf", "", "1_0", "0x10",
                                                    "1e", "zero", "replicate", "%", "%(lr)s",
                                                    "nstep", "lstm", "200", "2", "1e-320"])


def run_train(tmp_path_factory, section, key, value):
    """The exit code and stderr of ``mesocast train`` on an empty output
    directory with the one key set, and the config path."""
    root = tmp_path_factory.mktemp("ini")
    path = root / "run.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["train", "--config", str(path), "--out", str(root / "empty")])
    return code, stderr.getvalue(), path


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(KEYS), value=SCALAR)
def test_one_training_key_set_to_any_scalar(tmp_path_factory, key, value):
    code, err, path = run_train(tmp_path_factory, "training", key, value)
    assert code == 2
    if f"training.{key}" in err:
        return
    # accepted: the run went on to look for its corpus, which is not there
    assert "train.csv" in err
    cfg = load_config(path).train_config()
    model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2)
    for stage in T.schedule(model, cfg):
        assert 0 < stage.base_lr < math.inf, (key, value, stage)


@settings(max_examples=300, deadline=None)
@given(item=st.sampled_from(OTHER_KEYS), value=SCALAR)
def test_one_data_model_or_evaluation_key_set_to_any_scalar(tmp_path_factory, item, value):
    section, key = item
    code, err, path = run_train(tmp_path_factory, section, key, value)
    assert code == 2
    if f"{section}.{key}" in err:
        return
    # accepted: the run went on to look for its corpus (under the name set, if
    # that is the key), which is not there
    assert key == "train_csv" or "train.csv" in err
    cfg = load_config(path)
    CtmSim(cfg.ctm_config())
    sizes = cfg.corpus_sizes()
    assert min(asdict(sizes).values()) >= 1
    model = asdict(cfg.model)
    check_dims(**model)
    if max(cfg.model.hidden, cfg.model.attn_width, cfg.model.horizon) <= 64:
        built = build_model(**model)
        assert (built.kind, built.s, built.hidden) == (cfg.model.kind, cfg.model.s,
                                                       cfg.model.hidden)
    cfg.evaluation.validate()
    assert 0 < cfg.evaluation.budget_ms < math.inf
    assert cfg.evaluation.horizons >= 1 and cfg.evaluation.iters >= 1
    assert cfg.evaluation.warmup >= 0
