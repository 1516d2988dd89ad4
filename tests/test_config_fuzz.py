"""Hypothesis fuzzing of the INI boundary: any one ``[training]`` key set to
any scalar string either makes ``mesocast train`` exit 2 naming that key
before it reads a CSV, or loads a config whose schedule has finite, positive
learning rates."""

import contextlib
import io
import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from mesocast import train as T
from mesocast.cli import main
from mesocast.config import TrainingSection, load_config
from mesocast.models import build_model

KEYS = [f.name for f in fields(TrainingSection)]

NUMBERS = (st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-400, 1e400, 5e-324]))
# one line of text: configparser reads a value up to the line end and strips it
LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=12)
SCALAR = NUMBERS.map(str) | LINE | st.sampled_from(["nan", "-inf", "inf", "", "1_0", "0x10",
                                                    "1e", "zero", "replicate", "%", "%(lr)s"])


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(KEYS), value=SCALAR)
def test_one_training_key_set_to_any_scalar(tmp_path_factory, key, value):
    root = tmp_path_factory.mktemp("ini")
    path = root / "run.ini"
    path.write_text(f"[training]\n{key} = {value}\n", encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["train", "--config", str(path), "--out", str(root / "empty")])
    err = stderr.getvalue()
    assert code == 2
    if f"training.{key}" in err:
        return
    # accepted: the run went on to look for its corpus, which is not there
    assert "train.csv" in err
    cfg = load_config(path).train_config()
    model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2)
    for stage in T.schedule(model, cfg):
        assert 0 < stage.base_lr < math.inf, (key, value, stage)
