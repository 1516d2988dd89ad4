"""Each run setting is spelled once: a section's defaults are those of the
library type it configures, the CLI's flag table names real keys, and a
config file that is not UTF-8 is rejected naming its path and line."""

import argparse
from dataclasses import fields

import pytest

from mesocast.cli import _FLAG_KEYS, _build_model, _build_parser, _load_run_config, main
from mesocast.config import RunConfig, config_hash
from mesocast.data import CorpusSizes, CtmConfig
from mesocast.models import build_model
from mesocast.train import TrainConfig

# parser options that name files or print help, not a config key
NOT_OVERRIDES = {"help", "config", "out", "checkpoint", "input", "at", "output"}


def test_data_defaults_are_the_simulator_and_corpus_defaults():
    cfg = RunConfig()
    assert cfg.ctm_config() == CtmConfig()
    assert cfg.corpus_sizes() == CorpusSizes()


def test_model_defaults_are_build_model_defaults():
    shape = lambda m: (m.kind, m.s, m.horizon, {n: t.shape for n, t in m.blocks().items()})
    assert shape(_build_model(RunConfig())) == shape(build_model("sa-lstm"))


def test_training_keys_are_the_train_config_fields():
    # the [training] section sets TrainConfig's fields under their own names;
    # the other keys name the files a run writes
    keys = {f.name for f in fields(RunConfig().training)}
    assert keys - {"model_out", "checkpoint_out", "metrics_csv"} == \
        {f.name for f in fields(TrainConfig)}


def test_default_config_hash_is_pinned():
    # every manifest records this hash as config_sha256
    assert config_hash(RunConfig()) == \
        "27c947cbcc97a6facd83bdc0232e0851163f9e231e47bf2f31045a83295272cd"


@pytest.mark.parametrize("flag", sorted(_FLAG_KEYS))
def test_every_flag_key_is_a_field_of_its_section(flag):
    # a typo would set a new attribute, and the flag would change nothing
    cfg = RunConfig()
    for key in _FLAG_KEYS[flag]:
        section, name = key.split(".")
        assert name in [f.name for f in fields(getattr(cfg, section))], key


def test_every_override_flag_is_in_the_table():
    # a flag the table leaves out would parse and then be ignored
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in commands.choices.values() for a in p._actions}
    assert dests - NOT_OVERRIDES == set(_FLAG_KEYS)


def test_seed_flag_sets_both_seeds():
    cfg = _load_run_config(_build_parser().parse_args(["train", "--seed", "5"]))
    assert (cfg.data.seed, cfg.training.seed) == (5, 5)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_byte_that_is_not_utf8_names_the_config_and_line(tmp_path, capsys, ending):
    path = tmp_path / "bad.ini"
    path.write_bytes(ending.join([b"[data]", b"train_days = 1", b"seed = 1\xff", b""]))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    assert f"config {path}: line 3 is not UTF-8" in capsys.readouterr().err
    assert list(out.iterdir()) == []
