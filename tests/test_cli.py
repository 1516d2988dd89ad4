import hashlib
import json
import math
import platform
import time
import zlib

import numpy as np
import pytest

import mesocast
from mesocast import data as D
from mesocast import cli, models, train
from mesocast.cli import _build_model, main
from mesocast.config import EvaluationSection, RunConfig, config_hash, load_config
from mesocast.evaluate import evaluate
from mesocast.train import TrainConfig, load_checkpoint
from mesocast.models import build_model, load_model, save_model
from containers import with_header


TINY_INI = """
[data]
seed = 7
train_days = 1
easy_days = 1
hard_windows = 1

[model]
kind = sa-lstm
s = 4
hidden = 4
attn_width = 2
horizon = 2

[training]
epochs_per_stage = 2
validate_every = 1
train_stride = 200
val_stride = 100
grad_chunk = 64
lap_depth = 0
seed = 7

[evaluation]
horizons = 2
iters = 50
warmup = 5
budget_ms = 50.0
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY_INI)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_defaults_without_file(self):
        cfg = RunConfig()
        assert cfg.model.kind == "sa-lstm"
        assert cfg.training.lr == 0.01
        assert cfg.training.plateau_patience == 3

    def test_training_defaults_come_from_train_config(self):
        assert RunConfig().train_config() == TrainConfig()

    def test_load_and_types(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.data.train_days == 1
        assert cfg.model.hidden == 4
        assert cfg.training.lap_depth == 0
        assert type(cfg.training.grad_chunk) is int and cfg.training.grad_chunk == 64

    def test_unknown_key_rejected(self, tmp_path):
        # learning_rate never was a key; the others are retired options
        bad = tmp_path / "bad.ini"
        for line in ("[training]\nlearning_rate = 0.1", "[training]\nfull_batch = false",
                     "[training]\nbatch_size = 16", "[training]\nmonitor = hard",
                     "[training]\nlap_weight = 1.0", "[training]\nlap_padding = zero",
                     "[model]\nper_segment = true"):
            bad.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown key"):
                load_config(bad)

    def test_lstm_seg_kind_builds(self, tmp_path):
        path = tmp_path / "seg.ini"
        path.write_text("[model]\nkind = lstm-seg\n")
        assert _build_model(load_config(path)).kind == "lstm-seg"

    @pytest.mark.parametrize("key, value", [
        ("lr", "nan"), ("lr", "inf"), ("lr", "0"), ("weight_decay", "-1e-4"),
        ("weight_decay", "nan"), ("lr_decay_factor", "nan"), ("lr_decay_factor", "inf"),
        ("finetune_lr_scale", "0"), ("finetune_lr_scale", "-1"),
        ("finetune_lr_scale", "nan"), ("finetune_lr_scale", "1e-400"),
        ("lap_depth", "-1"),
    ])
    def test_bad_training_value_exits_2_before_reading_csvs(self, tmp_path, capsys,
                                                             key, value):
        # the output directory holds no corpus, so naming the key shows that
        # the config was rejected before any CSV was opened
        path = tmp_path / "bad.ini"
        path.write_text(f"[training]\n{key} = {value}\n")
        assert run_cli("train", "--config", path, "--out", tmp_path / "empty") == 2
        err = capsys.readouterr().err
        assert f"training.{key}" in err and "train.csv" not in err

    @pytest.mark.parametrize("key", ["lap_weight", "lap_padding"])
    def test_retired_loss_key_exits_2_before_reading_csvs(self, tmp_path, capsys, key):
        # the pyramid is set by lap_depth alone: a config that still sets the
        # retired weight or padding is rejected as naming an unknown key
        path = tmp_path / "old.ini"
        path.write_text(f"[training]\n{key} = 1.0\n")
        assert run_cli("train", "--config", path, "--out", tmp_path / "empty") == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in section [training]" in err and "train.csv" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("data", "noise_std_mph", "nan"), ("data", "noise_std_mph", "-3"),
        ("data", "free_flow_mph", "nan"), ("data", "jam_density", "nan"),
        ("data", "wave_speed_mph", "inf"), ("data", "wave_speed_mph", "200"),
        ("data", "free_flow_mph", "5e-324"), ("data", "substeps_per_minute", "1"),
        ("data", "train_days", "0"), ("data", "easy_days", "0"),
        ("data", "hard_minutes", "0"),
        ("model", "kind", "foo"), ("model", "s", "0"), ("model", "hidden", "-1"),
        ("model", "attn_width", "0"), ("model", "hidden", str(10 ** 9)),
        ("evaluation", "budget_ms", "nan"), ("evaluation", "budget_ms", "-1"),
        ("evaluation", "budget_ms", "inf"), ("evaluation", "warmup", "-1"),
        ("evaluation", "iters", "0"), ("evaluation", "iters", str(10 ** 12)),
        ("data", "train_days", str(10 ** 9)), ("data", "easy_days", str(10 ** 9)),
        ("data", "hard_minutes", str(10 ** 12)), ("data", "hard_windows", str(10 ** 9)),
    ])
    @pytest.mark.parametrize("command", ["generate", "train", "bench"])
    def test_bad_value_exits_2_naming_key_before_any_file(self, tmp_path, capsys, section,
                                                           key, value, command):
        # the output directory holds no corpus and no model, and generate
        # would write one: naming the key shows nothing was read or run
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "empty"
        assert run_cli(command, "--config", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and ".csv" not in err and "model.bin" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, key", [("--iters", "iters"), ("--warmup", "warmup"),
                                           ("--budget", "budget_ms")])
    def test_bad_bench_flag_exits_2_before_the_model_loads(self, tmp_path, capsys, flag, key):
        assert run_cli("bench", "--out", tmp_path, flag, -1) == 2
        err = capsys.readouterr().err
        assert f"evaluation.{key}" in err and "model.bin" not in err

    @pytest.mark.parametrize("command, flag, value, key", [
        ("bench", "--iters", 10 ** 12, "evaluation.iters"),
        ("generate", "--days", 10 ** 9, "data.train_days"),
    ])
    def test_flag_past_the_array_bound_exits_2_before_any_work(self, tmp_path, capsys,
                                                              command, flag, value, key):
        # a count that sizes an array is bounded at load, not by the allocation
        out = tmp_path / "empty"
        assert run_cli(command, "--out", out, flag, value) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err and "model.bin" not in err
        assert list(out.iterdir()) == []

    def test_bad_lap_depth_flag_exits_2_naming_key(self, tmp_path, capsys):
        assert run_cli("train", "--out", tmp_path, "--lap-depth", -1) == 2
        assert "training.lap_depth" in capsys.readouterr().err

    def test_lap_depth_past_its_bound_exits_2_before_reading_csvs(self, tmp_path, capsys):
        # a depth past a one-value residual only grows the pyramid matrix,
        # to an allocation failure at the first loss in the 40s
        assert run_cli("train", "--out", tmp_path / "empty", "--lap-depth", 6) == 2
        err = capsys.readouterr().err
        assert "training.lap_depth" in err and "<= 5" in err and "train.csv" not in err

    @pytest.mark.parametrize("key", ["model_out", "checkpoint_out", "metrics_csv"])
    @pytest.mark.parametrize("name, says", [("nosuchdir/out.bin", "is not a directory"),
                                            ("", "is a directory")],
                             ids=["missing-parent", "empty"])
    def test_unwritable_output_exits_2_before_reading_csvs(self, tmp_path, capsys, key,
                                                          name, says):
        # training writes its outputs only at its end; a path it cannot
        # write there would lose the whole run, so it is rejected up front
        path = tmp_path / "run.ini"
        path.write_text(f"[training]\n{key} = {name}\n")
        out = tmp_path / "empty"
        assert run_cli("train", "--config", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"training.{key}" in err and says in err and "train.csv" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text", [
        "lr = 0.1\n", "[training]\nlr = 1\nlr = 2\n", "[training]\n[training]\n",
        "[training]\nlr\n",
    ], ids=["no-section", "duplicate-key", "duplicate-section", "no-value"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("train", "--config", path, "--out", tmp_path) == 2
        assert "malformed config" in capsys.readouterr().err

    def test_percent_is_literal(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nmetrics_csv = 100%.csv\n")
        assert load_config(path).training.metrics_csv == "100%.csv"

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nlr = 0.5\n",
        "[DEFAULT]\nseed = 7\n\n[data]\ntrain_days = 1\n\n[training]\nlr = 0.5\n",
    ], ids=["alone", "beside-sections"])
    def test_default_section_exits_2(self, tmp_path, capsys, text):
        # configparser's defaults section would drop a lone key silently, or
        # spread its seed into [data] and [training]
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert run_cli("train", "--config", path, "--out", tmp_path) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(bad)


class TestGenerate:
    def test_one_day_corpus(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("generate", "--config", tiny_config, "--out", out) == 0
        train = D.read_csv(out / "train.csv")
        assert len(train) == 1440
        assert len(D.read_csv(out / "easy.csv")) == 1440
        assert len(D.read_csv(out / "hard0.csv")) == 440
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert len(manifest["config_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("generate", "--config", tiny_config, "--out", out1)
        run_cli("generate", "--config", tiny_config, "--out", out2)
        for name in ("train.csv", "easy.csv", "hard0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # so is the manifest, but for the run's own wall time and peak memory
        first, second = (json.loads((out / "generate_manifest.json").read_text())
                         for out in (out1, out2))
        assert first.pop("timing").keys() == second.pop("timing").keys()
        assert first == second

    def test_days_flag_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        # --days only changes the training split; 1 day here keeps it fast
        run_cli("generate", "--config", tiny_config, "--out", out, "--days", 1)
        assert len(D.read_csv(out / "train.csv")) == 1440

    def test_invalid_diagram_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\njam_density = -5\n")
        assert run_cli("generate", "--config", bad, "--out", tmp_path) == 2
        assert "jam_density" in capsys.readouterr().err

    def test_zero_hard_windows_exits_2(self, tmp_path, capsys):
        # the hard metric is a mean over the hard windows
        cfg = tmp_path / "run.ini"
        cfg.write_text(TINY_INI.replace("hard_windows = 1", "hard_windows = 0"))
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "hard_windows" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train.csv").exists()

    def test_hard_window_too_short_to_congest_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(TINY_INI.replace("hard_windows = 1",
                                        "hard_windows = 1\nhard_minutes = 60"))
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "hard_minutes = 60" in err and "hard window 0" in err
        assert "Traceback" not in err

    def test_env_var_output_dir(self, tiny_config, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("MESOCAST_OUT", str(target))
        run_cli("generate", "--config", tiny_config)
        assert (target / "train.csv").exists()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """Generate a 1-day corpus and train the tiny sa-lstm once for the
    downstream CLI tests."""
    out = tmp_path_factory.mktemp("cliout")
    cfg_path = out / "run.ini"
    cfg_path.write_text(TINY_INI)
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out, cfg_path


class TestTrain:
    def test_outputs_exist(self, trained_dir, capsys):
        out, _ = trained_dir
        assert (out / "model.bin").exists()
        assert (out / "run.ckpt").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,lr,train_loss,easy_mse,hard_mse"
        assert len(metrics) == 1 + 2  # two epochs

    def test_zero_epochs_writes_initialization(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        run_cli("generate", "--config", tiny_config, "--out", out)
        code = run_cli("train", "--config", tiny_config, "--out", out, "--epochs", 0)
        assert code == 0
        assert (out / "model.bin").exists()
        assert (out / "run.ckpt").exists()

    def test_missing_corpus_exits_2(self, tiny_config, tmp_path, capsys):
        assert run_cli("train", "--config", tiny_config, "--out", tmp_path / "nope") == 2

    def test_window_longer_than_a_day_exits_2(self, tiny_config, tmp_path, capsys):
        # a model file with s > 1440 could never be loaded again
        out = tmp_path / "out"
        run_cli("generate", "--config", tiny_config, "--out", out)
        long_window = tmp_path / "long.ini"
        long_window.write_text(TINY_INI.replace("\ns = 4\n", "\ns = 2000\n"))
        assert run_cli("train", "--config", long_window, "--out", out) == 2
        assert "2000" in capsys.readouterr().err
        assert not (out / "model.bin").exists()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A generated 1-day corpus and its config, for training runs that write
    into their own directory."""
    out = tmp_path_factory.mktemp("corpus")
    cfg_path = out / "run.ini"
    cfg_path.write_text(TINY_INI)
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out, cfg_path


class TestTrainInputs:
    def test_every_model_kind_is_a_choice(self, corpus_dir):
        out, cfg = corpus_dir
        assert run_cli("train", "--config", cfg, "--out", out, "--model", "lstm-seg") == 0
        assert load_model(out / "model.bin").kind == "lstm-seg"

    @pytest.mark.parametrize("edit, flags, field", [
        (("validate_every = 1", "validate_every = 0"), [], "validate_every"),
        (("hidden = 4", "hidden = 0"), [], "hidden"),
        (None, ["--model", "all-at-once", "--n", "0"], "horizon"),
        (None, ["--model", "nstep", "--n", "0"], "horizon"),
        (("grad_chunk = 64", "grad_chunk = 0"), [], "grad_chunk"),
        (("train_stride = 200", "train_stride = 0"), [], "train_stride"),
        (("val_stride = 100", "val_stride = 0"), [], "val_stride"),
        (("attn_width = 2", "attn_width = 0"), [], "attn_width"),
        (("hard_windows = 1", "hard_windows = 0"), [], "hard_windows"),
    ], ids=["validate_every", "hidden", "all-at-once-n", "nstep-n", "grad_chunk",
            "train_stride", "val_stride", "attn_width", "hard_windows"])
    def test_zero_where_one_is_the_least_exits_2(self, corpus_dir, tmp_path, capsys,
                                                   edit, flags, field):
        out, _ = corpus_dir
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TINY_INI.replace(*edit) if edit else TINY_INI)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("train.csv", "easy.csv", "hard0.csv"):
            (run_dir / name).write_bytes((out / name).read_bytes())
        assert run_cli("train", "--config", cfg, "--out", run_dir, *flags) == 2
        assert field in capsys.readouterr().err
        assert not (run_dir / "model.bin").exists()


class TestEval:
    def test_default_checkpoint(self, trained_dir, capsys):
        out, cfg = trained_dir
        assert run_cli("eval", "--config", cfg, "--out", out) == 0
        text = capsys.readouterr().out
        assert "easy" in text and "hard" in text
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "model,kind,horizon,easy_mse_x1e3,hard_mse_x1e3"
        assert len(lines) == 1 + 2  # horizons 1 and 2 via the recursive wrapper

    def test_comparison_mode_three_checkpoints(self, trained_dir, capsys):
        out, cfg = trained_dir
        code = run_cli(
            "eval", "--config", cfg, "--out", out,
            "--checkpoint", out / "model.bin",
            "--checkpoint", out / "model.bin",
            "--checkpoint", out / "model.bin",
        )
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # three models x two horizons

    def test_reads_no_train_series(self, trained_dir, tmp_path):
        out, cfg = trained_dir
        assert run_cli("eval", "--config", cfg, "--out", out) == 0
        for name in ("easy.csv", "hard0.csv", "model.bin"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        assert not (tmp_path / "train.csv").exists()
        assert run_cli("eval", "--config", cfg, "--out", tmp_path) == 0
        assert (tmp_path / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_missing_checkpoint_exits_2(self, trained_dir):
        out, cfg = trained_dir
        assert run_cli("eval", "--config", cfg, "--out", out,
                       "--checkpoint", out / "missing.bin") == 2

    def test_malformed_model_header_exits_2(self, trained_dir, capsys):
        out, cfg = trained_dir
        bad = out / "no_blocks.bin"
        bad.write_bytes(with_header((out / "model.bin").read_bytes(),
                                    lambda h: h.pop("blocks")))
        assert run_cli("eval", "--config", cfg, "--out", out, "--checkpoint", bad) == 2
        assert "'blocks'" in capsys.readouterr().err


class TestFinalScoring:
    def test_every_hard_window_is_scored(self, tmp_path, capsys):
        # in-run validation scores every val_stride-th hard window, while the
        # post-train report, eval and evaluate score all of them; the digests
        # were taken when validation still scored every hard window
        digest = lambda b: hashlib.sha256(b).hexdigest()[:16]
        out, cfg = tmp_path / "run", tmp_path / "run.ini"
        cfg.write_text(TINY_INI.replace("hard_windows = 1", "hard_windows = 2")
                       .replace("val_stride = 100", "val_stride = 8"))
        assert run_cli("generate", "--config", cfg, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        train_report = capsys.readouterr().out
        assert run_cli("eval", "--config", cfg, "--out", out) == 0
        corpus = D.Corpus(train=None, easy=D.read_csv(out / "easy.csv"),
                          hard=[D.read_csv(out / f"hard{i}.csv") for i in range(2)])
        report = evaluate(load_model(out / "model.bin"), corpus, horizons=2)
        per_window = " ".join(w[h].hex() for w in report.hard_per_window for h in (1, 2))
        assert [sorted(w) for w in report.hard_per_window] == [[1, 2], [1, 2]]
        assert {
            "model.bin": digest((out / "model.bin").read_bytes()),
            "train report": digest(train_report.encode()),
            "report.csv": digest((out / "report.csv").read_bytes()),
            "hard_per_window": digest(per_window.encode()),
        } == {
            "model.bin": "60270c2160078c74",
            "train report": "15b7e25c34045968",
            "report.csv": "17d50b0d0453b09c",
            "hard_per_window": "ff70fd386a076974",
        }


class TestForecast:
    def _fixed_point_model(self, path, s=4):
        model = build_model("sa-lstm", s=s, hidden=4, attn_width=2, seed=0)
        for t in model.blocks().values():
            t.data[:] = 0.0
        model.head_b.data[:] = 70.0 / D.V_REF_MPH
        save_model(model, path)

    def test_constant_input_three_columns_of_70(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        model_path = out / "model.bin"
        self._fixed_point_model(model_path)
        series = D.Series(minutes=np.arange(10),
                          speeds=np.full((10, D.NUM_SEGMENTS), 70.0))
        D.write_csv(series, out / "input.csv")
        code = run_cli("forecast", "--config", tiny_config, "--out", out,
                       "--input", out / "input.csv", "--checkpoint", model_path)
        assert code == 0
        fc = D.read_csv(out / "forecast.csv")  # format closure: data module reads it
        assert len(fc) == 2  # horizons from config
        np.testing.assert_allclose(fc.speeds, 70.0, atol=1e-9)
        assert list(fc.minutes) == [10, 11]
        assert "ms" in capsys.readouterr().out

    @pytest.mark.parametrize("back, code", [(0, 2), (1, 2), (2, 0)])
    def test_forecast_minutes_past_int64_exit_2(self, tiny_config, tmp_path, capsys,
                                                back, code):
        # the last minute of the input is 2^63 - 1 - back, and the config asks for 2 horizons
        out = tmp_path / "out"
        out.mkdir()
        model_path = out / "model.bin"
        self._fixed_point_model(model_path)
        last = np.iinfo(np.int64).max - back
        series = D.Series(minutes=last + np.arange(-9, 1),
                          speeds=np.full((10, D.NUM_SEGMENTS), 70.0))
        D.write_csv(series, out / "input.csv")
        assert run_cli("forecast", "--config", tiny_config, "--out", out,
                       "--input", out / "input.csv", "--checkpoint", model_path) == code
        if code:
            assert f"minute {last}: a 2-minute forecast" in capsys.readouterr().err
        else:
            assert list(D.read_csv(out / "forecast.csv").minutes) == [last + 1, last + 2]

    def test_too_short_input_exits_2(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        model_path = out / "model.bin"
        self._fixed_point_model(model_path)
        series = D.Series(minutes=np.arange(3),
                          speeds=np.full((3, D.NUM_SEGMENTS), 70.0))
        D.write_csv(series, out / "short.csv")
        assert run_cli("forecast", "--config", tiny_config, "--out", out,
                       "--input", out / "short.csv", "--checkpoint", model_path) == 2


@pytest.mark.parametrize("horizons", [0, 10 ** 9])
@pytest.mark.parametrize("kind", ["sa-lstm", "nstep"])
@pytest.mark.parametrize("command", ["eval", "forecast", "bench"])
def test_zero_horizons_exits_2(corpus_dir, tmp_path, capsys, command, kind, horizons):
    # 0 would write no rows; 10**9 would allocate (1, 10**9, 21) before any step
    out, _ = corpus_dir
    cfg = tmp_path / "bad.ini"
    cfg.write_text(TINY_INI.replace("horizons = 2", f"horizons = {horizons}"))
    model_path = tmp_path / "model.bin"
    save_model(build_model(kind, s=4, hidden=4, attn_width=2, horizon=2), model_path)
    written = tmp_path / f"{command}.csv"
    argv = []
    if command == "eval":
        cfg.write_text(cfg.read_text() + f"report_csv = {written}\n")
    elif command == "forecast":
        argv = ["--input", out / "hard0.csv", "--output", written]
    assert run_cli(command, "--config", cfg, "--out", out, "--checkpoint", model_path,
                   *argv) == 2
    assert "evaluation.horizons" in capsys.readouterr().err
    assert not written.exists()


@pytest.mark.parametrize("command", ["eval", "forecast", "bench"])
def test_non_finite_weights_exit_2_naming_the_block(corpus_dir, tmp_path, capsys, command):
    # the checksum holds, so only a look at the values can tell
    out, _ = corpus_dir
    model = build_model("sa-lstm", s=4, hidden=4, attn_width=2)
    model.head_b.data[0] = np.nan
    model_path = tmp_path / "model.bin"
    save_model(model, model_path)
    written = tmp_path / f"{command}.csv"
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_INI + (f"report_csv = {written}\n" if command == "eval" else ""))
    argv = ["--input", out / "hard0.csv", "--output", written] if command == "forecast" else []
    assert run_cli(command, "--config", cfg, "--out", out, "--checkpoint", model_path,
                   *argv) == 2
    assert "'head/b'" in capsys.readouterr().err
    assert not written.exists()


def unreadable(blob, flaw):
    """``blob``, a model file, with one ``flaw`` that its reader rejects."""
    if flaw == "magic":
        return b"MSCK" + blob[4:]
    if flaw == "checksum":
        return blob[:-12] + bytes([blob[-12] ^ 0xFF]) + blob[-11:]
    if flaw == "header":
        return with_header(blob, lambda h: h["dims"].update(hidden="4"))
    if flaw == "stray dim":
        return with_header(blob, lambda h: h["dims"].update(horizon=5))
    body = blob[:-12] + np.float64(np.nan).tobytes()    # the last parameter, checksum kept
    return body + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize("flaw, reason", [
    ("magic", "not a model container (bad magic)"),
    ("checksum", "model container corrupt (checksum mismatch)"),
    ("header", "model header dims: field 'hidden' is missing or malformed: '4'"),
    ("stray dim", "model header dims: field 'horizon' is not a dim of a sa-lstm model"),
    ("non-finite", "model block 'head/b' holds a non-finite value"),
])
@pytest.mark.parametrize("command", ["eval", "forecast", "bench"])
def test_unreadable_model_file_exits_2_naming_it(corpus_dir, tmp_path, capsys, command, flaw,
                                                 reason):
    # eval reads its --checkpoint files in turn: the second is the bad one
    out, _ = corpus_dir
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), good)
    bad.write_bytes(unreadable(good.read_bytes(), flaw))
    written = tmp_path / f"{command}.csv"
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_INI + (f"report_csv = {written}\n" if command == "eval" else ""))
    argv = {"eval": ["--checkpoint", good],
            "forecast": ["--input", out / "hard0.csv", "--output", written]}.get(command, [])
    assert run_cli(command, "--config", cfg, "--out", out, *argv, "--checkpoint", bad) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {reason}\n"
    assert not written.exists() and "PASS" not in captured.out


@pytest.mark.parametrize("command, edit, need", [
    ("eval", ("horizons = 2", "horizons = 500"), "the 504 that the model's s = 4 plus"),
    ("train", ("\ns = 4\n", "\ns = 500\n"), "the 501 that model.s = 500 plus 1 horizon"),
])
def test_series_too_short_for_a_window_exits_2_naming_the_csv(corpus_dir, tmp_path, capsys,
                                                              command, edit, need):
    # the 440-minute hard window holds no window of s frames plus the horizons
    out, _ = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / name).write_bytes((out / name).read_bytes())
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), run_dir / "model.bin")
    cfg = tmp_path / "long.ini"
    cfg.write_text(TINY_INI.replace(*edit))
    assert run_cli(command, "--config", cfg, "--out", run_dir) == 2
    err = capsys.readouterr().err
    assert f"{run_dir / 'hard0.csv'} holds 440 frames, fewer than {need}" in err


@pytest.mark.parametrize("command, name", [("eval", "easy.csv"), ("eval", "hard0.csv"),
                                           ("train", "train.csv"), ("train", "easy.csv")])
@pytest.mark.parametrize("edit, line", [
    (lambda lines: lines.__setitem__(0, b"minute,seg00"), 1),
    (lambda lines: lines.__setitem__(2, lines[2] + b"\xff"), 3),
], ids=["bad-header", "not-utf8"])
def test_corpus_csv_rejection_exits_2_naming_the_csv(corpus_dir, tmp_path, capsys, command,
                                                     name, edit, line):
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for csv in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / csv).write_bytes((out / csv).read_bytes())
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), run_dir / "model.bin")
    lines = (run_dir / name).read_bytes().split(b"\n")
    edit(lines)
    (run_dir / name).write_bytes(b"\n".join(lines))
    assert run_cli(command, "--config", cfg, "--out", run_dir) == 2
    assert f"error: {run_dir / name}: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("train", "train.csv"), ("eval", "easy.csv"),
                                           ("forecast", "input.csv")])
def test_minute_gap_exits_2_naming_the_csv_and_line(corpus_dir, tmp_path, capsys, command,
                                                    name):
    # minute 99 is deleted, so the row of minute 100 is on line 101; the
    # forecast window at minute 101 holds minutes 97, 98, 100 and 101
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for csv in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / csv).write_bytes((out / csv).read_bytes())
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), run_dir / "model.bin")
    lines = (run_dir / ("hard0.csv" if command == "forecast" else name)).read_bytes().split(b"\n")
    assert lines[100].startswith(b"99,")
    del lines[100]
    (run_dir / name).write_bytes(b"\n".join(lines))
    argv = ["--input", run_dir / name, "--at", 101] if command == "forecast" else []
    assert run_cli(command, "--config", cfg, "--out", run_dir, *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {run_dir / name}: line 101: minute 100 follows minute 98" in err
    assert not (run_dir / "forecast.csv").exists() and not (run_dir / "run.ckpt").exists()


def test_forecast_input_rejection_exits_2_naming_the_file_and_line(corpus_dir, tmp_path,
                                                                    capsys):
    out, cfg = corpus_dir
    model_path = tmp_path / "model.bin"
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), model_path)
    lines = (out / "hard0.csv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b",", b",\xff", 1)
    bad = tmp_path / "input.csv"
    bad.write_bytes(b"\n".join(lines))
    assert run_cli("forecast", "--config", cfg, "--out", tmp_path, "--input", bad,
                   "--checkpoint", model_path) == 2
    assert f"error: {bad}: line 5: " in capsys.readouterr().err


@pytest.mark.parametrize("speed", ["200.5", "1e300"])
@pytest.mark.parametrize("command, name", [("train", "train.csv"), ("eval", "easy.csv"),
                                           ("forecast", "input.csv")])
def test_speed_over_the_ceiling_exits_2_naming_line_and_segment(corpus_dir, tmp_path, capsys,
                                                                command, name, speed):
    # a finite speed of 1e300 mph would overflow the forward into NaN rows
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for csv in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / csv).write_bytes((out / csv).read_bytes())
    save_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2), run_dir / "model.bin")
    lines = (run_dir / ("hard0.csv" if command == "forecast" else name)).read_text().split("\n")
    cells = lines[3].split(",")
    cells[8] = speed
    lines[3] = ",".join(cells)
    (run_dir / name).write_text("\n".join(lines))
    written = run_dir / "written.csv"
    argv = ["--input", run_dir / name, "--output", written] if command == "forecast" else []
    if command == "eval":
        cfg = tmp_path / "run.ini"
        cfg.write_text(TINY_INI + f"report_csv = {written}\n")
    assert run_cli(command, "--config", cfg, "--out", run_dir, *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {run_dir / name}: line 4: speed {float(speed)} at seg07 is not a finite " \
           "non-negative number up to 200 mph" in err
    assert not written.exists() and not (run_dir / "run.ckpt").exists()


def overflowing(model):
    """``model`` with its attention scores scaled to overflow: every weight
    is finite, so the model reader accepts the file, but the forecast comes
    out NaN."""
    model.layers[0].w_q.data *= 1e160
    model.layers[0].w_k.data *= 1e160
    return model


@pytest.mark.parametrize("command", ["eval", "forecast", "bench"])
def test_model_whose_forward_overflows_exits_3_naming_it(corpus_dir, tmp_path, capsys, command):
    out, _ = corpus_dir
    model_path = tmp_path / "model.bin"
    save_model(overflowing(build_model("sa-lstm", s=4, hidden=4, attn_width=2)), model_path)
    written = tmp_path / f"{command}.csv"
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_INI + (f"report_csv = {written}\n" if command == "eval" else ""))
    argv = {"forecast": ["--input", out / "hard0.csv", "--output", written],
            "bench": ["--iters", 20, "--warmup", 0, "--budget", 100]}.get(command, [])
    assert run_cli(command, "--config", cfg, "--out", out, "--checkpoint", model_path,
                   *argv) == 3
    captured = capsys.readouterr()
    assert f"error: model {model_path} computed a non-finite value" in captured.err
    assert not written.exists() and "PASS" not in captured.out


def test_train_whose_best_model_overflows_exits_3_naming_it(corpus_dir, tmp_path, monkeypatch,
                                                             capsys):
    # the end-of-run report is checked after the model and checkpoint are
    # written, and no manifest records the run
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / name).write_bytes((out / name).read_bytes())
    best = cli.best_model
    monkeypatch.setattr(cli, "best_model", lambda run: overflowing(best(run)))
    assert run_cli("train", "--config", cfg, "--out", run_dir) == 3
    model_path = run_dir / "model.bin"
    assert f"error: model {model_path} computed a non-finite value" in capsys.readouterr().err
    assert model_path.exists() and (run_dir / "run.ckpt").exists()
    assert not (run_dir / "train_manifest.json").exists()


def test_train_that_diverges_exits_3_naming_the_non_finite_gradients(corpus_dir, tmp_path,
                                                                     monkeypatch, capsys):
    # a NaN in one staged input window reaches every block's gradient; the
    # checkpoint left behind holds the last finite epoch and loads
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / name).write_bytes((out / name).read_bytes())
    stage = train.stage_corpus

    def with_nan(*args):
        staged = stage(*args)
        staged.x[0, 0, 0] = np.nan
        return staged

    monkeypatch.setattr(train, "stage_corpus", with_nan)
    assert run_cli("train", "--config", cfg, "--out", run_dir) == 3
    ckpt = run_dir / "run.ckpt"
    assert capsys.readouterr().err == (
        "training diverged: training loss became non-finite at epoch 1; parameters and "
        "optimizer left at the last finite epoch; non-finite gradient in 'layer1/w_f', "
        f"'layer1/w_i', 'layer1/w_c' and 11 more block(s); last checkpoint at {ckpt}\n")
    assert load_checkpoint(ckpt, load_config(cfg).train_config()).epoch == 0
    assert not (run_dir / "model.bin").exists()


@pytest.mark.parametrize("command", ["generate", "train", "eval", "forecast"])
def test_every_manifest_records_env_and_timing(corpus_dir, tmp_path, command):
    # what the run ran on and what it cost, kept out of the config hash
    out, cfg = corpus_dir
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("train.csv", "easy.csv", "hard0.csv"):
        (run_dir / name).write_bytes((out / name).read_bytes())
    save_model(_build_model(load_config(cfg)), run_dir / "model.bin")
    argv = ["--input", run_dir / "hard0.csv"] if command == "forecast" else []
    started = time.perf_counter()
    assert run_cli(command, "--config", cfg, "--out", run_dir, *argv) == 0
    took = time.perf_counter() - started
    manifest = json.loads((run_dir / f"{command}_manifest.json").read_text())
    env = manifest["env"]
    assert env.pop("nproc") >= 1
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "mesocast": mesocast.__version__}
    timing = manifest["timing"]
    assert sorted(timing) == ["peak_rss_mb", "wall_s"]
    assert 0.0 < timing["wall_s"] <= took
    assert 0.0 < timing["peak_rss_mb"] and math.isfinite(timing["peak_rss_mb"])
    assert manifest["config_sha256"] == config_hash(load_config(cfg))


@pytest.mark.parametrize("kind", ["sa-lstm", "all-at-once", "nstep"])
@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_horizons_past_a_multi_step_model_exit_2(corpus_dir, tmp_path, capsys, command, kind):
    # a one-step kind recurses to any horizon; a multi-step model emits its own
    # horizons and no more, so asking it for t+3 is an error, not a cut table
    out, _ = corpus_dir
    model_path = tmp_path / "model.bin"
    save_model(build_model(kind, s=4, hidden=4, attn_width=2, horizon=2), model_path)
    for horizons in (2, 3):
        cfg = tmp_path / f"h{horizons}.ini"
        cfg.write_text(TINY_INI.replace("horizons = 2", f"horizons = {horizons}"))
        written = tmp_path / f"{command}{horizons}.csv"
        if command == "eval":
            argv = []
            cfg.write_text(cfg.read_text() + f"report_csv = {written}\n")
        else:
            argv = ["--input", out / "hard0.csv", "--output", written]
        code = run_cli(command, "--config", cfg, "--out", out, "--checkpoint", model_path,
                       *argv)
        err = capsys.readouterr().err
        if kind == "sa-lstm" or horizons == 2:
            assert code == 0, err
            assert len(written.read_text().splitlines()) == 1 + horizons
        else:
            assert code == 2
            assert "evaluation.horizons = 3" in err and "the 2 horizons" in err
            assert not written.exists()


class TestBench:
    def test_quick_mode_passes_budget(self, trained_dir, capsys):
        out, cfg = trained_dir
        code = run_cli("bench", "--config", cfg, "--out", out,
                       "--iters", 100, "--warmup", 10)
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        for stat in ("p50", "p99", "mean", "cv"):
            assert f" {stat} " in printed, stat

    def test_budget_exceeded_nonzero_exit(self, trained_dir, capsys):
        out, cfg = trained_dir
        code = run_cli("bench", "--config", cfg, "--out", out,
                       "--iters", 50, "--warmup", 5, "--budget", 1e-9)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_times_the_configured_horizons(self, trained_dir, monkeypatch, capsys):
        # the tiny config asks for 2 horizons; the one-step model emits 1 and
        # recurses, so every timed run must be a 2-minute forecast
        out, cfg = trained_dir
        asked = []
        run = models.InferencePlan.run
        monkeypatch.setattr(models.InferencePlan, "run", lambda self, window, horizons=None: (
            asked.append(horizons), run(self, window, horizons))[1])
        assert run_cli("bench", "--config", cfg, "--out", out, "--iters", 20, "--warmup", 3) == 0
        assert asked == [2] * 24            # the finiteness check, 3 warmup, 20 timed
        assert "20 2-minute forecasts" in capsys.readouterr().out

    def test_negative_seed_is_accepted(self, trained_dir, capsys):
        # generate and train take any int seed, and so does the timing window
        out, cfg = trained_dir
        assert run_cli("bench", "--config", cfg, "--out", out, "--seed", -1,
                       "--iters", 5, "--warmup", 1) == 0
        assert "PASS" in capsys.readouterr().out

    def test_help_states_the_evaluation_section_defaults(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "EvaluationSection",
                            lambda: EvaluationSection(iters=7, warmup=3, budget_ms=2.5))
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        printed = " ".join(capsys.readouterr().out.split())
        for text in ("timed inferences (default 7)", "untimed inferences (default 3)",
                     "threshold in ms (default 2.5)"):
            assert text in printed

    @pytest.mark.parametrize("kind", ["all-at-once", "nstep"])
    def test_horizons_past_a_multi_step_model_exit_2(self, trained_dir, tmp_path, capsys, kind):
        out, _ = trained_dir
        model_path = tmp_path / "model.bin"
        save_model(build_model(kind, s=4, hidden=4, attn_width=2, horizon=2), model_path)
        cfg = tmp_path / "h3.ini"
        cfg.write_text(TINY_INI.replace("horizons = 2", "horizons = 3"))
        assert run_cli("bench", "--config", cfg, "--out", out, "--checkpoint", model_path,
                       "--iters", 5, "--warmup", 1) == 2
        err = capsys.readouterr().err
        assert "evaluation.horizons = 3" in err and "the 2 horizons" in err
