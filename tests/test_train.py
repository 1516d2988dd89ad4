import gc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from mesocast import autodiff as ad
from mesocast import cells, models
from mesocast import train as T
from mesocast.config import RunConfig, TrainingSection
from mesocast.data import NUM_SEGMENTS, Corpus, Series, build_windows, normalize, stack_windows
from mesocast.evaluate import per_horizon_mse
from mesocast.losses import combined_loss
from mesocast.models import InferencePlan, build_model
from mesocast.train import (
    AdamW,
    DivergenceError,
    TrainConfig,
    load_checkpoint,
    plateau_lr,
    save_checkpoint,
    train_model,
)
from containers import with_header
from gradcheck import assert_block_grads_close
from reference_ops import taped_unroll


def tiny_cfg(**kw):
    defaults = dict(
        epochs_per_stage=6, validate_every=2, train_stride=1, val_stride=1,
        lap_depth=0, weight_decay=0.0, grad_chunk=64,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def constant_corpus(c=70.0, T=40):
    speeds = np.full((T, NUM_SEGMENTS), c)
    make = lambda: Series(minutes=np.arange(T), speeds=speeds.copy())
    return Corpus(train=make(), easy=make(), hard=[make()])


def run_digest(run, hard=True) -> str:
    """crc32 over the hex bytes of everything a run carries forward: final
    blocks, AdamW moments and step counts, best parameters and metric, and
    the metric history (without its hard metric when ``hard`` is false)."""
    arr = lambda a: np.ascontiguousarray(a, dtype="<f8").tobytes().hex()
    opt = run.optimizer
    parts = [part for name, t in run.model.blocks().items() for part in (name, arr(t.data))]
    parts += [part for name in sorted(opt.m)
              for part in (name, arr(opt.m[name]), arr(opt.v[name]), str(opt.t[name]))]
    parts += [part for name in sorted(run.best_params)
              for part in (name, arr(run.best_params[name]))]
    parts.append(float(run.best_metric).hex())
    for r in run.history:
        parts += [str(r.epoch), r.lr.hex(), r.train_loss.hex(), str(r.easy and r.easy.hex())]
        if hard:
            parts.append(str(r.hard and r.hard.hex()))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part.encode(), crc)
    return f"{crc:08x}"


def layer_names(model, index):
    """Block names of layer ``index`` (from 0) of a model."""
    return set(model.layers[index].blocks(f"layer{index + 1}"))


def diverge_at(monkeypatch, epoch):
    """Report a non-finite loss for the ``epoch``-th epoch a training call
    runs, after its real gradients were taken, so the run raises
    DivergenceError there with the state of the epoch before."""
    real = T._accumulate_gradients
    calls = []

    def patched(*args):
        loss, grads = real(*args)
        calls.append(loss)
        return (np.nan if len(calls) == epoch else loss), grads

    monkeypatch.setattr(T, "_accumulate_gradients", patched)


def wavy_corpus(T=60, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(T)[:, None]
    s = np.arange(NUM_SEGMENTS)[None, :]
    speeds = 55 + 12 * np.sin(t / 7.0 + s / 3.0) + rng.normal(0, 0.5, (T, NUM_SEGMENTS))
    make = lambda off: Series(minutes=np.arange(T), speeds=np.clip(speeds + off, 0, 90))
    return Corpus(train=make(0), easy=make(0.3), hard=[make(-4.0), make(4.0)])


class TestAdamW:
    def test_first_step_is_sign_like(self):
        cfg = TrainConfig(weight_decay=0.0)
        opt = AdamW(cfg)
        p = ad.parameter(np.array([1.0, -2.0, 0.5]))
        g = np.array([0.3, -0.1, 0.8])
        before = p.data.copy()
        opt.step({"p": p}, {"p": g}, lr=0.01)
        expected = before - 0.01 * g / (np.abs(g) + AdamW.EPS)
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-12)

    def test_zero_gradient_pure_decay(self):
        cfg = TrainConfig(weight_decay=0.1)
        opt = AdamW(cfg)
        p = ad.parameter(np.array([2.0, -3.0]))
        before = p.data.copy()
        opt.step({"p": p}, {"p": np.zeros(2)}, lr=0.01)
        np.testing.assert_array_equal(p.data, before * 0.999)

    def test_ten_steps_against_clean_room_oracle(self):
        # quadratic objective f(x) = sum((x - target)^2)
        rng = np.random.default_rng(3)
        target = rng.uniform(-1, 1, 5)
        x0 = rng.uniform(-1, 1, 5)
        lr, wd, b1, b2, eps = 0.05, 0.02, 0.9, 0.999, 1e-8

        cfg = TrainConfig(lr=lr, weight_decay=wd)
        opt = AdamW(cfg)
        p = ad.parameter(x0.copy())
        for _ in range(10):
            opt.step({"p": p}, {"p": 2.0 * (p.data - target)}, lr=lr)

        # independent reimplementation
        x = x0.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 11):
            g = 2.0 * (x - target)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            x = x * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.max(np.abs(p.data - x)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        opt = AdamW(TrainConfig())
        p = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            opt.step({"p": p}, {"p": np.zeros(3)}, lr=0.01)


class TestPlateauScheduler:
    def test_monotone_improvement_keeps_lr(self):
        cfg = TrainConfig()
        assert plateau_lr([5.0, 4.0, 3.0], cfg) == cfg.lr

    def test_three_stalls_decay_once(self):
        cfg = TrainConfig(plateau_patience=3)
        assert plateau_lr([3.0, 3.1, 3.2, 3.05], cfg) == cfg.lr / 10.0

    def test_two_decays(self):
        cfg = TrainConfig(plateau_patience=2)
        lr = plateau_lr([3.0, 3.1, 3.2, 3.3, 3.4], cfg)
        assert lr == pytest.approx(cfg.lr / 100.0)

    def test_counter_resets_on_improvement(self):
        cfg = TrainConfig(plateau_patience=3)
        assert plateau_lr([3.0, 3.1, 3.2, 2.0, 2.1, 2.2], cfg) == cfg.lr

    def test_never_increases(self):
        cfg = TrainConfig(plateau_patience=2)
        rng = np.random.default_rng(1)
        hist: list[float] = []
        last = cfg.lr
        for value in rng.uniform(0, 1, 50):
            hist.append(float(value))
            lr = plateau_lr(hist, cfg)
            assert lr <= last
            last = lr


class TestTrainOneStep:
    def test_zero_epochs_leaves_model_bitwise(self):
        corpus = constant_corpus()
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=1)
        before = {n: t.data.copy() for n, t in model.blocks().items()}
        run = train_model(model, corpus, tiny_cfg(epochs_per_stage=0))
        for name, t in run.model.blocks().items():
            assert np.array_equal(t.data, before[name])

    def test_converges_on_constant_series(self):
        c = 64.0
        corpus = constant_corpus(c=c, T=30)
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=2)
        cfg = tiny_cfg(epochs_per_stage=200, validate_every=10)
        run = train_model(model, corpus, cfg)
        assert run.history[-1].train_loss <= 1e-6
        window = np.full((4, NUM_SEGMENTS), c / 80.0)
        pred = InferencePlan(run.model).run(window)[0]
        assert np.max(np.abs(pred - c / 80.0)) <= 1e-3

    def test_same_seed_bitwise_identical(self):
        corpus = wavy_corpus()
        runs = []
        for _ in range(2):
            model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=5)
            runs.append(train_model(model, corpus, tiny_cfg()))
        for (n1, a), (n2, b) in zip(runs[0].model.blocks().items(),
                                    runs[1].model.blocks().items()):
            assert n1 == n2 and np.array_equal(a.data, b.data)
        assert [r.train_loss for r in runs[0].history] == [r.train_loss for r in runs[1].history]

    def test_training_reduces_loss(self):
        corpus = wavy_corpus()
        model = build_model("sa-lstm", s=4, hidden=6, attn_width=2, seed=6)
        run = train_model(model, corpus, tiny_cfg(epochs_per_stage=12))
        assert run.history[-1].train_loss < run.history[0].train_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_restored_state(self):
        corpus = constant_corpus()
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=8)
        model.head_b.data[:] = np.inf
        with pytest.raises(DivergenceError, match="non-finite"):
            train_model(model, corpus, tiny_cfg(epochs_per_stage=3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_rolls_optimizer_back_and_resumes(self, tmp_path):
        # a huge step after epoch 1 makes the epoch-2 loss overflow
        corpus = wavy_corpus()
        cfg = tiny_cfg(lr=1e300, epochs_per_stage=3)
        make = lambda: build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=8)
        one = train_model(make(), corpus, tiny_cfg(lr=1e300, epochs_per_stage=1))
        with pytest.raises(DivergenceError, match="epoch 2") as info:
            train_model(make(), corpus, cfg)
        run = info.value.run
        assert run.epoch == 1
        assert run.optimizer.t == one.optimizer.t == {n: 1 for n in one.optimizer.t}
        for name in one.optimizer.m:
            assert np.array_equal(run.optimizer.m[name], one.optimizer.m[name]), name
            assert np.array_equal(run.optimizer.v[name], one.optimizer.v[name]), name
        path = tmp_path / "diverged.ckpt"
        save_checkpoint(run, cfg, path)
        back = load_checkpoint(path, cfg)
        assert back.epoch == 1 and back.optimizer.t == run.optimizer.t
        for name in back.optimizer.m:
            assert np.all(np.isfinite(back.optimizer.m[name])), name
            assert np.all(np.isfinite(back.optimizer.v[name])), name
        with pytest.raises(DivergenceError, match="epoch 2"):
            train_model(None, corpus, cfg, resume=back)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_blocks_whose_gradient_went_non_finite(self, tmp_path):
        corpus = wavy_corpus()
        corpus.train.speeds[10, 3] = np.nan
        cfg = tiny_cfg(epochs_per_stage=3)
        with pytest.raises(DivergenceError) as info:
            train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=8), corpus, cfg)
        # every block's gradient reads the NaN; the first three are named in
        # block-table order
        assert str(info.value) == (
            "training loss became non-finite at epoch 1; parameters and optimizer left at the "
            "last finite epoch; non-finite gradient in 'layer1/w_f', 'layer1/w_i', "
            "'layer1/w_c' and 11 more block(s)")
        run = info.value.run
        assert run.epoch == 0 and run.optimizer.t == {}
        path = tmp_path / "diverged.ckpt"
        save_checkpoint(run, cfg, path)
        assert load_checkpoint(path, cfg).epoch == 0

    def test_divergence_with_finite_gradients_says_so(self, monkeypatch):
        diverge_at(monkeypatch, 2)
        with pytest.raises(DivergenceError) as info:
            train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=8),
                        wavy_corpus(), tiny_cfg(epochs_per_stage=3))
        assert str(info.value) == (
            "training loss became non-finite at epoch 2; parameters and optimizer left at the "
            "last finite epoch; no block's gradient holds a non-finite value")

    def test_chunked_gradients_match_single_chunk(self):
        corpus = wavy_corpus()
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=9)
        staged = T.stage_corpus(corpus, 4, 1, tiny_cfg())
        blocks = model.blocks()
        cfg_small = tiny_cfg(grad_chunk=7)
        cfg_big = tiny_cfg(grad_chunk=10_000)
        loss_a, grads_a = T._accumulate_gradients(model, blocks, staged.x, staged.y,
                                                  cfg_small, [1])
        loss_b, grads_b = T._accumulate_gradients(model, blocks, staged.x, staged.y,
                                                  cfg_big, [1])
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=0, atol=1e-12)


class TestTrainNStep:
    def test_stage_one_freezes_later_layers(self):
        corpus = wavy_corpus()
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=10)
        init = {n: t.data.copy() for n, t in model.blocks().items()}
        cfg = tiny_cfg(epochs_per_stage=2)
        # run only stage 1 by checkpointing at its boundary: train 2 epochs
        run = T.TrainRun(model=model, optimizer=AdamW(cfg), history=[])
        staged = T.stage_corpus(corpus, 4, 3, cfg)
        trainable = layer_names(model, 0) | {"head/w", "head/b"}
        T._run_epochs(staged, cfg, run, T.Stage(0, 2, (1,), frozenset(trainable), cfg.lr))
        for name, t in model.blocks().items():
            if name in trainable:
                assert not np.array_equal(t.data, init[name]), name
            else:
                assert np.array_equal(t.data, init[name]), name

    def test_full_schedule_trains_all_layers(self):
        corpus = wavy_corpus()
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2, seed=11)
        init = {n: t.data.copy() for n, t in model.blocks().items()}
        run = train_model(model, corpus, tiny_cfg(epochs_per_stage=2))
        assert run.epoch == 3 * 2  # two layer stages plus fine-tune
        for name, t in run.model.blocks().items():
            assert not np.array_equal(t.data, init[name]), name

    def test_head_receives_gradients_in_every_stage(self):
        corpus = wavy_corpus()
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=12)
        staged = T.stage_corpus(corpus, 4, 3, tiny_cfg())
        blocks = model.blocks()
        for stage_horizon in (1, 2, 3):
            _, grads = T._accumulate_gradients(model, blocks, staged.x[:8], staged.y[:8],
                                               tiny_cfg(), [stage_horizon])
            assert "head/w" in grads and "head/b" in grads
            # layers beyond the stage horizon are not in the graph at all
            for later in range(stage_horizon + 1, 4):
                assert not any(n.startswith(f"layer{later}/") for n in grads)

    def test_frozen_blocks_are_tape_constants_in_every_stage(self, monkeypatch):
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=19)
        staged = T.stage_corpus(wavy_corpus(), 4, 3, tiny_cfg())
        x, y, blocks = staged.x[:8], staged.y[:8], model.blocks()
        taped = []            # per recorded step: does it take weight products?
        adjoint = cells.StepKernel.adjoint
        monkeypatch.setattr(cells.StepKernel, "adjoint",
                            lambda self, b, g, c, need: (taped.append(need[2]),
                                                         adjoint(self, b, g, c, need))[1])
        # layer k unrolls s + k - 1 steps.  Stage 2: layer 1 records nothing.
        # Stage 3: layer 2 records only the step that reads prediction 1,
        # which passes dh back for the head and takes no weight products
        expected = {0: [True] * 4, 1: [True] * 5, 2: [False] + [True] * 6}
        for stage, steps in expected.items():
            trainable = layer_names(model, stage) | {"head/w", "head/b"}
            loss_all, grads_all = T._accumulate_gradients(model, blocks, x, y, tiny_cfg(),
                                                          [stage + 1])
            taped.clear()
            loss, grads = T._accumulate_gradients(model, blocks, x, y, tiny_cfg(), [stage + 1],
                                                  trainable=trainable)
            assert sorted(taped) == sorted(steps)
            assert loss == loss_all
            assert set(grads) == trainable
            for name in trainable:
                assert np.array_equal(grads[name], grads_all[name]), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_requires_grad_restored_after_stage_and_divergence(self):
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2, seed=20)
        cfg = tiny_cfg(epochs_per_stage=1)
        run = T.TrainRun(model=model, optimizer=AdamW(cfg), history=[])
        staged = T.stage_corpus(wavy_corpus(), 4, 2, cfg)
        stage = lambda i: T.Stage(i, i + 1, (i + 1,),
                                  frozenset(layer_names(model, i) | {"head/w", "head/b"}), cfg.lr)
        T._run_epochs(staged, cfg, run, stage(0))
        assert all(t.requires_grad for t in model.blocks().values())
        model.head_b.data[:] = np.inf
        with pytest.raises(DivergenceError):
            T._run_epochs(staged, cfg, run, stage(1))
        assert all(t.requires_grad for t in model.blocks().values())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_layer_stage_writes_no_block_flag(self, monkeypatch):
        # the frozen set reaches the unroll as Stage.trainable: while stage 2
        # walks its tape backwards, layer 1 and the rest keep requires_grad,
        # and they keep it after the stage raises
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2, seed=21)
        cfg = tiny_cfg(epochs_per_stage=1)
        staged = T.stage_corpus(wavy_corpus(), 4, 2, cfg)
        stage = T.schedule(model, cfg)[1]
        assert stage.trainable == layer_names(model, 1) | {"head/w", "head/b"}
        seen = []
        adjoint = cells.StepKernel.adjoint
        monkeypatch.setattr(cells.StepKernel, "adjoint", lambda self, *args: (
            seen.append([t.requires_grad for t in model.blocks().values()]),
            adjoint(self, *args))[1])
        T._run_epochs(staged, cfg, T.TrainRun(model=model, optimizer=AdamW(cfg), history=[]),
                      stage)
        walked = len(seen)
        model.head_b.data[:] = np.inf
        with pytest.raises(DivergenceError):
            T._run_epochs(staged, cfg,
                          T.TrainRun(model=model, optimizer=AdamW(cfg), history=[]), stage)
        assert 0 < walked < len(seen)
        assert all(all(flags) for flags in seen)
        assert all(t.requires_grad for t in model.blocks().values())

    def test_only_autodiff_names_requires_grad(self):
        # training states what is frozen once, in Stage.trainable; the flag
        # belongs to the generic tape alone
        src = Path(T.__file__).parent
        assert [p.name for p in sorted(src.glob("*.py"))
                if "requires_grad" in p.read_text(encoding="utf-8")] == ["autodiff.py"]

    def test_frozen_prefix_is_walked_once_per_stage(self, monkeypatch):
        # s = 4, 54 training windows in 4 taped chunks (2 tape-free passes),
        # 3 validation sets of 2 passes each; 2 epochs per stage, each
        # validated.  A stage walks its newly frozen layer's frames once,
        # tape-free, before its first taped chunk, and validation starts from
        # what the previous stage's last validation left
        counts = {"taped": 0, "kernel": 0, "epoch": 0}
        per_epoch = []
        taped_step, kernel_step, validate = (models.sa_lstm_step, cells.StepKernel.step,
                                             T.validation_metrics)

        def counting_taped(*args, **kwargs):
            counts["taped"] += 1
            return taped_step(*args, **kwargs)

        def counting_kernel(self, b, x):
            counts["kernel"] += 1
            return kernel_step(self, b, x)

        def counting_validation(*args, **kwargs):
            before = counts["kernel"]
            out = validate(*args, **kwargs)
            # a taped step runs the kernel once, so the rest were tape-free
            walked = before - counts["epoch"] - counts["taped"]
            per_epoch.append((counts["taped"], walked, counts["kernel"] - before))
            counts.update(taped=0, epoch=counts["kernel"])
            return out

        monkeypatch.setattr(models, "sa_lstm_step", counting_taped)
        monkeypatch.setattr(cells.StepKernel, "step", counting_kernel)
        monkeypatch.setattr(T, "validation_metrics", counting_validation)
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=23)
        train_model(model, wavy_corpus(), tiny_cfg(epochs_per_stage=2, validate_every=1,
                                                   grad_chunk=16))
        taped = [4 * steps for steps in (4, 4, 5, 5, 1 + 6, 1 + 6, 15, 15)]
        walked = [2 * 4 * frozen for frozen in (0, 0, 1, 0, 1, 0, 0, 0)]
        validated = [6 * steps for steps in (4, 4, 5, 5, 1 + 6, 1 + 6, 15, 15)]
        assert per_epoch == list(zip(taped, walked, validated))

    def test_stale_prefix_entry_is_not_read(self, monkeypatch):
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=24)
        x = np.random.default_rng(24).uniform(0.2, 1.0, (5, 4, NUM_SEGMENTS))
        store = T.PrefixStore(model)
        fills, fill = [], T.fill_prefix
        monkeypatch.setattr(T, "fill_prefix",
                            lambda m, x, held, depth: (fills.append(len(held)),
                                                       fill(m, x, held, depth))[1])
        first = store.states("easy", x, 2)
        assert fills == [0] and len(first) == 2
        assert all(a is b for a, b in zip(store.states("easy", x, 2), first))
        assert store.states("easy", x, 1)[0] is first[0] and fills == [0]
        one_ulp = lambda a: np.nextafter(a, np.inf)      # the least change a block can see
        model.layers[1].w_q.data[0, 0] = one_ulp(model.layers[1].w_q.data[0, 0])
        again = store.states("easy", x, 2)
        assert fills == [0, 1] and again[0] is first[0] and again[1] is not first[1]
        model.layers[0].b_f.data[0] = one_ulp(model.layers[0].b_f.data[0])
        store.states("easy", x, 2)
        assert fills == [0, 1, 0]

    def test_both_unrolls_read_read_only_states(self):
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=26)
        x = np.random.default_rng(26).uniform(0.2, 1.0, (40, 4, NUM_SEGMENTS))
        states = T.PrefixStore(model).states("train", x, 2)
        assert not any(hc.flags.writeable for hc in states)
        with pytest.raises(ValueError, match="read-only"):
            states[0][0, 0] = 0.0
        rows = models.prefix_rows(states, 8, 24)
        preds, _ = model.forward_graph_with_states(x[8:24], prefix=rows)
        plain, _ = model.forward_graph_with_states(x[8:24])
        for a, b in zip(preds, plain):
            assert np.array_equal(a.data, b.data)
        ad.backward(ad.sum_all(preds[2]))
        assert np.array_equal(models.predict_batch(model, x, 3, prefix=states),
                              models.predict_batch(model, x, 3))

    def test_best_model_is_chosen_in_the_finetune_stage(self):
        # a layer stage's metric covers its own horizon only, so it must not
        # compete with the fine-tune stage's metric over every horizon
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=25)
        init = {n: t.data.copy() for n, t in model.blocks().items()}
        run = train_model(model, wavy_corpus(), tiny_cfg(epochs_per_stage=2, validate_every=1))
        for index in (1, 2):
            for name in layer_names(model, index):
                assert not np.array_equal(run.best_params[name], init[name]), name
        assert run.best_metric == min(r.easy for r in run.history if r.epoch > 6)

    def test_single_layer_stage_matches_one_step_training(self):
        corpus = wavy_corpus()
        cfg = tiny_cfg(epochs_per_stage=4)
        one = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=13)
        run_one = train_model(one, corpus, cfg)
        nstep = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=1, seed=13)
        run_n = train_model(nstep, corpus, cfg)
        for a, b in zip(run_one.history, run_n.history[:len(run_one.history)]):
            assert a.train_loss == b.train_loss
            assert a.easy == b.easy


def reference_stage_loss(model, x, y, depth, horizons, prefix=None, trainable=None):
    """``T._stage_loss`` on the tests' per-step taped unroll."""
    preds, _ = taped_unroll(model, x, upto=max(horizons), prefix=prefix, trainable=trainable)
    total = None
    for h in horizons:
        term = combined_loss(preds[h - 1], y[:, h - 1, :], depth)
        total = term if total is None else ad.add(total, term)
    return total


def chunk_gradients(model, loss):
    """The value of ``loss()`` and the gradient ``ad.backward`` leaves on
    each block of ``model`` that receives one."""
    blocks = model.blocks()
    for t in blocks.values():
        t.grad = None
    value = loss()
    ad.backward(value)
    return value.item(), {name: t.grad for name, t in blocks.items() if t.grad is not None}


class TestUnrollWalk:
    """A chunk's unroll is one tape node whose adjoint walks the plan's
    schedule backwards.  Its gradients are those of the per-step taped
    unroll it replaced, bit for bit, and agree with finite differences."""

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_walk_equals_the_per_step_tape_bitwise(self, kind):
        # default dims: a 16-window chunk's gate products run in row blocks
        model = build_model(kind, seed=31)
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, (16, model.s, NUM_SEGMENTS))
        y = rng.uniform(-1.0, 1.0, (16, model.horizon, NUM_SEGMENTS))
        blocks = model.blocks()
        for stage in T.schedule(model, TrainConfig()):
            depth = stage.depths[0]
            prefix = models.fill_prefix(model, x, [], depth) if depth else None
            trainable = stage.trainable or set(blocks)
            for pyramid_depth in (0, 3):
                for size in (16, 7, 1):
                    args = (model, x[:size], y[:size], pyramid_depth, stage.horizons,
                            models.prefix_rows(prefix, 0, size), stage.trainable)
                    walked = chunk_gradients(model, lambda: T._stage_loss(*args))
                    taped = chunk_gradients(model, lambda: reference_stage_loss(*args))
                    where = (stage.horizons, pyramid_depth, size)
                    assert walked[0] == taped[0], where
                    assert walked[1].keys() == taped[1].keys() == set(trainable), where
                    for name, grad in walked[1].items():
                        assert np.array_equal(grad, taped[1][name]), (name, *where)

    def test_a_chunk_tape_is_freed_by_reference_counting(self, monkeypatch):
        # the tape holds every step's buffers; a reference cycle in it would
        # keep them until the cycle collector ran, and peak memory would climb
        # with each chunk
        refs, real = [], models.StepBuffers

        def recording(*args, **kwargs):
            b = real(*args, **kwargs)
            refs.append(weakref.ref(b))
            return b

        monkeypatch.setattr(models, "StepBuffers", recording)
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=34)
        rng = np.random.default_rng(34)
        x = rng.uniform(0.2, 1.0, (3, 4, NUM_SEGMENTS))
        y = rng.uniform(0.2, 1.0, (3, 3, NUM_SEGMENTS))
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss = T._stage_loss(model, x, y, 3, (1, 2, 3))
            ad.backward(loss)
            assert len(refs) == 4 + 5 + 6 and all(ref() is not None for ref in refs)
            del loss
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_stage_loss_gradients_match_finite_differences(self, kind):
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=32)
        rng = np.random.default_rng(32)
        x = rng.uniform(0.2, 1.0, (3, 4, NUM_SEGMENTS))
        y = rng.uniform(0.2, 1.0, (3, 3, NUM_SEGMENTS))
        horizons = T.schedule(model, TrainConfig())[-1].horizons      # every horizon
        assert_block_grads_close(lambda: T._stage_loss(model, x, y, 3, horizons),
                                 model.blocks())

    def test_nstep_stage3_gradients_match_finite_differences(self):
        # layers 1 and 2 frozen and started from a depth-2 prefix: only
        # layer 2's step on prediction 1 carries a gradient through them
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=33)
        rng = np.random.default_rng(33)
        x = rng.uniform(0.2, 1.0, (2, 4, NUM_SEGMENTS))
        y = rng.uniform(0.2, 1.0, (2, 3, NUM_SEGMENTS))
        stage = T.schedule(model, TrainConfig())[2]
        assert stage.horizons == (3,) and stage.depths[0] == 2
        prefix = models.fill_prefix(model, x, [], 2)
        assert_block_grads_close(
            lambda: T._stage_loss(model, x, y, 3, stage.horizons, prefix, stage.trainable),
            model.blocks(), stage.trainable)


class TestSchedule:
    # (first, last, horizons, layer trained with the head or None for every
    # block, fine-tune rate?, depths) at 3 epochs per stage, taken from the
    # stage loop of the nstep trainer that train_model replaced.  That loop
    # passed the fine-tune stage no prefix store, which reads as depths (0, 0)
    NSTEP = {
        1: [(0, 3, (1,), 0, False, (0, 0)), (3, 6, (1,), None, True, (0, 0))],
        2: [(0, 3, (1,), 0, False, (0, 1)), (3, 6, (2,), 1, False, (1, 1)),
            (6, 9, (1, 2), None, True, (0, 0))],
        3: [(0, 3, (1,), 0, False, (0, 1)), (3, 6, (2,), 1, False, (1, 2)),
            (6, 9, (3,), 2, False, (2, 2)), (9, 12, (1, 2, 3), None, True, (0, 0))],
        4: [(0, 3, (1,), 0, False, (0, 1)), (3, 6, (2,), 1, False, (1, 2)),
            (6, 9, (3,), 2, False, (2, 2)), (9, 12, (4,), 3, False, (2, 2)),
            (12, 15, (1, 2, 3, 4), None, True, (0, 0))],
    }

    @staticmethod
    def as_rows(model, stages, cfg):
        layer_of = lambda stage: next(i for i in range(len(model.layers))
                                      if stage.trainable == layer_names(model, i)
                                      | {"head/w", "head/b"})
        rows = []
        for st in stages:
            finetune = st.base_lr == cfg.lr * cfg.finetune_lr_scale
            assert finetune or st.base_lr == cfg.lr
            rows.append((st.first, st.last, st.horizons,
                         None if st.trainable is None else layer_of(st), finetune, st.depths))
        return rows

    @pytest.mark.parametrize("horizon", sorted(NSTEP))
    def test_nstep_stages(self, horizon):
        cfg = tiny_cfg(epochs_per_stage=3)
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=horizon, seed=1)
        assert self.as_rows(model, T.schedule(model, cfg), cfg) == self.NSTEP[horizon]

    @pytest.mark.parametrize("kind, horizons", [
        ("lstm", (1,)), ("lstm-seg", (1,)), ("sa-lstm", (1,)), ("all-at-once", (1, 2, 3)),
    ])
    def test_single_stage_kinds(self, kind, horizons):
        cfg = tiny_cfg(epochs_per_stage=3)
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=1)
        [stage] = T.schedule(model, cfg)
        assert stage == T.Stage(0, 3, horizons, None, cfg.lr, (0, 0))


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        corpus = wavy_corpus()
        cfg = tiny_cfg(epochs_per_stage=4)
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=14)
        run = train_model(model, corpus, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        back = load_checkpoint(path, cfg)
        assert back.epoch == run.epoch
        assert back.best_metric == run.best_metric
        for (n1, a), (n2, b) in zip(run.model.blocks().items(), back.model.blocks().items()):
            assert n1 == n2 and np.array_equal(a.data, b.data)
        for name in run.optimizer.m:
            assert np.array_equal(run.optimizer.m[name], back.optimizer.m[name])
            assert np.array_equal(run.optimizer.v[name], back.optimizer.v[name])
        assert [r.train_loss for r in back.history] == [r.train_loss for r in run.history]

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.pop("config"), "config"),
        (lambda h: h.pop("epoch"), "epoch"),
        (lambda h: h.update(epoch=-1), "epoch"),
        (lambda h: h.pop("best_metric"), "best_metric"),
        (lambda h: h.update(best_metric="fast"), "best_metric"),
        (lambda h: h.update(best_metric="0x1p99999"), "best_metric"),
        (lambda h: h.pop("history"), "history"),
        (lambda h: h.update(history=[[1, "0x1p-1"]]), "history"),
        (lambda h: h.pop("opt"), "opt"),
        (lambda h: h.update(opt=[["head/b", [1], "1"]]), "opt"),
        (lambda h: h.pop("best"), "best"),
        (lambda h: h.update(best=[["head/b", "1"]]), "best"),
        (lambda h: h.pop("model_len"), "model_len"),
        (lambda h: h.update(model_len="40"), "model_len"),
    ])
    def test_malformed_header_names_field(self, tmp_path, edit, field):
        cfg = tiny_cfg(epochs_per_stage=2)
        run = train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=14),
                                   wavy_corpus(), cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        path.write_bytes(with_header(path.read_bytes(), edit))
        with pytest.raises(ValueError, match=field):
            load_checkpoint(path, cfg)

    @pytest.mark.parametrize("field", ["opt", "best"])
    @pytest.mark.parametrize("edit", ["rename", "transpose"])
    def test_entry_that_is_not_a_model_block_rejected(self, tmp_path, field, edit):
        cfg = tiny_cfg(epochs_per_stage=2)
        run = train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=14),
                          wavy_corpus(), cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)

        def change(header):
            if edit == "rename":
                header[field][-1][0] = "layer9/w_o"
            else:       # the same number of values, so the payload still adds up
                row = next(r for r in header[field] if len(set(r[1])) == 2)
                row[1].reverse()

        path.write_bytes(with_header(path.read_bytes(), change))
        with pytest.raises(ValueError, match=f"field '{field}' does not match"):
            load_checkpoint(path, cfg)

    def test_resume_equals_uninterrupted(self, tmp_path):
        corpus = wavy_corpus()
        straight_cfg = tiny_cfg(epochs_per_stage=6)
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=15)
        straight = train_model(model, corpus, straight_cfg)

        half_cfg = tiny_cfg(epochs_per_stage=3)
        model2 = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=15)
        half = train_model(model2, corpus, half_cfg)
        path = tmp_path / "half.ckpt"
        save_checkpoint(half, half_cfg, path)
        resumed_run = load_checkpoint(path, half_cfg)
        resumed = train_model(None, corpus, straight_cfg, resume=resumed_run)

        for (n1, a), (n2, b) in zip(straight.model.blocks().items(),
                                    resumed.model.blocks().items()):
            assert n1 == n2 and np.array_equal(a.data, b.data), n1

    def test_resume_nstep_mid_schedule(self, tmp_path):
        corpus = wavy_corpus()
        cfg = tiny_cfg(epochs_per_stage=2)
        straight = train_model(
            build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2, seed=16),
            corpus, cfg)

        partial_cfg = tiny_cfg(epochs_per_stage=2)
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=2, seed=16)
        run = T.TrainRun(model=model, optimizer=AdamW(partial_cfg), history=[])
        staged = T.stage_corpus(corpus, 4, 2, partial_cfg)
        T._run_epochs(staged, partial_cfg, run, T.schedule(model, partial_cfg)[0])
        # checkpoint sits exactly at the stage-1 boundary (epoch 2 of 6)
        path = tmp_path / "stage1.ckpt"
        save_checkpoint(run, cfg, path)
        resumed = train_model(None, corpus, cfg, resume=load_checkpoint(path, cfg))
        for (n1, a), (n2, b) in zip(straight.model.blocks().items(),
                                    resumed.model.blocks().items()):
            assert n1 == n2 and np.array_equal(a.data, b.data), n1

    @pytest.mark.parametrize("stop", [5, 8], ids=["inside-stage2", "inside-stage3"])
    def test_resume_nstep_horizon3_after_divergence(self, tmp_path, monkeypatch, stop):
        # 3 epochs per stage: stage 2 is epochs 4..6, stage 3 is 7..9.  The
        # diverging epoch follows the checkpoint, so the run raises inside the
        # stage, and its checkpoint resumes into a stage whose frozen prefix
        # (layer 1, then layer 2's input frames) must be recomputed
        corpus = wavy_corpus(seed=4)
        cfg = tiny_cfg(epochs_per_stage=3, validate_every=2, grad_chunk=16)
        make = lambda: build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=22)
        straight = train_model(make(), corpus, cfg)
        diverge_at(monkeypatch, stop + 1)
        with pytest.raises(DivergenceError, match=f"epoch {stop + 1}") as info:
            train_model(make(), corpus, cfg)
        monkeypatch.undo()
        assert info.value.run.epoch == stop
        path = tmp_path / "diverged.ckpt"
        save_checkpoint(info.value.run, cfg, path)
        resumed = train_model(None, corpus, cfg, resume=load_checkpoint(path, cfg))
        assert resumed.epoch == straight.epoch == 12
        assert run_digest(resumed) == run_digest(straight)

    @pytest.mark.parametrize("cfg, fingerprint", [
        (TrainConfig(), "58d12a14"),
        (TrainConfig(lr=0.003, grad_chunk=64, epochs_per_stage=7, lap_depth=2), "67cf4061"),
    ])
    def test_fingerprint_survives_retired_options(self, cfg, fingerprint):
        # values taken before full_batch, batch_size, monitor, lap_weight and
        # lap_padding were removed, so checkpoints written while they were
        # settable still resume
        assert T.config_fingerprint(cfg) == fingerprint

    def test_config_mismatch_rejected(self, tmp_path):
        corpus = constant_corpus()
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=17), corpus, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        with pytest.raises(ValueError, match="different training config"):
            load_checkpoint(path, tiny_cfg(epochs_per_stage=1, lr=0.005))

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        corpus = constant_corpus()
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=18), corpus, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(path, cfg)

    def test_corrupt_model_blob_in_checkpoint_rejected(self, tmp_path):
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=18), constant_corpus(), cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        blob = bytearray(path.read_bytes())
        model_end = blob.index(b"MSOC") + len(models.serialize_model(run.model))
        blob[model_end - 40] ^= 0xFF          # a value in the model's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(path, cfg)

    def test_load_takes_one_crc32_over_the_model_blob(self, tmp_path, monkeypatch):
        # the checkpoint's crc32 covers its model blob, so the model
        # container's own crc32 over the same bytes is not taken again
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=18),
            constant_corpus(), cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        hashed, crc32 = [], zlib.crc32
        monkeypatch.setattr(zlib, "crc32", lambda data, *value: (
            hashed.append(bytes(data)), crc32(data, *value))[1])
        load_checkpoint(path, cfg)
        monkeypatch.undo()
        covering = [data for data in hashed if b"MSOC" in data]
        assert covering == [path.read_bytes()[:-4]]
        assert len(hashed) == 2               # the checkpoint and the config fingerprint

    def test_model_dims_with_a_stray_field_rejected(self, tmp_path, monkeypatch):
        # a checkpoint's model goes through the model file's reader
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=18), constant_corpus(), cfg)
        dims = models.Forecaster.dims
        monkeypatch.setattr(models.Forecaster, "dims", lambda self: {**dims(self), "horizon": 5})
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="field 'horizon' is not a dim of a sa-lstm model"):
            load_checkpoint(path, cfg)

    def test_non_finite_model_weight_rejected_naming_the_block(self, tmp_path):
        cfg = tiny_cfg(epochs_per_stage=1)
        run = train_model(
            build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=18), constant_corpus(), cfg)
        run.model.head_b.data[0] = np.nan
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        with pytest.raises(ValueError, match="'head/b' holds a non-finite value"):
            load_checkpoint(path, cfg)


    @pytest.mark.parametrize("field, arrays", [
        ("opt", lambda run: run.optimizer.m), ("opt", lambda run: run.optimizer.v),
        ("best", lambda run: run.best_params),
    ], ids=["m", "v", "best"])
    def test_non_finite_moment_or_best_block_rejected_naming_it(self, tmp_path, field, arrays):
        # the checksum holds, so only a look at the values can tell
        cfg = tiny_cfg(epochs_per_stage=2)
        run = train_model(build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=18),
                          wavy_corpus(), cfg)
        arrays(run)["head/b"][0] = np.nan
        path = tmp_path / "run.ckpt"
        save_checkpoint(run, cfg, path)
        with pytest.raises(ValueError, match=f"field '{field}': block 'head/b' holds a non-finite"):
            load_checkpoint(path, cfg)


class TestPinnedResults:
    def test_nstep_horizon3_schedule_digest(self):
        # first taken before the frozen nstep prefix was cached, so the cache
        # is checked against the code that recomputed every frozen step.
        # Re-pinned when model selection was limited to the fine-tune stage:
        # the final blocks, moments and history kept their bytes, and only
        # best_params and best_metric moved
        model = build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=21)
        run = train_model(model, wavy_corpus(seed=3),
                          tiny_cfg(epochs_per_stage=2, validate_every=1, grad_chunk=16))
        assert run.epoch == 8
        assert run_digest(run) == "1d5e8ab2"

    @pytest.mark.parametrize("kind, digest", [
        ("lstm", "3c9db2c4"), ("lstm-seg", "dbfded31"),
        ("sa-lstm", "2718d78c"), ("all-at-once", "dfcf583a"),
    ])
    def test_single_stage_digest(self, kind, digest):
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=21)
        run = train_model(model, wavy_corpus(seed=3),
                                   tiny_cfg(epochs_per_stage=2, validate_every=1, grad_chunk=16))
        assert run.epoch == 2
        assert run_digest(run) == digest

    @pytest.mark.parametrize("kind, digest", [("sa-lstm", "50d73daa"), ("nstep", "58aa83bb")])
    def test_pyramid_depth3_digest(self, kind, digest):
        # the pyramid loss at depth 3, which the benchmark, the claims run and
        # the CLI default train with, under a config built from the
        # [training] section as ``mesocast train`` builds it
        section = TrainingSection(epochs_per_stage=2, validate_every=1, train_stride=1,
                                  val_stride=1, weight_decay=0.0, grad_chunk=16, lap_depth=3)
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=21)
        run = train_model(model, wavy_corpus(seed=3), RunConfig(training=section).train_config())
        assert run_digest(run) == digest

    @pytest.mark.parametrize("kind, digest", [("sa-lstm", "10a4e56a"), ("nstep", "7420ff80")])
    def test_default_dims_chunk_gradients_digest(self, kind, digest):
        # default dims (hidden 64, attn 16) and grad_chunk: the first chunk's
        # taped steps have 32 x 21 = 672 rows, so their gate products and
        # d_cat run in row blocks, and the last chunk's 8 x 21 in one.  For
        # nstep, the fine-tune stage: every block on every horizon
        model = build_model(kind, seed=25)
        cfg = TrainConfig()
        stage = T.schedule(model, cfg)[-1]
        rng = np.random.default_rng(25)
        x = rng.uniform(-1.0, 1.0, (40, model.s, NUM_SEGMENTS))
        y = rng.uniform(-1.0, 1.0, (40, model.horizon, NUM_SEGMENTS))
        loss, grads = T._accumulate_gradients(model, model.blocks(), x, y, cfg, stage.horizons)
        crc = zlib.crc32(float(loss).hex().encode())
        for name in sorted(grads):
            crc = zlib.crc32(name.encode() + grads[name].astype("<f8").tobytes(), crc)
        assert f"{crc:08x}" == digest


def strided_hard(model, corpus, horizons, stride):
    """Mean over the hard sets of the mean over ``horizons`` of
    ``per_horizon_mse`` on every ``stride``-th window, without a prefix."""
    per_set = []
    for series in corpus.hard:
        x, y = stack_windows(build_windows(series, model.s, model.horizon)[::stride])
        mse = per_horizon_mse(model, normalize(x), normalize(y), max(horizons))
        per_set.append(float(np.mean([mse[h - 1] for h in horizons])))
    return float(np.mean(per_set))


class TestHardValidationStride:
    @pytest.mark.parametrize("kind, digest", [("sa-lstm", "07673055"), ("nstep", "2083ef20")])
    def test_trajectory_does_not_read_hard(self, monkeypatch, kind, digest):
        # the digests leave out the hard metric and were taken while in-run
        # validation still scored every hard window, so they pin that what
        # training reads does not depend on how the hard sets are sampled
        cfg = tiny_cfg(epochs_per_stage=2, validate_every=1, val_stride=8, grad_chunk=16)
        corpus = wavy_corpus(seed=6)
        assert len(corpus.hard) == 2
        real, expected = T.validation_metrics, []

        def recording(model, staged, horizons, prefixes=None, depth=0):
            result = real(model, staged, horizons, prefixes, depth)
            expected.append(strided_hard(model, corpus, horizons, cfg.val_stride))
            return result

        monkeypatch.setattr(T, "validation_metrics", recording)
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=23)
        run = train_model(model, corpus, cfg)
        assert run_digest(run, hard=False) == digest
        hard = [r.hard for r in run.history if r.hard is not None]
        assert len(hard) == run.epoch and hard == expected

    def test_resume_inside_stage3_at_val_stride(self, tmp_path, monkeypatch):
        # epoch 8 is inside stage 3 (epochs 7..9), whose validations hold the
        # hard sets' prefixes; the resumed run starts without them
        corpus = wavy_corpus(seed=7)
        cfg = tiny_cfg(epochs_per_stage=3, validate_every=1, val_stride=4, grad_chunk=16)
        make = lambda: build_model("nstep", s=4, hidden=4, attn_width=2, horizon=3, seed=24)
        straight = train_model(make(), corpus, cfg)
        diverge_at(monkeypatch, 9)
        with pytest.raises(DivergenceError, match="epoch 9") as info:
            train_model(make(), corpus, cfg)
        monkeypatch.undo()
        assert info.value.run.epoch == 8
        path = tmp_path / "stage3.ckpt"
        save_checkpoint(info.value.run, cfg, path)
        resumed = train_model(None, corpus, cfg, resume=load_checkpoint(path, cfg))
        assert resumed.epoch == straight.epoch == 12
        assert run_digest(resumed) == run_digest(straight)
