import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mesocast import autodiff as ad
from mesocast import cells, models, train
from mesocast.data import (MINUTES_PER_DAY, NUM_SEGMENTS, CtmConfig, build_windows,
                           normalize, stack_windows)
from mesocast.models import (
    InferencePlan,
    build_model,
    deserialize_model,
    forecast_recursive,
    predict_batch,
    serialize_model,
)
from containers import with_header
from reference_ctm import ctm_simulate
from reference_ops import h_of, sa_lstm_step, zero_state


def tiny(kind, seed=0, **kw):
    defaults = dict(s=4, hidden=5, attn_width=3, horizon=3)
    defaults.update(kw)
    return build_model(kind, seed=seed, **defaults)


def rand_window(s, seed=0):
    return np.random.default_rng(seed).uniform(0.2, 1.0, (s, NUM_SEGMENTS))


def taped_horizons(m, w):
    """(horizon, 21) predictions of the taped unroll for one window."""
    return np.vstack([p.data[0] for p in m.forward_graph(w[None])])


def zero_all(model):
    for t in model.blocks().values():
        t.data[:] = 0.0
    return model


class TestForecastOne:
    def test_zero_params_head_bias_is_output(self):
        m = zero_all(tiny("lstm"))
        bias = np.linspace(-1, 1, NUM_SEGMENTS)
        m.head_b.data[:] = bias
        out = InferencePlan(m).run(rand_window(4, 1))[0]
        np.testing.assert_array_equal(out, bias)

    def test_zero_params_scalar_bias_sa(self):
        m = zero_all(tiny("sa-lstm"))
        m.head_b.data[:] = 0.37
        out = InferencePlan(m).run(rand_window(4, 2))[0]
        np.testing.assert_array_equal(out, np.full(NUM_SEGMENTS, 0.37))

    def test_zeroed_attention_equals_per_segment_lstm(self):
        sa = tiny("sa-lstm", seed=3)
        for name in ("w_q", "w_k", "w_v"):
            getattr(sa.layers[0], name).data[:] = 0.0
        sa.layers[0].out_proj.data[:] = 0.0
        seg = tiny("lstm-seg", seed=3)  # same block names, same init streams
        w = rand_window(4, 3)
        assert np.array_equal(InferencePlan(sa).run(w)[0], InferencePlan(seg).run(w)[0])

    def test_wrong_window_length_rejected(self):
        m = tiny("sa-lstm")
        with pytest.raises(ValueError, match="window shape"):
            InferencePlan(m).run(rand_window(5))


class TestPlanMatchesGraph:
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_paths_agree(self, kind):
        m = tiny(kind, seed=11)
        w = rand_window(4, 11)
        fast = InferencePlan(m).run(w)
        taped = taped_horizons(m, w)
        assert fast.shape == taped.shape == (m.horizon, NUM_SEGMENTS)
        np.testing.assert_allclose(fast, taped, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, models.PREDICT_CHUNK, models.PREDICT_CHUNK + 5])
    @pytest.mark.parametrize("horizons", [1, 2, 3])
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_batched_matches_single(self, kind, horizons, batch):
        # one chunk, exactly one full chunk, and a full chunk plus a remainder
        m = tiny(kind, seed=14)
        X = np.stack([rand_window(4, 100 + i) for i in range(batch)])
        batched = predict_batch(m, X, horizons)
        assert batched.shape == (batch, horizons, NUM_SEGMENTS)
        plan = InferencePlan(m)
        for i in range(batch):
            if kind in models.ONE_STEP_KINDS:
                single = forecast_recursive(m, X[i], horizons, plan=plan).horizons
            else:
                single = plan.run(X[i])[:horizons]
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched, taped_predictions(m, X, horizons),
                                   rtol=0, atol=1e-12)

    def test_nstep_runs_only_requested_layers(self, monkeypatch):
        m = tiny("nstep", seed=18)
        X = np.stack([rand_window(4, 200 + i) for i in range(3)])
        full = predict_batch(m, X, 3)
        for layer in m.layers[1:]:
            for t in layer.blocks("x").values():
                t.data[:] = np.nan
        steps = []
        step = cells.StepKernel.step
        monkeypatch.setattr(cells.StepKernel, "step",
                            lambda self, b, x: (steps.append(1), step(self, b, x)))
        first = predict_batch(m, X, 1)
        assert len(steps) == m.s           # layer 1 over the window, one chunk
        assert np.all(np.isfinite(first))
        assert np.array_equal(first[:, 0], full[:, 0])


def taped_predictions(m, X, horizons):
    """predict_batch's contract computed on the taped forward."""
    if m.kind in models.ONE_STEP_KINDS:
        rolling, outs = X, []
        for _ in range(horizons):
            [pred] = m.forward_graph(rolling)
            outs.append(pred.data)
            rolling = np.concatenate([rolling[:, 1:], pred.data[:, None]], axis=1)
        return np.stack(outs, axis=1)
    return np.stack([p.data for p in m.forward_graph(X)[:horizons]], axis=1)


class TestRecursive:
    def test_single_horizon_equals_forecast_one(self):
        m = tiny("sa-lstm", seed=4)
        w = rand_window(4, 4)
        plan = InferencePlan(m)
        rec = forecast_recursive(m, w, 1, plan=plan)
        assert np.array_equal(rec.horizons[0], plan.run(w)[0])

    def test_constant_fixed_point(self):
        # zero cell, zero head weight, head bias b: every prediction is b, so
        # once the window ends in b the recursion reproduces it forever
        m = zero_all(tiny("lstm"))
        b = np.linspace(0.3, 0.9, NUM_SEGMENTS)
        m.head_b.data[:] = b
        w = rand_window(4, 5)
        w[-1] = b
        rec = forecast_recursive(m, w, 4)
        for k in range(4):
            np.testing.assert_array_equal(rec.horizons[k], w[-1])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equals_manual_composition(self, n):
        m = tiny("sa-lstm", seed=6)
        plan = InferencePlan(m)
        w = rand_window(4, 6)
        rec = forecast_recursive(m, w, n, plan=plan)
        rolling = np.array(w)
        for k in range(n):
            manual = plan.run(rolling)[0]
            assert np.array_equal(rec.horizons[k], manual)
            rolling = np.vstack([rolling[1:], manual[None, :]])

    def test_bad_horizons(self):
        with pytest.raises(ValueError, match="horizons"):
            forecast_recursive(tiny("sa-lstm"), rand_window(4), 0)


class TestAllAtOnce:
    def test_zero_params_bias_per_horizon(self):
        m = zero_all(tiny("all-at-once"))
        m.head_b.data[:] = [0.2, 0.5, 0.8]
        out = InferencePlan(m).run(rand_window(4, 7))
        for k, b in enumerate([0.2, 0.5, 0.8]):
            np.testing.assert_array_equal(out[k], np.full(NUM_SEGMENTS, b))

    def test_single_horizon_degenerates_to_one_step(self):
        aao = tiny("all-at-once", horizon=1, seed=8)
        one = models.Forecaster("sa-lstm", aao.layers, aao.head_w, aao.head_b, aao.s, 1)
        w = rand_window(4, 8)
        assert np.array_equal(InferencePlan(aao).run(w)[0], InferencePlan(one).run(w)[0])

    def test_reshape_round_trip(self):
        m = tiny("all-at-once", seed=9)
        w = rand_window(4, 9)
        out = InferencePlan(m).run(w)                      # (horizon, 21)
        plan = InferencePlan(m)
        b = plan.buf
        b.resize(1)
        b.reset()
        for t in range(m.s):
            plan.kernels[0].step(b, w[t][:, None])
        raw = b.h @ plan.head_w + plan.head_b              # (21, horizon)
        assert np.array_equal(out, raw.T)


class TestNStep:
    def test_layer_step_counts(self, monkeypatch):
        m = build_model("nstep", s=8, hidden=4, attn_width=2, horizon=3)
        steps = {id(layer): 0 for layer in m.layers}

        def counting_step(kernel, *args, **kw):
            steps[id(kernel.cell)] += 1
            return cells.sa_lstm_step(kernel, *args, **kw)

        monkeypatch.setattr(models, "sa_lstm_step", counting_step)
        preds, states = m.forward_graph_with_states(rand_window(8, 10)[None])
        assert [steps[id(layer)] for layer in m.layers] == [8, 9, 10]
        assert len(preds) == len(states) == 3

    def test_single_layer_equals_one_step(self):
        m = tiny("nstep", horizon=1, seed=15)
        one = models.Forecaster("sa-lstm", [m.layers[0]], m.head_w, m.head_b, m.s, 1)
        w = rand_window(4, 15)
        np.testing.assert_allclose(taped_horizons(m, w)[0], InferencePlan(one).run(w)[0],
                                   rtol=0, atol=1e-12)

    def test_layer2_manual_reexecution(self):
        m = tiny("nstep", seed=16)
        w = rand_window(4, 16)
        preds, states = m.forward_graph_with_states(w[None])

        # manual: layer1 over the window, then layer2 over window + pred1
        # starting from layer1's terminal state
        rows = NUM_SEGMENTS
        state = zero_state(rows, m.hidden)
        for t in range(m.s):
            state = sa_lstm_step(cells.StepKernel(m.layers[0]), state, ad.tensor(w[t][:, None]), tokens=rows)
        h1 = state
        pred1 = (h_of(h1).data @ m.head_w.data + m.head_b.data).reshape(NUM_SEGMENTS)
        np.testing.assert_array_equal(preds[0].data[0], pred1)
        np.testing.assert_array_equal(states[0][0], h_of(h1).data)

        seq = [w[t][:, None] for t in range(m.s)] + [pred1[:, None]]
        state = h1
        for xt in seq:
            state = sa_lstm_step(cells.StepKernel(m.layers[1]), state, ad.tensor(xt), tokens=rows)
        pred2 = (h_of(state).data @ m.head_w.data + m.head_b.data).reshape(NUM_SEGMENTS)
        np.testing.assert_array_equal(preds[1].data[0], pred2)

    def test_shared_head_mutation_moves_every_horizon(self):
        m = tiny("nstep", seed=17)
        w = rand_window(4, 17)
        before = taped_horizons(m, w)
        m.head_b.data[:] += 0.25
        after = taped_horizons(m, w)
        assert np.all(np.abs(after - before) > 1e-6)

    def test_deterministic_from_seed(self):
        a = tiny("nstep", seed=21)
        b = tiny("nstep", seed=21)
        w = rand_window(4, 21)
        assert np.array_equal(taped_horizons(a, w), taped_horizons(b, w))


def empty_prefix(m, windows, depth):
    return [np.empty((2, windows * NUM_SEGMENTS, m.hidden)) for _ in range(depth)]


def filled_prefix(m, X, depth):
    return models.fill_prefix(m, X, [], depth)


def taped_stack(m, X, prefix=None):
    preds, _ = m.forward_graph_with_states(X, prefix=prefix)
    return np.stack([p.data for p in preds], axis=1)


class TestPrefix:
    """``fill_prefix`` writes a prefix tape-free, and both nstep unrolls
    start from it bitwise as if they had walked it."""

    X = np.stack([rand_window(4, 300 + i) for i in range(35)])   # a chunk plus 3

    def test_plan_filled_then_read_is_bitwise(self):
        m = tiny("nstep", seed=19)
        plain = predict_batch(m, self.X, 3)
        prefix = filled_prefix(m, self.X, 2)
        for depth in (0, 1, 2):
            assert np.array_equal(predict_batch(m, self.X, 3, prefix=prefix[:depth]), plain)

    def test_fill_from_known_entries_matches_a_full_fill(self):
        m = tiny("nstep", seed=18)
        full = filled_prefix(m, self.X, 2)
        part = models.fill_prefix(m, self.X, [full[0].copy()], 2)
        assert np.array_equal(part[1], full[1])

    def test_plan_reads_the_prefix_it_is_given(self, monkeypatch):
        m = tiny("nstep", seed=20)
        prefix = filled_prefix(m, self.X, 2)
        steps = []
        step = cells.StepKernel.step
        monkeypatch.setattr(cells.StepKernel, "step",
                            lambda self, b, x: (steps.append(1), step(self, b, x)))
        before = predict_batch(m, self.X, 3, prefix=prefix)
        assert len(steps) == 2 * (1 + m.s + 2)     # two chunks: layer 2 on pred 1, layer 3
        prefix[1][:] = 0.0
        after = predict_batch(m, self.X, 3, prefix=prefix)
        assert np.array_equal(after[:, 0], before[:, 0])
        assert not np.array_equal(after[:, 1], before[:, 1])

    def test_taped_filled_then_read_is_bitwise(self):
        m = tiny("nstep", seed=21)
        plain = taped_predictions(m, self.X, 3)
        prefix = filled_prefix(m, self.X, 2)
        for depth in (1, 2):
            assert np.array_equal(taped_stack(m, self.X, prefix[:depth]), plain)

    @pytest.mark.parametrize("seed", [61, 62])
    def test_default_dims_prefix_is_bitwise(self, seed):
        # training starts its taped chunks from these states, so they must
        # be exactly what the chunk would walk, whatever its window count
        m = build_model("nstep", seed=seed)
        X = np.stack([rand_window(m.s, seed * 100 + i) for i in range(40)])
        prefix = filled_prefix(m, X, 2)
        for size in (16, 7, 1):
            for start in range(0, len(X), size):
                rows = models.prefix_rows(prefix, start, start + size)
                chunk = X[start:start + size]
                assert np.array_equal(taped_stack(m, chunk, rows), taped_stack(m, chunk)), \
                    (size, start)
        assert np.array_equal(predict_batch(m, X, 3, prefix=prefix), predict_batch(m, X, 3))

    def test_prefix_deeper_than_the_pass_rejected(self):
        m = tiny("nstep", seed=23)
        with pytest.raises(ValueError, match="prefix"):
            predict_batch(m, self.X, 1, prefix=empty_prefix(m, len(self.X), 2))
        with pytest.raises(ValueError, match="prefix"):
            m.forward_graph_with_states(self.X, upto=1, prefix=empty_prefix(m, len(self.X), 2))
        with pytest.raises(ValueError, match="prefix"):
            predict_batch(tiny("nstep", horizon=4), self.X, 4,
                          prefix=empty_prefix(m, len(self.X), 3))
        with pytest.raises(ValueError, match="prefix"):
            models.fill_prefix(tiny("nstep", horizon=4), self.X, [], 3)

    def test_prefix_of_one_step_kind_rejected(self):
        m = tiny("sa-lstm", seed=24)
        with pytest.raises(ValueError, match="only nstep"):
            predict_batch(m, self.X, 1, prefix=empty_prefix(m, len(self.X), 1))
        with pytest.raises(ValueError, match="only nstep"):
            models.fill_prefix(m, self.X, [], 1)


def assert_h_over_c(hc, rows, hidden):
    """A recurrent state is (2, rows, H), h over C, each half C-contiguous."""
    assert hc.shape == (2, rows, hidden)
    assert hc[0].flags.c_contiguous and hc[1].flags.c_contiguous


class TestStateLayout:
    """Every recurrent state and state gradient is h over C, two contiguous
    halves, so no elementwise op on h, C, dh or dC walks a strided view."""

    X = np.stack([rand_window(4, 600 + i) for i in range(9)])

    def test_taped_steps_and_their_adjoints_keep_contiguous_halves(self, monkeypatch):
        m = tiny("nstep", seed=60)
        rows, H = len(self.X) * NUM_SEGMENTS, m.hidden
        outs, grads = [], []
        step, adjoint = cells.StepKernel.step, cells.StepKernel.adjoint
        monkeypatch.setattr(cells.StepKernel, "step",
                            lambda self, b, x: (outs.append(b), step(self, b, x))[1])
        monkeypatch.setattr(cells.StepKernel, "adjoint", lambda self, *args: (
            grads.append(adjoint(self, *args)), grads[-1])[1])
        preds, states = m.forward_graph_with_states(self.X)
        ad.backward(ad.sum_all(preds[2]))
        assert len(outs) == 4 + 5 + 6 and len(grads) == len(outs)
        for b in outs:
            assert_h_over_c(b.out, rows, H)
            assert b.h.flags.c_contiguous and b.c.flags.c_contiguous
        for d_state, *_ in grads[:-1]:      # the first step of layer 1 reads zeros
            assert_h_over_c(d_state, rows, H)
        assert len(states) == 3
        for hc in states:
            assert_h_over_c(hc, rows, H)

    @pytest.mark.parametrize("reach", [1, 3])
    def test_frame_starts_keep_contiguous_halves(self, reach):
        m = tiny("sa-lstm", seed=61)
        X = series_windows(m.s, 12, seed=61)
        starts = InferencePlan(m)._frame_starts(X, reach)
        assert len(starts) == reach
        for hc in starts:
            assert_h_over_c(hc, len(X) * NUM_SEGMENTS, m.hidden)

    def test_prefix_entries_and_their_rows_keep_contiguous_halves(self):
        m = tiny("nstep", seed=62)
        prefix = models.fill_prefix(m, self.X, [], 2)
        for hc in prefix:
            assert_h_over_c(hc, len(self.X) * NUM_SEGMENTS, m.hidden)
        rows = models.prefix_rows(prefix, 3, 7)
        cut = slice(3 * NUM_SEGMENTS, 7 * NUM_SEGMENTS)
        for part, hc in zip(rows, prefix):
            assert part.shape == (2, 4 * NUM_SEGMENTS, m.hidden)
            assert np.array_equal(part[0], hc[0][cut]) and np.array_equal(part[1], hc[1][cut])


def series_windows(s, count, seed):
    """``count`` consecutive normalized (s, 21) windows of a simulated series."""
    x, _ = stack_windows(build_windows(ctm_simulate(CtmConfig(seed=seed), count + s), s, 1))
    return normalize(x)


def one_step_steps(s, horizons):
    """StepKernel steps of one chunk of consecutive windows: one frame pass
    of s steps, then horizon k < s walks its k fed predictions and horizon
    k >= s its s predictions from zero."""
    reach = min(horizons, s)
    return s + reach * (reach - 1) // 2 + (horizons - reach) * s


def count_steps(monkeypatch) -> list:
    """Record the row count of each StepKernel step from here on."""
    steps = []
    step = cells.StepKernel.step
    monkeypatch.setattr(cells.StepKernel, "step",
                        lambda self, b, x: (steps.append(len(x)), step(self, b, x)))
    return steps


def zero_start_walk(monkeypatch, m, X, horizons):
    """predict_batch with every chunk taken for one with a seam: each horizon
    walks its last s entries from zero at the same chunk geometry."""
    with monkeypatch.context() as patch:
        patch.setattr(models, "_consecutive", lambda windows: False)
        steps = count_steps(patch)
        out = predict_batch(m, X, horizons)
    chunks = -(-len(X) // models.PREDICT_CHUNK)
    assert len(steps) == chunks * m.s * horizons
    return out


class TestFrameReuse:
    """On consecutive windows a one-step recursion starts horizon k after its
    real frames from the state of window j+k, bitwise as if it had walked
    them from zero."""

    S = 8
    BATCHES = (1, 31, 32, 33, 34)
    HORIZONS = (1, 2, 3, S, S + 2)

    @pytest.mark.parametrize("horizons", HORIZONS)
    @pytest.mark.parametrize("kind", models.ONE_STEP_KINDS)
    def test_matches_per_window_recursion(self, kind, horizons):
        # at these dims the parent's chunks already agreed with single
        # windows bitwise for the per-segment kinds; the dense lstm's
        # single-row product takes another BLAS routine, so it agrees at 1e-12
        m = build_model(kind, s=self.S, hidden=5, attn_width=3, seed=40)
        X = series_windows(self.S, max(self.BATCHES), seed=40)
        plan = InferencePlan(m)
        single = np.stack([forecast_recursive(m, w, horizons, plan=plan).horizons for w in X])
        for batch in self.BATCHES:
            out = predict_batch(m, X[:batch], horizons)
            if kind == "lstm":
                np.testing.assert_allclose(out, single[:batch], rtol=0, atol=1e-12)
            else:
                assert np.array_equal(out, single[:batch]), batch

    @pytest.mark.parametrize("horizons", HORIZONS)
    @pytest.mark.parametrize("kind", models.ONE_STEP_KINDS)
    def test_matches_zero_start_walk(self, monkeypatch, kind, horizons):
        m = build_model(kind, s=self.S, hidden=16, attn_width=4, seed=41)
        X = series_windows(self.S, 2 * models.PREDICT_CHUNK + 6, seed=41)
        for batch in self.BATCHES + (len(X),):
            assert np.array_equal(predict_batch(m, X[:batch], horizons),
                                  zero_start_walk(monkeypatch, m, X[:batch], horizons)), batch

    @pytest.mark.parametrize("kind", models.ONE_STEP_KINDS)
    def test_seam_between_series(self, monkeypatch, kind):
        # 20 windows of one series, then 20 of another: the first chunk holds
        # the seam and walks from zero, the second chunk is consecutive
        m = build_model(kind, s=self.S, hidden=5, attn_width=3, seed=42)
        X = np.concatenate([series_windows(self.S, 20, seed=42),
                            series_windows(self.S, 20, seed=43)])
        plan = InferencePlan(m)
        for horizons in (3, self.S + 2):
            steps = count_steps(monkeypatch)
            out = predict_batch(m, X, horizons)
            assert len(steps) == self.S * horizons + one_step_steps(self.S, horizons)
            assert np.array_equal(out, zero_start_walk(monkeypatch, m, X, horizons))
            single = np.stack([forecast_recursive(m, w, horizons, plan=plan).horizons
                               for w in X])
            np.testing.assert_allclose(out, single, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("horizons", HORIZONS)
    @pytest.mark.parametrize("kind", models.ONE_STEP_KINDS)
    def test_step_count_pins_the_reuse(self, monkeypatch, kind, horizons):
        m = build_model(kind, s=self.S, hidden=5, attn_width=3, seed=44)
        X = series_windows(self.S, 2 * models.PREDICT_CHUNK + 6, seed=44)
        for batch, chunks in ((2, 1), (34, 2), (len(X), 3)):
            steps = count_steps(monkeypatch)
            predict_batch(m, X[:batch], horizons)
            assert len(steps) == chunks * one_step_steps(self.S, horizons), batch
        steps = count_steps(monkeypatch)
        predict_batch(m, X[:1], horizons)
        # one window's horizons share a frame pass too, but a one-row dense
        # lstm window walks from zero
        assert len(steps) == (self.S * horizons if kind == "lstm"
                              else one_step_steps(self.S, horizons))

    @pytest.mark.parametrize("horizons", (2, 3, S, S + 2))
    @pytest.mark.parametrize("kind", models.ONE_STEP_KINDS)
    def test_frame_pass_drops_each_start_once_done(self, monkeypatch, kind, horizons):
        m = build_model(kind, s=self.S, hidden=5, attn_width=3, seed=46)
        X = series_windows(self.S, 34, seed=46)
        tokens, reach = m.layout[0], min(horizons, self.S)
        per_chunk = one_step_steps(self.S, horizons)
        for batch in (2, 34) if kind == "lstm" else (1, 2, 34):  # one lstm row walks from zero
            rows = count_steps(monkeypatch)
            predict_batch(m, X[:batch], horizons)
            chunks = [min(models.PREDICT_CHUNK, batch - start)
                      for start in range(0, batch, models.PREDICT_CHUNK)]
            assert len(rows) == len(chunks) * per_chunk
            for c, groups in enumerate(chunks):
                chunk = rows[c * per_chunk:(c + 1) * per_chunk]
                frames, rest = chunk[:self.S], chunk[self.S:]
                # start G-1+k (start G-1 is the last window) steps over s-k frames
                for k in range(reach):
                    start_rows = (groups - 1 + k) * tokens
                    assert sum(n > start_rows for n in frames) == self.S - k, (batch, k)
                assert frames[0] == (groups + reach - 1) * tokens
                assert set(rest) == {groups * tokens}

    @pytest.mark.parametrize("dims", [dict(hidden=5, attn_width=3), {}],
                             ids=["hidden5", "default"])
    @pytest.mark.parametrize("kind", ["lstm-seg", "sa-lstm"])
    def test_single_window_matches_zero_start_walk(self, monkeypatch, kind, dims):
        m = build_model(kind, s=self.S, seed=47, **dims)
        for horizons in (2, 3, self.S, self.S + 2):
            for w in series_windows(self.S, 3, seed=47):
                with monkeypatch.context() as patch:
                    patch.setattr(models, "_consecutive", lambda windows: False)
                    walk = InferencePlan(m).run(w, horizons)
                plan = InferencePlan(m)
                steps = count_steps(monkeypatch)
                first = plan.run(w, horizons)
                assert len(steps) == one_step_steps(self.S, horizons)
                # the second run reuses the buffers the first one grew
                assert np.array_equal(first, walk), horizons
                assert np.array_equal(plan.run(w, horizons), walk), horizons

    @pytest.mark.parametrize("flip", ["ulp", "signed zero"])
    def test_frames_equal_only_in_value_are_a_seam(self, monkeypatch, flip):
        m = build_model("sa-lstm", s=self.S, hidden=5, attn_width=3, seed=45)
        X = series_windows(self.S, 10, seed=45)
        # window 5's first frame is window 4's second frame, but for one bit
        if flip == "ulp":
            X[5, 0, 0] = np.nextafter(X[5, 0, 0], 2.0)
        else:
            X[:, :, 0] = 0.0
            X[5, 0, 0] = -0.0
        steps = count_steps(monkeypatch)
        out = predict_batch(m, X, 3)
        assert len(steps) == self.S * 3
        assert np.array_equal(out, zero_start_walk(monkeypatch, m, X, 3))


class TestOneKernelPerLayer:
    """A plan hands its one buffer set to every layer's kernel and sizes it
    per pass; a taped unroll prepares each layer's kernel once."""

    @pytest.mark.parametrize("kind", ["lstm", "sa-lstm", "nstep"])
    def test_one_plan_serves_every_shape_like_a_fresh_one(self, kind):
        m = build_model(kind, s=8, hidden=16, attn_width=4, horizon=3, seed=48)
        X = series_windows(8, 34, seed=48)
        seam = np.concatenate([X[:10], series_windows(8, 10, seed=49)])
        plan = InferencePlan(m)
        for windows in (X[:1], X, X[:2], seam, X[5:6]):
            out, fresh = np.empty((2, len(windows), 3, NUM_SEGMENTS))
            plan._forward(windows, out)
            InferencePlan(m)._forward(windows, fresh)
            assert np.array_equal(out, fresh), len(windows)
        assert np.array_equal(plan.run(X[0], 3), InferencePlan(m).run(X[0], 3))

    @pytest.mark.parametrize("upto", [None, 1, 2])
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_taped_unroll_prepares_one_kernel_per_layer(self, monkeypatch, kind, upto):
        m = tiny(kind, seed=49)
        made, stepped = [], set()
        kernel = cells.StepKernel
        monkeypatch.setattr(models, "StepKernel",
                            lambda cell: made.append(kernel(cell)) or made[-1])
        for name in ("lstm_step", "sa_lstm_step"):
            step = getattr(models, name)
            monkeypatch.setattr(models, name, lambda k, *args, step=step, **kw: (
                stepped.add(id(k)), step(k, *args, **kw))[1])
        m.forward_graph_with_states(np.stack([rand_window(4, 50 + i) for i in range(3)]),
                                    upto=upto)
        assert [id(k.cell) for k in made] == [id(layer) for layer in m.layers[:upto]]
        assert stepped == {id(k) for k in made}


class TestInferencePinned:
    """The tape-free kernel's bits at default dims (hidden 64, attn 16, s 8)
    and the row counts the benchmark runs: 40 consecutive windows (a frame
    pass over 34 groups, chunks of 32 and 8) and one window (21 and 63 rows;
    one row for the dense lstm)."""

    @pytest.mark.parametrize("kind, batch_sha, window_sha", [
        ("lstm", "64f4f62353b24a56", "40e4f5090bc6bdd7"),
        ("lstm-seg", "9c6a34a5b530f4f4", "c7cf0a2e591da161"),
        ("sa-lstm", "9615129a4e4ddd53", "b8c99ad7b05e1e8f"),
        ("all-at-once", "c6f23c14a6fa1a28", "4d921681eefff3ca"),
        ("nstep", "6dd06b9699ac345e", "0b27b5d6b6b7fd92"),
    ])
    def test_default_dims_forecast_bits(self, kind, batch_sha, window_sha):
        series = np.random.default_rng(60).uniform(-1.0, 1.0, (47, NUM_SEGMENTS))
        view = np.lib.stride_tricks.sliding_window_view(series, 8, axis=0).transpose(0, 2, 1)
        X = np.ascontiguousarray(view)
        m = build_model(kind, seed=61)
        digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()[:16]
        assert digest(predict_batch(m, X, 3)) == batch_sha
        # the read-only strided rows that evaluate scores, uncopied
        assert digest(predict_batch(m, view, 3)) == batch_sha
        assert digest(InferencePlan(m).run(X[0], 3)) == window_sha

    def test_default_dims_forecast_bits_at_two_blas_threads(self):
        # OpenBLAS splits a product across threads by its shape, so run the
        # pins above in a child that starts with two BLAS threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   PYTHONPATH=str(Path(models.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestInferencePinned::test_default_dims_forecast_bits"],
            env=env, cwd=Path(__file__).parent, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-3000:]
        assert "5 passed" in done.stdout


class TestSerialization:
    @pytest.mark.parametrize("kind", ["lstm", "lstm-seg", "sa-lstm", "all-at-once", "nstep"])
    def test_round_trip_bitwise(self, kind):
        m = tiny(kind, seed=30)
        back = deserialize_model(serialize_model(m))
        for (name, a), (name2, b) in zip(m.blocks().items(), back.blocks().items()):
            assert name == name2
            assert np.array_equal(a.data, b.data), name

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_load_builds_from_the_payload_without_an_init_draw(self, monkeypatch, tmp_path,
                                                                kind):
        m = tiny(kind, seed=32)
        path = tmp_path / "model.bin"
        models.save_model(m, path)

        def no_draw(*args):
            raise AssertionError("an init draw")

        monkeypatch.setattr(cells, "block_rng", no_draw)
        assert not hasattr(models, "block_rng")
        with pytest.raises(AssertionError, match="an init draw"):
            tiny(kind)                   # the patch catches a draw
        back = models.load_model(path)
        assert list(back.blocks()) == list(m.blocks())
        for name, t in back.blocks().items():
            saved = m.blocks()[name].data
            assert t.data.dtype == np.float64 and t.data.tobytes() == saved.tobytes(), name
            # a block of its own, not a view of the file's bytes
            assert t.data.flags.writeable and t.data.flags.owndata and t.data.base is None, name
        # an optimizer step writes every block in place
        step = train.AdamW(train.TrainConfig())
        step.step(back.blocks(), {n: np.ones(t.shape) for n, t in back.blocks().items()}, 0.01)
        assert all(not np.array_equal(t.data, m.blocks()[n].data)
                   for n, t in back.blocks().items())

    @pytest.mark.parametrize("kind, sha256", [
        ("lstm", "18c99ce3f7c8567334165df29d4fa3b07bfdf7b19748a584cff0f8a0c2cff5a2"),
        ("lstm-seg", "1e0be2af6648aaa1615efd02bde51ef138918fa9b126b9ebdcacbd2f308b5659"),
        ("sa-lstm", "aecc1f12a684c78527db0c143152ff2105df914a760b16e4faff72019e97eebd"),
        ("all-at-once", "aed364aea83bf03ccbb279f54f9a0b73e601c710f4458e8f0bb460bcf2a1c9cd"),
        ("nstep", "d4ed40f6716c1ba3279d6cfce932befe2c8a7be2374a65c55c6ce46f53afea60"),
    ])
    def test_container_bytes_pinned(self, kind, sha256):
        # MSOC v1 bytes of a fresh model: block names, order, dims and init
        blob = serialize_model(build_model(kind, s=8, hidden=16, attn_width=4, horizon=3, seed=5))
        assert hashlib.sha256(blob).hexdigest() == sha256

    def test_truncated_rejected(self):
        blob = serialize_model(tiny("sa-lstm"))
        with pytest.raises(ValueError):
            deserialize_model(blob[:len(blob) // 2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_naming_the_block(self, value):
        m = tiny("sa-lstm")
        m.layers[0].w_q.data[1, 0] = value
        with pytest.raises(ValueError, match="'layer1/attn/w_q' holds a non-finite value"):
            deserialize_model(serialize_model(m))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_first_non_finite_block_in_table_order_is_named(self, kind):
        m = tiny(kind)
        blocks = list(m.blocks().items())
        (first, a), (_, b) = blocks[len(blocks) // 2], blocks[-1]
        b.data.flat[-1] = np.inf
        a.data.flat[0] = np.nan
        with pytest.raises(ValueError, match=f"^model block '{first}' holds a non-finite value"):
            deserialize_model(serialize_model(m))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("edit", [
        lambda table: table.insert(0, table.pop(1)),           # w_f and w_i swap
        lambda table: table.__setitem__(-2, ["head/W", table[-2][1]]),
        lambda table: table.append(["head/c", [0]]),
    ], ids=["reordered", "renamed", "extra"])
    def test_block_table_other_than_the_dims_give_rejected(self, kind, edit):
        # the payload still holds the parameters the dims count, so only the
        # table the reader computes from the dims can tell
        blob = with_header(serialize_model(tiny(kind)), lambda h: edit(h["blocks"]))
        with pytest.raises(ValueError, match="field 'blocks' does not match"):
            deserialize_model(blob)

    def test_corrupt_payload_rejected(self):
        blob = bytearray(serialize_model(tiny("lstm")))
        blob[-40] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            deserialize_model(bytes(blob))

    @pytest.mark.parametrize("kind, edit, field", [
        ("sa-lstm", lambda h: h.pop("format_version"), "format_version"),
        ("sa-lstm", lambda h: h.update(format_version="1"), "format_version"),
        ("sa-lstm", lambda h: h.pop("kind"), "kind"),
        ("sa-lstm", lambda h: h.update(kind="gru"), "kind"),
        ("sa-lstm", lambda h: h.pop("dims"), "dims"),
        ("sa-lstm", lambda h: h.update(dims=[4, 5, 3]), "dims"),
        ("sa-lstm", lambda h: h["dims"].pop("s"), "'s'"),
        ("sa-lstm", lambda h: h["dims"].update(hidden="5"), "hidden"),
        ("sa-lstm", lambda h: h["dims"].update(attn_width=0), "attn_width"),
        ("nstep", lambda h: h["dims"].pop("horizon"), "horizon"),
        ("sa-lstm", lambda h: h.pop("blocks"), "blocks"),
        ("sa-lstm", lambda h: h.update(blocks=[["head/b"]]), "blocks"),
        ("sa-lstm", lambda h: h["blocks"][-1].__setitem__(1, [-1]), "blocks"),
        ("sa-lstm", lambda h: h["dims"].update(hidden=6), "blocks"),
    ])
    def test_malformed_header_names_field(self, kind, edit, field):
        with pytest.raises(ValueError, match=field):
            deserialize_model(with_header(serialize_model(tiny(kind)), edit))

    @pytest.mark.parametrize("kind, dims", [
        ("sa-lstm", {"hidden": 1500}),
        ("lstm", {"hidden": 1500}),
        ("sa-lstm", {"attn_width": 10 ** 6}),
        ("all-at-once", {"horizon": 10 ** 9}),
        ("nstep", {"horizon": 10 ** 4}),
        ("sa-lstm", {"s": 10 ** 12}),
        ("nstep", {"s": MINUTES_PER_DAY + 1}),
        ("sa-lstm", {"attn_width": 3}),        # one past what the blocks were built at
        ("sa-lstm", {"hidden": 5}),
    ])
    def test_oversized_dims_rejected_before_allocation(self, monkeypatch, kind, dims):
        blob = with_header(serialize_model(tiny(kind, hidden=4, attn_width=2)),
                           lambda h: h["dims"].update(dims))
        # the block table grows with the dims, and the blocks with the table
        monkeypatch.setattr(models, "_block_table",
                            lambda *a, **k: pytest.fail("block table computed"))
        with pytest.raises(ValueError, match="dims"):
            deserialize_model(blob)

    def test_window_of_a_day_loads(self):
        # s is in no block shape, so the header alone decides it
        blob = with_header(serialize_model(tiny("sa-lstm")),
                           lambda h: h["dims"].update(s=MINUTES_PER_DAY))
        assert deserialize_model(blob).s == MINUTES_PER_DAY

    @pytest.mark.parametrize("s", [0, MINUTES_PER_DAY + 1])
    def test_build_rejects_window_outside_a_day(self, s):
        # a model built with such an s would save a file that cannot be loaded
        with pytest.raises(ValueError, match="window length s"):
            build_model("sa-lstm", s=s)

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_parameter_limit_counts_every_block(self, monkeypatch, kind):
        count = sum(t.data.size for t in tiny(kind).blocks().values())
        monkeypatch.setattr(models, "MAX_PARAMETERS", count)
        tiny(kind)
        monkeypatch.setattr(models, "MAX_PARAMETERS", count - 1)
        with pytest.raises(ValueError, match="^hidden .*must keep the model within"):
            tiny(kind)

    @pytest.mark.parametrize("kind, dims, names", [
        ("sa-lstm", dict(hidden=10 ** 9), "hidden and attn_width"),
        ("sa-lstm", dict(attn_width=10 ** 9), "hidden and attn_width"),
        ("lstm", dict(hidden=10 ** 9), "hidden"),
        ("nstep", dict(horizon=10 ** 9), "hidden and attn_width and horizon"),
        ("all-at-once", dict(horizon=10 ** 12), "hidden and attn_width and horizon"),
        ("foo", {}, "kind"), ("sa-lstm", dict(s=0), "s"), ("lstm", dict(hidden=0), "hidden"),
        ("sa-lstm", dict(attn_width=0), "attn_width"), ("nstep", dict(horizon=0), "horizon"),
    ])
    def test_bad_dims_rejected_before_allocation(self, monkeypatch, kind, dims, names):
        for name in ("init_cell", "_init_head"):
            monkeypatch.setattr(models, name, lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(ValueError, match=f"^{names} must "):
            build_model(kind, **dims)

    def test_save_load_file(self, tmp_path):
        m = tiny("all-at-once", seed=31)
        path = tmp_path / "model.bin"
        models.save_model(m, path)
        back = models.load_model(path)
        w = rand_window(4, 31)
        assert np.array_equal(InferencePlan(m).run(w), InferencePlan(back).run(w))
