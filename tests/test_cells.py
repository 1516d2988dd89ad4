import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesocast import autodiff as ad
from mesocast import cells, models
from mesocast.data import NUM_SEGMENTS
from gradcheck import assert_grads_close
from reference_ops import (c_of, h_of, lstm_step, mean_all, sa_lstm_step, sigmoid, state_of,
                           zero_state)


# --- clean-room oracles -----------------------------------------------------

def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step_oracle(w, b, h, c, x):
    """Independent single-purpose LSTM step; w/b keyed by gate letter."""
    cat = np.concatenate([h, x], axis=1)
    f = sig(cat @ w["f"] + b["f"])
    i = sig(cat @ w["i"] + b["i"])
    c_tilde = np.tanh(cat @ w["c"] + b["c"])
    o = sig(cat @ w["o"] + b["o"])
    c_new = f * c + i * c_tilde
    return o * np.tanh(c_new), c_new


def attention_oracle(wq, wk, wv, tokens):
    """Three-loop scaled dot-product attention."""
    q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
    S, d = q.shape
    out = np.zeros((S, d))
    for i in range(S):
        scores = np.array([q[i] @ k[j] for j in range(S)]) / np.sqrt(d)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        for j in range(S):
            out[i] += w[j] * v[j]
    return out


def random_lstm_arrays(rng, hidden, in_width):
    rows = hidden + in_width
    w = {g: rng.uniform(-1, 1, (rows, hidden)) for g in "fico"}
    b = {g: rng.uniform(-1, 1, hidden) for g in "fico"}
    return w, b


def params_from_arrays(w, b):
    return cells.CellParams(
        *(ad.parameter(w[g]) for g in "fico"), *(ad.parameter(b[g]) for g in "fico")
    )


class TestLstmStep:
    def test_zero_params_halve_cell_state(self):
        hidden, rows = 3, 2
        w = {g: np.zeros((hidden + 1, hidden)) for g in "fico"}
        b = {g: np.zeros(hidden) for g in "fico"}
        p = params_from_arrays(w, b)
        c0 = np.array([[0.3, -0.7, 1.1], [0.0, 2.0, -0.1]])
        state = state_of(ad.tensor(np.zeros((rows, hidden))), ad.tensor(c0))
        out = lstm_step(cells.StepKernel(p), state, ad.tensor(np.ones((rows, 1))))
        np.testing.assert_allclose(c_of(out).data, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(h_of(out).data, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_saturated_forget_gate_preserves_cell_state(self):
        hidden = 4
        w = {g: np.zeros((hidden + 1, hidden)) for g in "fico"}
        b = {g: np.zeros(hidden) for g in "fico"}
        b["f"] = np.full(hidden, 100.0)
        p = params_from_arrays(w, b)
        c0 = np.array([[0.9, -1.4, 0.2, 3.0]])
        state = state_of(ad.tensor(np.zeros((1, hidden))), ad.tensor(c0))
        out = lstm_step(cells.StepKernel(p), state, ad.tensor(np.zeros((1, 1))))
        assert np.max(np.abs(c_of(out).data - c0)) <= 1e-40

    @pytest.mark.parametrize("seed", range(5))
    def test_against_clean_room_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        hidden, in_width, rows = 5, 3, 4
        w, b = random_lstm_arrays(rng, hidden, in_width)
        h0 = rng.uniform(-1, 1, (rows, hidden))
        c0 = rng.uniform(-1, 1, (rows, hidden))
        x = rng.uniform(-1, 1, (rows, in_width))
        p = params_from_arrays(w, b)
        out = lstm_step(cells.StepKernel(p), state_of(ad.tensor(h0), ad.tensor(c0)), ad.tensor(x))
        h_ref, c_ref = lstm_step_oracle(w, b, h0, c0, x)
        np.testing.assert_allclose(h_of(out).data, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_of(out).data, c_ref, rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        p = cells.init_cell(4, 2, 0, seed=0, prefix="layer1")
        state = zero_state(3, 4)
        with pytest.raises(ValueError, match="input shape"):
            lstm_step(cells.StepKernel(p), state, ad.tensor(np.zeros((3, 5))))


class TestSelfAttention:
    def test_uniform_attention_averages_tokens(self):
        hidden = 4
        tokens = np.random.default_rng(1).uniform(-1, 1, (6, hidden))
        out = cells.self_attention(ad.tensor(tokens), ad.tensor(np.zeros((hidden, hidden))),
                                   ad.tensor(np.zeros((hidden, hidden))), ad.tensor(np.eye(hidden)))
        np.testing.assert_allclose(
            out.data, np.tile(tokens.mean(axis=0), (6, 1)), rtol=0, atol=1e-12
        )

    def test_single_token(self):
        rng = np.random.default_rng(2)
        p = cells.init_cell(5, 1, 3, seed=1, prefix="layer1")
        tok = rng.uniform(-1, 1, (1, 5))
        out = cells.self_attention(ad.tensor(tok), p.w_q, p.w_k, p.w_v)
        np.testing.assert_allclose(out.data, tok @ p.w_v.data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_three_loop_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        S, hidden, d = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 5)
        wq, wk, wv = (rng.uniform(-1, 1, (hidden, d)) for _ in range(3))
        tokens = rng.uniform(-1, 1, (S, hidden))
        out = cells.self_attention(ad.tensor(tokens), ad.tensor(wq), ad.tensor(wk), ad.tensor(wv))
        np.testing.assert_allclose(
            out.data, attention_oracle(wq, wk, wv, tokens), rtol=0, atol=1e-12
        )

    @given(st.integers(0, 2**31 - 1))
    def test_attention_matrix_is_row_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        S, hidden, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
        wq, wk = (rng.uniform(-2, 2, (hidden, d)) for _ in range(2))
        tokens = rng.uniform(-2, 2, (S, hidden))
        scores = ad.tensor((tokens @ wq) @ (tokens @ wk).T / np.sqrt(d))
        rows = ad.softmax_rows(scores).data
        np.testing.assert_allclose(rows.sum(axis=-1), np.ones(S), rtol=0, atol=1e-12)


class TestSaLstmStep:
    def _random_setup(self, rng, tokens=4, hidden=3, d=2):
        p = cells.init_cell(hidden, 1, d, seed=int(rng.integers(1 << 30)), prefix="layer1")
        h0 = rng.uniform(-1, 1, (tokens, hidden))
        c0 = rng.uniform(-1, 1, (tokens, hidden))
        x = rng.uniform(-1, 1, (tokens, 1))
        return p, h0, c0, x

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_attention_reduces_to_lstm_bitwise(self, seed):
        rng = np.random.default_rng(400 + seed)
        p, h0, c0, x = self._random_setup(rng)
        p.w_q.data[:] = 0.0
        p.w_k.data[:] = 0.0
        p.w_v.data[:] = 0.0
        p.out_proj.data[:] = 0.0
        plain = dataclasses.replace(p, w_q=None, w_k=None, w_v=None, out_proj=None)
        state = state_of(ad.tensor(h0), ad.tensor(c0))
        out_sa = sa_lstm_step(cells.StepKernel(p), state, ad.tensor(x), tokens=4)
        out_plain = lstm_step(cells.StepKernel(plain), state, ad.tensor(x))
        assert np.array_equal(h_of(out_sa).data, h_of(out_plain).data)
        assert np.array_equal(c_of(out_sa).data, c_of(out_plain).data)

    def test_all_zero_params_give_zero_hidden(self):
        hidden, tokens = 3, 5
        w = {g: np.zeros((hidden + 1, hidden)) for g in "fico"}
        b = {g: np.zeros(hidden) for g in "fico"}
        p = dataclasses.replace(
            params_from_arrays(w, b),
            **{name: ad.tensor(np.zeros((hidden, 2))) for name in ("w_q", "w_k", "w_v")},
            out_proj=ad.tensor(np.zeros((2, hidden))),
        )
        state = zero_state(tokens, hidden)
        out = sa_lstm_step(cells.StepKernel(p), state, ad.tensor(np.random.default_rng(0).uniform(0, 1, (tokens, 1))), tokens=tokens)
        np.testing.assert_array_equal(h_of(out).data, np.zeros((tokens, hidden)))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_composition_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        tokens, hidden, d = 4, 3, 2
        p, h0, c0, x = self._random_setup(rng, tokens, hidden, d)
        state = state_of(ad.tensor(h0), ad.tensor(c0))
        out = sa_lstm_step(cells.StepKernel(p), state, ad.tensor(x), tokens=tokens)

        # explicit recomputation: per-token gates, then attention on Z_o
        w = {g: getattr(p, f"w_{g}").data for g in "fico"}
        b = {g: getattr(p, f"b_{g}").data for g in "fico"}
        cat = np.concatenate([h0, x], axis=1)
        f, i = sig(cat @ w["f"] + b["f"]), sig(cat @ w["i"] + b["i"])
        c_tilde = np.tanh(cat @ w["c"] + b["c"])
        z_o = cat @ w["o"] + b["o"]
        mixed = attention_oracle(p.w_q.data, p.w_k.data, p.w_v.data, z_o)
        o = sig(z_o + mixed @ p.out_proj.data)
        c_ref = f * c0 + i * c_tilde
        h_ref = o * np.tanh(c_ref)
        np.testing.assert_allclose(h_of(out).data, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_of(out).data, c_ref, rtol=0, atol=1e-12)

    def test_batched_groups_match_single_group(self):
        rng = np.random.default_rng(9)
        tokens, hidden = 4, 3
        p, h0, c0, x = self._random_setup(rng, tokens, hidden)
        single = sa_lstm_step(
            cells.StepKernel(p), state_of(ad.tensor(h0), ad.tensor(c0)), ad.tensor(x), tokens=tokens
        )
        h2, c2, x2 = np.vstack([h0, h0]), np.vstack([c0, c0]), np.vstack([x, x])
        batched = sa_lstm_step(
            cells.StepKernel(p), state_of(ad.tensor(h2), ad.tensor(c2)), ad.tensor(x2), tokens=tokens
        )
        np.testing.assert_allclose(h_of(batched).data[:tokens], h_of(single).data, atol=1e-12)
        np.testing.assert_allclose(h_of(batched).data[tokens:], h_of(single).data, atol=1e-12)

    def test_token_count_mismatch_rejected(self):
        p = cells.init_cell(3, 1, 2, seed=0, prefix="layer1")
        state = zero_state(5, 3)
        with pytest.raises(ValueError, match="tokens"):
            sa_lstm_step(cells.StepKernel(p), state, ad.tensor(np.zeros((5, 1))), tokens=4)


class TestGateBehaviour:
    def test_gates_bounded_and_state_finite_over_long_run(self):
        rng = np.random.default_rng(123)
        p = cells.init_cell(8, 1, 4, seed=77, prefix="layer1")
        for block in p.blocks("layer1").values():
            block.requires_grad = False
        state = zero_state(5, 8)
        for step in range(10_000):
            x = ad.tensor(rng.uniform(-1, 1, (5, 1)))
            state = sa_lstm_step(cells.StepKernel(p), state, x, tokens=5)
        assert np.all(np.isfinite(c_of(state).data))
        assert np.all(np.isfinite(h_of(state).data))
        assert np.all(np.abs(h_of(state).data) < 1.0)  # h = o * tanh(c), both bounded

    def test_gate_activations_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        w, b = random_lstm_arrays(rng, 6, 2)
        cat = rng.uniform(-1, 1, (10, 8))
        for g in "fio":
            vals = sigmoid(ad.tensor(cat @ w[g] + b[g])).data
            assert np.all(vals > 0.0) and np.all(vals < 1.0)


class TestBptt:
    def test_five_step_sa_lstm_gradients_match_finite_differences(self):
        tokens, hidden, d, steps = 3, 3, 2, 5
        rng = np.random.default_rng(31)
        xs = [rng.uniform(-1, 1, (tokens, 1)) for _ in range(steps)]

        w_shapes = {f"w_{g}": (hidden + 1, hidden) for g in "fico"}
        b_shapes = {f"b_{g}": (hidden,) for g in "fico"}
        attn_shapes = {"w_q": (hidden, d), "w_k": (hidden, d), "w_v": (hidden, d),
                       "out_proj": (d, hidden)}
        names = list(w_shapes) + list(b_shapes) + list(attn_shapes)
        shapes = {**w_shapes, **b_shapes, **attn_shapes}
        values = [rng.uniform(-0.8, 0.8, shapes[n]) for n in names]

        def build(leaves):
            p = cells.CellParams(**dict(zip(names, leaves)))
            state = zero_state(tokens, hidden)
            for t in range(steps):
                state = sa_lstm_step(cells.StepKernel(p), state, ad.tensor(xs[t]), tokens=tokens)
            return mean_all(ad.mul(h_of(state), h_of(state)))

        assert_grads_close(build, values, h=1e-6, tol=1e-5)


def _arrays(value) -> list:
    """The arrays a StepBuffers attribute holds: itself, or a dict's values."""
    values = value.values() if isinstance(value, dict) else [value]
    return [a for a in values if isinstance(a, np.ndarray)]


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _kept_alive(t: ad.Tensor) -> dict:
    """The arrays a tape node's adjoint keeps alive, one per base array by
    id: what its closure reaches through objects, containers and the data of
    tensors (not through their own tapes)."""
    found, seen = {}, set()
    todo = [cell.cell_contents for cell in t._vjp.__closure__]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(_base(obj))] = _base(obj)
        elif isinstance(obj, ad.Tensor):
            todo.append(obj.data)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


class TestStepBuffers:
    """The buffers own the recurrent state and size themselves; a kernel
    holds only one cell's weights."""

    def test_taped_step_writes_into_its_output_and_owns_no_c(self, monkeypatch):
        p = cells.init_cell(4, 1, 2, seed=5, prefix="layer1")
        handed = []
        step = cells.StepKernel.step
        monkeypatch.setattr(cells.StepKernel, "step",
                            lambda self, b, x: (handed.append(b), step(self, b, x)))
        h0 = np.random.default_rng(5).uniform(-1, 1, (2, 10, 4))
        out = sa_lstm_step(cells.StepKernel(p), ad.tensor(h0),
                           ad.tensor(np.ones((10, 1))), tokens=5)
        [b] = handed
        hc = out.data
        # C' goes straight into the output; h' stays in cat, as in a plan
        assert b.c.base is hc and np.shares_memory(b.h, b.cat)
        assert not any(np.shares_memory(b.c, a) for a in b._full.values())
        assert set(b._full) == {"o"}
        np.testing.assert_array_equal(b.cat[:, :4], hc[0])

    def test_resize_past_capacity_drops_the_old_arrays_first(self, monkeypatch):
        b = cells.StepBuffers(cells.init_cell(4, 1, 2, seed=6, prefix="layer1"), 5)
        b.resize(3)
        old = [weakref.ref(a) for value in vars(b).values() for a in _arrays(value)]
        alive = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *args, **kw: (
            alive.append(sum(ref() is not None for ref in old)), empty(*args, **kw))[1])
        b.resize(4)
        monkeypatch.undo()
        assert alive and max(alive) == 0
        assert b.capacity == 4 and b.cat.shape == (20, 4 + 1 + 1)

    @pytest.mark.parametrize("kind, kept", [
        ("sa-lstm", 688_128 + 1_376_256 + 344_064 + 112_896),    # h over c, gates, o, scores
        ("lstm-seg", 688_128 + 1_376_256),                       # h over c, gates (o in place)
    ])
    def test_taped_step_keeps_only_what_the_adjoint_cannot_rebuild(self, kind, kept):
        # 32 windows x 21 segment rows at default dims (hidden 64, attn 16)
        rows, tokens = 672, 21 if kind == "sa-lstm" else 1
        if kind == "sa-lstm":
            kernel = cells.StepKernel(cells.init_cell(64, 1, 16, seed=8, prefix="layer1"))
            step = lambda state, x: sa_lstm_step(kernel, state, x, tokens=tokens)
        else:
            kernel = cells.StepKernel(cells.init_cell(64, 1, 0, seed=8, prefix="layer1"))
            step = lambda state, x: lstm_step(kernel, state, x)
        rng = np.random.default_rng(8)
        first = step(ad.tensor(rng.uniform(-1, 1, (2, rows, 64))),
                     ad.tensor(rng.uniform(-1, 1, (rows, 1))))
        second = step(first, ad.tensor(rng.uniform(-1, 1, (rows, 1))))
        alive = _kept_alive(second)
        # the kernel's weights and work arrays are alive for every step
        shared = _kept_alive(first).keys() & alive.keys()
        parents = {id(_base(t.data)) for t in second._parents}
        own = {key for key in alive if key not in shared | parents}
        # what the step owns is its output and the kept set, each kept array
        # placed in an allocation of its own one page longer than it
        [b] = [c.cell_contents for c in second._vjp.__closure__
               if isinstance(c.cell_contents, cells.StepBuffers)]
        views = [b._gates, *b._full.values(), *([b._scores] if kind == "sa-lstm" else [])]
        assert own == {id(second.data), *(id(_base(a)) for a in views)}
        assert second.data.nbytes + sum(a.nbytes for a in views) == kept
        assert all(_base(a).nbytes - a.nbytes == cells._PAGE for a in views)
        work = kernel.tape_work(tokens, rows // tokens)
        assert {id(_base(a)) for a in work.values()} <= shared
        assert sorted(work) == (["att", "cat", "k", "q", "rowsum", "tmp", "v"]
                                if kind == "sa-lstm" else ["cat", "tmp"])

    @pytest.mark.parametrize("kind, kept", [
        ("sa-lstm", 344_064 + 1_376_256 + 344_064 + 112_896),    # C', gates, o, scores
        ("lstm-seg", 344_064 + 1_376_256),                       # C', gates (o in place)
    ])
    def test_a_mid_pass_step_of_an_unroll_keeps_c_and_not_h(self, kind, kept):
        # 32 windows x 21 segment rows at default dims (hidden 64, attn 16):
        # h' stays in the kernel's cat, where the next step reads it
        model = models.build_model(kind, seed=14)
        x = np.random.default_rng(14).uniform(0.2, 1.0, (32, model.s, NUM_SEGMENTS))
        preds, _ = model.forward_graph_with_states(x)
        [unroll] = [c.cell_contents for c in preds._vjp.__closure__
                    if isinstance(c.cell_contents, models._Unroll)]
        [(steps, _, _)] = unroll.passes
        mid = len(steps) // 2
        kernel, b, before, *_ = steps[mid]
        assert before is steps[mid - 1][1]          # the state it read: the step before's
        work = {id(_base(a)) for a in kernel.tape_work(b.tokens, b.groups).values()}
        own = {id(_base(a)) for value in vars(b).values() for a in _arrays(value)} - work
        views = [b.out, b._gates, *b._full.values(), *([b._scores] if kind == "sa-lstm" else [])]
        assert own == {id(_base(a)) for a in views}
        assert b.out.shape == (672, 64) and b.c is b.out
        assert sum(a.nbytes for a in views) == kept

    def test_each_set_starts_its_kth_array_k_staggers_past_a_4k_boundary(self):
        b = cells.StepBuffers(cells.init_cell(64, 1, 16, seed=10, prefix="layer1"), 21)
        b.resize(32)
        kept = [b._gates, *b._full.values(), b._scores]
        for arrays in (kept, list(b._work.values())):
            assert [a.ctypes.data % 4096 for a in arrays] == \
                [k * cells._STAGGER % 4096 for k in range(len(arrays))]

    @pytest.mark.parametrize("kind", ["lstm", "lstm-seg"])
    def test_plain_lstm_buffers_own_no_attention_arrays(self, kind):
        p = cells.init_cell(4, 21 if kind == "lstm" else 1, 0, seed=9, prefix="layer1")
        b = cells.StepBuffers(p, 1)
        b.resize(32)
        assert b._scores is None and not {"scores", "q"} & vars(b).keys()
        assert set(b._work) == {"cat", "tmp"} and set(b._full) == {"c"}
        assert b.o is b.zo                    # o is computed in place of z_o

    def test_a_plans_output_gate_takes_z_os_slot_and_a_taped_steps_does_not(self):
        # nothing in a plan reads z_o once Q, K and V are projected, while a
        # taped step's adjoint projects them again from z_o
        p = cells.init_cell(4, 1, 2, seed=11, prefix="layer1")
        kernel = cells.StepKernel(p)
        plan = cells.StepBuffers(p, 5)
        plan.resize(3)
        taped = cells.StepBuffers(p, 5, out=np.empty((15, 4)), work=kernel.tape_work(5, 3))
        assert np.shares_memory(plan.o, plan.zo) and set(plan._full) == {"c"}
        assert not np.shares_memory(taped.o, taped.zo) and set(taped._full) == {"o"}
        rng = np.random.default_rng(11)
        hc, x = rng.uniform(-1, 1, (2, 15, 4)), rng.uniform(-1, 1, (15, 1))
        for b in (plan, taped):
            b.load(hc)
            kernel.step(b, x)
        assert np.array_equal(plan.h, taped.h) and np.array_equal(plan.c, taped.c)

    def test_resize_within_capacity_keeps_the_leading_state(self):
        p = cells.init_cell(4, 1, 2, seed=7, prefix="layer1")
        b = cells.StepBuffers(p, 5)
        b.resize(3)
        hc = np.random.default_rng(7).uniform(-1, 1, (2, 15, 4))
        b.load(hc)
        cat = b.cat
        b.resize(3)
        assert b.cat is cat                   # a same-size request rebuilds no views
        b.resize(2)
        saved = np.empty((2, 10, 4))
        b.save(saved)
        np.testing.assert_array_equal(saved, hc[:, :10])
        assert b.capacity == 3 and b.cat.base is cat.base


def _step_and_adjoint(kernel, tokens, hc_prev, x, g):
    """hc, d_state and d_x of one step of ``kernel`` and its adjoint, every
    parent flagged."""
    hc = np.empty(hc_prev.shape)
    b = cells.StepBuffers(kernel.cell, tokens, out=hc[1],
                          work=kernel.tape_work(tokens, hc.shape[1] // tokens))
    b.load(hc_prev)
    kernel.step(b, x)
    hc[0] = b.h
    need = [True] * (2 + len(kernel.cell.blocks("")))
    d_state, d_x = kernel.adjoint(b, g, (hc_prev, x), need, False)[:2]
    return hc, d_state, d_x


class TestRowBlocks:
    @pytest.mark.parametrize("in_width", [1, NUM_SEGMENTS])
    def test_each_row_holds_the_bits_of_its_block_alone(self, in_width):
        # 714 rows (34 groups of 21) at hidden 64, with one input (a segment
        # cell) or 21 (the dense lstm's), are past the bound, so the gate
        # product and d_cat run in row blocks, the last one partial.  A plain
        # cell, because BLAS tiles the rows of the products that stay whole
        # (an attention cell's) by their position in the call
        kernel = cells.StepKernel(cells.init_cell(64, in_width, 0, seed=12, prefix="layer1"))
        rows = 34 * 21
        rng = np.random.default_rng(12)
        hc_prev, x, g = (rng.uniform(-1, 1, shape)
                         for shape in ((2, rows, 64), (rows, in_width), (2, rows, 64)))
        whole = _step_and_adjoint(kernel, 1, hc_prev, x, g)
        size = cells.BLAS_SMALL_BOUND // ((64 + in_width + 1) * 64)
        assert size < rows and rows % size
        for start in range(0, rows, size):
            block = slice(start, start + size)
            alone = _step_and_adjoint(kernel, 1, hc_prev[:, block], x[block], g[:, block])
            for name, a, b in zip(("hc", "d_state", "d_x"), whole, alone):
                at = block if name == "d_x" else (slice(None), block)   # a state's rows: axis 1
                assert np.array_equal(a[at], b), (name, start)

    def test_gate_products_stay_under_the_bound(self, monkeypatch):
        kernel = cells.StepKernel(cells.init_cell(64, 1, 16, seed=13, prefix="layer1"))
        b = cells.StepBuffers(kernel.cell, 21)
        b.resize(34)
        b.reset()
        rows, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, w, **kw: (rows.append(len(a)), matmul(a, w, **kw))[1])
        kernel.step(b, np.ones((34 * 21, 1)))
        assert sum(rows) == 34 * 21 and max(rows) * 66 * 64 <= cells.BLAS_SMALL_BOUND
