"""The fused cell steps against the same cells composed from taped
primitives: values and every gradient over multi-step unrolls, constant
weights, and a finite-difference check of the dense LSTM cell."""

import numpy as np
import pytest

from mesocast import autodiff as ad
from mesocast import cells
from gradcheck import assert_grads_close
from reference_ops import (add_bias, c_of, concat, h_of, lstm_step, mean_all, reshape,
                           sa_lstm_step, sigmoid, state_of, tanh, zero_state)


# --- the cells as compositions of primitive tape ops (the reference) ---------

def _gate(cat, w, b):
    return add_bias(ad.matmul(cat, w), b)


def primitive_lstm_step(p, h, c, x):
    cat = concat([h, x], axis=1)
    f = sigmoid(_gate(cat, p.w_f, p.b_f))
    i = sigmoid(_gate(cat, p.w_i, p.b_i))
    c_tilde = tanh(_gate(cat, p.w_c, p.b_c))
    o = sigmoid(_gate(cat, p.w_o, p.b_o))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, c_tilde))
    return ad.mul(o, tanh(c_new)), c_new


def primitive_sa_lstm_step(p, h, c, x, tokens):
    rows, hidden = h.shape
    cat = concat([h, x], axis=1)
    f = sigmoid(_gate(cat, p.w_f, p.b_f))
    i = sigmoid(_gate(cat, p.w_i, p.b_i))
    c_tilde = tanh(_gate(cat, p.w_c, p.b_c))
    z_o = _gate(cat, p.w_o, p.b_o)
    grouped = reshape(z_o, (rows // tokens, tokens, hidden))
    mixed = ad.matmul(cells.self_attention(grouped, p.w_q, p.w_k, p.w_v), p.out_proj)
    o = sigmoid(ad.add(z_o, reshape(mixed, (rows, hidden))))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, c_tilde))
    return ad.mul(o, tanh(c_new)), c_new


# --- one unroll, built either way ---------------------------------------------

CASES = {
    # kind: (hidden, in_width, tokens, groups, attn_width)
    "lstm": (5, 21, 1, 3, 0),
    "lstm-seg": (4, 1, 1, 6, 0),
    "sa-lstm-1group": (4, 1, 5, 1, 3),
    "sa-lstm-3groups": (4, 1, 5, 3, 3),
}
STEPS = 4


def make_case(name, seed):
    hidden, in_width, tokens, groups, d = CASES[name]
    rng = np.random.default_rng(seed)
    rows = tokens * groups
    p = cells.init_cell(hidden, in_width, d, seed=seed, prefix="layer1")
    # move the biases off their init so every gradient term is exercised
    for t in list(p.blocks("x").values())[:8]:  # the gate blocks
        t.data += rng.uniform(-0.5, 0.5, t.shape)
    inputs = {
        "h0": ad.parameter(rng.uniform(-1, 1, (rows, hidden))),
        "c0": ad.parameter(rng.uniform(-1, 1, (rows, hidden))),
        **{f"x{t}": ad.parameter(rng.uniform(-1, 1, (rows, in_width))) for t in range(STEPS)},
    }
    weights = p.blocks("layer1")
    return p, tokens if d else None, inputs, weights


def unroll(p, tokens, inputs, fused):
    """Loss over a STEPS-step unroll that reads h and c of the last state and
    h of an intermediate one."""
    h, c = inputs["h0"], inputs["c0"]
    state = state_of(h, c)
    mid = None
    for t in range(STEPS):
        x = inputs[f"x{t}"]
        if fused:
            state = (sa_lstm_step(cells.StepKernel(p), state, x, tokens) if tokens
                     else lstm_step(cells.StepKernel(p), state, x))
            h, c = h_of(state), c_of(state)
        elif tokens:
            h, c = primitive_sa_lstm_step(p, h, c, x, tokens)
        else:
            h, c = primitive_lstm_step(p, h, c, x)
        if t == 1:
            mid = h
    return ad.add(ad.add(mean_all(ad.mul(h, h)), ad.sum_all(ad.mul(c, mid))), ad.sum_all(c))


def gradients(p, tokens, inputs, weights, fused):
    leaves = {**inputs, **weights}
    for t in leaves.values():
        t.grad = None
    loss = unroll(p, tokens, inputs, fused)
    ad.backward(loss)
    return loss.item(), {name: t.grad for name, t in leaves.items()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(CASES))
def test_fused_gradients_match_primitive_composition(name, seed):
    p, tokens, inputs, weights = make_case(name, 700 + seed)
    loss_ref, ref = gradients(p, tokens, inputs, weights, fused=False)
    loss, got = gradients(p, tokens, inputs, weights, fused=True)
    assert loss == pytest.approx(loss_ref, rel=1e-13, abs=1e-13)
    assert set(got) == set(ref)
    for key in ref:
        assert got[key] is not None, key
        np.testing.assert_allclose(got[key], ref[key], rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("name", list(CASES))
def test_constant_weights_get_no_gradient_and_leave_the_rest_unchanged(name):
    p, tokens, inputs, weights = make_case(name, 750)
    _, full = gradients(p, tokens, inputs, weights, fused=True)
    constant = [key for key in weights if key.endswith(("/w_f", "/b_c", "/w_q", "/out_proj"))]
    for key in constant:
        weights[key].requires_grad = False
    _, part = gradients(p, tokens, inputs, weights, fused=True)
    for key, grad in part.items():
        if key in constant:
            assert grad is None, key
        else:
            assert np.array_equal(grad, full[key]), key


def test_constant_state_and_weights_record_no_tape():
    p = cells.init_cell(4, 1, 2, seed=3, prefix="layer1")
    for block in p.blocks("layer1").values():
        block.requires_grad = False
    state = zero_state(10, 4)
    out = sa_lstm_step(cells.StepKernel(p), state, ad.tensor(np.ones((10, 1))), tokens=5)
    assert not out.requires_grad and out._vjp is None


def test_dense_lstm_cell_gradients_match_finite_differences():
    hidden, in_width, rows, steps = 3, 21, 2, 3
    rng = np.random.default_rng(41)
    xs = [rng.uniform(-1, 1, (rows, in_width)) for _ in range(steps)]
    names = [f"w_{g}" for g in "fico"] + [f"b_{g}" for g in "fico"]
    shapes = {n: (hidden + in_width, hidden) if n.startswith("w") else (hidden,) for n in names}
    values = [rng.uniform(-0.6, 0.6, shapes[n]) for n in names]

    def build(leaves):
        p = cells.CellParams(*leaves)
        state = zero_state(rows, hidden)
        for x in xs:
            state = lstm_step(cells.StepKernel(p), state, ad.tensor(x))
        return ad.add(mean_all(ad.mul(h_of(state), h_of(state))), mean_all(c_of(state)))

    assert_grads_close(build, values, h=1e-6, tol=1e-6)
