"""Taped ops that training never records, kept as the references the tests
compose cells and the loss from: the gate functions, ``concat``, ``sub``,
``abs_``, ``mean_all``, ``narrow``, ``reshape``, ``add_bias``; the packed
``[h | c]`` recurrent state built from separate ``h`` and ``c`` tensors or
zeros, and its ``h`` and ``c`` halves; ``reconstruct``, the inverse of
``losses.build_pyramid``; and the per-step taped unroll that training ran
before its unroll became one node: ``lstm_step`` and ``sa_lstm_step`` record
each cell step as a tape node, and ``taped_unroll`` loops over the model's
schedule with them, the reference ``Forecaster.forward_graph_with_states``
and its reverse walk are checked against."""

import numpy as np

from mesocast import autodiff as ad
from mesocast.cells import CellParams, StepBuffers, StepKernel
from mesocast.data import NUM_SEGMENTS
from mesocast.losses import PyramidLevels, _expand
from mesocast.models import LSTM_KINDS, _check_batch, _check_prefix, _schedule


def reconstruct(levels: PyramidLevels) -> np.ndarray:
    """Invert ``build_pyramid``; exact because details store the expansion
    error verbatim."""
    g = levels.residual
    for detail in reversed(levels.details):
        g = detail + _expand(g)
    return g


def sigmoid(a: ad.Tensor) -> ad.Tensor:
    y = ad.sigmoid_array(a.data)
    return ad.node(y, (a,), lambda g: (g * (y * (1.0 - y)),))


def tanh(a: ad.Tensor) -> ad.Tensor:
    y = np.tanh(a.data)
    return ad.node(y, (a,), lambda g: (g * (1.0 - y * y),))


def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")
    return ad.node(a.data - b.data, (a, b), lambda g: (g, -g))


def abs_(a: ad.Tensor) -> ad.Tensor:
    # subgradient 0 at the kink
    sgn = np.sign(a.data)
    return ad.node(np.abs(a.data), (a,), lambda g: (g * sgn,))


def mean_all(a: ad.Tensor) -> ad.Tensor:
    shape = a.data.shape
    inv = 1.0 / a.data.size
    return ad.node(a.data.mean(), (a,), lambda g: (np.full(shape, float(g) * inv),))


def concat(parts, axis: int = 0) -> ad.Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat: no inputs")
    datas = [p.data for p in parts]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(gm[offsets[i]:offsets[i + 1]], 0, axis) for i in range(len(sizes))
        )

    return ad.node(out, parts, vjp)


def state_of(h: ad.Tensor, c: ad.Tensor) -> ad.Tensor:
    """The packed ``[h | c]`` state of separate ``h`` and ``c`` tensors."""
    return concat([h, c], axis=1)


def zero_state(rows: int, hidden: int) -> ad.Tensor:
    """An all-zero packed ``(rows, 2 * hidden)`` state."""
    return ad.tensor(np.zeros((rows, 2 * hidden)))


def h_of(state: ad.Tensor) -> ad.Tensor:
    """The taped ``h`` half of a packed state."""
    return narrow(state, 1, 0, state.shape[1] // 2)


def c_of(state: ad.Tensor) -> ad.Tensor:
    """The taped ``c`` half of a packed state."""
    half = state.shape[1] // 2
    return narrow(state, 1, half, half)


def narrow(a: ad.Tensor, axis: int, start: int, length: int) -> ad.Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    extent = a.data.shape[axis]
    if start < 0 or length < 0 or start + length > extent:
        raise ValueError(
            f"narrow: slice [{start}:{start + length}) out of range for extent {extent}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return ad.node(a.data[idx].copy(), (a,), vjp)


def reshape(a: ad.Tensor, shape) -> ad.Tensor:
    orig = a.data.shape
    return ad.node(a.data.reshape(shape), (a,),
                   lambda g: (np.ascontiguousarray(g).reshape(orig),))


def add_bias(mat: ad.Tensor, vec: ad.Tensor) -> ad.Tensor:
    """mat + row-broadcast vec without materialising the tiled rows."""
    if mat.data.ndim != 2 or vec.data.ndim != 1 or mat.data.shape[1] != vec.data.shape[0]:
        raise ValueError(f"add_bias: shape mismatch {mat.data.shape} vs {vec.data.shape}")

    def vjp(g):
        return g, g.sum(axis=0)

    return ad.node(mat.data + vec.data, (mat, vec), vjp)


def _record(kernel: StepKernel, state: ad.Tensor, x: ad.Tensor, tokens: int) -> ad.Tensor:
    """Check the shapes, run one step on fresh buffers that write into its
    packed ``(rows, 2H)`` ``[h | c]`` output and record it as a single tape
    node whose parents are the packed state, the input and the kernel cell's
    blocks.  The node keeps the output and the kept set of its buffers; the
    work arrays are the kernel's ``tape_work``, which every step of it
    overwrites and each adjoint rebuilds."""
    hc_prev = state.data
    rows, in_width = len(hc_prev), kernel.cell.in_width
    if rows % tokens != 0:
        raise ValueError(f"cell step: {rows} state rows not divisible by {tokens} tokens")
    if x.shape != (rows, in_width):
        raise ValueError(f"cell step: input shape {x.shape} does not match "
                         f"(rows={rows}, in_width={in_width})")
    hc = np.empty(hc_prev.shape)
    b = StepBuffers(kernel.cell, tokens, out=hc, work=kernel.tape_work(tokens, rows // tokens))
    b.load(hc_prev)
    kernel.step(b, x.data)
    inputs = hc_prev, x.data
    parents = [state, x, *kernel.cell.blocks("").values()]
    return ad.node(hc, parents, lambda g: kernel.adjoint(
        b, g, inputs, [t.requires_grad for t in parents]))


def lstm_step(kernel: StepKernel, state: ad.Tensor, x: ad.Tensor) -> ad.Tensor:
    """A plain cell's step on a packed ``[h | c]`` state, taped as one node."""
    return _record(kernel, state, x, tokens=1)


def sa_lstm_step(kernel: StepKernel, state: ad.Tensor, x: ad.Tensor, tokens: int) -> ad.Tensor:
    """An attention cell's step over groups of ``tokens`` rows on a packed
    ``[h | c]`` state, taped as one node."""
    return _record(kernel, state, x, tokens)


def taped_unroll(model, x, upto=None, prefix=None, trainable=None):
    """The first ``upto`` layers of ``model`` unrolled on ``models._schedule``
    with a tape node per step and per head op: predictions in horizon order
    and each layer's terminal packed state tensor.  A layer started from a
    ``prefix`` entry records nothing for its input frames.  The blocks
    outside ``trainable`` (None = every block) enter the tape as constants
    over the same arrays, so they get no gradient."""
    x = _check_batch(x, model.s)
    B, s = x.shape[0], model.s
    tokens, in_width = model.layout
    rows = B * tokens
    taped = lambda name, t: t if trainable is None or name in trainable else ad.tensor(t.data)
    layers = [CellParams(*(taped(name, t) for name, t in layer.blocks(f"layer{k + 1}").items()))
              for k, layer in enumerate(model.layers[:upto])]
    head_w, head_b = taped("head/w", model.head_w), taped("head/b", model.head_b)
    held = prefix or []
    _check_prefix(len(held), model.kind, len(layers))
    # the (rows, in_width) frames, then the (B, 21) predictions
    seq = [ad.tensor(np.ascontiguousarray(x[:, t, :]).reshape(rows, in_width))
           for t in range(s)]
    # horizons per head application: all-at-once emits one per head column
    columns = head_w.shape[1] // in_width
    step = (lambda kernel, state, xt: lstm_step(kernel, state, xt)) if model.kind in LSTM_KINDS \
        else (lambda kernel, state, xt: sa_lstm_step(kernel, state, xt, NUM_SEGMENTS))
    states = []
    for k, layer in enumerate(layers):
        kernel = StepKernel(layer)
        walk, fed, fresh = _schedule(model.kind, s, k)
        if k < len(held):
            state = ad.tensor(held[k])
        else:
            if fresh:
                state = zero_state(rows, model.hidden)
            for i in walk:
                state = step(kernel, state, seq[i])
        for i in fed:
            state = step(kernel, state, reshape(seq[i], (rows, in_width)))
        out = add_bias(ad.matmul(h_of(state), head_w), head_b)
        parts = [out] if columns == 1 else [narrow(out, 1, j, 1) for j in range(columns)]
        seq += [reshape(part, (B, NUM_SEGMENTS)) for part in parts]
        states.append(state)
    return seq[s:], states
