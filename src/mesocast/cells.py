"""Recurrent cells: plain LSTM, spatial self-attention, and the
attention-augmented LSTM whose output gate mixes information across road
segments.

All step functions operate on row-stacked states: a state row is one token
(one road segment, or one batch entry for the dense variant), so the same
code serves single-window inference and full-batch training.  Weights are
shared across rows by construction.

The step math is defined once, in ``StepKernel``: tape-free numpy with one
cell's prepared weights, acting on the ``(rows, .)`` arrays of the
``StepBuffers`` it is handed, which own the recurrent state and size
themselves.  An inference plan in ``models`` hands its one buffer set to
every layer's kernel.  The taped ``lstm_step`` and ``sa_lstm_step`` step a
kernel that the unroll prepares once per layer and pass, each step on its
own buffers, which write into the step's packed ``[h | c]`` output and keep
the activations that its single tape node's hand-derived adjoint reads; the
adjoint computes a parent's gradient only when that parent requires one, so
frozen weights cost no weight products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import block_rng


def _uniform_fan_in(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, (rows, cols))


@dataclass
class LstmParams:
    """Four-gate weights mapping [h, x] (width hidden+in_width) to width hidden."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_o: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_o: Tensor

    @property
    def hidden(self) -> int:
        return self.w_f.shape[1]

    @property
    def in_width(self) -> int:
        return self.w_f.shape[0] - self.w_f.shape[1]

    def blocks(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}/w_f": self.w_f, f"{prefix}/w_i": self.w_i,
            f"{prefix}/w_c": self.w_c, f"{prefix}/w_o": self.w_o,
            f"{prefix}/b_f": self.b_f, f"{prefix}/b_i": self.b_i,
            f"{prefix}/b_c": self.b_c, f"{prefix}/b_o": self.b_o,
        }


@dataclass
class AttentionParams:
    """Query/key/value projections from feature width H down to width d."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    @property
    def proj_width(self) -> int:
        return self.w_q.shape[1]

    def blocks(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/w_q": self.w_q, f"{prefix}/w_k": self.w_k, f"{prefix}/w_v": self.w_v}


@dataclass
class SaLstmParams:
    """One shared LstmParams for every segment token plus the output-gate
    attention block and its projection back to width H."""

    lstm: LstmParams
    attn: AttentionParams
    out_proj: Tensor

    @property
    def hidden(self) -> int:
        return self.lstm.hidden

    def blocks(self, prefix: str) -> dict[str, Tensor]:
        out = self.lstm.blocks(prefix)
        out.update(self.attn.blocks(f"{prefix}/attn"))
        out[f"{prefix}/out_proj"] = self.out_proj
        return out


@dataclass
class LstmState:
    """Recurrent state of a batch of rows, carried as one packed (rows, 2H)
    tensor ``hc = [h | c]``; ``h`` and ``c`` are taped views of it."""

    hc: Tensor

    @property
    def hidden(self) -> int:
        return self.hc.shape[1] // 2

    @property
    def h(self) -> Tensor:
        return ad.narrow(self.hc, 1, 0, self.hidden)

    @property
    def c(self) -> Tensor:
        return ad.narrow(self.hc, 1, self.hidden, self.hidden)


def zero_state(rows: int, hidden: int) -> LstmState:
    return LstmState(ad.tensor(np.zeros((rows, 2 * hidden))))


def init_lstm_params(hidden, in_width, seed, prefix) -> LstmParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights; forget bias starts
    at +1 so early cell state is retained."""
    rows = hidden + in_width
    w = {g: ad.parameter(_uniform_fan_in(block_rng(seed, f"{prefix}/w_{g}"), rows, hidden))
         for g in "fico"}
    b = {g: ad.parameter(np.zeros(hidden)) for g in "ico"}
    b["f"] = ad.parameter(np.ones(hidden))
    return LstmParams(w["f"], w["i"], w["c"], w["o"], b["f"], b["i"], b["c"], b["o"])


def init_attention_params(hidden, proj_width, seed, prefix) -> AttentionParams:
    return AttentionParams(
        *(ad.parameter(_uniform_fan_in(block_rng(seed, f"{prefix}/w_{n}"), hidden, proj_width))
          for n in "qkv")
    )


def init_sa_lstm_params(hidden, proj_width, seed, prefix) -> SaLstmParams:
    return SaLstmParams(
        lstm=init_lstm_params(hidden, 1, seed, prefix),
        attn=init_attention_params(hidden, proj_width, seed, f"{prefix}/attn"),
        out_proj=ad.parameter(
            _uniform_fan_in(block_rng(seed, f"{prefix}/out_proj"), proj_width, hidden)),
    )


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------


class StepBuffers:
    """The recurrent state of ``groups`` groups of ``tokens`` rows and the
    work arrays of one cell step on them; ``resize`` alone sizes them.  A
    step reads h from the first H columns of ``cat`` = [h, x, 1] and C from
    ``c``, and writes h' into ``h`` and C' into ``c``.  A plan's buffers keep
    ``h`` inside ``cat``, so the state carries on in place and a step copies
    only its input; every layer of a plan shares them, so a layer starts from
    the state the previous one left.  A taped step's buffers (``out`` given)
    write h' and C' straight into its packed ``(rows, 2H)`` output and keep
    ``cat`` intact for the adjoint.  One group takes 2-D attention products
    (cheapest at batch 1), several groups batched 3-D ones."""

    def __init__(self, cell, tokens: int, out: np.ndarray | None = None):
        lstm = cell.lstm if isinstance(cell, SaLstmParams) else cell
        self.tokens, self.hidden, self.in_width = tokens, lstm.hidden, lstm.in_width
        self.attn_width = cell.attn.proj_width if isinstance(cell, SaLstmParams) else 0
        self.out = out
        self.groups = self.capacity = 0
        if out is not None:
            self.resize(len(out) // tokens)

    def resize(self, groups: int) -> None:
        """Size the buffers to ``groups`` groups.  Within capacity they become
        views of the leading rows, which keeps those rows' state; past it the
        old arrays and every view of them go before the new ones come, so
        that the two sets never add up in peak memory, and the state is
        lost."""
        if groups == self.groups:
            return
        tokens, H = self.tokens, self.hidden
        if groups > self.capacity:
            vars(self).update(dict.fromkeys(_BUFFER_ARRAYS))
            rows = groups * tokens
            self._cat = np.empty((rows, H + self.in_width + 1))
            self._cat[:, -1] = 1.0
            names = ("zf", "zi", "zc", "zo", "tmp", "mixed") + (("c",) if self.out is None else ())
            self._full = {name: np.empty((rows, H)) for name in names}
            self._full.update({name: np.empty((rows, self.attn_width))
                               for name in ("q", "k", "v", "att")})
            self._scores = np.empty((groups, tokens, tokens))
            self._rowsum = np.empty((groups, tokens, 1))
            self.capacity = groups
        rows = groups * tokens
        self.groups = groups
        self.cat = self._cat[:rows]
        self.x = self.cat[:, H:-1]
        for name, full in self._full.items():
            setattr(self, name, full[:rows])
        if self.out is None:
            self.h = self.cat[:, :H]
        else:
            self.h, self.c = self.out[:, :H], self.out[:, H:]
        q, k, v, att = (a.reshape(groups, tokens, self.attn_width)
                        for a in (self.q, self.k, self.v, self.att))
        views = (q, k.transpose(0, 2, 1), v, att, self._scores[:groups], self._rowsum[:groups])
        if groups == 1:
            views = [view[0] for view in views]
        self.qg, self.ktg, self.vg, self.attg, self.scores, self.rowsum = views
        self.mm = np.dot if groups == 1 else np.matmul

    def reset(self) -> None:
        """Set the state a step reads to zero."""
        self.cat[:, :self.hidden] = 0.0
        self.c.fill(0.0)

    def load(self, hc: np.ndarray) -> None:
        """Set the state a step reads to a packed ``(rows, 2H)`` ``[h | c]``
        array."""
        self.cat[:, :self.hidden] = hc[:, :self.hidden]
        self.c[...] = hc[:, self.hidden:]

    def save(self, hc: np.ndarray, start: int = 0) -> None:
        """Write the state of rows ``start`` on into a packed ``(rows, 2H)``
        ``[h | c]`` array."""
        stop = start + len(hc)
        hc[:, :self.hidden] = self.h[start:stop]
        hc[:, self.hidden:] = self.c[start:stop]


# every array a StepBuffers holds, its own and the views of them
_BUFFER_ARRAYS = ("_cat", "_full", "_scores", "_rowsum", "cat", "x", "h", "c", "zf", "zi", "zc",
                  "zo", "tmp", "mixed", "q", "k", "v", "att", "qg", "ktg", "vg", "attg", "scores",
                  "rowsum")


class StepKernel:
    """One tape-free LSTM / SA-LSTM step with one cell's prepared weights,
    acting on the ``StepBuffers`` it is handed:

        f = sig(W_f[h,x]+b_f); i = sig(W_i[h,x]+b_i); c~ = tanh(W_c[h,x]+b_c);
        z_o = W_o[h,x]+b_o;  o = sig(z_o + softmax(Q K^T/sqrt(d)) V P)  (SA-LSTM)
        or o = sig(z_o) (LSTM), with Q, K, V = z_o W_q, z_o W_k, z_o W_v per
        group of ``tokens`` rows;  C' = f*C + i*c~;  h' = o*tanh(C').

    Each gate is its own contiguous product; biases ride as the ones column
    of ``cat``; the query projection carries the 1/sqrt(d) scaling.  After a
    step the buffers hold f, i, c~ (zf, zi, zc), z_o (zo), o (mixed),
    tanh(C') (tmp), Q, K, V, the attention weights (scores) and their
    product with V (att): everything ``adjoint`` reads.  ``cell`` is kept for
    the tape's parents; the weights are copied once, so build the kernel
    after the last change to them."""

    def __init__(self, cell):
        lstm = cell.lstm if isinstance(cell, SaLstmParams) else cell
        self.cell = cell
        self.w_f, self.w_i, self.w_c, self.w_o = (
            np.vstack([getattr(lstm, f"w_{g}").data, getattr(lstm, f"b_{g}").data[None, :]])
            for g in "fico")
        self.attn = None
        if isinstance(cell, SaLstmParams):
            self.attn = (cell.attn.w_q.data / np.sqrt(cell.attn.proj_width),
                         np.ascontiguousarray(cell.attn.w_k.data),
                         np.ascontiguousarray(cell.attn.w_v.data),
                         np.ascontiguousarray(cell.out_proj.data))

    def step(self, b: StepBuffers, x: np.ndarray) -> None:
        """Advance the state in ``b`` by one (rows, in_width) input."""
        b.x[...] = x
        np.dot(b.cat, self.w_f, out=b.zf)
        ad.sigmoid_array(b.zf, out=b.zf)
        np.dot(b.cat, self.w_i, out=b.zi)
        ad.sigmoid_array(b.zi, out=b.zi)
        np.dot(b.cat, self.w_c, out=b.zc)
        np.tanh(b.zc, out=b.zc)
        np.dot(b.cat, self.w_o, out=b.zo)
        if self.attn is not None:
            wq, wk, wv, proj = self.attn
            np.dot(b.zo, wq, out=b.q)
            np.dot(b.zo, wk, out=b.k)
            np.dot(b.zo, wv, out=b.v)
            b.mm(b.qg, b.ktg, out=b.scores)
            # the ufunc reductions np.max and np.sum wrap, without their dispatch
            np.maximum.reduce(b.scores, axis=-1, keepdims=True, out=b.rowsum)
            b.scores -= b.rowsum
            np.exp(b.scores, out=b.scores)
            np.add.reduce(b.scores, axis=-1, keepdims=True, out=b.rowsum)
            b.scores /= b.rowsum
            b.mm(b.scores, b.vg, out=b.attg)
            np.dot(b.att, proj, out=b.mixed)
            b.mixed += b.zo
            ad.sigmoid_array(b.mixed, out=b.mixed)
        else:
            ad.sigmoid_array(b.zo, out=b.mixed)
        b.c *= b.zf
        np.multiply(b.zi, b.zc, out=b.tmp)
        b.c += b.tmp
        np.tanh(b.c, out=b.tmp)
        np.multiply(b.mixed, b.tmp, out=b.h)

    def adjoint(self, b: StepBuffers, g: np.ndarray, c_prev: np.ndarray,
                need: list[bool]) -> list:
        """Gradients of the step taken on ``b``, given the gradient
        ``g = [dh' | dc']`` of its packed output and the cell state it
        started from.  ``need`` flags the parents that require a gradient, in
        ``_record`` order (state, x, then the cell's blocks: gate weights, gate
        biases, W_q, W_k, W_v, P).  Products that serve only unflagged
        parents are skipped; a gate's weight and bias share one product."""
        H = b.hidden
        dh, dc = g[:, :H], g[:, H:]
        o, tc, f, i, c_tilde = b.mixed, b.tmp, b.zf, b.zi, b.zc
        # in-place chains: one pass per factor, no temporaries
        dct = np.multiply(tc, tc)               # dC = dc' + dh' o (1 - tanh(C')^2)
        np.subtract(1.0, dct, out=dct)
        dct *= o
        dct *= dh
        dct += dc
        dz_o = np.subtract(1.0, o)              # through o = sig(z): dh' tanh(C') o (1 - o)
        dz_o *= o
        dz_o *= tc
        dz_o *= dh
        dz_f = np.subtract(1.0, f)              # dC C f (1 - f)
        dz_f *= f
        dz_f *= c_prev
        dz_f *= dct
        di = np.multiply(dct, i)
        dz_i = np.subtract(1.0, i)              # dC c~ i (1 - i)
        dz_i *= c_tilde
        dz_i *= di
        dz_c = np.multiply(c_tilde, c_tilde)    # dC i (1 - c~^2)
        np.subtract(1.0, dz_c, out=dz_c)
        dz_c *= di
        dz = [dz_f, dz_i, dz_c]
        attn_grads = []
        if self.attn is not None:
            wq, wk, wv, proj = self.attn
            rows, d = b.q.shape
            groups = (rows // b.tokens, b.tokens, d) if b.groups > 1 else (b.tokens, d)
            p = b.scores
            d_att = np.dot(dz_o, proj.T).reshape(groups)
            d_p = b.mm(d_att, b.vg.swapaxes(-1, -2))
            d_v = b.mm(p.swapaxes(-1, -2), d_att).reshape(rows, d)
            d_s = d_p - (d_p * p).sum(axis=-1, keepdims=True)
            d_s *= p
            d_q = b.mm(d_s, b.ktg.swapaxes(-1, -2)).reshape(rows, d)
            d_k = b.mm(d_s.swapaxes(-1, -2), b.qg).reshape(rows, d)
            zo = b.zo
            attn_grads = [
                np.dot(zo.T, d_q) * (1.0 / np.sqrt(d)) if need[10] else None,
                np.dot(zo.T, d_k) if need[11] else None,
                np.dot(zo.T, d_v) if need[12] else None,
                np.dot(b.att.T, dz_o) if need[13] else None,
            ]
            dz_o = dz_o + np.dot(d_q, wq.T) + np.dot(d_k, wk.T) + np.dot(d_v, wv.T)
        dz.append(dz_o)
        weights = (self.w_f, self.w_i, self.w_c, self.w_o)
        d_w, d_b = [None] * 4, [None] * 4
        for gate, (w, dzg) in enumerate(zip(weights, dz)):
            if need[2 + gate] or need[6 + gate]:
                dwb = np.dot(b.cat.T, dzg)      # the ones column gives the bias row
                d_w[gate], d_b[gate] = dwb[:-1], dwb[-1]
        d_state = d_x = None
        if need[0] or need[1]:
            d_cat = sum(np.dot(dzg, w[:-1].T) for w, dzg in zip(weights, dz))
            if need[0]:
                d_state = np.concatenate([d_cat[:, :H], dct * f], axis=1)
            if need[1]:
                d_x = d_cat[:, H:]
        return [d_state, d_x, *d_w, *d_b, *attn_grads]


def _record(kernel: StepKernel, state: LstmState, x: Tensor, tokens: int) -> LstmState:
    """Run one step on fresh buffers that write into its packed output and
    record it as a single tape node whose parents are the state, the input
    and the kernel cell's blocks."""
    hc_prev = state.hc.data
    hc = np.empty(hc_prev.shape)
    b = StepBuffers(kernel.cell, tokens, out=hc)
    b.load(hc_prev)
    kernel.step(b, x.data)
    c_prev = hc_prev[:, state.hidden:]
    parents = [state.hc, x, *kernel.cell.blocks("").values()]
    return LstmState(ad.node(hc, parents, lambda g: kernel.adjoint(
        b, g, c_prev, [t.requires_grad for t in parents])))


def lstm_step(kernel: StepKernel, state: LstmState, x: Tensor) -> LstmState:
    """f=sig(W_f[h,x]+b_f); i, o likewise; c~=tanh(W_c[h,x]+b_c);
    C' = f*C + i*c~; h' = o*tanh(C'), with the weights of ``kernel``, an
    LstmParams' kernel."""
    p = kernel.cell
    rows = state.hc.shape[0]
    if x.shape != (rows, p.in_width):
        raise ValueError(
            f"lstm_step: input shape {x.shape} does not match "
            f"(rows={rows}, in_width={p.in_width})"
        )
    return _record(kernel, state, x, tokens=1)


def self_attention(p: AttentionParams, tokens: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V over the token axis; accepts (S, H) or a
    batch of token groups (B, S, H).  Composed from taped primitives: the
    reference the fused step's attention is tested against."""
    q = ad.matmul(tokens, p.w_q)
    k = ad.matmul(tokens, p.w_k)
    v = ad.matmul(tokens, p.w_v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(p.proj_width))
    return ad.matmul(ad.softmax_rows(scores), v)


def sa_lstm_step(kernel: StepKernel, state: LstmState, x: Tensor, tokens: int) -> LstmState:
    """LSTM step whose output-gate pre-activation is residually augmented
    with self-attention across the ``tokens`` segments of each group, with
    the weights of ``kernel``, an SaLstmParams' kernel.

    With zero attention weights the residual term is exactly zero, so the
    step reduces bitwise to ``lstm_step`` on the same rows.
    """
    p = kernel.cell
    rows = state.hc.shape[0]
    if rows % tokens != 0:
        raise ValueError(f"sa_lstm_step: {rows} state rows not divisible by {tokens} tokens")
    if x.shape != (rows, p.lstm.in_width):
        raise ValueError(
            f"sa_lstm_step: input shape {x.shape} does not match "
            f"(rows={rows}, in_width={p.lstm.in_width})"
        )
    return _record(kernel, state, x, tokens)
