"""One recurrent cell type, ``CellParams``: an LSTM cell whose output gate,
when the cell has attention blocks, also reads spatial self-attention across
the road segments (the SA-LSTM).  A plain LSTM cell has none of them, and
``init_cell`` builds either from one call.

All step functions operate on row-stacked states: a state row is one token
(one road segment, or one batch entry for the dense variant), so the same
code serves single-window inference and full-batch training.  Weights are
shared across rows by construction.

The step math is defined once, in ``StepKernel``: tape-free numpy with one
cell's prepared weights, acting on the ``(rows, .)`` arrays of the
``StepBuffers`` it is handed, which own the recurrent state and size
themselves.  An inference plan in ``models`` hands its one buffer set to
every layer's kernel; its taped unroll gives each step (``lstm_step``,
``sa_lstm_step``) fresh buffers, which write a ``(2, rows, H)`` output, h
over C (each half C-contiguous, so no elementwise op on h, C or their
gradients walks a strided view), and keep only what ``StepKernel.adjoint``
reads and cannot cheaply rebuild: the gate-major block of f, i, c~ and z_o,
and for attention o and the softmax weights.  A plan's buffers keep no o:
nothing in a plan reads z_o once Q, K and V are projected, so the output
gate overwrites z_o's slot.  The work arrays ([h, x, 1], tanh(C'), Q, K,
V, the attention product, the softmax row sums) are shared by every
taped step of one kernel, and the adjoint rebuilds the ones it reads from
the step's inputs with the calls the step made, so its gradients are
bitwise those of the arrays the step saw.  It computes a parent's gradient
only when the caller's flags ask for it, so frozen weights cost no products.

The layout suits the host.  OpenBLAS takes its small-matrix kernel only
while M*N*K <= 1e6 (``BLAS_SMALL_BOUND``), so the gate product and the
adjoint's d_cat run in row blocks under it, d_cat adding its terms in the
order one product did.  ``cat.T @ dz`` stays whole: its inner dimension is
the rows, so blocks would reorder its sums.  The k-th array of a buffer's
kept set and of its work set starts k * 512 bytes past a 4 KiB boundary,
so no elementwise op writes just past an input modulo 4 KiB (4K aliasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import block_rng


# block names within a cell, in ``CellParams`` field order
_GATE_BLOCKS = [f"{kind}_{gate}" for kind in "wb" for gate in "fico"]
_ATTN_BLOCKS = ["attn/w_q", "attn/w_k", "attn/w_v", "out_proj"]


@dataclass
class CellParams:
    """One recurrent cell: four gate weights mapping [h, x] (width
    hidden+in_width) to width hidden and their biases, then, for a cell with
    output-gate attention, the query/key/value projections from width hidden
    down to attn_width and the projection back.  A plain LSTM cell has no
    attention blocks."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_o: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_o: Tensor
    w_q: Tensor | None = None
    w_k: Tensor | None = None
    w_v: Tensor | None = None
    out_proj: Tensor | None = None

    @property
    def hidden(self) -> int:
        return self.w_f.shape[1]

    @property
    def in_width(self) -> int:
        return self.w_f.shape[0] - self.w_f.shape[1]

    @property
    def attn_width(self) -> int:
        """0 for a plain LSTM cell."""
        return 0 if self.w_q is None else self.w_q.shape[1]

    def blocks(self, prefix: str) -> dict[str, Tensor]:
        names = _GATE_BLOCKS + (_ATTN_BLOCKS if self.attn_width else [])
        return {f"{prefix}/{name}": getattr(self, name.removeprefix("attn/")) for name in names}


def cell_table(hidden, in_width, attn_width, prefix) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each block of a cell, in ``CellParams`` field order,
    computed from the dims alone: what ``init_cell`` draws and what the model
    reader expects a container to hold.  ``attn_width`` 0 gives a plain LSTM
    cell's eight blocks."""
    shapes = [(hidden + in_width, hidden)] * 4 + [(hidden,)] * 4
    if attn_width:
        shapes += [(hidden, attn_width)] * 3 + [(attn_width, hidden)]
    names = _GATE_BLOCKS + _ATTN_BLOCKS          # zip stops at a plain cell's eight
    return [(f"{prefix}/{name}", shape) for name, shape in zip(names, shapes)]


def init_block(seed: int, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The initial values of block ``name``: a weight is uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)], fan_in its first dim, from the stream
    its name keys; a bias is zero, except the forget bias, which starts at +1
    so early cell state is retained."""
    if len(shape) == 1:
        return np.ones(shape) if name.endswith("/b_f") else np.zeros(shape)
    bound = 1.0 / np.sqrt(shape[0])
    return block_rng(seed, name).uniform(-bound, bound, shape)


def init_cell(hidden, in_width, attn_width, seed, prefix) -> CellParams:
    """A fresh cell, each block of ``cell_table`` from ``init_block``;
    ``attn_width`` 0 gives a plain LSTM cell."""
    return CellParams(*(ad.parameter(init_block(seed, name, shape))
                        for name, shape in cell_table(hidden, in_width, attn_width, prefix)))


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------

# The gate product (M, 66) @ (66, 64) ran 107-116 ns a row per gate up to
# M = 236 and 142-160 ns from M = 237 (x86, one OpenBLAS 0.3.31 thread).
BLAS_SMALL_BOUND = 1_000_000
# An elementwise op writing 8-32 bytes past or before an input modulo 4 KiB
# ran twice as long at 672 x 64; heap arrays a whole number of pages long
# land 16 bytes apart modulo 4 KiB.
_PAGE, _STAGGER = 4096, 512


def _staggered(shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Float arrays of the given shapes, the k-th starting k * _STAGGER bytes
    past a 4 KiB boundary, each in its own allocation one page longer (one
    for the set would need a contiguous block where these fit heap holes)."""
    arrays = {}
    for k, (name, shape) in enumerate(shapes.items()):
        size = math.prod(shape)
        raw = np.empty(size + _PAGE // 8)
        start = (k * _STAGGER - raw.ctypes.data) % _PAGE // 8
        arrays[name] = raw[start:start + size].reshape(shape)
    return arrays


def _work_arrays(cell, tokens: int, groups: int) -> dict[str, np.ndarray]:
    """The arrays a step of ``cell`` (or of buffers sized like it) works in
    that its adjoint can rebuild from the step's inputs and the arrays it
    keeps: ``cat`` = [h, x, 1], ``tmp`` (the attention's projection back,
    then i*c~, then tanh(C')) and, with attention, Q, K, V, their softmax
    product ``att`` and the softmax row sums."""
    rows, hidden, d = groups * tokens, cell.hidden, cell.attn_width
    shapes = {"cat": (rows, hidden + cell.in_width + 1), "tmp": (rows, hidden)}
    if d:
        shapes.update({name: (rows, d) for name in ("q", "k", "v", "att")})
        shapes["rowsum"] = (groups, tokens, 1)
    work = _staggered(shapes)
    work["cat"][:, -1] = 1.0
    return work


class StepBuffers:
    """The recurrent state of ``groups`` groups of ``tokens`` rows and the
    arrays of one cell step on them; ``resize`` alone sizes them.  A step
    reads h from the first H columns of ``cat`` = [h, x, 1] and C from ``c``,
    and writes h' into ``h`` and C' into ``c``.

    The arrays come in two sets.  The kept set is what a taped step's adjoint
    reads and cannot cheaply rebuild: the gate block ``gates``, one
    gate-major ``(4, rows, H)`` array holding f, i, c~ and z_o, then, for a
    taped attention step, o itself, and the attention weights ``scores``
    (attention only).  Elsewhere ``o`` is z_o's slot, which the output gate
    overwrites: a plain LSTM's adjoint never reads z_o, and nothing in a
    plan reads it once Q, K and V are projected.  The work set
    (``_work_arrays``) is what the adjoint rebuilds.  A plan's buffers own
    both sets and keep ``h`` inside ``cat``, so the state carries on in place
    and a step copies only its input; every layer of a plan shares them, so
    a layer starts from the state the previous one left.  A taped step's
    buffers (``out`` given) own only the kept set, write h' and C' straight
    into the two halves of the step's ``(2, rows, H)`` output and take the
    ``work`` arrays that every taped step of one kernel shares.  One group
    takes 2-D attention products (cheapest at batch 1), several groups
    batched 3-D ones.  ``blocks`` slices the rows into the gate product's row blocks."""

    def __init__(self, cell: CellParams, tokens: int, out: np.ndarray | None = None,
                 work: dict[str, np.ndarray] | None = None):
        self.hidden, self.in_width, self.attn_width = cell.hidden, cell.in_width, cell.attn_width
        self.tokens, self.out, self.work = tokens, out, work
        self.groups = self.capacity = 0
        if out is not None:
            self.resize(out.shape[1] // tokens)

    def resize(self, groups: int) -> None:
        """Size the buffers to ``groups`` groups.  Within capacity they become
        views of the leading rows, which keeps those rows' state; past it the
        old arrays and every view of them go before the new ones come, so
        that the two sets never add up in peak memory, and the state is
        lost."""
        if groups == self.groups:
            return
        tokens, H, d = self.tokens, self.hidden, self.attn_width
        rows = groups * tokens
        if groups > self.capacity:
            settings = {name: vars(self)[name] for name in _BUFFER_SETTINGS}
            vars(self).clear()                  # every array and view, whatever its name
            vars(self).update(settings)
            # a plan's o is z_o's slot; a taped step keeps z_o for its adjoint
            names = ("c",) if self.out is None else (("o",) if d else ())
            kept = _staggered({"gates": (4, rows, H), **{name: (rows, H) for name in names},
                               **({"scores": (groups, tokens, tokens)} if d else {})})
            self._gates, self._scores = kept.pop("gates"), kept.pop("scores", None)
            self._full = kept
            self._work = self.work
            if self._work is None:
                self._work = _work_arrays(self, tokens, groups)
            self.capacity = groups
        self.groups = groups
        self.gates = self._gates[:, :rows]
        step = max(1, BLAS_SMALL_BOUND // ((H + self.in_width + 1) * H))
        self.blocks = [slice(start, start + step) for start in range(0, rows, step)]
        self.fic, self.fi = self.gates[:3], self.gates[:2]
        self.zf, self.zi, self.zc, self.zo = self.gates
        self.o = self._full["o"][:rows] if "o" in self._full else self.zo
        self.cat = self._work["cat"][:rows]
        self.x = self.cat[:, H:-1]
        self.tmp = self._work["tmp"][:rows]
        if self.out is None:
            self.h, self.c = self.cat[:, :H], self._full["c"][:rows]
        else:
            self.h, self.c = self.out
        if d:
            self.q, self.k, self.v, self.att = (self._work[name][:rows]
                                                for name in ("q", "k", "v", "att"))
            q, k, v, att = (a.reshape(groups, tokens, d) for a in (self.q, self.k, self.v, self.att))
            views = (q, k.transpose(0, 2, 1), v, att, self._scores[:groups],
                     self._work["rowsum"][:groups])
            if groups == 1:
                views = [view[0] for view in views]
            self.qg, self.ktg, self.vg, self.attg, self.scores, self.rowsum = views
        self.mm = np.dot if groups == 1 else np.matmul

    def reset(self) -> None:
        """Set the state a step reads to zero."""
        self.cat[:, :self.hidden] = 0.0
        self.c.fill(0.0)

    def load(self, hc: np.ndarray) -> None:
        """Set the state a step reads to a ``(2, rows, H)`` array, h over C."""
        self.cat[:, :self.hidden] = hc[0]
        self.c[...] = hc[1]

    def save(self, hc: np.ndarray, start: int = 0) -> None:
        """Write the state of rows ``start`` on into a ``(2, rows, H)`` array,
        h over C."""
        stop = start + hc.shape[1]
        hc[0] = self.h[start:stop]
        hc[1] = self.c[start:stop]


# what a StepBuffers keeps when it grows; everything else it holds goes
_BUFFER_SETTINGS = ("hidden", "in_width", "attn_width", "tokens", "out", "work")


class StepKernel:
    """One tape-free LSTM / SA-LSTM step with one cell's prepared weights,
    acting on the ``StepBuffers`` it is handed:

        f = sig(W_f[h,x]+b_f); i = sig(W_i[h,x]+b_i); c~ = tanh(W_c[h,x]+b_c);
        z_o = W_o[h,x]+b_o;  o = sig(z_o + softmax(Q K^T/sqrt(d)) V P)  (SA-LSTM)
        or o = sig(z_o) (LSTM), with Q, K, V = z_o W_q, z_o W_k, z_o W_v per
        group of ``tokens`` rows;  C' = f*C + i*c~;  h' = o*tanh(C').

    The gate weights are one ``(4, H+in+1, H)`` stack: one ``np.matmul`` of
    ``cat`` with it writes the gate block, each gate its own product, with
    the biases riding as the ones column of ``cat``.  sig(z) is
    0.5*tanh(z/2)+0.5, and the exact x0.5 is folded into the f and i
    weights, so one tanh covers f, i and c~.  The query projection carries
    the 1/sqrt(d) scaling.  ``cell`` is kept for its widths and for the
    blocks that a taped step's gradients belong to; the weights are copied
    once, so build the kernel after the last change to them.  The taped
    steps of one kernel share one set of work arrays (``tape_work``), which
    ``adjoint`` rebuilds with the numpy calls the step made, so its
    gradients are those of the arrays the step saw."""

    def __init__(self, cell: CellParams):
        self.cell = cell
        self.w = np.empty((4, cell.hidden + cell.in_width + 1, cell.hidden))
        for gate, name in enumerate("fico"):
            self.w[gate, :-1] = getattr(cell, f"w_{name}").data
            self.w[gate, -1] = getattr(cell, f"b_{name}").data
        self.w[:2] *= 0.5
        self.attn = None
        if cell.attn_width:
            self.attn = (cell.w_q.data / np.sqrt(cell.attn_width),
                         np.ascontiguousarray(cell.w_k.data),
                         np.ascontiguousarray(cell.w_v.data),
                         np.ascontiguousarray(cell.out_proj.data))
        self._tape_work = None

    def tape_work(self, tokens: int, groups: int) -> dict[str, np.ndarray]:
        """The work arrays the taped steps of this kernel share, for steps on
        ``groups`` groups of ``tokens`` rows; a step of another size replaces
        them (the steps taken before keep theirs)."""
        if self._tape_work is None or self._tape_work[0] != (tokens, groups):
            work = _work_arrays(self.cell, tokens, groups)
            self._tape_work = (tokens, groups), work
        return self._tape_work[1]

    def step(self, b: StepBuffers, x: np.ndarray) -> None:
        """Advance the state in ``b`` by one (rows, in_width) input."""
        b.x[...] = x
        for rows in b.blocks:
            np.matmul(b.cat[rows], self.w, out=b.gates[:, rows])
        np.tanh(b.fic, out=b.fic)               # f and i read z/2 from their halved weights
        b.fi *= 0.5
        b.fi += 0.5
        if self.attn is not None:
            self._project(b)
            b.mm(b.qg, b.ktg, out=b.scores)
            # the ufunc reductions np.max and np.sum wrap, without their dispatch
            np.maximum.reduce(b.scores, axis=-1, keepdims=True, out=b.rowsum)
            b.scores -= b.rowsum
            np.exp(b.scores, out=b.scores)
            np.add.reduce(b.scores, axis=-1, keepdims=True, out=b.rowsum)
            b.scores /= b.rowsum
            b.mm(b.scores, b.vg, out=b.attg)
            np.dot(b.att, self.attn[3], out=b.tmp)
            np.add(b.zo, b.tmp, out=b.o)        # o is z_o's slot in a plan's buffers
            ad.sigmoid_array(b.o, out=b.o)
        else:
            ad.sigmoid_array(b.zo, out=b.o)      # in place: the adjoint never reads z_o
        b.c *= b.zf
        np.multiply(b.zi, b.zc, out=b.tmp)
        b.c += b.tmp
        np.tanh(b.c, out=b.tmp)
        np.multiply(b.o, b.tmp, out=b.h)

    def _project(self, b: StepBuffers) -> None:
        """Q, K and V of z_o, for the step and again for its adjoint."""
        wq, wk, wv, _ = self.attn
        np.dot(b.zo, wq, out=b.q)
        np.dot(b.zo, wk, out=b.k)
        np.dot(b.zo, wv, out=b.v)

    def adjoint(self, b: StepBuffers, g: np.ndarray, inputs: tuple[np.ndarray, np.ndarray],
                need: list[bool]) -> list:
        """Gradients of the taped step taken on ``b``, given the gradient
        ``g`` of its ``(2, rows, H)`` output, dh' over dC', and ``inputs``,
        the state (h over C) and the input the step read; the state's
        gradient ``d_state`` has the state's layout.  First it rebuilds the
        work arrays it reads: tanh(C') from C', Q, K, V (and their softmax
        product, for P's gradient) from z_o, and ``cat`` from the inputs
        when a gate weight needs it.  ``need`` flags the parents that require
        a gradient: the state, x, then the cell's blocks in ``blocks`` order
        (gate weights, gate biases, W_q, W_k, W_v, P).  Products that serve
        only unflagged parents are skipped; a gate's weight and bias share
        one product."""
        H = b.hidden
        (h_prev, c_prev), x = inputs
        np.tanh(b.c, out=b.tmp)
        dh, dc = g
        o, tc, f, i, c_tilde = b.o, b.tmp, b.zf, b.zi, b.zc
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
            self._project(b)
            if need[13]:
                b.mm(b.scores, b.vg, out=b.attg)
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
            dz_o += np.dot(d_q, wq.T)           # the list above has read dz_o already
            dz_o += np.dot(d_k, wk.T)
            dz_o += np.dot(d_v, wv.T)
        dz.append(dz_o)
        d_w, d_b = [None] * 4, [None] * 4
        if any(need[2:10]):
            b.cat[:, :H] = h_prev
            b.x[...] = x
            for gate, dzg in enumerate(dz):
                if need[2 + gate] or need[6 + gate]:
                    dwb = np.dot(b.cat.T, dzg)  # the ones column gives the bias row
                    d_w[gate], d_b[gate] = dwb[:-1], dwb[-1]
        d_state = d_x = None
        if need[0] or need[1]:
            # the f and i weights unhalved, exactly
            weights = (*(self.w[:2] * 2.0), self.w[2], self.w[3])
            d_cat = np.zeros((len(f), H + b.in_width))
            for rows in b.blocks:           # each row block adds as sum() would
                for w, dzg in zip(weights, dz):
                    d_cat[rows] += np.dot(dzg[rows], w[:-1].T)
            if need[0]:
                d_state = np.empty((2, len(f), H))
                d_state[0] = d_cat[:, :H]
                np.multiply(dct, f, out=d_state[1])
            if need[1]:
                d_x = d_cat[:, H:]
        return [d_state, d_x, *d_w, *d_b, *attn_grads]


def lstm_step(kernel: StepKernel, b: StepBuffers, x: np.ndarray) -> None:
    """f=sig(W_f[h,x]+b_f); i, o likewise; c~=tanh(W_c[h,x]+b_c);
    C' = f*C + i*c~; h' = o*tanh(C'): one step of ``kernel``, a plain cell's,
    on the state in ``b``.  The taped unroll steps by this name, so a tracer
    wrapping it sees each taped step."""
    kernel.step(b, x)


def self_attention(tokens: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V over the token axis, with Q = tokens W_q
    and likewise K and V; accepts (S, H) or a batch of token groups
    (B, S, H).  Composed from taped primitives: the reference the fused
    step's attention is tested against."""
    q = ad.matmul(tokens, w_q)
    k = ad.matmul(tokens, w_k)
    v = ad.matmul(tokens, w_v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(w_q.shape[1]))
    return ad.matmul(ad.softmax_rows(scores), v)


def sa_lstm_step(kernel: StepKernel, b: StepBuffers, x: np.ndarray) -> None:
    """``lstm_step`` for an attention cell's ``kernel``, whose output-gate
    pre-activation also reads self-attention across each group's segments
    (exactly zero with zero attention weights, so the step is then bitwise
    a plain cell's)."""
    kernel.step(b, x)
