"""Forecaster assemblies.

Every model maps ``s`` consecutive normalized velocity fields to one or more
normalized 21-wide predictions:

* ``lstm``       dense baseline, the whole field is one input vector;
* ``lstm-seg``   per-segment shared-weight LSTM, one token per segment;
* ``sa-lstm``    per-segment LSTM with attention on the output gate;
* ``all-at-once`` SA-LSTM emitting every horizon from a single unroll;
* ``nstep``      stacked SA-LSTM layers, layer i re-reads the input window
  plus the earlier predictions (s+i-1 cells) starting from layer i-1's
  terminal state, all layers sharing one affine head.

One class, ``Forecaster(kind, layers, head_w, head_b, s, horizon)``, holds
every kind.  The kinds differ only in their data: ``layers`` has one
``cells.CellParams`` (``nstep``: one per horizon), with attention blocks
except in the two plain LSTM kinds, the head has one column per segment
token (``all-at-once``: one per horizon), and ``horizon`` counts what one
unroll emits, 1 for the one-step kinds.  ``_shape`` spells a kind's widths
and parameter count once, for ``check_dims``, ``build_model`` and the
container reader, which demands that the header's dims describe the
payload exactly before anything is allocated.  ``_block_table`` lists each
block's name and shape from the dims alone (``cells.cell_table`` per layer,
then the head): ``build_model`` draws those blocks, and the reader demands
that the header's table be this one, then builds the model straight from
the payload, one copy per block and no init draw.  The names ``OneStepModel``,
``AllAtOnceModel`` and ``NStepModel`` are aliases of it that the
benchmark's tracer still binds.

Every forward is one unroll, ``InferencePlan._forward``: a
``cells.StepKernel`` per layer walks the step schedule ``_schedule`` (which
entries of window frames + predictions pass k walks, which it reads as fed
predictions, and whether it starts from zero), and the head reads h after
each pass.  The plan hands its one ``cells.StepBuffers`` to every kernel,
for one window (the latency path) and, in ``predict_batch``, PREDICT_CHUNK
windows per pass.  Training runs the same unroll taped (``_Unroll``, through
``Forecaster.forward_graph_with_states``): each step keeps its own buffers,
and the unroll is one tape node whose adjoint walks the schedule backwards.
An nstep unroll can start from a prefix, the states that frozen first
layers reach before any prediction is fed back; it only reads it,
``fill_prefix`` allocates and writes it, and only this module spells its
layout.

A one-step recursion reuses frame states the same way, within one pass.
Horizon k of window j walks frames k..s-1 from zero before its k fed
predictions, and those frames are the first s-k frames of window j+k.  So
when a pass's windows are consecutive (each is the previous one moved on one
frame, bit for bit, as ``eval`` builds them; a single window always is), one
frame pass from zero over the windows and the later starts inside the last
one gives every horizon its start state, and horizon k then walks only its k
predictions: s + H(H-1)/2 cell steps per pass instead of s*H for H <= s
horizons, with the same bits.  The frame pass drops each later start once
its horizon's state is saved, so no start steps past the last frame.  A pass
with a seam, a one-row dense ``lstm`` window and horizons past s, which read
no frame, walk from zero.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cells import (CellParams, StepBuffers, StepKernel, cell_table, init_block, init_cell,
                    lstm_step, sa_lstm_step)
from .data import MAX_ARRAY_VALUES, MINUTES_PER_DAY, NUM_SEGMENTS

LSTM_KINDS = ("lstm", "lstm-seg")          # plain LSTM cells, no attention
ONE_STEP_KINDS = LSTM_KINDS + ("sa-lstm",)
MODEL_KINDS = ONE_STEP_KINDS + ("all-at-once", "nstep")


@dataclass
class Forecast:
    """Normalized horizon predictions."""

    horizons: np.ndarray                     # (n, NUM_SEGMENTS)


def _head_table(hidden: int, width: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("head/w", (hidden, width)), ("head/b", (width,))]


def _init_head(hidden: int, width: int, seed: int) -> tuple[Tensor, Tensor]:
    w, b = (ad.parameter(init_block(seed, name, shape))
            for name, shape in _head_table(hidden, width))
    return w, b


def _check_window(x: np.ndarray, s: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (s, NUM_SEGMENTS):
        raise ValueError(f"window shape {x.shape} does not match (s={s}, {NUM_SEGMENTS})")
    return x


def _check_batch(x: np.ndarray, s: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (s, NUM_SEGMENTS):
        raise ValueError(f"batch shape {x.shape} does not match (B, s={s}, {NUM_SEGMENTS})")
    return x


# Entry k of an nstep prefix is layer k+1's (2, windows * 21, H) state, h over
# C, after the s frames, where an unroll starts layer k+1.  Layer 3 starts
# from layer 2's terminal state, which has read prediction 1: two entries at most.
MAX_PREFIX = 2


def _check_prefix(depth: int, kind: str, layers: int) -> None:
    """Reject a prefix of ``depth`` entries for a pass over ``layers`` layers."""
    if depth and kind != "nstep":
        raise ValueError(f"only nstep unrolls start from a prefix, not {kind}")
    limit = min(layers, MAX_PREFIX)
    if depth > limit:
        raise ValueError(f"a prefix for a pass over {layers} nstep layers holds at most "
                         f"{limit} states, got {depth}")


def _schedule(kind: str, s: int, k: int) -> tuple[range, range, bool]:
    """Pass k of an unroll over ``seq`` = the s window frames, then the
    predictions in order: the entries it walks from its start state, the fed
    predictions it then reads, and whether it starts from zero.  nstep layer
    k re-reads every frame and the k earlier predictions from layer k-1's
    state; pass k of a one-step recursion reads the last s entries from
    zero."""
    if kind == "nstep":
        return range(0, s), range(s, s + k), k == 0
    return range(k, s), range(max(s, k), s + k), True


@dataclass
class Forecaster:
    """Every model kind: ``layers`` holds one cell (``nstep``: one per
    horizon), ``horizon`` counts the horizons one unroll emits (1 for the
    one-step kinds, which recurse for more)."""

    kind: str
    layers: list[CellParams]
    head_w: Tensor
    head_b: Tensor
    s: int
    horizon: int

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def attn_width(self) -> int:
        return self.layers[0].attn_width

    @property
    def layout(self) -> tuple[int, int]:
        """(tokens, in_width) of one window: the dense lstm reads a whole field
        as one token, the others one token per segment."""
        in_width = self.layers[0].in_width
        return NUM_SEGMENTS // in_width, in_width

    def blocks(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.blocks(f"layer{i + 1}"))
        out["head/w"] = self.head_w
        out["head/b"] = self.head_b
        return out

    def dims(self) -> dict:
        dims = {"s": self.s, "hidden": self.hidden, "attn_width": self.attn_width}
        if self.kind not in ONE_STEP_KINDS:
            dims["horizon"] = self.horizon
        return dims

    def forward_graph(self, x) -> list[Tensor]:
        """(B, s, 21) -> one (B, 21) prediction tensor per horizon."""
        preds, _ = self.forward_graph_with_states(x)
        return preds

    def forward_graph_with_states(self, x, upto: int | None = None,
                                  prefix: list[np.ndarray] | None = None,
                                  trainable: frozenset[str] | None = None):
        """The plan's unroll of the first ``upto`` layers, taped
        (``_Unroll``): one prediction tensor per horizon, each read from the
        single tape node that records the whole unroll on the model's
        blocks, of which only ``trainable`` (None = all) get a gradient, and
        each layer's terminal ``(2, rows, H)`` state, h over C.  A layer
        started from a ``prefix`` entry walks none of its input frames."""
        x = _check_batch(x, self.s)
        unroll = _Unroll(self, upto, trainable)
        horizons = len(unroll.kernels) if self.kind == "nstep" else self.horizon
        out = np.empty((len(x), horizons, NUM_SEGMENTS))
        unroll._forward(x, out, prefix, tape=unroll)
        blocks = list(self.blocks().values())
        node = ad.node(out, blocks, lambda g: unroll.backward(g, blocks))

        def horizon(k):           # horizon k's (B, 21) slice of the unroll's output
            return ad.node(out[:, k], (node,), lambda g: (np.stack(
                [g if j == k else np.zeros(g.shape) for j in range(horizons)], axis=1),))

        return [horizon(k) for k in range(horizons)], [hc for _, hc, _ in unroll.passes]


# The benchmark's tracer wraps forward_graph under two of these names and
# forward_graph_with_states under the third; the benchmark's next version
# (ROADMAP item 1) drops them, and this line goes with it.
OneStepModel = AllAtOnceModel = NStepModel = Forecaster


# a model holds at most MAX_ARRAY_VALUES parameters; training keeps several
# copies (gradients, two AdamW moments, the best snapshot)
MAX_PARAMETERS = MAX_ARRAY_VALUES


def _shape(kind: str, hidden: int, attn_width: int, horizon: int) -> tuple[int, ...]:
    """(layers, in_width, attention width, head width, parameter count) of a
    ``kind`` model: each layer one cell of 4 gates over [h, x, 1] and, with
    attention, W_q, W_k, W_v and the output projection, then the head."""
    layers = horizon if kind == "nstep" else 1
    in_width = NUM_SEGMENTS if kind == "lstm" else 1
    attn = 0 if kind in LSTM_KINDS else attn_width
    width = {"lstm": NUM_SEGMENTS, "all-at-once": horizon}.get(kind, 1)
    count = layers * 4 * hidden * (hidden + in_width + 1 + attn) + (hidden + 1) * width
    return layers, in_width, attn, width, count


def check_dims(kind: str, s: int, hidden: int, attn_width: int, horizon: int) -> None:
    """Raise a ValueError reading "<dim> must ..." for dims that ``build_model``
    rejects, without allocating anything."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    if not 1 <= s <= MINUTES_PER_DAY:
        raise ValueError(f"s must be in 1..{MINUTES_PER_DAY} (window length s), got {s}")
    sized = {"hidden": hidden, "horizon": horizon}
    if kind not in LSTM_KINDS:
        sized["attn_width"] = attn_width
    for name, value in sized.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    count = _shape(kind, hidden, attn_width, horizon)[-1]
    if count > MAX_PARAMETERS:
        names = [name for name in ("hidden", "attn_width") if name in sized]
        names += ["horizon"] if kind in ("nstep", "all-at-once") else []
        raise ValueError(f"{' and '.join(names)} must keep the model within {MAX_PARAMETERS} "
                         f"parameters, got {count}")


def _block_table(kind: str, hidden: int, attn_width: int,
                 horizon: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each block of a ``kind`` model, in the order of
    ``Forecaster.blocks`` and of a container's payload."""
    layers, in_width, attn, width, _ = _shape(kind, hidden, attn_width, horizon)
    cells = [entry for i in range(layers)
             for entry in cell_table(hidden, in_width, attn, f"layer{i + 1}")]
    return cells + _head_table(hidden, width)


def build_model(kind: str, s: int = 8, hidden: int = 64, attn_width: int = 16,
                horizon: int = 3, seed: int = 0) -> Forecaster:
    """Construct a freshly initialised model of the given kind, with the
    blocks that ``_block_table`` lists for the reader, each drawn by
    ``init_block`` from the stream its name keys, so shared block names
    agree across kinds."""
    check_dims(kind, s, hidden, attn_width, horizon)
    layers, in_width, attn, width, _ = _shape(kind, hidden, attn_width, horizon)
    cells = [init_cell(hidden, in_width, attn, seed, f"layer{i + 1}") for i in range(layers)]
    w, b = _init_head(hidden, width, seed)
    return Forecaster(kind, cells, w, b, s, 1 if kind in ONE_STEP_KINDS else horizon)


# ---------------------------------------------------------------------------
# tape-free forward: single-window plans and batched prediction
# ---------------------------------------------------------------------------

# Windows per predict_batch pass, chosen by measurement: 16-32 windows ran
# fastest on a 2-vCPU host with one BLAS thread.  At 32 windows x 21 rows
# each (rows, 64) buffer is ~344 KB, inside a 2 MiB L2.
PREDICT_CHUNK = 32


class InferencePlan:
    """Tape-free forward for a frozen parameter snapshot: one kernel per
    layer and one ``StepBuffers`` that every kernel steps, sized by each pass
    to its windows (one on the latency path, up to PREDICT_CHUNK in
    ``predict_batch``) and kept for the next.  So a plan is not thread-safe;
    build one plan per thread.  Rebuild after parameters change.
    """

    def __init__(self, model: Forecaster):
        self.kind = model.kind
        self.s = model.s
        self.horizon = model.horizon
        self.head_w = np.ascontiguousarray(model.head_w.data)
        self.head_b = model.head_b.data.copy()
        self.kernels = [StepKernel(cell) for cell in model.layers]
        self.buf = StepBuffers(model.layers[0], model.layout[0])

    def run(self, window: np.ndarray, horizons: int | None = None) -> np.ndarray:
        """(s, 21) normalized -> (horizons, 21) normalized; horizons defaults
        to the model's own (one row for one-step kinds, which recurse for
        more)."""
        window = _check_window(window, self.s)
        out = np.empty((1, self.horizon if horizons is None else horizons, NUM_SEGMENTS))
        self._forward(window[None], out)
        return out[0]

    def _forward(self, windows: np.ndarray, out: np.ndarray,
                 prefix: list[np.ndarray] | None = None, tape: _Unroll | None = None) -> None:
        """(G, s, 21) normalized windows -> out (G, horizons, 21).
        One-step kinds recurse: horizon k reads the last s entries of (window
        + predictions so far) from a zero state, or, when the G windows are
        consecutive, starts after its real frames from the state a frame pass
        left (``_frame_starts``) and walks only its k fed predictions.  nstep
        layer k re-reads the window plus the earlier predictions from layer
        k-1's terminal state, or starts after the window from an nstep
        ``prefix`` entry.  Training hands a ``tape``: it holds the state in
        place of the plan's buffers, of which this loop uses only the
        ``tokens``, ``in_width``, ``resize``, ``reset``, ``load`` and ``h``
        that the tape has too, and it records each step (``tape.step``) and
        each pass's head read (``tape.end_pass``).  A taped one-step kind
        always walks from zero, never from ``_frame_starts``."""
        groups, horizons = out.shape[:2]
        if horizons < 1:
            raise ValueError(f"horizons must be >= 1, got {horizons}")
        if self.kind not in ONE_STEP_KINDS and horizons > self.horizon:
            raise ValueError(f"model emits {self.horizon} horizons, {horizons} requested")
        held = prefix or []
        _check_prefix(len(held), self.kind, horizons)
        b, s = self.buf if tape is None else tape, self.s
        rows = groups * b.tokens
        recursive = self.kind in ONE_STEP_KINDS
        reach = min(horizons, s)         # horizons that read a real frame
        # a one-row walk (one dense lstm window) stays on the zero-start path:
        # a one-row product takes another BLAS routine than the frame pass's
        # multi-row ones, so its bits would change
        if tape is None and recursive and reach > 1 and rows > 1 and _consecutive(windows):
            held = self._frame_starts(windows, reach)
        else:
            b.resize(groups)
        # one (rows, in_width) input per step: the window's frames, then the
        # predictions fed back
        seq = np.empty((s + horizons, rows, b.in_width))
        seq[:s] = windows.transpose(1, 0, 2).reshape(s, rows, -1)
        for k in range(horizons if recursive else min(horizons, len(self.kernels))):
            kernel = self.kernels[0 if recursive else k]
            walk, fed, fresh = _schedule(self.kind, s, k)
            if k < len(held):
                b.load(held[k])
                walk = ()
            elif fresh:
                b.reset()
            for i in (*walk, *fed):
                if tape is None:
                    kernel.step(b, seq[i])
                else:
                    tape.step(kernel, seq, i)
            head = b.h @ self.head_w + self.head_b
            if tape is not None:
                tape.end_pass()
            if self.kind == "all-at-once":                     # (rows, horizon)
                out[...] = head.reshape(groups, NUM_SEGMENTS, -1).transpose(0, 2, 1)[:, :horizons]
            else:
                seq[s + k] = head
                out[:, k] = head.reshape(groups, NUM_SEGMENTS)

    def _frame_starts(self, windows: np.ndarray, reach: int) -> list[np.ndarray]:
        """States of G consecutive windows after their real frames, for the
        first ``reach`` horizons of a one-step recursion: entry k holds, per
        window j, the ``(2, rows, H)`` state (h over C) after frames k..s-1
        from zero.  Those are window j+k's first s-k frames, so one frame
        pass from zero over the G windows and the reach-1 later starts inside
        the last window gives every entry: entry k is the pass after s-k
        steps, k groups on.  Once entry k is saved, start G-1+k is read no
        more, so the pass drops it: start G-1+k steps over s-k frames and
        none steps past the last."""
        groups, b, kernel = len(windows), self.buf, self.kernels[0]
        s, tokens = self.s, b.tokens
        # the G + s - 1 frames the windows cut, row j+t being frame t of window j
        series = np.concatenate([windows[:, 0], windows[-1, 1:]])
        states = np.empty((reach, 2, groups * tokens, b.hidden))
        live = groups + reach - 1
        b.resize(live)
        b.reset()
        for t in range(s):
            k = s - 1 - t
            if groups + k < live:         # entry k + 1 was the last to read start live-1
                live = groups + k
                b.resize(live)
            kernel.step(b, series[t:t + live].reshape(live * tokens, -1))
            if k < reach:
                b.save(states[k], start=k * tokens)
        return list(states)


class _Unroll(InferencePlan):
    """A plan over the first ``upto`` layers that is its own ``_forward``
    tape, for training.  Each step runs through the module-level
    ``lstm_step`` / ``sa_lstm_step`` (so a tracer sees it) on its own kept
    ``StepBuffers``, sharing the kernel's ``tape_work``.  The blocks outside
    ``trainable`` (None = every block) are its constants, flagged once per
    kernel and for the head.  The tape holds the state the next step reads
    and whether that requires a gradient (a zero or prefix start does not).
    ``backward`` walks the recorded passes in reverse (backpropagation
    through time): each tensor sums its gradient terms in the reverse of the
    order the forward made them, and only where a gradient is required."""

    def __init__(self, model: Forecaster, upto: int | None, trainable: frozenset[str] | None):
        # not InferencePlan.__init__, which sizes the one StepBuffers that a
        # plan's steps share (a tracer times it as a plan build)
        self.kind, self.s, self.horizon = model.kind, model.s, model.horizon
        self.head = model.head_w, model.head_b
        self.head_w, self.head_b = model.head_w.data, model.head_b.data
        trains = lambda name: trainable is None or name in trainable
        self.need = {StepKernel(cell): [*map(trains, cell.blocks(f"layer{k + 1}"))]
                     for k, cell in enumerate(model.layers[:upto])}
        self.kernels, self.head_need = list(self.need), (trains("head/w"), trains("head/b"))
        (self.tokens, self.in_width), self.hidden = model.layout, model.hidden
        self.steps, self.passes, self.emitted = [], [], []

    def resize(self, groups: int) -> None:
        self.rows = groups * self.tokens

    def reset(self) -> None:
        self.load(np.zeros((2, self.rows, self.hidden)))

    def load(self, hc: np.ndarray) -> None:
        self.hc, self.grad = hc, False

    @property
    def h(self) -> np.ndarray:
        return self.hc[0]

    def step(self, kernel: StepKernel, seq: np.ndarray, i: int) -> None:
        need = [self.grad, i >= self.s and self.emitted[i - self.s], *self.need[kernel]]
        step = StepBuffers(kernel.cell, self.tokens, np.empty(self.hc.shape),
                           kernel.tape_work(self.tokens, self.rows // self.tokens))
        step.load(self.hc)
        (lstm_step if self.kind in LSTM_KINDS else sa_lstm_step)(kernel, step, seq[i])
        self.steps.append((kernel, step, self.hc, seq[i], i, need))
        self.hc, self.grad = step.out, any(need)

    def end_pass(self) -> None:
        self.passes.append((self.steps, self.hc, self.grad))
        self.steps = []
        self.emitted.append(self.grad or any(self.head_need))

    def backward(self, g: np.ndarray, blocks: list[Tensor]) -> list:
        """``blocks``' gradients (None where not required) given ``g``, the predictions'."""
        (w, bias), (need_w, need_b) = self.head, self.head_need
        if self.kind == "all-at-once":                         # one (rows, horizon) head
            d_heads = [np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(self.rows, -1)]
        else:
            d_heads = [g[:, k].reshape(self.rows, -1) for k in range(g.shape[1])]
        grads: dict[int, np.ndarray] = {}

        def add(t, d):
            if d is not None:
                grads[id(t)] = grads[id(t)] + d if id(t) in grads else d

        d = None                  # the gradient of the state the later pass started from
        for steps, hc, grad in reversed(self.passes):
            d_head = d_heads.pop()
            add(w, hc[0].T @ d_head if need_w else None)
            add(bias, d_head.sum(axis=0) if need_b else None)
            if grad:
                d = np.zeros(hc.shape) if d is None else d
                d[0] += d_head @ self.head_w.T
            for kernel, step, hc_prev, x, i, need in reversed(steps):
                if not any(need):             # nor does any earlier step of the pass
                    break
                d, d_x, *d_cell = kernel.adjoint(step, d, (hc_prev, x), need)
                if d_x is not None:
                    d_heads[i - self.s] = d_heads[i - self.s] + d_x
                for t, dt in zip(kernel.cell.blocks("").values(), d_cell):
                    add(t, dt)
        return [grads.get(id(t)) for t in blocks]


def _consecutive(windows: np.ndarray) -> bool:
    """Whether each window is the previous one moved on one frame, bit for bit."""
    bits = windows.view(np.uint64)
    return np.array_equal(bits[1:, :-1], bits[:-1, 1:])


# ---------------------------------------------------------------------------
# forecasting entry points
# ---------------------------------------------------------------------------


def forecast_recursive(model: Forecaster, window: np.ndarray, horizons: int,
                       plan: InferencePlan | None = None) -> Forecast:
    """Feed each prediction back as the newest frame: horizon k consumes the
    last s entries of (window + predictions so far)."""
    plan = plan or InferencePlan(model)
    return Forecast(horizons=plan.run(window, horizons))


def predict_batch(model: Forecaster, x: np.ndarray, horizons: int,
                  prefix: list[np.ndarray] | None = None) -> np.ndarray:
    """(B, s, 21) -> (B, horizons, 21) on the tape-free kernel, PREDICT_CHUNK
    windows per pass; one-step models cover extra horizons recursively (from
    a frame pass over each chunk whose windows are consecutive) and nstep
    runs only its first ``horizons`` layers, from the ``prefix`` of the B
    windows where one is given.  Nothing is carried across chunks."""
    x = _check_batch(x, model.s)
    plan = InferencePlan(model)
    out = np.empty((len(x), horizons, NUM_SEGMENTS))
    for start in range(0, len(x), PREDICT_CHUNK):
        stop = start + PREDICT_CHUNK
        plan._forward(x[start:stop], out[start:stop], prefix_rows(prefix, start, stop))
    return out


def prefix_rows(prefix: list[np.ndarray] | None, start: int, stop: int):
    """The rows of windows start..stop-1 of both halves of each prefix entry
    (None stays None)."""
    return prefix and [hc[:, start * NUM_SEGMENTS:stop * NUM_SEGMENTS] for hc in prefix]


def fill_prefix(model: Forecaster, x: np.ndarray, held: list[np.ndarray],
                depth: int) -> list[np.ndarray]:
    """The first ``depth`` prefix entries of windows ``x``: the ``held``
    ones, then the rest, allocated and written here.  Entry k is layer k+1
    after the s frames, from entry k-1 (entry 0 from zero), on a plan's
    kernels and buffer, PREDICT_CHUNK windows per pass."""
    x = _check_batch(x, model.s)
    _check_prefix(depth, model.kind, len(model.layers))
    known = len(held)
    states = [*held, *(np.empty((2, len(x) * NUM_SEGMENTS, model.hidden))
                       for _ in range(known, depth))]
    plan = InferencePlan(model)
    b = plan.buf
    for start in range(0, len(x), PREDICT_CHUNK):
        windows = x[start:start + PREDICT_CHUNK]
        rows = prefix_rows(states, start, start + len(windows))
        b.resize(len(windows))
        b.reset()
        if known:
            b.load(rows[known - 1])
        frames = windows.transpose(1, 0, 2).reshape(model.s, len(windows) * b.tokens, -1)
        for k in range(known, depth):
            for xt in frames:
                plan.kernels[k].step(b, xt)
            b.save(rows[k])
    return states


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"MSOC"
_FORMAT_VERSION = 1


def serialize_model(model) -> bytes:
    """Versioned binary: magic, version, JSON header (kind, dims, block
    table), float64 little-endian payload, trailing crc32."""
    blocks = model.blocks()
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": model.kind,
        "dims": model.dims(),
        "blocks": [[name, list(t.data.shape)] for name, t in blocks.items()],
    }
    payload = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                       for t in blocks.values())
    return pack_container(_MAGIC, header, payload)


def pack_container(magic: bytes, header: dict, payload: bytes) -> bytes:
    """Magic, header length, JSON header, payload, trailing crc32."""
    head = json.dumps(header, sort_keys=True).encode()
    body = magic + len(head).to_bytes(4, "little") + head + payload
    return body + zlib.crc32(body).to_bytes(4, "little")


def unpack_container(blob, magic: bytes, what: str, checked: bool = False):
    """JSON header and payload of a ``pack_container`` blob, after checking
    its magic and, unless the caller has ``checked`` a crc32 that covers
    ``blob``, its checksum.  The payload is a ``memoryview`` of ``blob``:
    nothing is copied."""
    view = memoryview(blob)
    if len(view) < 12 or view[:4] != magic:
        raise ValueError(f"not a {what} (bad magic)")
    body, crc = view[:-4], int.from_bytes(view[-4:], "little")
    if not checked and zlib.crc32(body) != crc:
        raise ValueError(f"{what} corrupt (checksum mismatch)")
    head_len = int.from_bytes(view[4:8], "little")
    return json.loads(bytes(view[8:8 + head_len]).decode()), body[8 + head_len:]


def deserialize_model(blob, checked: bool = False) -> Forecaster:
    """The model in ``blob``, built straight from its checked payload with
    no init draw: one finiteness pass over the payload names the first
    block, in table order, that holds a non-finite value, and then each
    block is one copy of its slice.  A caller that has ``checked`` a crc32
    covering ``blob`` (a checkpoint's covers its model) skips the model
    container's own, over the same bytes."""
    kind, s, horizon, table, payload = _read_container(blob, checked)
    values = np.frombuffer(payload, dtype="<f8")
    ends = np.cumsum([math.prod(shape) for _, shape in table])
    finite = np.isfinite(values)
    if not finite.all():
        name = table[int(np.searchsorted(ends, np.argmin(finite), side="right"))][0]
        raise ValueError(f"model block {name!r} holds a non-finite value")
    parts: dict[str, list[Tensor]] = {}      # "layer1", ..., "head": blocks in table order
    for (name, shape), part in zip(table, np.split(values, ends[:-1])):
        parts.setdefault(name.split("/")[0], []).append(ad.parameter(part.reshape(shape)))
    head_w, head_b = parts.pop("head")
    return Forecaster(kind, [CellParams(*cell) for cell in parts.values()], head_w, head_b,
                      s, horizon)


def is_count(value) -> bool:
    return type(value) is int and value >= 0


def is_shape(value) -> bool:
    return isinstance(value, list) and all(is_count(d) for d in value)


def is_name(value) -> bool:
    return isinstance(value, str)


def rows_of(*columns):
    """Test for a list of rows, each a list whose entries pass the matching
    column test."""
    return lambda value: isinstance(value, list) and all(
        isinstance(row, list) and len(row) == len(columns)
        and all(ok(v) for ok, v in zip(columns, row)) for row in value)


def check_fields(header, where: str, **tests) -> None:
    """Raise a ValueError naming the first field of ``header`` that its test
    rejects (a missing field reads as None)."""
    for key, ok in tests.items():
        value = header.get(key) if isinstance(header, dict) else None
        if not ok(value):
            raise ValueError(f"{where}: field {key!r} is missing or malformed: {value!r:.60}")


def _read_container(blob, checked: bool):
    """Kind, s, horizon (1 for a one-step kind), the block table that the
    header's dims give, and payload, all checked against each other."""
    header, payload = unpack_container(blob, _MAGIC, "model container", checked)
    check_fields(header, "model header",
                 format_version=lambda v: is_count(v) and v == _FORMAT_VERSION,
                 kind=lambda v: v in MODEL_KINDS, dims=lambda v: isinstance(v, dict),
                 blocks=rows_of(is_name, is_shape))
    kind, dims = header["kind"], header["dims"]
    positive = lambda v: is_count(v) and v >= 1
    # s sizes the plan's (s + horizon, rows, .) buffers and no block, so bound it here
    tests = dict(s=lambda v: positive(v) and v <= MINUTES_PER_DAY, hidden=positive,
                 attn_width=is_count if kind in LSTM_KINDS else positive)
    if kind not in ONE_STEP_KINDS:
        tests["horizon"] = positive
    check_fields(dims, "model header dims", **tests)
    # the block table and the model grow with the dims, so they must
    # describe the payload first
    hidden, attn_width, horizon = dims["hidden"], dims["attn_width"], dims.get("horizon", 1)
    count = _shape(kind, hidden, attn_width, horizon)[-1]
    if count * 8 != len(payload):
        raise ValueError(f"model header: field 'dims' gives {count} parameters, but the "
                         f"payload's blocks take {len(payload)} bytes")
    check_dims(kind, dims["s"], hidden, attn_width, horizon)
    table = _block_table(kind, hidden, attn_width, horizon)
    if [(name, list(shape)) for name, shape in table] != \
            [(name, list(shape)) for name, shape in header["blocks"]]:
        raise ValueError("model header: field 'blocks' does not match the model structure")
    return kind, dims["s"], horizon, table, payload


def save_model(model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
