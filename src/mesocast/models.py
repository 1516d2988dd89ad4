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
every kind.  The kinds differ only in their data: ``layers`` has one cell
(``nstep``: one per horizon), the head has one column per segment token
(``all-at-once``: one per horizon, split with ``narrow``), and ``horizon``
counts what one unroll emits, 1 for the one-step kinds.  The names
``OneStepModel``, ``AllAtOnceModel`` and ``NStepModel`` are aliases of it
that the benchmark's tracer still binds.

Every path runs the one cell step kernel, ``cells.StepKernel``, one per
layer per pass, on one step schedule, ``_schedule``: which entries of
(window frames + predictions) pass k walks, which it reads as fed
predictions, and whether it starts from zero.  The taped unroll,
``Forecaster.forward_graph_with_states``, serves training only: it prepares
each layer's kernel once and records each step of it as a single tape node
(``cells.lstm_step`` / ``cells.sa_lstm_step``) on the packed ``[h | c]``
state tensor, whose first H columns the head reads.  The tape-free
``InferencePlan`` hands its one ``cells.StepBuffers`` to every layer's
kernel, for one window (the latency path) and, in ``predict_batch``, for
PREDICT_CHUNK windows per pass; it alone recurses a one-step kind past its
own horizon.  Tests pin the two paths to each other at 1e-12.  Both nstep
unrolls can start from a prefix, the states that frozen first layers reach
before any prediction is fed back; they only read it, ``fill_prefix``
allocates and writes it, and only this module spells its layout.

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
from .cells import (
    LstmParams,
    SaLstmParams,
    StepBuffers,
    StepKernel,
    init_lstm_params,
    init_sa_lstm_params,
    lstm_step,
    sa_lstm_step,
)
from .data import MAX_ARRAY_VALUES, MINUTES_PER_DAY, NUM_SEGMENTS
from .seeding import block_rng

LSTM_KINDS = ("lstm", "lstm-seg")          # plain LSTM cells, no attention
ONE_STEP_KINDS = LSTM_KINDS + ("sa-lstm",)
MODEL_KINDS = ONE_STEP_KINDS + ("all-at-once", "nstep")


@dataclass
class Forecast:
    """Normalized horizon predictions."""

    horizons: np.ndarray                     # (n, NUM_SEGMENTS)


def _init_head(hidden: int, width: int, seed: int) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(hidden)
    w = ad.parameter(block_rng(seed, "head/w").uniform(-bound, bound, (hidden, width)))
    b = ad.parameter(np.zeros(width))
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


def _head_apply(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add_bias(ad.matmul(h, w), b)


# Entry k of an nstep prefix is layer k+1's packed (windows * 21, 2H) [h | c]
# state after the s frames, where an unroll starts layer k+1.  Layer 3 starts
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


def _schedule(kind: str, s: int, k: int) -> tuple[slice, slice, bool]:
    """Pass k of an unroll over ``seq`` = the s window frames, then the
    predictions in order: the entries it walks from its start state, the fed
    predictions it then reads, and whether it starts from zero.  nstep layer
    k re-reads every frame and the k earlier predictions from layer k-1's
    state; pass k of a one-step recursion reads the last s entries from
    zero."""
    if kind == "nstep":
        return slice(0, s), slice(s, s + k), k == 0
    return slice(k, s), slice(max(s, k), s + k), True


@dataclass
class Forecaster:
    """Every model kind: ``layers`` holds one cell (``nstep``: one per
    horizon), ``horizon`` counts the horizons one unroll emits (1 for the
    one-step kinds, which recurse for more)."""

    kind: str
    layers: list[LstmParams | SaLstmParams]
    head_w: Tensor
    head_b: Tensor
    s: int
    horizon: int

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def attn_width(self) -> int:
        return 0 if self.kind in LSTM_KINDS else self.layers[0].attn.proj_width

    @property
    def layout(self) -> tuple[int, int]:
        """(tokens, in_width) of one window: the dense lstm reads a whole field
        as one token, the others one token per segment."""
        return (1, NUM_SEGMENTS) if self.kind == "lstm" else (NUM_SEGMENTS, 1)

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
                                  prefix: list[np.ndarray] | None = None):
        """Taped unroll of the first ``upto`` layers on the ``_schedule`` the
        plan runs: predictions in horizon order and each layer's terminal
        state.  A layer started from a ``prefix`` entry records nothing for
        its input frames: the entry is a tape constant."""
        x = _check_batch(x, self.s)
        B, s = x.shape[0], self.s
        tokens, in_width = self.layout
        rows = B * tokens
        layers = self.layers[:upto]
        held = prefix or []
        _check_prefix(len(held), self.kind, len(layers))
        # the (rows, in_width) frames, then the (B, 21) predictions
        seq = [ad.tensor(np.ascontiguousarray(x[:, t, :]).reshape(rows, in_width))
               for t in range(s)]
        # horizons per head application: all-at-once emits one per head column
        columns = self.head_w.shape[1] // in_width
        states: list[Tensor] = []        # packed (rows, 2H) [h | c]
        for k, layer in enumerate(layers):
            kernel = StepKernel(layer)     # the tape keeps this one copy of the weights
            walk, fed, fresh = _schedule(self.kind, s, k)
            if k < len(held):
                state = ad.tensor(held[k])
            else:
                if fresh:
                    state = ad.tensor(np.zeros((rows, 2 * self.hidden)))
                for xt in seq[walk]:
                    state = self._step(kernel, state, xt)
            for p in seq[fed]:
                state = self._step(kernel, state, ad.reshape(p, (rows, in_width)))
            out = _head_apply(ad.narrow(state, 1, 0, self.hidden), self.head_w, self.head_b)
            parts = [out] if columns == 1 else [ad.narrow(out, 1, j, 1) for j in range(columns)]
            seq += [ad.reshape(part, (B, NUM_SEGMENTS)) for part in parts]
            states.append(state)
        return seq[s:], states

    def _step(self, kernel: StepKernel, state: Tensor, xt: Tensor) -> Tensor:
        # the module-level names, so a wrapper installed there (a tracer) sees each step
        if self.kind in LSTM_KINDS:
            return lstm_step(kernel, state, xt)
        return sa_lstm_step(kernel, state, xt, tokens=NUM_SEGMENTS)


# The benchmark's tracer wraps forward_graph under two of these names and
# forward_graph_with_states under the third; the benchmark's next version
# (ROADMAP item 1) drops them, and this line goes with it.
OneStepModel = AllAtOnceModel = NStepModel = Forecaster


# a model holds at most MAX_ARRAY_VALUES parameters; training keeps several
# copies (gradients, two AdamW moments, the best snapshot)
MAX_PARAMETERS = MAX_ARRAY_VALUES


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
    in_width = NUM_SEGMENTS if kind == "lstm" else 1
    layer = 4 * hidden * (hidden + in_width + 1)
    if kind not in LSTM_KINDS:
        layer += 4 * hidden * attn_width                # q, k, v and the output projection
    layers = horizon if kind == "nstep" else 1
    width = {"lstm": NUM_SEGMENTS, "all-at-once": horizon}.get(kind, 1)
    count = layers * layer + (hidden + 1) * width
    if count > MAX_PARAMETERS:
        names = [name for name in ("hidden", "attn_width") if name in sized]
        names += ["horizon"] if kind in ("nstep", "all-at-once") else []
        raise ValueError(f"{' and '.join(names)} must keep the model within {MAX_PARAMETERS} "
                         f"parameters, got {count}")


def build_model(kind: str, s: int = 8, hidden: int = 64, attn_width: int = 16,
                horizon: int = 3, seed: int = 0) -> Forecaster:
    """Construct a freshly initialised model of the given kind; parameter
    blocks draw name-keyed streams so shared block names agree across kinds."""
    check_dims(kind, s, hidden, attn_width, horizon)
    names = [f"layer{i + 1}" for i in range(horizon if kind == "nstep" else 1)]
    if kind in LSTM_KINDS:
        in_width = NUM_SEGMENTS if kind == "lstm" else 1
        layers = [init_lstm_params(hidden, in_width, seed, name) for name in names]
    else:
        layers = [init_sa_lstm_params(hidden, attn_width, seed, name) for name in names]
    width = {"lstm": NUM_SEGMENTS, "all-at-once": horizon}.get(kind, 1)
    w, b = _init_head(hidden, width, seed)
    return Forecaster(kind, layers, w, b, s, 1 if kind in ONE_STEP_KINDS else horizon)


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
                 prefix: list[np.ndarray] | None = None) -> None:
        """(G, s, 21) normalized windows -> out (G, horizons, 21).
        One-step kinds recurse: horizon k reads the last s entries of (window
        + predictions so far) from a zero state, or, when the G windows are
        consecutive, starts after its real frames from the state a frame pass
        left (``_frame_starts``) and walks only its k fed predictions.  nstep
        layer k re-reads the window plus the earlier predictions from layer
        k-1's terminal state, or starts after the window from an nstep
        ``prefix`` entry."""
        groups, horizons = out.shape[:2]
        if horizons < 1:
            raise ValueError(f"horizons must be >= 1, got {horizons}")
        if self.kind not in ONE_STEP_KINDS and horizons > self.horizon:
            raise ValueError(f"model emits {self.horizon} horizons, {horizons} requested")
        held = prefix or []
        _check_prefix(len(held), self.kind, horizons)
        b, s = self.buf, self.s
        rows = groups * b.tokens
        recursive = self.kind in ONE_STEP_KINDS
        reach = min(horizons, s)         # horizons that read a real frame
        # a one-row walk (one dense lstm window) stays on the zero-start path:
        # a one-row product takes another BLAS routine than the frame pass's
        # multi-row ones, so its bits would change
        if recursive and reach > 1 and rows > 1 and _consecutive(windows):
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
            else:
                if fresh:
                    b.reset()
                for xt in seq[walk]:
                    kernel.step(b, xt)
            for xt in seq[fed]:
                kernel.step(b, xt)
            head = b.h @ self.head_w + self.head_b
            if self.kind == "all-at-once":                     # (rows, horizon)
                out[...] = head.reshape(groups, NUM_SEGMENTS, -1).transpose(0, 2, 1)[:, :horizons]
            else:
                seq[s + k] = head
                out[:, k] = head.reshape(groups, NUM_SEGMENTS)

    def _frame_starts(self, windows: np.ndarray, reach: int) -> list[np.ndarray]:
        """States of G consecutive windows after their real frames, for the
        first ``reach`` horizons of a one-step recursion: entry k holds, per
        window j, the packed state after frames k..s-1 from zero.  Those are
        window j+k's first s-k frames, so one frame pass from zero over the
        G windows and the reach-1 later starts inside the last window gives
        every entry: entry k is the pass after s-k steps, k groups on.  Once
        entry k is saved, start G-1+k is read no more, so the pass drops it:
        start G-1+k steps over s-k frames and none steps past the last."""
        groups, b, kernel = len(windows), self.buf, self.kernels[0]
        s, tokens = self.s, b.tokens
        # the G + s - 1 frames the windows cut, row j+t being frame t of window j
        series = np.concatenate([windows[:, 0], windows[-1, 1:]])
        states = np.empty((reach, groups * tokens, 2 * b.hidden))
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
    """The rows of windows start..stop-1 of each prefix entry (None stays None)."""
    return prefix and [hc[start * NUM_SEGMENTS:stop * NUM_SEGMENTS] for hc in prefix]


def fill_prefix(model: Forecaster, x: np.ndarray, held: list[np.ndarray],
                depth: int) -> list[np.ndarray]:
    """The first ``depth`` prefix entries of windows ``x``: the ``held``
    ones, then the rest, allocated and written here.  Entry k is layer k+1
    after the s frames, from entry k-1 (entry 0 from zero), on a plan's
    kernels and buffer, PREDICT_CHUNK windows per pass."""
    x = _check_batch(x, model.s)
    _check_prefix(depth, model.kind, len(model.layers))
    known = len(held)
    states = [*held, *(np.empty((len(x) * NUM_SEGMENTS, 2 * model.hidden))
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


def unpack_container(blob: bytes, magic: bytes, what: str):
    """JSON header and payload of a ``pack_container`` blob, after checking
    its magic and checksum."""
    if len(blob) < 12 or blob[:4] != magic:
        raise ValueError(f"not a {what} (bad magic)")
    body, crc = blob[:-4], int.from_bytes(blob[-4:], "little")
    if zlib.crc32(body) != crc:
        raise ValueError(f"{what} corrupt (checksum mismatch)")
    head_len = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8:8 + head_len].decode()), body[8 + head_len:]


def deserialize_model(blob: bytes, expect_kind: str | None = None):
    header, dims, payload = _read_container(blob, expect_kind)
    model = build_model(header["kind"], seed=0, **dims)
    _fill_blocks(model, header["blocks"], payload)
    return model


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


def _read_container(blob: bytes, expect_kind: str | None):
    """Header, the build_model dims it names, and payload, all checked."""
    header, payload = unpack_container(blob, _MAGIC, "model container")
    check_fields(header, "model header",
                 format_version=lambda v: is_count(v) and v == _FORMAT_VERSION,
                 kind=lambda v: v in MODEL_KINDS, dims=lambda v: isinstance(v, dict),
                 blocks=rows_of(is_name, is_shape))
    kind, dims = header["kind"], header["dims"]
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"model kind mismatch: container holds {kind!r}, expected {expect_kind!r}")
    positive = lambda v: is_count(v) and v >= 1
    # s sizes the plan's (s + horizon, rows, .) buffers and no block, so bound it here
    tests = dict(s=lambda v: positive(v) and v <= MINUTES_PER_DAY, hidden=positive,
                 attn_width=is_count if kind in LSTM_KINDS else positive)
    if kind not in ONE_STEP_KINDS:
        tests["horizon"] = positive
    check_fields(dims, "model header dims", **tests)
    expected = sum(math.prod(shape) for _, shape in header["blocks"]) * 8
    if len(payload) != expected:
        raise ValueError(f"payload truncated: {len(payload)} bytes, expected {expected}")
    # build_model allocates from the dims, so bound them by the payload first:
    # each layer holds 4 gates of at least (hidden x hidden) and 4 attention
    # projections of (hidden x attn_width), the head (hidden x head columns)
    hidden = dims["hidden"]
    attn = dims["attn_width"] if kind not in LSTM_KINDS else 0
    layers = dims["horizon"] if kind == "nstep" else 1
    head = dims["horizon"] if kind == "all-at-once" else 1
    floor = max(4 * hidden * hidden * layers, 4 * hidden * attn * layers, hidden * head)
    if floor * 8 > len(payload):
        raise ValueError(f"model header: field 'dims' needs at least {floor} parameters, "
                         f"the payload holds {len(payload) // 8}")
    return header, {key: dims[key] for key in tests}, payload


def _fill_blocks(model, block_table, payload: bytes) -> None:
    blocks = model.blocks()
    if [(name, list(shape)) for name, shape in block_table] != \
            [(name, list(t.shape)) for name, t in blocks.items()]:
        raise ValueError("model header: field 'blocks' does not match the model structure")
    offset = 0
    for name, shape in block_table:
        n = int(np.prod(shape)) * 8
        arr = np.frombuffer(payload[offset:offset + n], dtype="<f8").reshape(shape)
        blocks[name].data[...] = arr
        offset += n


def save_model(model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path, expect_kind: str | None = None):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read(), expect_kind)
