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

Every path runs the one cell step kernel, ``cells.StepKernel``.  The taped
``forward_graph``, for training only, records each cell step as a single tape
node (``cells.lstm_step`` / ``cells.sa_lstm_step``).  The tape-free
``InferencePlan`` drives the kernel on ``(rows, .)`` buffers allocated once,
for one window (the latency path) and, in ``predict_batch``, for
PREDICT_CHUNK windows per pass.  Tests pin the two paths to each other at
1e-12.  Both nstep unrolls can start from a ``Prefix``: the states that the
first layers reach before any prediction is fed back, kept by the staged
trainer while those layers are frozen.
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
    LstmState,
    SaLstmParams,
    StepBuffers,
    StepKernel,
    init_lstm_params,
    init_sa_lstm_params,
    lstm_step,
    sa_lstm_step,
    zero_state,
)
from .data import MINUTES_PER_DAY, NUM_SEGMENTS
from .seeding import block_rng

ONE_STEP_KINDS = ("lstm", "lstm-seg", "sa-lstm")
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


@dataclass
class OneStepModel:
    kind: str
    cell: LstmParams | SaLstmParams
    head_w: Tensor
    head_b: Tensor
    s: int

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    @property
    def attn_width(self) -> int:
        return self.cell.attn.proj_width if self.kind == "sa-lstm" else 0

    def blocks(self) -> dict[str, Tensor]:
        out = self.cell.blocks("layer1")
        out["head/w"] = self.head_w
        out["head/b"] = self.head_b
        return out

    def dims(self) -> dict:
        return {"s": self.s, "hidden": self.hidden, "attn_width": self.attn_width}

    def forward_graph(self, x) -> Tensor:
        """Batched taped forward: (B, s, 21) normalized -> (B, 21)."""
        x = _check_batch(x, self.s)
        B = x.shape[0]
        # the dense lstm reads a whole field as one token, the others one token per segment
        tokens, in_width = (1, NUM_SEGMENTS) if self.kind == "lstm" else (NUM_SEGMENTS, 1)
        rows = B * tokens
        state = zero_state(rows, self.hidden)
        for t in range(self.s):
            xt = ad.tensor(np.ascontiguousarray(x[:, t, :]).reshape(rows, in_width))
            if self.kind == "sa-lstm":
                state = sa_lstm_step(self.cell, state, xt, tokens=NUM_SEGMENTS)
            else:
                state = lstm_step(self.cell, state, xt)
        out = _head_apply(state.h, self.head_w, self.head_b)
        return ad.reshape(out, (B, NUM_SEGMENTS))


@dataclass
class AllAtOnceModel:
    cell: SaLstmParams
    head_w: Tensor
    head_b: Tensor
    s: int
    horizon: int
    kind: str = "all-at-once"

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    @property
    def attn_width(self) -> int:
        return self.cell.attn.proj_width

    def blocks(self) -> dict[str, Tensor]:
        out = self.cell.blocks("layer1")
        out["head/w"] = self.head_w
        out["head/b"] = self.head_b
        return out

    def dims(self) -> dict:
        return {"s": self.s, "hidden": self.hidden, "attn_width": self.attn_width,
                "horizon": self.horizon}

    def forward_graph(self, x) -> Tensor:
        """(B, s, 21) -> (B, horizon, 21); horizon k is head column k."""
        x = _check_batch(x, self.s)
        B = x.shape[0]
        rows = B * NUM_SEGMENTS
        state = zero_state(rows, self.hidden)
        for t in range(self.s):
            xt = ad.tensor(np.ascontiguousarray(x[:, t, :]).reshape(rows, 1))
            state = sa_lstm_step(self.cell, state, xt, tokens=NUM_SEGMENTS)
        out = _head_apply(state.h, self.head_w, self.head_b)   # (rows, horizon)
        grouped = ad.reshape(out, (B, NUM_SEGMENTS, self.horizon))
        return ad.transpose(grouped)                           # (B, horizon, 21)


# Layers 1 and 2 walk the input frames before they read any prediction (layer
# 2 starts from layer 1's terminal state); layer 3 starts from layer 2's
# terminal state, which has read prediction 1.  So a prefix has at most two
# entries.
MAX_PREFIX = 2


@dataclass
class Prefix:
    """States of an nstep window set that the leading layers reach before any
    prediction is fed back: entry i is layer i+1's packed ``(windows * 21,
    2H)`` ``[h | c]`` state after the s input frames (entry 0 is layer 1's
    terminal state).  An unroll starts layer i+1 from entry i for i <
    ``known`` and writes the later entries as it walks them."""

    states: list[np.ndarray]
    known: int = 0

    def rows(self, start: int, stop: int) -> "Prefix":
        return Prefix([hc[start:stop] for hc in self.states], self.known)


def _check_prefix(prefix: Prefix | None, layers: int) -> tuple[list[np.ndarray], int]:
    if prefix is None:
        return [], 0
    limit = min(layers, MAX_PREFIX)
    if len(prefix.states) > limit:
        raise ValueError(f"a prefix for a pass over {layers} nstep layers holds at most "
                         f"{limit} states, got {len(prefix.states)}")
    return prefix.states, prefix.known


@dataclass
class NStepModel:
    layers: list[SaLstmParams]
    head_w: Tensor
    head_b: Tensor
    s: int
    kind: str = "nstep"

    @property
    def horizon(self) -> int:
        return len(self.layers)

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def attn_width(self) -> int:
        return self.layers[0].attn.proj_width

    def blocks(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.blocks(f"layer{i + 1}"))
        out["head/w"] = self.head_w
        out["head/b"] = self.head_b
        return out

    def layer_block_names(self, index: int) -> list[str]:
        return list(self.layers[index].blocks(f"layer{index + 1}").keys())

    def dims(self) -> dict:
        return {"s": self.s, "hidden": self.hidden, "attn_width": self.attn_width,
                "horizon": self.horizon}

    def forward_graph(self, x) -> list[Tensor]:
        """(B, s, 21) -> one (B, 21) prediction tensor per horizon."""
        preds, _ = self.forward_graph_with_states(x)
        return preds

    def forward_graph_with_states(self, x, upto: int | None = None,
                                  prefix: Prefix | None = None):
        """Predictions and terminal states of the first ``upto`` layers.  A
        layer started from a ``prefix`` entry records nothing for its input
        frames: the entry is a tape constant."""
        x = _check_batch(x, self.s)
        B = x.shape[0]
        rows = B * NUM_SEGMENTS
        layers = self.layers[:upto]
        held, known = _check_prefix(prefix, len(layers))
        base = [ad.tensor(np.ascontiguousarray(x[:, t, :]).reshape(rows, 1))
                for t in range(self.s)]
        preds: list[Tensor] = []
        states: list[LstmState] = []
        state = zero_state(rows, self.hidden)
        for i, layer in enumerate(layers):
            if i < known:
                state = LstmState.packed(ad.tensor(held[i]))
            else:
                for xt in base:
                    state = sa_lstm_step(layer, state, xt, tokens=NUM_SEGMENTS)
                if i < len(held):
                    held[i][...] = state.hc.data
            for p in preds:
                state = sa_lstm_step(layer, state, ad.reshape(p, (rows, 1)), tokens=NUM_SEGMENTS)
            out = _head_apply(state.h, self.head_w, self.head_b)
            preds.append(ad.reshape(out, (B, NUM_SEGMENTS)))
            states.append(state)
        return preds, states


def build_model(kind: str, s: int = 8, hidden: int = 64, attn_width: int = 16,
                horizon: int = 3, seed: int = 0):
    """Construct a freshly initialised model of the given kind; parameter
    blocks draw name-keyed streams so shared block names agree across kinds."""
    if not 1 <= s <= MINUTES_PER_DAY:
        raise ValueError(f"window length s must be in 1..{MINUTES_PER_DAY}, got {s}")
    positive = {"hidden": hidden, "horizon": horizon}
    if kind not in ("lstm", "lstm-seg"):
        positive["attn_width"] = attn_width
    for name, value in positive.items():
        if value < 1:
            raise ValueError(f"model {name} must be >= 1, got {value}")
    if kind == "lstm":
        cell = init_lstm_params(hidden, NUM_SEGMENTS, seed, "layer1")
        w, b = _init_head(hidden, NUM_SEGMENTS, seed)
        return OneStepModel("lstm", cell, w, b, s)
    if kind == "lstm-seg":
        cell = init_lstm_params(hidden, 1, seed, "layer1")
        w, b = _init_head(hidden, 1, seed)
        return OneStepModel("lstm-seg", cell, w, b, s)
    if kind == "sa-lstm":
        cell = init_sa_lstm_params(hidden, attn_width, seed, "layer1")
        w, b = _init_head(hidden, 1, seed)
        return OneStepModel("sa-lstm", cell, w, b, s)
    if kind == "all-at-once":
        cell = init_sa_lstm_params(hidden, attn_width, seed, "layer1")
        w, b = _init_head(hidden, horizon, seed)
        return AllAtOnceModel(cell, w, b, s, horizon)
    if kind == "nstep":
        layers = [init_sa_lstm_params(hidden, attn_width, seed, f"layer{i + 1}")
                  for i in range(horizon)]
        w, b = _init_head(hidden, 1, seed)
        return NStepModel(layers, w, b, s)
    raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")


# ---------------------------------------------------------------------------
# tape-free forward: single-window plans and batched prediction
# ---------------------------------------------------------------------------

# Windows per predict_batch pass, chosen by measurement: 16-32 windows ran
# fastest on a 2-vCPU host with one BLAS thread.  At 32 windows x 21 rows
# each (rows, 64) buffer is ~344 KB, inside a 2 MiB L2.
PREDICT_CHUNK = 32


class InferencePlan:
    """Tape-free forward for a frozen parameter snapshot, ``groups`` windows
    per pass (one on the latency path, PREDICT_CHUNK in ``predict_batch``).

    Buffers are allocated once and reused, so a plan is not thread-safe;
    build one plan per thread.  Rebuild after parameters change.
    """

    def __init__(self, model, groups: int = 1):
        self.kind = model.kind
        self.s = model.s
        self.horizon = getattr(model, "horizon", 1)
        self.head_w = np.ascontiguousarray(model.head_w.data)
        self.head_b = model.head_b.data.copy()
        # the dense lstm reads a whole field as one token, the others one token per segment
        tokens, in_width = (1, NUM_SEGMENTS) if model.kind == "lstm" else (NUM_SEGMENTS, 1)
        self._buf = StepBuffers(groups, tokens, model.hidden, in_width, model.attn_width)
        cells = model.layers if model.kind == "nstep" else [model.cell]
        self.cells = [StepKernel(cell, self._buf) for cell in cells]
        # one (rows, in_width) input per step: the window's frames, then the
        # predictions fed back; grown when more horizons are asked for
        self._seq = np.empty((self.s + self.horizon, groups * tokens, in_width))

    def run(self, window: np.ndarray, horizons: int | None = None) -> np.ndarray:
        """(s, 21) normalized -> (horizons, 21) normalized; horizons defaults
        to the model's own (one row for one-step kinds, which recurse for
        more)."""
        window = _check_window(window, self.s)
        out = np.empty((1, self.horizon if horizons is None else horizons, NUM_SEGMENTS))
        self._forward(window[None], out)
        return out[0]

    def _forward(self, windows: np.ndarray, out: np.ndarray,
                 prefix: Prefix | None = None) -> None:
        """(G, s, 21) normalized windows, G <= groups -> out (G, horizons, 21).
        One-step kinds recurse: horizon k reads the last s entries of (window
        + predictions so far) from a zero state.  nstep layer k re-reads the
        window plus the earlier predictions from layer k-1's terminal state,
        or starts after the window from an nstep ``prefix`` entry."""
        groups, horizons = out.shape[:2]
        if horizons < 1:
            raise ValueError(f"horizons must be >= 1, got {horizons}")
        if self.kind not in ONE_STEP_KINDS and horizons > self.horizon:
            raise ValueError(f"model emits {self.horizon} horizons, {horizons} requested")
        nstep = self.kind == "nstep"
        if prefix is not None and not nstep:
            raise ValueError(f"only nstep unrolls start from a prefix, not {self.kind}")
        held, known = _check_prefix(prefix, horizons)
        if groups != self._buf.groups:
            self._buf.resize(groups)
        s, rows = self.s, groups * self._buf.tokens
        if len(self._seq) < s + horizons:
            self._seq = np.empty((s + horizons,) + self._seq.shape[1:])
        seq = self._seq[:, :rows]
        seq[:s] = windows.transpose(1, 0, 2).reshape(s, rows, -1)
        for k in range(1 if self.kind == "all-at-once" else horizons):
            cell = self.cells[k if nstep else 0]
            frames, fed = (seq[:s], seq[s:s + k]) if nstep else (seq[k:k + s], ())
            if k < known:
                cell.load(held[k])
            else:
                if k == 0 or not nstep:
                    cell.reset()
                for xt in frames:
                    cell.step(xt)
                if k < len(held):
                    cell.save(held[k])
            for xt in fed:
                cell.step(xt)
            head = cell.h @ self.head_w + self.head_b
            if self.kind == "all-at-once":                     # (rows, horizon)
                out[...] = head.reshape(groups, NUM_SEGMENTS, -1).transpose(0, 2, 1)[:, :horizons]
            else:
                seq[s + k] = head
                out[:, k] = head.reshape(groups, NUM_SEGMENTS)


# ---------------------------------------------------------------------------
# forecasting entry points
# ---------------------------------------------------------------------------


def forecast_recursive(model: OneStepModel, window: np.ndarray, horizons: int,
                       plan: InferencePlan | None = None) -> Forecast:
    """Feed each prediction back as the newest frame: horizon k consumes the
    last s entries of (window + predictions so far)."""
    plan = plan or InferencePlan(model)
    return Forecast(horizons=plan.run(window, horizons))


def predict_batch(model, x: np.ndarray, horizons: int,
                  prefix: Prefix | None = None) -> np.ndarray:
    """(B, s, 21) -> (B, horizons, 21) on the tape-free kernel, PREDICT_CHUNK
    windows per pass; one-step models cover extra horizons recursively and
    nstep runs only its first ``horizons`` layers, from the ``prefix`` of the
    B windows where one is given."""
    x = _check_batch(x, model.s)
    plan = InferencePlan(model, groups=max(1, min(PREDICT_CHUNK, len(x))))
    out = np.empty((len(x), horizons, NUM_SEGMENTS))
    for start in range(0, len(x), PREDICT_CHUNK):
        stop = start + PREDICT_CHUNK
        part = prefix and prefix.rows(start * NUM_SEGMENTS, stop * NUM_SEGMENTS)
        plan._forward(x[start:stop], out[start:stop], part)
    return out


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
                 attn_width=is_count if kind in ("lstm", "lstm-seg") else positive)
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
    attn = dims["attn_width"] if kind not in ("lstm", "lstm-seg") else 0
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
