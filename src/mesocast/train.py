"""Optimization harness.

Training is full-batch: one AdamW update per epoch over every training
window, bitwise reproducible from (seed, corpus, config).  Gradients are
evaluated in chunks of ``grad_chunk`` windows (32 by default, so a chunk's
per-step arrays stay cache-sized) and accumulated in a fixed order, so
chunking bounds memory without breaking determinism; each chunk's tape is
freed before the next is built.  A chunk's loss (``_stage_loss``) is the
same for every model kind: the model's one unroll, taped up to the last
horizon of the stage as one node whose adjoint walks its schedule backwards
(``models``), then the combined loss of each of the stage's horizons at
pyramid depth ``lap_depth``, summed in horizon order.  Validation runs the
unroll tape-free (``models.predict_batch``).  Model selection and the
plateau schedule read the easy validation metric.  In-run validation scores
every ``val_stride``-th window of the easy series and of each hard window.
The hard metric is only recorded (``metrics.csv`` and the checkpoint
history), and ``evaluate``, which ``mesocast eval`` and the post-train
report run, scores every hard window.

Every kind trains by ``train_model`` walking the ``Stage`` list of
``schedule``.  Most kinds have one stage over every block and horizon.  The
stacked model has one per layer, where stage i updates layer i plus the
shared head against horizon i only and every other layer stays bitwise
frozen, then a stage that unfreezes everything under the summed loss.
A stage hands its ``trainable`` set down to the unroll, which takes no
weight products for the other blocks and skips a layer whose inputs are all
frozen (layer 1 in stages 2..n); the trainable gradients are bitwise those
of the all-trainable unroll, and no block's gradient flag is ever written.

What the frozen layers compute without the head is computed once per
schedule, in a ``PrefixStore`` of one ``models`` prefix per window set
(training, easy, each hard set): from stage 2 on, layer 1's terminal state;
from stage 3 on, also layer 2's state after the input frames.  The store
holds entries and never sizes one: ``models.fill_prefix`` allocates and
fills the missing ones tape-free, from the held ones, when a set first asks
for them: the training set in a stage's first epoch, a validation set in
the previous stage's last validation, which runs on the parameters this
stage freezes.  Unrolls only read entries, a taped chunk its rows.  Entries
are keyed by digests of the frozen layers' bytes, and the store is dropped
before the first stage that trains every block; a resumed run starts with it
empty.  Results are bitwise those of walking every step.

The learning rate is replayed from the validation history on every epoch
(never stored), so resuming from a checkpoint cannot drift.  A non-finite
loss raises before the optimizer steps, so a diverged run can be resumed.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Corpus, build_windows, normalize, stack_windows
from .evaluate import per_horizon_mse
from .losses import combined_loss
from .models import (MAX_PREFIX, Forecaster, check_fields, deserialize_model, fill_prefix,
                     is_count, is_name, is_shape, pack_container, prefix_rows, rows_of,
                     serialize_model, unpack_container)
from .runtime import tune_allocator


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite; carries the run
    at the last finite epoch's parameter and optimizer state."""

    def __init__(self, message: str, run: "TrainRun"):
        super().__init__(message)
        self.run = run


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 1e-4
    plateau_patience: int = 3
    lr_decay_factor: float = 10.0
    epochs_per_stage: int = 48
    seed: int = 0
    validate_every: int = 4
    lap_depth: int = 3                # pyramid loss depth; 0 trains on the mse alone
    train_stride: int = 24            # keep every k-th training window
    val_stride: int = 8               # in-run validation subsampling of easy and each hard set
    grad_chunk: int = 32              # windows per taped chunk (cache locality)
    finetune_lr_scale: float = 0.1    # base lr multiplier for the unfrozen stage

    def __post_init__(self):
        # each message starts with the fields it names; NaN fails every bound
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if not 1 < self.lr_decay_factor < math.inf:
            raise ValueError(f"lr_decay_factor must be finite and > 1, got {self.lr_decay_factor}")
        for name in ("epochs_per_stage", "lap_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("validate_every", "grad_chunk", "train_stride", "val_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.finetune_lr_scale < math.inf:
            raise ValueError("finetune_lr_scale must be positive and finite, "
                             f"got {self.finetune_lr_scale}")
        if not 0 < self.lr * self.finetune_lr_scale < math.inf:
            raise ValueError("lr and finetune_lr_scale must give a positive, finite fine-tune "
                             f"rate, got {self.lr} * {self.finetune_lr_scale}")


@dataclass
class MetricRecord:
    epoch: int
    lr: float
    train_loss: float
    easy: float | None = None
    hard: float | None = None


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


class AdamW:
    """Decoupled weight decay: param *= (1 - lr*wd) independently of the
    bias-corrected moment update, with the usual fixed moment rates and
    epsilon."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, cfg: TrainConfig):
        self.weight_decay = cfg.weight_decay
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, blocks: dict[str, Tensor], grads: dict[str, np.ndarray], lr: float) -> None:
        for name, param in blocks.items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != param.data.shape:
                raise ValueError(
                    f"adamw: gradient shape {g.shape} != parameter shape "
                    f"{param.data.shape} for {name}"
                )
            if name not in self.m:
                self.m[name] = np.zeros_like(param.data)
                self.v[name] = np.zeros_like(param.data)
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            m, v = self.m[name], self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            m_hat = m / (1.0 - self.BETA1 ** t)
            v_hat = v / (1.0 - self.BETA2 ** t)
            param.data *= 1.0 - lr * self.weight_decay
            param.data -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)


# ---------------------------------------------------------------------------
# plateau scheduler (pure replay)
# ---------------------------------------------------------------------------


def plateau_lr(history: list[float], cfg: TrainConfig, base_lr: float | None = None) -> float:
    """Current learning rate as a pure function of the metric history: decay
    by ``lr_decay_factor`` once ``plateau_patience`` consecutive validations
    fail to improve the best seen value by at least 1e-12; the stall counter
    resets on improvement and on decay, the best value never resets."""
    lr = cfg.lr if base_lr is None else base_lr
    best = np.inf
    bad = 0
    for metric in history:
        if metric < best - 1e-12:
            best = metric
            bad = 0
        else:
            bad += 1
            if bad >= cfg.plateau_patience:
                lr /= cfg.lr_decay_factor
                bad = 0
    return lr


# ---------------------------------------------------------------------------
# data staging and metrics
# ---------------------------------------------------------------------------


@dataclass
class StagedData:
    x: np.ndarray                    # (B, s, 21) normalized
    y: np.ndarray                    # (B, horizon, 21) normalized
    easy: tuple[np.ndarray, np.ndarray]
    hard: list[tuple[np.ndarray, np.ndarray]]


def stage_corpus(corpus: Corpus, s: int, horizon: int, cfg: TrainConfig) -> StagedData:
    """Normalized windows: every ``train_stride``-th training window, and
    every ``val_stride``-th window of the easy series and of each hard
    window for in-run validation (``evaluate`` scores all of them)."""
    x, y = stack_windows(build_windows(corpus.train, s, horizon)[::cfg.train_stride])
    ex, ey = stack_windows(build_windows(corpus.easy, s, horizon)[::cfg.val_stride])
    hard = []
    for series in corpus.hard:
        hx, hy = stack_windows(build_windows(series, s, horizon)[::cfg.val_stride])
        hard.append((normalize(hx), normalize(hy)))
    return StagedData(x=normalize(x), y=normalize(y),
                      easy=(normalize(ex), normalize(ey)), hard=hard)


def validation_metrics(model, staged: StagedData, horizons: Sequence[int],
                       prefixes: PrefixStore | None = None,
                       depth: int = 0) -> tuple[float, float]:
    """Easy and mean hard metric, each the mean over ``horizons`` of the
    normalized MSE; an nstep model's window sets start from the first
    ``depth`` entries of their ``prefixes``."""
    sets = [("easy", staged.easy)] + [(f"hard{i}", h) for i, h in enumerate(staged.hard)]
    mse = []
    for name, (x, y) in sets:
        prefix = prefixes and prefixes.states(name, x, depth)
        per_horizon = per_horizon_mse(model, x, y, max(horizons), prefix)
        mse.append(float(np.mean([per_horizon[h - 1] for h in horizons])))
    return mse[0], float(np.mean(mse[1:]))


# ---------------------------------------------------------------------------
# the frozen nstep prefix
# ---------------------------------------------------------------------------


class PrefixStore:
    """Frozen nstep prefixes, one per window set (``train``, ``easy``,
    ``hard{i}``), so that a stage walks each frozen layer's frames once, not
    every epoch.  Entry i of a set is held with a digest of the bytes of layer
    i+1 and is read only while layers 1..i+1 all match their digests."""

    def __init__(self, model: Forecaster):
        self.model = model
        self._sets: dict[str, list[tuple[bytes, np.ndarray]]] = {}

    def states(self, name: str, x: np.ndarray, depth: int) -> list[np.ndarray]:
        """The first ``depth`` prefix entries of window set ``name``, whose
        windows are ``x``: the held ones that are still valid, then the rest,
        filled by ``models.fill_prefix`` and held.  The arrays are read-only."""
        digests = [hashlib.blake2b(b"".join(t.data.tobytes() for t in layer.blocks("").values()))
                   .digest() for layer in self.model.layers[:depth]]
        held = self._sets.get(name, [])
        known = 0
        while known < min(len(held), depth) and held[known][0] == digests[known]:
            known += 1
        states = [hc for _, hc in held[:known]]
        if known < depth:
            states = fill_prefix(self.model, x, states, depth)
            for hc in states:
                hc.flags.writeable = False
            self._sets[name] = list(zip(digests, states))
        return states


# ---------------------------------------------------------------------------
# gradient evaluation
# ---------------------------------------------------------------------------


def _stage_loss(model, x_chunk, y_chunk, depth: int, horizons: Sequence[int],
                prefix: list[np.ndarray] | None = None, trainable: frozenset[str] | None = None):
    """Summed per-horizon combined loss at pyramid depth ``depth`` over one
    taped chunk, unrolled up to the last of ``horizons`` (an nstep chunk from
    ``prefix``) with gradients for the ``trainable`` blocks (None = every
    block).  It calls ``forward_graph_with_states`` itself, so a tracer
    wrapping ``forward_graph`` as well sees one forward per chunk."""
    preds, _ = model.forward_graph_with_states(x_chunk, upto=max(horizons), prefix=prefix,
                                               trainable=trainable)
    total = None
    for h in horizons:
        term = combined_loss(preds[h - 1], y_chunk[:, h - 1, :], depth)
        total = term if total is None else ad.add(total, term)
    return total


def _accumulate_gradients(model, blocks, x, y, cfg: TrainConfig, horizons: Sequence[int],
                          prefixes: PrefixStore | None = None, depth: int = 0,
                          trainable: frozenset[str] | None = None):
    """Loss value and the gradients of the ``trainable`` blocks (None = every
    block) over the given windows, evaluated in fixed chunks; exact full-set
    mean via chunk-size weighting.  The ``prefixes`` store hands over the
    first ``depth`` entries of the training windows' prefix once, and an
    nstep chunk starts from its rows."""
    total = x.shape[0]
    grads: dict[str, np.ndarray] = {}
    loss_value = 0.0
    held = prefixes and prefixes.states("train", x, depth)
    for start in range(0, total, cfg.grad_chunk):
        stop = start + cfg.grad_chunk
        xc, yc = x[start:stop], y[start:stop]
        for t in blocks.values():
            t.grad = None
        prefix = prefix_rows(held, start, stop)
        loss = _stage_loss(model, xc, yc, cfg.lap_depth, horizons, prefix, trainable)
        loss = ad.scale(loss, xc.shape[0] / total)
        ad.backward(loss)
        loss_value += loss.item()
        del loss            # free this chunk's tape before the next one is built
        for name, t in blocks.items():
            if t.grad is None:
                continue
            if name in grads:
                grads[name] = grads[name] + t.grad
            else:
                grads[name] = t.grad
    return loss_value, grads


# ---------------------------------------------------------------------------
# runs and checkpoints
# ---------------------------------------------------------------------------


@dataclass
class TrainRun:
    model: object
    optimizer: AdamW
    history: list[MetricRecord]
    epoch: int = 0
    best_metric: float = np.inf
    best_params: dict[str, np.ndarray] | None = None

    def monitored_history(self, epochs_lo: int = 0,
                          epochs_hi: int | None = None) -> list[float]:
        """Easy validation metrics recorded in epochs (epochs_lo, epochs_hi]."""
        return [rec.easy for rec in self.history
                if rec.easy is not None and rec.epoch > epochs_lo
                and (epochs_hi is None or rec.epoch <= epochs_hi)]


def _snapshot(blocks: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in blocks.items()}


def _restore(blocks: dict[str, Tensor], snap: dict[str, np.ndarray]) -> None:
    for name, t in blocks.items():
        t.data[...] = snap[name]


def config_fingerprint(cfg: TrainConfig) -> str:
    payload = {
        k: (v.hex() if isinstance(v, float) else v)
        for k, v in vars(cfg).items() if k != "lap_depth"
    }
    # retired options, hashed at the only values they still have, so that
    # checkpoints written while they were settable keep resuming; the loss
    # was [depth, lap_weight, padding]
    payload.update(full_batch=True, batch_size=256, monitor="easy", beta1=AdamW.BETA1.hex(),
                   beta2=AdamW.BETA2.hex(), eps=AdamW.EPS.hex(),
                   loss=[cfg.lap_depth, (1.0).hex(), "zero"])
    return f"{zlib.crc32(json.dumps(payload, sort_keys=True).encode()):08x}"


_CKPT_MAGIC = b"MSCK"


def save_checkpoint(run: TrainRun, cfg: TrainConfig, path) -> None:
    """Model + optimizer moments + metric history + epoch; floats stored as
    hex so the resumed run replays bitwise."""
    model_blob = serialize_model(run.model)
    opt_names = sorted(run.optimizer.m)
    best_names = sorted(run.best_params) if run.best_params else []
    header = {
        "config": config_fingerprint(cfg),
        "epoch": run.epoch,
        "best_metric": float(run.best_metric).hex(),
        "history": [
            [r.epoch, r.lr.hex(), r.train_loss.hex(),
             None if r.easy is None else r.easy.hex(),
             None if r.hard is None else r.hard.hex()]
            for r in run.history
        ],
        "opt": [[n, list(run.optimizer.m[n].shape), run.optimizer.t[n]] for n in opt_names],
        "best": [[n, list(run.best_params[n].shape)] for n in best_names],
        "model_len": len(model_blob),
    }
    payload = [model_blob]
    for n in opt_names:
        payload.append(np.ascontiguousarray(run.optimizer.m[n], dtype="<f8").tobytes())
        payload.append(np.ascontiguousarray(run.optimizer.v[n], dtype="<f8").tobytes())
    for n in best_names:
        payload.append(np.ascontiguousarray(run.best_params[n], dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(pack_container(_CKPT_MAGIC, header, b"".join(payload)))


def _is_hex(value) -> bool:
    try:
        return isinstance(float.fromhex(value), float)
    except (TypeError, ValueError, OverflowError):
        return False


def load_checkpoint(path, cfg: TrainConfig) -> TrainRun:
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = unpack_container(blob, _CKPT_MAGIC, "checkpoint")
    hex_or_none = lambda v: v is None or _is_hex(v)
    check_fields(header, "checkpoint header", config=is_name, epoch=is_count,
                 best_metric=_is_hex,
                 history=rows_of(is_count, _is_hex, _is_hex, hex_or_none, hex_or_none),
                 opt=rows_of(is_name, is_shape, is_count), best=rows_of(is_name, is_shape),
                 model_len=is_count)
    if header["config"] != config_fingerprint(cfg):
        raise ValueError("checkpoint was produced under a different training config")
    model_len = header["model_len"]
    model = deserialize_model(payload[:model_len], checked=True)   # the checkpoint's crc covers it
    shapes = {name: t.data.shape for name, t in model.blocks().items()}
    for key in ("opt", "best"):
        rows = {row[0]: tuple(row[1]) for row in header[key]}
        # moments cover the blocks that have stepped, a best snapshot every block
        if not rows.items() <= shapes.items() or key == "best" and 0 < len(rows) < len(shapes):
            raise ValueError(f"checkpoint header: field {key!r} does not match the model's blocks")
    described = model_len + 8 * (sum(2 * math.prod(shape) for _, shape, _ in header["opt"])
                                 + sum(math.prod(shape) for _, shape in header["best"]))
    if described != len(payload):
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, "
                         f"header describes {described}")
    values = np.frombuffer(payload, dtype="<f8", offset=model_len)
    offset = 0

    def take(key, name, shape):
        nonlocal offset
        start, offset = offset, offset + math.prod(shape)
        arr = values[start:offset].reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint field {key!r}: block {name!r} holds a non-finite value")
        return arr.copy()

    opt = AdamW(cfg)
    for name, shape, t in header["opt"]:
        opt.m[name], opt.v[name] = take("opt", name, shape), take("opt", name, shape)
        opt.t[name] = t
    best = {name: take("best", name, shape) for name, shape in header["best"]}
    history = [
        MetricRecord(epoch=e, lr=float.fromhex(lr), train_loss=float.fromhex(tl),
                     easy=None if easy is None else float.fromhex(easy),
                     hard=None if hard is None else float.fromhex(hard))
        for e, lr, tl, easy, hard in header["history"]
    ]
    return TrainRun(model=model, optimizer=opt, history=history, epoch=header["epoch"],
                    best_metric=float.fromhex(header["best_metric"]),
                    best_params=best or None)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """Epochs (first, last] of a schedule: the loss sums ``horizons``, only
    ``trainable`` (None = every block) is differentiated and stepped, from
    ``base_lr``, and the plateau replay reads this stage's validations only.
    Its unrolls start from the first ``depths[0]`` prefix entries of their
    window set, and its last validation from ``depths[1]``, which covers
    what the next stage reuses."""

    first: int
    last: int
    horizons: tuple[int, ...]
    trainable: frozenset[str] | None
    base_lr: float
    depths: tuple[int, int] = (0, 0)


def schedule(model: Forecaster, cfg: TrainConfig) -> list[Stage]:
    """One stage on every horizon, or for ``nstep`` one stage per layer (the
    layer and the shared head on its own horizon) and then a fine-tune stage
    of every block on every horizon at a reduced base rate."""
    n, e = model.horizon, cfg.epochs_per_stage
    every = tuple(range(1, n + 1))
    if model.kind != "nstep":
        return [Stage(0, e, every, None, cfg.lr)]
    stages = []
    for i in range(n):
        # one prefix entry per frozen leading layer; the last validation also
        # fills the entry the next layer stage freezes
        depth = min(i, MAX_PREFIX)
        handoff = min(i + 1, MAX_PREFIX) if i + 1 < n else depth
        trainable = frozenset(model.layers[i].blocks(f"layer{i + 1}")) | {"head/w", "head/b"}
        stages.append(Stage(i * e, (i + 1) * e, (i + 1,), trainable, cfg.lr, (depth, handoff)))
    return stages + [Stage(n * e, (n + 1) * e, every, None, cfg.lr * cfg.finetune_lr_scale)]


def _run_epochs(staged: StagedData, cfg: TrainConfig, run: TrainRun, stage: Stage,
                prefixes: PrefixStore | None = None) -> None:
    """Advance ``run`` through the epochs of ``stage`` it has not run yet,
    taking gradients of ``stage.trainable`` alone and writing no flag of the
    model's blocks.  Only a stage that trains every block on every horizon
    may set the best model: a layer stage's metric covers one horizon, so it
    is not comparable.  A non-finite loss raises before the optimizer steps,
    so the run keeps the last finite epoch's state and stays resumable."""
    model = run.model
    blocks = model.blocks()
    for epoch in range(max(run.epoch, stage.first) + 1, stage.last + 1):
        lr = plateau_lr(run.monitored_history(stage.first, stage.last), cfg, stage.base_lr)
        loss_value, grads = _accumulate_gradients(
            model, blocks, staged.x, staged.y, cfg, stage.horizons, prefixes, stage.depths[0],
            stage.trainable)
        if not np.isfinite(loss_value):
            run.epoch = epoch - 1
            raise DivergenceError(
                f"training loss became non-finite at epoch {epoch}; "
                "parameters and optimizer left at the last finite epoch", run)
        run.optimizer.step(blocks, grads, lr)
        record = MetricRecord(epoch=epoch, lr=lr, train_loss=loss_value)
        if epoch % cfg.validate_every == 0 or epoch == stage.last:
            easy, hard = validation_metrics(model, staged, stage.horizons, prefixes,
                                            stage.depths[epoch == stage.last])
            record.easy, record.hard = easy, hard
            if stage.trainable is None and easy < run.best_metric:
                run.best_metric = easy
                run.best_params = _snapshot(blocks)
        run.history.append(record)
        run.epoch = epoch


def train_model(model: Forecaster, corpus: Corpus, cfg: TrainConfig,
                resume: TrainRun | None = None) -> TrainRun:
    """Train ``model`` (or continue ``resume``) through ``schedule``; a run
    that never validated keeps its final parameters as the best."""
    tune_allocator()
    run = resume or TrainRun(model=model, optimizer=AdamW(cfg), history=[])
    model = run.model
    staged = stage_corpus(corpus, model.s, model.horizon, cfg)
    prefixes = PrefixStore(model)
    for stage in schedule(model, cfg):
        if stage.trainable is None:
            prefixes = None          # nothing is frozen, so free the held states
        _run_epochs(staged, cfg, run, stage, prefixes)
    if run.best_params is None:
        run.best_params = _snapshot(model.blocks())
        if run.history:
            run.best_metric = run.history[-1].train_loss
    return run


# The benchmark calls and wraps the trainer under these two names; its next
# version (ROADMAP item 1) drops them with the model aliases.
train_one_step_model = train_nstep = train_model


def best_model(run: TrainRun):
    """Copy of the run's model carrying the best validated parameters."""
    blob = serialize_model(run.model)
    model = deserialize_model(blob)
    if run.best_params is not None:
        _restore(model.blocks(), run.best_params)
    return model
