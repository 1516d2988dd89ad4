"""Span tracer for the benchmark's traced run.

The tracer wraps mesocast's public functions from the outside, in every
module that binds them, so a call made through any importer opens a span.
A span records its name, start, end and parent; spans stay in memory and are
written out once the run ends.  Counts (tape nodes, cell steps, rows read,
...) are taken at the same boundaries.  Nothing in mesocast is modified:
``installed`` patches the bindings and restores them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

from mesocast import autodiff, cells, cli, data, evaluate, losses, models, train


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._nstep: dict | None = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")

    # -- nstep stages ------------------------------------------------------
    # Full-batch training takes one AdamW step per epoch, so the n-th step
    # inside a train_nstep call closes epoch n and names its stage.  Time up
    # to each step or validation is charged to the stage of the epoch it
    # belongs to.

    def nstep_begin(self, layers: int, epochs_per_stage: int) -> None:
        self._nstep = {"layers": layers, "per_stage": max(epochs_per_stage, 1),
                       "steps": 0, "mark": self.clock()}

    def nstep_mark(self, stepped: bool) -> None:
        ctx = self._nstep
        if ctx is None:
            return
        ctx["steps"] += stepped
        now = self.clock()
        stage = min(max(ctx["steps"] - 1, 0) // ctx["per_stage"], ctx["layers"])
        key = ("train.nstep_finetune_s" if stage == ctx["layers"]
               else f"train.nstep_stage{stage + 1}_s")
        self.counts[key] += now - ctx["mark"]
        ctx["mark"] = now

    def nstep_end(self) -> None:
        self.nstep_mark(False)
        self._nstep = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.end - s.start - covered)
    return out


def tape_size(root) -> tuple[int, int]:
    """Nodes and bytes of the taped graph ``backward`` would walk from ``root``."""
    seen: set[int] = set()
    stack = [root]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += 1
        nbytes += t.data.nbytes
        stack.extend(p for p in getattr(t, "_parents", ()) if p.requires_grad)
    return nodes, nbytes


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _wrap(tracer: Tracer, fn, name, before=None, after=None):
    """``name`` is a span name or a callable choosing one at call time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        index = tracer.begin(name(tracer) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _count(key, amount=1):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result) if callable(amount) else amount
    return after


def _count_tape(tracer, args, kwargs):
    nodes, nbytes = tape_size(_arg(args, kwargs, 0, "root"))
    tracer.counts["autodiff.backward_calls"] += 1
    tracer.counts["autodiff.tape_nodes"] += nodes
    tracer.counts["autodiff.tape_bytes"] += nbytes


def _corpus_minutes(corpus) -> int:
    return len(corpus.train) + len(corpus.easy) + sum(len(h) for h in corpus.hard)


def _scored_windows(args, kwargs, result) -> int:
    model, corpus = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "corpus")
    horizons = len(result.per_horizon)
    series = [corpus.easy, *corpus.hard]
    return sum(len(s) - model.s - horizons + 1 for s in series)


def _nstep_begin(tracer, args, kwargs):
    model, cfg = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 2, "cfg")
    tracer.nstep_begin(model.horizon, cfg.epochs_per_stage)


def _nstep_end(tracer, args, kwargs, run):
    tracer.nstep_end()
    tracer.counts["train.epochs"] += run.epoch


def _forward_name(tracer):
    # predict_batch runs forward_graph on detached tensors; only the taped
    # calls count as the training forward
    if tracer.inside("models.predict_batch"):
        return "models.forward_untaped"
    return "models.forward_graph"


def _patch_table():
    """(defining module or class, attribute, every module or class binding
    it, span name, hooks)."""
    stepped = lambda tr, a, k, r: tr.nstep_mark(True)
    validated = lambda tr, a, k, r: tr.nstep_mark(False)
    epochs = _count("train.epochs", lambda a, k, run: run.epoch)
    return [
        (data, "make_corpus", [data], "data.make_corpus",
         None, _count("data.minutes_simulated", lambda a, k, c: _corpus_minutes(c))),
        (data, "write_csv", [data], "data.write_csv", None, None),
        (data, "read_csv", [data], "data.read_csv",
         None, _count("data.csv_rows", lambda a, k, s: len(s))),
        (data, "build_windows", [data, train, evaluate], "data.windows", None, None),
        (data, "stack_windows", [data, train, evaluate], "data.windows", None, None),
        (autodiff, "backward", [autodiff], "autodiff.backward", _count_tape, None),
        (cells, "lstm_step", [cells, models], "cells.lstm_step",
         None, _count("cells.steps")),
        (cells, "sa_lstm_step", [cells, models], "cells.sa_lstm_step",
         None, _count("cells.steps")),
        (cells, "self_attention", [cells], "cells.self_attention", None, None),
        (losses, "combined_loss", [losses, train], "losses.combined_loss",
         None, _count("losses.calls")),
        (models.OneStepModel, "forward_graph", [models.OneStepModel], _forward_name,
         None, None),
        (models.AllAtOnceModel, "forward_graph", [models.AllAtOnceModel], _forward_name,
         None, None),
        (models.NStepModel, "forward_graph_with_states", [models.NStepModel],
         _forward_name, None, None),
        (models, "predict_batch", [models, evaluate], "models.predict_batch", None, None),
        (models.InferencePlan, "run", [models.InferencePlan], "models.plan_run",
         None, _count("models.plan_runs")),
        (models.InferencePlan, "__init__", [models.InferencePlan], "models.plan_build",
         None, None),
        (models, "serialize_model", [models, train], "models.save", None, None),
        (models, "deserialize_model", [models, train], "models.load", None, None),
        (train.AdamW, "step", [train.AdamW], "train.optimizer", None, stepped),
        (train, "validation_metrics", [train], "train.validation", None, validated),
        (train, "train_one_step_model", [train, cli], "train.train_one_step_model",
         None, epochs),
        (train, "train_nstep", [train, cli], "train.train_nstep", _nstep_begin, _nstep_end),
        (train, "save_checkpoint", [train, cli], "train.checkpoint", None, None),
        (train, "load_checkpoint", [train, cli], "train.checkpoint", None, None),
        (evaluate, "evaluate", [evaluate], "evaluate.evaluate",
         None, _count("evaluate.windows", _scored_windows)),
        (cli, "cmd_generate", [cli], "cli.generate", None, None),
        (cli, "cmd_eval", [cli], "cli.eval", None, None),
        (cli, "cmd_forecast", [cli], "cli.forecast", None, None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call into the wrapped functions through ``tracer`` for
    the duration of the block."""
    restore = []
    try:
        for home, attr, owners, name, before, after in _patch_table():
            original = getattr(home, attr)
            wrapper = _wrap(tracer, original, name, before, after)
            for owner in owners:
                if owner is not home and getattr(owner, attr, None) is not original:
                    continue   # this module no longer binds the function
                restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round; tape sizes are means per backward
    call."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_time in zip(tracer.spans, self_times(tracer.spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_time
    c = tracer.counts
    calls = c["autodiff.backward_calls"]
    per_round = {
        "data.simulate_s": total["data.make_corpus"],
        "data.minutes_simulated": c["data.minutes_simulated"],
        "data.write_csv_s": total["data.write_csv"],
        "data.read_csv_s": total["data.read_csv"],
        "data.csv_rows": c["data.csv_rows"],
        "data.windows_s": total["data.windows"],
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls,
        "cells.lstm_step_s": total["cells.lstm_step"],
        "cells.self_attention_s": total["cells.self_attention"],
        "cells.sa_lstm_step_s": own["cells.sa_lstm_step"],
        "cells.steps": c["cells.steps"],
        "losses.combined_loss_s": total["losses.combined_loss"],
        "losses.calls": c["losses.calls"],
        "models.forward_graph_s": own["models.forward_graph"],
        "models.predict_batch_s": total["models.predict_batch"],
        "models.plan_run_s": total["models.plan_run"],
        "models.plan_runs": c["models.plan_runs"],
        "models.plan_build_s": total["models.plan_build"],
        "models.load_s": total["models.load"],
        "models.save_s": total["models.save"],
        "train.optimizer_s": total["train.optimizer"],
        "train.validation_s": total["train.validation"],
        "train.epochs": c["train.epochs"],
        "train.nstep_stage1_s": c["train.nstep_stage1_s"],
        "train.nstep_stage2_s": c["train.nstep_stage2_s"],
        "train.nstep_stage3_s": c["train.nstep_stage3_s"],
        "train.nstep_finetune_s": c["train.nstep_finetune_s"],
        "train.checkpoint_s": total["train.checkpoint"],
        "evaluate.evaluate_s": total["evaluate.evaluate"],
        "evaluate.windows": c["evaluate.windows"],
        "cli.generate_s": total["cli.generate"],
        "cli.eval_s": total["cli.eval"],
        "cli.forecast_s": total["cli.forecast"],
        "trace.spans": float(len(tracer.spans)),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out["autodiff.tape_nodes"] = c["autodiff.tape_nodes"] / calls if calls else 0.0
    out["autodiff.tape_mb"] = c["autodiff.tape_bytes"] / calls / 2**20 if calls else 0.0
    return out
