"""Directional comparison experiments.

The published accuracy numbers for this task come from a proprietary feed,
so desk-scale runs on the synthetic corpus reproduce orderings rather than
values: attention should help on the congested validation windows, the
band-pass loss should help there too, and direct multi-step heads should
beat recursive feedback at the far horizon.  Each experiment trains the
involved models across seeds and returns per-seed metric rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Corpus
from .evaluate import EvalReport, evaluate
from .losses import LossConfig
from .models import build_model
from .train import TrainConfig, best_model, train_model

DEFAULT_MODEL = dict(s=8, hidden=64, attn_width=16)


@dataclass
class TrainedEntry:
    seed: int
    kind: str
    lap_depth: int
    model: object
    report: EvalReport


def _with_seed(cfg: TrainConfig, seed: int, lap_depth: int) -> TrainConfig:
    return replace(cfg, seed=seed,
                   loss=LossConfig(pyramid_depth=lap_depth,
                                   lap_weight=cfg.loss.lap_weight,
                                   padding_mode=cfg.loss.padding_mode))


def train_entry(kind: str, corpus: Corpus, seed: int, cfg: TrainConfig,
                lap_depth: int = 0, horizon: int = 1,
                eval_horizons: int = 1) -> TrainedEntry:
    model = build_model(kind, horizon=horizon, seed=seed, **DEFAULT_MODEL)
    best = best_model(train_model(model, corpus, _with_seed(cfg, seed, lap_depth)))
    report = evaluate(best, corpus, horizons=eval_horizons)
    return TrainedEntry(seed=seed, kind=kind, lap_depth=lap_depth, model=best,
                        report=report)


def attention_ablation(corpus: Corpus, seeds, cfg: TrainConfig):
    """Plain dense LSTM against the attention-augmented model, no pyramid
    term; one-minute horizon."""
    rows = []
    for seed in seeds:
        lstm = train_entry("lstm", corpus, seed, cfg, lap_depth=0)
        sa = train_entry("sa-lstm", corpus, seed, cfg, lap_depth=0)
        rows.append({
            "seed": seed,
            "lstm_easy": lstm.report.easy_mse_scaled,
            "lstm_hard": lstm.report.hard_mse_scaled,
            "sa_easy": sa.report.easy_mse_scaled,
            "sa_hard": sa.report.hard_mse_scaled,
            "sa_entry": sa,
        })
    return rows


def pyramid_ablation(corpus: Corpus, seeds, cfg: TrainConfig, depth: int = 3,
                     baseline_rows=None):
    """Attention model with and without the band-pass term; reuses the
    no-pyramid models from the attention ablation when provided."""
    rows = []
    for i, seed in enumerate(seeds):
        if baseline_rows is not None:
            base = baseline_rows[i]["sa_entry"]
        else:
            base = train_entry("sa-lstm", corpus, seed, cfg, lap_depth=0)
        lap = train_entry("sa-lstm", corpus, seed, cfg, lap_depth=depth)
        rows.append({
            "seed": seed,
            "plain_easy": base.report.easy_mse_scaled,
            "plain_hard": base.report.hard_mse_scaled,
            "lap_easy": lap.report.easy_mse_scaled,
            "lap_hard": lap.report.hard_mse_scaled,
            "lap_entry": lap,
        })
    return rows


def multistep_comparison(corpus: Corpus, seeds, cfg: TrainConfig, horizon: int = 3,
                         lap_depth: int = 3):
    """Recursive one-step feedback vs the all-at-once head vs the stacked
    model, all evaluated out to ``horizon`` minutes."""
    rows = []
    for seed in seeds:
        one = train_entry("sa-lstm", corpus, seed, cfg, lap_depth=lap_depth,
                          eval_horizons=horizon)
        aao = train_entry("all-at-once", corpus, seed, cfg, lap_depth=lap_depth,
                          horizon=horizon, eval_horizons=horizon)
        nstep = train_entry("nstep", corpus, seed, cfg, lap_depth=lap_depth,
                            horizon=horizon, eval_horizons=horizon)
        rows.append({
            "seed": seed,
            "recursive": one.report.per_horizon,
            "all_at_once": aao.report.per_horizon,
            "nstep": nstep.report.per_horizon,
        })
    return rows


def format_attention_rows(rows) -> list[str]:
    out = ["seed  lstm(easy/hard)    sa-lstm(easy/hard)"]
    for r in rows:
        out.append(f"{r['seed']:4d}  {r['lstm_easy']:.3f} / {r['lstm_hard']:.3f}"
                   f"      {r['sa_easy']:.3f} / {r['sa_hard']:.3f}")
    return out


def format_pyramid_rows(rows) -> list[str]:
    out = ["seed  no-lap(easy/hard)  lap3(easy/hard)"]
    for r in rows:
        out.append(f"{r['seed']:4d}  {r['plain_easy']:.3f} / {r['plain_hard']:.3f}"
                   f"      {r['lap_easy']:.3f} / {r['lap_hard']:.3f}")
    return out


def format_multistep_rows(rows) -> list[str]:
    out = ["seed  method        t+1(e/h)        t+2(e/h)        t+3(e/h)"]
    for r in rows:
        for method in ("recursive", "all_at_once", "nstep"):
            cells = "  ".join(
                f"{r[method][h]['easy']:.2f}/{r[method][h]['hard']:.2f}"
                for h in sorted(r[method]))
            out.append(f"{r['seed']:4d}  {method:12s}  {cells}")
    return out
