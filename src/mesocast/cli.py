"""Operator entry point.

Subcommands: ``generate`` (synthetic corpus to CSV), ``train`` (fit a model,
write best weights, checkpoint and metric history), ``eval`` (per-horizon
easy/hard table for one or more checkpoints), ``forecast`` (three-minute
prediction from an input CSV), ``bench`` (latency protocol with a budget
gate).

Every command is driven by an INI config (see ``config.py``) with a handful
of flag overrides (``_FLAG_KEYS``), resolves file paths against ``--out``
(or the ``MESOCAST_OUT`` environment variable), and drops a manifest
recording the seed and the resolved-config hash next to its outputs.
``main`` makes the output directory and loads the config, flags applied,
before it hands both to the command.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure (training
divergence, or a model whose output in ``train``'s report, ``eval``,
``forecast`` or ``bench`` is not finite); ``bench`` additionally exits 1
when the median latency exceeds the budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as D
from . import evaluate as E
from .config import EvaluationSection, RunConfig, config_hash, load_config
from .runtime import tune_allocator
from .models import MODEL_KINDS, ONE_STEP_KINDS, InferencePlan, build_model, load_model, save_model
from .seeding import block_rng
from .train import DivergenceError, best_model, save_checkpoint, train_model

OUT_ENV = "MESOCAST_OUT"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# flag (argparse dest) -> the <section>.<key> settings it overrides
_FLAG_KEYS = {"days": ["data.train_days"], "seed": ["data.seed", "training.seed"],
              "model": ["model.kind"], "n": ["model.horizon"],
              "epochs": ["training.epochs_per_stage"], "lap_depth": ["training.lap_depth"],
              "iters": ["evaluation.iters"], "warmup": ["evaluation.warmup"],
              "budget": ["evaluation.budget_ms"]}


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for flag, keys in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            for key in keys:
                section, name = key.split(".")
                setattr(getattr(cfg, section), name, value)
    cfg.validate()          # the flags too, before any file is read
    return cfg


def _write_manifest(out: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "seed": cfg.data.seed if command == "generate" else cfg.training.seed,
        "config_sha256": config_hash(cfg),
        "outputs": sorted(outputs),
    }
    with open(out / f"{command}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _corpus_paths(cfg: RunConfig, out: Path) -> list[Path]:
    """The corpus CSVs in ``Corpus`` order: train, easy, each hard window."""
    return [out / cfg.data.train_csv, out / cfg.data.easy_csv,
            *(out / f"{cfg.data.hard_csv_prefix}{i}.csv" for i in range(cfg.data.hard_windows))]


def _read(reader, path):
    """``reader(path)`` (a CSV or a model file), with a rejection that names
    ``path``."""
    try:
        return reader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_consecutive(path, minutes: np.ndarray, first: int = 0) -> None:
    """Reject a minute gap among ``minutes``, rows ``first``.. of the CSV at
    ``path``, naming the first line whose minute does not follow the
    previous row's.  Minutes strictly increase, so adding one cannot wrap."""
    gaps = np.flatnonzero(minutes[:-1] + 1 != minutes[1:])
    if len(gaps):
        row = int(gaps[0]) + 1
        raise ValueError(f"{path}: line {first + row + 2}: minute {int(minutes[row])} "
                         f"follows minute {int(minutes[row - 1])}")


def _read_series(path) -> D.Series:
    """The minute-consecutive series in the CSV at ``path``."""
    series = _read(D.read_csv, path)
    _check_consecutive(path, series.minutes)
    return series


def _load_corpus(cfg: RunConfig, out: Path, train: bool) -> D.Corpus:
    """The easy series and the hard windows, all that evaluation reads, and
    first, with ``train``, the train series."""
    train_csv, easy_csv, *hard_csvs = _corpus_paths(cfg, out)
    return D.Corpus(train=_read_series(train_csv) if train else None,
                    easy=_read_series(easy_csv),
                    hard=[_read_series(path) for path in hard_csvs])


def _check_frames(cfg: RunConfig, out: Path, corpus: D.Corpus, frames: int, need: str) -> None:
    """Reject a series of ``corpus`` with fewer than the ``frames`` frames of
    one window and its targets, which ``need`` names, naming its CSV."""
    for path, series in zip(_corpus_paths(cfg, out), [corpus.train, corpus.easy, *corpus.hard]):
        if series is not None and len(series) < frames:
            raise ValueError(f"{path} holds {len(series)} frames, fewer than the {frames} "
                             f"that {need} need")


def _build_model(cfg: RunConfig):
    return build_model(**asdict(cfg.model), seed=cfg.training.seed)


def _load_for_horizons(path, horizons: int):
    """The model at ``path``, checked to reach ``[evaluation] horizons``: a
    one-step kind recurses to any horizon, a multi-step one emits its own."""
    model = _read(load_model, path)
    if model.kind not in ONE_STEP_KINDS and horizons > model.horizon:
        raise ValueError(f"evaluation.horizons = {horizons} exceeds the {model.horizon} horizons "
                         f"that the {model.kind} model {path} emits")
    return model


def _finite(path, values):
    """``values`` if finite (finite weights can still overflow), else an error naming ``path``."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"model {path} computed a non-finite value")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args, out: Path, cfg: RunConfig) -> int:
    corpus = D.make_corpus(cfg.ctm_config(), cfg.corpus_sizes())
    paths = _corpus_paths(cfg, out)
    for path, series in zip(paths, [corpus.train, corpus.easy, *corpus.hard]):
        D.write_csv(series, path)
    # the manifest names train and easy as configured, the hard windows by file name
    outputs = [cfg.data.train_csv, cfg.data.easy_csv, *(path.name for path in paths[2:])]
    _write_manifest(out, "generate", cfg, outputs)
    print(f"wrote {len(corpus.train)} train, {len(corpus.easy)} easy frames and "
          f"{len(corpus.hard)} hard windows to {out}")
    return 0


def _write_metrics_csv(history, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,lr,train_loss,easy_mse,hard_mse\n")
        for rec in history:
            easy = "" if rec.easy is None else format(rec.easy * E.MSE_DISPLAY_SCALE, ".9g")
            hard = "" if rec.hard is None else format(rec.hard * E.MSE_DISPLAY_SCALE, ".9g")
            fh.write(f"{rec.epoch},{format(rec.lr, '.9g')},"
                     f"{format(rec.train_loss, '.9g')},{easy},{hard}\n")


def cmd_train(args, out: Path, cfg: RunConfig) -> int:
    train_cfg = cfg.train_config()
    corpus = _load_corpus(cfg, out, train=True)
    model = _build_model(cfg)
    _check_frames(cfg, out, corpus, model.s + model.horizon,
                  f"model.s = {model.s} plus {model.horizon} horizon(s)")
    ckpt_path = out / cfg.training.checkpoint_out
    try:
        run = train_model(model, corpus, train_cfg)
    except DivergenceError as exc:
        save_checkpoint(exc.run, train_cfg, ckpt_path)
        print(f"training diverged: {exc}; last checkpoint at {ckpt_path}", file=sys.stderr)
        return 3
    best = best_model(run)
    model_path = out / cfg.training.model_out
    save_model(best, model_path)
    save_checkpoint(run, train_cfg, ckpt_path)
    _write_metrics_csv(run.history, out / cfg.training.metrics_csv)
    with np.errstate(over="ignore", invalid="ignore"):
        report = E.evaluate(best, corpus, horizons=best.horizon)
    _finite(model_path, [report.easy_mse_scaled, report.hard_mse_scaled])  # means keep a NaN
    for line in E.report_lines(best.kind, report):
        print(line)
    _write_manifest(out, "train", cfg, [cfg.training.model_out,
                                        cfg.training.checkpoint_out,
                                        cfg.training.metrics_csv])
    return 0


def cmd_eval(args, out: Path, cfg: RunConfig) -> int:
    corpus = _load_corpus(cfg, out, train=False)
    checkpoints = args.checkpoint or [str(out / cfg.evaluation.checkpoint)]
    horizons = cfg.evaluation.horizons
    loaded = [(path, _load_for_horizons(path, horizons)) for path in checkpoints]
    s = max(model.s for _, model in loaded)
    _check_frames(cfg, out, corpus, s + horizons,
                  f"the model's s = {s} plus evaluation.horizons = {horizons}")
    rows = []
    for path, model in loaded:
        with np.errstate(over="ignore", invalid="ignore"):
            report = E.evaluate(model, corpus, horizons=horizons)
        _finite(path, [v for vals in report.per_horizon.values() for v in vals.values()])
        rows.append((Path(path).stem, model.kind, report))
        for line in E.report_lines(f"{Path(path).stem} [{model.kind}]", report):
            print(line)
    report_path = out / cfg.evaluation.report_csv
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("model,kind,horizon,easy_mse_x1e3,hard_mse_x1e3\n")
        for name, kind, report in rows:
            for h, vals in sorted(report.per_horizon.items()):
                fh.write(f"{name},{kind},{h},{format(vals['easy'], '.9g')},"
                         f"{format(vals['hard'], '.9g')}\n")
    _write_manifest(out, "eval", cfg, [cfg.evaluation.report_csv])
    return 0


def cmd_forecast(args, out: Path, cfg: RunConfig) -> int:
    horizons = cfg.evaluation.horizons
    path = args.checkpoint or (out / cfg.evaluation.checkpoint)
    model = _load_for_horizons(path, horizons)
    series = _read(D.read_csv, args.input)
    if len(series) < model.s:
        raise ValueError(f"input has {len(series)} frames, model needs {model.s}")
    at = args.at if args.at is not None else int(series.minutes[-1])
    idx = np.nonzero(series.minutes == at)[0]
    if len(idx) == 0:
        raise ValueError(f"minute {at} not present in input")
    if at > np.iinfo(np.int64).max - horizons:
        raise ValueError(f"minute {at}: a {horizons}-minute forecast passes the int64 limit")
    end = int(idx[0]) + 1
    if end < model.s:
        raise ValueError(f"only {end} frames end at minute {at}, model needs {model.s}")
    window_mph = series.speeds[end - model.s:end]
    _check_consecutive(args.input, series.minutes[end - model.s:end], end - model.s)

    window = D.normalize(window_mph)
    plan = InferencePlan(model)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        preds = plan.run(window, horizons)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    # clamp only at the export boundary
    preds = np.clip(_finite(path, preds), 0.0, 1.0)
    forecast_series = D.Series(
        minutes=at + np.arange(1, 1 + preds.shape[0]),
        speeds=D.denormalize(preds),
    )
    out_path = Path(args.output) if args.output else out / "forecast.csv"
    D.write_csv(forecast_series, out_path)
    print(f"forecast minutes {at + 1}..{at + preds.shape[0]} written to {out_path} "
          f"(model forward {elapsed_ms:.3f} ms)")
    _write_manifest(out, "forecast", cfg, [out_path.name])
    return 0


def cmd_bench(args, out: Path, cfg: RunConfig) -> int:
    horizons = cfg.evaluation.horizons
    path = args.checkpoint or (out / cfg.evaluation.checkpoint)
    model = _load_for_horizons(path, horizons)
    rng = block_rng(cfg.training.seed, "bench/window")
    window = rng.uniform(0.1, 1.0, (model.s, D.NUM_SEGMENTS))
    with np.errstate(over="ignore", invalid="ignore"):
        _finite(path, InferencePlan(model).run(window, horizons))
    ms = E.latency_ms(model, window, cfg.evaluation.warmup, cfg.evaluation.iters, horizons)
    p50, p99 = np.percentile(ms, [50, 99])
    budget = cfg.evaluation.budget_ms
    verdict = "PASS" if p50 < budget else "FAIL"
    print(f"{model.kind}: p50 {p50:.4f} ms  p99 {p99:.4f} ms  mean {ms.mean():.4f} ms  "
          f"cv {ms.std() / ms.mean():.3f} over {cfg.evaluation.iters} {horizons}-minute "
          f"forecasts (warmup {cfg.evaluation.warmup}); p50 against budget {budget} ms "
          f"-> {verdict}")
    return 0 if p50 < budget else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesocast",
        description="Mesoscale traffic forecasting: data generation, training, "
                    "evaluation, forecasting and latency benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI run config (defaults apply when omitted)")
        p.add_argument("--out", help=f"output directory (or ${OUT_ENV}, default '.')")
        p.add_argument("--seed", type=int, help="override data+training seed")

    p = sub.add_parser("generate", help="write synthetic train/easy/hard CSVs")
    common(p)
    p.add_argument("--days", type=int, help="override number of training days")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    common(p)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--n", type=int, help="horizon count for nstep/all-at-once")
    p.add_argument("--epochs", type=int, help="epochs (per stage for nstep)")
    p.add_argument("--lap-depth", dest="lap_depth", type=int,
                   help="pyramid loss depth (0 disables)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on a corpus")
    common(p)
    p.add_argument("--checkpoint", action="append",
                   help="model file; repeat for a side-by-side comparison table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", help="predict the next minutes from an input CSV")
    common(p)
    p.add_argument("--input", required=True, help="input series CSV")
    p.add_argument("--at", type=int, help="forecast from this minute (default: last)")
    p.add_argument("--checkpoint", help="model file (default from config)")
    p.add_argument("--output", help="forecast CSV path (default <out>/forecast.csv)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("bench", help="latency distribution with a p50 budget gate")
    common(p)
    p.add_argument("--checkpoint", help="model file (default from config)")
    defaults = EvaluationSection()
    p.add_argument("--iters", type=int, help=f"timed inferences (default {defaults.iters})")
    p.add_argument("--warmup", type=int, help=f"untimed inferences (default {defaults.warmup})")
    p.add_argument("--budget", type=float,
                   help=f"p50 pass/fail threshold in ms (default {defaults.budget_ms})")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    tune_allocator()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _out_dir(args), _load_run_config(args))
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, FloatingPointError) else 2


if __name__ == "__main__":
    sys.exit(main())
