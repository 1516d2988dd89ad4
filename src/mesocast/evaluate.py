"""Metrics and the latency benchmark.

Reported MSE follows the display convention of the accuracy tables: the raw
mean squared error on normalized speeds multiplied by 1000.  The hard metric
evaluates each congested window independently and averages the per-window
values, scored by the chunked tape-free ``models.predict_batch``.  The
latency benchmark times the bare model forward on one fixed window (no
normalisation, no I/O) with an untimed warmup, single process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Corpus, Series, build_windows, normalize, stack_windows
from .models import InferencePlan, predict_batch
from .runtime import tune_allocator

MSE_DISPLAY_SCALE = 1000.0


@dataclass
class EvalReport:
    easy_mse_scaled: float                     # mean over evaluated horizons
    hard_mse_scaled: float                     # mean over horizons and hard windows
    per_horizon: dict[int, dict[str, float]]   # horizon -> {"easy": ..., "hard": ...}
    hard_per_window: list[dict[int, float]]    # per hard window, horizon -> scaled MSE


def _per_horizon_mse(model, series: Series, s: int, horizons: int) -> dict[int, float]:
    x, y = stack_windows(build_windows(series, s, horizons))
    x, y = normalize(x), normalize(y)
    preds = predict_batch(model, x, horizons)
    out = {}
    for h in range(1, horizons + 1):
        d = preds[:, h - 1] - y[:, h - 1]
        out[h] = float(np.mean(d * d)) * MSE_DISPLAY_SCALE
    return out


def evaluate(model, corpus: Corpus, horizons: int = 1) -> EvalReport:
    """Scaled MSE per horizon on the easy series and on each hard window
    (averaged); one-step models cover horizons past 1 recursively."""
    if horizons < 1:
        raise ValueError(f"horizons must be >= 1, got {horizons}")
    tune_allocator()
    model_horizon = getattr(model, "horizon", None)
    if model_horizon is not None and horizons > model_horizon:
        raise ValueError(f"model emits {model_horizon} horizons, {horizons} requested")
    easy = _per_horizon_mse(model, corpus.easy, model.s, horizons)
    hard_windows = [_per_horizon_mse(model, series, model.s, horizons)
                    for series in corpus.hard]
    per_horizon = {
        h: {
            "easy": easy[h],
            "hard": float(np.mean([w[h] for w in hard_windows])),
        }
        for h in range(1, horizons + 1)
    }
    return EvalReport(
        easy_mse_scaled=float(np.mean([v["easy"] for v in per_horizon.values()])),
        hard_mse_scaled=float(np.mean([v["hard"] for v in per_horizon.values()])),
        per_horizon=per_horizon,
        hard_per_window=hard_windows,
    )


def report_lines(name: str, report: EvalReport) -> list[str]:
    lines = [f"{name}: easy {report.easy_mse_scaled:.3f}  hard {report.hard_mse_scaled:.3f}"
             "  (MSE x 1e3, normalized speeds)"]
    for h, vals in sorted(report.per_horizon.items()):
        lines.append(f"  t+{h}: easy {vals['easy']:.3f}  hard {vals['hard']:.3f}")
    return lines


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


def bench_latency(model, window: np.ndarray, warmup: int = 1000,
                  iters: int = 50_000) -> float:
    """Mean milliseconds per forward over ``iters`` timed runs after
    ``warmup`` untimed ones, on one fixed window."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    plan = InferencePlan(model)
    window = np.asarray(window, dtype=np.float64)
    for _ in range(warmup):
        plan.run(window)
    start = time.perf_counter()
    for _ in range(iters):
        plan.run(window)
    elapsed = time.perf_counter() - start
    return elapsed / iters * 1e3


def bench_repeated(model, window: np.ndarray, repeats: int = 5,
                   warmup: int = 1000, iters: int = 10_000) -> tuple[list[float], float]:
    """Repeated benchmark runs plus their coefficient of variation; a large
    value flags a noisy measurement environment."""
    means = [bench_latency(model, window, warmup, iters) for _ in range(repeats)]
    return means, coefficient_of_variation(means)


def coefficient_of_variation(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.std() / values.mean())

