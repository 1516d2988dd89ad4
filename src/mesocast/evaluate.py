"""Metrics and the latency benchmark.

Reported MSE follows the display convention of the accuracy tables: the raw
mean squared error on normalized speeds multiplied by 1000.  The hard metric
evaluates each congested window independently and averages the per-window
values, scored by the chunked tape-free ``models.predict_batch``.  Each
series is normalized once and cut into stride-1 windows that are read-only
strided views of it, never copies, so evaluation holds that series, the
predictions and one chunk's work (``PREDICT_CHUNK`` windows), not ``s``
copies of the series.  A one-step model's recursive horizons start from the
frame state of the neighbouring window instead of re-walking its frames
(see ``models``).  Training's validation metrics come from the same
``per_horizon_mse``.  The latency benchmark times each bare forecast of the
requested horizons on one fixed window (no normalisation, no I/O) after an
untimed warmup, single process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Corpus, Series, build_windows, normalize
from .models import InferencePlan, predict_batch
from .runtime import tune_allocator

MSE_DISPLAY_SCALE = 1000.0


@dataclass
class EvalReport:
    easy_mse_scaled: float                     # mean over evaluated horizons
    hard_mse_scaled: float                     # mean over horizons and hard windows
    per_horizon: dict[int, dict[str, float]]   # horizon -> {"easy": ..., "hard": ...}
    hard_per_window: list[dict[int, float]]    # per hard window, horizon -> scaled MSE


def per_horizon_mse(model, x: np.ndarray, y: np.ndarray, horizons: int,
                    prefix: list[np.ndarray] | None = None) -> list[float]:
    """Normalized MSE of each of the first ``horizons`` horizons of the
    tape-free ``predict_batch`` on windows ``x`` against targets ``y``."""
    preds = predict_batch(model, x, horizons, prefix=prefix)
    out = []
    for h in range(horizons):
        d = preds[:, h] - y[:, h]           # no (B, horizons, 21) temporary
        out.append(float(np.mean(d * d)))
    return out


def _scaled_mse(model, series: Series, horizons: int) -> dict[int, float]:
    windows = build_windows(replace(series, speeds=normalize(series.speeds)), model.s, horizons)
    mse = per_horizon_mse(model, windows.inputs, windows.targets, horizons)
    return {h: m * MSE_DISPLAY_SCALE for h, m in enumerate(mse, 1)}


def evaluate(model, corpus: Corpus, horizons: int = 1) -> EvalReport:
    """Scaled MSE per horizon on the easy series and on each hard window
    (averaged); one-step models cover horizons past 1 recursively."""
    if horizons < 1:
        raise ValueError(f"horizons must be >= 1, got {horizons}")
    tune_allocator()
    easy = _scaled_mse(model, corpus.easy, horizons)
    hard_windows = [_scaled_mse(model, series, horizons) for series in corpus.hard]
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


def latency_ms(model, window: np.ndarray, warmup: int, iters: int,
               horizons: int | None = None) -> np.ndarray:
    """Milliseconds of each of ``iters`` timed forecasts of ``horizons``
    minutes (default: the model's own) on one fixed window, after ``warmup``
    untimed ones.  Each forecast is timed on its own: a clock read costs
    about 0.1 us against 250-2700 us per forecast."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    plan = InferencePlan(model)
    window = np.asarray(window, dtype=np.float64)
    for _ in range(warmup):
        plan.run(window, horizons)
    seconds = np.empty(iters)
    for i in range(iters):
        start = time.perf_counter()
        plan.run(window, horizons)
        seconds[i] = time.perf_counter() - start
    return seconds * 1e3
