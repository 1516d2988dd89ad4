"""Check the paper's three directional claims on the synthetic corpus.

One fixed protocol, held in the constants below and not in options, trains
every model the claims compare for each seed, scores it on the easy series
and on the hard windows, and writes a JSON record:

* attention: sa-lstm against lstm-seg, the same per-segment LSTM without the
  attention block, and against the dense lstm; pyramid depth 0, hard t+1;
* pyramid: sa-lstm at pyramid depth 3 against depth 0, hard t+1;
* multi-step: nstep and all-at-once against recursive sa-lstm, all at
  pyramid depth 3, hard t+3.

Each claim holds the paired per-seed differences of hard MSE x 1e3 (model
minus baseline, so a negative difference favours the claim), the count of
wins, their median and the one-sided sign-test p.  A claim holds when that
p is below 0.05, which at 5 seeds takes 5 wins of 5.  A persistence floor,
every horizon equal to the last input frame, is scored on the same windows.

    PYTHONPATH=src python scripts/run_claims.py --out CLAIMS.json

One run of the protocol takes about 22 minutes on one core.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict

import numpy as np

from mesocast.data import CorpusSizes, CtmConfig, build_windows, make_corpus, normalize
from mesocast.evaluate import MSE_DISPLAY_SCALE, evaluate
from mesocast.models import build_model
from mesocast.train import TrainConfig, best_model, train_model

DATA_SEED = 0
SIZES = CorpusSizes(train_days=7, easy_days=2, hard_windows=4, hard_minutes=440)
SEEDS = (0, 1, 2, 3, 4)
EPOCHS_PER_STAGE = 24
TRAINING = dict(validate_every=4, train_stride=24, val_stride=8)
ARCH = dict(s=8, hidden=64, attn_width=16)
HORIZONS = 3
SIGNIFICANCE = 0.05

# name -> (kind, horizons the model is built for, pyramid depth)
MODELS = {
    "lstm": ("lstm", 1, 0),
    "lstm-seg": ("lstm-seg", 1, 0),
    "sa-lstm": ("sa-lstm", 1, 0),
    "sa-lstm-lap3": ("sa-lstm", 1, 3),
    "all-at-once-lap3": ("all-at-once", 3, 3),
    "nstep-lap3": ("nstep", 3, 3),
}

# name -> (model, baseline, horizon compared on the hard windows)
CLAIMS = {
    "attention": ("sa-lstm", "lstm-seg", 1),
    "attention_vs_dense_lstm": ("sa-lstm", "lstm", 1),
    "pyramid": ("sa-lstm-lap3", "sa-lstm", 1),
    "nstep_beats_recursive": ("nstep-lap3", "sa-lstm-lap3", 3),
    "all_at_once_beats_recursive": ("all-at-once-lap3", "sa-lstm-lap3", 3),
}


def protocol() -> dict:
    return {"data_seed": DATA_SEED, "sizes": asdict(SIZES), "seeds": list(SEEDS),
            "epochs_per_stage": EPOCHS_PER_STAGE, "training": TRAINING, "arch": ARCH,
            "horizons": HORIZONS, "significance": SIGNIFICANCE,
            "models": {name: dict(zip(("kind", "horizon", "lap_depth"), spec))
                       for name, spec in MODELS.items()},
            "claims": {name: dict(zip(("model", "baseline", "horizon"), spec))
                       for name, spec in CLAIMS.items()}}


def persistence(corpus) -> dict:
    """Scaled MSE per horizon of repeating the last input frame, on the
    windows ``evaluate`` scores (hard: the mean over the hard windows)."""
    def scaled(series):
        w = build_windows(series, ARCH["s"], HORIZONS)
        last, targets = normalize(w.inputs[:, -1]), normalize(w.targets)
        return [float(np.mean((targets[:, h] - last) ** 2)) * MSE_DISPLAY_SCALE
                for h in range(HORIZONS)]
    hard = np.mean([scaled(series) for series in corpus.hard], axis=0)
    return {"easy": scaled(corpus.easy), "hard": [float(v) for v in hard]}


def train_and_score(name: str, corpus, seed: int) -> dict:
    kind, horizon, depth = MODELS[name]
    cfg = TrainConfig(epochs_per_stage=EPOCHS_PER_STAGE, seed=seed, lap_depth=depth,
                      **TRAINING)
    model = build_model(kind, horizon=horizon, seed=seed, **ARCH)
    report = evaluate(best_model(train_model(model, corpus, cfg)), corpus, HORIZONS)
    return {split: [report.per_horizon[h][split] for h in range(1, HORIZONS + 1)]
            for split in ("easy", "hard")}


def sign_test_p(wins: int, n: int) -> float:
    """One-sided P(at least ``wins`` of ``n`` fair coin flips)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def claim(model: dict, baseline: dict, horizon: int) -> dict:
    diffs = [m[horizon - 1] - b[horizon - 1] for m, b in zip(model["hard"], baseline["hard"])]
    wins = sum(d < 0 for d in diffs)
    p = sign_test_p(wins, len(diffs))
    return {"hard_diff": diffs, "wins": wins, "seeds": len(diffs),
            "median_diff": float(np.median(diffs)), "sign_test_p": p,
            "holds": p < SIGNIFICANCE}


def run() -> dict:
    start = time.perf_counter()
    corpus = make_corpus(CtmConfig(seed=DATA_SEED), SIZES)
    models = {name: {"easy": [], "hard": [], "seconds": []} for name in MODELS}
    for seed in SEEDS:
        for name, record in models.items():
            began = time.perf_counter()
            scores = train_and_score(name, corpus, seed)
            record["easy"].append(scores["easy"])
            record["hard"].append(scores["hard"])
            record["seconds"].append(time.perf_counter() - began)
            print(f"seed {seed} {name:17s} hard " + " ".join(f"{v:8.3f}" for v in scores["hard"])
                  + f"  ({record['seconds'][-1]:.0f} s)", flush=True)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}
    return {"protocol": protocol(), "host": host, "persistence": persistence(corpus),
            "models": models,
            "claims": {name: claim(models[m], models[b], h)
                       for name, (m, b, h) in CLAIMS.items()},
            "seconds": time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="CLAIMS.json", help="JSON output path")
    args = parser.parse_args()
    result = run()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, c in result["claims"].items():
        print(f"{name}: {c['wins']}/{c['seeds']} wins, median {c['median_diff']:+.3f}, "
              f"p {c['sign_test_p']:.3f} -> {'holds' if c['holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
