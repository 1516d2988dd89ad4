"""Latency under the accuracy-table protocol: ``--repeats`` runs of
``--iters`` timed inferences, each after ``--warmup`` untimed ones, single
process, fixed input.  Prints each kind's mean over the repeats with the
coefficient of variation across them, which flags a noisy host."""

import argparse
import sys

import numpy as np

from mesocast.data import NUM_SEGMENTS
from mesocast.evaluate import bench_repeated
from mesocast.models import build_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--warmup", type=int, default=1_000)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    window = rng.uniform(0.1, 1.0, (8, NUM_SEGMENTS))
    for kind, horizon in (("lstm", 1), ("sa-lstm", 1), ("all-at-once", 3), ("nstep", 3)):
        model = build_model(kind, s=8, hidden=64, attn_width=16, horizon=horizon, seed=0)
        means, cv = bench_repeated(model, window, repeats=args.repeats,
                                   warmup=args.warmup, iters=args.iters)
        print(f"{kind:12s} mean {np.mean(means):.4f} ms  cv {cv:.3f} "
              f"over {args.repeats} x {args.iters} inferences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
