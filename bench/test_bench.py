"""Self-tests for the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from mesocast import autodiff as ad  # noqa: E402
from mesocast import data, models, train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((ROOT / "bench" / "metric_map.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children_and_counts_overlap_once():
    spans = [
        tracing.Span("root", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("b", 3.0, 6.0, 0),      # overlaps a
        tracing.Span("a.leaf", 2.0, 3.0, 1),
        tracing.Span("late", 9.0, 12.0, 0),  # runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_in_call_order():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    root = tracer.begin("root")
    child = tracer.begin("child")
    grandchild = tracer.begin("grandchild")
    tracer.end(grandchild)
    tracer.end(child)
    sibling = tracer.begin("sibling")
    tracer.end(sibling)
    tracer.end(root)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == pytest.approx([10 - 5 - 2, 5 - 3, 3.0, 2.0])


def test_nstep_time_is_charged_to_the_stage_of_each_epoch():
    # 2 layers, 1 epoch per stage: steps close epochs 1..3 (stage1, stage2,
    # finetune); the validation after a step belongs to that step's epoch
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 1.5, 4.0, 4.5, 8.0, 8.25]))
    tracer.nstep_begin(layers=2, epochs_per_stage=1)
    tracer.nstep_mark(True)      # 1.0
    tracer.nstep_mark(False)     # 1.5
    tracer.nstep_mark(True)      # 4.0
    tracer.nstep_mark(False)     # 4.5
    tracer.nstep_mark(True)      # 8.0
    tracer.nstep_end()           # 8.25
    assert tracer.counts["train.nstep_stage1_s"] == pytest.approx(1.5)
    assert tracer.counts["train.nstep_stage2_s"] == pytest.approx(3.0)
    assert tracer.counts["train.nstep_finetune_s"] == pytest.approx(3.75)


def test_tape_size_counts_each_reachable_node_once():
    x = ad.parameter(np.ones((2, 3)))
    const = ad.tensor(np.ones((2, 3)))
    loss = ad.sum_all(ad.add(ad.mul(x, x), const))
    nodes, nbytes = tracing.tape_size(loss)
    assert nodes == 4                      # sum, add, mul, x; const needs no gradient
    assert nbytes == 8 * (1 + 6 + 6 + 6)


def test_installed_wraps_every_binding_and_restores_it():
    original = data.build_windows
    tracer = tracing.Tracer()
    series = data.Series(minutes=np.arange(12), speeds=np.full((12, data.NUM_SEGMENTS), 50.0))
    with tracing.installed(tracer):
        assert train.build_windows is data.build_windows is not original
        train.stage_corpus(data.Corpus(series, series, [series]), 8, 1,
                           train.TrainConfig(train_stride=1, val_stride=1))
        models.build_model("sa-lstm").forward_graph(np.zeros((1, 8, data.NUM_SEGMENTS)))
    assert train.build_windows is original and data.build_windows is original
    names = {s.name for s in tracer.spans}
    assert {"data.windows", "models.forward_graph", "cells.sa_lstm_step",
            "cells.self_attention"} <= names
    assert tracer.counts["cells.steps"] == 8


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0),
    (99, 50.0), (20, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_matches_numpy_linear():
    values = np.random.default_rng(0).exponential(size=101)
    for p in (0, 25, 50, 90, 99, 100):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_rate_and_typical_seconds_total_over_the_pieces():
    Piece = hostspeed.Piece
    assert stats.rate([(100, Piece(1.0)), (100, Piece(3.0))]) == pytest.approx(50.0)
    assert stats.rate([(1, Piece(0.002))] * 95 + [(1, Piece(0.004))] * 5) == \
        pytest.approx(1 / 0.0021)
    assert stats.typical_seconds([Piece(1.0), Piece(3.0)]) == pytest.approx(2.0)


def test_rate_charges_pieces_at_the_sampled_host_speed():
    Piece = hostspeed.Piece
    # the same work: 1 s at full speed, 2 s at half speed (two samples of 0.5)
    pieces = [(10, Piece(1.0, 1, 1.0)), (10, Piece(2.0, 2, 1.0))]
    # pooled speed 2/3 over 3 s is 2 nominal seconds
    assert stats.rate(pieces) == pytest.approx(10.0)
    # pieces too short to be sampled take the fallback speed
    assert stats.typical_seconds([Piece(0.1), Piece(0.3)], 0.5) == pytest.approx(0.1)


def test_host_speed_takes_its_own_time_out_of_a_piece():
    # clock reads: now() 0.0; sample enter 1.0, kernel done 1.5, exit 1.5; since() 4.0
    host = hostspeed.HostSpeed(kernel=lambda: None, nominal=0.25,
                               clock=FakeClock([0.0, 1.0, 1.5, 1.5, 4.0]))
    start = host.now()
    host.sample()
    piece = host.since(start)
    assert piece == hostspeed.Piece(3.5, 1, 0.5)
    assert host.mean_speed == pytest.approx(0.5)


# -- failure accounting --------------------------------------------------------


def test_nan_forecast_counts_as_failed(tmp_path):
    checks = workload.Checks()
    serve = workload.ServeWorkload(3, tmp_path, checks)
    serve.make_inputs()
    serve.setup()
    serve.plans["nstep"].head_b[:] = math.nan
    for _ in serve.unit():
        pass
    half = workload.SERVE_BLOCK // 2
    assert checks.attempted == workload.SERVE_BLOCK
    assert checks.failed == half
    assert checks.ratio == pytest.approx(0.5)


def test_nonzero_cli_exit_counts_as_failed(tmp_path):
    checks = workload.Checks()
    workload.run_cli(checks, ["forecast", "--out", str(tmp_path),
                              "--input", str(tmp_path / "missing.csv")])
    workload.run_cli(checks, ["generate"], main=lambda argv: 0)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.ratio == pytest.approx(0.5)


# -- the spec ------------------------------------------------------------------


def test_per_layer_metrics_match_the_spec():
    produced = set(tracing.layer_metrics(tracing.Tracer(), 1))
    produced |= {"quality.sa_hard_mse_x1e3", "quality.nstep_hard_mse_x1e3",
                 "trace.overhead_pct"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_metric_map_names_only_spec_metrics():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(METRIC_MAP) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in METRIC_MAP.items():
        assert set(entry["end_to_end"]) == end_to_end
        for layer, moves in entry["per_layer"].items():
            assert layer in per_layer, layer
            assert set(moves) <= end_to_end, layer
