import tracemalloc

import numpy as np
import pytest

from mesocast import evaluate as E
from mesocast.data import (NUM_SEGMENTS, Corpus, Series, V_REF_MPH, build_windows, normalize,
                           stack_windows)
from mesocast.models import MODEL_KINDS, build_model, forecast_recursive
from mesocast.evaluate import evaluate, latency_ms


def constant_series(c, T, start=0):
    return Series(minutes=np.arange(start, start + T),
                  speeds=np.full((T, NUM_SEGMENTS), float(c)))


def zero_model(bias=0.0, s=4):
    m = build_model("sa-lstm", s=s, hidden=4, attn_width=2, seed=0)
    for t in m.blocks().values():
        t.data[:] = 0.0
    m.head_b.data[:] = bias
    return m


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        c = 64.0
        corpus = Corpus(train=constant_series(c, 20), easy=constant_series(c, 20),
                        hard=[constant_series(c, 20)])
        report = evaluate(zero_model(bias=c / V_REF_MPH), corpus, horizons=1)
        assert report.easy_mse_scaled == 0.0
        assert report.hard_mse_scaled == 0.0

    def test_zero_predictor_reports_scaled_mean_square(self):
        c = 48.0
        corpus = Corpus(train=constant_series(c, 20), easy=constant_series(c, 20),
                        hard=[constant_series(c, 20)])
        report = evaluate(zero_model(bias=0.0), corpus, horizons=1)
        expected = 1000.0 * (c / V_REF_MPH) ** 2
        assert report.easy_mse_scaled == pytest.approx(expected, rel=1e-12)

    def test_hard_metric_averages_windows(self):
        hard = []
        for k in (2.0, 4.0, 6.0, 8.0):
            c = V_REF_MPH * np.sqrt(k / 1000.0)
            hard.append(constant_series(c, 20))
        corpus = Corpus(train=constant_series(10, 20), easy=constant_series(10, 20), hard=hard)
        report = evaluate(zero_model(), corpus, horizons=1)
        assert report.hard_mse_scaled == pytest.approx(5.0, abs=1e-9)
        per_window = [w[1] for w in report.hard_per_window]
        assert per_window == pytest.approx([2.0, 4.0, 6.0, 8.0], abs=1e-9)

    def test_hand_computed_two_window_corpus(self):
        rng = np.random.default_rng(5)
        speeds = rng.uniform(30, 80, (6, NUM_SEGMENTS))  # s=4, horizon=1 -> 2 windows
        series = Series(minutes=np.arange(6), speeds=speeds)
        corpus = Corpus(train=series, easy=series, hard=[series])
        report = evaluate(zero_model(bias=0.0), corpus, horizons=1)
        targets = np.stack([speeds[4], speeds[5]]) / V_REF_MPH
        by_hand = 1000.0 * np.mean(targets ** 2)
        assert report.easy_mse_scaled == pytest.approx(by_hand, rel=1e-12)

    def test_one_step_model_covers_horizons_recursively(self):
        corpus = Corpus(train=constant_series(50, 20), easy=constant_series(50, 20),
                        hard=[constant_series(50, 20)])
        report = evaluate(zero_model(bias=0.5), corpus, horizons=3)
        assert sorted(report.per_horizon) == [1, 2, 3]

    def test_repeated_calls_bitwise_identical(self):
        rng = np.random.default_rng(7)
        series = Series(minutes=np.arange(30),
                        speeds=rng.uniform(20, 80, (30, NUM_SEGMENTS)))
        corpus = Corpus(train=series, easy=series, hard=[series])
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=3)
        a = evaluate(model, corpus, horizons=2)
        b = evaluate(model, corpus, horizons=2)
        assert a.per_horizon == b.per_horizon

    def test_horizon_overflow_rejected(self):
        corpus = Corpus(train=constant_series(50, 20), easy=constant_series(50, 20),
                        hard=[constant_series(50, 20)])
        aao = build_model("all-at-once", s=4, hidden=4, attn_width=2, horizon=2, seed=1)
        with pytest.raises(ValueError, match="model emits 2 horizons, 3 requested"):
            evaluate(aao, corpus, horizons=3)


def random_series(rng, T):
    return Series(minutes=np.arange(T), speeds=rng.uniform(20, 80, (T, NUM_SEGMENTS)))


class TestWindowViews:
    """evaluate scores strided views of each once-normalized series."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_views_score_the_bits_of_stacked_copies(self, kind):
        # the reference is the old path: stacked mph copies, then normalized
        # copies; 84 easy windows span three predict chunks
        rng = np.random.default_rng(12)
        series = [random_series(rng, T) for T in (90, 40, 35)]
        corpus = Corpus(train=None, easy=series[0], hard=series[1:])
        model = build_model(kind, s=4, hidden=4, attn_width=2, horizon=3, seed=13)
        report = evaluate(model, corpus, horizons=3)

        def copied(series):
            x, y = stack_windows(build_windows(series, model.s, 3))
            mse = E.per_horizon_mse(model, normalize(x), normalize(y), 3)
            return [(m * E.MSE_DISPLAY_SCALE).hex() for m in mse]

        scored = [[report.per_horizon[h]["easy"].hex() for h in (1, 2, 3)],
                  *([w[h].hex() for h in (1, 2, 3)] for w in report.hard_per_window)]
        assert scored == [copied(s) for s in series]

    def test_memory_does_not_grow_with_s(self):
        # stacked copies held (B, s, 21) windows: about 30 MB more at s 64
        # than at s 8 for one day's windows
        rng = np.random.default_rng(14)
        corpus = Corpus(train=None, easy=random_series(rng, 1440), hard=[random_series(rng, 440)])
        peaks = []
        for s in (8, 64):
            model = build_model("all-at-once", s=s, hidden=4, attn_width=2, horizon=1, seed=15)
            tracemalloc.start()
            try:
                evaluate(model, corpus)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


class TestBench:
    def test_single_iteration_smoke(self):
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=2)
        window = np.random.default_rng(0).uniform(0, 1, (4, NUM_SEGMENTS))
        [ms] = latency_ms(model, window, warmup=1, iters=1)
        assert ms > 0.0

    def test_repeated_runs_and_cov(self):
        # one time per inference, so bench can report percentiles and spread
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=2)
        window = np.random.default_rng(0).uniform(0, 1, (4, NUM_SEGMENTS))
        ms = latency_ms(model, window, warmup=5, iters=50)
        assert ms.shape == (50,) and np.all(ms > 0)
        cov = np.std(ms) / np.mean(ms)
        assert np.isfinite(cov) and cov >= 0.0

    def test_zero_iterations_rejected(self):
        model = build_model("sa-lstm", s=4, hidden=4, attn_width=2, seed=2)
        with pytest.raises(ValueError, match="iters"):
            latency_ms(model, np.zeros((4, NUM_SEGMENTS)), warmup=0, iters=0)


class TestForecast:
    def test_recursive_forecast_of_fixed_point_model(self):
        # bias-only model: every horizon equals the head bias, so the
        # recursion repeats the final input frame
        b = np.linspace(0.4, 0.9, 1)[0]
        model = zero_model(bias=b)
        window = np.random.default_rng(11).uniform(0, 1, (4, NUM_SEGMENTS))
        window[-1] = b
        fc = forecast_recursive(model, window, 3)
        np.testing.assert_allclose(fc.horizons, np.tile(window[-1], (3, 1)), rtol=0, atol=1e-12)
