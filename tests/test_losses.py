import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesocast import autodiff as ad
from mesocast import losses
from gradcheck import assert_grads_close
from reference_ops import abs_, mean_all, reconstruct, sub


# --- independent convolution-based oracle ------------------------------------

K = np.array([1, 4, 6, 4, 1]) / 16.0


def _np_pad(x, width, mode):
    return np.pad(x, width, mode="constant" if mode == "zero" else "edge")


def blur_oracle(x, mode):
    return np.convolve(_np_pad(x, 2, mode), K, mode="valid")


def reduce_oracle(x, mode):
    return blur_oracle(x, mode)[::2]


def expand_oracle(x, mode):
    padded = _np_pad(x, 1, mode)
    stuffed = np.zeros(2 * len(padded))
    stuffed[::2] = padded
    return np.convolve(stuffed, 2 * K, mode="valid")


def pyramid_oracle(x, depth, mode):
    target = losses.padded_length(len(x), depth)
    cur = _np_pad(x, (0, target - len(x)), mode)
    details = []
    for _ in range(depth):
        nxt = reduce_oracle(cur, mode)
        details.append(cur - expand_oracle(nxt, mode))
        cur = nxt
    return details, cur


def lap_oracle(x, y, depth, mode):
    dx, rx = pyramid_oracle(x, depth, mode)
    dy, ry = pyramid_oracle(y, depth, mode)
    total = sum(4 ** j * np.abs(a - b).sum() for j, (a, b) in enumerate(zip(dx, dy)))
    return total + 4 ** depth * np.abs(rx - ry).sum()


def combined(pred, truth, **cfg):
    return losses.combined_loss(ad.tensor(pred), truth, losses.LossConfig(**cfg)).item()


def mse(pred, truth):
    """The combined loss at pyramid depth 0, which is the plain MSE."""
    return combined(pred, truth, pyramid_depth=0)


def lap(x, y, depth, mode="zero"):
    """The pyramid penalty as the one product with ``pyramid_matrix``."""
    n = x.shape[-1]
    return float(np.abs((x - y).reshape(-1, n) @ losses.pyramid_matrix(n, depth, mode)).sum())


def composed_loss(pred, truth, cfg):
    """The combined loss composed from taped ops, the reference its one
    node's value and adjoint must repeat bit for bit."""
    diff = sub(pred, ad.tensor(truth))
    err = mean_all(ad.mul(diff, diff))
    if cfg.pyramid_depth == 0 or cfg.lap_weight == 0.0:
        return err
    length = pred.shape[-1]
    m = losses.pyramid_matrix(length, cfg.pyramid_depth, cfg.padding_mode)
    penalty = ad.sum_all(abs_(ad.matmul(ad.reshape(sub(pred, ad.tensor(truth)), (-1, length)),
                                     ad.tensor(m))))
    rows = int(np.prod(pred.shape[:-1])) if len(pred.shape) > 1 else 1
    norm = cfg.lap_weight / (losses.padded_length(length, cfg.pyramid_depth) * rows)
    return ad.add(err, ad.scale(penalty, norm))


class TestMse:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, (4, 21))
        assert mse(x, x.copy()) == 0.0

    def test_unit_offset(self):
        assert mse(np.zeros(2), np.ones(2)) == 1.0

    def test_display_scale_convention(self):
        # a raw MSE of 0.00066 reads 0.66 after the x1000 display scaling
        truth = np.zeros(4)
        pred = np.full(4, np.sqrt(0.00066))
        assert round(1000.0 * mse(pred, truth), 10) == pytest.approx(0.66)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse(np.zeros(3), np.zeros(4))


class TestPyramid:
    @pytest.mark.parametrize("c", [0.875, 42.0, np.pi])
    def test_constant_profile_has_zero_details(self, c):
        p = losses.build_pyramid(np.full(21, c), depth=3, mode="replicate")
        for d in p.details:
            np.testing.assert_array_equal(d, np.zeros_like(d))
        np.testing.assert_array_equal(p.residual, np.full(3, c))

    @pytest.mark.parametrize("mode", ["zero", "replicate"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_reconstruction_reproduces_padded_input(self, mode, depth):
        rng = np.random.default_rng(depth)
        x = rng.uniform(0, 90, 21)
        p = losses.build_pyramid(x, depth, mode)
        rec = reconstruct(p, mode)
        padded = _np_pad(x, (0, losses.padded_length(21, depth) - 21), mode)
        assert np.max(np.abs(rec - padded)) <= 1e-12

    def test_levels_match_convolution_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 24)
        for mode in ("zero", "replicate"):
            p = losses.build_pyramid(x, 3, mode)
            details, residual = pyramid_oracle(x, 3, mode)
            for impl, ref in zip(p.details, details):
                np.testing.assert_allclose(impl, ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p.residual, residual, rtol=0, atol=1e-12)

    def test_level_shapes(self):
        p = losses.build_pyramid(np.zeros(21), 3, "zero")
        assert [d.shape[-1] for d in p.details] == [24, 12, 6]
        assert p.residual.shape[-1] == 3

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (3, 21))
        batched = losses.build_pyramid(x, 2, "zero")
        for r in range(3):
            single = losses.build_pyramid(x[r], 2, "zero")
            for bd, sd in zip(batched.details, single.details):
                np.testing.assert_array_equal(bd[r], sd)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            losses.build_pyramid(np.zeros(8), 0)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([8, 16, 24, 32]),
           st.sampled_from(["zero", "replicate"]))
    def test_perfect_reconstruction_property(self, seed, length, mode):
        x = np.random.default_rng(seed).uniform(-5, 95, length)
        depth = 3
        p = losses.build_pyramid(x, depth, mode)
        padded = _np_pad(x, (0, losses.padded_length(length, depth) - length), mode)
        assert np.max(np.abs(reconstruct(p, mode) - padded)) <= 1e-12


class TestLapLoss:
    def test_equal_inputs_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, 21)
        assert lap(x, x.copy(), 3) == 0.0

    def test_depth_zero_disables_term(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        assert combined(x, y, pyramid_depth=0, lap_weight=1.0) == combined(x, y, lap_weight=0.0)

    def test_single_level_frozen_value(self):
        # unit impulse vs zeros, length 24, depth 1, zero padding;
        # 2.8125 = 45/16 computed with the convolution oracle
        x = np.zeros(24)
        x[0] = 1.0
        y = np.zeros(24)
        assert lap(x, y, 1, "zero") == pytest.approx(2.8125, abs=1e-12)
        assert lap_oracle(x, y, 1, "zero") == pytest.approx(2.8125, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_on_random_profiles(self, seed):
        rng = np.random.default_rng(600 + seed)
        x, y = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        xb, yb = rng.uniform(0, 1, (32, 21)), rng.uniform(0, 1, (32, 21))
        for mode in losses.PADDING_MODES:
            for depth in (1, 2, 3, 4):
                impl = lap(x, y, depth, mode)
                assert impl == pytest.approx(lap_oracle(x, y, depth, mode), abs=1e-10)
                # a batch is the sum of its rows' penalties
                batched = lap(xb, yb, depth, mode)
                per_row = sum(lap_oracle(xb[r], yb[r], depth, mode) for r in range(32))
                assert batched == pytest.approx(per_row, abs=1e-10)

    @given(st.integers(0, 2**31 - 1))
    def test_symmetric_nonnegative_definite(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        ab = lap(x, y, 2)
        ba = lap(y, x, 2)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab >= 0.0
        assert lap(x, x, 2) == 0.0
        if np.max(np.abs(x - y)) > 1e-9:
            assert ab > 0.0

    def test_level_weight_quadruples(self):
        # block j of M is level j of the identity's pyramid times exactly 4^j,
        # the residual counted as level ``depth``
        for mode in losses.PADDING_MODES:
            for depth in (1, 2, 3, 4):
                levels = losses.build_pyramid(np.eye(21), depth, mode)
                blocks = levels.details + [levels.residual]
                m = losses.pyramid_matrix(21, depth, mode)
                assert m.shape == (21, sum(b.shape[1] for b in blocks))
                offset = 0
                for j, block in enumerate(blocks):
                    width = block.shape[1]
                    np.testing.assert_array_equal(m[:, offset:offset + width], 4.0 ** j * block)
                    offset += width

    def test_matrix_is_cached_and_read_only(self):
        m = losses.pyramid_matrix(21, 3, "zero")
        assert losses.pyramid_matrix(21, 3, "zero") is m
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            combined(np.zeros(21), np.zeros(22), pyramid_depth=2)


class TestCombinedLoss:
    def test_zero_weight_equals_mse(self):
        rng = np.random.default_rng(2)
        p, t = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        assert combined(p, t, pyramid_depth=3, lap_weight=0.0) == np.mean((p - t) ** 2)

    def test_equal_inputs_zero(self):
        x = np.random.default_rng(3).uniform(0, 1, 21)
        assert combined(x, x.copy()) == 0.0

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(4)
        p, t = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        expected = mse(p, t) + lap_oracle(p, t, 3, "zero") / 24.0
        assert combined(p, t, pyramid_depth=3) == pytest.approx(expected, abs=1e-12)

    def test_batched_normalisation(self):
        rng = np.random.default_rng(5)
        p, t = rng.uniform(0, 1, (4, 21)), rng.uniform(0, 1, (4, 21))
        per_row_lap = sum(lap_oracle(p[r], t[r], 3, "zero") for r in range(4))
        expected = mse(p, t) + per_row_lap / (24.0 * 4)
        assert combined(p, t, pyramid_depth=3) == pytest.approx(expected, abs=1e-12)

    def test_records_one_node_on_pred(self):
        pred = ad.parameter(np.random.default_rng(9).uniform(0, 1, (4, 21)))
        loss = losses.combined_loss(pred, np.zeros((4, 21)), losses.LossConfig())
        assert loss._parents == (pred,) and pred._parents == ()

    def test_node_repeats_composed_tape_bitwise(self):
        rng = np.random.default_rng(10)
        for shape in (21, (4, 21)):
            truth = rng.uniform(0.1, 0.9, shape)
            pred = truth + rng.uniform(-0.2, 0.2, shape)
            for mode in losses.PADDING_MODES:
                for depth in range(4):
                    for weight in (0.0, 0.5, 1.0):
                        cfg = losses.LossConfig(pyramid_depth=depth, lap_weight=weight,
                                                padding_mode=mode)
                        leaf, ref_leaf = ad.parameter(pred), ad.parameter(pred)
                        out = ad.scale(losses.combined_loss(leaf, truth, cfg), 0.3)
                        ref = ad.scale(composed_loss(ref_leaf, truth, cfg), 0.3)
                        ad.backward(out)
                        ad.backward(ref)
                        assert out.item() == ref.item()
                        assert np.array_equal(leaf.grad, ref_leaf.grad)

    def test_gradient_matches_finite_differences(self):
        # one profile and a batch of four, under either padding mode, at every
        # pyramid depth up to 3 and at penalty weights 0, 0.5 and 1
        for shape, mode in [(21, "zero"), ((4, 21), "zero"), (21, "replicate"),
                            ((4, 21), "replicate")]:
            rng = np.random.default_rng(6)
            truth = rng.uniform(0.1, 0.9, shape)
            pred0 = truth + rng.uniform(0.05, 0.2, shape) * np.sign(rng.uniform(-1, 1, shape))
            for depth in range(4):
                for weight in (0.0, 0.5, 1.0):
                    cfg = losses.LossConfig(pyramid_depth=depth, lap_weight=weight,
                                            padding_mode=mode)

                    def build(leaves):
                        return losses.combined_loss(leaves[0], truth, cfg)

                    assert_grads_close(build, [pred0], h=1e-6, tol=1e-5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            losses.LossConfig(pyramid_depth=-1)
        with pytest.raises(ValueError):
            losses.LossConfig(padding_mode="mirror")
