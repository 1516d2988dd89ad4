import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesocast import autodiff as ad
from mesocast import losses
from mesocast.train import TrainConfig
from gradcheck import assert_grads_close
from reference_ops import abs_, mean_all, reconstruct, reshape, sub


# --- independent convolution-based oracle ------------------------------------

K = np.array([1, 4, 6, 4, 1]) / 16.0


def blur_oracle(x):
    return np.convolve(np.pad(x, 2), K, mode="valid")


def reduce_oracle(x):
    return blur_oracle(x)[::2]


def expand_oracle(x):
    padded = np.pad(x, 1)
    stuffed = np.zeros(2 * len(padded))
    stuffed[::2] = padded
    return np.convolve(stuffed, 2 * K, mode="valid")


def pyramid_oracle(x, depth):
    target = losses.padded_length(len(x), depth)
    cur = np.pad(x, (0, target - len(x)))
    details = []
    for _ in range(depth):
        nxt = reduce_oracle(cur)
        details.append(cur - expand_oracle(nxt))
        cur = nxt
    return details, cur


def lap_oracle(x, y, depth):
    dx, rx = pyramid_oracle(x, depth)
    dy, ry = pyramid_oracle(y, depth)
    total = sum(4 ** j * np.abs(a - b).sum() for j, (a, b) in enumerate(zip(dx, dy)))
    return total + 4 ** depth * np.abs(rx - ry).sum()


def combined(pred, truth, depth=3):
    return losses.combined_loss(ad.tensor(pred), truth, depth).item()


def mse(pred, truth):
    """The combined loss at pyramid depth 0, which is the plain MSE."""
    return combined(pred, truth, 0)


def lap(x, y, depth):
    """The pyramid penalty as the one product with ``pyramid_matrix``."""
    n = x.shape[-1]
    return float(np.abs((x - y).reshape(-1, n) @ losses.pyramid_matrix(n, depth)).sum())


def composed_loss(pred, truth, depth):
    """The combined loss composed from taped ops, the reference its one
    node's value and adjoint must repeat bit for bit."""
    diff = sub(pred, ad.tensor(truth))
    err = mean_all(ad.mul(diff, diff))
    if depth == 0:
        return err
    length = pred.shape[-1]
    m = losses.pyramid_matrix(length, depth)
    penalty = ad.sum_all(abs_(ad.matmul(reshape(sub(pred, ad.tensor(truth)), (-1, length)),
                                     ad.tensor(m))))
    rows = int(np.prod(pred.shape[:-1])) if len(pred.shape) > 1 else 1
    norm = 1.0 / (losses.padded_length(length, depth) * rows)
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
        # the blur and expand kernels are normalised exactly, so a constant
        # profile has no detail wherever their stencils miss the zero padding;
        # at the borders the padding's step shows
        p = losses.build_pyramid(np.full(64, c), depth=3)
        for d in p.details:
            np.testing.assert_array_equal(d[6:-6], np.zeros_like(d[6:-6]))
            assert d[0] != 0.0 and d[-1] != 0.0
        np.testing.assert_array_equal(p.residual[2:-2], np.full(4, c))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_reconstruction_reproduces_padded_input(self, depth):
        rng = np.random.default_rng(depth)
        x = rng.uniform(0, 90, 21)
        p = losses.build_pyramid(x, depth)
        rec = reconstruct(p)
        padded = np.pad(x, (0, losses.padded_length(21, depth) - 21))
        assert np.max(np.abs(rec - padded)) <= 1e-12

    def test_levels_match_convolution_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 24)
        p = losses.build_pyramid(x, 3)
        details, residual = pyramid_oracle(x, 3)
        for impl, ref in zip(p.details, details):
            np.testing.assert_allclose(impl, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.residual, residual, rtol=0, atol=1e-12)

    def test_level_shapes(self):
        p = losses.build_pyramid(np.zeros(21), 3)
        assert [d.shape[-1] for d in p.details] == [24, 12, 6]
        assert p.residual.shape[-1] == 3

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (3, 21))
        batched = losses.build_pyramid(x, 2)
        for r in range(3):
            single = losses.build_pyramid(x[r], 2)
            for bd, sd in zip(batched.details, single.details):
                np.testing.assert_array_equal(bd[r], sd)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            losses.build_pyramid(np.zeros(8), 0)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([8, 16, 24, 32]))
    def test_perfect_reconstruction_property(self, seed, length):
        x = np.random.default_rng(seed).uniform(-5, 95, length)
        depth = 3
        p = losses.build_pyramid(x, depth)
        padded = np.pad(x, (0, losses.padded_length(length, depth) - length))
        assert np.max(np.abs(reconstruct(p) - padded)) <= 1e-12


class TestLapLoss:
    def test_equal_inputs_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, 21)
        assert lap(x, x.copy(), 3) == 0.0

    def test_depth_zero_disables_term(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        assert combined(x, y, 0) == np.mean((x - y) ** 2)

    def test_single_level_frozen_value(self):
        # unit impulse vs zeros, length 24, depth 1, zero padding;
        # 2.8125 = 45/16 computed with the convolution oracle
        x = np.zeros(24)
        x[0] = 1.0
        y = np.zeros(24)
        assert lap(x, y, 1) == pytest.approx(2.8125, abs=1e-12)
        assert lap_oracle(x, y, 1) == pytest.approx(2.8125, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_on_random_profiles(self, seed):
        rng = np.random.default_rng(600 + seed)
        x, y = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        xb, yb = rng.uniform(0, 1, (32, 21)), rng.uniform(0, 1, (32, 21))
        for depth in (1, 2, 3, 4):
            impl = lap(x, y, depth)
            assert impl == pytest.approx(lap_oracle(x, y, depth), abs=1e-10)
            # a batch is the sum of its rows' penalties
            batched = lap(xb, yb, depth)
            per_row = sum(lap_oracle(xb[r], yb[r], depth) for r in range(32))
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
        for depth in (1, 2, 3, 4):
            levels = losses.build_pyramid(np.eye(21), depth)
            blocks = levels.details + [levels.residual]
            m = losses.pyramid_matrix(21, depth)
            assert m.shape == (21, sum(b.shape[1] for b in blocks))
            offset = 0
            for j, block in enumerate(blocks):
                width = block.shape[1]
                np.testing.assert_array_equal(m[:, offset:offset + width], 4.0 ** j * block)
                offset += width

    def test_matrix_is_cached_and_read_only(self):
        m = losses.pyramid_matrix(21, 3)
        assert losses.pyramid_matrix(21, 3) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            combined(np.zeros(21), np.zeros(22), 2)


class TestCombinedLoss:
    def test_equal_inputs_zero(self):
        x = np.random.default_rng(3).uniform(0, 1, 21)
        assert combined(x, x.copy()) == 0.0

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(4)
        p, t = rng.uniform(0, 1, 21), rng.uniform(0, 1, 21)
        expected = mse(p, t) + lap_oracle(p, t, 3) / 24.0
        assert combined(p, t, 3) == pytest.approx(expected, abs=1e-12)

    def test_batched_normalisation(self):
        rng = np.random.default_rng(5)
        p, t = rng.uniform(0, 1, (4, 21)), rng.uniform(0, 1, (4, 21))
        per_row_lap = sum(lap_oracle(p[r], t[r], 3) for r in range(4))
        expected = mse(p, t) + per_row_lap / (24.0 * 4)
        assert combined(p, t, 3) == pytest.approx(expected, abs=1e-12)

    def test_records_one_node_on_pred(self):
        pred = ad.parameter(np.random.default_rng(9).uniform(0, 1, (4, 21)))
        loss = losses.combined_loss(pred, np.zeros((4, 21)), 3)
        assert loss._parents == (pred,) and pred._parents == ()

    def test_node_repeats_composed_tape_bitwise(self):
        rng = np.random.default_rng(10)
        for shape in (21, (4, 21)):
            truth = rng.uniform(0.1, 0.9, shape)
            pred = truth + rng.uniform(-0.2, 0.2, shape)
            for depth in range(4):
                leaf, ref_leaf = ad.parameter(pred), ad.parameter(pred)
                out = ad.scale(losses.combined_loss(leaf, truth, depth), 0.3)
                ref = ad.scale(composed_loss(ref_leaf, truth, depth), 0.3)
                ad.backward(out)
                ad.backward(ref)
                assert out.item() == ref.item()
                assert np.array_equal(leaf.grad, ref_leaf.grad)

    def test_gradient_matches_finite_differences(self):
        # one profile and a batch of four, at every pyramid depth up to 3
        for shape in (21, (4, 21)):
            rng = np.random.default_rng(6)
            truth = rng.uniform(0.1, 0.9, shape)
            pred0 = truth + rng.uniform(0.05, 0.2, shape) * np.sign(rng.uniform(-1, 1, shape))
            for depth in range(4):

                def build(leaves):
                    return losses.combined_loss(leaves[0], truth, depth)

                assert_grads_close(build, [pred0], h=1e-6, tol=1e-5)

    def test_value_and_gradient_digest(self):
        # the loss and its adjoint at every pyramid depth up to 4 on batches
        # of 1, 7 and 32 profiles, under a backward seed other than 1
        rng = np.random.default_rng(2024)
        crc = 0
        for rows in (1, 7, 32):
            truth = rng.uniform(0.0, 1.0, (rows, 21))
            pred = truth + rng.uniform(-0.3, 0.3, (rows, 21))
            for depth in range(5):
                leaf = ad.parameter(pred)
                loss = losses.combined_loss(leaf, truth, depth)
                ad.backward(ad.scale(loss, 0.3))
                crc = zlib.crc32(loss.item().hex().encode(), crc)
                crc = zlib.crc32(leaf.grad.astype("<f8").tobytes(), crc)
        assert f"{crc:08x}" == "a70e1c05"

    def test_config_validation(self):
        # the depth is the loss's one setting, a TrainConfig field
        with pytest.raises(ValueError, match="^lap_depth must be >= 0"):
            TrainConfig(lap_depth=-1)
