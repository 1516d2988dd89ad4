"""Training objectives: mean squared error plus a band-pass pyramid penalty
that weights fine spatial scales, used to sharpen shockwave fronts.

The pyramid is one-dimensional along the segment axis and is applied row by
row, so a (rows, length) array of spatial profiles is decomposed in one
pass.  Reduction uses the binomial kernel [1, 4, 6, 4, 1]/16; expansion
zero-stuffs and blurs with doubled gain.  Details are stored as the exact
difference between a level and the expansion of the next, so reconstruction
is exact by construction.

``build_pyramid`` and ``reconstruct`` are untaped numpy functions and the
reference definition of the pyramid.  Every step of it, padding included, is
linear, so level j of a profile x is x @ A_j for a fixed matrix A_j, and the
penalty sum_j 4^j |L_j(p) - L_j(t)|_1 is |(p - t) @ M|_1 with one matrix
M = [A_0 | 4 A_1 | ... | 4^depth R], the pyramid of the identity.  So the
loss's adjoint is closed-form: 2 (p - t) / n plus sign((p - t) M) Mᵀ, scaled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_KERNEL = (1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16)

PADDING_MODES = ("zero", "replicate")


@dataclass(frozen=True)
class LossConfig:
    pyramid_depth: int = 3
    lap_weight: float = 1.0
    padding_mode: str = "zero"

    def __post_init__(self):
        if self.pyramid_depth < 0:
            raise ValueError(f"pyramid_depth must be >= 0, got {self.pyramid_depth}")
        if not 0 <= self.lap_weight < math.inf:
            raise ValueError(f"lap_weight must be finite and >= 0, got {self.lap_weight}")
        if self.padding_mode not in PADDING_MODES:
            raise ValueError(f"padding_mode must be one of {PADDING_MODES}")


@dataclass
class PyramidLevels:
    details: list[np.ndarray]  # band-pass levels, level j has length padded/2^j
    residual: np.ndarray       # low-pass top, length padded/2^depth


def padded_length(length: int, depth: int) -> int:
    """Smallest multiple of 2**depth that is >= length."""
    block = 1 << depth
    return ((length + block - 1) // block) * block


def _pad(x: np.ndarray, left: int, right: int, mode: str) -> np.ndarray:
    width = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    return np.pad(x, width, mode="constant" if mode == "zero" else "edge")


def _blur(xp: np.ndarray, n: int, gain: float) -> np.ndarray:
    """The 5-tap kernel times ``gain`` over a profile padded by 2 per side."""
    acc = xp[..., 0:n] * (gain * _KERNEL[0])
    for k in range(1, 5):
        acc = acc + xp[..., k:k + n] * (gain * _KERNEL[k])
    return acc


def _reduce(x: np.ndarray, mode: str) -> np.ndarray:
    return _blur(_pad(x, 2, 2, mode), x.shape[-1], 1.0)[..., ::2]


def _expand(x: np.ndarray, mode: str) -> np.ndarray:
    """Upsample to twice the length: pad, zero-stuff, blur with gain 2.

    Padding before stuffing keeps boundary samples consistent with ``mode``,
    so expansion preserves constants exactly under replicate padding.
    """
    xp = _pad(x, 1, 1, mode)
    up = np.zeros(xp.shape[:-1] + (2 * xp.shape[-1],))
    up[..., ::2] = xp
    return _blur(up, 2 * x.shape[-1], 2.0)


def build_pyramid(x, depth: int, mode: str = "zero") -> PyramidLevels:
    """Decompose profiles (last axis) into ``depth`` band-pass levels plus a
    low-pass residual; the input is right-padded to a multiple of 2**depth."""
    if depth < 1:
        raise ValueError(f"build_pyramid: depth must be >= 1, got {depth}")
    current = np.asarray(x, dtype=np.float64)
    current = _pad(current, 0, padded_length(current.shape[-1], depth) - current.shape[-1], mode)
    details = []
    for _ in range(depth):
        coarser = _reduce(current, mode)
        details.append(current - _expand(coarser, mode))
        current = coarser
    return PyramidLevels(details=details, residual=current)


def reconstruct(levels: PyramidLevels, mode: str = "zero") -> np.ndarray:
    """Invert ``build_pyramid``; exact because details store the expansion
    error verbatim."""
    g = levels.residual
    for detail in reversed(levels.details):
        g = detail + _expand(g, mode)
    return g


@functools.lru_cache(maxsize=32)   # a process uses one or two keys; bounded all the same
def pyramid_matrix(length: int, depth: int, mode: str) -> np.ndarray:
    """Read-only M = [A_0 | 4 A_1 | ... | 4^depth R] with ``length`` rows:
    x @ M is x's pyramid levels side by side, level j weighted by 4^j (a power
    of two, so the weighting is exact)."""
    levels = build_pyramid(np.eye(length), depth, mode)
    m = np.hstack([4.0 ** j * a for j, a in enumerate(levels.details + [levels.residual])])
    m.flags.writeable = False
    return m


def combined_loss(pred: Tensor, truth: np.ndarray, cfg: LossConfig) -> Tensor:
    """mse + lap_weight * |(pred - truth) @ M|_1 / (padded length * profile
    count) as one node on ``pred``; the residual is M's top level, so coarse
    speed-level error is penalised too.  The float expressions keep the order
    of the composed ops (mean of squares; product, abs, sum, scale) the
    pinned results were trained with."""
    t = np.asarray(truth, dtype=np.float64)
    if pred.shape != t.shape:
        raise ValueError(f"combined_loss: shape mismatch {pred.shape} vs {t.shape}")
    d = pred.data - t
    value = (d * d).mean()
    lap = cfg.pyramid_depth > 0 and cfg.lap_weight != 0.0
    if lap:
        length = d.shape[-1]
        m = pyramid_matrix(length, cfg.pyramid_depth, cfg.padding_mode)
        proj = d.reshape(-1, length) @ m
        norm = cfg.lap_weight / (padded_length(length, cfg.pyramid_depth) * proj.shape[0])
        value = value + np.abs(proj).sum() * norm

    def vjp(g):
        half = np.full(d.shape, float(g) * (1.0 / d.size)) * d
        grad = half + half
        if lap:
            sign = np.full(proj.shape, float(g * norm)) * np.sign(proj)
            grad = grad + (sign @ m.T).reshape(d.shape)
        return (grad,)

    return ad.node(value, (pred,), vjp)
