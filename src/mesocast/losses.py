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
M = [A_0 | 4 A_1 | ... | 4^depth R], the pyramid of the identity.  The taped
``lap_loss`` is that one product against a cached, read-only M.
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else ad.tensor(x)


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


def mse(pred, truth) -> Tensor:
    p, t = _as_tensor(pred), _as_tensor(truth)
    if p.shape != t.shape:
        raise ValueError(f"mse: shape mismatch {p.shape} vs {t.shape}")
    diff = ad.sub(p, t)
    return ad.mean_all(ad.mul(diff, diff))


def lap_loss(x, x_other, depth: int, mode: str = "zero") -> Tensor:
    """sum_j 4^j |L_j(x) - L_j(x_other)|_1 over the pyramid levels, with the
    residual counted as the top index so coarse speed-level error is
    penalised too; depth 0 disables the term and returns constant zero."""
    a, b = _as_tensor(x), _as_tensor(x_other)
    if a.shape != b.shape:
        raise ValueError(f"lap_loss: shape mismatch {a.shape} vs {b.shape}")
    if depth == 0:
        return ad.tensor(0.0)
    length = a.shape[-1]
    diff = ad.reshape(ad.sub(a, b), (-1, length))
    return ad.sum_all(ad.abs_(ad.matmul(diff, ad.tensor(pyramid_matrix(length, depth, mode)))))


def combined_loss(pred, truth, cfg: LossConfig) -> Tensor:
    """mse + lap_weight * lap / (padded length * profile count); the per-entry
    normalisation keeps both terms comparable at lap_weight 1."""
    p, t = _as_tensor(pred), _as_tensor(truth)
    err = mse(p, t)
    if cfg.pyramid_depth == 0 or cfg.lap_weight == 0.0:
        return err
    lap = lap_loss(p, t, cfg.pyramid_depth, cfg.padding_mode)
    rows = int(np.prod(p.shape[:-1])) if p.data.ndim > 1 else 1
    norm = cfg.lap_weight / (padded_length(p.shape[-1], cfg.pyramid_depth) * rows)
    return ad.add(err, ad.scale(lap, norm))
