"""Training objectives: mean squared error plus a band-pass pyramid penalty
that weights fine spatial scales, used to sharpen shockwave fronts.

The pyramid is one-dimensional along the segment axis and is applied row by
row, so a (rows, length) array of spatial profiles is decomposed in one
pass.  Profiles are padded with zeros.  Reduction uses the binomial kernel
[1, 4, 6, 4, 1]/16; expansion zero-stuffs and blurs with doubled gain.
Details are stored as the exact difference between a level and the
expansion of the next, so reconstruction is exact by construction.  The
penalty is set by the pyramid's depth alone, and depth 0 turns it off.

``build_pyramid`` is an untaped numpy function and the reference
definition of the pyramid.  Every step of it, padding included, is
linear, so level j of a profile x is x @ A_j for a fixed matrix A_j, and the
penalty sum_j 4^j |L_j(p) - L_j(t)|_1 is |(p - t) @ M|_1 with one matrix
M = [A_0 | 4 A_1 | ... | 4^depth R], the pyramid of the identity.  So the
loss's adjoint is closed-form: 2 (p - t) / n plus sign((p - t) M) Mᵀ, scaled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_KERNEL = (1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16)


@dataclass
class PyramidLevels:
    details: list[np.ndarray]  # band-pass levels, level j has length padded/2^j
    residual: np.ndarray       # low-pass top, length padded/2^depth


def padded_length(length: int, depth: int) -> int:
    """Smallest multiple of 2**depth that is >= length."""
    block = 1 << depth
    return ((length + block - 1) // block) * block


def _pad(x: np.ndarray, left: int, right: int) -> np.ndarray:
    """``x`` with ``left`` and ``right`` zeros about its last axis."""
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(left, right)])


def _blur(xp: np.ndarray, n: int, gain: float) -> np.ndarray:
    """The 5-tap kernel times ``gain`` over a profile padded by 2 per side."""
    acc = xp[..., 0:n] * (gain * _KERNEL[0])
    for k in range(1, 5):
        acc = acc + xp[..., k:k + n] * (gain * _KERNEL[k])
    return acc


def _reduce(x: np.ndarray) -> np.ndarray:
    return _blur(_pad(x, 2, 2), x.shape[-1], 1.0)[..., ::2]


def _expand(x: np.ndarray) -> np.ndarray:
    """Upsample to twice the length: pad, zero-stuff, blur with gain 2."""
    xp = _pad(x, 1, 1)
    up = np.zeros(xp.shape[:-1] + (2 * xp.shape[-1],))
    up[..., ::2] = xp
    return _blur(up, 2 * x.shape[-1], 2.0)


def build_pyramid(x, depth: int) -> PyramidLevels:
    """Decompose profiles (last axis) into ``depth`` band-pass levels plus a
    low-pass residual; the input is right-padded to a multiple of 2**depth."""
    if depth < 1:
        raise ValueError(f"build_pyramid: depth must be >= 1, got {depth}")
    current = np.asarray(x, dtype=np.float64)
    current = _pad(current, 0, padded_length(current.shape[-1], depth) - current.shape[-1])
    details = []
    for _ in range(depth):
        coarser = _reduce(current)
        details.append(current - _expand(coarser))
        current = coarser
    return PyramidLevels(details=details, residual=current)


@functools.lru_cache(maxsize=32)   # a process uses one or two keys; bounded all the same
def pyramid_matrix(length: int, depth: int) -> np.ndarray:
    """Read-only M = [A_0 | 4 A_1 | ... | 4^depth R] with ``length`` rows:
    x @ M is x's pyramid levels side by side, level j weighted by 4^j (a power
    of two, so the weighting is exact)."""
    levels = build_pyramid(np.eye(length), depth)
    m = np.hstack([4.0 ** j * a for j, a in enumerate(levels.details + [levels.residual])])
    m.flags.writeable = False
    return m


def combined_loss(pred: Tensor, truth: np.ndarray, depth: int) -> Tensor:
    """mse + |(pred - truth) @ M|_1 / (padded length * profile count) as one
    node on ``pred``, M the pyramid matrix of ``depth`` levels; depth 0 is the
    plain mse.  The residual is M's top level, so coarse speed-level error is
    penalised too.  The float expressions keep the order of the composed ops
    (mean of squares; product, abs, sum, scale) the pinned results were
    trained with."""
    t = np.asarray(truth, dtype=np.float64)
    if pred.shape != t.shape:
        raise ValueError(f"combined_loss: shape mismatch {pred.shape} vs {t.shape}")
    d = pred.data - t
    value = (d * d).mean()
    lap = depth > 0
    if lap:
        length = d.shape[-1]
        m = pyramid_matrix(length, depth)
        proj = d.reshape(-1, length) @ m
        norm = 1.0 / (padded_length(length, depth) * proj.shape[0])
        value = value + np.abs(proj).sum() * norm

    def vjp(g):
        half = np.full(d.shape, float(g) * (1.0 / d.size)) * d
        grad = half + half
        if lap:
            sign = np.full(proj.shape, float(g * norm)) * np.sign(proj)
            grad = grad + (sign @ m.T).reshape(d.shape)
        return (grad,)

    return ad.node(value, (pred,), vjp)
