"""Taped ops that training never records, kept as the references the tests
compose cells and the loss from: the gate functions, ``concat``, ``sub``,
``abs_``, ``mean_all``; the packed ``[h | c]`` recurrent state built from
separate ``h`` and ``c`` tensors or zeros, and its ``h`` and ``c`` halves;
and ``reconstruct``, the inverse of ``losses.build_pyramid``."""

import numpy as np

from mesocast import autodiff as ad
from mesocast.losses import PyramidLevels, _expand


def reconstruct(levels: PyramidLevels, mode: str = "zero") -> np.ndarray:
    """Invert ``build_pyramid``; exact because details store the expansion
    error verbatim."""
    g = levels.residual
    for detail in reversed(levels.details):
        g = detail + _expand(g, mode)
    return g


def sigmoid(a: ad.Tensor) -> ad.Tensor:
    y = ad.sigmoid_array(a.data)
    return ad.node(y, (a,), lambda g: (g * (y * (1.0 - y)),))


def tanh(a: ad.Tensor) -> ad.Tensor:
    y = np.tanh(a.data)
    return ad.node(y, (a,), lambda g: (g * (1.0 - y * y),))


def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")
    return ad.node(a.data - b.data, (a, b), lambda g: (g, -g))


def abs_(a: ad.Tensor) -> ad.Tensor:
    # subgradient 0 at the kink
    sgn = np.sign(a.data)
    return ad.node(np.abs(a.data), (a,), lambda g: (g * sgn,))


def mean_all(a: ad.Tensor) -> ad.Tensor:
    shape = a.data.shape
    inv = 1.0 / a.data.size
    return ad.node(a.data.mean(), (a,), lambda g: (np.full(shape, float(g) * inv),))


def concat(parts, axis: int = 0) -> ad.Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat: no inputs")
    datas = [p.data for p in parts]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(gm[offsets[i]:offsets[i + 1]], 0, axis) for i in range(len(sizes))
        )

    return ad.node(out, parts, vjp)


def state_of(h: ad.Tensor, c: ad.Tensor) -> ad.Tensor:
    """The packed ``[h | c]`` state of separate ``h`` and ``c`` tensors."""
    return concat([h, c], axis=1)


def zero_state(rows: int, hidden: int) -> ad.Tensor:
    """An all-zero packed ``(rows, 2 * hidden)`` state."""
    return ad.tensor(np.zeros((rows, 2 * hidden)))


def h_of(state: ad.Tensor) -> ad.Tensor:
    """The taped ``h`` half of a packed state."""
    return ad.narrow(state, 1, 0, state.shape[1] // 2)


def c_of(state: ad.Tensor) -> ad.Tensor:
    """The taped ``c`` half of a packed state."""
    half = state.shape[1] // 2
    return ad.narrow(state, 1, half, half)
