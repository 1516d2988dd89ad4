"""Taped ops that training never records, kept as the references the tests
compose cells and the loss from: the gate functions, ``concat``, ``sub``,
``abs_``, ``mean_all``, and a packed recurrent state built from separate
``h`` and ``c`` tensors."""

import numpy as np

from mesocast import autodiff as ad
from mesocast.cells import LstmState


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


def state_of(h: ad.Tensor, c: ad.Tensor) -> LstmState:
    """The packed ``[h | c]`` state of separate ``h`` and ``c`` tensors."""
    return LstmState(concat([h, c], axis=1))
