"""Taped ops that training never records, kept as the references the tests
compose cells from: the gate functions, ``concat``, and a packed recurrent
state built from separate ``h`` and ``c`` tensors."""

import numpy as np

from mesocast import autodiff as ad
from mesocast.cells import LstmState


def sigmoid(a: ad.Tensor) -> ad.Tensor:
    y = ad.sigmoid_array(a.data)
    return ad.node(y, (a,), lambda g: (g * (y * (1.0 - y)),))


def tanh(a: ad.Tensor) -> ad.Tensor:
    y = np.tanh(a.data)
    return ad.node(y, (a,), lambda g: (g * (1.0 - y * y),))


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
