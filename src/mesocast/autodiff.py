"""Dense float64 tensors with a reverse-mode tape.

Every operation records its inputs and a vector-Jacobian closure on the
output tensor; ``backward`` replays the recorded graph once in reverse
topological order.  All arithmetic is 64-bit and evaluation order is fixed,
so repeated passes over the same graph are bitwise identical.

Training records one op: a chunk's model unroll is one ``node`` on the
model's blocks whose adjoint walks its schedule backwards (``models``), and
``backward`` seeds it with the losses' closed-form gradients (``train``).
Row softmax, ``transpose``, ``matmul`` and ``scale`` serve only
``cells.self_attention``, the taped reference the fused attention is tested
against; ``add``, ``mul`` and ``sum_all`` serve the tests' scalarizers and
``bench/test_bench.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "parameter",
    "node",
    "backward",
    "add",
    "mul",
    "scale",
    "matmul",
    "softmax_rows",
    "transpose",
    "sum_all",
    "sigmoid_array",
]


def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5*(1+tanh(x/2)); agrees with 1/(1+exp(-x))
    to ~1 ulp and, unlike exp(-x), cannot overflow, so large negative inputs
    raise no RuntimeWarning.  It is not the faster form: 1/(1+exp(-x))
    measured 27-35 % faster at 21 and 672 rows of width 64 (2 vCPU)."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


class Tensor:
    """A float64 array plus optional tape bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    """Constant (non-trainable) tensor."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def node(data, parents, vjp) -> Tensor:
    """Record ``data`` as the output of an op on ``parents`` whose
    vector-Jacobian product ``vjp`` maps the output gradient to one gradient
    (or None) per parent; a constant when no parent requires a gradient."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")
    x, y = a.data, b.data
    return node(x * y, (a, b), lambda g: (g * y, g * x))


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return node(a.data * k, (a,), lambda g: (g * k,))


# ---------------------------------------------------------------------------
# matrix products, softmax, transpose and sum
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-D operands, batched when ``a`` is 3-D.

    Supported shapes: (m,k)@(k,n); (B,m,k)@(B,k,n); (B,m,k)@(k,n) where the
    right operand is a shared weight matrix applied to every batch entry.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ValueError(f"matmul: inner extents disagree, {ad.shape} @ {bd.shape}")

        def vjp(g):
            return g @ bd.T, ad.T @ g

        return node(ad @ bd, (a, b), vjp)
    if ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
            raise ValueError(f"matmul: batch shapes disagree, {ad.shape} @ {bd.shape}")

        def vjp(g):
            return g @ bd.swapaxes(1, 2), ad.swapaxes(1, 2) @ g

        return node(ad @ bd, (a, b), vjp)
    if ad.ndim == 3 and bd.ndim == 2:
        if ad.shape[2] != bd.shape[0]:
            raise ValueError(f"matmul: inner extents disagree, {ad.shape} @ {bd.shape}")
        B, m, k = ad.shape
        n = bd.shape[1]

        def vjp(g):
            da = g @ bd.T
            db = ad.reshape(B * m, k).T @ g.reshape(B * m, n)
            return da, db

        return node(ad @ bd, (a, b), vjp)
    raise ValueError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction."""
    x = a.data
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    y = z

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return node(y, (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ValueError(f"transpose: needs ndim >= 2, got shape {a.data.shape}")
    return node(a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return node(a.data.sum(), (a,), lambda g: (np.full(shape, float(g)),))


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(root: Tensor, seed: np.ndarray | None = None) -> None:
    """Populate ``.grad`` on every trainable leaf reachable from ``root``,
    whose gradient is ``seed`` (1 when omitted, for a scalar root).

    Accumulation is out-of-place and follows one fixed reverse-topological
    order, so two passes over the same graph give bitwise-identical gradients.
    """
    if seed is None and root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    acc: dict[int, np.ndarray] = {id(root): np.ones_like(root.data) if seed is None else seed}
    for t in reversed(topo):
        g = acc.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            t.grad = np.array(g)  # leaf; own the buffer
            continue
        for p, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            prev = acc.get(id(p))
            # out-of-place: stored buffers are never mutated, aliasing is safe
            acc[id(p)] = pg if prev is None else prev + pg
