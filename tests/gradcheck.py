"""Central finite-difference gradient checking used across the test suite."""

import numpy as np

from mesocast import autodiff as ad


def finite_difference_grads(build, values, h=1e-6):
    """Numeric gradients of ``build`` w.r.t. every array in ``values``.

    ``build`` maps a list of Tensors to a scalar Tensor; it is re-executed
    with perturbed constant inputs, so it must be a pure function.
    """
    grads = []
    for i, base in enumerate(values):
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for j in range(base.size):
            args_hi = [v.copy() for v in values]
            args_lo = [v.copy() for v in values]
            args_hi[i].reshape(-1)[j] += h
            args_lo[i].reshape(-1)[j] -= h
            f_hi = build([ad.tensor(v) for v in args_hi]).item()
            f_lo = build([ad.tensor(v) for v in args_lo]).item()
            flat[j] = (f_hi - f_lo) / (2.0 * h)
        grads.append(g)
    return grads


def analytic_grads(build, values):
    leaves = [ad.parameter(v) for v in values]
    out = build(leaves)
    ad.backward(out)
    return [np.zeros_like(v) if leaf.grad is None else leaf.grad for v, leaf in zip(values, leaves)]


def max_rel_error(build, values, h=1e-6):
    """max over all coordinates of |analytic - numeric| / max(1, |a|, |n|)."""
    ana = analytic_grads(build, values)
    num = finite_difference_grads(build, values, h=h)
    worst = 0.0
    for a, n in zip(ana, num):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_grads_close(build, values, h=1e-6, tol=1e-6):
    err = max_rel_error(build, values, h=h)
    assert err <= tol, f"gradient mismatch: max relative error {err:.3e} > {tol:.0e}"


def assert_block_grads_close(loss, blocks, trainable=None, h=1e-6, tol=1e-6):
    """Check the gradient ``ad.backward`` leaves on each tensor of ``blocks``
    (a model's ``blocks()``) of the scalar ``loss()`` against central
    differences, perturbing each entry of each block in place.  A block
    outside ``trainable`` (None = every block) must receive none."""
    for t in blocks.values():
        t.grad = None
    ad.backward(loss())
    ana = {name: t.grad for name, t in blocks.items()}
    for name, t in blocks.items():
        if trainable is not None and name not in trainable:
            assert ana[name] is None, f"{name}: a frozen block received a gradient"
            continue
        num = np.zeros_like(t.data)
        for j in range(t.data.size):
            base = t.data.reshape(-1)[j]
            t.data.reshape(-1)[j] = base + h
            hi = loss().item()
            t.data.reshape(-1)[j] = base - h
            lo = loss().item()
            t.data.reshape(-1)[j] = base
            num.reshape(-1)[j] = (hi - lo) / (2.0 * h)
        a = np.zeros_like(num) if ana[name] is None else ana[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(num)))
        err = float(np.max(np.abs(a - num) / denom))
        assert err <= tol, f"{name}: max relative error {err:.3e} > {tol:.0e}"
