import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mesocast import autodiff as ad
from gradcheck import assert_grads_close
from reference_ops import abs_, add_bias, concat, mean_all, narrow, reshape, sigmoid, sub, tanh


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_oracle(x):
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.tensor(np.eye(2)), ad.tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(ad.tensor(p), ad.tensor(b))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        out = ad.matmul(ad.tensor(a), ad.tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 2))))

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (5, 3, 4))
        b = rng.uniform(-1, 1, (5, 4, 2))
        w = rng.uniform(-1, 1, (4, 2))
        out = ad.matmul(ad.tensor(a), ad.tensor(b))
        for i in range(5):
            np.testing.assert_allclose(out.data[i], matmul_oracle(a[i], b[i]), atol=1e-12)
        out_w = ad.matmul(ad.tensor(a), ad.tensor(w))
        for i in range(5):
            np.testing.assert_allclose(out_w.data[i], matmul_oracle(a[i], w), atol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_rows(ad.tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_analytic_row(self):
        out = ad.softmax_rows(ad.tensor([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (4, 4))
        out = ad.softmax_rows(ad.tensor(x))
        np.testing.assert_allclose(out.data, softmax_oracle(x), rtol=0, atol=1e-12)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, x):
        out = ad.softmax_rows(ad.tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), rtol=0, atol=1e-12)
        assert np.all(out >= 0)

    @given(
        arrays(np.float64, (2, 4), elements=st.floats(-30, 30)),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, x, c):
        a = ad.softmax_rows(ad.tensor(x)).data
        b = ad.softmax_rows(ad.tensor(x + c)).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(ad.tensor([0.0])).data[0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh(ad.tensor([0.0])).data[0] == 0.0

    def test_sigmoid_derivative_at_zero(self):
        w = ad.parameter([0.0])
        out = ad.sum_all(sigmoid(w))
        ad.backward(out)
        np.testing.assert_allclose(w.grad, [0.25], atol=1e-15)

    def test_sigmoid_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-20, 20, 64)
        np.testing.assert_allclose(
            sigmoid(ad.tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-12
        )

    def test_binary_shape_mismatch(self):
        for op in (ad.add, sub, ad.mul):
            with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
                op(ad.tensor(np.zeros(2)), ad.tensor(np.zeros(3)))


class TestStructural:
    def test_concat(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
        out = concat([ad.tensor(a), ad.tensor(b)])
        assert out.shape == (5,)
        np.testing.assert_array_equal(out.data[:3], a)

    def test_mean_of_ones(self):
        assert mean_all(ad.tensor(np.ones((2, 3)))).data == 1.0

    def test_narrow_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            narrow(ad.tensor(np.zeros(4)), 0, 2, 3)

    def test_transpose_reshape(self):
        x = np.arange(6.0).reshape(2, 3)
        t = ad.transpose(ad.tensor(x))
        np.testing.assert_array_equal(t.data, x.T)
        r = reshape(ad.tensor(x), (3, 2))
        np.testing.assert_array_equal(r.data, x.reshape(3, 2))


class TestBackward:
    def test_sum_of_squares(self):
        x = ad.parameter([1.0, 2.0])
        out = ad.sum_all(ad.mul(x, x))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_sigmoid_chain(self):
        w = ad.parameter([[0.0]])
        out = ad.sum_all(sigmoid(ad.matmul(w, ad.tensor([[1.0]]))))
        ad.backward(out)
        np.testing.assert_allclose(w.grad, [[0.25]], atol=1e-15)

    def test_non_scalar_root_rejected(self):
        x = ad.parameter(np.zeros(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(x)

    def test_seed_is_the_gradient_of_a_non_scalar_root(self):
        # training seeds its unroll node with the losses' gradients
        x = ad.parameter([1.0, 2.0])
        seed = np.array([0.5, -3.0])
        ad.backward(ad.mul(x, x), seed)
        np.testing.assert_array_equal(x.grad, [1.0, -12.0])

    def test_two_passes_bitwise_identical(self):
        rng = np.random.default_rng(5)
        w = ad.parameter(rng.uniform(-1, 1, (4, 4)))
        x = ad.tensor(rng.uniform(-1, 1, (3, 4)))

        def run():
            h = tanh(ad.matmul(x, w))
            loss = mean_all(ad.mul(h, h))
            ad.backward(loss)
            return w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_shared_subgraph_accumulates(self):
        # y = x*x + x ; dy/dx = 2x + 1
        x = ad.parameter([3.0])
        out = ad.sum_all(ad.add(ad.mul(x, x), x))
        ad.backward(out)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-15)


def composite_all_primitives(leaves):
    """Exercises every primitive in one differentiable scalar."""
    x, w, b, v = leaves
    h = add_bias(ad.matmul(x, w), b)                     # (3, 4)
    h = sigmoid(h)
    att = ad.softmax_rows(ad.matmul(h, ad.transpose(h)))
    h = ad.matmul(att, h)
    h = concat([h, ad.scale(h, 0.5)], axis=1)            # (3, 8)
    h = narrow(h, 1, 1, 6)                               # (3, 6)
    h = tanh(reshape(h, (2, 9)))
    h = ad.mul(h, h)
    row = ad.matmul(h, v)                                # (2, 1)
    total = ad.add(ad.sum_all(abs_(row)), mean_all(sub(h, h)))
    return ad.scale(total, 0.25)


class TestGradientsAgainstFiniteDifferences:
    def test_composite_of_all_primitives(self):
        rng = np.random.default_rng(17)
        values = [
            rng.uniform(-2, 2, (3, 5)),
            rng.uniform(-2, 2, (5, 4)),
            rng.uniform(-2, 2, 4),
            rng.uniform(-2, 2, (9, 1)),
        ]
        assert_grads_close(composite_all_primitives, values, h=1e-6, tol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_primitive(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-2, 2, (3, 4))
        y = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-2, 2, (4, 3))
        cases = {
            "add": (lambda l: ad.sum_all(ad.mul(ad.add(l[0], l[1]), l[0])), [x, y]),
            "sub": (lambda l: ad.sum_all(ad.mul(sub(l[0], l[1]), l[1])), [x, y]),
            "mul": (lambda l: mean_all(ad.mul(l[0], l[1])), [x, y]),
            "scale": (lambda l: ad.sum_all(ad.scale(l[0], -1.7)), [x]),
            "sigmoid": (lambda l: mean_all(sigmoid(l[0])), [x]),
            "tanh": (lambda l: mean_all(tanh(l[0])), [x]),
            # keep |x| away from the kink by construction
            "abs": (lambda l: ad.sum_all(abs_(l[0])), [np.sign(x) * (0.05 + np.abs(x))]),
            "matmul": (lambda l: ad.sum_all(ad.matmul(l[0], l[1])), [x, w]),
            "softmax": (lambda l: ad.sum_all(ad.mul(ad.softmax_rows(l[0]), l[1])), [x, y]),
            "concat": (lambda l: ad.sum_all(ad.mul(concat(l, axis=0), concat(l[::-1], axis=0))), [x, y]),
            "narrow": (lambda l: ad.sum_all(narrow(l[0], 1, 1, 2)), [x]),
            "transpose": (lambda l: ad.sum_all(ad.mul(ad.transpose(l[0]), l[1])), [x, x.T.copy()]),
            "reshape": (lambda l: ad.sum_all(ad.mul(reshape(l[0], (2, 6)), l[1])), [x, x.reshape(2, 6).copy()]),
            "add_bias": (lambda l: ad.sum_all(ad.mul(add_bias(l[0], l[1]), l[0])), [x, rng.uniform(-2, 2, 4)]),
            "bmm": (
                lambda l: ad.sum_all(ad.matmul(reshape(l[0], (2, 2, 3)), l[1])),
                [rng.uniform(-2, 2, (2, 6)), rng.uniform(-2, 2, (3, 2))],
            ),
        }
        for name, (build, values) in cases.items():
            try:
                assert_grads_close(build, values, h=1e-6, tol=1e-6)
            except AssertionError as exc:  # pragma: no cover
                raise AssertionError(f"{name}: {exc}") from exc


def _autodiff_names_used_outside():
    """Every ``autodiff`` name that a ``src/mesocast`` module other than
    ``autodiff``, or a module under ``bench/``, imports from it or reads as an
    attribute of it."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths = [*Path(ad.__file__).parent.glob("*.py"), *bench.glob("*.py")]
    used = set()
    for path in paths:
        if path.stem == "autodiff":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in ("autodiff", "mesocast.autodiff"):
                used.update(name.name for name in node.names)
            elif node.module in (None, "mesocast"):
                aliases.update(name.asname or name.name for name in node.names
                               if name.name == "autodiff")
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return used


def test_every_exported_op_is_used_by_src():
    # an op that neither training nor the benchmark records moves to the
    # tests' references
    unused = sorted(set(ad.__all__) - _autodiff_names_used_outside())
    assert unused == [], f"autodiff exports names no src or bench module uses: {unused}"


def _defined_names(top: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's,
    or every target of an alias ``a = b = name``."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign) and isinstance(top.value, ast.Name):
        return [t.id for t in top.targets if isinstance(t, ast.Name)]
    return []


def _public_definitions(path: Path) -> list[str]:
    """The public functions, classes and module-level aliases of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [name for top in tree.body for name in _defined_names(top)
            if not name.startswith("_")]


def _mesocast_imports(tree: ast.Module) -> set[str]:
    """The names a module binds by importing from the mesocast package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mesocast"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or "mesocast" for alias in node.names
                         if alias.name.split(".")[0] == "mesocast")
    return names


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _names_outside_own_definition(paths) -> set[str]:
    """Every name that the modules at ``paths`` read, import or spell as a
    string (the benchmark's tracer binds functions by name), except where a
    definition names itself or an ``__all__`` lists it.  An attribute counts
    only off a name imported from mesocast (``ad.add``), so that ``np.add``
    or a set's ``seen.add`` reads as no use of ``autodiff.add``."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = _mesocast_imports(tree)
        for top in tree.body:
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
                continue
            own = _defined_names(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    root = _root(node.value)
                    if not (isinstance(root, ast.Name) and root.id in imported):
                        continue
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


PACKAGE = Path(ad.__file__).parent
REPO = PACKAGE.parents[1]


def test_every_public_definition_is_used_outside_the_tests():
    # a function, class or alias that only the tests name is unused API: it
    # goes, or moves to the tests' references
    paths = [*PACKAGE.glob("*.py"), *(REPO / "bench").glob("*.py"),
             *(REPO / "scripts").glob("*.py")]
    used = _names_outside_own_definition(paths)
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_definitions(path) if name not in used]
    assert unused == [], f"public definitions that no src, bench or script module names: {unused}"


# What src keeps only for the benchmark: its next version binds names that
# last, and then these leave src (ROADMAP item 1).
BENCHMARK_ONLY = {
    # autodiff.tensor joined when the taped unroll loop, src's last caller, left src;
    # autodiff.add when the one-node training chunk removed its last src caller
    "autodiff.tensor", "autodiff.add", "autodiff.mul", "autodiff.sum_all",
    "cells.self_attention",
    "models.forecast_recursive",
    "train.load_checkpoint", "models.OneStepModel", "models.AllAtOnceModel",
    "models.NStepModel", "train.train_one_step_model", "train.train_nstep",
}


def test_benchmark_only_api_is_pinned():
    # a public name that bench/ names and no src or scripts module does is
    # API kept for the benchmark alone; the set may only shrink
    src = _names_outside_own_definition([*PACKAGE.glob("*.py"), *(REPO / "scripts").glob("*.py")])
    bench = _names_outside_own_definition((REPO / "bench").glob("*.py"))
    kept = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
            for name in _public_definitions(path) if name in bench - src}
    assert kept == BENCHMARK_ONLY, (
        f"src API that only bench/ names moved: {sorted(kept ^ BENCHMARK_ONLY)}; ROADMAP item 1 "
        "binds names that last and deletes the rest, so update this set with it")
