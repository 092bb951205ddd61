"""Unit tests for the test-oracle autodiff tape (tests/tape.py).

The tape is the reference the layer VJPs and closed-form loss gradients are
checked against, so its own gradients are verified against central finite
differences for every primitive the oracles use: arithmetic, reductions,
reshapes, activations and matrix multiplication.
"""

import numpy as np
from tape import Tensor, concatenate, module_node, ones, randn, stack, tensor, zeros

from repro.nn import SiLU


def numerical_grad(func, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``func``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(x.copy().reshape(x.shape))
        flat[i] = original - eps
        minus = func(x.copy().reshape(x.shape))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-2) -> None:
    """Compare autograd gradient with finite differences for ``build(x)``."""
    t = Tensor(x.astype(np.float32), requires_grad=True)
    out = build(t)
    out.backward()
    expected = numerical_grad(lambda arr: float(build(Tensor(arr.astype(np.float32))).data.sum()), x.astype(np.float64))
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-2)


class TestConstructors:
    def test_tensor_shape_and_dtype(self):
        t = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float32

    def test_zeros_ones(self):
        assert zeros((2, 3)).data.sum() == 0
        assert ones((2, 3)).data.sum() == 6

    def test_randn_seeded(self):
        rng = np.random.default_rng(0)
        a = randn((4,), rng=rng)
        rng = np.random.default_rng(0)
        b = randn((4,), rng=rng)
        np.testing.assert_array_equal(a.data, b.data)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad


class TestBasicArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: (t + 3.0).sum(), np.random.default_rng(0).normal(size=(3, 4)))

    def test_mul(self):
        check_gradient(lambda t: (t * t).sum(), np.random.default_rng(1).normal(size=(3, 4)))

    def test_div(self):
        x = np.random.default_rng(2).uniform(0.5, 2.0, size=(3, 3))
        check_gradient(lambda t: (1.0 / t).sum(), x)

    def test_sub_and_neg(self):
        check_gradient(lambda t: (5.0 - t).sum() + (-t).sum(), np.random.default_rng(3).normal(size=(4,)))

    def test_pow(self):
        x = np.random.default_rng(4).uniform(0.5, 2.0, size=(5,))
        check_gradient(lambda t: (t**3).sum(), x)

    def test_matmul(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        b_const = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        check_gradient(lambda t: (t @ b_const).sum(), a)

    def test_matmul_batched(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 3, 4))
        b_const = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32))
        check_gradient(lambda t: (t @ b_const).sum(), a)

    def test_broadcast_add_gradient_shape(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3,), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_gradient_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.backward()
        np.testing.assert_allclose(t.grad, [7.0])


class TestActivationsGradients:
    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), np.random.default_rng(7).normal(size=(3, 3)))

    def test_log(self):
        x = np.random.default_rng(8).uniform(0.5, 3.0, size=(6,))
        check_gradient(lambda t: t.log().sum(), x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), np.random.default_rng(9).normal(size=(4, 2)))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), np.random.default_rng(10).normal(size=(4,)))

    def test_relu(self):
        x = np.array([-1.0, -0.5, 0.5, 2.0])
        check_gradient(lambda t: t.relu().sum(), x)

    def test_silu(self):
        check_gradient(
            lambda t: module_node(SiLU(), t).sum(), np.random.default_rng(11).normal(size=(5,))
        )

    def test_clip_gradient_mask(self):
        t = Tensor(np.array([-2.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductionAndShapeGradients:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=1) ** 2).sum(), np.random.default_rng(12).normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_gradient(
            lambda t: (t - t.sum(axis=1, keepdims=True)).sum() + (t * t).sum(),
            np.random.default_rng(13).normal(size=(2, 3)),
        )

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=(0, 1)) * 3.0).sum(), np.random.default_rng(14).normal(size=(3, 4)))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), np.random.default_rng(15).normal(size=(2, 3)))

    def test_transpose(self):
        rng = np.random.default_rng(16)
        weight = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        check_gradient(lambda t: (t.transpose(1, 0) * weight).sum(), rng.normal(size=(2, 3)))

    def test_getitem_slice(self):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(), np.random.default_rng(17).normal(size=(3, 3)))

    def test_getitem_integer_array(self):
        idx = np.array([0, 2, 2])
        check_gradient(lambda t: (t[idx] ** 2).sum(), np.random.default_rng(18).normal(size=(4, 2)))

    def test_max_gradient_routes_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_concatenate_gradient(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = concatenate([a, b], axis=1)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_gradient(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestBackwardMechanics:
    def test_backward_on_nonscalar_requires_matching_grad(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = t * 2.0
        out.backward(np.full((2, 2), 0.5, dtype=np.float32))
        np.testing.assert_allclose(t.grad, np.ones((2, 2)))

    def test_no_grad_tracking_without_requires_grad(self):
        t = Tensor(np.ones(3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array([1.5], dtype=np.float32), requires_grad=True)
        a = t * 2.0
        b = t * 3.0
        out = (a * b).sum()  # 6 t^2 -> grad 12 t
        out.backward()
        np.testing.assert_allclose(t.grad, [18.0], rtol=1e-5)
