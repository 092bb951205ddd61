"""Reference layers on the primitive-op tape, for checking the layers' VJPs.

Each layer of :mod:`repro.nn` is an array kernel with a hand-written
vector-Jacobian product.  The functions here compute the same layers from
primitive :class:`tape.Tensor` operations (or, for the convolution, an
``as_strided`` im2col with an einsum and a col2im scatter), so the tape
differentiates them op by op.  They are the implementations the kernels
replaced; tests run both on the same values and compare.
"""

import numpy as np

from tape import Tensor


def _im2col(x, kh, kw, stride, pad):
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def _col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, :, i, j
            ]
    return padded[:, :, pad : pad + h, pad : pad + w]


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(oc, -1)
    out = np.einsum("ok,nkl->nol", w_mat, cols, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad):
        grad_mat = grad.reshape(n, oc, out_h * out_w)
        if bias is not None:
            bias.accumulate(grad_mat.sum(axis=(0, 2)))
        grad_w = np.einsum("nol,nkl->ok", grad_mat, cols, optimize=True)
        weight.accumulate(grad_w.reshape(weight.shape))
        grad_cols = np.einsum("ok,nol->nkl", w_mat, grad_mat, optimize=True)
        x.accumulate(_col2im(grad_cols, (n, c, h, w), kh, kw, stride, padding))

    return x._make(out.reshape(n, oc, out_h, out_w), parents, backward_fn)


def ref_linear(x, weight, bias=None):
    out = x @ weight.transpose()
    return out if bias is None else out + bias


def ref_group_norm(x, num_groups, weight, bias, eps=1e-5):
    n, c, h, w = x.shape
    grouped = x.reshape(n, num_groups, c // num_groups * h * w)
    mean = grouped.mean(axis=2, keepdims=True)
    centred = grouped - mean
    var = (centred * centred).mean(axis=2, keepdims=True)
    normed = (centred / ((var + eps) ** 0.5)).reshape(n, c, h, w)
    return normed * weight.reshape(1, c, 1, 1) + bias.reshape(1, c, 1, 1)


def ref_layer_norm(x, weight, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    normed = centred / ((var + eps) ** 0.5)
    return normed * weight + bias


def ref_embedding(weight, indices):
    return weight[np.asarray(indices)]


def ref_softmax(x, axis=-1):
    exp = (x - Tensor(x.data.max(axis=axis, keepdims=True))).exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def ref_log_softmax(x, axis=-1):
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def ref_silu(x):
    return x * x.sigmoid()


def ref_upsample_nearest(x, scale=2):
    _, _, h, w = x.shape
    rows = np.repeat(np.arange(h), scale)
    cols = np.repeat(np.arange(w), scale)
    return x[:, :, rows][:, :, :, cols]
