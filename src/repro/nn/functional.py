"""Array kernels with their vector-Jacobian products, and the training losses.

Each layer operator is written once, as two parts:

* a gradient-free array kernel (``linear_array``, ``silu_array``, ...; the
  convolution and normalisation kernels, ``_conv2d_forward`` and
  ``_group_norm_forward``, also return the values their VJP needs);
* a vector-Jacobian product over the values that kernel produced
  (``conv2d_backward``, ``linear_backward``, ``group_norm_backward``,
  ``layer_norm_backward``, ``silu_backward``, ``softmax_backward``,
  ``upsample_nearest_backward``).

The layers of :mod:`repro.nn.modules` call them from ``infer`` and
``backward``.  The losses (``mse_loss``, ``cross_entropy``) return their
value together with their gradient in closed form, which a trainer hands to
the model's ``backward``.  The convolution input gradient is itself a
stride-1 convolution, so it runs through the same gather + matmul as the
forward.
"""

from __future__ import annotations

import functools

import numpy as np

_DTYPE = np.float32


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error of ``pred`` against ``target``, and its gradient w.r.t. ``pred``.

    The gradient ``2·(pred − target)/n`` is summed as ``d/n + d/n``, the two
    factors of ``d·d`` one after the other, so it is bit-identical to
    differentiating ``mean(d * d)`` factor by factor.
    """
    diff = pred - target
    scale = _DTYPE(1.0 / diff.size)
    grad = diff * scale
    grad += grad
    return float((diff * diff).sum() * scale), grad


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the last axis, and its gradient w.r.t. ``logits``.

    ``targets`` has the shape of ``logits`` and holds a probability vector
    (usually one-hot) along the last axis; the mean runs over the other
    axes.  With ``g = -targets/n`` the gradient is ``g − softmax·Σg``, the
    log-softmax VJP of that upstream.
    """
    targets = np.asarray(targets, dtype=_DTYPE)
    log_probs = logits - logits.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    per_row = -(targets * log_probs).sum(axis=-1)
    scale = _DTYPE(1.0 / per_row.size)
    upstream = targets * -scale
    grad = upstream - np.exp(log_probs) * upstream.sum(axis=-1, keepdims=True)
    return float(per_row.sum() * scale), grad


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multiplier: ``0`` where a unit drops, ``1/(1-rate)`` elsewhere."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    return (rng.random(shape) >= rate).astype(_DTYPE) / (1.0 - rate)


# ---------------------------------------------------------------------- #
# gradient-free array kernels, each followed by its VJP
# ---------------------------------------------------------------------- #
# Array-in / array-out: no wrappers, no backward closures, contiguous
# float32 throughout, and matmul instead of einsum (which re-derives a
# contraction path on every call).


def _conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: "np.ndarray | None",
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution output plus the ``(N, C*kh*kw, out_h*out_w)`` tap columns."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"weight expects {ic} input channels, got {c}")
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        # Pointwise convolution (attention qkv/proj, skip projections) is a
        # plain channel matmul: the input already is its own column matrix.
        out_h, out_w = h, w
        cols = x.reshape(n, c, h * w)
    else:
        out_h, out_w, taps = _conv_tap_geometry(h, w, kh, kw, stride, padding)
        # Gather the kh*kw patch taps with strided slice copies.  Padding is
        # folded into the gather — border taps copy only the valid
        # sub-window of the *unpadded* input into a zeroed column buffer, so
        # no padded copy of the input is ever materialised.
        if padding:
            cols = np.zeros((n, c, kh * kw, out_h, out_w), dtype=x.dtype)
        else:
            cols = np.empty((n, c, kh * kw, out_h, out_w), dtype=x.dtype)
        for tap, dst_rows, dst_cols, src_rows, src_cols in taps:
            cols[:, :, tap, dst_rows, dst_cols] = x[:, :, src_rows, src_cols]
        cols = cols.reshape(n, c * kh * kw, out_h * out_w)
    out = np.matmul(weight.reshape(oc, -1), cols)
    if bias is not None:
        out += bias.reshape(1, oc, 1)
    return out.reshape(n, oc, out_h, out_w), cols


def conv2d_backward(
    grad: np.ndarray,
    weight: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
    input_grad: bool = True,
) -> tuple["np.ndarray | None", np.ndarray, np.ndarray]:
    """VJP of a convolution over its cached tap columns: ``(dx, dweight, dbias)``.

    ``dx`` is ``None`` unless ``input_grad`` is set.
    """
    n, oc = grad.shape[:2]
    grad_mat = grad.reshape(n, oc, -1)
    # dW = sum_n dY_n @ cols_n^T over the cached tap columns.
    grad_w = np.add.reduce(np.matmul(grad_mat, cols.transpose(0, 2, 1)), axis=0)
    grad_x = conv2d_input_grad(grad, weight, x_shape, stride, padding) if input_grad else None
    return grad_x, grad_w.reshape(weight.shape), np.add.reduce(grad_mat, axis=(0, 2))


def conv2d_input_grad(
    grad: np.ndarray,
    weight: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Input gradient of a convolution, computed as a stride-1 convolution.

    ``dx`` is the valid correlation of the output gradient with the flipped,
    channel-transposed kernel, once that gradient is zero-dilated by
    ``stride`` and padded by ``k - 1 - padding`` on every side — plus, on the
    far edges, the ``(h + 2*padding - k) % stride`` input rows and columns no
    window reached.  It runs through the same gather + matmul as the forward,
    which applies the padding both axes share while it gathers; only the
    dilation and any remaining padding are written out.
    """
    n, _, h, w = x_shape
    oc, _, kh, kw = weight.shape
    pad_h, pad_w = kh - 1 - padding, kw - 1 - padding
    if pad_h < 0 or pad_w < 0:
        raise ValueError(
            f"conv2d input gradient needs padding <= kernel size - 1, "
            f"got padding {padding} for a {kh}x{kw} kernel"
        )
    shared = min(pad_h, pad_w)
    top, left = pad_h - shared, pad_w - shared
    out_h, out_w = grad.shape[2:]
    rows = (out_h - 1) * stride + 1 + (h + 2 * padding - kh) % stride + 2 * top
    cols = (out_w - 1) * stride + 1 + (w + 2 * padding - kw) % stride + 2 * left
    if (rows, cols) != (out_h, out_w):
        dilated = np.zeros((n, oc, rows, cols), dtype=grad.dtype)
        dilated[
            :,
            :,
            top : top + (out_h - 1) * stride + 1 : stride,
            left : left + (out_w - 1) * stride + 1 : stride,
        ] = grad
        grad = dilated
    flipped = np.ascontiguousarray(weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return _conv2d_forward(grad, flipped, None, 1, shared)[0]


@functools.lru_cache(maxsize=256)
def _conv_tap_geometry(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[int, int, tuple]:
    """Precomputed slice pairs mapping input windows to im2col tap planes.

    Returns ``(out_h, out_w, taps)`` where each tap entry is
    ``(tap_index, dst_row_slice, dst_col_slice, src_row_slice, src_col_slice)``
    restricted to the region where the (virtually padded) window overlaps the
    real input.  Cached because the sampler calls the same few convolution
    geometries thousands of times.
    """
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    taps = []
    for i in range(kh):
        off_i = i - padding
        r0 = 0 if off_i >= 0 else (-off_i + stride - 1) // stride
        r1 = min((h - 1 - off_i) // stride, out_h - 1)
        if r1 < r0:
            continue
        for j in range(kw):
            off_j = j - padding
            c0 = 0 if off_j >= 0 else (-off_j + stride - 1) // stride
            c1 = min((w - 1 - off_j) // stride, out_w - 1)
            if c1 < c0:
                continue
            taps.append(
                (
                    i * kw + j,
                    slice(r0, r1 + 1),
                    slice(c0, c1 + 1),
                    slice(off_i + stride * r0, off_i + stride * r1 + 1, stride),
                    slice(off_j + stride * c0, off_j + stride * c1 + 1, stride),
                )
            )
    return out_h, out_w, tuple(taps)


def silu_array(x: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)`` on a plain array (three ufunc passes, one temp)."""
    out = np.exp(-x)
    out += 1.0
    np.divide(x, out, out=out)
    return out


def silu_backward(grad: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """VJP of SiLU given its input ``x`` and output ``out``."""
    sig = 1.0 / (1.0 + np.exp(-x))
    # d/dx x*sig(x) = sig + x*sig*(1 - sig) = sig + out*(1 - sig)
    return grad * (sig + out * (1.0 - sig))


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array."""
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def softmax_backward(grad: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """VJP of softmax given its output ``probs``."""
    return probs * (grad - (grad * probs).sum(axis=axis, keepdims=True))


def _group_norm_forward(
    x: np.ndarray, num_groups: int, weight: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised output plus the ``(N, G, M)`` centred input and ``(N, G)`` 1/std."""
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(f"{c} channels not divisible by {num_groups} groups")
    grouped = x.reshape(n, num_groups, -1)
    inv_count = _DTYPE(1.0 / grouped.shape[2])
    # np.add.reduce is np.sum minus the dispatch wrapper — measurable on the
    # thousands of small reductions a sampling run performs.  Variance must
    # be computed from the centred values: the two-moment shortcut
    # (E[x²] − E[x]²) cancels catastrophically in float32 once a feature map
    # develops a mean large relative to its spread.
    mean = np.add.reduce(grouped, axis=2) * inv_count
    centred = grouped - mean[:, :, None]
    var = np.add.reduce(centred * centred, axis=2) * inv_count
    inv_std = 1.0 / np.sqrt(var + eps)  # (n, groups)
    group_size = c // num_groups
    # Fold normalisation and the affine transform into one per-channel
    # scale/shift: out = x * scale + shift.
    scale = np.repeat(inv_std, group_size, axis=1) * weight  # (n, c)
    shift = bias - np.repeat(mean, group_size, axis=1) * scale
    out = x * scale[:, :, None, None]
    out += shift[:, :, None, None]
    return out, centred, inv_std


def group_norm_backward(
    grad: np.ndarray, centred: np.ndarray, inv_std: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VJP of group normalisation over the values its forward cached: ``(dx, dweight, dbias)``."""
    # Closed-form VJP of y = xhat * weight + bias, xhat = (x - mean) * inv_std:
    #   dx = inv_std * (g*w - mean(g*w) - xhat * mean(g*w * xhat))
    # per group.  Both group means are weighted sums of per-channel sums that
    # the parameter gradients need anyway, so only those are taken over the map.
    n, c, h, w = grad.shape
    groups = inv_std.shape[1]
    xhat = centred * inv_std[:, :, None]
    per_channel = grad.reshape(n, c, h * w)
    sum_g = np.add.reduce(per_channel, axis=2)  # (n, c)
    sum_gx = np.add.reduce(per_channel * xhat.reshape(n, c, h * w), axis=2)
    inv_count = _DTYPE(1.0 / xhat.shape[2])
    mean_g = np.add.reduce((sum_g * weight).reshape(n, groups, -1), axis=2) * inv_count
    mean_gx = np.add.reduce((sum_gx * weight).reshape(n, groups, -1), axis=2) * inv_count
    grad_x = (per_channel * weight[:, None]).reshape(xhat.shape)
    grad_x -= mean_g[:, :, None]
    grad_x -= xhat * mean_gx[:, :, None]
    grad_x *= inv_std[:, :, None]
    return grad_x.reshape(n, c, h, w), np.add.reduce(sum_gx, axis=0), np.add.reduce(sum_g, axis=0)


def _layer_norm_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis, plus the normalised input and ``(..., 1)`` std.

    The arithmetic is that of the primitive-op composition the layer used to
    be (a mean is a sum times ``1/count``, the std is ``(var + eps) ** 0.5``),
    which kept LayouTransformer's forward values.
    """
    inv_count = _DTYPE(1.0 / x.shape[-1])
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) * inv_count
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) * inv_count
    std = (var + _DTYPE(eps)) ** 0.5
    normed = centred / std
    return normed * weight + bias, normed, std


def layer_norm_backward(
    grad: np.ndarray, normed: np.ndarray, std: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VJP of layer normalisation over the values its forward cached: ``(dx, dweight, dbias)``."""
    # With g = grad * weight over the last axis:
    #   dx = (g - mean(g) - normed * mean(g * normed)) / std
    inv_count = _DTYPE(1.0 / normed.shape[-1])
    grad_normed = grad * weight
    grad_x = grad_normed - np.add.reduce(grad_normed, axis=-1, keepdims=True) * inv_count
    grad_x -= normed * (np.add.reduce(grad_normed * normed, axis=-1, keepdims=True) * inv_count)
    grad_x /= std
    rows = grad.reshape(-1, grad.shape[-1])
    grad_w = np.add.reduce(rows * normed.reshape(rows.shape), axis=0)
    return grad_x, grad_w, np.add.reduce(rows, axis=0)


def upsample_nearest_array(x: np.ndarray, scale: int = 2) -> np.ndarray:
    """Nearest-neighbour upsampling of ``(N, C, H, W)`` input by integer ``scale``."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return np.repeat(np.repeat(x, scale, axis=2), scale, axis=3)


def upsample_nearest_backward(grad: np.ndarray, scale: int = 2) -> np.ndarray:
    """VJP of nearest-neighbour upsampling: sum each ``scale x scale`` block."""
    n, c, h_out, w_out = grad.shape
    return grad.reshape(n, c, h_out // scale, scale, w_out // scale, scale).sum(axis=(3, 5))


def linear_array(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None" = None) -> np.ndarray:
    """Affine map ``x @ weight.T + bias`` for ``(..., in_features)`` input."""
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def linear_backward(
    grad: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VJP of the affine map ``x @ weight.T + bias``: ``(dx, dweight, dbias)``."""
    rows = grad.reshape(-1, grad.shape[-1])
    return grad @ weight, rows.T @ x.reshape(-1, x.shape[-1]), rows.sum(axis=0)


def sinusoidal_embedding(timesteps: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal position embedding of diffusion timesteps (Transformer-style).

    Returns a plain ``(len(timesteps), dim)`` array; it is an input feature,
    not a learnable quantity.
    """
    if dim % 2:
        raise ValueError("embedding dimension must be even")
    timesteps = np.asarray(timesteps, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half, dtype=np.float64) / half)
    args = timesteps[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1).astype(_DTYPE)
