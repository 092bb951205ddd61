"""U-Net backbone for the discrete diffusion model.

Follows the DDPM / D3PM architecture described in Section IV-A of the paper:
several resolution levels, two convolutional residual blocks per level,
optional self-attention at selected resolutions, sinusoidal timestep
embeddings injected into every residual block, stride-2 convolution for
downsampling and nearest-neighbour + conv for upsampling.  The network maps a
one-hot-encoded noisy topology tensor (and the timestep) to per-pixel logits
of the clean-sample posterior ``p_theta(x_0 | x_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functional as F
from .modules import Conv2d, Dropout, GroupNorm, Identity, Linear, Module, SiLU

# Training runs ``infer`` with a per-call ``cache``: a list every layer
# appends what its backward needs to, in forward order.  The reverse pass
# (each module's ``backward``) pops those entries in reverse order, so the
# cache is a stack owned by the call, never state on a module.  Without a
# cache ``infer`` records nothing and is the sampling hot path.

# SiLU has no parameters, so one instance serves every block.
_silu = SiLU()


def _norm_groups(channels: int) -> int:
    """Largest group count in {8, 4, 2, 1} dividing ``channels``."""
    for groups in (8, 4, 2, 1):
        if channels % groups == 0:
            return groups
    return 1


class TimestepEmbedding(Module):
    """Two-layer MLP applied to the sinusoidal timestep features."""

    def __init__(self, model_channels: int, embed_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.model_channels = model_channels
        self.dense_in = Linear(model_channels, embed_dim, rng=rng)
        self.dense_out = Linear(embed_dim, embed_dim, rng=rng)

    def infer(self, timesteps: np.ndarray, cache: "list | None" = None) -> np.ndarray:
        base = F.sinusoidal_embedding(timesteps, self.model_channels)
        hidden = _silu.infer(self.dense_in.infer(base, cache), cache)
        return _silu.infer(self.dense_out.infer(hidden, cache), cache)

    def backward(self, grad: np.ndarray, cache: list) -> None:
        """Reverse of :meth:`infer`; the timesteps are constants, so no input gradient."""
        grad = self.dense_out.backward(_silu.backward(grad, cache), cache)
        self.dense_in.backward(_silu.backward(grad, cache), cache)


class ResidualBlock(Module):
    """GroupNorm → SiLU → Conv, with timestep injection and a learned skip."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        embed_dim: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.norm1 = GroupNorm(_norm_groups(in_channels), in_channels)
        self.conv1 = Conv2d(in_channels, out_channels, 3, padding=1, rng=rng)
        self.time_proj = Linear(embed_dim, out_channels, rng=rng)
        self.norm2 = GroupNorm(_norm_groups(out_channels), out_channels)
        self.dropout = Dropout(dropout, rng=rng)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        if in_channels != out_channels:
            self.skip = Conv2d(in_channels, out_channels, 1, rng=rng)
        else:
            self.skip = Identity()

    def infer(
        self,
        x: np.ndarray,
        time_emb: np.ndarray,
        cache: "list | None" = None,
        train: bool = False,
    ) -> np.ndarray:
        """Block output; ``train`` applies dropout (sampling never does).

        ``time_emb`` has one row per sample or a single row shared by all.
        """
        hidden = self.conv1.infer(_silu.infer(self.norm1.infer(x, cache), cache), cache)
        time_term = self.time_proj.infer(_silu.infer(time_emb, cache), cache)
        batch, channels = time_term.shape
        hidden += time_term.reshape(batch, channels, 1, 1)
        if cache is not None:
            cache.append(batch)
        hidden = _silu.infer(self.norm2.infer(hidden, cache), cache)
        hidden = self.conv2.infer(self.dropout.infer(hidden, cache, train), cache)
        hidden += self.skip.infer(x, cache)
        return hidden

    def backward(self, grad: np.ndarray, cache: list) -> tuple[np.ndarray, np.ndarray]:
        """Reverse of :meth:`infer`: the input and time-embedding gradients."""
        grad_x = self.skip.backward(grad, cache)
        grad = self.dropout.backward(self.conv2.backward(grad, cache), cache)
        grad = self.norm2.backward(_silu.backward(grad, cache), cache)
        time_rows = cache.pop()
        grad_time = grad.sum(axis=(2, 3))
        if time_rows != grad_time.shape[0]:
            grad_time = grad_time.sum(axis=0, keepdims=True)
        grad_time = _silu.backward(self.time_proj.backward(grad_time, cache), cache)
        grad = self.conv1.backward(grad, cache)
        grad_x = grad_x + self.norm1.backward(_silu.backward(grad, cache), cache)
        return grad_x, grad_time


class SelfAttention2d(Module):
    """Single-head self-attention over spatial positions of a feature map."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.channels = channels
        self.norm = GroupNorm(_norm_groups(channels), channels)
        self.qkv = Conv2d(channels, channels * 3, 1, rng=rng)
        self.proj = Conv2d(channels, channels, 1, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None) -> np.ndarray:
        batch, channels, height, width = x.shape
        qkv = self.qkv.infer(self.norm.infer(x, cache), cache)
        qkv_flat = qkv.reshape(batch, 3, channels, height * width)
        q = qkv_flat[:, 0]
        k = qkv_flat[:, 1]
        v = qkv_flat[:, 2]
        scale = np.float32(1.0 / np.sqrt(channels))
        attn = F.softmax_array((q.transpose(0, 2, 1) @ k) * scale, axis=-1)
        if cache is not None:
            cache.append((qkv_flat, attn))
        out = v @ attn.transpose(0, 2, 1)
        out = out.reshape(batch, channels, height, width)
        return x + self.proj.infer(out, cache)

    def backward(self, grad: np.ndarray, cache: list) -> np.ndarray:
        """Reverse of :meth:`infer`: the input gradient."""
        batch, channels, height, width = grad.shape
        grad_out = self.proj.backward(grad, cache).reshape(batch, channels, height * width)
        qkv_flat, attn = cache.pop()
        q = qkv_flat[:, 0]
        k = qkv_flat[:, 1]
        v = qkv_flat[:, 2]
        grad_qkv = np.empty_like(qkv_flat)
        # out = v @ attn^T and scores = scale * q^T @ k, attn = softmax(scores).
        grad_qkv[:, 2] = grad_out @ attn
        grad_scores = F.softmax_backward(grad_out.transpose(0, 2, 1) @ v, attn)
        grad_scores *= np.float32(1.0 / np.sqrt(channels))
        grad_qkv[:, 0] = k @ grad_scores.transpose(0, 2, 1)
        grad_qkv[:, 1] = q @ grad_scores
        grad_norm = self.qkv.backward(grad_qkv.reshape(batch, 3 * channels, height, width), cache)
        return grad + self.norm.backward(grad_norm, cache)


class Downsample(Module):
    """Stride-2 convolution halving the spatial resolution."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, stride=2, padding=1, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None) -> np.ndarray:
        return self.conv.infer(x, cache)

    def backward(self, grad: np.ndarray, cache: list) -> np.ndarray:
        return self.conv.backward(grad, cache)


class Upsample(Module):
    """Nearest-neighbour upsample followed by a 3x3 convolution."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, padding=1, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None) -> np.ndarray:
        return self.conv.infer(F.upsample_nearest_array(x, 2), cache)

    def backward(self, grad: np.ndarray, cache: list) -> np.ndarray:
        return F.upsample_nearest_backward(self.conv.backward(grad, cache), 2)


@dataclass
class UNetConfig:
    """Architecture hyper-parameters of the diffusion backbone.

    The paper's configuration is ``in_channels=16`` (deep squish channels),
    ``image_size=32``, ``model_channels=128``, ``channel_mult=(1, 2, 2, 2)``,
    attention at resolution 16, two residual blocks per level and dropout 0.1.
    The defaults here are a laptop-scale version of the same network; tests
    shrink it further.
    """

    in_channels: int = 16
    num_classes: int = 2
    image_size: int = 32
    model_channels: int = 32
    channel_mult: tuple[int, ...] = (1, 2, 2)
    num_res_blocks: int = 2
    attention_resolutions: tuple[int, ...] = (16,)
    dropout: float = 0.1
    seed: int = 0

    paper_defaults: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.paper_defaults:
            self.model_channels = 128
            self.channel_mult = (1, 2, 2, 2)
            self.attention_resolutions = (16,)
            self.num_res_blocks = 2
            self.dropout = 0.1
        if self.image_size % (2 ** (len(self.channel_mult) - 1)):
            raise ValueError(
                "image_size must be divisible by 2**(levels-1) so every "
                "downsampling step halves the resolution exactly"
            )


class UNet(Module):
    """Predicts per-pixel class logits of the clean topology ``x_0``.

    Input  : one-hot noisy tensor, shape ``(N, in_channels * num_classes, M, M)``.
    Output : logits, shape ``(N, in_channels, num_classes, M, M)``.

    Training runs :meth:`infer` with a cache and hands the loss gradient to
    the explicit reverse pass :meth:`backward`.
    """

    def __init__(self, config: UNetConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        ch = config.model_channels
        embed_dim = ch * 4

        self.time_embedding = TimestepEmbedding(ch, embed_dim, rng)
        self.conv_in = Conv2d(config.in_channels * config.num_classes, ch, 3, padding=1, rng=rng)

        # --- encoder ---------------------------------------------------- #
        self.down_blocks: list[tuple[str, Module]] = []
        self.skip_channels: list[int] = [ch]
        current = ch
        resolution = config.image_size
        block_idx = 0
        for level, mult in enumerate(config.channel_mult):
            out_ch = ch * mult
            for _ in range(config.num_res_blocks):
                block = ResidualBlock(current, out_ch, embed_dim, config.dropout, rng)
                self._register_down(f"down_res_{block_idx}", block, "res")
                current = out_ch
                if resolution in config.attention_resolutions:
                    attn = SelfAttention2d(current, rng)
                    self._register_down(f"down_attn_{block_idx}", attn, "attn")
                self.skip_channels.append(current)
                block_idx += 1
            if level != len(config.channel_mult) - 1:
                down = Downsample(current, rng)
                self._register_down(f"down_sample_{level}", down, "down")
                self.skip_channels.append(current)
                resolution //= 2

        # --- bottleneck -------------------------------------------------- #
        self.mid_block1 = ResidualBlock(current, current, embed_dim, config.dropout, rng)
        self.mid_attn = SelfAttention2d(current, rng)
        self.mid_block2 = ResidualBlock(current, current, embed_dim, config.dropout, rng)

        # --- decoder ------------------------------------------------------ #
        self.up_blocks: list[tuple[str, Module]] = []
        block_idx = 0
        for level, mult in reversed(list(enumerate(config.channel_mult))):
            out_ch = ch * mult
            for _ in range(config.num_res_blocks + 1):
                skip_ch = self.skip_channels.pop()
                block = ResidualBlock(current + skip_ch, out_ch, embed_dim, config.dropout, rng)
                self._register_up(f"up_res_{block_idx}", block, "res")
                current = out_ch
                if resolution in config.attention_resolutions:
                    attn = SelfAttention2d(current, rng)
                    self._register_up(f"up_attn_{block_idx}", attn, "attn")
                block_idx += 1
            if level != 0:
                up = Upsample(current, rng)
                self._register_up(f"up_sample_{level}", up, "up")
                resolution *= 2

        self.norm_out = GroupNorm(_norm_groups(current), current)
        self.conv_out = Conv2d(
            current, config.in_channels * config.num_classes, 3, padding=1, rng=rng
        )

    # -- registration helpers (keep ordered lists AND named children) ----- #
    def _register_down(self, name: str, module: Module, kind: str) -> None:
        setattr(self, name, module)
        self.down_blocks.append((kind, module))

    def _register_up(self, name: str, module: Module, kind: str) -> None:
        setattr(self, name, module)
        self.up_blocks.append((kind, module))

    # -- inference ---------------------------------------------------------- #
    def infer(
        self,
        x_onehot: np.ndarray,
        timesteps: np.ndarray,
        cache: "list | None" = None,
        train: bool = False,
    ) -> np.ndarray:
        """Forward pass on plain arrays (the sampling hot path).

        With a ``cache`` every layer also records what :meth:`backward`
        needs; ``train`` applies dropout.  Sampling passes neither: no
        cache, no dropout, raw float32 arrays and matmul-based kernels.
        """
        config = self.config
        x = np.ascontiguousarray(x_onehot, dtype=np.float32)
        batch = x.shape[0]
        steps = np.asarray(timesteps).reshape(-1)
        if steps.size > 1 and np.all(steps == steps[0]):
            # Reverse diffusion feeds the whole batch the same timestep.  A
            # single-row embedding broadcast over the batch is cheaper AND
            # keeps per-sample results bitwise independent of the batch size
            # (BLAS picks different kernels for 1-row and N-row matmuls).
            time_emb = self.time_embedding.infer(steps[:1], cache)
        else:
            time_emb = self.time_embedding.infer(steps, cache)

        hidden = self.conv_in.infer(x, cache)
        skips = [hidden]
        for kind, module in self.down_blocks:
            if kind == "res":
                hidden = module.infer(hidden, time_emb, cache, train)
                skips.append(hidden)
            elif kind == "attn":
                hidden = module.infer(hidden, cache)
                skips[-1] = hidden
            else:  # downsample
                hidden = module.infer(hidden, cache)
                skips.append(hidden)

        hidden = self.mid_block1.infer(hidden, time_emb, cache, train)
        hidden = self.mid_attn.infer(hidden, cache)
        hidden = self.mid_block2.infer(hidden, time_emb, cache, train)

        for kind, module in self.up_blocks:
            if kind == "res":
                skip = skips.pop()
                if cache is not None:
                    cache.append(hidden.shape[1])
                hidden = np.concatenate([hidden, skip], axis=1)
                hidden = module.infer(hidden, time_emb, cache, train)
            else:  # attention or upsample
                hidden = module.infer(hidden, cache)

        out = self.conv_out.infer(_silu.infer(self.norm_out.infer(hidden, cache), cache), cache)
        return out.reshape(
            batch, config.in_channels, config.num_classes, config.image_size, config.image_size
        )

    # -- reverse pass -------------------------------------------------------- #
    def backward(
        self, grad: np.ndarray, cache: list, input_grad: bool = False
    ) -> "np.ndarray | None":
        """Reverse of one cached :meth:`infer` call; pops ``cache`` empty.

        Accumulates every parameter gradient and returns the input gradient
        (``None`` unless ``input_grad``).
        """
        grad = grad.reshape(grad.shape[0], -1, *grad.shape[3:])
        grad = self.conv_out.backward(grad, cache)
        grad = self.norm_out.backward(_silu.backward(grad, cache), cache)
        time_grads: list[np.ndarray] = []

        def res_backward(block: ResidualBlock, grad: np.ndarray) -> np.ndarray:
            grad, grad_time = block.backward(grad, cache)
            time_grads.append(grad_time)
            return grad

        # Decoder: each res block's input gradient splits into the part for
        # the running features and the part for the skip it consumed.
        skip_grads = []
        for kind, module in reversed(self.up_blocks):
            if kind == "res":
                grad = res_backward(module, grad)
                split = cache.pop()
                skip_grads.append(grad[:, split:])
                grad = grad[:, :split]
            else:
                grad = module.backward(grad, cache)

        grad = res_backward(self.mid_block2, grad)
        grad = self.mid_attn.backward(grad, cache)
        grad = res_backward(self.mid_block1, grad)

        # Encoder: every output that stayed on the skip stack also fed a
        # decoder block — all but a res block's whose attention replaced it.
        kinds = [kind for kind, _ in self.down_blocks] + [None]
        for index in reversed(range(len(self.down_blocks))):
            kind, module = self.down_blocks[index]
            if kind != "res" or kinds[index + 1] != "attn":
                grad = grad + skip_grads.pop()
            grad = res_backward(module, grad) if kind == "res" else module.backward(grad, cache)
        grad_x = self.conv_in.backward(grad + skip_grads.pop(), cache, input_grad)
        self.time_embedding.backward(np.sum(time_grads, axis=0), cache)
        return grad_x
