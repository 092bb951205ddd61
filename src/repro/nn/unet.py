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
from .modules import Conv2d, Dropout, GroupNorm, Identity, Linear, Module
from .tensor import Tensor, concatenate


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

    def forward(self, timesteps: np.ndarray) -> Tensor:
        base = F.sinusoidal_embedding(timesteps, self.model_channels)
        hidden = self.dense_in(Tensor(base)).silu()
        return self.dense_out(hidden).silu()

    def infer(self, timesteps: np.ndarray) -> np.ndarray:
        base = F.sinusoidal_embedding(timesteps, self.model_channels)
        hidden = F.silu_array(self.dense_in.infer(base))
        return F.silu_array(self.dense_out.infer(hidden))


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

    def forward(self, x: Tensor, time_emb: Tensor) -> Tensor:
        hidden = self.conv1(self.norm1(x).silu())
        time_term = self.time_proj(time_emb.silu())
        batch, channels = time_term.shape
        hidden = hidden + time_term.reshape(batch, channels, 1, 1)
        hidden = self.conv2(self.dropout(self.norm2(hidden).silu()))
        return hidden + self.skip(x)

    def infer(self, x: np.ndarray, time_emb: np.ndarray) -> np.ndarray:
        hidden = self.conv1.infer(F.silu_array(self.norm1.infer(x)))
        time_term = self.time_proj.infer(F.silu_array(time_emb))
        batch, channels = time_term.shape
        hidden += time_term.reshape(batch, channels, 1, 1)
        hidden = self.conv2.infer(F.silu_array(self.norm2.infer(hidden)))
        hidden += self.skip.infer(x)
        return hidden


class SelfAttention2d(Module):
    """Single-head self-attention over spatial positions of a feature map."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.channels = channels
        self.norm = GroupNorm(_norm_groups(channels), channels)
        self.qkv = Conv2d(channels, channels * 3, 1, rng=rng)
        self.proj = Conv2d(channels, channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        qkv = self.qkv(self.norm(x))
        qkv_flat = qkv.reshape(batch, 3, channels, height * width)
        q = qkv_flat[:, 0]
        k = qkv_flat[:, 1]
        v = qkv_flat[:, 2]
        scale = 1.0 / np.sqrt(channels)
        attn = F.softmax((q.transpose(0, 2, 1) @ k) * scale, axis=-1)
        out = v @ attn.transpose(0, 2, 1)
        out = out.reshape(batch, channels, height, width)
        return x + self.proj(out)

    def infer(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        qkv = self.qkv.infer(self.norm.infer(x))
        qkv_flat = qkv.reshape(batch, 3, channels, height * width)
        q = qkv_flat[:, 0]
        k = qkv_flat[:, 1]
        v = qkv_flat[:, 2]
        scale = np.float32(1.0 / np.sqrt(channels))
        attn = F.softmax_array((q.transpose(0, 2, 1) @ k) * scale, axis=-1)
        out = v @ attn.transpose(0, 2, 1)
        out = out.reshape(batch, channels, height, width)
        return x + self.proj.infer(out)


class Downsample(Module):
    """Stride-2 convolution halving the spatial resolution."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, stride=2, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.conv.infer(x)


class Upsample(Module):
    """Nearest-neighbour upsample followed by a 3x3 convolution."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(F.upsample_nearest(x, 2))

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.conv.infer(F.upsample_nearest_array(x, 2))


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

    # -- forward ----------------------------------------------------------- #
    def forward(self, x_onehot: Tensor, timesteps: np.ndarray) -> Tensor:
        config = self.config
        batch = x_onehot.shape[0]
        time_emb = self.time_embedding(timesteps)

        hidden = self.conv_in(x_onehot)
        skips = [hidden]
        for kind, module in self.down_blocks:
            if kind == "res":
                hidden = module(hidden, time_emb)
                skips.append(hidden)
            elif kind == "attn":
                hidden = module(hidden)
                skips[-1] = hidden
            else:  # downsample
                hidden = module(hidden)
                skips.append(hidden)

        hidden = self.mid_block1(hidden, time_emb)
        hidden = self.mid_attn(hidden)
        hidden = self.mid_block2(hidden, time_emb)

        for kind, module in self.up_blocks:
            if kind == "res":
                skip = skips.pop()
                hidden = module(concatenate([hidden, skip], axis=1), time_emb)
            elif kind == "attn":
                hidden = module(hidden)
            else:  # upsample
                hidden = module(hidden)

        out = self.conv_out(self.norm_out(hidden).silu())
        return out.reshape(
            batch, config.in_channels, config.num_classes, config.image_size, config.image_size
        )

    # -- inference ---------------------------------------------------------- #
    def infer(self, x_onehot: np.ndarray, timesteps: np.ndarray) -> np.ndarray:
        """Gradient-free forward pass on plain arrays (the sampling hot path).

        Mirrors :meth:`forward` operation by operation but never touches the
        autodiff tape: dropout is skipped, all intermediates are raw float32
        arrays, and convolutions run through the matmul-based array kernels.
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
            time_emb = self.time_embedding.infer(steps[:1])
        else:
            time_emb = self.time_embedding.infer(steps)

        hidden = self.conv_in.infer(x)
        skips = [hidden]
        for kind, module in self.down_blocks:
            if kind == "res":
                hidden = module.infer(hidden, time_emb)
                skips.append(hidden)
            elif kind == "attn":
                hidden = module.infer(hidden)
                skips[-1] = hidden
            else:  # downsample
                hidden = module.infer(hidden)
                skips.append(hidden)

        hidden = self.mid_block1.infer(hidden, time_emb)
        hidden = self.mid_attn.infer(hidden)
        hidden = self.mid_block2.infer(hidden, time_emb)

        for kind, module in self.up_blocks:
            if kind == "res":
                skip = skips.pop()
                hidden = module.infer(np.concatenate([hidden, skip], axis=1), time_emb)
            elif kind == "attn":
                hidden = module.infer(hidden)
            else:  # upsample
                hidden = module.infer(hidden)

        out = self.conv_out.infer(F.silu_array(self.norm_out.infer(hidden)))
        return out.reshape(
            batch, config.in_channels, config.num_classes, config.image_size, config.image_size
        )
