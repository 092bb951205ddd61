"""Sequential pattern-generation baseline (LayouTransformer, ref. [9]).

LayouTransformer models a layout pattern as a token sequence describing its
polygons and trains an autoregressive transformer over those sequences.  The
reimplementation here works on the squish grid: every pattern is serialised
into the maximal horizontal runs of its shapes, each run encoded by three
tokens ``(row, col_start, col_end)``, wrapped in BOS/EOS markers.  A small
causal transformer learns the sequence distribution; sampling produces new
sequences which are rasterised back into topology matrices.

As in the paper, the sequence model produces diverse patterns but has no
explicit legalisation, so a fraction of its outputs violates design rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..geometry import runs_of_value
from ..nn import Embedding, LayerNorm, Linear, Module, SiLU
from ..nn import functional as F
from ..utils import as_rng
from .base import TopologyGenerator, validate_matrices


# --------------------------------------------------------------------------- #
# sequence (de)serialisation
# --------------------------------------------------------------------------- #
def matrix_to_tokens(matrix: np.ndarray, grid_size: int) -> list[int]:
    """Serialise one topology matrix into a run-token sequence."""
    bos = grid_size
    eos = grid_size + 1
    tokens = [bos]
    for row in range(matrix.shape[0]):
        for start, end in runs_of_value(matrix[row], 1):
            tokens.extend([row, start, end])
    tokens.append(eos)
    return tokens


def tokens_to_matrix(tokens: list[int], grid_size: int) -> np.ndarray:
    """Rasterise a token sequence back into a topology matrix.

    Malformed triples (out-of-range indices or reversed runs) are skipped —
    the sequence model has no hard guarantee of validity, which is exactly the
    behaviour being modelled.
    """
    bos = grid_size
    eos = grid_size + 1
    matrix = np.zeros((grid_size, grid_size), dtype=np.uint8)
    body = [t for t in tokens if t != bos]
    if eos in body:
        body = body[: body.index(eos)]
    for i in range(0, len(body) - 2, 3):
        row, start, end = body[i], body[i + 1], body[i + 2]
        if 0 <= row < grid_size and 0 <= start <= end < grid_size:
            matrix[row, start : end + 1] = 1
    return matrix


# --------------------------------------------------------------------------- #
# model
# --------------------------------------------------------------------------- #
class CausalSelfAttention(Module):
    """Single-head causal self-attention over ``(B, T, D)`` sequences."""

    def __init__(self, dim: int, rng) -> None:
        super().__init__()
        self.dim = dim
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        _, seq_len, dim = x.shape
        q = self.query.infer(x, cache)
        k = self.key.infer(x, cache)
        v = self.value.infer(x, cache)
        scores = (q @ k.transpose(0, 2, 1)) * np.float32(1.0 / np.sqrt(dim))
        scores += np.triu(np.full((seq_len, seq_len), -1e9, dtype=np.float32), k=1)
        attn = F.softmax_array(scores, axis=-1)
        if cache is not None:
            cache.append((q, k, v, attn))
        return self.proj.infer(attn @ v, cache)

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        """Reverse of :meth:`infer`: the input gradient, summed over q, k, v in that order."""
        grad_out = self.proj.backward(grad, cache)
        q, k, v, attn = cache.pop()
        # out = attn @ v and scores = scale * q @ k^T, attn = softmax(scores).
        grad_v = np.swapaxes(attn, -1, -2) @ grad_out
        grad_scores = F.softmax_backward(grad_out @ np.swapaxes(v, -1, -2), attn)
        grad_scores = grad_scores * np.float32(1.0 / np.sqrt(self.dim))
        grad_q = grad_scores @ k
        grad_k = np.swapaxes(grad_scores, -1, -2) @ q
        grad_x_v = self.value.backward(grad_v, cache)
        grad_x_k = self.key.backward(grad_k, cache)
        grad_x_q = self.query.backward(grad_q, cache)
        return (grad_x_q + grad_x_k) + grad_x_v


class TransformerBlock(Module):
    """Pre-norm transformer block: attention + MLP with residuals."""

    def __init__(self, dim: int, hidden_mult: int, rng) -> None:
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = CausalSelfAttention(dim, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp_in = Linear(dim, dim * hidden_mult, rng=rng)
        self.act = SiLU()
        self.mlp_out = Linear(dim * hidden_mult, dim, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        x = x + self.attn.infer(self.norm1.infer(x, cache), cache)
        hidden = self.act.infer(self.mlp_in.infer(self.norm2.infer(x, cache), cache), cache)
        return x + self.mlp_out.infer(hidden, cache)

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        hidden = self.act.backward(self.mlp_out.backward(grad, cache), cache)
        grad = grad + self.norm2.backward(self.mlp_in.backward(hidden, cache), cache)
        return grad + self.norm1.backward(self.attn.backward(grad, cache), cache)


class SequenceModel(Module):
    """Token + position embeddings, N transformer blocks, vocab head."""

    def __init__(self, vocab: int, max_len: int, dim: int, layers: int, rng) -> None:
        super().__init__()
        self.vocab = vocab
        self.max_len = max_len
        self.token_embedding = Embedding(vocab, dim, rng=rng)
        self.position_embedding = Embedding(max_len, dim, rng=rng)
        self.blocks = []
        for idx in range(layers):
            block = TransformerBlock(dim, 2, rng)
            setattr(self, f"block_{idx}", block)
            self.blocks.append(block)
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, vocab, rng=rng)

    def infer(
        self, tokens: np.ndarray, cache: "list | None" = None, train: bool = False
    ) -> np.ndarray:
        """Next-token logits ``(B, T, vocab)`` for ``(B, T)`` token indices."""
        positions = np.arange(tokens.shape[1])
        x = self.token_embedding.infer(tokens, cache) + self.position_embedding.infer(
            positions, cache
        )
        for block in self.blocks:
            x = block.infer(x, cache)
        return self.head.infer(self.norm.infer(x, cache), cache)

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = False) -> None:
        """Reverse of :meth:`infer`; token indices get no gradient."""
        grad = self.norm.backward(self.head.backward(grad, cache), cache)
        for block in reversed(self.blocks):
            grad = block.backward(grad, cache)
        # The positions broadcast over the batch, so their rows sum over it.
        self.position_embedding.backward(grad.sum(axis=(0,)), cache)
        self.token_embedding.backward(grad, cache)


# --------------------------------------------------------------------------- #
# generator
# --------------------------------------------------------------------------- #
@dataclass
class LayouTransformerConfig:
    """Hyper-parameters of the sequence baseline."""

    dim: int = 32
    layers: int = 2
    iterations: int = 300
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_runs: int = 24          # sequences are truncated to BOS + 3*max_runs + EOS
    temperature: float = 1.0
    seed: int = 0


class LayouTransformerGenerator(TopologyGenerator):
    """Autoregressive polygon-run sequence model."""

    name = "LayouTransformer"

    def __init__(self, config: "LayouTransformerConfig | None" = None) -> None:
        self.config = config if config is not None else LayouTransformerConfig()
        self.model: "SequenceModel | None" = None
        #: Per-iteration metrics of the last :meth:`fit` (see :func:`repro.nn.fit`).
        self.training_history: list[dict[str, float]] = []
        self._grid_size: "int | None" = None
        self._max_len: "int | None" = None

    # ------------------------------------------------------------------ #
    def _encode_batch(self, matrices: np.ndarray) -> np.ndarray:
        """Token matrix ``(N, max_len)`` padded with EOS."""
        grid_size = self._grid_size
        eos = grid_size + 1
        sequences = []
        for matrix in matrices:
            tokens = matrix_to_tokens(matrix, grid_size)[: self._max_len]
            tokens = tokens + [eos] * (self._max_len - len(tokens))
            sequences.append(tokens)
        return np.asarray(sequences, dtype=np.int64)

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "LayouTransformerGenerator":
        cfg = self.config
        arr = validate_matrices(matrices)
        gen = as_rng(rng if rng is not None else cfg.seed)
        self._grid_size = arr.shape[1]
        self._max_len = 2 + 3 * cfg.max_runs
        vocab = self._grid_size + 2
        self.model = SequenceModel(vocab, self._max_len, cfg.dim, cfg.layers, gen)
        self.training_history = nn.fit(
            self.loss, self._encode_batch(arr), self.model.parameters(),
            cfg.iterations, cfg.batch_size, gen, lr=cfg.learning_rate,
        )
        return self

    def loss(
        self, batch: np.ndarray, rng: np.random.Generator
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Next-token cross-entropy of one token batch: ``(reverse pass, metrics)``."""
        inputs, targets = batch[:, :-1], batch[:, 1:]
        cache: list = []
        logits = self.model.infer(inputs, cache)
        one_hot_targets = np.zeros(logits.shape, dtype=np.float32)
        np.put_along_axis(one_hot_targets, targets[..., None], 1.0, axis=-1)
        value, grad = F.cross_entropy(logits, one_hot_targets)

        def backward() -> None:
            self.model.backward(grad, cache)

        return backward, {"loss": value}

    def generate(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit must be called before generate")
        cfg = self.config
        gen = as_rng(rng)
        grid_size = self._grid_size
        bos, eos = grid_size, grid_size + 1
        outputs = []
        for _ in range(count):
            tokens = [bos]
            for _ in range(self._max_len - 1):
                logits = self.model.infer(np.asarray([tokens], dtype=np.int64))[0, -1]
                logits = logits / max(cfg.temperature, 1e-6)
                logits -= logits.max()
                probs = np.exp(logits)
                probs /= probs.sum()
                token = int(gen.choice(len(probs), p=probs))
                tokens.append(token)
                if token == eos:
                    break
            outputs.append(tokens_to_matrix(tokens, grid_size))
        return np.stack(outputs, axis=0)
