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

import numpy as np

from ..geometry import runs_of_value
from ..nn import Embedding, LayerNorm, Linear, Module, SiLU, Tensor, no_grad
from ..nn import functional as F
from ..nn.optim import Adam
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

    def forward(self, x: Tensor) -> Tensor:
        _, seq_len, dim = x.shape
        q = self.query(x)
        k = self.key(x)
        v = self.value(x)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(dim))
        mask = np.triu(np.full((seq_len, seq_len), -1e9, dtype=np.float32), k=1)
        attn = F.softmax(scores + Tensor(mask), axis=-1)
        return self.proj(attn @ v)


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

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.mlp_out(self.act(self.mlp_in(self.norm2(x))))


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

    def forward(self, tokens: np.ndarray) -> Tensor:
        _, seq_len = tokens.shape
        positions = np.arange(seq_len)
        x = self.token_embedding(tokens) + self.position_embedding(positions)
        for block in self.blocks:
            x = block(x)
        return self.head(self.norm(x))


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
        tokens = self._encode_batch(arr)
        optimizer = Adam(self.model.parameters(), lr=cfg.learning_rate)
        for _ in range(cfg.iterations):
            idx = gen.integers(0, tokens.shape[0], size=min(cfg.batch_size, tokens.shape[0]))
            batch = tokens[idx]
            inputs, targets = batch[:, :-1], batch[:, 1:]
            logits = self.model(inputs)
            one_hot_targets = np.zeros(logits.shape, dtype=np.float32)
            np.put_along_axis(one_hot_targets, targets[..., None], 1.0, axis=-1)
            loss = F.cross_entropy_with_logits(logits, one_hot_targets, axis=-1)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return self

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
        with no_grad():
            for _ in range(count):
                tokens = [bos]
                for _ in range(self._max_len - 1):
                    logits = self.model(np.asarray([tokens], dtype=np.int64)).numpy()[0, -1]
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
