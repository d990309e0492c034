"""Joint CTC-attention transformer with optional N-best hypothesis memory.

The encoder is a strided 2D-conv front end followed by pre-norm
self-attention blocks; a linear+log-softmax head on top of it produces
the CTC posterior. The decoder is a standard pre-norm transformer
decoder, optionally extended per layer with a parallel attention
sub-layer over an encoded N-best memory whose output is concatenated
with self-attention and projected back to model width.

Parameters live in one name->Tensor ``tensor.Parameters`` over a flat
float64 arena (prefixes ``embed.``, ``encoder.``, ``ctc_head.``,
``decoder.``, ``ne.``) so checkpoints can be loaded selectively by module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.ctc import NBestList
from ctcfuse.data import pad_id_rows
from ctcfuse.tensor import Tensor

MASK_VALUE = -1e30

METHOD_BASELINE = "baseline"
METHOD_FUSION = "embed_fusion"
METHOD_ALIGNED = "aligned_fusion"
METHOD_NBEST = "nbest_memory"
METHODS = (METHOD_BASELINE, METHOD_FUSION, METHOD_ALIGNED, METHOD_NBEST)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    encoder_layers: int = 2
    decoder_layers: int = 2
    ne_layers: int = 1
    vocab_size: int = 20
    dropout: float = 0.0
    subsample_factor: int = 4
    feature_dim: int = 8

    def __post_init__(self):
        for key in ("d_model", "num_heads", "ffn_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if min(self.encoder_layers, self.decoder_layers, self.vocab_size) < 1:
            raise ValueError("layer and vocabulary counts must be >= 1")
        if self.ne_layers < 0:
            raise ValueError("ne_layers must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.subsample_factor not in (2, 4):
            raise ValueError("subsample factor must be 2 or 4 (stride-2 conv stages)")


@dataclass(frozen=True)
class FusionConfig:
    """How CTC hypotheses enter the decoder during training."""

    method: str = METHOD_BASELINE
    alpha: float = 0.5
    n: int = 3
    beam_width: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.beam_width < self.n:
            raise ValueError("beam_width must be >= n")


@dataclass
class EncoderOutput:
    """Encoder states plus the post-subsampling frame bookkeeping."""

    h_s: Tensor  # [B, T', d_model]
    lengths: np.ndarray  # [B] int64, real frames per utterance
    key_bias: np.ndarray  # [B, 1, 1, T'] additive attention mask


@lru_cache(maxsize=64)
def _sinusoidal_pe(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    idx = np.arange(0, d_model, 2).astype(np.float64)
    angle = pos / np.power(10000.0, idx / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
    return pe


@lru_cache(maxsize=64)
def _causal_bias(length: int) -> np.ndarray:
    bias = np.triu(np.full((length, length), MASK_VALUE), k=1)
    return bias[None, None, :, :]


def _length_bias(lengths: np.ndarray, t_max: int) -> np.ndarray:
    mask = np.arange(t_max)[None, :] < lengths[:, None]
    bias = np.where(mask, 0.0, MASK_VALUE)
    return bias[:, None, None, :]


def _conv_stages(config) -> int:
    """Stride-2 conv stages in the front end: one per halving of ``subsample_factor``."""
    return 1 if config.subsample_factor == 2 else 2


def _layout(config, with_ne_memory: bool, n: int) -> list[tuple[str, int, dict[str, tuple]]]:
    """The parameter table: ``(prefix, repeats, {name: shape})`` blocks in init order.

    A block is repeated ``repeats`` times, its ``{i}`` in the prefix
    numbering the copies; the encoder and the N-best memory share one
    layer block. ``config`` may be any object with ``ModelConfig``'s size
    fields.
    """
    d, f, v = config.d_model, config.ffn_dim, config.vocab_size

    def linear(rows: int, cols: int) -> dict:
        return {"w": (rows, cols), "b": (cols,)}

    def nest(**parts: dict) -> dict:
        return {f"{part}.{name}": shape for part, block in parts.items()
                for name, shape in block.items()}

    norm = {"g": (d,), "b": (d,)}
    attention = nest(q=linear(d, d), k=linear(d, d), v=linear(d, d), o=linear(d, d))
    ffn = nest(fc1=linear(d, f), fc2=linear(f, d))
    layer = nest(ln1=norm, attn=attention, ln2=norm, ffn=ffn)
    conv, in_ch, freq = {}, 1, config.feature_dim
    for stage in range(1, _conv_stages(config) + 1):
        conv[f"conv{stage}"] = {"w": (d, in_ch, 3, 3), "b": (d,)}
        in_ch, freq = d, (freq + 1) // 2
    side = {"ne": attention, "nproj": linear(2 * d, d)} if with_ne_memory else {}
    blocks = [
        ("embed", 1, {"table": (v, d)}),
        ("encoder.sub", 1, nest(**conv, proj=linear(d * freq, d))),
        ("encoder.layer{i}", config.encoder_layers, layer),
        ("encoder.ln", 1, norm),
        ("ctc_head", 1, linear(d, v)),
        ("decoder.layer{i}", config.decoder_layers,
         nest(ln1=norm, self=attention, **side, ln2=norm, cross=attention, ln3=norm, ffn=ffn)),
        ("decoder.ln", 1, norm),
        ("decoder.out", 1, linear(d, v)),
    ]
    if with_ne_memory:
        blocks += [("ne.proj", 1, linear(n * d, d)), ("ne.layer{i}", config.ne_layers, layer),
                   ("ne.ln", 1, norm)]
    return blocks


def param_specs(config: ModelConfig, with_ne_memory: bool, n: int = 1) -> dict[str, tuple]:
    """Deterministic name -> shape map for every trainable tensor, in init order."""
    return {f"{prefix.format(i=i)}.{name}": shape
            for prefix, repeats, block in _layout(config, with_ne_memory, n)
            for i in range(repeats) for name, shape in block.items()}


def param_count(config: ModelConfig, with_ne_memory: bool, n: int = 1) -> int:
    """How many floats :func:`param_specs` declares, summed block by block.

    No name is listed, so a size too large to build costs nothing here.
    ``config`` may be any object with ``ModelConfig``'s size fields.
    """
    return sum(repeats * sum(math.prod(shape) for shape in block.values())
               for _, repeats, block in _layout(config, with_ne_memory, n))


class Model:
    """Stateful parameter holder; all forward passes build fresh graphs."""

    def __init__(self, config: ModelConfig, fusion: FusionConfig, seed: int = 0,
                 arrays: dict[str, np.ndarray] | None = None):
        """Parameters copy ``arrays[name]`` if given (no init draw), else hold an init drawn from ``seed``."""
        self.config = config
        self.fusion = fusion
        self.uses_ne_memory = fusion.method == METHOD_NBEST
        if self.uses_ne_memory and config.ne_layers < 1:
            raise ValueError("the N-best method needs ne_layers >= 1")
        self.training = False
        self.rng = np.random.default_rng(seed + 1)

        init_rng = np.random.default_rng(seed)
        values = {}
        for name, shape in param_specs(config, self.uses_ne_memory, fusion.n).items():
            if arrays is not None:
                values[name] = arrays[name]
            elif name.endswith((".g", ".b")):  # norm gains start at 1, norm shifts and biases at 0
                values[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
            elif name == "embed.table":
                values[name] = init_rng.normal(0.0, config.d_model ** -0.5, size=shape)
            else:
                values[name] = tz.glorot(shape, init_rng)
        self.params = tz.Parameters(values)

    # -- mode & parameter plumbing ------------------------------------------

    def train(self, flag: bool = True) -> "Model":
        self.training = flag
        return self

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- shared building blocks ----------------------------------------------

    def _linear(self, x: Tensor, name: str) -> Tensor:
        return tz.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _norm(self, x: Tensor, name: str) -> Tensor:
        return tz.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _drop(self, x: Tensor) -> Tensor:
        return tz.dropout(x, self.config.dropout, self.rng, self.training)

    def _mha(self, prefix: str, q_in: Tensor, kv_in: Tensor, bias: np.ndarray | None,
             cache: "DecoderCache | None" = None) -> Tensor:
        """Multi-head attention of ``q_in`` [B, Lq, d] over ``kv_in`` [Bk, Lk, d].

        Keys and values keep the batch size of ``kv_in``, so a ``kv_in`` of
        one row serves every query row. With a ``cache``, keys and values
        come from :meth:`DecoderCache.keys_values`.
        """
        q = self._linear(q_in, f"{prefix}.q")
        if cache is None:
            k, v = self._keys_values(prefix, kv_in)
        else:
            k, v = cache.keys_values(prefix, kv_in, self._keys_values)
        ctx = tz.attention(q, k, v, self.config.num_heads, bias)
        return self._linear(ctx, f"{prefix}.o")

    def _keys_values(self, prefix: str, kv_in: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values [Bk, Lk, d] of ``kv_in``."""
        return self._linear(kv_in, f"{prefix}.k"), self._linear(kv_in, f"{prefix}.v")

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        return self._linear(tz.relu(self._linear(x, f"{prefix}.fc1")), f"{prefix}.fc2")

    def _stack(self, x: Tensor, prefix: str, layers: int, key_bias: np.ndarray | None) -> Tensor:
        """``layers`` pre-norm self-attention/FFN blocks, then the final ``{prefix}.ln`` norm."""
        for i in range(layers):
            h = self._norm(x, f"{prefix}.layer{i}.ln1")
            x = x + self._drop(self._mha(f"{prefix}.layer{i}.attn", h, h, key_bias))
            h = self._norm(x, f"{prefix}.layer{i}.ln2")
            x = x + self._drop(self._ffn(h, f"{prefix}.layer{i}.ffn"))
        return self._norm(x, f"{prefix}.ln")

    # -- encoder ----------------------------------------------------------------

    def encode(self, features: np.ndarray, lengths: np.ndarray) -> EncoderOutput:
        """Conv subsampling then self-attention blocks over real frames.

        ``features`` is [B, T, F] with zero padding past each utterance's
        length; padded frames stay masked through every stage so states
        on real frames are independent of the amount of padding. A
        non-finite feature raises ``FloatingPointError``: under
        :func:`tz.fp_guard` no op would see it.
        """
        if features.ndim != 3 or features.shape[2] != self.config.feature_dim:
            raise ValueError(
                f"expected features [B, T, {self.config.feature_dim}], got {features.shape}"
            )
        if not np.isfinite(features).all():
            raise FloatingPointError("non-finite input features")
        lengths = np.asarray(lengths, dtype=np.int64)
        if int(lengths.min()) < self.config.subsample_factor:
            raise ValueError(
                f"utterance too short: need at least {self.config.subsample_factor} frames"
            )
        b, t_max, _ = features.shape
        x = Tensor(features.reshape(b, 1, t_max, features.shape[2]))
        cur = lengths.copy()
        for stage in range(1, _conv_stages(self.config) + 1):
            x = tz.relu(
                tz.conv2d(
                    x,
                    self.params[f"encoder.sub.conv{stage}.w"],
                    self.params[f"encoder.sub.conv{stage}.b"],
                    stride=2,
                    pad=1,
                )
            )
            cur = (cur + 1) // 2
            t_now = x.shape[2]
            frame_mask = (np.arange(t_now)[None, :] < cur[:, None]).astype(np.float64)
            x = x * Tensor(frame_mask[:, None, :, None])

        b_, ch, t_sub, f_sub = x.shape
        x = x.transpose(0, 2, 1, 3).reshape(b_, t_sub, ch * f_sub)
        x = self._linear(x, "encoder.sub.proj")
        x = x * math.sqrt(self.config.d_model) + Tensor(_sinusoidal_pe(t_sub, self.config.d_model))
        x = self._drop(x)

        key_bias = _length_bias(cur, t_sub)
        x = self._stack(x, "encoder", self.config.encoder_layers, key_bias)
        return EncoderOutput(h_s=x, lengths=cur, key_bias=key_bias)

    def ctc_head(self, enc: EncoderOutput) -> Tensor:
        """Per-frame log-probabilities over the full vocabulary, [B, T', V]."""
        return tz.log_softmax(self._linear(enc.h_s, "ctc_head"), axis=-1)

    # -- token embeddings ---------------------------------------------------------

    def embed_tokens(self, ids: np.ndarray, offset: int = 0) -> Tensor:
        """Scaled table lookup plus sinusoidal positions over the last axis.

        The last axis holds positions ``offset``, ``offset + 1``, ... The
        blank id embeds through its own learned row like any other token;
        aligned fusion relies on that.
        """
        ids = np.asarray(ids, dtype=np.int64)
        emb = tz.embedding(self.params["embed.table"], ids) * math.sqrt(self.config.d_model)
        pe = _sinusoidal_pe(offset + ids.shape[-1], self.config.d_model)[offset:]
        return emb + Tensor(pe)

    # -- N-best memory -------------------------------------------------------------

    def ne_memory(self, nbests: list[NBestList], pad_id: int) -> Tensor:
        """Encoded N-best memory of each utterance's first ``n`` hypotheses, [B, L, d].

        L is the longest of those hypotheses (at least 1). Each position
        projects the concatenated embeddings of the ``n`` hypotheses there.
        """
        n = self.fusion.n
        max_len = max(1, max((len(seq) for nb in nbests for seq in nb.sequences()[:n]), default=0))
        ids = np.stack([nbest_id_matrix(nb, n, max_len, pad_id) for nb in nbests], axis=0)
        emb = self.embed_tokens(ids)  # [B, n, L, d]
        b, n, L, d = emb.shape
        flat = emb.transpose(0, 2, 1, 3).reshape(b, L, n * d)
        return self.ne_encode(self._linear(flat, "ne.proj"))

    def ne_encode(self, x: Tensor) -> Tensor:
        """Self-attention blocks over the hypothesis memory [B, L, d] (no causal mask)."""
        if self.config.ne_layers < 1:
            raise ValueError("ne_encode requires ne_layers >= 1")
        return self._stack(x, "ne", self.config.ne_layers, None)

    # -- decoder ----------------------------------------------------------------

    def decoder_forward(
        self,
        input_emb: Tensor,
        enc: EncoderOutput,
        ne_memory: Tensor | None = None,
        cache: "DecoderCache | None" = None,
    ) -> Tensor:
        """Causal decoder over ``input_emb`` attending encoder states; [B, L, V] logits.

        When the model carries an N-best memory, every layer runs a second
        attention over it in parallel with self-attention; the two outputs
        are concatenated and projected back to model width before
        encoder-decoder attention. ``enc`` and ``ne_memory`` may hold one
        row shared by all B input rows.

        With a ``cache``, ``input_emb`` holds only the positions after the
        ``cache.length`` already fed (embedded at that offset); earlier
        positions are attended through the cached keys and values, and the
        cache grows by L positions.
        """
        if ne_memory is not None and not self.uses_ne_memory:
            raise ValueError("ne_memory supplied to a model without the N-best method")
        if ne_memory is None and self.uses_ne_memory:
            raise ValueError("this model requires ne_memory")
        x = self._drop(input_emb)
        past = 0 if cache is None else cache.length
        # one newest position may see every earlier one: its causal row is all zeros
        causal = None if x.shape[1] == 1 else _causal_bias(past + x.shape[1])[:, :, past:, :]
        for i in range(self.config.decoder_layers):
            h = self._norm(x, f"decoder.layer{i}.ln1")
            a = self._mha(f"decoder.layer{i}.self", h, h, causal, cache)
            if ne_memory is not None:
                side = self._mha(f"decoder.layer{i}.ne", h, ne_memory, None, cache)
                a = self._linear(tz.concat([a, side], axis=-1), f"decoder.layer{i}.nproj")
            x = x + self._drop(a)
            h = self._norm(x, f"decoder.layer{i}.ln2")
            x = x + self._drop(
                self._mha(f"decoder.layer{i}.cross", h, enc.h_s, enc.key_bias, cache)
            )
            h = self._norm(x, f"decoder.layer{i}.ln3")
            x = x + self._drop(self._ffn(h, f"decoder.layer{i}.ffn"))
        if cache is not None:
            cache.length += x.shape[1]
        x = self._norm(x, "decoder.ln")
        return self._linear(x, "decoder.out")


class DecoderCache:
    """Attention keys and values of one utterance's decoder, for decoding step by step.

    Self-attention keys and values are plain [rows, L, d] arrays, one row
    per hypothesis, that grow along L by the positions of each
    :meth:`Model.decoder_forward` call; :meth:`reorder` gathers their rows
    at once. Encoder and N-best-memory keys and values are projected on
    first use and reused by every later step.
    """

    def __init__(self):
        self.length = 0  # positions fed so far
        self._grown: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # self-attention, per layer
        self._fixed: dict[str, tuple[Tensor, Tensor]] = {}  # encoder and memory, per layer

    def keys_values(self, prefix: str, kv_in: Tensor, project) -> tuple[Tensor, Tensor]:
        """Keys and values for attention ``prefix``; ``project(prefix, kv_in)`` makes new ones."""
        if not prefix.endswith(".self"):
            if prefix not in self._fixed:
                self._fixed[prefix] = project(prefix, kv_in)
            return self._fixed[prefix]
        k, v = project(prefix, kv_in)
        if prefix in self._grown:
            old_k, old_v = self._grown[prefix]
            k = Tensor(np.concatenate([old_k, k.data], axis=1))
            v = Tensor(np.concatenate([old_v, v.data], axis=1))
        self._grown[prefix] = (k.data, v.data)
        return k, v

    def reorder(self, rows) -> None:
        """Keep self-attention row ``rows[j]`` as row ``j``, e.g. each survivor's parent beam.

        A reorder that keeps every row in place, as every greedy step
        does, copies nothing.
        """
        if not self._grown:
            return
        rows = np.asarray(rows, dtype=np.int64)
        count = next(iter(self._grown.values()))[0].shape[0]
        if len(rows) == count and bool((rows == np.arange(count)).all()):
            return
        self._grown = {prefix: (k[rows], v[rows]) for prefix, (k, v) in self._grown.items()}


def nbest_id_matrix(nbest: NBestList, n: int, max_len: int, pad_id: int) -> np.ndarray:
    """[n, max_len] hypothesis ids, eos-padded; short lists repeat the last entry."""
    if len(nbest) == 0:
        raise ValueError("empty N-best list")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    seqs = nbest.sequences()[:n]
    seqs += [seqs[-1]] * (n - len(seqs))
    return pad_id_rows(seqs, pad_id, max_len)
