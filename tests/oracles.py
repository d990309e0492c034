"""Independent brute-force oracles shared by unit and acceptance tests.

Everything here is deliberately naive (full enumeration, full DP tables,
per-prefix dictionaries) and kept separate from the library's own
algorithms.
"""

import math
import struct
from dataclasses import dataclass
from itertools import product

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.ctc import (NBestList, TokenSeq, _augment, _check_distribution, min_frames,
                         prefix_beam_nbest)
from ctcfuse.data import _SYNTH_ALPHABET, SynthConfig, Utterance, Vocabulary, pad_id_rows
from ctcfuse.model import EncoderOutput, ModelConfig
from ctcfuse.tensor import Tensor

NEG_INF = -math.inf


@dataclass(frozen=True)
class CtcPosterior:
    """One utterance's per-frame log-probabilities over the vocabulary (blank included)."""

    log_probs: np.ndarray  # [T, V]
    blank_id: int

    def __post_init__(self):
        if self.log_probs.ndim != 2 or self.log_probs.shape[0] < 1:
            raise ValueError("posterior must be a [T, V] matrix with T >= 1")
        if not 0 <= self.blank_id < self.log_probs.shape[1]:
            raise ValueError("blank id outside the posterior vocabulary")
        _check_distribution(self.log_probs)


def exhaustive_ctc_scores(log_probs: np.ndarray, blank: int) -> dict[tuple, float]:
    """Total probability of every collapsed sequence, by enumerating all V^T paths."""
    t_frames, vocab = log_probs.shape
    probs = np.exp(log_probs)
    totals: dict[tuple, float] = {}
    for path in product(range(vocab), repeat=t_frames):
        p = 1.0
        for t, k in enumerate(path):
            p *= probs[t, k]
        key = collapse_oracle(path, blank)
        totals[key] = totals.get(key, 0.0) + p
    return totals


def collapse_oracle(path, blank: int) -> tuple:
    out = []
    prev = None
    for tok in path:
        if tok != prev and tok != blank:
            out.append(tok)
        prev = tok
    return tuple(out)


def exhaustive_ctc_loss(log_probs: np.ndarray, target, blank: int) -> float:
    """-log of the summed probability of all paths collapsing to ``target``."""
    totals = exhaustive_ctc_scores(log_probs, blank)
    p = totals.get(tuple(target), 0.0)
    return float("inf") if p == 0.0 else -float(np.log(p))


@dataclass
class CtcLossResult:
    """Loss value plus the gradient w.r.t. the input log-probabilities.

    ``reachable`` is False when no frame path can collapse to the target
    (too few frames); the loss is then +inf and the gradient all zero.
    """

    loss: float
    grad: np.ndarray
    reachable: bool


def ctc_loss_reference(posterior: CtcPosterior, target) -> CtcLossResult:
    """The one-utterance CTC loss that ``ctcfuse.ctc.ctc_loss_op`` batches.

    Negative log-probability that any frame path collapses to ``target``,
    computed over the blank-augmented label lattice with log-domain
    forward and backward passes; the returned gradient is w.r.t. the
    posterior's log-probabilities and its rows each sum to -1 when the
    target is reachable.
    """
    target = tuple(int(t) for t in target)
    blank = posterior.blank_id
    if blank in target:
        raise ValueError("CTC target must not contain the blank token")
    lp = posterior.log_probs
    t_frames, vocab = lp.shape

    if t_frames < min_frames(target):
        return CtcLossResult(math.inf, np.zeros_like(lp), reachable=False)

    aug = _augment(target, blank)
    s_len = aug.size
    emit = lp[:, aug]  # [T, S]

    # skip transition s-2 -> s allowed for non-blank labels that differ from
    # the label two slots back
    can_skip = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        can_skip[2:] = (aug[2:] != blank) & (aug[2:] != aug[:-2])

    def shifted(prev: np.ndarray, by: int) -> np.ndarray:
        out = np.full(s_len, NEG_INF)
        out[by:] = prev[:-by]
        return out

    alpha = np.full((t_frames, s_len), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if s_len > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, t_frames):
        prev = alpha[t - 1]
        stay = prev
        step = shifted(prev, 1)
        skip = np.where(can_skip, shifted(prev, 2), NEG_INF)
        alpha[t] = np.logaddexp(np.logaddexp(stay, step), skip) + emit[t]

    log_p = alpha[-1, -1] if s_len == 1 else np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    if log_p == NEG_INF:
        return CtcLossResult(math.inf, np.zeros_like(lp), reachable=False)

    beta = np.full((t_frames, s_len), NEG_INF)
    beta[-1, -1] = emit[-1, -1]
    if s_len > 1:
        beta[-1, -2] = emit[-1, -2]
    can_skip_fwd = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        can_skip_fwd[:-2] = can_skip[2:]
    for t in range(t_frames - 2, -1, -1):
        nxt = beta[t + 1]
        stay = nxt
        step = np.full(s_len, NEG_INF)
        step[:-1] = nxt[1:]
        skip = np.full(s_len, NEG_INF)
        skip[:-2] = np.where(can_skip_fwd[:-2], nxt[2:], NEG_INF)
        beta[t] = np.logaddexp(np.logaddexp(stay, step), skip) + emit[t]

    # occupancy of lattice slot s at frame t; both passes include the frame's
    # emission, so divide it out once
    log_gamma = alpha + beta - emit
    grad = np.zeros_like(lp)
    with np.errstate(divide="ignore"):
        for s in range(s_len):
            col = np.exp(log_gamma[:, s] - log_p)
            grad[:, aug[s]] -= col
    return CtcLossResult(float(-log_p), grad, reachable=True)


def levenshtein_oracle(a, b) -> int:
    """Two-row unit-cost edit distance, no traceback."""
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        cur = [j]
        for i, ca in enumerate(a, start=1):
            if ca == cb:
                cur.append(prev[i - 1])
            else:
                cur.append(1 + min(prev[i - 1], prev[i], cur[-1]))
        prev = cur
    return prev[-1]


def random_posterior(rng: np.random.Generator, t_frames: int, vocab: int) -> np.ndarray:
    """Random row-stochastic matrix in the log domain."""
    logits = rng.normal(size=(t_frames, vocab)) * 2.0
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits - log_z


def prefix_beam_reference(
    posterior: CtcPosterior,
    beam_width: int,
    n: int,
) -> NBestList:
    """Prefix beam search over collapsed sequences, one dict entry per prefix.

    The scalar loop that ``ctcfuse.ctc.prefix_beam_nbest`` vectorizes;
    both must return the same list with bit-equal scores. Maintains per-prefix blank/non-blank path mass in the log domain;
    scores are total log-probabilities summed over all frame paths that
    collapse to the prefix. Returns the top ``n`` prefixes; if fewer distinct
    prefixes are reachable the list is shorter and flagged ``incomplete``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beam_width < n:
        raise ValueError("beam_width must be >= n")
    lp = posterior.log_probs
    blank = posterior.blank_id
    t_frames, vocab = lp.shape

    # prefix -> (log mass of paths ending in blank, ending in non-blank)
    beams: dict[TokenSeq, tuple[float, float]] = {(): (0.0, NEG_INF)}
    for t in range(t_frames):
        frame = lp[t]
        grown: dict[TokenSeq, tuple[float, float]] = {}

        def bump(prefix: TokenSeq, add_blank: float, add_nonblank: float) -> None:
            pb, pnb = grown.get(prefix, (NEG_INF, NEG_INF))
            grown[prefix] = (np.logaddexp(pb, add_blank), np.logaddexp(pnb, add_nonblank))

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            for k in range(vocab):
                p = frame[k]
                if k == blank:
                    bump(prefix, total + p, NEG_INF)
                elif prefix and k == prefix[-1]:
                    # repeat merges into the same prefix; a blank-separated
                    # path is the only way to extend with the same token
                    bump(prefix, NEG_INF, pnb + p)
                    bump(prefix + (k,), NEG_INF, pb + p)
                else:
                    bump(prefix + (k,), NEG_INF, total + p)

        if len(grown) > beam_width:
            ranked = sorted(
                grown.items(), key=lambda kv: (-np.logaddexp(*kv[1]), len(kv[0]), kv[0])
            )
            grown = dict(ranked[:beam_width])
        beams = grown

    scored = [(prefix, float(np.logaddexp(pb, pnb))) for prefix, (pb, pnb) in beams.items()]
    scored = [(p, s) for p, s in scored if s > NEG_INF]
    scored.sort(key=lambda ps: (-ps[1], len(ps[0]), ps[0]))
    top = scored[:n]
    return NBestList(hypotheses=top, incomplete=len(top) < n)


def fused_embedding_reference(model, pad_id: int, y_rows, w_rows, alphas) -> np.ndarray:
    """Each row's ``alpha * embed(w) + (1 - alpha) * embed(y)``, rows padded with ``pad_id``.

    The decoder input ``training.build_decoder_input`` should give bit for
    bit: its ``alpha = 0`` shortcut returns ``embed(y)``, which this mix
    also equals exactly.
    """
    emb_y = model.embed_tokens(pad_id_rows(y_rows, pad_id)).data
    emb_w = model.embed_tokens(pad_id_rows(w_rows, pad_id)).data
    coef = np.asarray(alphas, dtype=np.float64)[:, None, None]
    return emb_w * coef + emb_y * (1.0 - coef)


def attention_beam_reference(features, model, cfg, vocab):
    """Attention beam search that re-runs the decoder over every full prefix.

    The search that ``ctcfuse.decode.attention_beam_decode`` runs
    incrementally: each step decodes sos plus the whole prefix of every
    live beam, with the encoder output and N-best memory repeated per
    beam. Same ``(tokens, score, reached_eos)`` contract.
    """
    model.train(False)
    feats = np.asarray(features, dtype=np.float64)
    enc = model.encode(feats[None, :, :], np.array([feats.shape[0]]))
    ne_memory = None
    if model.uses_ne_memory:
        nbests = prefix_beam_nbest(
            model.ctc_head(enc).data, enc.lengths, vocab.blank_id,
            model.fusion.beam_width, model.fusion.n,
        )
        ne_memory = model.ne_memory(nbests, vocab.pad_id)
    max_len = max(1, int(round(cfg.max_len_factor * int(enc.lengths[0]))))

    # (tokens, raw log-prob, finished); finished entries ride along in the
    # beam so beam=1 terminates exactly where stepwise argmax does
    beams: list[tuple[tuple[int, ...], float, bool]] = [((), 0.0, False)]
    for _ in range(max_len):
        live = [(i, b) for i, b in enumerate(beams) if not b[2]]
        if not live:
            break
        ids = np.array([(vocab.sos_id,) + b[0] for _, b in live], dtype=np.int64)
        count = len(live)
        enc_b = EncoderOutput(
            h_s=Tensor(np.repeat(enc.h_s.data, count, axis=0)),
            lengths=np.repeat(enc.lengths, count),
            key_bias=np.repeat(enc.key_bias, count, axis=0),
        )
        mem_b = None if ne_memory is None else Tensor(np.repeat(ne_memory.data, count, axis=0))
        logits = model.decoder_forward(model.embed_tokens(ids), enc_b, mem_b)
        logp = tz.log_softmax(Tensor(logits.data[:, -1, :])).data
        grown: list[tuple[tuple[int, ...], float, bool]] = [b for b in beams if b[2]]
        for row, (_, (toks, score, _)) in enumerate(live):
            for k in range(vocab.size):
                cand = score + float(logp[row, k])
                if k == vocab.eos_id:
                    grown.append((toks, cand, True))
                else:
                    grown.append((toks + (k,), cand, False))
        grown.sort(key=lambda tsf: (-tsf[1], tsf[0]))
        beams = grown[: cfg.beam]

    def normalized(entry) -> float:
        toks, score, _ = entry
        return score / (len(toks) + 1)  # +1 counts the eos emission

    finished = [b for b in beams if b[2]]
    pool = finished if finished else beams
    best = max(pool, key=lambda b: (normalized(b), b[0]))
    return best[0], normalized(best), bool(finished)


_COL2IM_CACHE: dict[tuple, np.ndarray] = {}


def _window_index(h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    """Flat indices of each im2col column into the padded input plane."""
    key = (h, w, kh, kw, stride, pad)
    cached = _COL2IM_CACHE.get(key)
    if cached is not None:
        return cached
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    r0 = np.arange(ho)[:, None, None, None] * stride + np.arange(kh)[None, None, :, None]
    c0 = np.arange(wo)[None, :, None, None] * stride + np.arange(kw)[None, None, None, :]
    idx = (r0 * wp + c0).reshape(ho * wo, kh * kw)
    _COL2IM_CACHE[key] = idx
    return idx


def conv2d_gather(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """The earlier ``tz.conv2d``, whose outputs and gradients the current one keeps bit for bit.

    im2col by a fancy-index gather through :func:`_window_index`, the bias
    added into a new array, and col2im by strided slice-adds into a
    channels-first padded plane.
    """
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, kernel {cin_w}")
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    xp = np.zeros((b, cin, hp, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = x.data
    idx = _window_index(h, w, kh, kw, stride, pad)
    # cols: [B, Ho*Wo, Cin*kh*kw]
    cols = xp.reshape(b, cin, hp * wp)[:, :, idx].transpose(0, 2, 1, 3).reshape(b, ho * wo, cin * kh * kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = cols @ wmat.T + bias.data
    out_data = out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)

    def grad_fn(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)
        gw = gb = gx = None
        if weight.requires_grad:
            gw = (gmat.T @ cols.reshape(b * ho * wo, cin * kh * kw)).reshape(weight.shape)
        if bias.requires_grad:
            gb = gmat.sum(axis=0)
        if x.requires_grad:
            # col2im: each kernel offset adds its window values into the
            # padded plane as one strided slice
            gcols = (gmat @ wmat).reshape(b, ho, wo, cin, kh, kw).transpose(0, 3, 4, 5, 1, 2)
            gxp = np.zeros((b, cin, hp, wp))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
            gx = np.ascontiguousarray(gxp[:, :, pad : pad + h, pad : pad + w])
        return gx, gw, gb

    return Tensor._result(np.ascontiguousarray(out_data), (x, weight, bias), grad_fn)


def conv2d_reference(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """The convolution ``tz.conv2d`` had before its backward became a matmul and slice-adds.

    Weight gradient by ``np.einsum``, col2im by ``np.add.at`` over the
    im2col window indices, and a gradient for every input.
    """
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, kernel {cin_w}")
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    xp = np.zeros((b, cin, hp, wp), dtype=x.data.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.data
    idx = _window_index(h, w, kh, kw, stride, pad)
    # cols: [B, Ho*Wo, Cin*kh*kw]
    cols = xp.reshape(b, cin, hp * wp)[:, :, idx].transpose(0, 2, 1, 3).reshape(b, ho * wo, cin * kh * kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = cols @ wmat.T + bias.data
    out_data = out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)

    def grad_fn(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(b, ho * wo, cout)
        gw = np.einsum("bnc,bnk->ck", gmat, cols).reshape(weight.shape)
        gb = gmat.sum(axis=(0, 1))
        gcols = (gmat @ wmat).reshape(b, ho * wo, cin, kh * kw).transpose(0, 2, 1, 3)
        gxp = np.zeros((b, cin, hp * wp), dtype=g.dtype)
        np.add.at(gxp, (slice(None), slice(None), idx), gcols)
        gx = gxp.reshape(b, cin, hp, wp)[:, :, pad : pad + h, pad : pad + w]
        return np.ascontiguousarray(gx), gw, gb

    return Tensor._result(np.ascontiguousarray(out_data), (x, weight, bias), grad_fn)


def adam_step(param, grad, m, v, step, lr, beta1=0.9, beta2=0.98, eps=1e-9):
    """One bias-corrected adaptive-moment update; returns new (param, m, v).

    The textbook update on fresh arrays, whose arithmetic ``Adam.step``
    repeats in place operation for operation.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The matrix product op the engine had before ``tz.linear`` and ``tz.attention``.

    Numpy batch broadcasting over leading dims; with a 2-D ``b`` each
    gradient is one 2-D GEMM over ``a``'s flattened leading axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def grad_fn(g):
        ga = gb = None
        if b.ndim == 2:
            g2 = g.reshape(-1, b.shape[1])
            if a.requires_grad:
                ga = (g2 @ b.data.T).reshape(a.shape)
            if b.requires_grad:
                gb = a.data.reshape(-1, b.shape[0]).T @ g2
            return ga, gb
        if a.requires_grad:
            ga = tz._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = tz._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return Tensor._result(np.matmul(a.data, b.data), (a, b), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """The softmax op the engine had before ``tz.attention``, stabilized by max subtraction."""
    shifted = a.data - np.maximum.reduce(a.data, axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.add.reduce(e, axis, keepdims=True)

    def grad_fn(g):
        dot = np.add.reduce(g * out_data, axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._result(out_data, (a,), grad_fn)


def linear_reference(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``tz.linear`` as two ops: :func:`matmul`, then the bias added by ``+``."""
    return matmul(x, w) + b


def attention_reference(q: Tensor, k: Tensor, v: Tensor, heads: int, bias) -> Tensor:
    """``tz.attention`` as the ops ``Model._mha`` composed before it, one graph node each.

    Head reshapes and transposes (pure reshapes for one query or one key
    position), :func:`matmul`, the scale, the bias as a constant tensor,
    :func:`softmax`, :func:`matmul` and the head merge.
    """
    (b, lq, d), (bk, lk, _) = q.shape, k.shape
    dh = d // heads
    if lq == 1:
        q = q.reshape(b, heads, 1, dh)
    else:
        q = q.reshape(b, lq, heads, dh).transpose(0, 2, 1, 3)
    if lk == 1:
        k, v = k.reshape(bk, heads, dh, 1), v.reshape(bk, heads, 1, dh)
    else:
        k = k.reshape(bk, lk, heads, dh).transpose(0, 2, 3, 1)
        v = v.reshape(bk, lk, heads, dh).transpose(0, 2, 1, 3)
    scores = matmul(q, k) * (1.0 / math.sqrt(dh))
    if bias is not None:
        scores = scores + Tensor(bias)
    ctx = matmul(softmax(scores, axis=-1), v)
    if lq != 1:
        ctx = ctx.transpose(0, 2, 1, 3)
    return ctx.reshape(b, lq, d)


def mha_reference(params: dict, prefix: str, heads: int, q_in: Tensor, kv_in: Tensor, bias) -> Tensor:
    """``Model._mha`` without a cache, built from :func:`linear_reference` and :func:`attention_reference`."""

    def project(x, name):
        return linear_reference(x, params[f"{prefix}.{name}.w"], params[f"{prefix}.{name}.b"])

    q = project(q_in, "q")
    k, v = project(kv_in, "k"), project(kv_in, "v")
    return project(attention_reference(q, k, v, heads, bias), "o")


def matmul_grads_reference(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Both gradients of ``a @ b`` for upstream ``g``, batched: one product per
    broadcast batch entry, summed down to each operand's shape."""
    ga = tz._unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
    gb = tz._unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
    return ga, gb


def synth_corpus_reference(cfg: SynthConfig):
    """``data.synth_corpus`` one token at a time: a scalar frame-count draw
    and a tiled prototype per token, concatenated."""
    rng = np.random.default_rng(cfg.seed)
    alphabet = _SYNTH_ALPHABET[: cfg.vocab_size]
    vocab = Vocabulary.from_tokens(alphabet)
    prototypes = rng.normal(size=(cfg.vocab_size, cfg.feature_dim))
    char_ids = [vocab.token_to_id[ch] for ch in alphabet]

    corpus = []
    for i in range(cfg.count):
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        picks = rng.integers(0, cfg.vocab_size, size=length)
        transcript = tuple(char_ids[p] for p in picks)
        rows = []
        for p in picks:
            reps = int(rng.integers(cfg.min_frames_per_token, cfg.max_frames_per_token + 1))
            rows.append(np.tile(prototypes[p], (reps, 1)))
        features = np.concatenate(rows, axis=0)
        if cfg.noise > 0.0:
            features = features + cfg.noise * rng.normal(size=features.shape)
        corpus.append(
            Utterance(
                utt_id=f"synth-{i:05d}",
                features=features.astype(np.float32),
                transcript=transcript,
            )
        )
    return vocab, corpus


def load_tensors_reference(path) -> dict[str, np.ndarray]:
    """The container reader ``tz.load_tensors`` had before it read entries into place.

    Reads the whole file into one ``bytes``, then copies each entry out of
    a slice of it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"truncated tensor container: expected {what}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    offset = 0
    if take(4, "magic") != tz._CONTAINER_MAGIC:
        raise ValueError("not a tensor container (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != tz._CONTAINER_VERSION:
        raise ValueError(f"tensor container version mismatch: file has {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        tag, ndim = struct.unpack("<BI", take(5, "entry header"))
        if tag not in tz._DTYPE_TAGS:
            raise ValueError(f"unknown dtype tag {tag} for entry {name!r}")
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim, "shape"))
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in the shape {shape} of entry {name!r}")
        dtype = tz._DTYPE_TAGS[tag]
        payload = take(math.prod(shape) * dtype.itemsize, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return out


def param_specs_reference(config: ModelConfig, with_ne_memory: bool, n: int = 1) -> dict[str, tuple]:
    """``model.param_specs`` as it was before the block table: every name and
    shape listed one by one, in init order."""
    d, ffn, v, heads = config.d_model, config.ffn_dim, config.vocab_size, config.num_heads
    ch = d
    specs: dict[str, tuple] = {"embed.table": (v, d)}

    freq = config.feature_dim
    in_ch = 1
    for stage in range(1, (1 if config.subsample_factor == 2 else 2) + 1):
        specs[f"encoder.sub.conv{stage}.w"] = (ch, in_ch, 3, 3)
        specs[f"encoder.sub.conv{stage}.b"] = (ch,)
        freq = (freq + 1) // 2
        in_ch = ch
    specs["encoder.sub.proj.w"] = (ch * freq, d)
    specs["encoder.sub.proj.b"] = (d,)

    def attention(prefix: str):
        for name in ("q", "k", "v", "o"):
            specs[f"{prefix}.{name}.w"] = (d, d)
            specs[f"{prefix}.{name}.b"] = (d,)

    def norm(prefix: str):
        specs[f"{prefix}.g"] = (d,)
        specs[f"{prefix}.b"] = (d,)

    def ffn_block(prefix: str):
        specs[f"{prefix}.fc1.w"] = (d, ffn)
        specs[f"{prefix}.fc1.b"] = (ffn,)
        specs[f"{prefix}.fc2.w"] = (ffn, d)
        specs[f"{prefix}.fc2.b"] = (d,)

    def stack(prefix: str, layers: int):
        for i in range(layers):
            norm(f"{prefix}.layer{i}.ln1")
            attention(f"{prefix}.layer{i}.attn")
            norm(f"{prefix}.layer{i}.ln2")
            ffn_block(f"{prefix}.layer{i}.ffn")
        norm(f"{prefix}.ln")

    stack("encoder", config.encoder_layers)

    specs["ctc_head.w"] = (d, v)
    specs["ctc_head.b"] = (v,)

    for i in range(config.decoder_layers):
        norm(f"decoder.layer{i}.ln1")
        attention(f"decoder.layer{i}.self")
        if with_ne_memory:
            attention(f"decoder.layer{i}.ne")
            specs[f"decoder.layer{i}.nproj.w"] = (2 * d, d)
            specs[f"decoder.layer{i}.nproj.b"] = (d,)
        norm(f"decoder.layer{i}.ln2")
        attention(f"decoder.layer{i}.cross")
        norm(f"decoder.layer{i}.ln3")
        ffn_block(f"decoder.layer{i}.ffn")
    norm("decoder.ln")
    specs["decoder.out.w"] = (d, v)
    specs["decoder.out.b"] = (v,)

    if with_ne_memory:
        specs["ne.proj.w"] = (n * d, d)
        specs["ne.proj.b"] = (d,)
        stack("ne", config.ne_layers)
    return specs


def param_count_reference(config: ModelConfig, with_ne_memory: bool, n: int = 1) -> int:
    """``model.param_count`` as it was before the block table: the floats
    :func:`param_specs_reference` declares, by arithmetic alone."""
    d, f, v = config.d_model, config.ffn_dim, config.vocab_size
    conv, in_ch, freq = 0, 1, config.feature_dim
    for _ in range(1 if config.subsample_factor == 2 else 2):
        conv += d * in_ch * 9 + d
        in_ch, freq = d, (freq + 1) // 2
    attention, norm, ffn = 4 * (d * d + d), 2 * d, 2 * d * f + f + d

    def stack(layers: int) -> int:
        return layers * (2 * norm + attention + ffn) + norm

    decoder_layer = 3 * norm + 2 * attention + ffn
    memory = 0
    if with_ne_memory:
        decoder_layer += attention + 2 * d * d + d
        memory = n * d * d + d + stack(config.ne_layers)
    # embedding, conv front end and projection, encoder, CTC head, decoder, output
    return (v * d + conv + d * freq * d + d + stack(config.encoder_layers) + d * v + v
            + config.decoder_layers * decoder_layer + norm + d * v + v + memory)

