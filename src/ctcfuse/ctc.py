"""CTC machinery: collapse, forward-backward loss, greedy and prefix beam search.

All functions work in the log domain. The searches take one utterance's
log-probability matrix; ``ctc_loss_op``, the training loss, runs one
lattice over a padded batch as one autodiff op. The loss gradient is
derived analytically from the forward/backward lattice over the
blank-augmented target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ctcfuse.tensor import Tensor

NEG_INF = -math.inf

TokenSeq = tuple[int, ...]


@dataclass(frozen=True)
class CtcPosterior:
    """Per-frame log-probabilities over the vocabulary (blank included)."""

    log_probs: np.ndarray  # [T, V]
    blank_id: int

    def __post_init__(self):
        if self.log_probs.ndim != 2 or self.log_probs.shape[0] < 1:
            raise ValueError("posterior must be a [T, V] matrix with T >= 1")
        if not 0 <= self.blank_id < self.log_probs.shape[1]:
            raise ValueError("blank id outside the posterior vocabulary")
        _check_distribution(self.log_probs)


def _check_distribution(log_probs: np.ndarray) -> None:
    """Reject rows (last axis) that do not exponentiate to a distribution."""
    # guard against raw logits; the bound leaves room for the
    # finite-difference probes the tests run on single entries
    sums = np.exp(log_probs).sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        raise ValueError("posterior rows must exponentiate to a distribution")


@dataclass
class NBestList:
    """Ranked collapsed hypotheses with total log-probability scores."""

    hypotheses: list[tuple[TokenSeq, float]]
    incomplete: bool = field(default=False)

    def __post_init__(self):
        scores = [s for _, s in self.hypotheses]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("hypothesis scores must be non-increasing")
        seqs = [h for h, _ in self.hypotheses]
        if len(set(seqs)) != len(seqs):
            raise ValueError("duplicate hypothesis sequences")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def sequences(self) -> list[TokenSeq]:
        return [h for h, _ in self.hypotheses]


@dataclass
class CtcBatchLoss:
    """Per-row CTC losses of a padded batch, with the gradient of each row's own loss.

    ``losses[i]`` is +inf where no frame path can collapse to row ``i``'s
    target. ``grad[i]`` is the gradient of ``losses[i]`` w.r.t. the
    log-probabilities for the rows ``used`` marks, zero past the row's
    frames, and all zero for every other row.
    """

    losses: np.ndarray  # [B]
    grad: np.ndarray  # [B, T, V]
    used: np.ndarray  # [B] bool


def collapse(path, blank: int) -> TokenSeq:
    """Merge adjacent repeats, then drop blanks (blank separates repeats)."""
    out = []
    prev = None
    for tok in path:
        if tok != prev:
            out.append(tok)
        prev = tok
    return tuple(t for t in out if t != blank)


def min_frames(target) -> int:
    """Fewest frames that can emit ``target``: length plus forced separators."""
    reps = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + reps


def _augment(target, blank: int) -> np.ndarray:
    aug = np.empty(2 * len(target) + 1, dtype=np.int64)
    aug[::2] = blank
    aug[1::2] = target
    return aug


def ctc_loss_op(
    posterior_tensor: Tensor, lengths, targets, use, blank_id: int
) -> tuple[Tensor, CtcBatchLoss]:
    """Mean CTC loss over the rows ``use`` selects, as one autodiff op over a padded batch.

    ``posterior_tensor`` holds [B, T, V] log-probabilities; row ``i`` has
    ``lengths[i]`` real frames and the target ``targets[i]``. One log-domain
    lattice over the blank-augmented targets, padded to [B, T, S], runs one
    loop over T forward and one backward, and the gradient is one scatter
    over S; every real frame's row must be a distribution, and no target may
    hold the blank. The mean sums the used rows' losses in row order. A used
    row whose target no frame path reaches is a contract violation (the
    training loop screens such utterances out); rows left out contribute an
    all-zero gradient.
    """
    lp = posterior_tensor.data
    if lp.ndim != 3:
        raise ValueError("posterior must be a [B, T, V] array")
    b, t_max, _ = lp.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    use = np.asarray(use, dtype=bool)
    if lengths.shape != (b,) or use.shape != (b,) or len(targets) != b:
        raise ValueError("lengths, targets and use must each give one entry per row")
    if b and (lengths.min() < 1 or lengths.max() > t_max):
        raise ValueError("row lengths must lie in [1, T]")
    if not 0 <= blank_id < lp.shape[2]:
        raise ValueError("blank id outside the posterior vocabulary")
    _check_distribution(lp[np.arange(t_max) < lengths[:, None]])
    targets = [tuple(int(t) for t in y) for y in targets]
    if any(blank_id in y for y in targets):
        raise ValueError("CTC target must not contain the blank token")

    s_len = np.array([2 * len(y) + 1 for y in targets], dtype=np.int64)
    s_max = int(s_len.max(initial=1))
    # padding slots hold the blank and allow no skip: forward mass leaking
    # into them only moves up, away from the two slots a row's loss reads,
    # and backward mass starts at or below those slots, so their occupancy
    # is zero
    aug = np.full((b, s_max), blank_id, dtype=np.int64)
    for i, y in enumerate(targets):
        aug[i, : s_len[i]] = _augment(y, blank_id)
    emit = np.take_along_axis(lp, aug[:, None, :], axis=2)  # [B, T, S]
    # skip transition s-2 -> s allowed for non-blank labels that differ from
    # the label two slots back
    can_skip = np.zeros((b, s_max), dtype=bool)
    can_skip[:, 2:] = (aug[:, 2:] != blank_id) & (aug[:, 2:] != aug[:, :-2])

    alpha = np.full((b, t_max, s_max), NEG_INF)
    alpha[:, 0, :2] = emit[:, 0, :2]
    step = np.full((b, s_max), NEG_INF)
    skip = np.full((b, s_max), NEG_INF)
    for t in range(1, t_max):
        prev = alpha[:, t - 1]
        step[:, 1:] = prev[:, :-1]
        skip[:, 2:] = np.where(can_skip[:, 2:], prev[:, :-2], NEG_INF)
        alpha[:, t] = np.logaddexp(np.logaddexp(prev, step), skip) + emit[:, t]
    rows, last = np.arange(b), lengths - 1
    end = alpha[rows, last, s_len - 1]
    log_p = np.where(
        s_len == 1, end, np.logaddexp(end, alpha[rows, last, np.maximum(s_len - 2, 0)])
    )
    if np.any(use & (log_p == NEG_INF)):
        raise ValueError("ctc_loss_op called with an unreachable target")

    kept = np.flatnonzero(use)
    grad = np.zeros_like(lp)
    if kept.size:
        em, t_end, s_end = emit[kept], last[kept], s_len[kept]
        at = np.arange(kept.size)
        beta = np.full(em.shape, NEG_INF)
        beta[at, t_end, s_end - 1] = em[at, t_end, s_end - 1]
        two = s_end > 1
        beta[at[two], t_end[two], s_end[two] - 2] = em[at[two], t_end[two], s_end[two] - 2]
        skip_back = can_skip[kept, 2:]
        step = np.full((kept.size, s_max), NEG_INF)
        skip = np.full((kept.size, s_max), NEG_INF)
        for t in range(t_max - 2, -1, -1):
            nxt = beta[:, t + 1]
            step[:, :-1] = nxt[:, 1:]
            skip[:, :-2] = np.where(skip_back, nxt[:, 2:], NEG_INF)
            live = (t < t_end)[:, None]
            beta[:, t] = np.where(
                live, np.logaddexp(np.logaddexp(nxt, step), skip) + em[:, t], beta[:, t]
            )
        # occupancy of lattice slot s at frame t; both passes include the
        # frame's emission, so divide it out once
        log_gamma = alpha[kept] + beta - em
        gamma = np.exp(log_gamma - log_p[kept, None, None])
        # rows of a slot's token accumulate in slot order
        np.add.at(
            grad,
            (kept[:, None, None], np.arange(t_max)[None, :, None], aug[kept, None, :]),
            -gamma,
        )

    result = CtcBatchLoss(losses=-log_p, grad=grad, used=use)
    if not kept.size:
        return Tensor(np.asarray(0.0)), result
    total = float(result.losses[kept[0]])
    for i in kept[1:]:
        total += float(result.losses[i])
    scale = 1.0 / kept.size
    out = Tensor._result(
        np.asarray(total * scale), (posterior_tensor,), lambda g: ((g * scale) * grad,)
    )
    return out, result


def greedy_1best(posterior: CtcPosterior) -> TokenSeq:
    """Frame-wise argmax followed by collapse; ties go to the lowest id."""
    path = np.argmax(posterior.log_probs, axis=1)
    return collapse(path.tolist(), posterior.blank_id)


def prefix_beam_nbest(
    posterior: CtcPosterior,
    beam_width: int,
    n: int,
) -> NBestList:
    """Prefix beam search over collapsed sequences.

    Maintains per-prefix blank/non-blank path mass in the log domain;
    scores are total log-probabilities summed over all frame paths that
    collapse to the prefix. A beam no frame's candidates outnumber (such
    as ``V ** T`` for ``T`` frames of ``V`` classes) prunes nothing, which
    makes the ranking exact. Returns the top ``n`` prefixes; if fewer
    distinct prefixes are reachable the list is shorter and flagged
    ``incomplete``.

    Each frame scores the K live prefixes at once. A prefix stays with
    ``total + p[blank]`` (blank mass) and ``pnb + p[last]`` (repeat
    collapse, non-blank mass). Its extensions form one ``[K, V]`` array
    ``total + p[k]``, except ``pb + p[last]`` in its last-token column
    (only a blank-separated path may repeat a token); the blank column is
    not an extension. An extension that equals a live prefix, which needs
    that prefix's parent to be live too, is merged into the prefix's
    non-blank mass and dropped. Every mass is thus a ``logaddexp`` of at
    most two terms, so scores do not depend on the order in which
    prefixes are visited.

    Pruning keeps the ``beam_width`` best candidates under the key
    ``(-score, length, tokens)``: equal scores go to the shorter, then
    the lexicographically smaller prefix. A partition finds the cut
    score; only candidates at or above it become token tuples, and they
    are sorted only when ties at the cut overfill the beam.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beam_width < n:
        raise ValueError("beam_width must be >= n")
    blank = posterior.blank_id
    t_frames, vocab = posterior.log_probs.shape
    # column ``vocab`` is a sentinel "last token" of the empty prefix; its
    # log-probability of -inf removes the repeat terms that prefix lacks
    lp = np.concatenate([posterior.log_probs, np.full((t_frames, 1), NEG_INF)], axis=1)

    # live prefixes; log mass of their paths ending in blank / non-blank;
    # their last token
    prefixes: list[TokenSeq] = [()]
    pb = np.zeros(1)
    pnb = np.full(1, NEG_INF)
    last = np.full(1, vocab)
    for frame in lp:
        live = len(prefixes)
        total = np.logaddexp(pb, pnb)
        stay_b = total + frame[blank]
        stay_nb = pnb + frame[last]
        ext = total[:, None] + frame
        ext[np.arange(live), last] = pb + frame[last]
        is_ext = np.ones(ext.shape, dtype=bool)
        is_ext[:, [blank, vocab]] = False

        index = {prefix: i for i, prefix in enumerate(prefixes)}
        parent = np.array([index.get(prefix[:-1], -1) if prefix else -1 for prefix in prefixes])
        child = np.flatnonzero(parent >= 0)
        if child.size:
            src_row, src_col = parent[child], last[child]
            stay_nb[child] = np.logaddexp(stay_nb[child], ext[src_row, src_col])
            is_ext[src_row, src_col] = False

        # candidates: the live prefixes first, then the remaining extensions
        ext_row, ext_col = np.nonzero(is_ext)
        cand_pb = np.concatenate([stay_b, np.full(ext_col.size, NEG_INF)])
        cand_pnb = np.concatenate([stay_nb, ext[ext_row, ext_col]])
        cand_last = np.concatenate([last, ext_col])
        scores = np.logaddexp(cand_pb, cand_pnb)
        kept = np.arange(scores.size)
        if scores.size > beam_width:
            cut = np.partition(scores, scores.size - beam_width)[scores.size - beam_width]
            kept = np.flatnonzero(scores >= cut)
        ext_row_l, ext_col_l = ext_row.tolist(), ext_col.tolist()
        prefixes = [
            prefixes[c] if c < live else prefixes[ext_row_l[c - live]] + (ext_col_l[c - live],)
            for c in kept.tolist()
        ]
        if kept.size > beam_width:
            # ties at the cut score: the exact key decides who stays
            keys = [(-sc, len(seq), seq) for sc, seq in zip(scores[kept].tolist(), prefixes)]
            order = sorted(range(kept.size), key=keys.__getitem__)[:beam_width]
            kept = kept[order]
            prefixes = [prefixes[i] for i in order]
        pb, pnb, last = cand_pb[kept], cand_pnb[kept], cand_last[kept]

    final = np.logaddexp(pb, pnb).tolist()
    scored = [(prefix, s) for prefix, s in zip(prefixes, final) if s > NEG_INF]
    scored.sort(key=lambda ps: (-ps[1], len(ps[0]), ps[0]))
    top = scored[:n]
    return NBestList(hypotheses=top, incomplete=len(top) < n)


def format_nbest(utt_id: str, nbest: NBestList, id_to_token) -> str:
    """Serialize an N-best list: one ``utt_id<TAB>rank<TAB>log_score<TAB>tokens`` line per hypothesis."""
    lines = []
    for rank, (seq, score) in enumerate(nbest.hypotheses, start=1):
        toks = " ".join(id_to_token[t] for t in seq)
        lines.append(f"{utt_id}\t{rank}\t{score:.8f}\t{toks}")
    return "\n".join(lines)
