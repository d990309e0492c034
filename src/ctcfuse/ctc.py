"""CTC machinery: collapse, forward-backward loss, greedy and prefix beam search.

All functions work in the log domain and take a padded batch: [B, T, V]
log-probabilities with per-row frame counts. The searches return one
result per row; ``ctc_loss_op``, the training loss, runs one lattice
over the batch as one autodiff op. The loss gradient is
derived analytically from the forward/backward lattice over the
blank-augmented target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ctcfuse.tensor import NumericError, Tensor

NEG_INF = -math.inf
# the lowest finite float: a score at or above it has nonzero probability
_LOWEST = -np.finfo(np.float64).max

TokenSeq = tuple[int, ...]


def _check_distribution(log_probs: np.ndarray) -> None:
    """Reject rows (last axis) that do not exponentiate to a distribution."""
    # guard against raw logits; the bound leaves room for the
    # finite-difference probes the tests run on single entries
    sums = np.exp(log_probs).sum(axis=-1)
    if not np.isfinite(sums).all():
        raise NumericError("non-finite posterior")
    if (np.abs(sums - 1.0) > 1e-5).any():
        raise ValueError("posterior rows must exponentiate to a distribution")


def _check_batch(log_probs: np.ndarray, lengths, blank_id: int) -> np.ndarray:
    """Check a padded [B, T, V] posterior batch; returns the row lengths as int64.

    Every real frame (``t < lengths[i]``) must be a distribution; padding
    frames are not read.
    """
    if log_probs.ndim != 3:
        raise ValueError("posterior must be a [B, T, V] array")
    b, t_max, vocab = log_probs.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (b,):
        raise ValueError("lengths must give one entry per row")
    lens = lengths.tolist()
    if b and not 1 <= min(lens) <= max(lens) <= t_max:
        raise ValueError("row lengths must lie in [1, T]")
    if not 0 <= blank_id < vocab:
        raise ValueError("blank id outside the posterior vocabulary")
    padded = b and min(lens) < t_max
    _check_distribution(log_probs[np.arange(t_max) < lengths[:, None]] if padded else log_probs)
    return lengths


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


class NBestLists(list):
    """The N-best lists of a searched batch, one per row; ``incomplete`` counts the short ones."""

    @property
    def incomplete(self) -> int:
        return sum(nbest.incomplete for nbest in self)


@dataclass
class CtcBatchLoss:
    """Per-row CTC losses of a padded batch, with the gradient of each row's own loss.

    ``losses[i]`` is +inf where no frame path can collapse to row ``i``'s
    target, and ``used`` marks the other rows. ``grad[i]`` is the gradient
    of ``losses[i]`` w.r.t. the log-probabilities for the used rows, zero
    past the row's frames, and all zero for every other row.
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


def _augment(target, blank: int) -> np.ndarray:
    aug = np.empty(2 * len(target) + 1, dtype=np.int64)
    aug[::2] = blank
    aug[1::2] = target
    return aug


def ctc_loss_op(
    posterior_tensor: Tensor, lengths, targets, blank_id: int
) -> tuple[Tensor, CtcBatchLoss]:
    """Mean CTC loss over the rows some frame path reaches, as one autodiff op over a padded batch.

    ``posterior_tensor`` holds [B, T, V] log-probabilities; row ``i`` has
    ``lengths[i]`` real frames and the target ``targets[i]``. One log-domain
    lattice over the blank-augmented targets, padded to [B, T, S], runs one
    loop over T forward and one backward, and the gradient is one scatter
    over S; every real frame's row must be a distribution, and no target may
    hold the blank. The lattice decides reachability: a row whose end it
    cannot reach (``losses[i]`` is +inf; with finite log-probabilities, a
    target of U tokens with r adjacent repeats in fewer than U + r frames)
    is left out of the mean and gets an all-zero gradient, and ``used``
    marks the others. The mean sums the used rows' losses in row order.
    """
    lp = posterior_tensor.data
    lengths = _check_batch(lp, lengths, blank_id)
    b, t_max, _ = lp.shape
    if len(targets) != b:
        raise ValueError("targets must give one entry per row")
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
    used = log_p != NEG_INF
    kept = np.flatnonzero(used)
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

    result = CtcBatchLoss(losses=-log_p, grad=grad, used=used)
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


def greedy_1best(log_probs: np.ndarray, lengths, blank_id: int) -> list[TokenSeq]:
    """Each row's frame-wise argmax over its real frames, collapsed; ties go to the lowest id."""
    lengths = _check_batch(log_probs, lengths, blank_id)
    paths = np.argmax(log_probs, axis=2).tolist()
    return [collapse(path[:t], blank_id) for path, t in zip(paths, lengths.tolist())]


def prefix_beam_nbest(
    log_probs: np.ndarray,
    lengths,
    blank_id: int,
    beam_width: int,
    n: int,
) -> NBestLists:
    """Prefix beam search over collapsed sequences, every row of a padded batch at once.

    ``log_probs`` holds [B, T, V] log-probabilities and row ``i`` has
    ``lengths[i]`` real frames; each must be a distribution. Returns one
    :class:`NBestList` per row: the top ``n`` prefixes of that row by
    total log-probability, summed over all frame paths that collapse to
    the prefix, and shorter and flagged ``incomplete`` if fewer distinct
    prefixes are reachable. A row's list does not depend on the other
    rows of the batch. A beam no frame's candidates outnumber (such as
    ``V ** T`` for ``T`` frames of ``V`` classes) prunes nothing, which
    makes the ranking exact.

    Every live prefix of every row keeps its log mass of paths ending in
    blank (``pb``) and in non-blank (``pnb``), and each frame scores all
    of them as one ``[live, V]`` array. A prefix stays with
    ``total + p[blank]`` (blank mass) and ``pnb + p[last]`` (repeat
    collapse, non-blank mass); its extensions are ``total + p[k]``,
    except ``pb + p[last]`` in its last-token column (only a
    blank-separated path may repeat a token), and the stay takes the
    blank column. An extension that equals a live prefix, which needs
    that prefix's parent to be live too, is merged into the prefix's
    non-blank mass and dropped. Every mass is thus a ``logaddexp`` of at
    most two terms, so scores do not depend on the order in which
    prefixes are visited. Candidates of zero probability are dropped, so
    the state is sized by the live prefixes, never by ``beam_width``.

    Each row keeps its ``beam_width`` best candidates under the key
    ``(-score, length, tokens)``: equal scores go to the shorter, then
    the lexicographically smaller prefix. A partition finds each row's
    cut score; the exact key is built only for rows whose ties at the
    cut overfill the beam. Prefixes are nodes of a trie, one per
    distinct (row, token sequence), so a live prefix finds its parent by
    node id; token tuples are made once per node.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beam_width < n:
        raise ValueError("beam_width must be >= n")
    lengths = _check_batch(log_probs, lengths, blank_id)
    rows, t_max, vocab = log_probs.shape
    blank = blank_id
    # rows longest first: the rows still searching at a frame are a leading
    # block of this order, and their prefixes a leading block of the state
    order = np.argsort(-lengths, kind="stable")
    lp = log_probs[order]
    ends = lengths[order].tolist()

    # trie: node -> token sequence, child key (parent node * V + token) ->
    # node; node 0 is no prefix, nodes 1..B are the rows' empty prefixes
    seqs: list[TokenSeq] = [()] * (rows + 1)
    children: dict[int, int] = {}
    # node -> its index in the state while live, else -1; grows with the trie
    slot = np.full((rows + 1) * (t_max + 1), -1)

    # the live prefixes of the searching rows, grouped by row: row, trie
    # node, parent node, last token (the empty prefix's is blank: its
    # non-blank mass is -inf and its blank column is the stay), masses
    row = np.arange(rows)
    node = row + 1
    up = np.zeros(rows, dtype=np.int64)
    last = np.full(rows, blank)
    pb = np.zeros(rows)
    pnb = np.full(rows, NEG_INF)
    counts = [1] * rows  # live prefixes per searching row

    results: list[NBestList | None] = [None] * rows
    active = rows
    for t in range(t_max + 1):
        done = active
        while done and ends[done - 1] <= t:
            done -= 1
        if done < active:
            # rows whose frames ended: rank their prefixes
            bounds = [0, *itertools.accumulate(counts)]
            first = bounds[done]
            scores = np.logaddexp(pb[first:], pnb[first:]).tolist()
            hyps = [(seqs[m], score) for m, score in zip(node[first:].tolist(), scores)]
            for r in range(done, active):
                ranked = sorted(
                    hyps[bounds[r] - first : bounds[r + 1] - first],
                    key=lambda h: (-h[1], len(h[0]), h[0]),
                )[:n]
                results[order[r]] = NBestList(hypotheses=ranked, incomplete=len(ranked) < n)
            row, node, up, last = row[:first], node[:first], up[:first], last[:first]
            pb, pnb, counts = pb[:first], pnb[:first], counts[:done]
            active = done
        if not active:
            break

        frame = lp[row, t]
        at = np.arange(row.size)
        total = np.logaddexp(pb, pnb)
        p_last = frame[at, last]
        stay_b = total + frame[:, blank]
        stay_nb = pnb + p_last
        ext = total[:, None] + frame
        ext[at, last] = pb + p_last
        parent = slot[up]
        child = (parent >= 0).nonzero()[0]
        if child.size:
            src = parent[child], last[child]
            stay_nb[child] = np.logaddexp(stay_nb[child], ext[src])
            ext[src] = NEG_INF
        ext[:, blank] = np.logaddexp(stay_b, stay_nb)

        # each row keeps the candidates at or above its cut score
        k_max = max(counts)
        width = k_max * vocab
        floor = _LOWEST
        if width > beam_width:
            # one [rows, k_max * V] grid: ext itself when every row has
            # k_max prefixes, else ext's rows padded with -inf
            if min(counts) == k_max:
                grid = ext.reshape(active, width)
            else:
                start = np.cumsum(counts) - counts
                grid = np.full((active * k_max, vocab), NEG_INF)
                grid[row * k_max + at - start[row]] = ext
                grid = grid.reshape(active, width)
            cut = np.partition(grid, width - beam_width, axis=1)[:, width - beam_width]
            floor = np.maximum(cut, _LOWEST)[row, None]
        kept = (ext >= floor).ravel().nonzero()[0]
        entry, col = np.divmod(kept, vocab)
        row = row[entry]
        counts = np.bincount(row, minlength=active).tolist()
        if max(counts) > beam_width:
            # ties at a row's cut score: the exact key decides who stays
            score = ext.ravel()[kept]
            entries, cols, nodes = entry.tolist(), col.tolist(), node.tolist()

            def key(i):
                seq = seqs[nodes[entries[i]]]
                seq = seq if cols[i] == blank else seq + (cols[i],)
                return len(seq), seq

            drop = []
            for r in [r for r, c in enumerate(counts) if c > beam_width]:
                tied = np.flatnonzero((row == r) & (score == cut[r])).tolist()
                drop += sorted(tied, key=key)[beam_width - counts[r] + len(tied) :]
            kept, entry, col, row = (np.delete(a, drop) for a in (kept, entry, col, row))
            counts = [min(c, beam_width) for c in counts]

        stay = col == blank
        grow = (~stay).nonzero()[0]
        pb = np.where(stay, stay_b[entry], NEG_INF)
        pnb = np.where(stay, stay_nb[entry], ext.ravel()[kept])
        last = np.where(stay, last[entry], col)
        slot[node] = -1
        up = up[entry]
        new_node = node[entry]
        if grow.size:
            parents = new_node[grow]
            up[grow] = parents
            keys = (parents * vocab + col[grow]).tolist()
            known = len(seqs)
            # a new child takes the next id: nodes 0..B, then one per key
            ids = [children.setdefault(k, len(children) + rows + 1) for k in keys]
            seqs += [seqs[k // vocab] + (k % vocab,) for k, i in zip(keys, ids) if i >= known]
            new_node[grow] = ids
            if len(seqs) > slot.size:
                slot = np.concatenate([slot, np.full(len(seqs), -1)])
        node = new_node
        slot[node] = np.arange(node.size)
    return NBestLists(results)


def format_nbest(utt_id: str, nbest: NBestList, id_to_token) -> str:
    """Serialize an N-best list: one ``utt_id<TAB>rank<TAB>log_score<TAB>tokens`` line per hypothesis."""
    lines = []
    for rank, (seq, score) in enumerate(nbest.hypotheses, start=1):
        toks = " ".join(id_to_token[t] for t in seq)
        lines.append(f"{utt_id}\t{rank}\t{score:.8f}\t{toks}")
    return "\n".join(lines)
