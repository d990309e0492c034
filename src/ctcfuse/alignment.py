"""Edit-distance machinery: scoring, blank-insertion alignment, length gating.

The alignment pairs a reference sequence with a hypothesis of possibly
different length by inserting blank sentinels on whichever side lacks a
token, so downstream consumers always see two equal-length sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

TokenSeq = tuple[int, ...]

MATCH, SUB, DEL, INS = "match", "sub", "del", "ins"


class PathwayDecision(enum.Enum):
    """How a training utterance's decoder input is built, by length agreement."""

    FUSE = "fuse"
    CTC_AS_INPUT = "ctc_as_input"
    GROUND_TRUTH_ONLY = "ground_truth_only"


@dataclass(frozen=True)
class GatingConfig:
    """Length-difference thresholds deciding the decoder-input pathway.

    ``absolute`` mode compares |len difference| against ``t_l``;
    ``relative`` mode compares it as a fraction of the reference length
    against ``t_r``. Exactly one mode is active per run.
    """

    mode: str = "absolute"
    t_l: int = 2
    t_r: float = 0.15

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if self.t_l < 0 or not 0 <= self.t_r < float("inf"):  # also rejects nan
            raise ValueError("gating thresholds t_l and t_r must be non-negative, t_r finite")


@dataclass(frozen=True)
class AlignedPair:
    """Equal-length sequences with blank sentinels marking indels."""

    y_align: TokenSeq
    w_align: TokenSeq
    blank_id: int
    blanks_inserted: int

    def __post_init__(self):
        if len(self.y_align) != len(self.w_align):
            raise ValueError("aligned sequences must have equal length")


def edit_distance(a, b) -> tuple[int, list[tuple]]:
    """Minimal unit-cost edit script turning ``a`` into ``b``.

    Returns ``(cost, script)`` where script entries are ``(op, a_tok, b_tok)``
    with ``op`` one of match/sub/del/ins (None stands for the absent side).
    Traceback ties break substitution > deletion > insertion, so the
    script is deterministic.
    """
    a = tuple(a)
    b = tuple(b)
    la, lb = len(a), len(b)
    dp = np.zeros((la + 1, lb + 1), dtype=np.int64)
    dp[:, 0] = np.arange(la + 1)
    dp[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            sub_cost = dp[i - 1, j - 1] + (a[i - 1] != b[j - 1])
            dp[i, j] = min(sub_cost, dp[i - 1, j] + 1, dp[i, j - 1] + 1)

    script: list[tuple] = []
    i, j = la, lb
    while i > 0 or j > 0:
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and dp[i, j] == dp[i - 1, j - 1]:
            script.append((MATCH, a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + 1:
            script.append((SUB, a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            script.append((DEL, a[i - 1], None))
            i = i - 1
        else:
            script.append((INS, None, b[j - 1]))
            j = j - 1
    script.reverse()
    return int(dp[la, lb]), script


def aef_align(y, w, blank_id: int) -> AlignedPair:
    """Equalize ``y`` (reference) and ``w`` (hypothesis) by inserting blanks.

    A deletion (token of ``y`` missing from ``w``) puts a blank into the
    aligned hypothesis; an insertion (extra token in ``w``) puts a blank
    into the aligned reference. Stripping blanks from either side
    recovers the original sequence exactly.
    """
    y = tuple(y)
    w = tuple(w)
    if blank_id in y or blank_id in w:
        raise ValueError("aef_align inputs must not contain the blank token")
    _, script = edit_distance(y, w)
    # edit_distance leaves the absent side of a deletion or insertion None
    y_align = tuple(blank_id if ya is None else ya for _, ya, _ in script)
    w_align = tuple(blank_id if wb is None else wb for _, _, wb in script)
    # each side grew by the blanks put into it
    blanks = len(y_align) - len(y) + len(w_align) - len(w)
    return AlignedPair(y_align=y_align, w_align=w_align, blank_id=blank_id, blanks_inserted=blanks)


def gate(len_ctc: int, len_gt: int, cfg: GatingConfig) -> PathwayDecision:
    """Classify the hypothesis/reference length relation.

    Equal lengths fuse; unequal-but-within-threshold uses the hypothesis
    as decoder input; anything further falls back to plain teacher
    forcing. Threshold equality counts as within.
    """
    if len_gt < 1:
        raise ValueError("reference length must be >= 1")
    if len_ctc == len_gt:
        return PathwayDecision.FUSE
    delta = abs(len_ctc - len_gt)
    if cfg.mode == "absolute":
        close = delta <= cfg.t_l
    else:
        close = delta / len_gt <= cfg.t_r
    return PathwayDecision.CTC_AS_INPUT if close else PathwayDecision.GROUND_TRUTH_ONLY


def cer(ref, hyp) -> float:
    """Character error rate: edit distance divided by reference length."""
    ref = tuple(ref)
    if len(ref) < 1:
        raise ValueError("reference must be non-empty")
    cost, _ = edit_distance(ref, tuple(hyp))
    return cost / len(ref)


def render_alignment(pair: AlignedPair, id_to_token) -> str:
    """Three aligned text rows (REF / HYP / OPS) plus the blank count."""

    def tok(t: int) -> str:
        return "-" if t == pair.blank_id else str(id_to_token[t])

    ref_toks = [tok(t) for t in pair.y_align]
    hyp_toks = [tok(t) for t in pair.w_align]
    ops = []
    for a, b in zip(pair.y_align, pair.w_align):
        if a == b:
            ops.append("=")
        elif a == pair.blank_id:
            ops.append("I")
        elif b == pair.blank_id:
            ops.append("D")
        else:
            ops.append("S")
    width = [max(len(r), len(h), 1) for r, h in zip(ref_toks, hyp_toks)]
    fmt = lambda toks: " ".join(t.ljust(w) for t, w in zip(toks, width)).rstrip()
    return "\n".join(
        [
            "REF: " + fmt(ref_toks),
            "HYP: " + fmt(hyp_toks),
            "OPS: " + fmt(ops),
            f"blanks_inserted: {pair.blanks_inserted}",
        ]
    )
