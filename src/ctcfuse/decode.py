"""Inference: attention beam search, CTC+attention rescoring, CER reports."""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.alignment import edit_distance
from ctcfuse.ctc import NBestList, prefix_beam_nbest
from ctcfuse.data import Utterance, Vocabulary, pad_id_rows
from ctcfuse.model import DecoderCache, EncoderOutput, Model
from ctcfuse.tensor import Tensor

METHOD_ATTENTION = "attention"
METHOD_RESCORE = "ctc_rescore"
DECODE_METHODS = (METHOD_ATTENTION, METHOD_RESCORE)


@dataclass(frozen=True)
class DecodeConfig:
    method: str = METHOD_ATTENTION
    beam: int = 10
    lambda_dec: float = 0.3  # rescore interpolation toward the CTC score
    max_len_factor: float = 1.0  # output-length cap as a fraction of encoder frames

    def __post_init__(self):
        if self.method not in DECODE_METHODS:
            raise ValueError(f"unknown decode method {self.method!r}")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if not 0.0 <= self.lambda_dec <= 1.0:
            raise ValueError("lambda_dec must lie in [0, 1]")
        if not 0.0 < self.max_len_factor < float("inf"):  # also rejects nan
            raise ValueError("max_len_factor must be positive and finite")


def _decode(
    features: np.ndarray, model: Model, cfg: DecodeConfig, vocab: Vocabulary, method: str,
    nbest: int = 0,
) -> tuple[tuple[int, ...], float, bool | None, NBestList | None]:
    """``(tokens, score, reached_eos, nbest_list)`` of one utterance by ``method``.

    One encode, in eval mode inside ``inference()`` and ``fp_guard()``; one
    CTC head, run only if the N-best memory, rescoring or ``nbest`` read it.
    The search ranks before it cuts at ``n``, so the memory (width
    ``fusion.beam_width``), the rescoring candidates (``cfg.beam``) and the
    ``nbest`` list (``max(cfg.beam, nbest)``; None when ``nbest`` is 0)
    share one search per width. ``reached_eos`` is None for rescoring.
    """
    model.train(False)
    with tz.inference(), tz.fp_guard():
        enc = model.encode(features[None, :, :], np.array([features.shape[0]]))
        if model.uses_ne_memory or method == METHOD_RESCORE or nbest:
            log_probs = model.ctc_head(enc).data
        searched: dict[int, list] = {}

        def top(width: int, n: int) -> NBestList:
            if width not in searched:
                nbests = prefix_beam_nbest(log_probs, enc.lengths, vocab.blank_id, width, width)
                searched[width] = nbests[0].hypotheses
            hyps = searched[width][:n]
            return NBestList(hyps, incomplete=len(hyps) < n)

        ne_memory = None
        if model.uses_ne_memory:
            memory = top(model.fusion.beam_width, model.fusion.n)
            ne_memory = model.ne_memory([memory], vocab.pad_id)
        nbest_list = top(max(cfg.beam, nbest), nbest) if nbest else None
        if method != METHOD_RESCORE:
            return (*_attention_search(model, enc, ne_memory, cfg, vocab), nbest_list)
        candidates = top(cfg.beam, cfg.beam)
        att_scores = teacher_forced_scores(model, enc, candidates.sequences(), vocab, ne_memory)
        ctc_scores = np.array([score for _, score in candidates.hypotheses])
        combined = cfg.lambda_dec * ctc_scores + (1.0 - cfg.lambda_dec) * att_scores
        best = int(np.argmax(combined))
    return candidates.hypotheses[best][0], float(combined[best]), None, nbest_list


def _attention_search(
    model: Model, enc: EncoderOutput, ne_memory: Tensor | None, cfg: DecodeConfig, vocab: Vocabulary
) -> tuple[tuple[int, ...], float, bool]:
    """Beam search from sos over one utterance's encoder output and N-best memory.

    Each step feeds the decoder only the newest token of every live beam;
    a :class:`DecoderCache` holds the earlier positions, one row per live
    beam, and the encoder output and N-best memory stay one row. The
    step's candidates are scored as one ``[live, V]`` array beside the
    finished beams, and only those scoring at least the ``beam``-th best
    are ranked, by ``(-score, tokens)`` and then candidate order: the
    ranking a stable sort of every candidate gives (Seki et al., 2019).
    """
    # a finite factor times the frame count can still overflow to inf
    max_len = max(1, round(min(cfg.max_len_factor * int(enc.lengths[0]), sys.maxsize)))
    cache = DecoderCache()

    # (tokens, raw log-prob, finished, cache row of the live parent);
    # finished entries ride along in the beam so beam=1 terminates
    # exactly where stepwise argmax does
    beams: list[tuple[tuple[int, ...], float, bool, int]] = [((), 0.0, False, 0)]
    for _ in range(max_len):
        live = [b for b in beams if not b[2]]
        if not live:
            break
        cache.reorder([b[3] for b in live])
        ids = np.array([[b[0][-1] if b[0] else vocab.sos_id] for b in live], dtype=np.int64)
        logits = model.decoder_forward(
            model.embed_tokens(ids, cache.length), enc, ne_memory, cache=cache
        )
        logp = tz.log_softmax(Tensor(logits.data[:, -1, :])).data
        done = [b for b in beams if b[2]]
        # every candidate score in insertion order: the finished beams,
        # then row by row each live beam extended by every token
        scores = np.concatenate(
            [[b[1] for b in done], (np.array([b[1] for b in live])[:, None] + logp).ravel()]
        )
        picked = range(len(scores))
        if len(scores) > cfg.beam:
            # only candidates scoring at least the beam-th best can survive
            cut = np.partition(scores, len(scores) - cfg.beam)[len(scores) - cfg.beam]
            picked = np.flatnonzero(scores >= cut).tolist()
        grown = []
        for i in picked:
            if i < len(done):
                grown.append(done[i])
                continue
            row, k = divmod(i - len(done), logp.shape[1])
            toks, score = live[row][0], float(scores[i])
            if k == vocab.eos_id:
                grown.append((toks, score, True, row))
            else:
                grown.append((toks + (k,), score, False, row))
        # a stable sort, so equal keys keep insertion order
        grown.sort(key=lambda entry: (-entry[1], entry[0]))
        beams = grown[: cfg.beam]

    def normalized(entry) -> float:
        toks, score = entry[0], entry[1]
        return score / (len(toks) + 1)  # +1 counts the eos emission

    finished = [b for b in beams if b[2]]
    pool = finished if finished else beams
    best = max(pool, key=lambda b: (normalized(b), b[0]))
    return best[0], normalized(best), bool(finished)


def teacher_forced_scores(
    model: Model,
    enc: EncoderOutput,
    candidates: list[tuple[int, ...]],
    vocab: Vocabulary,
    ne_memory: Tensor | None,
) -> np.ndarray:
    """Total attention log-likelihood of each candidate (incl. its eos)."""
    ids = pad_id_rows([(vocab.sos_id,) + c for c in candidates], vocab.pad_id)
    tgt = pad_id_rows([c + (vocab.eos_id,) for c in candidates], vocab.pad_id)
    cols = np.arange(tgt.shape[1])
    mask = cols < np.array([len(c) + 1 for c in candidates])[:, None]
    logp = tz.log_softmax(model.decoder_forward(model.embed_tokens(ids), enc, ne_memory)).data
    picked = logp[np.arange(len(candidates))[:, None], cols, tgt] * mask
    return picked.sum(axis=1)


def attention_beam_decode(
    features: np.ndarray, model: Model, cfg: DecodeConfig, vocab: Vocabulary
) -> tuple[tuple[int, ...], float, bool]:
    """Autoregressive beam search from sos; hypotheses end at eos.

    Returns ``(tokens, score, reached_eos)`` where the score is the total
    log-probability normalized by output length at the final ranking
    only. If nothing reaches eos within the length cap the best partial
    hypothesis comes back flagged.
    """
    return _decode(features, model, cfg, vocab, METHOD_ATTENTION)[:3]


def ctc_rescore_decode(
    features: np.ndarray, model: Model, cfg: DecodeConfig, vocab: Vocabulary
) -> tuple[tuple[int, ...], float]:
    """Rerank CTC prefix-beam candidates by interpolated CTC/attention scores.

    ``lambda_dec`` weighs the CTC path-sum score; ``1 - lambda_dec`` the
    teacher-forced attention log-likelihood. An empty candidate is scored
    like any other hypothesis.
    """
    return _decode(features, model, cfg, vocab, METHOD_RESCORE)[:2]


def decode_utterance(
    utt: Utterance, model: Model, cfg: DecodeConfig, vocab: Vocabulary, nbest: int = 0
) -> tuple[tuple[int, ...], float, NBestList | None]:
    """``(tokens, score, nbest_list)`` of ``utt`` by the decoder ``cfg.method`` names.

    ``nbest_list`` is the CTC prefix-beam N-best of width ``max(cfg.beam,
    nbest)``, or None when ``nbest`` is 0. A non-finite value raises
    :class:`NumericError` naming the utterance.
    """
    with tz.numeric_failure_names(f"utterance {utt.utt_id}"):
        tokens, score, _, nbest_list = _decode(utt.features, model, cfg, vocab, cfg.method, nbest)
    return tokens, score, nbest_list


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------


@dataclass
class EvalRecord:
    utt_id: str
    cer: float
    subs: int
    ins: int
    dels: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class EvalReport:
    records: list[EvalRecord]
    corpus_cer: float
    total_edits: int
    total_ref_len: int

    def render_table(self) -> str:
        lines = [f"{'utt_id':<16} {'cer':>7} {'sub':>4} {'ins':>4} {'del':>4}"]
        for rec in self.records:
            lines.append(
                f"{rec.utt_id:<16} {rec.cer:7.4f} {rec.subs:4d} {rec.ins:4d} {rec.dels:4d}"
            )
        lines.append(
            f"corpus CER {self.corpus_cer:.4f} "
            f"({self.total_edits} edits / {self.total_ref_len} reference tokens)"
        )
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        lines = [rec.to_json() for rec in self.records]
        lines.append(
            json.dumps(
                {
                    "summary": True,
                    "corpus_cer": self.corpus_cer,
                    "total_edits": self.total_edits,
                    "total_ref_len": self.total_ref_len,
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines)


def evaluate(corpus: list[Utterance], decode_fn) -> EvalReport:
    """Corpus CER (total edits over total reference length) plus per-utterance rows."""
    records = []
    total_edits = 0
    total_ref = 0
    for utt in corpus:
        cost, script = edit_distance(utt.transcript, tuple(decode_fn(utt)))
        ops = Counter(op for op, _, _ in script)
        ref_len = len(utt.transcript)
        records.append(EvalRecord(utt.utt_id, cost / ref_len, ops["sub"], ops["ins"], ops["del"]))
        total_edits += cost
        total_ref += ref_len
    return EvalReport(
        records=records,
        corpus_cer=total_edits / total_ref if total_ref else 0.0,
        total_edits=total_edits,
        total_ref_len=total_ref,
    )


def format_hypothesis(utt_id: str, tokens, score: float, vocab: Vocabulary) -> str:
    """One ``utt_id<TAB>log_score<TAB>tokens`` hypothesis line."""
    toks = " ".join(vocab.id_to_token[t] for t in tokens)
    return f"{utt_id}\t{score:.8f}\t{toks}"
