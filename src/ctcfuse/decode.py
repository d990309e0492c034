"""Inference: attention beam search, CTC+attention rescoring, CER reports."""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.alignment import edit_distance
from ctcfuse.ctc import CtcPosterior, NBestList, prefix_beam_nbest
from ctcfuse.data import Utterance, Vocabulary, pad_id_rows
from ctcfuse.model import DecoderCache, EncoderOutput, Model
from ctcfuse.tensor import NumericError, Tensor

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
        if not self.max_len_factor > 0:  # also rejects nan
            raise ValueError("max_len_factor must be positive")


def _posterior(model: Model, enc: EncoderOutput, vocab: Vocabulary) -> CtcPosterior:
    return CtcPosterior(model.ctc_head(enc).data[0, : int(enc.lengths[0])], vocab.blank_id)


def _ne_memory_for(model: Model, post: CtcPosterior, vocab: Vocabulary) -> Tensor:
    """Encode the utterance's CTC N-best once; attended at every decode step."""
    nbest = prefix_beam_nbest(post, model.fusion.beam_width, model.fusion.n)
    return model.ne_memory([nbest], vocab.pad_id)


def attention_beam_decode(
    features: np.ndarray,
    model: Model,
    cfg: DecodeConfig,
    vocab: Vocabulary,
) -> tuple[tuple[int, ...], float, bool]:
    """Autoregressive beam search from sos; hypotheses end at eos.

    Returns ``(tokens, score, reached_eos)`` where the score is the total
    log-probability normalized by output length at the final ranking
    only. If nothing reaches eos within the length cap the best partial
    hypothesis comes back flagged.

    Each step feeds the decoder only the newest token of every live beam;
    a :class:`DecoderCache` holds the earlier positions, one row per live
    beam, and the encoder output and N-best memory stay one row.
    """
    model.train(False)
    with tz.inference():
        feats = np.asarray(features, dtype=np.float64)
        enc = model.encode(feats[None, :, :], np.array([feats.shape[0]]))
        ne_memory = None
        if model.uses_ne_memory:
            ne_memory = _ne_memory_for(model, _posterior(model, enc, vocab), vocab)
        max_len = max(1, int(round(cfg.max_len_factor * int(enc.lengths[0]))))
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
            grown = [b for b in beams if b[2]]
            for row, (toks, score, _, _) in enumerate(live):
                for k in range(vocab.size):
                    cand = score + float(logp[row, k])
                    if k == vocab.eos_id:
                        grown.append((toks, cand, True, row))
                    else:
                        grown.append((toks + (k,), cand, False, row))
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


def ctc_rescore_decode(
    features: np.ndarray,
    model: Model,
    cfg: DecodeConfig,
    vocab: Vocabulary,
) -> tuple[tuple[int, ...], float]:
    """Rerank CTC prefix-beam candidates by interpolated CTC/attention scores.

    ``lambda_dec`` weighs the CTC path-sum score; ``1 - lambda_dec`` the
    teacher-forced attention log-likelihood. An empty candidate is scored
    like any other hypothesis.
    """
    model.train(False)
    with tz.inference():
        feats = np.asarray(features, dtype=np.float64)
        enc = model.encode(feats[None, :, :], np.array([feats.shape[0]]))
        post = _posterior(model, enc, vocab)
        nbest = prefix_beam_nbest(post, cfg.beam, cfg.beam)
        ne_memory = _ne_memory_for(model, post, vocab) if model.uses_ne_memory else None
        candidates = nbest.sequences()
        att_scores = teacher_forced_scores(model, enc, candidates, vocab, ne_memory)
    ctc_scores = np.array([score for _, score in nbest.hypotheses])
    combined = cfg.lambda_dec * ctc_scores + (1.0 - cfg.lambda_dec) * att_scores
    best = int(np.argmax(combined))
    return candidates[best], float(combined[best])


@contextlib.contextmanager
def _numeric_failure_names(utt: Utterance):
    """Turn a non-finite value while decoding ``utt`` into a NumericError naming it."""
    try:
        yield
    except FloatingPointError as err:
        raise NumericError(f"utterance {utt.utt_id}: {err}") from err


def decode_utterance(
    utt: Utterance, model: Model, cfg: DecodeConfig, vocab: Vocabulary
) -> tuple[tuple[int, ...], float]:
    """``(tokens, score)`` of the best hypothesis by the decoder ``cfg.method`` names.

    A non-finite value while decoding raises :class:`NumericError` naming
    the utterance.
    """
    with _numeric_failure_names(utt):
        if cfg.method == METHOD_ATTENTION:
            tokens, score, _ = attention_beam_decode(utt.features, model, cfg, vocab)
            return tokens, score
        return ctc_rescore_decode(utt.features, model, cfg, vocab)


def ctc_nbest(utt: Utterance, model: Model, vocab: Vocabulary, beam: int, n: int) -> NBestList:
    """The CTC prefix-beam N-best of ``utt``; a non-finite value is named as in decoding."""
    with _numeric_failure_names(utt), tz.inference():
        enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
        return prefix_beam_nbest(_posterior(model, enc, vocab), beam, n)


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
    ref_len: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "utt_id": self.utt_id,
                "cer": self.cer,
                "subs": self.subs,
                "ins": self.ins,
                "dels": self.dels,
            },
            sort_keys=True,
        )


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
        hyp = tuple(decode_fn(utt))
        cost, script = edit_distance(utt.transcript, hyp)
        subs = sum(1 for op, _, _ in script if op == "sub")
        dels = sum(1 for op, _, _ in script if op == "del")
        ins = sum(1 for op, _, _ in script if op == "ins")
        ref_len = len(utt.transcript)
        records.append(
            EvalRecord(
                utt_id=utt.utt_id,
                cer=cost / ref_len,
                subs=subs,
                ins=ins,
                dels=dels,
                ref_len=ref_len,
            )
        )
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
